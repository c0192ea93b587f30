"""Independent finite-difference cross-check of the Airy-based solver.

Everything upstream of this module trusts Airy functions; this solver
does not.  It discretizes the Hamiltonian on a uniform grid with a
second-order stencil, folds the wall condition into the last row through
a ghost node that is eliminated symmetrically, and diagonalizes the
resulting tridiagonal matrix.  One Richardson step over a halved grid
upgrades eigenvalues and moments to fourth order, which is enough to
confront the spectral solver at the 1e-4 level without heroic grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import root_table
from .spectrum import BoundarySpec, ConsistencyError, DomainError

__all__ = [
    "DecayError",
    "GridSpec",
    "default_grid",
    "fd_energies",
    "fd_energies_raw",
    "fd_moment",
]


class DecayError(RuntimeError):
    """An eigenvector still carries weight at the truncated edge."""

    def __init__(self, message: str, suggested_x_min: float):
        super().__init__(message)
        self.suggested_x_min = suggested_x_min


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid from a truncation point up to the wall at zero."""

    x_min: float
    n_points: int = 2001

    def __post_init__(self):
        if not self.x_min < 0.0:
            raise ValueError("x_min must be negative")
        if self.n_points < 64:
            raise ValueError("n_points below 64 cannot resolve anything useful")

    @property
    def h(self) -> float:
        return -self.x_min / (self.n_points - 1)

    def refined(self) -> "GridSpec":
        """Same span at half the step."""
        return GridSpec(x_min=self.x_min, n_points=2 * self.n_points - 1)


def default_grid(bc, field: float, levels: int) -> GridSpec:
    """Truncation that leaves the requested levels fully decayed.

    The turning point of the highest level sets the scale; a fixed
    number of local Airy widths past it buries the edge in the forbidden
    region.
    """
    field = float(field)
    if not field > 0.0:
        raise DomainError("field must be positive")
    levels = int(levels)
    if levels < 1:
        raise ValueError("need at least one level")
    top = abs(root_table(levels + 2).ai_zero(levels + 2))
    # A margin of field itself would swamp the F^(2/3) level scale at strong
    # field and stretch the grid far beyond the F^(-1/3) width of the state.
    e_max = field ** (2.0 / 3.0) * top + min(field, field ** (2.0 / 3.0)) + 2.0
    x_min = -(e_max / field + 15.0 * field ** (-1.0 / 3.0))
    return GridSpec(x_min=x_min)


def _assemble(bc: BoundarySpec, field: float, grid: GridSpec):
    """Tridiagonal (diag, offdiag) pair and the matching node array.

    For walls with a slope condition the ghost node beyond the wall is
    eliminated with the centered derivative, and the resulting
    nonsymmetric last row is symmetrized by rescaling the wall component;
    eigenvalues are untouched and the wall amplitude is recovered by
    multiplying the last eigenvector entry back by sqrt(2).
    """
    h = grid.h
    inv_h2 = 1.0 / (h * h)
    x = np.linspace(grid.x_min, 0.0, grid.n_points)
    if bc is BoundarySpec.DIRICHLET:
        nodes = x[1:-1]
        diag = 2.0 * inv_h2 - field * nodes
        off = np.full(nodes.size - 1, -inv_h2)
        return diag, off, nodes
    sigma = bc.wall_slope
    nodes = x[1:]
    diag = 2.0 * inv_h2 - field * nodes
    diag[-1] = 2.0 * (1.0 - h * sigma) * inv_h2
    off = np.full(nodes.size - 1, -inv_h2)
    off[-1] = -math.sqrt(2.0) * inv_h2
    return diag, off, nodes


def _check_decay(vectors: np.ndarray, grid: GridSpec):
    worst = np.max(np.abs(vectors[0, :]) / np.max(np.abs(vectors), axis=0))
    if worst > 1e-10:
        raise DecayError(
            f"eigenvector weight {worst:.3e} at the truncated edge; "
            "the grid does not reach the forbidden region",
            suggested_x_min=1.5 * grid.x_min,
        )


def _solve_grid(bc: BoundarySpec, field: float, levels: int, grid: GridSpec):
    # Imported here so that only grid solves pay for loading scipy.linalg.
    from scipy.linalg import eigh_tridiagonal

    diag, off, nodes = _assemble(bc, field, grid)
    try:
        values, vectors = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, levels - 1)
        )
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(
            f"{bc.value} grid at field {field:g} (level count {levels}): the "
            f"tridiagonal eigensolver did not converge ({exc})") from None
    _check_decay(vectors, grid)
    return values, vectors, nodes


def fd_energies_raw(bc, field: float, levels: int, grid: GridSpec) -> np.ndarray:
    """Grid eigenvalues with no extrapolation, ascending."""
    bc = BoundarySpec.parse(bc)
    values, _, _ = _solve_grid(bc, float(field), int(levels), grid)
    return values


def _refuse_unresolved(bc: BoundarySpec, field: float, coarse: np.ndarray,
                       fine: np.ndarray) -> None:
    """Raise unless every level's half-step correction is within 1e-2 of its scale.

    The scale is max(|E|, F^(2/3)): beyond 1e-2 the extrapolated error is
    about the correction's square, above the oracle's 1e-4.  The field's
    energy unit F^(2/3) keeps a level that passes through zero energy
    (robin- n=0 at zero_energy_field()) measurable.
    """
    correction = np.abs(fine - coarse) / np.maximum(np.abs(fine), field ** (2.0 / 3.0))
    bad = np.nonzero(correction > 1e-2)[0]
    if bad.size:
        n = int(bad[0])
        raise ConsistencyError(
            f"{bc.value} level {n} at field {field:g}: the half-step correction "
            f"{correction[n]:.3g} exceeds 1e-2; the grid does not resolve the state")


def fd_energies(bc, field: float, levels: int, grid: GridSpec | None = None) -> np.ndarray:
    """Lowest eigenvalues from the grid solver.

    The second-order error is cancelled between the grid and its half-step
    refinement (one Richardson step), and a grid that does not resolve a
    level is refused with a ConsistencyError.
    """
    bc = BoundarySpec.parse(bc)
    field = float(field)
    levels = int(levels)
    grid = grid or default_grid(bc, field, levels)
    coarse = fd_energies_raw(bc, field, levels, grid)
    fine = fd_energies_raw(bc, field, levels, grid.refined())
    _refuse_unresolved(bc, field, coarse, fine)
    return (4.0 * fine - coarse) / 3.0


def _moment_on_grid(bc: BoundarySpec, field: float, n: int, power: int,
                    grid: GridSpec) -> tuple:
    """(moment of level n, the grid's levels 0..n)."""
    values, vectors, nodes = _solve_grid(bc, field, n + 1, grid)
    psi = vectors[:, n].copy()
    if bc is not BoundarySpec.DIRICHLET:
        psi[-1] *= math.sqrt(2.0)
    # Pad the truncated edge (and, for a hard wall, the wall node) with
    # the boundary zeros so the trapezoid weights come out right.
    if bc is BoundarySpec.DIRICHLET:
        full_x = np.concatenate(([grid.x_min], nodes, [0.0]))
        full_psi = np.concatenate(([0.0], psi, [0.0]))
    else:
        full_x = np.concatenate(([grid.x_min], nodes))
        full_psi = np.concatenate(([0.0], psi))
    rho = full_psi * full_psi
    norm = np.trapezoid(rho, full_x)
    return float(np.trapezoid(full_x ** power * rho, full_x) / norm), values


def fd_moment(bc, field: float, n: int, power: int = 1,
              grid: GridSpec | None = None) -> float:
    """Richardson-extrapolated coordinate moment of one grid eigenstate.

    The grid is refused as in :func:`fd_energies`, on the energies of the
    same two grid solves.  The moment's own half-step correction is no test:
    for the neumann ground state at F = 1e-6 it is 6e-4 while the moment is
    0.68 off.
    """
    bc = BoundarySpec.parse(bc)
    field = float(field)
    n = int(n)
    power = int(power)
    grid = grid or default_grid(bc, field, n + 1)
    coarse, coarse_levels = _moment_on_grid(bc, field, n, power, grid)
    fine, fine_levels = _moment_on_grid(bc, field, n, power, grid.refined())
    _refuse_unresolved(bc, field, coarse_levels, fine_levels)
    return (4.0 * fine - coarse) / 3.0

"""Independent finite-difference cross-check of the Airy-based solver.

Everything upstream of this module trusts Airy functions; this solver
does not.  It discretizes the Hamiltonian on a uniform grid with a
second-order stencil, folds the wall condition into the last row through
a ghost node that is eliminated symmetrically, and diagonalizes the
resulting tridiagonal matrix.  One Richardson step over a halved grid
upgrades eigenvalues and moments to fourth order, which is enough to
confront the spectral solver at the 1e-4 level without heroic grids.
The grid follows from the field and the level count alone: 2001 nodes
from the truncation point to the wall, then 4001 over the same span.
"""

from __future__ import annotations

import math

import numpy as np

from .special import root_table
from .spectrum import BoundarySpec, ConsistencyError, DomainError

__all__ = ["fd_energies", "fd_moment"]

_POINTS = 2001  # nodes of the coarse grid, truncation point and wall included


def _x_min(field: float, levels: int) -> float:
    """Truncation that leaves the requested levels fully decayed.

    The turning point of the highest level sets the scale; a fixed
    number of local Airy widths past it buries the edge in the forbidden
    region.
    """
    top = abs(root_table(levels + 2).ai_zero(levels + 2))
    # A margin of field itself would swamp the F^(2/3) level scale at strong
    # field and stretch the grid far beyond the F^(-1/3) width of the state.
    e_max = field ** (2.0 / 3.0) * top + min(field, field ** (2.0 / 3.0)) + 2.0
    return -(e_max / field + 15.0 * field ** (-1.0 / 3.0))


def _solve_grid(bc: BoundarySpec, field: float, levels: int, x_min: float,
                points: int) -> tuple:
    """(lowest eigenvalues, their eigenvectors, the nodes from x_min to 0).

    For walls with a slope condition the ghost node beyond the wall is
    eliminated with the centered derivative, and the resulting
    nonsymmetric last row is symmetrized by rescaling the wall component;
    eigenvalues are untouched and the wall amplitude is recovered by
    multiplying the last eigenvector entry back by sqrt(2).  A level that
    still carries weight at the truncated edge is refused.
    """
    # Imported here so that only grid solves pay for loading scipy.linalg.
    from scipy.linalg import eigh_tridiagonal

    h = -x_min / (points - 1)
    inv_h2 = 1.0 / (h * h)
    x = np.linspace(x_min, 0.0, points)
    nodes = x[1:-1] if bc is BoundarySpec.DIRICHLET else x[1:]
    diag = 2.0 * inv_h2 - field * nodes
    off = np.full(nodes.size - 1, -inv_h2)
    if bc is not BoundarySpec.DIRICHLET:
        diag[-1] = 2.0 * (1.0 - h * bc.wall_slope) * inv_h2
        off[-1] = -math.sqrt(2.0) * inv_h2
    head = f"{bc.value} grid at field {field:g} (level count {levels})"
    try:
        values, vectors = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, levels - 1)
        )
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(
            f"{head}: the tridiagonal eigensolver did not converge ({exc})") from None
    worst = np.max(np.abs(vectors[0, :]) / np.max(np.abs(vectors), axis=0))
    if worst > 1e-10:
        raise ConsistencyError(
            f"{head}: eigenvector weight {worst:.3e} at the truncated edge; "
            "the grid does not reach the forbidden region")
    return values, vectors, x


def _refuse_unresolved(bc: BoundarySpec, field: float, coarse: np.ndarray,
                       fine: np.ndarray) -> None:
    """Raise unless every level's half-step correction is within 1e-2 of its scale.

    The scale is max(|E|, F^(2/3)): beyond 1e-2 the extrapolated error is
    about the correction's square, above the oracle's 1e-4.  The field's
    energy unit F^(2/3) keeps a level that passes through zero energy
    (robin- n=0 near F = 2.581) measurable.
    """
    correction = np.abs(fine - coarse) / np.maximum(np.abs(fine), field ** (2.0 / 3.0))
    bad = np.nonzero(correction > 1e-2)[0]
    if bad.size:
        n = int(bad[0])
        raise ConsistencyError(
            f"{bc.value} level {n} at field {field:g}: the half-step correction "
            f"{correction[n]:.3g} exceeds 1e-2; the grid does not resolve the state")


def _richardson(bc, field, levels: int, value):
    """(4 fine - coarse) / 3 of ``value(energies, vectors, x)`` over two grids.

    The fine grid halves the coarse step over the same span, and the pair
    is refused unless both resolve every level.
    """
    bc = BoundarySpec.parse(bc)
    field = float(field)
    if not field > 0.0:
        raise DomainError("field must be positive")
    if field == math.inf:
        raise DomainError("field must be finite")
    if levels < 1:
        raise ValueError("need at least one level")
    x_min = _x_min(field, levels)
    coarse = _solve_grid(bc, field, levels, x_min, _POINTS)
    fine = _solve_grid(bc, field, levels, x_min, 2 * _POINTS - 1)
    _refuse_unresolved(bc, field, coarse[0], fine[0])
    return (4.0 * value(*fine) - value(*coarse)) / 3.0


def fd_energies(bc, field: float, levels: int) -> np.ndarray:
    """Lowest eigenvalues from the grid solver, ascending.

    The second-order error is cancelled between the grid and its half-step
    refinement (one Richardson step), and a grid that does not resolve a
    level is refused with a ConsistencyError.
    """
    return _richardson(bc, field, int(levels), lambda energies, vectors, x: energies)


def fd_moment(bc, field: float, n: int, power: int = 1) -> float:
    """Richardson-extrapolated coordinate moment of one grid eigenstate.

    The grid is refused as in :func:`fd_energies`, on the energies of the
    same two grid solves.  The moment's own half-step correction is no test:
    for the neumann ground state at F = 1e-6 it is 6e-4 while the moment is
    0.68 off.
    """
    bc = BoundarySpec.parse(bc)
    n = int(n)
    power = int(power)

    def moment(energies, vectors, x) -> float:
        # The truncated edge (and, for a hard wall, the wall node) keeps
        # its boundary zero so the trapezoid weights come out right.
        psi = np.zeros_like(x)
        if bc is BoundarySpec.DIRICHLET:
            psi[1:-1] = vectors[:, n]
        else:
            psi[1:] = vectors[:, n]
            psi[-1] *= math.sqrt(2.0)
        rho = psi * psi
        return float(np.trapezoid(x ** power * rho, x) / np.trapezoid(rho, x))

    return _richardson(bc, field, n + 1, moment)

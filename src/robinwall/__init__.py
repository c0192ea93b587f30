"""Bound levels of a Robin wall on a half-line in a uniform field.

The package solves the one-dimensional stationary problem on x <= 0 with
a linear potential and a wall at the origin whose boundary condition is
Dirichlet, Neumann, or Robin of either extrapolation-length sign.  On
top of the spectra it provides normalized position and momentum
profiles, dipole observables, and the Shannon, Fisher, Onicescu, and
shape-complexity measures of every state, plus an independent
finite-difference oracle and a table-emitting command line.
"""

from .infomeasures import (
    ENTROPY_FLOOR,
    FisherMaximum,
    FlatWellEntropies,
    InfoRecord,
    entropy_crossing,
    fisher,
    fisher_momentum_coefficient,
    fisher_position_closed,
    fisher_product_maximum,
    flat_well_approximation,
    measure_state,
)
from .observables import (
    DipoleMatrix,
    GroundCoupling,
    PolarizationRecord,
    dipole_element_quadrature,
    dipole_matrix,
    ground_coupling_asymptote,
    hellmann_feynman_mean_x,
    mean_position,
    mean_x_quadrature,
    polarization,
    zero_field_mean_x,
)
from .oracle import DecayError, GridSpec, default_grid, fd_energies, fd_moment
from .quadrature import (
    DEFAULT_TOLERANCES,
    QuadratureError,
    ToleranceConfig,
)
from .special import AiryRootTable, asymptotic_zero, root_table
from .spectrum import (
    BoundarySpec,
    BoundState,
    BracketError,
    ConsistencyError,
    DomainError,
    eigenvalue_function,
    energy,
    energy_asymptotic,
    level_spacing,
    node_count,
    zero_energy_field,
    zero_energy_field_solved,
)
from .states import (
    ExtremumInfo,
    StateFunctions,
    boundary_residual,
    build_state,
    energy_identity_residual,
    extrema,
    momentum_norm,
    position_norm,
)
from .units import UnitScale, convert_units, electron_scale

__version__ = "0.1.0"

__all__ = [
    "ENTROPY_FLOOR",
    "DEFAULT_TOLERANCES",
    "AiryRootTable",
    "BoundState",
    "BoundarySpec",
    "BracketError",
    "ConsistencyError",
    "DecayError",
    "DipoleMatrix",
    "DomainError",
    "ExtremumInfo",
    "FisherMaximum",
    "FlatWellEntropies",
    "GridSpec",
    "GroundCoupling",
    "InfoRecord",
    "PolarizationRecord",
    "QuadratureError",
    "StateFunctions",
    "ToleranceConfig",
    "UnitScale",
    "asymptotic_zero",
    "boundary_residual",
    "build_state",
    "convert_units",
    "default_grid",
    "dipole_element_quadrature",
    "dipole_matrix",
    "eigenvalue_function",
    "electron_scale",
    "energy",
    "energy_asymptotic",
    "energy_identity_residual",
    "entropy_crossing",
    "extrema",
    "fd_energies",
    "fd_moment",
    "fisher",
    "fisher_momentum_coefficient",
    "fisher_position_closed",
    "fisher_product_maximum",
    "flat_well_approximation",
    "ground_coupling_asymptote",
    "hellmann_feynman_mean_x",
    "level_spacing",
    "mean_position",
    "mean_x_quadrature",
    "measure_state",
    "momentum_norm",
    "node_count",
    "polarization",
    "position_norm",
    "root_table",
    "zero_energy_field",
    "zero_energy_field_solved",
    "zero_field_mean_x",
]

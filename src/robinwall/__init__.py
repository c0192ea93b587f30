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
    fisher_position_closed,
    fisher_product_maximum,
    flat_well_approximation,
    measure_state,
)
from .observables import (
    DipoleMatrix,
    PolarizationRecord,
    dipole_element_quadrature,
    dipole_matrix,
    hellmann_feynman_mean_x,
    mean_position,
    mean_x_quadrature,
    polarization,
    zero_field_mean_x,
)
from .oracle import fd_energies, fd_moment
from .quadrature import QuadratureError
from .special import AiryRootTable, root_table
from .spectrum import (
    BoundarySpec,
    BoundState,
    BracketError,
    ConsistencyError,
    DomainError,
    energy,
    zero_energy_field,
)
from .states import (
    StateFunctions,
    boundary_residual,
    build_state,
    energy_identity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ENTROPY_FLOOR",
    "AiryRootTable",
    "BoundState",
    "BoundarySpec",
    "BracketError",
    "ConsistencyError",
    "DipoleMatrix",
    "DomainError",
    "FisherMaximum",
    "FlatWellEntropies",
    "InfoRecord",
    "PolarizationRecord",
    "QuadratureError",
    "StateFunctions",
    "boundary_residual",
    "build_state",
    "dipole_element_quadrature",
    "dipole_matrix",
    "energy",
    "energy_identity_residual",
    "entropy_crossing",
    "fd_energies",
    "fd_moment",
    "fisher",
    "fisher_position_closed",
    "fisher_product_maximum",
    "flat_well_approximation",
    "hellmann_feynman_mean_x",
    "mean_position",
    "mean_x_quadrature",
    "measure_state",
    "polarization",
    "root_table",
    "zero_energy_field",
    "zero_field_mean_x",
]

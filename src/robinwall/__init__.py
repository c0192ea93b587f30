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
    InfoRecord,
    entropy_crossing,
    fisher,
    fisher_position_closed,
    fisher_product_maximum,
    measure_state,
)
from .observables import (
    DipoleMatrix,
    PolarizationRecord,
    dipole_matrix,
    mean_position,
    polarization,
    zero_field_mean_x,
)
from .oracle import fd_energies
from .quadrature import QuadratureError
from .special import AiryRootTable, root_table
from .spectrum import (
    BoundarySpec,
    BoundState,
    BracketError,
    ConsistencyError,
    DomainError,
    energy,
)
from .states import StateFunctions, build_state

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
    "InfoRecord",
    "PolarizationRecord",
    "QuadratureError",
    "StateFunctions",
    "build_state",
    "dipole_matrix",
    "energy",
    "entropy_crossing",
    "fd_energies",
    "fisher",
    "fisher_position_closed",
    "fisher_product_maximum",
    "mean_position",
    "measure_state",
    "polarization",
    "root_table",
    "zero_field_mean_x",
]

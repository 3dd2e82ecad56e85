"""Numerics for a Struve-kernel convolution operator on the unit disk.

The package covers truncated power-series arithmetic, the Struve function
family and its normalized kernel, Gauss 2F1 through three cross-checking
representations, the convolution operator with its three-term recurrence,
numeric subordination testing against Möbius targets, and the sharp bound /
radius / inclusion certificates built on top.  ``struveops verify`` replays
every certificate on seeded grids.
"""

from .bounds import (
    DominantParams,
    best_dominant_q,
    lower_bound_h_minus1,
    modulus_bounds,
    q_starlike_certificate,
    radius_factor,
    radius_positivity,
    re_bounds,
    re_zqprime_over_q,
    sharp_bound_h,
)
from .classes import (
    CONTAINMENT_TOL,
    DEFAULT_RADII,
    ClassParams,
    MobiusTarget,
    Verdict,
    lemma3_check,
    lemma6_check,
    membership_samples,
    mobius_image_check,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NumericsError,
    ParameterError,
    PoleError,
)
from .hypergeom import (
    HypergeomParams,
    f21,
    f21_euler,
    f21_lerch,
    f21_pfaff,
    f21_series,
)
from .operator import (
    apply_s,
    phi,
    phi_series,
    recurrence_residual,
)
from .series import (
    PowerSeries,
    hadamard,
    ratio_sum,
)
from .specialfn import (
    StruveParams,
    digamma,
    gamma,
    generalized_m,
    normalized_n,
    normalized_n_series,
    ode_residual_n,
    struve_h,
    struve_l,
)

__version__ = "0.1.0"

__all__ = [
    "CONTAINMENT_TOL",
    "ClassParams",
    "ConvergenceError",
    "DEFAULT_RADII",
    "DomainError",
    "DominantParams",
    "HypergeomParams",
    "MobiusTarget",
    "NumericsError",
    "ParameterError",
    "PoleError",
    "PowerSeries",
    "StruveParams",
    "Verdict",
    "apply_s",
    "best_dominant_q",
    "digamma",
    "f21",
    "f21_euler",
    "f21_lerch",
    "f21_pfaff",
    "f21_series",
    "gamma",
    "generalized_m",
    "hadamard",
    "lemma3_check",
    "lemma6_check",
    "lower_bound_h_minus1",
    "membership_samples",
    "mobius_image_check",
    "modulus_bounds",
    "normalized_n",
    "normalized_n_series",
    "ode_residual_n",
    "phi",
    "phi_series",
    "q_starlike_certificate",
    "radius_factor",
    "radius_positivity",
    "ratio_sum",
    "re_bounds",
    "re_zqprime_over_q",
    "recurrence_residual",
    "sharp_bound_h",
    "struve_h",
    "struve_l",
]

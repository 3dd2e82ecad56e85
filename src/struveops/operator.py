"""The convolution operator built on the normalized Struve kernel.

``apply_s`` convolves a normalized series with the kernel

    phi(z) = z + sum_{n>=1} (-c/4)^n z^(n+1) / ((3/2)_n (k)_n),

which scales coefficient ``a_{n+1}`` by the kernel coefficient.  The index
shift k -> k+1 used by the three-term recurrence is realized as p -> p+1 with
b held fixed.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .series import PowerSeries, Result, gamma_n, hadamard, scaled
from .specialfn import StruveParams, normalized_n, normalized_n_series


def phi_series(params: StruveParams, order: int) -> PowerSeries:
    """Kernel coefficients: 0, 1, then ``(-c/4)^n / ((3/2)_n (k)_n)`` at z^(n+1).

    The kernel is ``z`` times the normalized series, ``phi(z) = z N(z)``.
    """
    return PowerSeries(np.append(0, normalized_n_series(params, order).coeffs[:-1]))


def phi(params: StruveParams, z: complex, tol: float = 1e-13) -> Result:
    """The kernel ``phi(z) = z N(z)`` at one point, as ``(value, est_error, terms)``."""
    return scaled(complex(z), gamma_n(3), normalized_n(params, z, tol))


def apply_s(params: StruveParams, f: PowerSeries) -> PowerSeries:
    """Convolution of the kernel with a normalized series ``f``."""
    if not f.is_normalized():
        raise ParameterError("operator input must be normalized (c0 = 0, c1 = 1)")
    return hadamard(phi_series(params, f.order), f)


def recurrence_residual(params: StruveParams, f: PowerSeries) -> float:
    """Max coefficient residual of the three-term recurrence

        z (S_{k+1} f)' - k S_k f + (k-1) S_{k+1} f = 0.

    Coefficientwise the left side at z^n is ``(n + k - 1) s1_n - k s0_n``;
    a machine-precision maximum certifies the recurrence independently of the
    truncation order.
    """
    s_lo, s_hi = (apply_s(sp, f).coeffs for sp in (params, params.shifted()))
    k, n = params.k, np.arange(f.order + 1)
    return float(np.abs(n * s_hi - k * s_lo + (k - 1.0) * s_hi).max())

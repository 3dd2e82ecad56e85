"""The convolution operator built on the normalized Struve kernel.

``apply_s`` convolves a normalized series with the kernel

    phi(z) = z + sum_{n>=1} (-c/4)^n z^(n+1) / ((3/2)_n (k)_n),

which scales coefficient ``a_{n+1}`` by the kernel coefficient.  The index
shift k -> k+1 used by the three-term recurrence is realized as p -> p+1 with
b held fixed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ParameterError
from .series import PowerSeries, Result, gamma_n, normalized_rows, scaled
from .specialfn import StruveParams, kernel_rows, normalized_n


def phi_series(params: StruveParams, order: int) -> PowerSeries:
    """Kernel coefficients: 0, 1, then ``(-c/4)^n / ((3/2)_n (k)_n)`` at z^(n+1).

    The kernel is ``z`` times the normalized series, ``phi(z) = z N(z)``.
    """
    return PowerSeries(_phi_rows([params], order)[0])


def _phi_rows(params: Sequence[StruveParams], order: int) -> np.ndarray:
    """``phi_series``'s coefficients for each parameter set, one row per set."""
    rows = np.zeros((len(params), order + 1), dtype=complex)
    rows[:, 1:] = kernel_rows(params, order)[:, :-1]
    return rows


def phi(params: StruveParams, z: complex, tol: float = 1e-13) -> Result:
    """The kernel ``phi(z) = z N(z)`` at one point, as ``(value, est_error, terms)``."""
    return scaled(complex(z), gamma_n(3), normalized_n(params, z, tol))


def apply_s(params: StruveParams, f: PowerSeries) -> PowerSeries:
    """Convolution of the kernel with a normalized series ``f``."""
    return PowerSeries(_applied([params], f.coeffs[None])[0])


def _applied(params: Sequence[StruveParams], f: np.ndarray) -> np.ndarray:
    """``apply_s`` of each parameter set on its row of the stack ``f`` of
    series coefficients, one row per set."""
    if not normalized_rows(f).all():
        raise ParameterError("operator input must be normalized (c0 = 0, c1 = 1)")
    return _phi_rows(params, f.shape[1] - 1) * f


def recurrence_residual(params: StruveParams | Sequence[StruveParams],
                        f: PowerSeries | np.ndarray) -> float | np.ndarray:
    """Max coefficient residual of the three-term recurrence

        z (S_{k+1} f)' - k S_k f + (k-1) S_{k+1} f = 0.

    Coefficientwise the left side at z^n is ``(n + k - 1) s1_n - k s0_n``;
    a machine-precision maximum certifies the recurrence independently of the
    truncation order.  Given a sequence of ``m`` parameter sets and an
    ``(m, order + 1)`` array of normalized series' coefficients, it returns an
    array of the residuals of each set on its row, each with the bits of its
    own call.
    """
    if isinstance(params, StruveParams):
        return float(recurrence_residual([params], f.coeffs[None])[0])
    f = np.asarray(f)
    if f.ndim != 2 or f.shape[0] != len(params):
        raise ParameterError(f"need one row of coefficients per parameter set: {len(params)} "
                             f"sets, coefficients of shape {f.shape}")
    s_lo, s_hi = (_applied(sets, f) for sets in (params, [sp.shifted() for sp in params]))
    k, k_1 = (np.array(v, dtype=complex)[:, None] for v in
              ([sp.k for sp in params], [sp.k - 1.0 for sp in params]))
    n = np.arange(f.shape[1])
    return np.abs(n * s_hi - k * s_lo + k_1 * s_hi).max(axis=1)

"""Membership functionals and numeric subordination testing.

Subordination to a Möbius map ``(1+Az)/(1+Bz)`` is decided by region
containment: the map is univalent with known convex image (a disk for B > -1,
the half-plane Re w > (1-A)/2 for B = -1), so a functional belongs to the
class iff its sampled values stay inside that image.  Verdicts carry the worst
signed margin and a witness point on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .operator import apply_s
from .series import PowerSeries
from .specialfn import StruveParams

#: Sampling circles used by default: |z| = 0.1 .. 0.9 step 0.1, then 0.95.
DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)

#: Absolute containment tolerance on margins; boundary contact counts as pass.
CONTAINMENT_TOL = 1e-9


@dataclass(frozen=True)
class MobiusTarget:
    """Target geometry of ``(1+Az)/(1+Bz)`` with -1 <= B < A <= 1.

    For B > -1 the unit disk maps onto the disk with center (1-AB)/(1-B^2)
    and radius (A-B)/(1-B^2); for B = -1 onto the half-plane
    Re w > (1-A)/2.  Either way the image contains 1 = value at z=0.
    """

    A: float
    B: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "B", float(self.B))
        if not (-1.0 <= self.B < self.A <= 1.0):
            raise ParameterError(
                f"Möbius target needs -1 <= B < A <= 1, got A={self.A}, B={self.B}"
            )

    @property
    def is_half_plane(self) -> bool:
        return self.B == -1.0

    @property
    def center(self) -> float:
        if self.is_half_plane:
            raise ParameterError("half-plane target has no disk center")
        return (1.0 - self.A * self.B) / (1.0 - self.B * self.B)

    @property
    def radius(self) -> float:
        if self.is_half_plane:
            raise ParameterError("half-plane target has no disk radius")
        return (self.A - self.B) / (1.0 - self.B * self.B)

    @property
    def half_plane_edge(self) -> float:
        return (1.0 - self.A) / 2.0

    def phi(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """The target map itself, ``(1+Az)/(1+Bz)``: the one implementation.

        Takes a scalar or an array of z.  An array gives, bit for bit, what
        numpy scalar calls give; Python ``complex`` division rounds its own way.
        """
        return (self.A * z + 1.0) / (self.B * z + 1.0)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a containment test.

    ``margin`` is the worst signed distance to the target boundary (negative
    when violated); ``witness_z`` locates the worst sample on failure.  The
    test passes when the margin clears ``-CONTAINMENT_TOL``.
    """

    passed: bool
    margin: float
    witness_z: Optional[complex] = None
    samples_used: int = 0

    def to_json(self) -> dict:
        witness = None
        if self.witness_z is not None:
            witness = [self.witness_z.real, self.witness_z.imag]
        return {
            "passed": self.passed,
            "witness": witness,
            "margin": self.margin,
            "samples_used": self.samples_used,
        }


@dataclass(frozen=True)
class ClassParams:
    """Parameters of the membership functional.

    ``alpha`` is the rotation angle (|alpha| < pi/2 so cos(alpha) > 0),
    ``lam`` the complex mixing weight, ``mu`` the fractional power in (0, 1);
    ``struve`` fixes the operator pair (index k and k+1) and ``target`` the
    Möbius image the functional must stay inside.
    """

    alpha: float
    lam: complex
    mu: float
    struve: StruveParams
    target: MobiusTarget

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "mu", float(self.mu))
        if not abs(self.alpha) < math.pi / 2:
            raise ParameterError(f"|alpha| must be < pi/2, got {self.alpha}")
        if not 0.0 < self.mu < 1.0:
            raise ParameterError(f"mu must lie in (0, 1), got {self.mu}")


def _functional(cp: ClassParams, z: np.ndarray, num: np.ndarray, den: np.ndarray) -> tuple:
    """The class expression and ``arg(1/den)`` from ``S_k f / z = num``, ``S_{k+1} f / z = den``:

        e^(i alpha) { (1+lam) (z/S_{k+1}f)^mu - lam (S_k f / S_{k+1} f) (z/S_{k+1}f)^mu }.

    ``(1/den)^mu = |1/den|^mu e^(i mu arg(1/den))`` with the ``arctan2``
    argument that ``log`` takes: the principal branch, signed zeros included.
    Raises DomainError naming the first z, in input order, where den vanishes.
    """
    vanishing = np.flatnonzero(np.abs(den) < 1e-12)
    if vanishing.size:
        raise DomainError(f"S_(k+1) f vanishes at z = {complex(z.flat[vanishing[0]])}")
    inv = 1.0 / den
    arg = np.arctan2(inv.imag, inv.real)
    pm = np.hypot(inv.real, inv.imag) ** cp.mu * (np.cos(cp.mu * arg) + 1j * np.sin(cp.mu * arg))
    eia = complex(math.cos(cp.alpha), math.sin(cp.alpha))
    return eia * ((1.0 + cp.lam) * pm - cp.lam * (num / den) * pm), arg


def _derotate(cp: ClassParams, value: complex | np.ndarray) -> complex | np.ndarray:
    """J = (expression - i sin alpha) / cos alpha: 1 for f = z, the expression at alpha = 0."""
    return (value - 1j * math.sin(cp.alpha)) / math.cos(cp.alpha)


def _on_circles(c: np.ndarray, radii: np.ndarray, points: int) -> np.ndarray:
    """``sum_n c[n] z^n`` at ``points`` equally spaced z from angle 0 on each
    circle ``|z| = radii[i]`` (row i), by one FFT; powers fold mod ``points``."""
    terms = np.zeros((len(radii), -(-c.size // points) * points), dtype=complex)
    terms[:, :c.size] = c * radii[:, None] ** np.arange(c.size)
    return np.fft.ifft(terms.reshape(len(radii), -1, points).sum(axis=1), norm="forward")


def mobius_image_check(target: MobiusTarget, w: complex | np.ndarray) -> float | np.ndarray:
    """Signed margin of ``w`` against the target image boundary.

    Disk targets: radius - |w - center| by ``np.hypot``, the same bits for a
    scalar as for an array; half-plane: Re w - (1-A)/2.  Positive means
    interior.  An array of w gives an array of margins.
    """
    w = np.asarray(w)
    if target.is_half_plane:
        return w.real - target.half_plane_edge
    d = w - target.center
    return target.radius - np.hypot(d.real, d.imag)


def membership_samples(
    cp: ClassParams,
    f: PowerSeries,
    radii: Sequence[float] = DEFAULT_RADII,
    points_per_circle: int = 720,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample the de-rotated functional: ``(z, J(z), margin)`` arrays.

    Circle by circle, ``points_per_circle`` equally spaced points from angle 0.
    The arguments are validated before anything is evaluated.  DomainError
    names the first z where S_(k+1) f / z vanishes, then the first non-finite
    J, then a nonzero winding number of S_(k+1) f / z on the last circle.
    """
    if not radii:
        raise ParameterError("need at least one sampling radius")
    if any(not 0.0 < r < 1.0 for r in radii):
        raise ParameterError("sampling radii must lie in (0, 1)")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ParameterError("sampling radii must be strictly ascending")
    if points_per_circle < 1:
        raise ParameterError("points_per_circle must be >= 1")
    r = np.asarray(radii, dtype=float)
    step = 2.0 * math.pi / points_per_circle
    z = (r[:, None] * np.exp(1j * (step * np.arange(points_per_circle)))).ravel()
    with np.errstate(all="ignore"):
        num, den = (_on_circles(apply_s(sp, f).coeffs[1:], r, points_per_circle).ravel()
                    for sp in (cp.struve, cp.struve.shifted()))
        value, arg = _functional(cp, z, num, den)
        value = _derotate(cp, value)
        margin = mobius_image_check(cp.target, value)
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        raise DomainError(f"membership functional is not finite at z = {complex(z[bad[0]])}")
    # arg(1/den) jumps by about 2 pi where it crosses its cut; the signed count
    # of jumps round the last circle is the sampled count of zeros of den inside.
    ring = arg[-points_per_circle:]
    winding = int(np.rint((np.append(ring[1:], ring[0]) - ring) / (2.0 * math.pi)).sum())
    if winding:
        raise DomainError(f"S_(k+1) f / z has winding number {winding} around 0 on "
                          f"|z| = {radii[-1]}, so it vanishes inside that circle")
    return z, value, margin


def verdict_from_samples(z: np.ndarray, margin: np.ndarray) -> Verdict:
    """Min-reduce sampled margins; the first minimum is the witness."""
    i = int(np.argmin(margin))
    worst = float(margin[i])
    passed = worst >= -CONTAINMENT_TOL
    return Verdict(
        passed=passed,
        margin=worst,
        witness_z=None if passed else complex(z[i]),
        samples_used=int(margin.size),
    )


def lemma6_check(inner: MobiusTarget, outer: MobiusTarget) -> Verdict:
    """Certify that the inner Möbius image sits inside the outer one.

    Requires the nested ordering B_outer <= B_inner < A_inner <= A_outer;
    containment is then exact geometry (disk-in-disk, disk-in-half-plane or
    half-plane-in-half-plane) and the margin is its slack.
    """
    if not (outer.B <= inner.B and inner.A <= outer.A):
        raise ParameterError(
            "nesting needs B_outer <= B_inner < A_inner <= A_outer, got "
            f"inner=({inner.A}, {inner.B}), outer=({outer.A}, {outer.B})"
        )
    if outer.is_half_plane:
        if inner.is_half_plane:
            margin = inner.half_plane_edge - outer.half_plane_edge
            witness = complex(inner.half_plane_edge, 0.0)
        else:
            margin = (inner.center - inner.radius) - outer.half_plane_edge
            witness = complex(inner.center - inner.radius, 0.0)
    else:
        # inner half-plane inside a disk is impossible, but the ordering
        # B_outer <= B_inner already rules it out (B_inner = -1 forces
        # B_outer = -1).
        gap = inner.center - outer.center
        margin = outer.radius - (abs(gap) + inner.radius)
        direction = 1.0 if gap >= 0 else -1.0
        witness = complex(inner.center + direction * inner.radius, 0.0)
    passed = margin >= -CONTAINMENT_TOL
    return Verdict(
        passed=passed,
        margin=margin,
        witness_z=None if passed else witness,
        samples_used=1,
    )

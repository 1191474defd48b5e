"""Upper half-plane potential theory for point configurations.

Pseudohyperbolic distance rho(z, w) = |z - w| / |z - conj w|, log of the
Blaschke modulus, per-point exclusion sums, hyperbolic disk counting, and
the distribution-function identity

    sum mult * log(1/rho(z, lambda)) = integral over t in (0,1) of n(z,t)/t,

where n(z, t) counts multiplicity inside the pseudohyperbolic disk of
radius t.  Only |B| is ever needed; phases are out of scope.  Lower
half-plane data is handled by conjugating at the call site.
"""

import math
from dataclasses import dataclass

import numpy as np

from .conditions import DEFAULT_THRESHOLDS, Sweep, _validate_radii
from .errors import DomainError
from .numutil import log_rho_sums
from .treecode import first_maxima, log_rho_prefix_enclosures
from .variety import P_MIN, Variety
from .weights import BeurlingWeight

#: Sentinel returned by log_blaschke_abs at a configuration point.  It is
#: detected up front and returned directly, never accumulated into a sum.
LOG_ZERO = float("-inf")


class HalfPlaneVariety(Variety):
    """A variety whose points all satisfy Im lambda > 0."""

    def _check(self) -> None:
        if np.any(self.lam.imag <= 0):
            raise DomainError("all points must satisfy Im lambda > 0")

    @classmethod
    def from_variety(cls, v: Variety, conjugate_lower: bool = False) -> "HalfPlaneVariety":
        """Select the open upper half of a variety.

        With conjugate_lower=True the lower-half points are reflected into
        the upper half-plane instead (the conjugation reduction).
        """
        if conjugate_lower:
            keep = v.lam.imag < 0
            lam = np.conj(v.lam[keep])
        else:
            keep = v.lam.imag > 0
            lam = v.lam[keep]
        return cls.from_arrays(lam, v.mult[keep], v.window_radius)


def pseudo_distance(z: complex, w: complex) -> float:
    """rho(z, w) = |z - w| / |z - conj w|, in [0, 1) for z, w in the upper half."""
    z, w = complex(z), complex(w)
    if z.imag <= 0 or w.imag <= 0:
        raise DomainError("pseudo_distance requires Im > 0 for both arguments")
    return abs(z - w) / abs(z - w.conjugate())


@dataclass(frozen=True)
class HypDisk:
    """Closed pseudohyperbolic disk rho(., z) <= t, with its Euclidean form.

    The disk is the closed Euclidean disk of center
    Re z + i (1+t^2)/(1-t^2) Im z and radius 2t/(1-t^2) Im z, always inside
    the upper half-plane.  contains tests rho itself, as count_in_hyp_disk
    does, so the two agree on a point at rho = t exactly.
    """

    center: complex
    radius: float

    def __post_init__(self):
        if self.center.imag <= 0:
            raise DomainError("center must lie in the upper half-plane")
        if not 0.0 < self.radius < 1.0:
            raise DomainError("radius must lie in (0, 1)")

    @property
    def euclidean_center(self) -> complex:
        t = self.radius
        return complex(self.center.real,
                       (1 + t * t) / (1 - t * t) * self.center.imag)

    @property
    def euclidean_radius(self) -> float:
        t = self.radius
        return 2 * t / (1 - t * t) * self.center.imag

    def contains(self, w: complex) -> bool:
        return complex(w).imag > 0 and pseudo_distance(w, self.center) <= self.radius


def log_blaschke_abs(hv: HalfPlaneVariety, z: complex):
    """log|B(z)| = sum mult * log rho(z, lambda) <= 0.

    Returns the LOG_ZERO sentinel when z coincides with a configuration
    point; the sentinel is produced before any summation starts.
    """
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("log_blaschke_abs requires Im z > 0")
    if np.any(hv.lam == z):
        return LOG_ZERO
    return -float(log_rho_sums(hv.lam, hv.mult, [z])[0])


def blaschke_sum(hv: HalfPlaneVariety, lam: complex) -> float:
    """Exclusion sum S(lambda) = sum over lambda' != lambda of
    mult(lambda') * log(1/rho(lambda, lambda')).

    Equals -log of the Blaschke modulus with lambda's own factor removed.
    """
    lam = complex(lam)
    if not np.any(hv.lam == lam):
        raise DomainError("lambda is not a point of the configuration")
    return float(log_rho_sums(hv.lam, hv.mult, [lam])[0])


def count_in_hyp_disk(hv: HalfPlaneVariety, z: complex, t: float) -> int:
    """Total multiplicity with rho(z, lambda) <= t (closed convention)."""
    if not 0.0 < t < 1.0:
        raise DomainError("t must lie in (0, 1)")
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("center must lie in the upper half-plane")
    rho = np.abs(z - hv.lam) / np.abs(z - np.conj(hv.lam))
    return int(hv.mult[rho <= t].sum())


def hyperbolic_jensen(hv: HalfPlaneVariety, z: complex) -> float:
    """sum mult * log(1/rho(z, lambda)) = integral of n(z,t)/t over (0,1).

    Identical summation to -log_blaschke_abs; raises at configuration points
    where the value would be infinite.
    """
    val = log_blaschke_abs(hv, z)
    if val == LOG_ZERO:
        raise DomainError("hyperbolic_jensen is infinite at configuration points")
    return -val


def blaschke_sum_report(hv: HalfPlaneVariety, w: BeurlingWeight, radii,
                        thresholds: tuple[float, float] = DEFAULT_THRESHOLDS) -> Sweep:
    """Per-radius worst S(lambda)/p(lambda) over |lambda| <= R, trend-classified.

    Both the scanned point and the exclusion sum are truncated to the same
    radius, mirroring the other finite-sample sweeps.  A constant is never
    below 0, and a constant of 0 has no witness.
    """
    radii = _validate_radii(radii, hv.window_radius)
    # canonical order is sorted by |lambda|: the points within R are a prefix
    ends = np.searchsorted(np.abs(hv.lam), radii, side="right")
    p = np.maximum(w.p(hv.lam[:ends[-1]]), P_MIN)
    enc = log_rho_prefix_enclosures(hv.lam, hv.mult, ends)
    tops = first_maxima(ends, ((np.arange(n), *e) for n, e in zip(ends, enc)),
                        lambda n, idx: log_rho_sums(hv.lam[:n], hv.mult[:n], hv.lam[idx]), p)
    constants = [0.0 if top is None else max(top[1], 0.0) for top in tops]
    witnesses = [complex(hv.lam[top[0]]) if top and top[1] > 0 else None for top in tops]
    return Sweep(radii.tolist(), constants, witnesses).classify(thresholds)


@dataclass
class LowerBoundReport:
    worst: float
    witness: complex | None
    n_samples: int


def blaschke_lower_bound_report(hv: HalfPlaneVariety, w: BeurlingWeight,
                                samples) -> LowerBoundReport:
    """Worst (-log|B(z)|) / max(p(z), 1) over the given sample points.

    The witness is the first sample with the largest positive ratio.  A
    sample with Im z <= 0 or on a configuration point raises DomainError,
    the first such sample deciding which.
    """
    z = np.array([complex(s) for s in samples], dtype=complex)
    bad = np.flatnonzero((z.imag <= 0) | np.isin(z, hv.lam))
    if bad.size:
        if z[bad[0]].imag <= 0:
            raise DomainError("log_blaschke_abs requires Im z > 0")
        raise DomainError("sample coincides with a configuration point")
    ratios = log_rho_sums(hv.lam, hv.mult, z) / np.maximum(w.p(z), P_MIN)
    positive = ratios > 0  # a NaN ratio never wins
    if not positive.any():
        return LowerBoundReport(0.0, None, int(z.size))
    k = int(np.argmax(np.where(positive, ratios, 0.0)))
    return LowerBoundReport(float(ratios[k]), complex(z[k]), int(z.size))


def poisson_kernel(lam: complex, x: float) -> float:
    """P(lambda, x) = Im lambda / ((x - Re lambda)^2 + (Im lambda)^2).

    Unnormalized: integrates to pi over the real line.
    """
    lam = complex(lam)
    if lam.imag <= 0:
        raise DomainError("poisson_kernel requires Im lambda > 0")
    return lam.imag / ((x - lam.real) ** 2 + lam.imag ** 2)


def green_function(lam: complex, z: complex) -> float:
    """G(lambda, z) = log(1/rho(lambda, z)) >= 0, the half-plane Green kernel."""
    rho = pseudo_distance(lam, z)
    if rho == 0.0:
        return math.inf
    return -math.log(rho)

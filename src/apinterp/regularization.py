"""Subharmonic regularization of the weight: p~(z) = |Im z| + r(z).

The correction r is a difference of logarithmic potentials.  The real line
is tiled by intervals I_n of center x_n and length omega_n = omega(x_n);
each interval carries the length measure nu_n and a smeared companion mu_n
obtained by averaging the uniform disk of radius 10 omega_n over I_n; both
have mass omega_n.  Then

    r(z) = integral of log|z - w| d(mu - nu)(w)
         = sum over intervals of  integral over I_n of  M(x) dx,

where M(x) is the disk mean of log|z - .| over D(x, 10 omega_n) minus
log|z - x|, which is non-negative and vanishes once |z - x| >= 10 omega_n.
Each interval's integral is elementary and is evaluated in closed form;
quadrature stays only in interval_mass_audit, as an independent route.
Off the real axis the (distributional) Laplacian of p~ is 2 pi times the
density of mu, which laplacian_audit checks against a five-point stencil.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError
from .numutil import adaptive_quad
from .weights import BeurlingWeight

SMEAR_FACTOR = 10.0  # disk radius = SMEAR_FACTOR * omega_n
OMEGA_FLOOR = 1e-3   # the tiling starts where omega first reaches this
FP_TOL = 1e-10       # relative tolerance of the center fixed-point iteration
MAX_ITER = 200       # fixed-point steps before the center iteration stalls


@dataclass(frozen=True)
class Interval:
    left: float
    right: float
    center: float
    omega: float


@dataclass
class PartitionAudit:
    max_gap: float
    max_center_error: float


class IntervalPartition:
    """Tiling of [-t_outer, -t_inner] and [t_inner, t_outer] by intervals
    with length omega(center); the two sides are exact mirror images."""

    def __init__(self, intervals, t_inner: float, t_outer: float):
        self.intervals = tuple(sorted(intervals, key=lambda iv: iv.center))
        self.t_inner = t_inner
        self.t_outer = t_outer
        self._centers = [iv.center for iv in self.intervals]
        self._left = np.array([iv.left for iv in self.intervals])
        self._right = np.array([iv.right for iv in self.intervals])
        self._omega = np.array([iv.omega for iv in self.intervals])
        self.max_omega = float(self._omega.max()) if self.intervals else 0.0

    def __len__(self) -> int:
        return len(self.intervals)

    def near(self, x: float):
        """(left, right, omega) of the intervals whose disks can reach x."""
        reach = (SMEAR_FACTOR + 0.5) * self.max_omega
        near = slice(bisect_left(self._centers, x - reach),
                     bisect_right(self._centers, x + reach))
        return self._left[near], self._right[near], self._omega[near]

    def positive_side(self):
        return [iv for iv in self.intervals if iv.center > 0]

    def audit(self) -> PartitionAudit:
        max_gap = 0.0
        pos = self.positive_side()
        for a, b in zip(pos, pos[1:]):
            max_gap = max(max_gap, abs(b.left - a.right))
        max_center = max((abs(iv.center - (iv.left + iv.right) / 2)
                          for iv in self.intervals), default=0.0)
        return PartitionAudit(max_gap, max_center)


def build_partition(w: BeurlingWeight, t_extent: float) -> IntervalPartition:
    """March intervals over [t_inner, t_extent] and mirror them to t < 0.

    The tiling starts at the smallest t0 >= 0 with omega(t0) >= OMEGA_FLOOR
    (below it the profile is too flat to carry an interval of its own
    length).  From a left endpoint t, the center solves x = t + omega(x)/2
    by fixed-point iteration and the interval [t, t + omega(x)] is emitted;
    consecutive intervals share endpoints exactly.
    """
    if not t_extent > 0:
        raise DomainError("t_extent must be positive")
    omega = w.omega
    if omega(t_extent) < OMEGA_FLOOR:
        raise ConstructionError("profile stays below OMEGA_FLOOR on the range")
    # Smallest start point with omega >= floor, by bisection on monotone omega.
    if omega(0.0) >= OMEGA_FLOOR:
        t0 = 0.0
    else:
        lo, hi = 0.0, t_extent
        for _ in range(200):
            mid = (lo + hi) / 2
            if omega(mid) >= OMEGA_FLOOR:
                hi = mid
            else:
                lo = mid
        t0 = hi
    intervals = []
    t = t0
    while t < t_extent:
        x = t + max(OMEGA_FLOOR, omega(t)) / 2
        converged = False
        for _ in range(MAX_ITER):
            x_next = t + omega(x) / 2
            if abs(x_next - x) <= FP_TOL * max(1.0, abs(x)):
                x = x_next
                converged = True
                break
            x = x_next
        if not converged:
            raise ConstructionError(f"center iteration stalled at t = {t}")
        length = omega(x)
        if length <= 0:
            raise ConstructionError(f"degenerate interval at t = {t}")
        right = t + length
        intervals.append(Interval(t, right, x, length))
        t = right
    mirrored = [Interval(-iv.right, -iv.left, -iv.center, iv.omega)
                for iv in intervals]
    return IntervalPartition(intervals + mirrored, t0, t)


@dataclass
class RegularizedWeight:
    base: BeurlingWeight
    partition: IntervalPartition

    @property
    def reliable_half_width(self) -> float:
        return self.partition.t_outer - SMEAR_FACTOR * self.partition.max_omega


def regularize(w: BeurlingWeight, t_extent: float) -> RegularizedWeight:
    return RegularizedWeight(w, build_partition(w, t_extent))


def circular_mean_log(z: complex, a: complex, radius: float) -> float:
    """Area mean of log|z - .| over the disk D(a, radius).

    Equals log|z - a| outside the disk (harmonicity) and
    log radius - 1/2 + |z - a|^2 / (2 radius^2) inside; the two branches
    agree on the boundary circle.
    """
    if not radius > 0:
        raise DomainError("radius must be positive")
    d = abs(complex(z) - complex(a))
    if d >= radius:
        return math.log(d)
    return math.log(radius) - 0.5 + d * d / (2 * radius * radius)


def mean_log_gap(z: complex, x: float, radius: float) -> float:
    """circular_mean_log(z, x, radius) - log|z - x|; non-negative, zero
    outside the disk, +inf at z = x (integrable: a quadrature of it puts a
    breakpoint there instead of evaluating it)."""
    d = abs(complex(z) - x)
    if d >= radius:
        return 0.0
    if d == 0.0:
        return math.inf
    return math.log(radius) - 0.5 + d * d / (2 * radius * radius) - math.log(d)


def _chord_clip(left, right, omega, zx: float, zy: float):
    """(R, a, b, keep): R = 10 omega, [a, b] the interval in u = x - Re z
    clipped to the chord |u| <= sqrt(R^2 - y^2), keep = |y| < R and a < b."""
    radius = SMEAR_FACTOR * omega
    y = abs(zy)
    half = np.sqrt(np.maximum(radius * radius - y * y, 0.0))
    a = np.maximum(left - zx, -half)
    b = np.minimum(right - zx, half)
    return radius, a, b, (y < radius) & (a < b)


def _interval_correction(left, right, omega, zx: float, zy: float) -> np.ndarray:
    """Integral of mean_log_gap(z, x, 10 omega) over x in [left, right], per
    interval: with u = x - Re z, y = Im z and R = 10 omega, the antiderivative
    (log R - 1/2) u + (u^3/3 + y^2 u) / (2 R^2)
    - (u log(u^2 + y^2) - 2u + 2|y| atan2(u, |y|)) / 2 over the chord clip.
    Intervals with |y| >= R or an empty clip give exactly 0; u log(u^2) is 0
    at u = 0.  log R is folded into log((u^2 + y^2) / R^2), the cubic is
    factored by b - a and the arctangents are combined, so the absolute
    error is a few eps * R: only a value small against that loses digits."""
    radius, a, b, keep = _chord_clip(left, right, omega, zx, zy)
    y = abs(zy)
    r2 = radius * radius

    def u_log(u):  # u log((u^2 + y^2) / R^2); 0 at u = 0
        q = (u * u + y * y) / r2
        return u * np.log(np.where(q > 0, q, 1.0))

    val = ((b - a) * (0.5 + ((a * a + a * b + b * b) / 3 + y * y) / (2 * r2))
           - 0.5 * (u_log(b) - u_log(a))
           - y * np.arctan2((b - a) * y, y * y + a * b))
    return np.where(keep, val, 0.0)


def potential_correction(rw: RegularizedWeight, z: complex) -> float:
    """r(z): sum of the per-interval corrections; intervals farther than
    10 omega_n from z contribute exactly zero."""
    z = complex(z)
    if abs(z.real) > rw.reliable_half_width:
        raise DomainError("z lies outside the reliable region of the partition")
    return float(_interval_correction(*rw.partition.near(z.real), z.real, z.imag).sum())


def regularized_p(rw: RegularizedWeight, z: complex) -> float:
    """p~(z) = |Im z| + r(z); comparable to the base weight on the strip."""
    return abs(complex(z).imag) + potential_correction(rw, z)


def measure_density(rw: RegularizedWeight, z: complex) -> float:
    """Area density of mu at z: sum over intervals of
    |{x in I_n : |z - x| <= 10 omega_n}| / (100 pi omega_n^2)."""
    z = complex(z)
    radius, a, b, keep = _chord_clip(*rw.partition.near(z.real), z.real, z.imag)
    return float(np.where(keep, (b - a) / (math.pi * radius * radius), 0.0).sum())


@dataclass
class LaplacianAudit:
    stencil: float
    density: float
    expected: float
    residual: float


def laplacian_audit(rw: RegularizedWeight, z: complex, h: float) -> LaplacianAudit:
    """Five-point stencil Laplacian of r against 2 pi times the mu density.

    The |Im z| part of p~ carries its distributional Laplacian on the real
    line, so the stencil must stay off it: |Im z| >= 2h is required.
    """
    z = complex(z)
    if not h > 0:
        raise DomainError("step must be positive")
    if abs(z.imag) < 2 * h:
        raise DomainError("stencil would cross the real axis; need |Im z| >= 2h")
    r0 = potential_correction(rw, z)
    stencil = (potential_correction(rw, z + h) + potential_correction(rw, z - h)
               + potential_correction(rw, z + 1j * h)
               + potential_correction(rw, z - 1j * h) - 4 * r0) / (h * h)
    density = measure_density(rw, z)
    expected = 2 * math.pi * density
    return LaplacianAudit(stencil, density, expected, stencil - expected)


@dataclass
class MassAudit:
    nu_mass: float
    mu_mass: float
    discrepancy: float


def interval_mass_audit(part: IntervalPartition, index: int) -> MassAudit:
    """Check that mu_n and nu_n carry the same mass omega_n.

    nu_n is length measure on I_n, mass = |I_n| exactly.  The mu_n mass is
    recomputed by integrating the chord length of the smearing disk over
    heights, an independent numerical route to the same number.
    """
    iv = part.intervals[index]
    radius = SMEAR_FACTOR * iv.omega
    chord, _ = adaptive_quad(lambda y: 2 * math.sqrt(max(radius * radius - y * y, 0.0)),
                             -radius, radius, epsabs=1e-14, epsrel=1e-12)
    mu_mass = (iv.right - iv.left) * chord / (math.pi * radius * radius)
    nu_mass = iv.right - iv.left
    return MassAudit(nu_mass, mu_mass, mu_mass - nu_mass)

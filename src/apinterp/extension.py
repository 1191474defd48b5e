"""Smooth interpolant for jet data, its dbar defect, and the singular weight.

Given jet values at the points of a strip configuration, the smooth
interpolant glues the jet polynomials with a cutoff supported on disjoint
disks D(lambda, 2 delta_lambda):

    F(z) = p_lambda(z) * X(|z - lambda|^2 / delta_lambda^2)

for the unique nearby lambda, zero elsewhere.  Its dbar derivative lives on
the in-between annuli and is given in closed form; everything the weighted
L2 machinery needs from F (growth certificates, the singular weight v <= 0,
the penalized weight beta p + v, the annulus counting bound) is measured
here numerically.  The L2 existence step itself is out of scope.
"""

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import DEFAULT_THRESHOLDS, TrendResult, classify_trend, _validate_radii
from .errors import DomainError, InputError, InvariantViolation
from .numutil import close_pair_arrays, truncated_log_sums
# integrated_count is not called here; it stays importable as
# extension.integrated_count, the name perfbench's tracer wraps.
from .variety import P_MIN, Variety, integrated_count, separation_profile
from .weights import BeurlingWeight, estimate_disk_constant

#: Sentinel for the singular weight at a configuration point.
V_SINGULAR = float("-inf")

_SAFETY = 2.0          # margin on the separation growth and on the disk radii
_DBAR_ANGLES = 16      # samples per ring in dbar_growth_report
_DBAR_RINGS = 5        # dbar rings per point; the F grid has twice as many
_ANNULUS_ANGLES = 8    # samples per ring in annulus_counting_report


def _bump(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b(s) = exp(-1/s) for s > 0 and 0 elsewhere, with b'(s) = b(s) / s^2."""
    pos = s > 0.0
    s = np.where(pos, s, 1.0)
    b = np.where(pos, np.exp(-1.0 / s), 0.0)
    return b, b / (s * s)


def _float_or_array(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth transition X: 1 on (-inf, 1], 0 on [2, inf), |X'| <= 2.1.

    Realized as the standard quotient b(2 - u) / (b(2 - u) + b(u - 1)) of
    one-sided mollifier bumps, which is infinitely smooth with a closed-form
    derivative; the slope peaks at 2.0 in the middle of the transition.
    Takes a scalar u (and returns a float) or an array of them.
    """

    def value(self, u):
        u = np.asarray(u, dtype=float)
        (f_hi, _), (f_lo, _) = _bump(2.0 - u), _bump(u - 1.0)
        return _float_or_array(f_hi / (f_hi + f_lo))

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        (f_hi, g_hi), (f_lo, g_lo) = _bump(2.0 - u), _bump(u - 1.0)
        return _float_or_array(-(g_hi * f_lo + f_hi * g_lo) / (f_hi + f_lo) ** 2)

    def audit(self, n: int = 10001) -> float:
        grid = np.linspace(0.5, 2.5, n)
        vals = self.value(grid)
        if vals.min() < 0 or vals.max() > 1:
            raise InvariantViolation("cutoff left the range [0, 1]")
        return float(np.max(np.abs(self.derivative(grid))))


@dataclass
class InterpolationData:
    """Jet values v^l, l < mult(lambda), for every point of a variety,
    plus the growth class alpha of the data."""

    lam: np.ndarray
    values: tuple[tuple[complex, ...], ...]
    alpha: float = 1.0
    # values padded with zeros to one row width, for Horner over all points
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        width = max(map(len, self.values), default=0)
        self.coeffs = np.zeros((len(self.values), width), dtype=complex)
        for k, row in enumerate(self.values):
            self.coeffs[k, :len(row)] = row

    @classmethod
    def for_variety(cls, v: Variety, values, alpha: float = 1.0) -> "InterpolationData":
        values = tuple(tuple(complex(x) for x in row) for row in values)
        if len(values) != len(v):
            raise DomainError("one value row per point is required")
        for row, m in zip(values, v.mult):
            if len(row) != int(m):
                raise DomainError("value count at each point must equal its multiplicity")
        if not all(cmath.isfinite(x) for row in values for x in row):
            raise DomainError("jet values must be finite")
        return cls(lam=v.lam.copy(), values=values, alpha=float(alpha))

    def certificate(self, w: BeurlingWeight) -> float:
        """sup over points of (sum |v^l|) * exp(-alpha p(lambda))."""
        if not self.lam.size:
            return 0.0
        sums = np.array([sum(abs(x) for x in row) for row in self.values])
        return float(np.max(sums * np.exp(-self.alpha * w.p(self.lam))))

    def scaled(self, factor: complex) -> "InterpolationData":
        return InterpolationData(
            self.lam, tuple(tuple(factor * x for x in row) for row in self.values),
            self.alpha)


def save_jets(data: InterpolationData, path) -> None:
    payload = {"jets": [
        {"re": lam.real, "im": lam.imag,
         "values": [[x.real, x.imag] for x in row]}
        for lam, row in zip(data.lam, data.values)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_jets(path, window_radius: float | None = None,
              alpha: float = 1.0) -> tuple[Variety, InterpolationData]:
    """Read a jets file; multiplicities are the jet lengths."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from exc
    try:
        recs = [(complex(rec["re"], rec["im"]),
                 tuple(complex(a, b) for a, b in rec["values"]))
                for rec in payload["jets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed jet record ({exc})") from exc
    v = Variety([(lam, len(row)) for lam, row in recs], window_radius)
    by_lam = {lam: row for lam, row in recs}
    values = [by_lam[complex(lam)] for lam in v.lam]
    return v, InterpolationData.for_variety(v, values, alpha)


@dataclass
class SeparationRadii:
    """Per-point radii delta_lambda = delta * exp(-C p(lambda) / mult).

    Hard precondition, checked at construction: the disks
    D(lambda, 2 delta_lambda) are pairwise disjoint.
    """

    lam: np.ndarray
    radii: np.ndarray
    delta: float
    growth: float

    def __post_init__(self):
        if np.any(self.radii <= 0):
            raise DomainError("separation radii must be positive")
        cutoff = 4.0 * float(np.max(self.radii)) if self.radii.size else 0.0
        if cutoff > 0:
            i, j, d = close_pair_arrays(self.lam, cutoff)
            overlap = np.nonzero(d < 2 * (self.radii[i] + self.radii[j]))[0]
            if overlap.size:
                raise InvariantViolation(
                    f"separation disks overlap near {self.lam[i[overlap[0]]]}")

    @classmethod
    def from_params(cls, v: Variety, w: BeurlingWeight, delta: float,
                    growth: float) -> "SeparationRadii":
        p_vals = w.p(v.lam)
        radii = delta * np.exp(-growth * p_vals / v.mult)
        return cls(v.lam.copy(), radii, float(delta), float(growth))

    @classmethod
    def from_profile(cls, v: Variety, w: BeurlingWeight) -> "SeparationRadii":
        """Derive (delta, C) from the separation scan with a safety margin."""
        growth = 0.1
        if len(v) >= 2:
            prof = separation_profile(v, w)
            growth = max(growth, _SAFETY * prof.worst_constant)
        p_vals = np.maximum(w.p(v.lam), 0.0)
        shrink = np.exp(-growth * p_vals / v.mult)
        i, j, d = close_pair_arrays(v.lam, 1.0)
        feasible = d / (2 * (shrink[i] + shrink[j])) / _SAFETY
        return cls.from_params(v, w, np.min(feasible, initial=0.25), growth)

    def radius_of(self, lam: complex) -> float:
        idx = np.nonzero(self.lam == lam)[0]
        if idx.size == 0:
            raise DomainError("lambda is not a point of the configuration")
        return float(self.radii[idx[0]])


_CUTOFF = CutoffSpec()


def _check_same_configuration(data: InterpolationData, radii: SeparationRadii) -> None:
    if data.lam.shape != radii.lam.shape or np.any(data.lam != radii.lam):
        raise DomainError("data and radii describe different configurations")


def _locate(data: InterpolationData, radii: SeparationRadii, z: complex):
    _check_same_configuration(data, radii)
    if not data.lam.size:
        return None
    d = np.abs(z - data.lam)
    hits = np.nonzero(d < 2 * radii.radii)[0]
    if hits.size == 0:
        return None
    if hits.size > 1:
        raise InvariantViolation("z lies in two separation disks")
    return int(hits[0])


def _jet_field(data: InterpolationData, radii: SeparationRadii, idx, z: np.ndarray,
               dbar: bool) -> np.ndarray:
    """F, or dbar F, at samples z[k, ...] that lie in the disk D(lambda, 2 delta)
    of point idx[k]: p_lambda(z) X(u), or p_lambda(z) X'(u) (z - lambda) / delta^2,
    with u = |z - lambda|^2 / delta^2."""
    tail = (1,) * (z.ndim - 1)
    dz = z - data.lam[idx].reshape(-1, *tail)
    delta2 = radii.radii[idx].reshape(-1, *tail) ** 2
    poly = np.zeros(z.shape, dtype=complex)
    for coeff in data.coeffs[idx].T[::-1]:
        poly = poly * dz + coeff.reshape(-1, *tail)
    # np.hypot keeps the bits of the scalar abs(); X' near u = 1, 2 magnifies the last bit
    u = np.hypot(dz.real, dz.imag) ** 2 / delta2
    if dbar:
        return poly * _CUTOFF.derivative(u) * dz / delta2
    return poly * _CUTOFF.value(u)


def _field_at(data: InterpolationData, radii: SeparationRadii, z: complex,
              dbar: bool) -> complex:
    z = complex(z)
    i = _locate(data, radii, z)
    return 0j if i is None else complex(_jet_field(data, radii, [i], np.array([z]), dbar)[0])


def smooth_interpolant(data: InterpolationData, radii: SeparationRadii, z: complex) -> complex:
    """F(z): the local jet polynomial times the cutoff; zero away from all disks."""
    return _field_at(data, radii, z, dbar=False)


def dbar_defect(data: InterpolationData, radii: SeparationRadii, z: complex) -> complex:
    """dbar F in closed form: p_lambda(z) X'(u) (z - lambda) / delta^2
    with u = |z - lambda|^2 / delta^2; supported on the transition annuli."""
    return _field_at(data, radii, z, dbar=True)


@dataclass
class DbarGrowthReport:
    k_fit: float
    gamma: float
    integral_f: float
    integral_dbar: float
    n_samples: int
    log_sup: float = -math.inf  # raw max of log |dbar F| over the samples


def dbar_growth_report(data: InterpolationData, radii: SeparationRadii,
                       w: BeurlingWeight) -> DbarGrowthReport:
    """Fit K with |dbar F| <= exp(K p(z)) over annulus samples and report the
    discretized weighted square integrals of F and dbar F at gamma = 2K + 2.

    The samples sit on rings sqrt(frac) delta around every point, 16 angles
    a ring: 5 rings with frac in [1.05, 1.95] for dbar F and 10 with frac in
    [0.05, 1.95] for F, each ring carrying the area of its frac band.  Every
    sample lies in the (disjoint) disk of the point whose rings it walks, so
    F and dbar F are evaluated there, as arrays of shape (points, rings,
    angles)."""
    _check_same_configuration(data, radii)
    unit = np.exp(1j * np.linspace(0.0, 2 * math.pi, _DBAR_ANGLES, endpoint=False))
    delta = radii.radii

    def rings(fracs: np.ndarray, band: float, dbar: bool):
        """|F| or |dbar F|, p and the cell area at every sample of the grid."""
        z = data.lam[:, None, None] + (np.sqrt(fracs) * delta[:, None])[:, :, None] * unit
        cell = math.pi * delta * delta * (band / fracs.size) / _DBAR_ANGLES
        return np.abs(_jet_field(data, radii, slice(None), z, dbar)), w.p(z), cell[:, None, None]

    vals, pz, cell = rings(np.linspace(1.05, 1.95, _DBAR_RINGS), 0.9, dbar=True)
    pos = vals > 0
    logs = np.log(vals[pos])
    log_sup = float(np.max(logs, initial=-math.inf))
    sup_log = float(np.max(logs / np.maximum(pz[pos], P_MIN), initial=-math.inf))
    k_fit = max(0.0, sup_log) if math.isfinite(sup_log) else 0.0
    gamma = 2 * k_fit + 2.0
    int_dbar = float(np.sum(vals * vals * np.exp(-gamma * pz) * cell))
    f, pz, cell = rings(np.linspace(0.05, 1.95, 2 * _DBAR_RINGS), 1.9, dbar=False)
    int_f = float(np.sum(f * f * np.exp(-gamma * pz) * cell))
    return DbarGrowthReport(k_fit, gamma, int_f, int_dbar, vals.size, log_sup)


def singular_weight(v: Variety, w: BeurlingWeight, eps: float, z: complex,
                    p_cache: np.ndarray | None = None) -> float:
    """v(z) = sum over |z - lambda| <= eps p(lambda) of
    mult * [log(|z-lambda|^2 / (eps p)^2) + 1 - |z-lambda|^2 / (eps p)^2].

    Each bracket is <= 0 and meets zero with zero radial derivative at the
    disk boundary, so v is continuous, C1 across boundaries, non-positive,
    and harmonic off the disks.  Returns the V_SINGULAR sentinel at points
    of the configuration.
    """
    if not 0.0 < eps <= 0.5:
        raise DomainError("eps must lie in (0, 1/2]")
    z = complex(z)
    if not len(v):
        return 0.0
    p_vals = p_cache if p_cache is not None else w.p(v.lam)
    d = np.abs(z - v.lam)
    cap = eps * p_vals
    mask = (d <= cap) & (cap > 0)
    if not mask.any():
        return 0.0
    if np.any(d[mask] == 0):
        return V_SINGULAR
    u = (d[mask] / cap[mask]) ** 2
    terms = v.mult[mask] * (np.log(u) + 1.0 - u)
    return float(terms.sum())


def penalized_weight(v: Variety, w: BeurlingWeight, eps: float, beta: float,
                     z: complex, p_cache: np.ndarray | None = None) -> float:
    """beta * p(z) + singular weight; subharmonic once beta is large enough."""
    s = singular_weight(v, w, eps, z, p_cache)
    if s == V_SINGULAR:
        return V_SINGULAR
    return beta * w.p(z) + s


@dataclass
class SubharmonicAudit:
    beta0: float
    worst_residual: float
    n_samples: int


def subharmonic_audit(v: Variety, w: BeurlingWeight, eps: float, samples,
                      h: float = 0.02) -> SubharmonicAudit:
    """Smallest beta with a non-negative five-point stencil Laplacian of
    beta p + v at every sample, plus the worst residual at that beta.

    Samples must keep the stencil off the real axis and away from the
    configuration points.
    """
    p_cache = w.p(v.lam) if len(v) else None
    beta0 = 0.0
    rows = []
    for z in samples:
        z = complex(z)
        if abs(z.imag) < 2 * h:
            raise DomainError("stencil would cross the real axis")
        vs = [singular_weight(v, w, eps, z + off, p_cache)
              for off in (0, h, -h, 1j * h, -1j * h)]
        if V_SINGULAR in vs:
            raise DomainError("stencil touches a configuration point")
        lap_v = (vs[1] + vs[2] + vs[3] + vs[4] - 4 * vs[0]) / (h * h)
        ps = [w.p(z + off) for off in (0, h, -h, 1j * h, -1j * h)]
        lap_p = (ps[1] + ps[2] + ps[3] + ps[4] - 4 * ps[0]) / (h * h)
        rows.append((lap_p, lap_v))
        if lap_v < 0 and lap_p > 0:
            beta0 = max(beta0, -lap_v / lap_p)
    worst = min((beta0 * lp + lv for lp, lv in rows), default=0.0)
    return SubharmonicAudit(beta0, worst, len(rows))


@dataclass
class AnnulusCountingReport:
    radii: list[float]
    constants: list[float]
    trend: TrendResult
    c_eps: float
    c_prime: float
    domination: float

    def to_dict(self) -> dict:
        return {
            "radii": self.radii,
            "constants": self.constants,
            "verdict": self.trend.verdict,
            "exponent": self.trend.exponent,
            "c_eps": self.c_eps,
            "c_prime": self.c_prime,
            "domination": self.domination,
        }


def annulus_counting_report(v: Variety, w: BeurlingWeight, radii, eps: float = 0.1,
                            sep: SeparationRadii | None = None,
                            thresholds: tuple[float, float] = DEFAULT_THRESHOLDS
                            ) -> AnnulusCountingReport:
    """Worst N(z, C(eps) p(z)) / p(z) over transition-annulus samples.

    C(eps) is the empirical disk-comparability constant of the weight.  The
    report also evaluates the domination of the sampled value by
    p(lambda) + N(lambda, C'(eps) p(lambda)) with C' = C^2 + 1, recording
    the observed constant.
    """
    radii = _validate_radii(radii, v.window_radius)
    sep = sep or SeparationRadii.from_profile(v, w)
    c_eps = max(1.0, estimate_disk_constant(w, eps))
    c_prime = c_eps * c_eps + 1.0
    abs_lam = np.abs(v.lam)
    p_lam = w.p(v.lam)
    thetas = np.linspace(0.0, 2 * math.pi, _ANNULUS_ANGLES, endpoint=False)
    ratios = np.full(len(v), 0.0)
    inner = np.nonzero(abs_lam <= radii[-1])[0]
    excl = truncated_log_sums(v.lam, v.mult, v.lam[inner], c_prime * p_lam[inner])
    unit = np.array([complex(math.cos(t), math.sin(t)) for t in thetas])
    z = v.lam[inner, None] + (math.sqrt(1.5) * sep.radii[inner])[:, None] * unit
    pz = w.p(z)
    disk = c_eps * pz
    if not np.all(disk > 0):
        raise DomainError("radius must be positive")
    counts = truncated_log_sums(v.lam, v.mult, z.ravel(), disk.ravel(), include_center=True)
    worst = np.max(counts.reshape(z.shape) / np.maximum(pz, P_MIN), axis=1, initial=0.0)
    ratios[inner] = worst
    rhs = p_lam[inner] + excl
    ok = rhs > 0
    domination = float(np.max(worst[ok] * np.maximum(p_lam[inner][ok], P_MIN) / rhs[ok],
                              initial=0.0))
    constants = []
    for r in radii:
        keep = abs_lam <= r
        constants.append(float(np.max(ratios[keep])) if keep.any() else 0.0)
    return AnnulusCountingReport(list(map(float, radii)), constants,
                                 classify_trend(radii, constants, thresholds),
                                 c_eps, c_prime, domination)


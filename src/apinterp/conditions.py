"""Geometric interpolation conditions: counting bound and Poisson balayage.

Two per-point statistics decide interpolation at desk scale:

  (a) integrated count N(lambda, p(lambda)) / p(lambda) stays bounded;
  (b) the balayage sum  Phi(x) = sum mult * |Im lambda| / |x - lambda|^2
      over points outside the strip |Im z| <= omega(|z|) stays bounded
      over real x.

A finite sample can only exhibit evidence, so both are swept over a
schedule of truncation radii and the growth trend of the per-radius
constants is classified from a log-log slope fit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation
from .numutil import (binary_scaled, golden_section_max, poisson_sum_at, poisson_sums,
                      truncated_log_sums)
from .treecode import first_maxima, poisson_prefix_enclosures, truncated_log_enclosures
from .variety import P_MIN, Variety
from .weights import BeurlingWeight

BOUNDED = "bounded-evidence"
DIVERGENT = "divergence-evidence"
INCONCLUSIVE = "inconclusive"

DEFAULT_THRESHOLDS = (0.05, 0.2)


@dataclass
class RegionSplit:
    """Partition by the strip |Im z| <= omega(|z|); ties go to the strip."""

    strip: Variety
    upper: Variety
    lower: Variety

    def exterior(self) -> Variety:
        return Variety.from_arrays(np.concatenate([self.upper.lam, self.lower.lam]),
                                   np.concatenate([self.upper.mult, self.lower.mult]),
                                   self.strip.window_radius)

    def counts(self) -> dict:
        return {"strip": len(self.strip), "upper": len(self.upper),
                "lower": len(self.lower)}


def split_regions(v: Variety, w: BeurlingWeight) -> RegionSplit:
    omega_abs = w.omega_at(v.lam)
    im = v.lam.imag
    in_strip = np.abs(im) <= omega_abs
    up = im > omega_abs
    down = im < -omega_abs
    window = v.window_radius
    return RegionSplit(
        Variety.from_arrays(v.lam[in_strip], v.mult[in_strip], window),
        Variety.from_arrays(v.lam[up], v.mult[up], window),
        Variety.from_arrays(v.lam[down], v.mult[down], window),
    )


def _validate_radii(radii, window: float) -> np.ndarray:
    radii = np.asarray(list(radii), dtype=float)
    if radii.size == 0 or np.any(radii <= 0):
        raise DomainError("radii must be positive")
    if np.any(np.diff(radii) <= 0):
        raise DomainError("radii must be strictly increasing")
    if radii[-1] > window / 2 * (1 + 1e-12):
        raise DomainError("radii must not exceed window_radius / 2")
    return radii


@dataclass
class TrendResult:
    verdict: str
    exponent: float | None  # None when fewer than two constants are positive
    n_fit: int


def classify_trend(radii, constants,
                   thresholds: tuple[float, float] = DEFAULT_THRESHOLDS) -> TrendResult:
    """Least-squares slope of log(constant) against log(radius).

    Fitted over the upper half of the schedule; slope below thresholds[0]
    reads as bounded-evidence, above thresholds[1] as divergence-evidence,
    otherwise inconclusive.  Non-positive constants are excluded from the
    fit; an all-zero series is bounded-evidence with exponent 0, and fewer
    than two positive constants in the fitted half give inconclusive with
    exponent None.
    """
    radii = np.asarray(list(radii), dtype=float)
    constants = np.asarray(list(constants), dtype=float)
    if radii.size != constants.size:
        raise DomainError("radii and constants must have equal length")
    if np.all(constants <= 0):
        return TrendResult(BOUNDED, 0.0, 0)
    if radii.size < 4 or radii[-1] / radii[0] < 4 * (1 - 1e-12):
        raise DomainError("need at least 4 radii spanning two doublings")
    lo, hi = thresholds
    half = radii.size // 2
    r_fit = radii[half:]
    c_fit = constants[half:]
    pos = c_fit > 0
    if pos.sum() < 2:
        return TrendResult(INCONCLUSIVE, None, int(pos.sum()))
    slope = float(np.polyfit(np.log(r_fit[pos]), np.log(c_fit[pos]), 1)[0])
    if slope < lo:
        verdict = BOUNDED
    elif slope > hi:
        verdict = DIVERGENT
    else:
        verdict = INCONCLUSIVE
    return TrendResult(verdict, slope, int(pos.sum()))


@dataclass
class Sweep:
    """One per-radius sweep: the constant at each truncation radius, the
    witness that attains it (a point, an abscissa, or None where none
    does), the centers whose p was floored to P_MIN (condition a counts
    them; the other sweeps leave 0), and, once classified, the trend."""

    radii: list[float]
    constants: list[float]
    witnesses: list
    floor_hits: int = 0
    trend: TrendResult | None = None

    def classify(self, thresholds: tuple[float, float] = DEFAULT_THRESHOLDS) -> "Sweep":
        self.trend = classify_trend(self.radii, self.constants, thresholds)
        return self

    def to_dict(self) -> dict:
        return {
            "radii": self.radii,
            "constants": self.constants,
            "witnesses": [[z.real, z.imag] if isinstance(z, complex) else z
                          for z in self.witnesses],
            "verdict": self.trend.verdict,
            "exponent": self.trend.exponent,
        }


def condition_a_constants(v: Variety, w: BeurlingWeight, radii,
                          include_center: bool = False) -> Sweep:
    """Per-radius worst integrated-count density.

    For each truncation radius R: max over points with |lambda| <= R of
    N(lambda, p(lambda)) / max(p(lambda), P_MIN), where N is the integrated
    count over the whole sample.  By default N excludes the center's own
    multiplicity term mult * log p(lambda); the center term is dominated by
    p(lambda) asymptotically and leaving it out matches the direct-summation
    calibration used by the reference configurations.  Pass
    include_center=True for the literal formula.
    """
    radii = _validate_radii(radii, v.window_radius)
    centers = v.lam[np.abs(v.lam) <= radii[-1]]
    p_c = w.p(centers)
    floor_hits = int(np.sum(p_c < P_MIN))
    den = np.maximum(p_c, P_MIN)
    value, err, refine = truncated_log_enclosures(v.lam, v.mult, centers, p_c, include_center)
    # canonical order is sorted by |lambda|: the centers within R are a prefix
    ends = np.searchsorted(np.abs(centers), radii, side="right")
    tops = first_maxima(
        ends, ((np.arange(k), value, err) for k in ends),
        lambda n, idx: truncated_log_sums(v.lam, v.mult, centers[idx], p_c[idx], include_center),
        den, refine)
    constants = [0.0 if top is None else top[1] for top in tops]
    witnesses = [None if top is None else complex(centers[top[0]]) for top in tops]
    return Sweep(radii.tolist(), constants, witnesses, floor_hits)


def _exterior_arrays(v_exterior: Variety):
    if np.any(v_exterior.lam.imag == 0):
        raise InvariantViolation("exterior variety contains a real point")
    return v_exterior.lam, v_exterior.mult


def balayage_value(v_exterior: Variety, x: float) -> float:
    """Sum of mult * |Im lambda| / |x - lambda|^2 at a real abscissa."""
    lam, mult = _exterior_arrays(v_exterior)
    return float(poisson_sums(lam, mult, [x])[0])


@dataclass
class ScanSpec:
    xmin: float | None = None
    xmax: float | None = None
    samples: int = 512


#: Width below which balayage_sup's golden-section refinement stops.
REFINE_TOL = 1e-6


def _ends(lo, hi):
    """(lo, hi, e): the ends times 2^e, with e = 0 unless their span
    overflows; then binary_scaled scales them exactly."""
    if math.isfinite(float(hi) - float(lo)):
        return lo, hi, 0
    (lo, hi), e = binary_scaled(lo, hi)
    return lo, hi, e


def _scan_grid(scan: ScanSpec, window_radius: float) -> np.ndarray:
    """The uniform scan grid, over the whole window unless bounds are set."""
    lo, hi, e = _ends(scan.xmin if scan.xmin is not None else -window_radius,
                      scan.xmax if scan.xmax is not None else window_radius)
    return np.ldexp(np.linspace(lo, hi, max(2, scan.samples)), -e)


def _refine(lam, mult, cands, vals, tol: float) -> tuple[float, float]:
    """Golden-section refinement of the best candidate between its nearest
    neighbours at least tol away (a neighbour within rounding of it would
    collapse the bracket); the result is never below the best candidate
    value."""
    k = int(np.argmax(vals))
    best_x, best_v = float(cands[k]), float(vals[k])
    lo = int(np.searchsorted(cands, best_x - tol, side="right")) - 1
    hi = int(np.searchsorted(cands, best_x + tol, side="left"))
    left = cands[lo] if lo >= 0 else best_x - 1.0
    right = cands[hi] if hi < cands.size else best_x + 1.0
    span = max(best_x - left, right - best_x, 1e-9)
    rx, rv = golden_section_max(poisson_sum_at(lam, mult), best_x - span, best_x + span,
                                tol=tol)
    if rv > best_v:
        return float(rx), float(rv)
    return best_x, best_v


def _balayage_maxima(lam, mult, grid, ends, grid_vals=None) -> list:
    """(x_star, sup) of balayage_sup for each prefix lam[:n], n in ends.

    Entry k is None for n = ends[k] = 0.  The candidates, in increasing
    order, are the grid and the real parts; a prefix owns the grid and its
    points' real parts.  Tree enclosures select the candidates that can hold
    the first maximum (treecode.first_maxima), and grid_vals, the direct grid
    values of a single prefix (balayage_profile reports them), are exact ones.
    _refine reads only the first maximum, the positions of its neighbours and
    direct values, so -inf at every other candidate gives the same bits.
    """
    reals, first = np.unique(lam.real, return_index=True)
    cands, pick = np.unique(np.concatenate([grid, reals]), return_index=True)
    # the first point with each real part, or -1 on the grid: prefix n owns tag < n
    tag = np.concatenate([np.full(grid.size, -1), first])[pick]
    exact = np.zeros(cands.size, bool) if grid_vals is None else tag < 0
    encl = np.zeros((len(ends), 2, cands.size))
    encl[:, :, ~exact] = poisson_prefix_enclosures(lam, mult, cands[~exact], ends)
    if grid_vals is not None:
        encl[:, 0, np.searchsorted(cands, grid)] = grid_vals
    own = {n: np.flatnonzero(tag < n) for n in ends}
    tops = first_maxima(ends, ((own[n], *e) for n, e in zip(ends, encl)),
                        lambda n, idx: poisson_sums(lam[:n], mult[:n], cands[idx]),
                        np.ones(cands.size))
    best = {n: top and _refine(lam[:n], mult[:n], cands[own[n]],
                               np.where(own[n] == top[0], top[1], -np.inf), REFINE_TOL)
            for n, top in dict(zip(ends, tops)).items()}  # equal prefixes share one refine
    return [best[n] for n in ends]


def balayage_sup(v_exterior: Variety, scan: ScanSpec | None = None) -> tuple[float, float]:
    """Scan-and-refine maximum of the balayage profile.

    Candidates are every point's real part (each kernel peaks there) plus a
    uniform grid over the window; the best candidate is refined by golden
    section until the bracket is below REFINE_TOL.  The result is a certified
    lower bound on the true supremum and is never below the candidate grid
    maximum.
    """
    if not len(v_exterior):
        return 0.0, 0.0
    scan = scan or ScanSpec()
    lam, mult = _exterior_arrays(v_exterior)
    grid = _scan_grid(scan, v_exterior.window_radius)
    return _balayage_maxima(lam, mult, grid, [lam.size])[0]


@dataclass
class BalayageProfile:
    xs: list[float]
    values: list[float]
    x_star: float
    sup: float
    slope_bound: float
    max_miss: float

    def rows(self):
        yield from zip(self.xs, self.values)
        yield (self.x_star, self.sup)


def balayage_profile(v_exterior: Variety, scan: ScanSpec | None = None) -> BalayageProfile:
    """Sampled balayage map plus the refined supremum row.

    The samples and the supremum row come from the balayage_sup candidates
    (real parts and the grid).  slope_bound is
    sup |Phi'| <= 0.6495 * sum mult / Im^2 (peak derivative of each kernel),
    and max_miss = slope_bound * grid spacing / 2 estimates how far the grid
    maximum can sit below the true supremum between samples.
    """
    scan = scan or ScanSpec()
    xs = _scan_grid(scan, v_exterior.window_radius)
    if not len(v_exterior):
        return BalayageProfile(list(map(float, xs)), [0.0] * xs.size, 0.0, 0.0, 0.0, 0.0)
    lam, mult = _exterior_arrays(v_exterior)
    values = poisson_sums(lam, mult, xs)
    x_star, sup = _balayage_maxima(lam, mult, xs, [lam.size], values)[0]
    lo, hi, e = _ends(xs[0], xs[-1])
    spacing = np.ldexp((hi - lo) / (xs.size - 1), -e)
    with np.errstate(over="ignore", divide="ignore"):  # a bound above DBL_MAX is inf
        slope_bound = float((0.6495 * mult / (lam.imag * lam.imag)).sum())
        max_miss = slope_bound * spacing / 2
    return BalayageProfile(list(map(float, xs)), list(map(float, values)),
                           x_star, sup, slope_bound, max_miss)


def condition_b_constants(v: Variety, w: BeurlingWeight, radii,
                          scan: ScanSpec | None = None) -> Sweep:
    """Per-radius balayage supremum over strip-exterior points with |lambda| <= R.

    Exterior membership uses the strict inequality |Im lambda| > omega(|lambda|).
    Each radius gives balayage_sup of its own exterior points, bit for bit;
    its witness is the abscissa of that supremum.
    """
    radii = _validate_radii(radii, v.window_radius)
    scan = scan or ScanSpec()
    ext = np.abs(v.lam.imag) > w.omega_at(v.lam)
    # canonical order is sorted by |lambda|: the points within R are a prefix
    ends = np.searchsorted(np.abs(v.lam[ext]), radii, side="right")
    lam, mult = v.lam[ext][:ends[-1]], v.mult[ext][:ends[-1]]
    grid = _scan_grid(scan, v.window_radius)
    tops = _balayage_maxima(lam, mult, grid, ends)
    return Sweep(radii.tolist(), [0.0 if top is None else float(top[1]) for top in tops],
                 [None if top is None else float(top[0]) for top in tops])


@dataclass
class ConditionReport:
    condition_a: Sweep
    condition_b: Sweep
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS

    def to_dict(self) -> dict:
        a, b = self.condition_a.to_dict(), self.condition_b.to_dict()
        del a["radii"], b["radii"]  # written once, at the top
        return {
            "radii": self.condition_a.radii,
            "condition_a": {**a, "floor_hits": self.condition_a.floor_hits},
            "condition_b": b,
            "thresholds": list(self.thresholds),
        }


def default_radii(window_radius: float) -> list[float]:
    """Geometric schedule of 8 radii from window/32 to window/2."""
    return list(np.geomspace(window_radius / 32, window_radius / 2, 8))


def run_condition_report(v: Variety, w: BeurlingWeight, radii=None,
                         thresholds: tuple[float, float] = DEFAULT_THRESHOLDS
                         ) -> ConditionReport:
    radii = default_radii(v.window_radius) if radii is None else radii
    return ConditionReport(condition_a_constants(v, w, radii).classify(thresholds),
                           condition_b_constants(v, w, radii).classify(thresholds),
                           thresholds)

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

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvariantViolation
from .numutil import (golden_section_max, poisson_prefix_sums, poisson_sums,
                      truncated_log_sums)
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
        pts = list(zip(self.upper.lam, self.upper.mult))
        pts += list(zip(self.lower.lam, self.lower.mult))
        return Variety(pts, self.strip.window_radius)

    def counts(self) -> dict:
        return {"strip": len(self.strip), "upper": len(self.upper),
                "lower": len(self.lower)}


def split_regions(v: Variety, w: BeurlingWeight) -> RegionSplit:
    if not len(v):
        empty = Variety([], v.window_radius)
        return RegionSplit(empty, empty, empty)
    omega_abs = w.omega(np.abs(v.lam))
    im = v.lam.imag
    in_strip = np.abs(im) <= omega_abs
    up = im > omega_abs
    down = im < -omega_abs
    window = v.window_radius
    return RegionSplit(
        Variety(zip(v.lam[in_strip], v.mult[in_strip]), window),
        Variety(zip(v.lam[up], v.mult[up]), window),
        Variety(zip(v.lam[down], v.mult[down]), window),
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
class ConditionSweep:
    radii: list[float]
    constants: list[float]
    witnesses: list
    floor_hits: int = 0


def condition_a_constants(v: Variety, w: BeurlingWeight, radii,
                          include_center: bool = False,
                          p_min: float = P_MIN) -> ConditionSweep:
    """Per-radius worst integrated-count density.

    For each truncation radius R: max over points with |lambda| <= R of
    N(lambda, p(lambda)) / max(p(lambda), p_min), where N is the integrated
    count over the whole sample.  By default N excludes the center's own
    multiplicity term mult * log p(lambda); the center term is dominated by
    p(lambda) asymptotically and leaving it out matches the direct-summation
    calibration used by the reference configurations.  Pass
    include_center=True for the literal formula.
    """
    radii = _validate_radii(radii, v.window_radius)
    if not len(v):
        return ConditionSweep(list(radii), [0.0] * radii.size,
                              [None] * radii.size)
    abs_lam = np.abs(v.lam)  # canonical order is sorted by |lambda|
    keep = abs_lam <= radii[-1]
    centers = v.lam[keep]
    if centers.size == 0:
        return ConditionSweep(list(radii), [0.0] * radii.size,
                              [None] * radii.size)
    p_c = w.p(centers)
    floor_hits = int(np.sum(p_c < p_min))
    n_vals = truncated_log_sums(v.lam, v.mult, centers, p_c, include_center)
    ratios = n_vals / np.maximum(p_c, p_min)
    abs_centers = np.abs(centers)
    constants, witnesses = [], []
    for r in radii:
        k = int(np.searchsorted(abs_centers, r, side="right"))
        if k == 0:
            constants.append(0.0)
            witnesses.append(None)
            continue
        j = int(np.argmax(ratios[:k]))
        constants.append(float(ratios[j]))
        witnesses.append(complex(centers[j]))
    return ConditionSweep(list(radii), constants, witnesses, floor_hits)


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
    refine_tol: float = 1e-6


def _scan_grid(scan: ScanSpec, window_radius: float) -> np.ndarray:
    """The uniform scan grid, over the whole window unless bounds are set."""
    xmin = scan.xmin if scan.xmin is not None else -window_radius
    xmax = scan.xmax if scan.xmax is not None else window_radius
    return np.linspace(xmin, xmax, max(2, scan.samples))


def _refine(lam, mult, cands, vals, tol: float) -> tuple[float, float]:
    """Golden-section refinement of the best candidate between its
    neighbours; the result is never below the best candidate value."""
    k = int(np.argmax(vals))
    best_x, best_v = float(cands[k]), float(vals[k])
    left = cands[k - 1] if k > 0 else cands[k] - 1.0
    right = cands[k + 1] if k + 1 < cands.size else cands[k] + 1.0
    span = max(best_x - left, right - best_x, 1e-9)

    def phi(x):
        return float(poisson_sums(lam, mult, [x])[0])

    rx, rv = golden_section_max(phi, best_x - span, best_x + span, tol=tol)
    if rv > best_v:
        return float(rx), float(rv)
    return best_x, best_v


def balayage_sup(v_exterior: Variety, scan: ScanSpec | None = None) -> tuple[float, float]:
    """Scan-and-refine maximum of the balayage profile.

    Candidates are every point's real part (each kernel peaks there) plus a
    uniform grid over the window; the best candidate is refined by golden
    section until the bracket is below refine_tol.  The result is a certified
    lower bound on the true supremum and is never below the candidate grid
    maximum.
    """
    if not len(v_exterior):
        return 0.0, 0.0
    scan = scan or ScanSpec()
    lam, mult = _exterior_arrays(v_exterior)
    grid = _scan_grid(scan, v_exterior.window_radius)
    cands = np.unique(np.concatenate([lam.real, grid]))
    return _refine(lam, mult, cands, poisson_sums(lam, mult, cands), scan.refine_tol)


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

    One pass evaluates the balayage_sup candidates (real parts and the
    grid); the sampled values are read from it.  slope_bound is
    sup |Phi'| <= 0.6495 * sum mult / Im^2 (peak derivative of each kernel),
    and max_miss = slope_bound * grid spacing / 2 estimates how far the grid
    maximum can sit below the true supremum between samples.
    """
    scan = scan or ScanSpec()
    xs = _scan_grid(scan, v_exterior.window_radius)
    if not len(v_exterior):
        return BalayageProfile(list(map(float, xs)), [0.0] * xs.size, 0.0, 0.0, 0.0, 0.0)
    lam, mult = _exterior_arrays(v_exterior)
    cands = np.unique(np.concatenate([lam.real, xs]))
    vals = poisson_sums(lam, mult, cands)
    values = vals[np.searchsorted(cands, xs)]
    x_star, sup = _refine(lam, mult, cands, vals, scan.refine_tol)
    slope_bound = float((0.6495 * mult / (lam.imag * lam.imag)).sum())
    spacing = (xs[-1] - xs[0]) / (xs.size - 1)
    return BalayageProfile(list(map(float, xs)), list(map(float, values)),
                           x_star, sup, slope_bound, slope_bound * spacing / 2)


def condition_b_constants(v: Variety, w: BeurlingWeight, radii,
                          scan: ScanSpec | None = None) -> ConditionSweep:
    """Per-radius balayage supremum over strip-exterior points with |lambda| <= R.

    Exterior membership uses the strict inequality |Im lambda| > omega(|lambda|).
    Each radius gives balayage_sup of its own exterior points, bit for bit,
    while each term is evaluated once, on the candidates of the largest
    radius, and every radius reads its own candidates' prefix sums.
    """
    radii = _validate_radii(radii, v.window_radius)
    if not len(v):
        return ConditionSweep(list(radii), [0.0] * radii.size,
                              [None] * radii.size)
    scan = scan or ScanSpec()
    ext = np.abs(v.lam.imag) > w.omega(np.abs(v.lam))
    # canonical order is sorted by |lambda|: the points within R are a prefix
    ends = np.searchsorted(np.abs(v.lam[ext]), radii, side="right")
    lam, mult = v.lam[ext][:ends[-1]], v.mult[ext][:ends[-1]]
    grid = _scan_grid(scan, v.window_radius)
    cands = np.unique(np.concatenate([lam.real, grid]))
    sums = poisson_prefix_sums(lam, mult, cands, ends)
    constants, witnesses = [], []
    for n, row_sums in zip(ends, sums):
        if n == 0:
            constants.append(0.0)
            witnesses.append(None)
            continue
        own = np.unique(np.concatenate([lam[:n].real, grid]))
        x_star, sup = _refine(lam[:n], mult[:n], own,
                              row_sums[np.searchsorted(cands, own)],
                              scan.refine_tol)
        constants.append(float(sup))
        witnesses.append(float(x_star))
    return ConditionSweep(list(radii), constants, witnesses)


@dataclass
class TrendResult:
    verdict: str
    exponent: float | None  # None when fewer than two constants are positive
    n_fit: int

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "exponent": self.exponent,
                "n_fit": self.n_fit}


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
class ConditionReport:
    radii: list[float]
    constants_a: list[float]
    constants_b: list[float]
    trend_a: TrendResult
    trend_b: TrendResult
    witnesses_a: list = field(default_factory=list)
    witnesses_b: list = field(default_factory=list)
    floor_hits_a: int = 0
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS

    def to_dict(self) -> dict:
        return {
            "radii": self.radii,
            "condition_a": {
                "constants": self.constants_a,
                "verdict": self.trend_a.verdict,
                "exponent": self.trend_a.exponent,
                "witnesses": [None if z is None else [z.real, z.imag]
                              for z in self.witnesses_a],
                "floor_hits": self.floor_hits_a,
            },
            "condition_b": {
                "constants": self.constants_b,
                "verdict": self.trend_b.verdict,
                "exponent": self.trend_b.exponent,
                "witnesses": self.witnesses_b,
            },
            "thresholds": list(self.thresholds),
        }


def default_radii(window_radius: float, n: int = 8) -> list[float]:
    """Geometric schedule from window/32 to window/2."""
    return list(np.geomspace(window_radius / 32, window_radius / 2, n))


def run_condition_report(v: Variety, w: BeurlingWeight, radii=None,
                         thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
                         scan: ScanSpec | None = None,
                         include_center: bool = False) -> ConditionReport:
    radii = list(radii) if radii is not None else default_radii(v.window_radius)
    sweep_a = condition_a_constants(v, w, radii, include_center=include_center)
    sweep_b = condition_b_constants(v, w, radii, scan=scan)
    return ConditionReport(
        radii=list(map(float, radii)),
        constants_a=sweep_a.constants,
        constants_b=sweep_b.constants,
        trend_a=classify_trend(radii, sweep_a.constants, thresholds),
        trend_b=classify_trend(radii, sweep_b.constants, thresholds),
        witnesses_a=sweep_a.witnesses,
        witnesses_b=sweep_b.witnesses,
        floor_hits_a=sweep_a.floor_hits,
        thresholds=thresholds,
    )

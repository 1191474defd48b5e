"""Growth weights of the form p(z) = |Im z| + omega(|z|).

The radial profile omega: [0, inf) -> [0, inf) is expected to vanish at 0,
increase continuously, stay subadditive up to a small additive excess,
dominate log(1+t) for t > 1, and have a finite integral of
omega(t)/(1+t^2) over the positive axis (W2).  check_axioms scans the other
properties on fixed grids instead of assuming them, and evaluates W2 in
closed form.

The module also provides the harmonic extension of omega(|t|) to the upper
half-plane (poisson_transform) and a fitter for the bound
|u(z) - omega(|z|)| <= A + B * Im z that the extension satisfies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InputError, NumericError, TabulatedRangeError,
                     check_spec_keys)
# adaptive_quad is not called here; it stays importable as
# weights.adaptive_quad, the name perfbench's tracer wraps.
from .numutil import adaptive_quad, scalar_or_array

LOG_SHIFT = "log_shift"
LOG_SQUARE = "log_square"
POWER = "power"
TABULATED = "tabulated"

_FAMILIES = (LOG_SHIFT, LOG_SQUARE, POWER, TABULATED)

_CATALAN = 0.915965594177219015             # sum (-1)^k / (2k+1)^2

# Allowed additive subadditivity excess.  The log-square profile, which must
# pass as subadditive-up-to-a-constant, has exact excess supremum log(4/3) ~
# 0.2877 (attained at s = t = 1/sqrt(2)), so the constant sits just above it.
EPS_ADD = 0.30

# The axiom scan grids: 160 points on [0, 10] and 160 log-spaced on
# [10, 1e4]; the oscillation windows (x - C omega(x), x + C omega(x)), C = 1,
# around 120 log-spaced x from 100; 64 seeded disk samples for (c) and (d).
_SCAN_MAX = 1e4
_N_LINEAR = 160
_N_LOG = 160
_OSC_C = 1.0
_OSC_XMIN = 100.0
_N_OSC = 120
_SPOT_SAMPLES = 64
_SEED = 20240801


@dataclass(frozen=True)
class OmegaProfile:
    """Radial profile omega.  Built-in families:

    log_shift(a):  omega(t) = a * log(1+t)
    log_square():  omega(t) = log(1+t^2)
    power(gamma):  omega(t) = t^gamma, 0 < gamma < 1
    tabulated(knots): linear interpolation through sorted (t, omega) pairs;
        evaluation outside the knot range is rejected, never extrapolated.
    """

    family: str
    a: float = 1.0
    gamma: float = 0.5
    knots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown omega family {self.family!r}")
        if self.family == LOG_SHIFT and not self.a > 0:
            raise DomainError("log_shift requires a > 0")
        if self.family == POWER and not 0.0 < self.gamma < 1.0:
            raise DomainError("power requires gamma in (0, 1)")
        if self.family == TABULATED:
            if not self.knots or len(self.knots) < 2:
                raise DomainError("tabulated profile needs at least two knots")
            ts = [t for t, _ in self.knots]
            ws = [w for _, w in self.knots]
            if ts[0] < 0:
                raise DomainError("tabulated knots must have t >= 0")
            if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
                raise DomainError("tabulated knots must be strictly increasing in t")
            if any(w1 > w2 for w1, w2 in zip(ws, ws[1:])):
                raise DomainError("tabulated values must be non-decreasing")
            if any(w < 0 for w in ws):
                raise DomainError("tabulated values must be non-negative")
            # __call__ interpolates on these; built once, not per call
            object.__setattr__(self, "_knot_t", np.array(ts))
            object.__setattr__(self, "_knot_w", np.array(ws))

    @classmethod
    def log_shift(cls, a: float = 1.0) -> "OmegaProfile":
        return cls(family=LOG_SHIFT, a=float(a))

    @classmethod
    def log_square(cls) -> "OmegaProfile":
        return cls(family=LOG_SQUARE)

    @classmethod
    def power(cls, gamma: float) -> "OmegaProfile":
        return cls(family=POWER, gamma=float(gamma))

    @classmethod
    def tabulated(cls, knots) -> "OmegaProfile":
        try:
            pairs = tuple((float(t), float(w)) for t, w in knots)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"tabulated knots must be (t, omega) number pairs: {exc}") from exc
        return cls(family=TABULATED, knots=pairs)

    @property
    def t_max(self) -> float:
        """Largest evaluable argument (inf for the closed-form families)."""
        if self.family == TABULATED:
            return self.knots[-1][0]
        return math.inf

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if arr.min(initial=0.0) < 0:  # np.any(arr < 0) took 3x as long a call
            raise DomainError("omega is only defined for t >= 0")
        if self.family == LOG_SHIFT:
            out = self.a * np.log1p(arr)
        elif self.family == LOG_SQUARE:
            if arr.max(initial=0.0) < 2.0 ** 512:  # no t * t overflows
                out = np.log1p(arr * arr)
            else:  # log1p(t^2) = 2 log t + log1p(t^-2) where t * t would
                big = arr >= 2.0 ** 512
                t, small = np.where(big, arr, 1.0), np.where(big, 0.0, arr)
                out = np.where(big, 2 * np.log(t) + np.log1p(t ** -2), np.log1p(small * small))
        elif self.family == POWER:
            out = arr ** self.gamma
        else:
            ts = self._knot_t
            if np.any(arr < ts[0]) or np.any(arr > ts[-1]):
                raise TabulatedRangeError(
                    f"argument outside tabulated range [{ts[0]}, {ts[-1]}]")
            out = np.interp(arr, ts, self._knot_w)
        return scalar_or_array(out, arr.shape)

    def _poisson(self, z: np.ndarray) -> np.ndarray:
        """(1/pi) int omega(|t|) Im z / |t - z|^2 dt at each z (Im z > 0), in
        closed form; for a tabulated profile over the knot range only."""
        if self.family == LOG_SHIFT:
            from scipy.special import log1p, spence     # complex log1p, Li2
            # I(z) = Im[-(1/2) log^2(-1/(1+z)) - Li2(1/(1+z))] integrates over
            # t > 0 (Lewin 1981); log(-1/(1+z)) = i pi - log(1+z) because 1+z
            # lies in the upper half-plane, and Li2(1/(1+z)) = spence(z/(1+z)).
            def half(z):
                lg = log1p(z)
                return lg.real * (np.pi - lg.imag) - spence(z / (1.0 + z)).imag
            return self.a / np.pi * (half(z) + half(-np.conj(z)))
        if self.family == LOG_SQUARE:
            from scipy.special import log1p
            return 2.0 * log1p(-1j * z).real             # 2 log|z + i|
        if self.family == POWER:
            g = self.gamma                               # Re((-iz)^g) / cos(g pi/2)
            return (np.abs(z) ** g * np.cos(g * np.arctan2(-z.real, z.imag))
                    / math.cos(g * math.pi / 2))
        # a piece alpha + beta t on [a, b] gives (alpha + beta x) [atan((b-x)/y) -
        # atan((a-x)/y)] + (beta y/2) log(((b-x)^2+y^2)/((a-x)^2+y^2)), and its
        # mirror on [-b, -a] the same at -x; angle and log ratio do not cancel
        a, b = self._knot_t[:-1], self._knot_t[1:]
        beta = np.diff(self._knot_w) / (b - a)
        x, y = np.stack([z.real, -z.real])[..., None], z.imag[:, None]
        da, db = a - x, b - x
        angle = np.arctan2(y * (b - a), y * y + da * db)
        gap = (b - a) * (da + db)                         # db^2 - da^2
        log_ratio = np.sign(gap) * np.log1p(
            np.abs(gap) / (np.minimum(da * da, db * db) + y * y))
        terms = (self._knot_w[:-1] - beta * da) * angle + 0.5 * beta * y * log_ratio
        return terms.sum(axis=-1).sum(axis=0) / np.pi

    def _w2(self) -> tuple[float, float]:
        """(integral, tail) of omega(t)/(1+t^2) over t > 0, in closed form.

        The closed-form families integrate exactly, so their tail is 0.0.  A
        tabulated profile integrates its knot range [0, T] and adds the tail
        estimate omega(T)(pi/2 - atan T) + int_0^T omega(s)/(1+(s+T)^2) ds from
        the monotone subadditive extension omega(t) <= omega(T) + omega(t - T).
        Subadditivity alone cannot pin the tail rigorously (profiles as large
        as t/log t are subadditive yet non-integrable), so the tail is an
        estimate, not a bound.
        """
        if self.family == LOG_SHIFT:
            return self.a * (math.pi / 4 * math.log(2.0) + _CATALAN), 0.0
        if self.family == LOG_SQUARE:
            return math.pi * math.log(2.0), 0.0
        if self.family == POWER:
            return math.pi / (2.0 * math.cos(self.gamma * math.pi / 2)), 0.0
        ts, ws = self._knot_t, self._knot_w
        if ts[0] > 0:
            raise TabulatedRangeError(
                f"the W2 integral starts at t = 0, outside tabulated range [{ts[0]}, {ts[-1]}]")
        # the shifted integrand is the same interpolant on the knots moved by T;
        # atan2(1, T) is pi/2 - atan T without its cancellation at large T
        end = float(ts[-1])
        tail = float(ws[-1]) * math.atan2(1.0, end) + _piecewise_w2(ts + end, ws)
        return _piecewise_w2(ts, ws) + tail, tail

    def to_dict(self) -> dict:
        if self.family == LOG_SHIFT:
            return {"family": LOG_SHIFT, "a": self.a}
        if self.family == LOG_SQUARE:
            return {"family": LOG_SQUARE}
        if self.family == POWER:
            return {"family": POWER, "gamma": self.gamma}
        return {"family": TABULATED, "knots": [list(k) for k in self.knots]}

    @classmethod
    def from_dict(cls, cfg: dict) -> "OmegaProfile":
        if not isinstance(cfg, dict):
            raise InputError("weight spec must be a JSON object")
        params = dict(cfg)
        family = params.pop("family", None)
        build = {LOG_SHIFT: cls.log_shift, LOG_SQUARE: cls.log_square,
                 POWER: cls.power, TABULATED: cls.tabulated}.get(family)
        if build is None:
            raise DomainError(f"unknown omega family {family!r}")
        check_spec_keys(f"omega family {family!r}", params, build)
        return build(**params)


def _piecewise_w2(ts: np.ndarray, ws: np.ndarray) -> float:
    """int over [ts[0], ts[-1]] (ts >= 0) of the linear interpolant through
    (ts, ws) against 1/(1+t^2).  The piece w_a + beta (t - a) on [a, b] gives
    w_a A + beta ((1/2) log((1+b^2)/(1+a^2)) - a A), A = atan b - atan a."""
    a, b = ts[:-1], ts[1:]
    beta = np.diff(ws) / (b - a)
    angle = np.arctan2(b - a, 1.0 + a * b)
    log_ratio = np.log1p((b - a) * (b + a) / (1.0 + a * a))
    return float(np.sum(ws[:-1] * angle + beta * (0.5 * log_ratio - a * angle)))


@dataclass
class AxiomReport:
    subadd_excess: float
    subadd_argmax: tuple[float, float]
    subadd_strict: bool
    subadd_relaxed: bool
    w1_constant: float
    w1_argmax: float
    w2_integral: float
    w2_tail: float
    w2_tail_is_estimate: bool
    oscillation_worst: float
    oscillation_argmax: tuple[float, float]
    oscillation_ok: bool
    prop_c_constant: float
    prop_d_constant: float
    prop_d_eps: float

    def to_dict(self) -> dict:
        """The fields in order, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


@dataclass
class BeurlingWeight:
    """p(z) = |Im z| + omega(|z|); always >= 0, vanishing only where both
    Im z = 0 and omega(|z|) = 0.  Evaluated at points, an omega that is not
    finite at a finite modulus raises NumericError naming the first one."""

    omega: OmegaProfile

    def omega_at(self, z):
        """omega(|z|) at the points z (one z gives a float), checked."""
        z = np.asarray(z, dtype=complex)
        abs_z = np.abs(z)
        with np.errstate(over="ignore"):
            omega = np.asarray(self.omega(abs_z))
        bad = np.flatnonzero(np.isfinite(abs_z) & ~np.isfinite(omega))
        if bad.size:
            raise NumericError(f"omega({float(abs_z.flat[bad[0]])!r}) is not finite at the "
                               f"point {complex(z.flat[bad[0]])!r}")
        return scalar_or_array(omega, z.shape)

    def p(self, z):
        arr = np.asarray(z, dtype=complex)
        return scalar_or_array(np.abs(arr.imag) + self.omega_at(arr), arr.shape)

    def to_dict(self) -> dict:
        return self.omega.to_dict()

    @classmethod
    def from_dict(cls, cfg: dict) -> "BeurlingWeight":
        return cls(OmegaProfile.from_dict(cfg))


def _scan_points(cap: float) -> np.ndarray:
    hi = min(_SCAN_MAX, cap)
    lo_block = np.linspace(0.0, min(10.0, hi), _N_LINEAR)
    if hi > 10.0:
        hi_block = np.geomspace(10.0, hi, _N_LOG)
        return np.unique(np.concatenate([lo_block, hi_block]))
    return np.unique(lo_block)


def check_axioms(w: BeurlingWeight) -> AxiomReport:
    """Scan the profile axioms on fixed grids and record worst cases.

    Subadditivity is scanned over pairs from the grid; the ratio
    log(1+t)/omega(t) over t > 1; the oscillation ratio omega(y)/omega(x)
    over windows y in (x - C omega(x), x + C omega(x)); and the disk
    comparability constants by seeded random sampling.  The integral of
    omega(t)/(1+t^2) over t > 0 (W2) is a closed form: a (pi/4 log 2 + G)
    for log_shift(a), with G Catalan's constant; pi log 2 for log_square;
    pi / (2 cos(g pi/2)) for power(g); and for a tabulated profile, whose
    range must start at t = 0, the elementary integral of each linear piece
    plus a tail estimate past the last knot.  w2_tail is that estimated
    part, 0.0 for the exact families.
    """
    omega = w.omega

    # subadditivity: pairs must stay evaluable, so cap at half the range
    cap_pair = (omega.t_max if math.isfinite(omega.t_max) else _SCAN_MAX) / 2
    s = _scan_points(cap_pair)
    s = s[s > 0]
    ws = omega(s)
    sum_matrix = omega(s[:, None] + s[None, :])
    excess = sum_matrix - ws[:, None] - ws[None, :]
    idx = np.unravel_index(int(np.argmax(excess)), excess.shape)
    subadd_excess = float(excess[idx])
    subadd_argmax = (float(s[idx[0]]), float(s[idx[1]]))

    # growth floor: worst log(1+t)/omega(t) for t > 1
    t_hi = _scan_points(omega.t_max)
    t_hi = t_hi[t_hi > 1.0]
    w_hi = omega(t_hi)
    with np.errstate(divide="ignore"):
        ratios = np.where(w_hi > 0, np.log1p(t_hi) / np.where(w_hi > 0, w_hi, 1.0),
                          np.inf)
    k = int(np.argmax(ratios))
    w1_constant = float(ratios[k])
    w1_argmax = float(t_hi[k])

    w2, w2_tail = omega._w2()
    if not math.isfinite(w2):
        raise NumericError("integral of omega(t)/(1+t^2) overflowed")

    # oscillation over windows around large x
    t_cap = min(_SCAN_MAX, omega.t_max)
    osc_worst = 1.0
    osc_arg = (_OSC_XMIN, _OSC_XMIN)
    x_hi = t_cap * 0.9
    if x_hi > _OSC_XMIN:
        xs = np.geomspace(_OSC_XMIN, x_hi, _N_OSC)
        wx = omega(xs)[:, None]
        ys = np.linspace(np.maximum(xs - _OSC_C * wx[:, 0], 0.0),
                         np.minimum(xs + _OSC_C * wx[:, 0], t_cap), 41, axis=1)
        wy = omega(ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(wy > 0, np.maximum(wy / wx, wx / np.where(wy > 0, wy, 1.0)),
                         np.inf)
        r[wx[:, 0] <= 0] = -np.inf  # a window around a zero of omega is skipped
        k, j = np.unravel_index(np.argmax(r), r.shape)  # the first worst window
        if r[k, j] > osc_worst:
            osc_worst, osc_arg = float(r[k, j]), (float(xs[k]), float(ys[k, j]))

    prop_c = _disk_constant(w, radius_factor=1.0, eps_mode=False,
                            n=_SPOT_SAMPLES, seed=_SEED, t_cap=t_cap)
    prop_d = _disk_constant(w, radius_factor=0.1, eps_mode=True,
                            n=_SPOT_SAMPLES, seed=_SEED + 1, t_cap=t_cap)

    return AxiomReport(
        subadd_excess=subadd_excess,
        subadd_argmax=subadd_argmax,
        subadd_strict=subadd_excess <= 1e-12,
        subadd_relaxed=subadd_excess <= EPS_ADD,
        w1_constant=w1_constant,
        w1_argmax=w1_argmax,
        w2_integral=w2,
        w2_tail=w2_tail,
        w2_tail_is_estimate=math.isfinite(omega.t_max),
        oscillation_worst=osc_worst,
        oscillation_argmax=osc_arg,
        oscillation_ok=osc_worst <= 2.0,
        prop_c_constant=prop_c,
        prop_d_constant=prop_d,
        prop_d_eps=0.1,
    )


def _disk_constant(w: BeurlingWeight, radius_factor: float, eps_mode: bool,
                   n: int, seed: int, t_cap: float) -> float:
    """Worst p(zeta)/p(z) over sampled zeta in D(z, radius_factor * p(.))."""
    rng = np.random.default_rng(seed)
    hi = min(t_cap / 4 if math.isfinite(t_cap) else 1e3, 1e3)
    radii = np.geomspace(1.0, max(hi, 2.0), n)
    angles = rng.uniform(0.0, 2 * math.pi, n)
    zs = radii * np.exp(1j * angles)
    pz = w.p(zs)
    zs, pz = zs[pz > 0], pz[pz > 0]
    # per sample, 16 radial then 16 angular uniforms, in stream order
    u = rng.random((zs.size, 2, 16))
    offs = (radius_factor * pz)[:, None] * np.sqrt(u[:, 0]) * np.exp(1j * (2 * math.pi * u[:, 1]))
    zetas = zs[:, None] + offs
    keep = np.abs(zetas) <= t_cap  # the profile may end at t_cap
    p_zeta = w.p(np.where(keep, zetas, zs[:, None]))
    if eps_mode:
        # property (d): only pairs with |z - zeta| <= eps p(zeta) count
        keep &= np.abs(zetas - zs[:, None]) <= radius_factor * p_zeta
    best = np.max(p_zeta, axis=1, where=keep, initial=-np.inf)
    return float(np.max(best / pz, initial=1.0))


def estimate_disk_constant(w: BeurlingWeight, eps: float) -> float:
    """C(eps) with p(zeta) <= C(eps) p(z) whenever |z - zeta| <= eps p(zeta).

    Empirical estimate from _SPOT_SAMPLES samples (seed 7); tends to 1 as
    eps tends to 0.
    """
    cap = w.omega.t_max
    return _disk_constant(w, radius_factor=eps, eps_mode=True, n=_SPOT_SAMPLES, seed=7,
                          t_cap=cap if math.isfinite(cap) else math.inf)


def poisson_transform(w: BeurlingWeight, z):
    """Harmonic extension u(z) = (1/pi) * int y omega(|t|) / ((x-t)^2 + y^2) dt.

    Normalized so that u has boundary value omega(|x|) on the real axis.
    Closed form for every family; for tabulated profiles the integral is
    restricted to the knot range.  One z gives a float, an array an array.
    """
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("poisson_transform requires a finite z")
    if not np.all(arr.imag > 0):
        raise DomainError("poisson_transform requires Im z > 0")
    # evaluated on a 1-d array, so one z takes the same numpy loops as a batch
    return scalar_or_array(w.omega._poisson(arr.ravel()), arr.shape)


@dataclass
class PoissonBoundReport:
    a_fit: float
    b_fit: float
    max_deviation: float
    worst_point: complex
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "a_fit": self.a_fit,
            "b_fit": self.b_fit,
            "max_deviation": self.max_deviation,
            "worst_point": [self.worst_point.real, self.worst_point.imag],
            "n_samples": self.n_samples,
        }


def verify_poisson_bound(w: BeurlingWeight, samples) -> PoissonBoundReport:
    """Fit the smallest (A, B) with |u(z) - omega(|z|)| <= A + B Im z on samples.

    B is the non-negative least-squares slope of deviation against height
    (zero when all samples share one height); A then closes the bound
    exactly at the binding sample.  No samples give the zero report.
    Report-only, never raises on content.
    """
    zs = np.array([complex(z) for z in samples], dtype=complex)
    if not zs.size:
        return PoissonBoundReport(0.0, 0.0, 0.0, 0j, 0)
    ys = zs.imag
    devs = np.abs(poisson_transform(w, zs) - w.omega(np.abs(zs)))
    b_fit = max(0.0, float(np.polyfit(ys, devs, 1)[0])) if np.ptp(ys) > 0 else 0.0
    k = int(np.argmax(devs))
    return PoissonBoundReport(
        a_fit=max(0.0, float(np.max(devs - b_fit * ys))), b_fit=b_fit,
        max_deviation=float(devs[k]), worst_point=complex(zs[k]), n_samples=zs.size)

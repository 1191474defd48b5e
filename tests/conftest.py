import bisect
import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

import apinterp as ap
from apinterp.errors import DomainError


@pytest.fixture(scope="session")
def log_shift():
    return ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))


@pytest.fixture(scope="session")
def log_square():
    return ap.BeurlingWeight(ap.OmegaProfile.log_square())


def finite_complex(max_abs=50.0, min_im=None, max_im=None):
    re = st.floats(-max_abs, max_abs, allow_nan=False, allow_infinity=False)
    lo = -max_abs if min_im is None else min_im
    hi = max_abs if max_im is None else max_im
    im = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.builds(complex, re, im)


def point_lists(min_size=1, max_size=20, **kwargs):
    pair = st.tuples(finite_complex(**kwargs), st.integers(1, 3))
    return st.lists(pair, min_size=min_size, max_size=max_size)


def wirtinger_stencil(f, z, h):
    """(d/dx + i d/dy)/2 of f at z via centered differences."""
    return ((f(z + h) - f(z - h)) + 1j * (f(z + 1j * h) - f(z - 1j * h))) / (4 * h)


def poisson_quadrature(omega, z):
    """Quadrature oracle for poisson_transform: (1/pi) int omega(|t|) y /
    ((t-x)^2 + y^2) dt over the knot range of a tabulated profile, else over
    |t| <= 1e100 (the tail beyond is below 1e-18 relative for the profiles
    tested); |x| must lie inside that range.  Each side of x is integrated
    in s = log|t - x|, which resolves both the peak of width y and the slow
    tails, split at t = 0, at every knot and at |t - x| = y.  The part with
    |t - x| < y e^-50 is left out; it is below e^-50 omega(|x|).
    """
    x, y = z.real, z.imag
    top = min(omega.t_max, 1e100)
    assert abs(x) < top
    knots = [t for t, _ in omega.knots] if omega.knots else []
    profile = omega
    if knots:
        ws = [w for _, w in omega.knots]

        def profile(t):  # the oracle's own interpolation, and faster per call
            k = min(bisect.bisect_right(knots, t), len(knots) - 1)
            return ws[k - 1] + (ws[k] - ws[k - 1]) * (t - knots[k - 1]) / (knots[k] - knots[k - 1])
    breaks = {0.0, *knots, *(-t for t in knots)}
    low = math.log(y) - 50.0
    parts = []
    for sign in (1.0, -1.0):
        high = math.log(top - sign * x)
        cuts = {math.log(y)} | {math.log(sign * (b - x)) for b in breaks if sign * (b - x) > 0}
        edges = sorted({low, high} | {c for c in cuts if low < c < high})

        def f(s, sign=sign):
            d = math.exp(s)
            return y * profile(min(abs(x + sign * d), top)) / (d + y * y / d)
        parts += [quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                  for a, b in zip(edges, edges[1:])]
    return math.fsum(parts) / math.pi


def w2_quadrature(omega):
    """Quadrature oracle for the W2 integral of check_axioms: (integral, tail)
    of omega(t)/(1+t^2) over t > 0, split at t = 1.  A tabulated profile
    integrates its knot range, split also at every knot, plus the tail
    estimate omega(T)(pi/2 - atan T) + int_0^T omega(s)/(1+(s+T)^2) ds past
    its last knot T, split at every knot; the other families have no tail.
    """
    def split_quad(f, edges):
        return math.fsum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for a, b in zip(edges, edges[1:]))

    f = lambda t: omega(t) / (1.0 + t * t)
    if not omega.knots:
        return split_quad(f, [0.0, 1.0, math.inf]), 0.0
    ts = [t for t, _ in omega.knots]
    end = ts[-1]
    body = split_quad(f, sorted({t for t in (*ts, 1.0) if t <= end}))
    tail = omega(end) * (math.pi / 2 - math.atan(end)) + split_quad(
        lambda s: omega(s) / (1.0 + (s + end) ** 2), ts)
    return body + tail, tail


def integrated_count_oracle(v: ap.Variety, z: complex, r: float, steps: int = 20000) -> float:
    """Trapezoid quadrature of the defining integral of integrated_count.

    The counting function is a step function, so the integrand between
    consecutive point distances is c/t; each such interval is covered by
    geometrically spaced trapezoid nodes, with node budget proportional to
    its logarithmic length.  Converges to the closed form as steps grows.
    """
    if steps < 1000:
        raise DomainError("steps must be at least 1000")
    if not r > 0:
        raise DomainError("radius must be positive")
    if not len(v):
        return 0.0
    d = np.abs(v.lam - z)
    center = int(v.mult[d == 0].sum())
    total = center * math.log(r) if center else 0.0
    bps = np.unique(d[(d > 0) & (d < r)])
    if bps.size == 0:
        return total
    edges = np.append(bps, r)
    log_lens = np.log(edges[1:] / edges[:-1])
    weight = log_lens / log_lens.sum()
    for i in range(bps.size):
        a, b = edges[i], edges[i + 1]
        if b <= a:
            continue
        c = int(v.mult[(d > 0) & (d <= bps[i])].sum())
        n = max(2, int(round(steps * weight[i])))
        nodes = a * (b / a) ** np.linspace(0.0, 1.0, n + 1)
        total += float(np.trapezoid(c / nodes, nodes))
    return total


def jensen_quadrature(hv, z, steps=20000):
    """Independent route to the hyperbolic Jensen value: integrate the
    pseudohyperbolic counting function n(z, t)/t over (0, 1) with geometric
    trapezoid nodes between the exact jump locations."""
    rho = np.abs(z - hv.lam) / np.abs(z - np.conj(hv.lam))
    bps = np.unique(rho)
    edges = np.append(bps, 1.0)
    log_lens = np.log(edges[1:] / edges[:-1])
    weights = log_lens / log_lens.sum()
    total = 0.0
    for i in range(bps.size):
        a, b = edges[i], edges[i + 1]
        if b <= a:
            continue
        c = int(hv.mult[rho <= bps[i]].sum())
        n = max(2, int(round(steps * weights[i])))
        nodes = a * (b / a) ** np.linspace(0.0, 1.0, n + 1)
        total += float(np.trapezoid(c / nodes, nodes))
    return total


def collapsing_pairs(count=24, window=52.0):
    """Pairs (k, k + e^{-k}): gaps shrink much faster than the weight grows."""
    pts = []
    for k in range(1, count + 1):
        pts.append((complex(k, 0.0), 1))
        pts.append((complex(k + math.exp(-k), 0.0), 1))
    return ap.Variety(pts, window_radius=window)

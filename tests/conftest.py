import bisect
import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

import apinterp as ap


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

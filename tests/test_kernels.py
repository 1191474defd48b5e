"""The three dense pairwise kernels in numutil.

Each kernel value is checked against a plain-Python math.fsum direct sum
within the pairwise-summation bound, and every value computed in a batch
must equal the same value computed alone, bit for bit, including through
the public scalar and sweep functions.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import apinterp as ap
from apinterp.numutil import log_rho_sums, poisson_sums, truncated_log_sums

EPS = np.finfo(float).eps

# Quarter-grid coordinates: sums and squares of differences are exact, so a
# point placed on a disk boundary is at distance exactly r.
QUARTER = st.integers(-40, 40).map(lambda k: k / 4)
UPPER = st.integers(1, 40).map(lambda k: k / 4)


def pairwise_bound(scale: list[float]) -> float:
    """Allowed |kernel - fsum|: eps * (log2(n) + 8) * sum of the term scales.

    log2(n) covers numpy's pairwise summation; the constant covers the
    rounding of each term in the kernel and in the direct sum.
    """
    return EPS * (math.log2(max(len(scale), 1)) + 8) * math.fsum(scale)


@st.composite
def disk_configs(draw):
    """Points with a center on one of them, a point exactly on each closed
    disk boundary, and multiplicities above 1."""
    pts = draw(st.lists(st.tuples(QUARTER, QUARTER, st.integers(1, 3)),
                        min_size=1, max_size=30))
    disks = draw(st.lists(st.tuples(st.sampled_from(pts), st.integers(1, 80)),
                          min_size=1, max_size=6))
    centers = [complex(x, y) for (x, y, _), _ in disks]
    radii = [k / 4 for _, k in disks]
    boundary = [(c + r, 2) for c, r in zip(centers, radii)]
    v = ap.Variety([(complex(x, y), m) for x, y, m in pts] + boundary)
    return v, np.array(centers), np.array(radii)


def direct_truncated_log(v, c, r, include_center):
    terms, scale = [], []
    for lam, m in zip(v.lam.tolist(), v.mult.tolist()):
        d = abs(lam - c)
        if d == 0:
            if include_center:
                terms.append(m * math.log(r))
                scale.append(m * (1 + abs(math.log(r))))
        elif d <= r:
            terms.append(m * math.log(r / d))
            scale.append(m * (1 + abs(math.log(r)) + abs(math.log(d))))
    return terms, scale


@settings(max_examples=80, deadline=None)
@given(disk_configs(), st.booleans())
def test_truncated_log_sums_match_direct_sum(cfg, include_center):
    v, centers, radii = cfg
    batch = truncated_log_sums(v.lam, v.mult, centers, radii, include_center)
    for value, c, r in zip(batch, centers, radii):
        terms, scale = direct_truncated_log(v, c, r, include_center)
        assert abs(value - math.fsum(terms)) <= pairwise_bound(scale)
        alone = truncated_log_sums(v.lam, v.mult, [c], [r], include_center)[0]
        assert value == alone
        if include_center:
            assert value == ap.integrated_count(v, c, r)


@st.composite
def upper_configs(draw):
    """Upper half-plane points, centers on some of them and off them, and
    multiplicities above 1."""
    pts = draw(st.lists(st.tuples(QUARTER, UPPER, st.integers(1, 3)),
                        min_size=1, max_size=30))
    on = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=4))
    off = draw(st.lists(st.tuples(QUARTER, UPPER), max_size=4))
    x0, y0, _ = on[0]
    hv = ap.HalfPlaneVariety([(complex(x, y), m) for x, y, m in pts]
                             + [(complex(x0, y0), 2)])
    centers = [complex(x, y) for x, y, _ in on] + [complex(x, y) for x, y in off]
    return hv, np.array(centers)


def direct_log_rho(hv, c):
    terms, scale = [], []
    for lam, m in zip(hv.lam.tolist(), hv.mult.tolist()):
        if lam != c:
            term = m * -math.log(abs(c - lam) / abs(c - lam.conjugate()))
            terms.append(term)
            scale.append(4 * m + abs(term))
    return terms, scale


@settings(max_examples=80, deadline=None)
@given(upper_configs())
def test_log_rho_sums_match_direct_sum(cfg):
    hv, centers = cfg
    batch = log_rho_sums(hv.lam, hv.mult, centers)
    points = set(hv.lam.tolist())
    for value, c in zip(batch, centers):
        terms, scale = direct_log_rho(hv, c)
        assert abs(value - math.fsum(terms)) <= pairwise_bound(scale)
        if c in points:
            assert value == ap.blaschke_sum(hv, c)
        else:
            assert value == -ap.log_blaschke_abs(hv, c)


@st.composite
def exterior_configs(draw):
    """Non-real points in both half-planes, abscissae on and off their real
    parts, and multiplicities above 1."""
    sign = st.sampled_from((-1.0, 1.0))
    pts = draw(st.lists(st.tuples(QUARTER, UPPER, sign, st.integers(1, 3)),
                        min_size=1, max_size=30))
    v = ap.Variety([(complex(x, s * y), m) for x, y, s, m in pts]
                   + [(complex(pts[0][0], pts[0][1]), 2)])
    on = draw(st.lists(st.sampled_from([x for x, _, _, _ in pts]), min_size=1, max_size=4))
    off = draw(st.lists(st.floats(-20.0, 20.0), max_size=4))
    return v, np.array(on + off)


@settings(max_examples=80, deadline=None)
@given(exterior_configs())
def test_poisson_sums_match_direct_sum(cfg):
    v, xs = cfg
    batch = poisson_sums(v.lam, v.mult, xs)
    for value, x in zip(batch, xs):
        terms = [m * abs(lam.imag) / ((x - lam.real) ** 2 + lam.imag ** 2)
                 for lam, m in zip(v.lam.tolist(), v.mult.tolist())]
        assert abs(value - math.fsum(terms)) <= pairwise_bound(terms)
        assert value == ap.balayage_value(v, x)


def test_condition_a_sweep_equals_single_center_values(log_shift):
    v = ap.generate(ap.FamilySpec("strip_random", {"count": 3000, "strip_height": 5.0,
                                                   "half_width": 50.0}))
    radii = np.geomspace(v.window_radius / 64, v.window_radius / 2, 24)
    literal = ap.condition_a_constants(v, log_shift, radii, include_center=True)
    default = ap.condition_a_constants(v, log_shift, radii)
    checked = 0
    for c_lit, z_lit, c_def, z_def in zip(literal.constants, literal.witnesses,
                                          default.constants, default.witnesses):
        if z_lit is not None:
            pz = log_shift.p(z_lit)
            assert c_lit == ap.integrated_count(v, z_lit, pz) / max(pz, 1.0)
            checked += 1
        if z_def is not None:
            pz = log_shift.p(z_def)
            alone = truncated_log_sums(v.lam, v.mult, [z_def], [pz])[0]
            assert c_def == alone / max(pz, 1.0)
    assert checked >= 12


def test_blaschke_sweep_equals_single_center_values(log_shift):
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 8}))
    hv = ap.HalfPlaneVariety.from_variety(v)
    rep = ap.blaschke_sum_report(hv, log_shift, ap.default_radii(hv.window_radius))
    checked = 0
    for r, c, z in zip(rep.radii, rep.constants, rep.witnesses):
        if z is None:
            continue
        assert c == ap.blaschke_sum(hv.restrict(r), z) / max(log_shift.p(z), 1.0)
        checked += 1
    assert checked == len(rep.radii)


def test_balayage_profile_equals_single_abscissa_values(log_shift):
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 8}))
    ext = ap.split_regions(v, log_shift).exterior()
    prof = ap.balayage_profile(ext, ap.ScanSpec(xmin=-300.0, xmax=300.0, samples=301))
    assert [ap.balayage_value(ext, x) for x in prof.xs] == prof.values
    assert prof.sup == ap.balayage_value(ext, prof.x_star)

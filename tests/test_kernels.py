"""The three dense pairwise kernels in numutil and their tree-code
enclosures in treecode.

Each kernel value is checked against a plain-Python math.fsum direct sum
within the pairwise-summation bound, and every value computed in a batch
must equal the same value computed alone, bit for bit, including through
the public scalar and sweep functions and through the point evaluations of
the weight layer.  Each tree value must lie within its bound of both the
fsum direct sum and the direct kernel, and each sweep that selects through
the tree must report the direct kernels' first maximum, bit for bit.
"""

import contextlib
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apinterp as ap
from apinterp import conditions, numutil, treecode
from apinterp.numutil import log_rho_sums, poisson_sums, truncated_log_sums

EPS = np.finfo(float).eps
DBL_MAX = np.finfo(float).max

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
    at = numutil.poisson_sum_at(v.lam, v.mult)
    for value, x in zip(batch, xs):
        terms = [m * abs(lam.imag) / ((x - lam.real) ** 2 + lam.imag ** 2)
                 for lam, m in zip(v.lam.tolist(), v.mult.tolist())]
        assert abs(value - math.fsum(terms)) <= pairwise_bound(terms)
        assert value == ap.balayage_value(v, x) == at(x)


def test_dense_kernels_give_overflowing_distances_zero_terms():
    # Squared distances above DBL_MAX overflow to inf in the Poisson and the
    # log-rho terms.  Such a term is 0, within weight / DBL_MAX of its exact
    # value, and no RuntimeWarning is raised (the test configuration turns
    # one into an error).  The oracle is math.fsum of terms computed exactly
    # in fractions.
    lam = np.array([1e200 + 1j, 1 + 2j, 3 - 5j, -2 + 7j, -1e300 + 0.5j, 4e307 + 1e150j])
    mult = np.array([1, 2, 1, 3, 1, 2])
    pts = [(Fraction(z.real), Fraction(z.imag), m) for z, m in zip(lam.tolist(), mult.tolist())]
    xs = [0.0, 1e200, 5e307, -1e308]
    for value, x in zip(poisson_sums(lam, mult, xs), xs):
        weights = [m * abs(y) for _, y, m in pts]
        terms = [float(wt / ((Fraction(x) - re) ** 2 + y * y))
                 for wt, (re, y, _) in zip(weights, pts)]
        slack = float(sum(weights)) / DBL_MAX
        assert abs(value - math.fsum(terms)) <= pairwise_bound(terms) + slack
    # At x = 1e200 only the point at re = 1e200 is nearer than 1e154.
    assert poisson_sums(lam, mult, xs)[1] == 1.0
    upper = lam[lam.imag > 0]
    for value, c in zip(log_rho_sums(lam[lam.imag > 0], mult[lam.imag > 0], upper),
                        upper.tolist()):
        cx, cy = Fraction(c.real), Fraction(c.imag)
        weights, terms = [], []
        for re, y, m in pts:
            q = (cx - re) ** 2 + (cy - y) ** 2
            if y > 0 and q > 0:
                weights.append(2 * m * cy * y)
                terms.append(m * math.log1p(float(4 * cy * y / q)) / 2)
        slack = float(sum(weights)) / DBL_MAX
        assert abs(value - math.fsum(terms)) <= pairwise_bound(terms) + slack


def test_log_rho_terms_keep_their_accuracy_where_heights_overflow():
    # Where |c - lambda|^2 or the numerator 4 Im c Im lambda overflows, the
    # log-rho term is computed from coordinates scaled by a power of 2, so it
    # stays finite and accurate, with no slack for the overflow.  The oracle
    # is math.log1p of the ratio computed exactly in fractions.
    lam = np.array([3 + 5j, 1 + 1e160j, 2 + 2e160j, 1e155j, 1.1e155j, 1e300 + 1e300j,
                    -1e308 + 2e307j])
    mult = np.array([1, 1, 2, 1, 3, 1, 2])
    pts = [(Fraction(z.real), Fraction(z.imag), m) for z, m in zip(lam.tolist(), mult.tolist())]
    for value, c in zip(log_rho_sums(lam, mult, lam), lam.tolist()):
        cx, cy = Fraction(c.real), Fraction(c.imag)
        terms = [m * math.log1p(float(4 * cy * y / q)) / 2
                 for q, y, m in (((cx - re) ** 2 + (cy - y) ** 2, y, m) for re, y, m in pts)
                 if q > 0]
        assert abs(value - math.fsum(terms)) <= pairwise_bound(terms)
    assert log_rho_sums(lam[3:4], mult[3:4], lam[4:5])[0] == pytest.approx(
        math.log1p(4 * 1.1 * 100) / 2, rel=1e-15)
    # The tree's near field sums these terms too (its geometry does not reach
    # the points near DBL_MAX).
    lam, mult = lam[:5], mult[:5]
    with forced_tree():
        ((value, err),) = treecode.log_rho_prefix_enclosures(lam, mult, [lam.size])
    assert np.all(np.abs(value - log_rho_sums(lam, mult, lam)) <= err)


def test_poisson_terms_keep_their_accuracy_where_heights_underflow():
    # Im^2 is below the smallest normal number for heights under 1.5e-154, and
    # 0 under 1.5e-162.  A term whose denominator (x - re)^2 + Im^2 is that
    # small is computed from coordinates scaled by a power of 2, so it stays
    # accurate, with no slack.  The oracle is math.fsum of terms computed
    # exactly in fractions.
    lam = np.array([1e-170j, 2e-170 + 3e-160j, -1e-200j, 5 + 1e-300j, 1 + 2j, 3 - 0.5j])
    mult = np.array([1, 2, 3, 1, 1, 2])
    pts = [(Fraction(z.real), Fraction(z.imag), m) for z, m in zip(lam.tolist(), mult.tolist())]
    xs = [0.0, 1e-170, -3e-165, 2e-170, 5.0, 1.0, 1e-150]
    at = numutil.poisson_sum_at(lam, mult)
    for value, x in zip(poisson_sums(lam, mult, xs), xs):
        terms = [float(m * abs(y) / ((Fraction(x) - re) ** 2 + y * y)) for re, y, m in pts]
        assert abs(value - math.fsum(terms)) <= pairwise_bound(terms)
        assert value == at(x)
    assert poisson_sums(lam[:1], mult[:1], [0.0])[0] == pytest.approx(1e170, rel=1e-15)
    assert ap.balayage_value(ap.Variety([(1e-170j, 1)]), 0.0) == pytest.approx(1e170, rel=1e-15)
    # The tree's near field sums these terms too.
    with forced_tree():
        ((value, err),) = treecode.poisson_prefix_enclosures(lam, mult, xs, [lam.size])
    assert np.all(np.abs(value - poisson_sums(lam, mult, xs)) <= err)


def test_poisson_terms_keep_their_accuracy_where_heights_overflow():
    # Im^2 overflows for heights of 2^512 (1.34e154) or more, so every
    # denominator of such a point is inf; those terms are computed from
    # coordinates scaled by a power of 2.  No x - re below overflows.
    lam = np.array([8e307 + 1e307j, -8e307 + 2e307j, 1 + 1j, 3e200 - 2e160j, 5 + 1e154j])
    mult = np.array([1, 1, 2, 1, 3])
    pts = [(Fraction(z.real), Fraction(z.imag), m) for z, m in zip(lam.tolist(), mult.tolist())]
    xs = [8e307, -8e307, 0.0, 1.0, 3e200, 5.0, 5e307]
    at = numutil.poisson_sum_at(lam, mult)
    for value, x in zip(poisson_sums(lam, mult, xs), xs):
        terms = [float(m * abs(y) / ((Fraction(x) - re) ** 2 + y * y)) for re, y, m in pts]
        assert abs(value - math.fsum(terms)) <= pairwise_bound(terms)
        assert value == at(x)
    exact = Fraction(1e307) / Fraction(1e307) ** 2
    assert poisson_sums(lam[:1], mult[:1], [8e307])[0] == pytest.approx(exact, rel=2 * EPS)
    assert float(exact) == pytest.approx(1e-307, rel=EPS)
    with forced_tree():
        ((value, err),) = treecode.poisson_prefix_enclosures(lam, mult, xs, [lam.size])
    assert np.all(np.abs(value - poisson_sums(lam, mult, xs)) <= err)


def test_condition_b_sweep_equals_per_radius_balayage_sup(log_shift):
    # Exterior points in both half-planes with ties at |z| = 5, inside a
    # random strip.  The first radius holds no exterior point; the second ends
    # at a point whose off-grid real part is the maximizer; the third and
    # fourth hold the same points.
    strip = ap.generate(ap.FamilySpec("strip_random", {
        "count": 1500, "strip_height": 30.0, "half_width": 60.0, "seed": 4}))
    peak = complex(0.5, 0.8)
    ties = [(complex(3, 4), 1), (complex(4, -3), 2), (complex(0, 5), 1),
            (complex(-3, -4), 3)]
    v = ap.Variety(list(zip(strip.lam, strip.mult)) + ties + [(peak, 2)],
                   window_radius=140.0)
    radii = [0.5, abs(peak), 5.0, 5.0 + 1e-9, 12.0, 30.0, 69.0]
    scan = ap.ScanSpec(samples=281)  # integer grid: some abscissae are real parts
    sweep = ap.condition_b_constants(v, log_shift, radii, scan)
    ext = ap.split_regions(v, log_shift).exterior()
    counts = [len(ext.restrict(r)) for r in radii]
    assert counts[0] == 0 and counts[2] == counts[3] and counts[-1] > 64
    assert sweep.witnesses[1] == peak.real
    for r, c, x in zip(radii, sweep.constants, sweep.witnesses):
        sub = ext.restrict(r)
        x_ref, c_ref = ap.balayage_sup(sub, scan)
        assert c == c_ref
        assert x == (x_ref if len(sub) else None)


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
    # Radii through point moduli take the mirror point (-x, y) tied with
    # (x, y); the first radius holds no point.
    abs_lam = np.abs(hv.lam)
    default = ap.default_radii(hv.window_radius)
    radii = [1.0, abs_lam[0], abs_lam[60], *default[4:6], abs_lam[200], *default[6:]]
    assert all(np.sum(abs_lam == r) == 2 for r in radii[1:3])
    rep = ap.blaschke_sum_report(hv, log_shift, radii)
    assert rep.witnesses[0] is None and rep.constants[0] == 0.0
    for r, c, z in zip(rep.radii[1:], rep.constants[1:], rep.witnesses[1:]):
        sub = hv.restrict(r)
        assert c == ap.blaschke_sum(sub, z) / max(log_shift.p(z), 1.0)
        ratios = log_rho_sums(sub.lam, sub.mult, sub.lam) / np.maximum(log_shift.p(sub.lam), 1.0)
        assert c == ratios.max()


def test_balayage_profile_equals_single_abscissa_values(log_shift):
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 8}))
    ext = ap.split_regions(v, log_shift).exterior()
    for samples in (301, 601):  # 601: the odd real parts are grid points too
        scan = ap.ScanSpec(xmin=-300.0, xmax=300.0, samples=samples)
        prof = ap.balayage_profile(ext, scan)
        assert [poisson_sums(ext.lam, ext.mult, [x])[0] for x in prof.xs] == prof.values
        assert (prof.x_star, prof.sup) == ap.balayage_sup(ext, scan)
        assert prof.sup == ap.balayage_value(ext, prof.x_star)


# The tree-code enclosures.  A leaf of 3 points gives deep trees with far
# pairs even on small inputs, and a block budget of one word makes every
# block of the tree code one item (one target group, far pair, (target run,
# leaf) pair or per-target decision), so every input walks several blocks and
# block edges fall inside groups.
TREE = dict(LEAF=3)


@contextlib.contextmanager
def forced_tree(budget=1, **overrides):
    with mock.patch.multiple(treecode, **{**TREE, **overrides}), \
            mock.patch.object(numutil, "_BLOCK_WORDS", budget):
        yield


# Block budgets: one word, and the default.
BUDGETS = (1, numutil._BLOCK_WORDS)


FINE = st.integers(-6, 6).map(lambda k: k / 64)


@st.composite
def tree_points(draw, min_im=None):
    """Quarter-grid points, a tight cluster, a long collinear row, mirror
    images (-x, y) for exact ties, and multiplicities above 1.  With min_im
    every point has Im >= min_im."""
    im = QUARTER if min_im is None else st.integers(4 * min_im, 40).map(lambda k: k / 4)
    pts = draw(st.lists(st.tuples(QUARTER, im, st.integers(1, 3)), min_size=1, max_size=30))
    x0, y0, _ = pts[0]
    pts += [(x0 + a, y0 + abs(b) if min_im else y0 + b, m)
            for a, b, m in draw(st.lists(st.tuples(FINE, FINE, st.integers(1, 4)),
                                         max_size=30))]
    row = draw(st.integers(0, 40))
    y_row = draw(im)
    pts += [(k / 2, y_row, 1) for k in range(-row, row)]
    if draw(st.booleans()):
        pts += [(-x, y, m) for x, y, m in pts]
    return ap.Variety([(complex(x, y), m) for x, y, m in pts])


def prefix_ends(data, v):
    abs_lam = np.abs(v.lam)
    tied = np.searchsorted(abs_lam, abs_lam, side="right").tolist()
    ends = sorted(data.draw(st.lists(st.sampled_from(tied + [0]), min_size=1, max_size=5)))
    return ends + [len(v)]


def assert_enclosed(value, err, direct, fsum_value):
    assert err >= 0
    assert abs(value - direct) <= err
    assert abs(value - fsum_value) <= err


@settings(max_examples=60, deadline=None)
@given(tree_points(), st.data(), st.booleans())
def test_truncated_log_tree_encloses_direct_sum(v, data, include_center):
    # Centers on points (coincident centers repeat one), off points, and
    # radii exactly to another point, so points sit on disk circles.
    k = len(v)
    idx = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=12))
    centers = [complex(v.lam[i]) for i in idx] + [complex(v.lam[idx[0]])]
    centers += data.draw(st.lists(st.builds(complex, QUARTER, QUARTER), max_size=4))
    to = data.draw(st.lists(st.integers(0, k - 1), min_size=len(centers),
                            max_size=len(centers)))
    radii = [abs(c - v.lam[j]) or 0.5 if data.draw(st.booleans()) else data.draw(UPPER) * 2
             for c, j in zip(centers, to)]
    with forced_tree():
        value, err, refine = treecode.truncated_log_enclosures(v.lam, v.mult, centers, radii,
                                                               include_center)
        idx = np.arange(len(centers))[::-1]
        refined = refine(idx)
    direct = truncated_log_sums(v.lam, v.mult, centers, radii, include_center)
    for i, (c, r) in enumerate(zip(centers, radii)):
        terms, _ = direct_truncated_log(v, c, r, include_center)
        assert_enclosed(value[i], err[i], direct[i], math.fsum(terms))
    for j, i in enumerate(idx):
        terms, _ = direct_truncated_log(v, centers[i], radii[i], include_center)
        assert_enclosed(refined[0][j], refined[1][j], direct[i], math.fsum(terms))


def fsum_truncated_log(lam, mult, c, r, include_center):
    """math.fsum of the truncated-log terms at c, with the kernel's
    convention that a radius <= 0 gives 0."""
    if r <= 0:
        return 0.0
    terms = [m * math.log(r) if d == 0 else m * math.log(r / d)
             for d, m in ((abs(z - c), m) for z, m in zip(lam.tolist(), mult.tolist()))
             if (d == 0 and include_center) or 0 < d <= r]
    return math.fsum(terms)


def log_tree_passes(lam, mult, centers, radii, include_center, leaf):
    """First-pass and refined enclosures at every center, each checked
    against the direct kernel and fsum; a refine of a reversed subset too.
    Returns the two bounds."""
    order = np.argsort(np.abs(lam), kind="stable")
    lam, mult = lam[order], mult[order]
    direct = truncated_log_sums(lam, mult, centers, radii, include_center)
    exact = [fsum_truncated_log(lam, mult, c, r, include_center)
             for c, r in zip(centers.tolist(), radii.tolist())]
    sub = np.arange(centers.size)[::3][::-1]
    for budget in BUDGETS:  # the default last: its bounds are returned
        with forced_tree(budget, LEAF=leaf):
            value, err, refine = treecode.truncated_log_enclosures(lam, mult, centers, radii,
                                                                   include_center)
            rvalue, rerr = refine(np.arange(centers.size))
            svalue, serr = refine(sub)
        for i in range(centers.size):
            assert_enclosed(value[i], err[i], direct[i], exact[i])
            assert_enclosed(rvalue[i], rerr[i], direct[i], exact[i])
        for j, i in enumerate(sub):
            assert_enclosed(svalue[j], serr[j], direct[i], direct[i])
    return err, rerr


def lattice_arrays(half, mult_seed=None):
    """Integer lattice points |x|, |y| <= half, with seeded multiplicities."""
    k = np.arange(-half, half + 1)
    lam = (k[:, None] + 1j * k[None, :]).ravel()
    rng = np.random.default_rng(mult_seed)
    mult = np.ones(lam.size, np.int64) if mult_seed is None else rng.integers(1, 4, lam.size)
    return lam, mult


@pytest.mark.parametrize("leaf", [3, treecode.LEAF])
@pytest.mark.parametrize("include_center", [False, True])
def test_log_tree_bounds_points_on_the_circles(leaf, include_center):
    # Radii 5, 13, 25 and 65 about lattice centers: their Pythagorean offsets
    # put lattice points exactly on each circle, so leaves cross it.
    lam, mult = lattice_arrays(30, mult_seed=5)
    centers = np.array([0, 3 + 4j, -7 + 2j, 11 - 9j, 20 + 20j, -25 + 1j] * 4)
    radii = np.repeat([5.0, 13.0, 25.0, 65.0], 6)
    err, rerr = log_tree_passes(lam, mult, centers, radii, include_center, leaf)
    assert np.any(err > 2 * rerr)  # the first pass bounded some crossing leaves


@pytest.mark.parametrize("leaf", [3, treecode.LEAF])
def test_log_tree_bounds_coincident_points_with_the_center_term(leaf):
    # Five copies of some points, left unmerged, give leaves of radius 0;
    # the centers sit on copied points and include their own terms.
    lam, mult = lattice_arrays(12, mult_seed=9)
    lam = np.concatenate([lam] + [lam[::7]] * 4)
    mult = np.concatenate([mult] + [mult[::7]] * 4)
    centers = lam[::11][:40]
    radii = np.resize([0.5, 1.0, 3.0, 7.5, 20.0], centers.size)
    log_tree_passes(lam, mult, centers, radii, True, leaf)


@pytest.mark.parametrize("leaf", [3, treecode.LEAF])
def test_log_tree_bounds_disks_smaller_than_leaves_and_empty_radii(leaf):
    # Radii below the lattice spacing, and so below the radius of any leaf
    # holding more than one point, exactly 1 (four neighbours on the circle),
    # and 0, next to large disks that make the sweep take the tree.
    lam, mult = lattice_arrays(20, mult_seed=2)
    centers = lam[::5]
    radii = np.resize([0.3, 0.0, 1.0, 0.0, 18.0, 1e-9], centers.size)
    for include_center in (False, True):
        log_tree_passes(lam, mult, centers, radii, include_center, leaf)


@pytest.mark.parametrize("leaf", [3, treecode.LEAF])
def test_upward_moments_match_the_power_sums(leaf):
    # Clusters at several scales, copied points and two bands: every cell's
    # moments from the upward pass lie within its rounding bound of the
    # power sums of its own points (fsum of each term, which itself rounds
    # u^k by at most about 8 (p + 1) eps of the mass).
    rng = np.random.default_rng(17)
    z = np.concatenate([rng.normal(size=300) + 1j * rng.normal(size=300),
                        50 + 1e-6 * (rng.normal(size=100) + 1j * rng.normal(size=100)),
                        rng.uniform(-200, 200, 200) + 1j * rng.uniform(0, 5, 200)])
    z = np.concatenate([z, z[:60], z[:60]])
    mult = rng.integers(1, 4, z.size)
    band = np.repeat([0, 1], [400, z.size - 400])
    tree = treecode._Tree(z, band, leaf, mult)
    zs, ms = z[tree.perm], mult[tree.perm].astype(float)
    worst = 0.0
    for c in range(tree.start.size):
        pts = slice(tree.start[c], tree.start[c] + tree.count[c])
        mass = ms[pts].sum()
        u = (zs[pts] - tree.center[c]) / tree.scale[c]
        assert np.all(np.abs(u) <= 1 + 4 * EPS)  # the scale holds every point
        assert np.all(np.abs(zs[pts] - tree.center[c]) <= tree.rho[c] * (1 + 4 * EPS))
        # An inner cell's radius is the reach of its children, a bound that
        # can exceed its points' largest distance.
        ch = slice(tree.first[c], tree.first[c] + tree.nchild[c])
        assert np.all(tree.rho[c] >= tree.rho[ch] + np.abs(tree.center[ch] - tree.center[c]))
        assert tree.moments[0, c] == mass
        for k in range(1, treecode.ORDER + 1):
            terms = ms[pts] * u ** k
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
            miss = abs(tree.moments[k, c] - exact)
            assert miss <= tree.bound[c] + 8 * (treecode.ORDER + 1) * EPS * mass
            if tree.rho[c] == 0:
                assert tree.moments[k, c] == 0 and tree.bound[c] == 0
            worst = max(worst, miss / mass)
        assert tree.bound[c] <= 1e-11 * mass
    assert worst < 1e-14


@settings(max_examples=60, deadline=None)
@given(tree_points(min_im=1), st.data())
def test_log_rho_tree_encloses_direct_sum(v, data):
    hv = ap.HalfPlaneVariety.from_variety(v)
    ends = prefix_ends(data, hv)
    for budget in BUDGETS:
        with forced_tree(budget):
            got = treecode.log_rho_prefix_enclosures(hv.lam, hv.mult, ends)
        for e, (value, err) in zip(ends, got):
            direct = log_rho_sums(hv.lam[:e], hv.mult[:e], hv.lam[:e])
            sub = ap.HalfPlaneVariety.from_arrays(hv.lam[:e], hv.mult[:e], hv.window_radius)
            for i in range(e):
                terms, _ = direct_log_rho(sub, complex(hv.lam[i]))
                assert_enclosed(value[i], err[i], direct[i], math.fsum(terms))


@settings(max_examples=60, deadline=None)
@given(tree_points(), st.data())
def test_poisson_tree_encloses_direct_sum(v, data):
    v = ap.Variety.from_arrays(v.lam[v.lam.imag != 0], v.mult[v.lam.imag != 0])
    if not len(v):
        return
    ends = prefix_ends(data, v)
    xs = np.unique(np.concatenate([v.lam.real, data.draw(st.lists(QUARTER, max_size=6))]))
    for budget in BUDGETS:
        with forced_tree(budget):
            got = treecode.poisson_prefix_enclosures(v.lam, v.mult, xs, ends)
        for e, (value, err) in zip(ends, got):
            direct = poisson_sums(v.lam[:e], v.mult[:e], xs)
            for i, x in enumerate(xs):
                terms = [m * abs(lam.imag) / ((x - lam.real) ** 2 + lam.imag ** 2)
                         for lam, m in zip(v.lam[:e].tolist(), v.mult[:e].tolist())]
                assert_enclosed(value[i], err[i], direct[i], math.fsum(terms))


def test_tree_prunes_dyadic_sweeps_to_the_mirror_pair(log_shift):
    # At the default order and leaf size, each sweep of dyadic 1..12 keeps
    # only the mirror pair (x, y), (-x, y) of its maximum.
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 12}))
    radii = ap.default_radii(v.window_radius)
    ends = np.searchsorted(np.abs(v.lam), radii, side="right")
    p = np.maximum(log_shift.p(v.lam), 1.0)
    for e, (value, err) in zip(ends, treecode.log_rho_prefix_enclosures(v.lam, v.mult, ends)):
        assert 0 < err.max() < 1e-9 * value.max()
        keep = treecode.contenders(value, err, p[:e])
        assert keep.size == 2 and v.lam[keep[0]] == -np.conj(v.lam[keep[1]])
    centers = v.lam[:ends[-1]]
    value, err, refine = treecode.truncated_log_enclosures(v.lam, v.mult, centers,
                                                           log_shift.p(centers))
    value, err = refine(np.arange(centers.size))
    assert 0 < err.max() < 1e-9 * value.max()
    keep = treecode.contenders(value, err, p[:ends[-1]])
    assert keep.size == 2 and v.lam[keep[0]] == -np.conj(v.lam[keep[1]])
    xs = np.unique(v.lam.real)
    ((value, err),) = treecode.poisson_prefix_enclosures(v.lam, v.mult, xs, [len(v)])
    assert 0 < err.max() < 1e-9 * value.max()
    keep = treecode.contenders(value, err)
    assert keep.size == 2 and xs[keep[0]] == -xs[keep[1]]


EMPTY = np.array([0.5 + 1j, -2 + 0.5j, 3 + 2j, 3 + 2.5j]), np.array([1, 2, 1, 3])


@pytest.mark.parametrize("case", [
    "log-rho, ends [0]", "poisson, ends [0]", "poisson, no abscissae",
    "truncated log, no centers", "truncated log, no points", "truncated log, radius 0"])
def test_tree_enclosures_of_empty_inputs(case):
    # An empty input answers before a tree is built (a tree needs a point);
    # radius 0 runs the tree, whose disks then hold no point but the center.
    # Each enclosure (and the refined one) holds the direct kernel's 0s.
    lam, mult = EMPTY
    if case.startswith("log-rho"):
        got = treecode.log_rho_prefix_enclosures(lam, mult, [0])
        want = [log_rho_sums(lam[:0], mult[:0], lam[:0])]
    elif case.startswith("poisson"):
        xs, e = ([], lam.size) if "abscissae" in case else ([0.0, 1.5], 0)
        got = treecode.poisson_prefix_enclosures(lam, mult, xs, [e])
        want = [poisson_sums(lam[:e], mult[:e], xs)]
    else:
        if "points" in case:
            lam, mult = lam[:0], mult[:0]
        centers = EMPTY[0][:0 if "centers" in case else 3]
        radii = np.full(centers.size, 0.0 if "radius" in case else 2.0)
        value, err, refine = treecode.truncated_log_enclosures(lam, mult, centers, radii, True)
        idx = np.arange(centers.size)[::-1]
        got = [(value, err), refine(idx)]
        direct = truncated_log_sums(lam, mult, centers, radii, True)
        want = [direct, direct[idx]]
    assert len(got) == len(want)
    for (value, err), direct in zip(got, want):
        assert value.shape == err.shape == direct.shape and np.all(direct == 0)
        assert np.all(np.abs(value - direct) <= err)


RATIOS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(st.data(), st.booleans())
def test_first_maxima_is_the_first_argmax_over_each_prefix(data, refined):
    # Direct values from a small set, so that direct / scale ties exactly;
    # enclosures that are exact, offset or very wide; and candidate sets that
    # are not prefixes: candidate i belongs to prefix n when tag[i] < n, as a
    # balayage grid point (-1) and real part (its first point) do.  Without
    # refine the direct values change with the prefix, as the Blaschke and
    # balayage sums do, and direct runs once per distinct prefix.  A refine
    # holds for every prefix, so with it they do not, as condition a's do,
    # and direct runs once, on the union of the kept candidates.
    n_pts, n_cands = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 10))

    def row(elements):
        return np.array(data.draw(st.lists(elements, min_size=n_cands, max_size=n_cands)))

    tag = row(st.integers(-1, n_pts - 1))
    tag[0] = min(tag[0], 0)  # every prefix n > 0 owns a candidate
    ends = sorted(data.draw(st.lists(st.integers(0, n_pts), min_size=1, max_size=6)))
    direct = np.array([row(RATIOS) for _ in range(1 if refined else n_pts + 1)])
    if refined:
        direct = np.repeat(direct, n_pts + 1, axis=0)
    scale = row(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    offset = row(st.sampled_from([0.0, 0.25, -0.5]))
    err = np.abs(offset) + row(st.sampled_from([0.0, 0.5, 1e9]))
    sets = [(np.flatnonzero(tag < n), direct[n] + offset, err) for n in ends]
    calls, refines = [], []

    def summed(n, idx):
        calls.append((n, idx))
        return direct[n, idx]

    def refine(idx):
        refines.append(idx)
        return direct[0, idx], np.zeros(idx.size)

    got = treecode.first_maxima(np.array(ends), iter(sets), summed, scale,
                                refine if refined else None)
    owned = [n for n in dict.fromkeys(ends) if n]
    for n, answer in zip(ends, got):
        own = np.flatnonzero(tag < n)
        if not n:
            assert answer is None
            continue
        ratios = direct[n, own] / scale[own]
        j = int(np.argmax(ratios))
        assert answer == (int(own[j]), float(ratios[j]))
    if refined:
        assert len(refines) == len(calls) == (1 if owned else 0)
        assert all(np.isin(idx, np.flatnonzero(tag < owned[-1])).all() for _, idx in calls)
    else:
        assert not refines and [n for n, _ in calls] == owned
        assert all(np.isin(idx, np.flatnonzero(tag < n)).all() for n, idx in calls)
    assert all(np.array_equal(idx, np.unique(idx)) for idx in [i for _, i in calls] + refines)


def direct_first_max(ratios, ends):
    """(constant, index) of the first maximum of each prefix, as np.argmax."""
    out = []
    for e in ends:
        j = int(np.argmax(ratios[:e])) if e else None
        out.append((None, None) if j is None else (float(ratios[j]), j))
    return out


LINE = ap.FamilySpec("horizontal_line", {"height": 1.0, "spacing": 0.5, "extent": 400.0})


def lattice_rows(heights, window=300):
    """integer_lattice lifted to each height: exact mirror ties off the axis."""
    lat = ap.generate(ap.FamilySpec("integer_lattice", {"window": window}))
    return ap.Variety.from_arrays(np.concatenate([lat.lam + 1j * h for h in heights]),
                                  np.ones(lat.lam.size * len(heights), np.int64))


@pytest.mark.parametrize("v", [
    ap.generate(ap.FamilySpec("integer_lattice", {"window": 400})),
    ap.generate(LINE),
], ids=["integer_lattice", "horizontal_line"])
def test_condition_a_tree_sweep_keeps_the_direct_first_maximum(v, log_shift):
    radii = ap.default_radii(v.window_radius)
    with forced_tree(LEAF=treecode.LEAF), mock.patch.object(
            treecode, "_enclose", wraps=treecode._enclose) as tree:
        sweep = ap.condition_a_constants(v, log_shift, radii)
    assert tree.called
    centers = v.lam[np.abs(v.lam) <= radii[-1]]
    p_c = log_shift.p(centers)
    ratios = truncated_log_sums(v.lam, v.mult, centers, p_c) / np.maximum(p_c, 1.0)
    ends = np.searchsorted(np.abs(centers), radii, side="right")
    for c, z, (want, j) in zip(sweep.constants, sweep.witnesses, direct_first_max(ratios, ends)):
        assert c == want and z == complex(centers[j])


@pytest.mark.parametrize("v", [
    ap.HalfPlaneVariety.from_variety(lattice_rows([1.0, 2.0])),
    ap.HalfPlaneVariety.from_variety(ap.generate(LINE)),
], ids=["integer_lattice", "horizontal_line"])
def test_blaschke_tree_sweep_keeps_the_direct_first_maximum(v, log_shift):
    radii = ap.default_radii(v.window_radius)
    with forced_tree(LEAF=treecode.LEAF), mock.patch.object(
            treecode, "_enclose", wraps=treecode._enclose) as tree:
        rep = ap.blaschke_sum_report(v, log_shift, radii)
    assert tree.called
    ends = np.searchsorted(np.abs(v.lam), radii, side="right")
    p = np.maximum(log_shift.p(v.lam), 1.0)
    for k, e in enumerate(ends):
        ratios = log_rho_sums(v.lam[:e], v.mult[:e], v.lam[:e]) / p[:e]
        ((want, j),) = direct_first_max(ratios, [e])
        assert rep.constants[k] == want and rep.witnesses[k] == complex(v.lam[j])


@pytest.mark.parametrize("v", [
    lattice_rows([1.0, -1.0, 2.5]),
    ap.generate(LINE),
], ids=["integer_lattice", "horizontal_line"])
def test_balayage_tree_sweeps_keep_the_direct_first_maximum(v):
    # omega = 0.01 log(1 + t) puts every point off the axis in the exterior.
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(0.01))
    radii = ap.default_radii(v.window_radius)
    scan = ap.ScanSpec(samples=301)  # some grid points are real parts
    with forced_tree(LEAF=treecode.LEAF), mock.patch.object(
            treecode, "_enclose", wraps=treecode._enclose) as tree:
        sweep = ap.condition_b_constants(v, w, radii, scan)
        ext = ap.split_regions(v, w).exterior()
        prof = ap.balayage_profile(ext, ap.ScanSpec(xmin=-50.0, xmax=50.0, samples=201))
    assert tree.call_count > 1
    for r, c, x in zip(radii, sweep.constants, sweep.witnesses):
        sub = ext.restrict(r)
        grid = conditions._scan_grid(scan, v.window_radius)
        cands = np.unique(np.concatenate([sub.lam.real, grid]))
        vals = poisson_sums(sub.lam, sub.mult, cands)
        assert (x, c) == conditions._refine(sub.lam, sub.mult, cands, vals, conditions.REFINE_TOL)
    xs = np.linspace(-50.0, 50.0, 201)
    cands = np.unique(np.concatenate([ext.lam.real, xs]))
    vals = poisson_sums(ext.lam, ext.mult, cands)
    assert prof.values == poisson_sums(ext.lam, ext.mult, xs).tolist()
    assert (prof.x_star, prof.sup) == conditions._refine(ext.lam, ext.mult, cands, vals, 1e-6)


def test_balayage_tree_sweeps_keep_a_tie_between_grid_point_and_real_part():
    # A mirror-symmetric sample whose balayage peaks at -3 and 3 with the
    # same bits.  The grid starts at -3, which is a real part too; 3 is a
    # real part off the grid.  The first radius holds no exterior point.
    pts = [(complex(k, 3.0), 1) for k in range(-8, 9)]
    pts += [(complex(k, -5.0), 2) for k in range(-8, 9, 2)]
    pts += [(complex(-3, 0.5), 3), (complex(3, 0.5), 3)]
    v = ap.Variety(pts)
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(0.01))
    scan = ap.ScanSpec(xmin=-3.0, xmax=25.0, samples=41)
    grid = conditions._scan_grid(scan, v.window_radius)
    assert -3.0 in grid and 3.0 not in grid
    radii = [1.0, 3.1, 5.0, 8.5, 9.0]
    ext = ap.split_regions(v, w).exterior()
    assert len(ext) == len(v) and len(ext.restrict(radii[0])) == 0
    cands = np.unique(np.concatenate([ext.lam.real, grid]))
    vals = poisson_sums(ext.lam, ext.mult, cands)
    assert np.flatnonzero(vals == vals.max()).tolist() == np.searchsorted(cands, [-3, 3]).tolist()
    with forced_tree(), mock.patch.object(treecode, "_enclose", wraps=treecode._enclose) as tree:
        sweep = ap.condition_b_constants(v, w, radii, scan)
        sups = [ap.balayage_sup(ext.restrict(r), scan) for r in radii]
    assert tree.call_count == len(radii)  # no call for the empty radius
    assert sweep.witnesses[0] is None and sweep.constants[0] == 0.0
    for r, c, x, sup in zip(radii[1:], sweep.constants[1:], sweep.witnesses[1:], sups[1:]):
        sub = ext.restrict(r)
        cands = np.unique(np.concatenate([sub.lam.real, grid]))
        vals = poisson_sums(sub.lam, sub.mult, cands)
        want = conditions._refine(sub.lam, sub.mult, cands, vals, conditions.REFINE_TOL)
        assert (x, c) == want and sup == want
    assert sweep.witnesses[-1] < 0  # the first of the tied maxima
    # The profile's grid values enter the selection as exact enclosures; the
    # tie with the off-grid real part 3 goes to the grid point -3.
    with forced_tree():
        prof = ap.balayage_profile(ext, scan)
    cands = np.unique(np.concatenate([ext.lam.real, grid]))
    vals = poisson_sums(ext.lam, ext.mult, cands)
    want = conditions._refine(ext.lam, ext.mult, cands, vals, conditions.REFINE_TOL)
    assert (prof.x_star, prof.sup) == want and prof.x_star < 0


def _weight_layer():
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
    rw = ap.regularize(w, 300.0)
    v = ap.Variety([(complex(k / 2, (k % 5) / 4), 1 + k % 3) for k in range(-60, 61)])
    return {
        "potential_correction": lambda z: ap.potential_correction(rw, z),
        "measure_density": lambda z: ap.measure_density(rw, z),
        "regularized_p": lambda z: ap.regularized_p(rw, z),
        "singular_weight": lambda z: ap.singular_weight(v, w, 0.4, z),
        "penalized_weight": lambda z: ap.penalized_weight(v, w, 0.4, 2.5, z),
        "count_in_disk": lambda z: ap.count_in_disk(v, z, 1.75),
    }


WEIGHT_LAYER = _weight_layer()


@pytest.mark.parametrize("name", sorted(WEIGHT_LAYER))
def test_weight_layer_batch_equals_single_points(name):
    f = WEIGHT_LAYER[name]
    rng = np.random.default_rng(17)
    # points of the variety (singular), quarter-grid points (disk boundaries),
    # the real axis, and random points with windows of many lengths
    z = np.concatenate([[0j, 0.5 + 0.25j, -30 + 0j, 12.25 - 0.5j],
                        rng.integers(-120, 121, 40) / 4 + 1j * rng.integers(-8, 9, 40) / 4,
                        rng.uniform(-200, 200, 56) + 1j * rng.uniform(-30, 30, 56)])
    scalar = int if name == "count_in_disk" else float
    batch = f(z.reshape(4, 25))
    assert batch.shape == (4, 25)
    alone = [f(p) for p in z]
    assert all(type(a) is scalar for a in alone)
    assert batch.ravel().tolist() == alone
    assert f(complex(z[1])) == f(np.array(z[1])) == alone[1]
    assert f(z[::-1]).tolist() == alone[::-1]


def _dense_disk_count(v, z, r):
    """count_in_disk as one full row of distances per z."""
    with np.errstate(over="ignore"):
        return (np.abs(v.lam - z[:, None]) <= r) @ v.mult


def _dense_singular_weight(v, w, eps, z):
    """singular_weight as one full row of distances per z, with log u taken
    from the logs of d and the cap where (d / cap)^2 underflows."""
    cap = eps * w.p(v.lam)
    out = []
    for zk in z:
        with np.errstate(over="ignore"):
            d = np.abs(zk - v.lam)
        inside = (d <= cap) & (cap > 0)
        d, c = d[inside], cap[inside]
        u = (d / c) ** 2
        log_u = np.log(u, out=np.full(u.size, -np.inf), where=u > 0)
        tiny = (u < np.finfo(float).tiny) & (d > 0)
        log_u[tiny] = 2.0 * (np.log(d[tiny]) - np.log(c[tiny]))
        out.append(numutil.row_sums(v.mult[inside] * (log_u + 1.0 - u), np.array([u.size]))[0])
    return np.array(out)


@pytest.mark.parametrize("name", ["count_in_disk", "singular_weight"])
def test_disk_windows_give_the_dense_rows_bits(name):
    # Targets in random order: points of the variety (one of them, 0, has the
    # cap 0 p(0) = 0), nan, inf, huge moduli and random points; the window
    # holds every in-disk point and each row keeps its terms in canonical
    # order, so every value is the full row's, alone or in any batch.
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
    v = ap.Variety([(complex(k / 2, (k % 5) / 4), 1 + k % 3) for k in range(-60, 61)])
    rng = np.random.default_rng(29)
    z = np.concatenate([v.lam[::7], [0j, complex("nan"), complex("nan+1j"), complex("inf"),
                                     complex(-DBL_MAX, DBL_MAX), 1e300 + 1j, 1e-300j],
                        rng.uniform(-40, 40, 80) + 1j * rng.uniform(-3, 3, 80)])
    z = rng.permutation(z)
    if name == "count_in_disk":
        f, dense = (lambda z: ap.count_in_disk(v, z, 1.75)), _dense_disk_count(v, z, 1.75)
    else:
        f, dense = (lambda z: ap.singular_weight(v, w, 0.4, z)), _dense_singular_weight(v, w, 0.4, z)
    batch = f(z)
    assert batch.tobytes() == dense.tobytes()
    assert batch.tolist() == [f(p) for p in z]
    assert np.any(batch != 0) and np.any(batch[np.isnan(z)] == 0)
    if name == "count_in_disk":  # an infinite radius holds every point, even around inf
        z = np.array([complex("inf"), complex("nan"), 0j, 1e300 + 1j])
        assert ap.count_in_disk(v, z, np.inf).tolist() == _dense_disk_count(v, z, np.inf).tolist()


def test_disk_windows_scan_a_tenth_of_the_pairs(log_shift):
    # 2000 targets within 0.5 of points, in random order.  count_in_disk of
    # radius 1.75 on dyadic 1..12 and singular_weight (eps 0.1) on the strip
    # scan at most a tenth of the (target, point) pairs.  On the dyadic angle
    # the singular disks eps p(lambda) reach 0.1 Im lambda, up to 410 across
    # the outer row, so there its windows hold about a fifth of the points.
    from apinterp import extension, variety
    for spec, module, call in [
            (("dyadic_angle", {"n_min": 1, "n_max": 12}), variety,
             lambda v, z: ap.count_in_disk(v, z, 1.75)),
            (("strip_random", {"count": 6000, "seed": 1}), extension,
             lambda v, z: ap.singular_weight(v, log_shift, 0.1, z))]:
        v = ap.generate(ap.FamilySpec(*spec))
        rng = np.random.default_rng(2)
        z = v.lam[rng.integers(0, len(v), 2000)] + 0.5 * (
            rng.uniform(-1, 1, 2000) + 1j * rng.uniform(-1, 1, 2000))
        work = []

        def counted(lam, targets, reach):
            for rows, a, b, d in numutil.disk_windows(lam, targets, reach):
                work.append(rows.size * (b - a))
                yield rows, a, b, d

        with mock.patch.object(module, "disk_windows", counted):
            call(v, z)
        assert 0 < sum(work) <= z.size * len(v) / 10, (spec, sum(work) / (z.size * len(v)))


def _dense_kernel_values():
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
    dyadic = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 8}))
    lam = dyadic.lam
    mult = 1 + np.arange(lam.size) % 3
    rng = np.random.default_rng(23)
    off = rng.uniform(-300, 300, 40) + 1j * rng.uniform(0, 300, 40)
    # centers on and off the points, with their p radii, random radii and 0
    centers = np.concatenate([lam, off, [0j]])
    radii = np.concatenate([w.p(lam), rng.uniform(0, 100, 40), [0.0]])
    z = np.concatenate([rng.integers(-120, 121, 40) / 4 + 1j * rng.integers(-8, 9, 40) / 4,
                        rng.uniform(-200, 200, 60) + 1j * rng.uniform(-30, 30, 60)])
    return {
        "truncated_log_sums": truncated_log_sums(lam, mult, centers, radii),
        "truncated_log_sums with centers": truncated_log_sums(lam, mult, centers, radii, True),
        "log_rho_sums": log_rho_sums(lam, mult, np.concatenate([lam, off])),
        "poisson_sums": poisson_sums(lam, mult, np.linspace(-300, 300, 601)),
        **{name: WEIGHT_LAYER[name](z)
           for name in ("count_in_disk", "singular_weight", "potential_correction")},
    }


@pytest.mark.parametrize("budget", [1, 1 << 12])
def test_dense_kernels_keep_their_bits_in_any_block(budget):
    # A budget of one word puts every row in a block of its own; 2^12 words
    # gives blocks of many rows and of many sizes.
    with mock.patch.object(numutil, "_BLOCK_WORDS", budget):
        small = _dense_kernel_values()
    for name, default in _dense_kernel_values().items():
        assert small[name].tobytes() == default.tobytes(), name


def _sweep_values(v, w):
    """Constants and witnesses of every sweep of check, and the profile's rows."""
    radii = ap.default_radii(v.window_radius)
    sweeps = [ap.condition_a_constants(v, w, radii), ap.condition_b_constants(v, w, radii)]
    for conj in (False, True):
        hv = ap.HalfPlaneVariety.from_variety(v, conjugate_lower=conj)
        if len(hv):
            sweeps.append(ap.blaschke_sum_report(hv, w, radii))
    prof = ap.balayage_profile(ap.split_regions(v, w).exterior(), ap.ScanSpec(samples=1024))
    return [(s.constants, s.witnesses) for s in sweeps] + [list(prof.rows())]


@pytest.mark.parametrize("budget", [1, 1 << 12])
@pytest.mark.parametrize("spec", [("dyadic_angle", {"n_min": 1, "n_max": 10}),
                                  ("strip_random", {"count": 1500, "seed": 1})],
                         ids=["dyadic_angle_10", "strip_random_1500"])
def test_sweeps_keep_their_bits_at_any_budget(budget, spec, log_shift):
    # The tree code reads the budget when it runs: at one word every block of
    # its traversal, far field, near field and per-target decisions is one
    # item, and at 2^12 words blocks end inside the default ones.  Enclosures
    # may move in their last bits, but every reported bit is a direct sum's.
    v = ap.generate(ap.FamilySpec(*spec))
    with mock.patch.object(numutil, "_BLOCK_WORDS", budget):
        small = _sweep_values(v, log_shift)
    assert small == _sweep_values(v, log_shift)


@pytest.mark.parametrize("budget", [1, 1 << 12, 1 << 17])
def test_ragged_blocks_grow_while_they_fit_the_budget(budget):
    # Consecutive blocks cover the items in order; a block keeps at most the
    # budget's words, or holds one item, and the next item would not fit.
    # Items of no words, and items above the budget, included.
    rng = np.random.default_rng(3)
    words = np.concatenate([rng.integers(0, 64, 3000), [0, 0, 1 << 18, 0, 5, 1 << 16],
                            rng.integers(0, 1 << 13, 300), [0, 0]])
    with mock.patch.object(numutil, "_BLOCK_WORDS", budget):
        blocks = list(numutil.blocks(words))
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks][:-1]
    assert blocks[-1].stop == words.size
    for b in blocks:
        assert words[b].sum() <= budget or b.stop - b.start == 1
        assert b.stop == words.size or words[b.start:b.stop + 1].sum() > budget
    assert list(numutil.blocks(words[:0])) == []


@pytest.mark.parametrize("budget", [1, 1 << 12, 1 << 17])
def test_annulus_blocks_grow_while_they_fit_the_budget(budget, log_shift):
    # Consecutive blocks cover the centers in increasing modulus, each
    # scanning the span of its own centers' annuli, with their distances; a
    # block keeps at most the budget's words, or holds one center, and the
    # next center would not fit.
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 10}))
    rng = np.random.default_rng(5)
    centers = np.concatenate([v.lam, rng.permutation(v.lam), [0j, 1e3 + 0j]])
    radii = np.concatenate([log_shift.p(v.lam), rng.uniform(0, 300, v.lam.size), [0.0, 5.0]])
    order = np.argsort(np.abs(centers), kind="stable")
    a, b = np.array([next(numutil.disk_windows(v.lam, centers[i:i + 1], radii[i:i + 1]))[1:3]
                     for i in order]).T

    def words(lo, hi):  # of the centers order[lo:hi]
        return numutil._TERM_WORDS * (b[lo:hi].max() - a[lo:hi].min()) * (hi - lo)

    blocks = []
    with mock.patch.object(numutil, "_BLOCK_WORDS", budget):
        for rows, lo, hi, d in numutil.disk_windows(v.lam, centers, radii):
            assert d.tobytes() == np.abs(v.lam[lo:hi] - centers[rows, None]).tobytes()
            blocks.append((rows, lo, hi))
    assert np.concatenate([rows for rows, _, _ in blocks]).tolist() == order.tolist()
    stop = 0
    for rows, lo, hi in blocks:
        start, stop = stop, stop + rows.size
        assert (lo, hi) == (a[start:stop].min(), b[start:stop].max())
        assert words(start, stop) <= budget or stop - start == 1
        assert stop == centers.size or words(start, stop + 1) > budget
    assert list(numutil.disk_windows(v.lam, centers[:0], radii[:0])) == []


def test_truncated_log_blocks_are_bounded_by_the_budget(log_shift):
    # A block grows while its words (_TERM_WORDS a term) fit the budget: the 10
    # outermost centers of these 65 534 points each reach 49 152 of them, more
    # than _BLOCK_WORDS / _TERM_WORDS = 32 768, so a block holds one center.  A
    # term keeps at most about 50 B of temporaries at once (its complex
    # difference, distance and in-disk masks; in a disk, its multiplicity, log
    # radius, log distance and value; and the previous block's distances and
    # terms until they are rebound), and the moduli take 8 B a point: 3.7 MB.
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 15}))
    centers = v.lam[-10:]
    radii = log_shift.p(centers)
    tracemalloc.start()
    try:
        truncated_log_sums(v.lam, v.mult, centers, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = max(numutil._BLOCK_WORDS // numutil._TERM_WORDS, 49_152)
    assert peak < 64 * terms + 8 * len(v), peak / 1e6

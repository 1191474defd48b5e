import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import apinterp as ap
from apinterp.errors import DomainError, InputError
from apinterp.numutil import close_pair_arrays
from apinterp.variety import P_MIN

from conftest import integrated_count_oracle, point_lists


def integers_variety(window=100):
    return ap.generate(ap.FamilySpec("integer_lattice", {"window": window}))


def test_count_in_disk_basic():
    empty = ap.Variety([])
    assert ap.count_in_disk(empty, 1 + 1j, 5.0) == 0
    v = ap.Variety([(1j, 2), (5 + 0j, 1)])
    assert ap.count_in_disk(v, 0j, 2.0) == 2
    assert ap.count_in_disk(integers_variety(), 0j, 10.5) == 21


def test_count_in_disk_closed_boundary():
    v = ap.Variety([(3 + 0j, 4)])
    assert ap.count_in_disk(v, 0j, 3.0) == 4


def test_integrated_count_basic():
    v = ap.Variety([(10 + 10j, 1)])
    assert ap.integrated_count(v, 0j, 1.0) == 0.0
    v2 = ap.Variety([(1 / math.e + 0j, 2)])
    assert ap.integrated_count(v2, 0j, 1.0) == pytest.approx(2.0, abs=1e-12)
    # a point exactly on the boundary contributes zero
    v3 = ap.Variety([(2 + 0j, 5)])
    assert ap.integrated_count(v3, 0j, 2.0) == 0.0


def test_integrated_count_negative_with_center_and_small_radius():
    v = ap.Variety([(0j, 1)])
    assert ap.integrated_count(v, 0j, 0.5) == pytest.approx(math.log(0.5))
    assert ap.integrated_count(v, 0j, 0.5) < 0


def test_integrated_count_lattice_value():
    # distances 1..9 on both sides plus the center term at r = log(1 + 1e4)
    v = integers_variety(window=10100)
    z, r = complex(10_000, 0), math.log(1 + 10_000)
    expected_excl = 2 * (9 * math.log(r) - math.log(math.factorial(9)))
    expected = expected_excl + math.log(r)
    got = ap.integrated_count(v, z, r)
    assert got == pytest.approx(expected, rel=1e-12)
    oracle = integrated_count_oracle(v, z, r, steps=50000)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_oracle_one_point_tight():
    v = ap.Variety([(1 / math.e + 0j, 2)])
    a = ap.integrated_count(v, 0j, 1.0)
    b = integrated_count_oracle(v, 0j, 1.0, steps=100_000)
    assert abs(a - b) < 1e-9


def test_oracle_requires_step_budget():
    v = ap.Variety([(1 + 0j, 1)])
    with pytest.raises(DomainError):
        integrated_count_oracle(v, 0j, 2.0, steps=10)


@settings(max_examples=40, deadline=None)
@given(point_lists(min_size=1, max_size=20, max_abs=10.0), st.floats(0.5, 8.0))
def test_oracle_matches_closed_form(pts, r):
    v = ap.Variety(pts)
    z = 0.25 + 0.125j
    if np.any(np.abs(v.lam - z) < 1e-3):
        return
    a = ap.integrated_count(v, z, r)
    b = integrated_count_oracle(v, z, r, steps=20000)
    assert b == pytest.approx(a, rel=1e-6, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(point_lists(min_size=1, max_size=15, max_abs=20.0))
def test_integrated_count_monotone_in_radius(pts):
    v = ap.Variety(pts)
    z = 0.7 - 0.3j
    rs = [1.0, 1.5, 2.5, 4.0, 8.0]
    vals = [ap.integrated_count(v, z, r) for r in rs]
    for r1, r2, n1, n2 in zip(rs, rs[1:], vals, vals[1:]):
        assert n2 >= n1 - 1e-12
        if ap.count_in_disk(v, z, r1) > 0:
            assert n2 > n1


@settings(max_examples=40, deadline=None)
@given(point_lists(min_size=1, max_size=15), st.floats(0.5, 10.0))
def test_counting_conjugation_invariance(pts, r):
    v = ap.Variety(pts)
    z = 1.5 + 2.25j
    assert ap.count_in_disk(v, z, r) == ap.count_in_disk(v.conjugate(), z.conjugate(), r)


def test_duplicate_merge_preserves_counts():
    raw = [(1 + 1j, 1), (1 + 1j, 2), (3 - 1j, 1)]
    merged = ap.Variety(raw)
    assert len(merged) == 2 and merged.total_mult == 4
    direct = ap.Variety([(1 + 1j, 3), (3 - 1j, 1)])
    for z, r in [(0j, 2.0), (1 + 1j, 0.5), (2 + 0j, 3.0)]:
        assert ap.count_in_disk(merged, z, r) == ap.count_in_disk(direct, z, r)
        assert ap.integrated_count(merged, z, r) == pytest.approx(
            ap.integrated_count(direct, z, r), abs=1e-12)


def test_canonical_order_is_deterministic():
    pts = [(3 + 0j, 1), (-1 + 1j, 2), (1j, 1), (0.5 + 0.1j, 1)]
    a = ap.Variety(pts)
    b = ap.Variety(list(reversed(pts)))
    assert np.array_equal(a.lam, b.lam) and np.array_equal(a.mult, b.mult)


def loop_variety(points):
    """The merge and sort Variety used before it moved to numpy: a dict in
    first-occurrence order, then a stable (|lambda|, arg lambda) sort."""
    acc, merged = {}, 0
    for lam, m in points:
        lam = complex(lam)
        if lam in acc:
            merged += 1
        acc[lam] = acc.get(lam, 0) + int(m)
    lam = np.array(list(acc.keys()), dtype=complex)
    mult = np.array(list(acc.values()), dtype=np.int64)
    if lam.size:
        order = np.lexsort((np.angle(lam), np.abs(lam)))
        lam, mult = lam[order], mult[order]
    return lam, mult, merged


# Coordinates with signed zeros, repeats and many ties in modulus and angle
# (3 + 4i, 5, -5i ... share a modulus; k (1 + i) share an angle).
SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, -4.0, 5.0, 0.5, -2.5])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.builds(complex, SIGNED, SIGNED), st.integers(1, 4)),
                max_size=40))
def test_variety_merge_and_order_match_the_loop(points):
    lam, mult, merged = loop_variety(points)
    for v in (ap.Variety(points), ap.Variety([ap.WeightedPoint(z, m) for z, m in points]),
              ap.Variety.from_arrays([z for z, _ in points], [m for _, m in points])):
        assert v.lam.tobytes() == lam.tobytes()  # the first occurrence's zeros too
        assert v.mult.tolist() == mult.tolist()
        assert v.merged_count == merged


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_coordinate_is_rejected(bad):
    for z in (complex(bad, 1.0), complex(1.0, bad)):
        with pytest.raises(DomainError, match="non-finite"):
            ap.Variety([(1 + 1j, 1), (z, 1)])
        with pytest.raises(DomainError, match="non-finite"):
            ap.Variety.from_arrays([z], [1], window_radius=8.0)
    with pytest.raises(DomainError, match="window_radius"):
        ap.Variety([(1 + 1j, 1)], window_radius=math.inf)


@pytest.mark.parametrize("mult", [2 ** 53 + 1, 2 ** 62, 10 ** 23, 1e30])
def test_multiplicity_above_2_53_is_rejected(mult):
    # Checked before any int64 conversion: 10^23 does not fit, and 1e30
    # would be cast to a wrong integer.
    for build in (lambda: ap.Variety([(1 + 1j, 1), (2j, mult)]),
                  lambda: ap.Variety.from_arrays([1 + 1j, 2j], [1, mult])):
        with pytest.raises(DomainError, match=r"^multiplicity \S+ is above 2\^53$"):
            build()


def test_total_multiplicity_above_2_53_is_rejected():
    # Each 2^62 is rejected alone, before their merge could wrap in int64.
    # Totals reach 2^53 exactly and no further, merged or not.
    with pytest.raises(DomainError, match="multiplicity 4611686018427387904 is above"):
        ap.Variety([(1 + 1j, 2 ** 62), (1 + 1j, 2 ** 62)])
    half = 2 ** 52
    assert ap.Variety([(1 + 1j, half), (1 + 1j, half)]).mult.tolist() == [2 ** 53]
    assert ap.Variety([(1 + 1j, half), (2j, half)]).total_mult == 2 ** 53
    for points in ([(1 + 1j, half), (1 + 1j, half), (2j, 1)],
                   [(1 + 1j, half), (2j, half), (3j, 1)]):
        with pytest.raises(DomainError, match="total multiplicity 9007199254740993 is above"):
            ap.Variety(points)
    # the exact total, not its float sum 2^53 + 4
    with pytest.raises(DomainError, match="total multiplicity 9007199254740995 is above"):
        ap.Variety([(1 + 1j, 2 ** 53), (2j, 3)])
    # 4 (2^62 + 1) is 4 modulo 2^64
    with pytest.raises(DomainError, match="multiplicity 18446744073709551620 is above"):
        ap.Variety([(1 + 1j, 4)]).scale_mult(2 ** 62 + 1)
    assert ap.Variety([(1 + 1j, 2)]).scale_mult(half).mult.tolist() == [2 ** 53]


def test_separation_profile_far_pair(log_shift):
    v = ap.Variety([(0j, 1), (2 + 0j, 1)])
    prof = ap.separation_profile(v, log_shift)
    assert prof.worst_constant == 0.0 and prof.worst_pair is None


def test_separation_profile_close_pair_value(log_shift):
    v = ap.Variety([(10j, 1), (0.1 + 10j, 1)])
    prof = ap.separation_profile(v, log_shift)
    p = 10 + math.log(11)
    assert prof.worst_constant == pytest.approx(math.log(10) / p, rel=1e-3)
    assert prof.worst_constant == pytest.approx(0.1857, abs=2e-3)


def test_separation_profile_collapse_grows(log_shift):
    def worst(depth):
        v = ap.generate(ap.FamilySpec("geometric_ray", {"ratio": 0.5, "count": depth}))
        return ap.separation_profile(v, log_shift).worst_constant

    values = [worst(d) for d in (6, 12, 18)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 2 * values[0]


def test_separation_needs_two_points(log_shift):
    with pytest.raises(DomainError):
        ap.separation_profile(ap.Variety([(1j, 1)]), log_shift)


QUARTER = st.integers(-40, 40).map(lambda k: k / 4)


@st.composite
def pair_configs(draw):
    """Arbitrary points, a pair at distance exactly cutoff and one at
    nextafter(cutoff, 0) (both along the real axis, so the differences are
    exact), points within a few ulp of the cutoff circle in other directions,
    points exactly on the lines y = k * cutoff, duplicates and configurations
    with fewer than two points; then, optionally, everything on one vertical
    or horizontal line, an exact power-of-two rescaling of the points and the
    cutoff, and a large common translation."""
    cutoff = draw(st.integers(1, 12)) / 4
    pts = [complex(x, y) for x, y in draw(st.lists(st.tuples(QUARTER, QUARTER), max_size=25))]
    pts += draw(st.lists(st.builds(complex, st.floats(-10, 10), st.floats(-10, 10)),
                         max_size=10))
    if pts and draw(st.booleans()):
        base = pts[0]
        pts += [base + cutoff * complex(math.cos(t), math.sin(t))
                for t in draw(st.lists(st.floats(0, 2 * math.pi), max_size=6))]
        pts.append(base)
    if draw(st.booleans()):
        x, y = draw(QUARTER), draw(QUARTER)
        pts += [complex(x, y), complex(x + cutoff, y)]
        pts += [complex(0, y + 50), complex(np.nextafter(cutoff, 0), y + 50)]
    pts += [complex(x, k * cutoff) for x, k in
            draw(st.lists(st.tuples(QUARTER, st.integers(-4, 4)), max_size=8))]
    line, at = draw(st.sampled_from([None, "vertical", "horizontal"])), draw(QUARTER)
    if line == "vertical":
        pts = [complex(at, z.imag) for z in pts]
    elif line == "horizontal":
        pts = [complex(z.real, at) for z in pts]
    scale = 2.0 ** draw(st.integers(-40, 40))
    shift = draw(st.sampled_from([0j, 1e6 - 3e6j, -2.5e9 + 7e11j, 2.0 ** 52 + 1e15j]))
    pts = [complex(z.real * scale + shift.real, z.imag * scale + shift.imag)
           for z in pts]
    order = draw(st.permutations(range(len(pts))))
    return np.array([pts[k] for k in order], dtype=complex), cutoff * scale


def brute_force_pairs(lam, cutoff):
    i, j = np.triu_indices(lam.size, k=1)  # canonical (i, j) order
    d = np.hypot(lam.real[i] - lam.real[j], lam.imag[i] - lam.imag[j])
    keep = d < cutoff
    return i[keep], j[keep], d[keep]


@settings(max_examples=400, deadline=None)
@given(pair_configs())
def test_close_pair_arrays_match_all_pairs(cfg):
    lam, cutoff = cfg
    got = close_pair_arrays(lam, cutoff)
    want = brute_force_pairs(lam, cutoff)
    for a, b in zip(got, want):
        assert a.tobytes() == b.astype(a.dtype).tobytes()
    # d is the scalar abs of the complex difference, bit for bit
    assert got[2].tolist() == [abs(lam[i] - lam[j]) for i, j in zip(got[0], got[1])]


def kd_tree_pairs(lam, cutoff):
    """A k-d tree oracle: query_pairs within the cutoff widened by 8 eps, in
    canonical order, then the same np.hypot distance and strict cutoff."""
    ij = cKDTree(np.column_stack([lam.real, lam.imag])).query_pairs(
        cutoff * (1 + 8 * np.finfo(float).eps), output_type="ndarray")
    i, j = ij[np.lexsort((ij[:, 1], ij[:, 0]))].T
    d = np.hypot(lam.real[i] - lam.real[j], lam.imag[i] - lam.imag[j])
    keep = d < cutoff
    return i[keep], j[keep], d[keep]


@pytest.mark.parametrize("family, params, cutoffs", [
    ("strip_random", {"count": 6000, "seed": 0, "half_width": 100.0}, (1.0, 2.5)),
    ("dyadic_angle", {"n_min": 1, "n_max": 14}, (1.0, 4.0, 16.0)),
])
def test_close_pair_arrays_match_kd_tree(family, params, cutoffs):
    lam = ap.generate(ap.FamilySpec(family, params)).lam
    found = 0
    for cutoff in cutoffs:
        got, want = close_pair_arrays(lam, cutoff), kd_tree_pairs(lam, cutoff)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        found += want[0].size
    assert found > 0


def test_close_pair_arrays_cutoff_is_strict():
    c = 0.75
    lam = np.array([0, c, 10j, np.nextafter(c, 0) + 10j])
    i, j, d = close_pair_arrays(lam, c)
    assert (i.tolist(), j.tolist(), d.tolist()) == ([2], [3], [np.nextafter(c, 0)])
    assert [a.size for a in close_pair_arrays(lam[:1], c)] == [0, 0, 0]
    # an infinite cutoff (an infinite SeparationRadii delta) keeps every pair
    for a, b in zip(close_pair_arrays(lam, math.inf), brute_force_pairs(lam, math.inf)):
        assert a.tobytes() == b.tobytes()


def test_separation_witness_is_first_in_canonical_order(log_shift):
    # Every neighbour pair of the line ties; the first pair in (i, j) order
    # of the canonical point order is (1j, 0.5 + 1j), oriented as (i, j)
    # because the two candidates are equal.
    v = ap.generate(ap.FamilySpec("horizontal_line", {"spacing": 0.5, "extent": 20}))
    assert v.lam[0] == 1j and v.lam[1] == 0.5 + 1j
    prof = ap.separation_profile(v, log_shift)
    assert prof.worst_pair == (1j, 0.5 + 1j)
    assert prof.pairs_examined == 80
    assert prof.worst_constant == math.log(2) / log_shift.p(1j)


def test_local_density_lattice(log_shift):
    v = integers_variety(window=1100)
    p = math.log(1 + 1000)
    got = ap.local_density_constant(v, log_shift, 0.5, [complex(1000, 0)])
    expected = (2 * math.floor(0.5 * p) + 1) / p
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.01, abs=0.01)


def test_local_density_empty_and_bounds(log_shift):
    assert ap.local_density_constant(ap.Variety([]), log_shift, 0.5, [0j]) == 0.0
    with pytest.raises(DomainError):
        ap.local_density_constant(integers_variety(), log_shift, 0.75, [0j])


def loop_local_density(v, w, eps, samples):
    """local_density_constant as the per-sample loop it replaced."""
    if not 0.0 < eps <= 0.5:
        raise DomainError("eps must lie in (0, 1/2]")
    if not len(v):
        return 0.0
    worst = 0.0
    for z in samples:
        z = complex(z)
        pz = w.p(z)
        if pz <= 0:
            continue
        n = ap.count_in_disk(v, z, eps * pz)
        worst = max(worst, n / max(pz, P_MIN))
    return worst


QUARTER_POINT = st.builds(complex, st.integers(-24, 24).map(lambda k: k / 4),
                          st.integers(-8, 8).map(lambda k: k / 4))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(QUARTER_POINT, st.integers(1, 3)), max_size=15),
       st.lists(QUARTER_POINT, max_size=10), st.sampled_from([0.1, 0.5, 0.75]))
def test_local_density_matches_the_loop(log_shift, pts, samples, eps):
    # samples at 0 have p = 0 under log_shift and are skipped
    v = ap.Variety(pts)
    try:
        want = loop_local_density(v, log_shift, eps, samples)
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            ap.local_density_constant(v, log_shift, eps, samples)
        return
    got = ap.local_density_constant(v, log_shift, eps, samples)
    assert got == want and type(got) is float


def test_local_density_dyadic_bounded(log_shift):
    worst = []
    for n_max in (6, 9, 12):
        v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": n_max}))
        samples = [complex(0, 2 ** n) for n in range(2, n_max + 1)]
        worst.append(ap.local_density_constant(v, log_shift, 0.5, samples))
    assert max(worst) < 4.0
    assert max(worst) / min(worst) < 1.5


def test_json_round_trip(tmp_path):
    v = ap.Variety([(1 + 2j, 2), (-3 + 0j, 1)], window_radius=10.0)
    path = tmp_path / "v.json"
    ap.save_variety(v, path)
    loaded = ap.load_variety(path)
    assert np.array_equal(loaded.lam, v.lam)
    assert np.array_equal(loaded.mult, v.mult)
    assert loaded.window_radius == v.window_radius


def test_csv_round_trip_and_header(tmp_path):
    v = ap.Variety([(0.5 - 1j, 3), (2 + 2j, 1)])
    path = tmp_path / "v.csv"
    ap.save_variety(v, path)
    loaded = ap.load_variety(path)
    assert np.array_equal(loaded.lam, v.lam)
    assert np.array_equal(loaded.mult, v.mult)
    headerless = tmp_path / "plain.csv"
    headerless.write_text("1.0,2.0,2\n3.0,4.0\n")
    v2 = ap.load_variety(headerless)
    assert v2.total_mult == 3


def test_csv_duplicate_warns(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("re,im,mult\n1.0,0.0,1\n1.0,0.0,2\n")
    with pytest.warns(UserWarning):
        v = ap.load_variety(path)
    assert len(v) == 1 and v.total_mult == 3


def test_csv_malformed_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("re,im,mult\n1.0,oops,1\n")
    with pytest.raises(InputError, match="2"):
        ap.load_variety(path)


@pytest.mark.parametrize("mult, message", [
    ([1.0, math.nan], "must be a positive integer"),  # fails both bounds, never cast
    ([1.0, math.inf], "multiplicity inf is above 2^53"),
    (np.array(["3", "1"]), "multiplicity ['3'] is not a number"),
])
def test_multiplicity_that_is_not_a_number_is_rejected(mult, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(message)):
            ap.Variety.from_arrays([1 + 1j, 2j], mult)


@pytest.mark.parametrize("mult, message", [
    (2.5, "multiplicity 2.5 is not an integer"),
    (True, "multiplicity [True] is not a number"),
    ("3", "multiplicity ['3'] is not a number"),
])
def test_multiplicity_must_be_an_integral_number(mult, message, tmp_path):
    # One rule for a JSON record, a point list and an array: nothing is
    # truncated or read as a number first.
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"points": [{"re": 1.0, "im": 1.0, "mult": mult}]}))
    for build in (lambda: ap.load_variety(path),
                  lambda: ap.Variety([(1 + 1j, mult)]),
                  lambda: ap.Variety.from_arrays([1 + 1j], [mult])):
        with pytest.raises(DomainError, match=re.escape(message)):
            build()


def test_integral_multiplicity_is_accepted(tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"points": [{"re": 1.0, "im": 1.0, "mult": 2.0}]}')
    for v in (ap.load_variety(path), ap.Variety([(1 + 1j, 2.0)]),
              ap.Variety.from_arrays([1 + 1j], [2.0])):
        assert v.mult.dtype == np.int64 and v.mult.tolist() == [2]
    path.write_text('{"points": [{"re": 1.0, "im": 1.0, "mult": null}]}')
    with pytest.raises(InputError, match="malformed variety record"):
        ap.load_variety(path)

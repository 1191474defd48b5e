import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apinterp as ap
from apinterp.errors import DomainError, InputError
from apinterp.numutil import close_pair_arrays

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
    duplicates and configurations with fewer than two points."""
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
    order = draw(st.permutations(range(len(pts))))
    return np.array([pts[k] for k in order], dtype=complex), cutoff


def brute_force_pairs(lam, cutoff):
    i, j = np.triu_indices(lam.size, k=1)  # canonical (i, j) order
    d = np.hypot(lam.real[i] - lam.real[j], lam.imag[i] - lam.imag[j])
    keep = d < cutoff
    return i[keep], j[keep], d[keep]


@settings(max_examples=200, deadline=None)
@given(pair_configs())
def test_close_pair_arrays_match_all_pairs(cfg):
    lam, cutoff = cfg
    got = close_pair_arrays(lam, cutoff)
    want = brute_force_pairs(lam, cutoff)
    for a, b in zip(got, want):
        assert a.tobytes() == b.astype(a.dtype).tobytes()
    # d is the scalar abs of the complex difference, bit for bit
    assert got[2].tolist() == [abs(lam[i] - lam[j]) for i, j in zip(got[0], got[1])]


def test_close_pair_arrays_cutoff_is_strict():
    c = 0.75
    lam = np.array([0, c, 10j, np.nextafter(c, 0) + 10j])
    i, j, d = close_pair_arrays(lam, c)
    assert (i.tolist(), j.tolist(), d.tolist()) == ([2], [3], [np.nextafter(c, 0)])
    assert [a.size for a in close_pair_arrays(lam[:1], c)] == [0, 0, 0]


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

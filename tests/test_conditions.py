import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apinterp as ap
from apinterp.errors import DomainError, InvariantViolation, NumericError

from conftest import point_lists


def test_split_regions_membership(log_shift):
    v = ap.Variety([(5 + 0j, 1), (5 + 10j, 1), (complex(3, -2 * math.log(1 + 3)), 1)])
    split = ap.split_regions(v, log_shift)
    assert [complex(z) for z in split.strip.lam] == [5 + 0j]
    assert [complex(z) for z in split.upper.lam] == [5 + 10j]
    assert len(split.lower) == 1


def test_split_boundary_tie_goes_to_strip(log_shift):
    # put a point exactly on Im z = omega(|z|) by fixed-point iteration
    x, im = 3.0, 1.0
    for _ in range(80):
        im = log_shift.omega(math.hypot(x, im))
    z = complex(x, im)
    assert abs(z.imag - log_shift.omega(abs(z))) < 1e-14
    split = ap.split_regions(ap.Variety([(z, 1)]), log_shift)
    assert len(split.strip) == 1


@settings(max_examples=40, deadline=None)
@given(point_lists(min_size=1, max_size=25))
def test_split_partitions_exactly(pts):
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
    v = ap.Variety(pts)
    split = ap.split_regions(v, w)
    together = ap.Variety(
        [(z, m) for part in (split.strip, split.upper, split.lower)
         for z, m in zip(part.lam, part.mult)], v.window_radius)
    assert np.array_equal(together.lam, v.lam)
    assert np.array_equal(together.mult, v.mult)


def test_balayage_value_cases():
    assert ap.balayage_value(ap.Variety([(1j, 1)]), 0.0) == 1.0
    assert ap.balayage_value(ap.Variety([(2j, 3)]), 0.0) == pytest.approx(1.5)
    assert ap.balayage_value(ap.Variety([(3 + 4j, 1)]), 3.0) == pytest.approx(0.25)


def test_balayage_value_rejects_real_points():
    with pytest.raises(InvariantViolation):
        ap.balayage_value(ap.Variety([(1 + 0j, 1)]), 0.0)


def test_balayage_sup_empty_and_single_point():
    assert ap.balayage_sup(ap.Variety([])) == (0.0, 0.0)
    x, sup = ap.balayage_sup(ap.Variety([(3 + 2j, 4)], window_radius=10))
    assert abs(x - 3.0) < 1e-9
    assert abs(sup - 2.0) < 1e-9  # mult / Im at the kernel peak


def test_balayage_sup_dominates_candidates():
    rng = np.random.default_rng(5)
    pts = [(complex(rng.uniform(-8, 8), rng.uniform(0.3, 3)), 1) for _ in range(30)]
    v = ap.Variety(pts, window_radius=20)
    _, sup = ap.balayage_sup(v)
    cand_max = max(ap.balayage_value(v, float(z.real)) for z in v.lam)
    assert sup >= cand_max - 1e-12


@settings(max_examples=30, deadline=None)
@given(point_lists(min_size=1, max_size=15, min_im=0.2, max_im=5.0),
       st.floats(-10, 10))
def test_balayage_reflection_invariance(pts, x):
    v = ap.Variety(pts)
    assert ap.balayage_value(v, x) == pytest.approx(
        ap.balayage_value(v.conjugate(), x), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(point_lists(min_size=1, max_size=12, min_im=0.2, max_im=5.0),
       st.integers(2, 5))
# The best candidate's neighbours lie within 1e-16 of it: the refine bracket
# must reach the nearest candidates at least REFINE_TOL away.
@example([(0.5j, 2), (0.359375j, 1), (0.021484375 + 0.34375j, 1), (1.29e-126 + 5j, 1),
          (-2.22e-16 + 1j, 1)], 3)
# A subnormal real part: the tree's box center must be the point itself.
@example([(5e-324 + 1j, 1)], 2)
def test_multiplicity_scaling_equivariance(pts, k):
    v = ap.Variety(pts)
    scaled = v.scale_mult(k)
    x = 0.375
    assert ap.balayage_value(scaled, x) == pytest.approx(
        k * ap.balayage_value(v, x), rel=1e-12)
    z, r = 0.5 + 0.5j, 4.0
    assert ap.integrated_count(scaled, z, r) == pytest.approx(
        k * ap.integrated_count(v, z, r), rel=1e-12)
    x1, s1 = ap.balayage_sup(v)
    xk, sk = ap.balayage_sup(scaled)
    assert sk == pytest.approx(k * s1, rel=1e-9)
    assert xk == pytest.approx(x1, abs=1e-5)


def test_condition_a_singleton_center_term(log_shift):
    # with the literal center term a singleton gives m log p / p
    v = ap.Variety([(100 + 0j, 1)], window_radius=400)
    radii = [25, 50, 100, 200]
    p = log_shift.p(100 + 0j)
    sweep = ap.condition_a_constants(v, log_shift, radii, include_center=True)
    assert sweep.constants[-1] == pytest.approx(math.log(p) / p, rel=1e-12)
    # the default convention drops it
    sweep0 = ap.condition_a_constants(v, log_shift, radii)
    assert sweep0.constants == [0.0] * 4


def test_condition_a_lattice_plateau(log_shift):
    v = ap.generate(ap.FamilySpec("integer_lattice", {"window": 2000}))
    radii = ap.default_radii(v.window_radius)
    sweep = ap.condition_a_constants(v, log_shift, radii)
    p = math.log(1 + 1000)
    expected = 2 * (math.floor(p) * math.log(p) - math.log(math.factorial(math.floor(p)))) / p
    assert sweep.constants[-1] == pytest.approx(expected, rel=1e-9)
    trend = ap.classify_trend(radii, sweep.constants)
    assert trend.verdict == "bounded-evidence"


def test_condition_a_memory_is_linear(log_shift):
    # Between its two passes the sweep keeps O(N) arrays only: the tree's
    # points, weights and order (32 B per point) and its cells' moments and
    # coefficients (about 15 points per cell, 45 B per point), and some 20
    # words per target (its point, radius, log radius, slot and group, and the
    # value, scale, ops, trunc and crossing sums of each pass): about 200 B
    # per point.  Blocks under numutil._BLOCK_WORDS (2^13 (target, leaf)
    # decisions, or 2^15 points) add a fixed ~6 MB, ~90 B per point on these
    # 65 534 points.  400 B per point leaves a third to spare; a list of the
    # crossing (center, leaf) pairs, which grows as N^1.45, read 896 B per
    # point here.
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 15}))
    radii = ap.default_radii(v.window_radius)
    tracemalloc.start()
    try:
        ap.condition_a_constants(v, log_shift, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * len(v), peak / len(v)


def test_condition_a_rejects_radii_beyond_window(log_shift):
    v = ap.generate(ap.FamilySpec("integer_lattice", {"window": 100}))
    with pytest.raises(DomainError):
        ap.condition_a_constants(v, log_shift, [10, 20, 40, 80])


def test_condition_b_all_real_is_zero(log_shift):
    v = ap.generate(ap.FamilySpec("integer_lattice", {"window": 200}))
    sweep = ap.condition_b_constants(v, log_shift, ap.default_radii(v.window_radius))
    assert all(c == 0.0 for c in sweep.constants)


def test_condition_b_low_line_flat(log_shift):
    # height-one line: only |lambda| < e - 1 sits outside the strip
    v = ap.generate(ap.FamilySpec("horizontal_line", {"height": 1.0, "extent": 400}))
    split = ap.split_regions(v, log_shift)
    assert len(split.upper) == 3
    radii = ap.default_radii(v.window_radius)
    sweep = ap.condition_b_constants(v, log_shift, radii)
    assert sweep.constants[-1] == pytest.approx(2.0, abs=1e-6)
    assert max(sweep.constants) - min(c for c in sweep.constants if c > 0) < 1e-9
    trend = ap.classify_trend(radii, sweep.constants)
    assert trend.verdict == "bounded-evidence"


def test_dyadic_balayage_increments(log_shift):
    for n in (6, 8, 10):
        row = ap.generators.dyadic_row(n)
        inc = ap.balayage_value(row, 0.0)
        assert inc == pytest.approx(math.pi / 4, rel=0.10)


def test_dyadic_condition_b_grows(log_shift):
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 9}))
    radii = ap.default_radii(v.window_radius)
    sweep = ap.condition_b_constants(v, log_shift, radii)
    assert all(c2 >= c1 - 1e-9 for c1, c2 in zip(sweep.constants, sweep.constants[1:]))
    assert sweep.constants[-1] > sweep.constants[0] + 1.0


def test_classify_trend_synthetic():
    radii = [10, 20, 40, 80, 160, 320]
    flat = ap.classify_trend(radii, [3.0] * 6)
    assert flat.verdict == "bounded-evidence" and flat.exponent == pytest.approx(0.0, abs=1e-12)
    linear = ap.classify_trend(radii, radii)
    assert linear.verdict == "divergence-evidence" and linear.exponent == pytest.approx(1.0, rel=1e-9)
    zeros = ap.classify_trend(radii, [0.0] * 6)
    assert zeros.verdict == "bounded-evidence" and zeros.exponent == 0.0
    log_growth = ap.classify_trend(radii, [math.log(r) for r in radii])
    assert log_growth.verdict == "inconclusive"
    tight = ap.classify_trend(radii, [math.log(r) for r in radii], thresholds=(0.05, 0.1))
    assert tight.verdict == "divergence-evidence"


def test_classify_trend_span_requirements():
    with pytest.raises(DomainError):
        ap.classify_trend([1, 2, 3], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        ap.classify_trend([10, 11, 12, 13], [1.0, 1.0, 1.0, 2.0])


def test_balayage_profile_rows(log_shift):
    v = ap.Variety([(1j, 1)], window_radius=4)
    prof = ap.balayage_profile(v, ap.ScanSpec(xmin=-2, xmax=2, samples=5))
    rows = list(prof.rows())
    assert rows[-1] == (prof.x_star, prof.sup)
    assert prof.sup == pytest.approx(1.0, abs=1e-9)
    assert prof.slope_bound > 0
    empty = ap.balayage_profile(ap.Variety([]), ap.ScanSpec(xmin=-1, xmax=1, samples=3))
    assert empty.sup == 0.0 and all(v == 0.0 for v in empty.values)


def test_balayage_profile_spacing_survives_an_overflowing_span():
    # The grid spans +-1.7e308, so xmax - xmin overflows; the spacing is
    # formed from the exactly scaled ends, as the grid is.  Without the point
    # 1 + i every Im^2 overflows and the slope bound is 0.
    scan = ap.ScanSpec(xmin=-1.7e308, xmax=1.7e308, samples=5)
    wide = [(8e307 + 1e307j, 1), (-8e307 + 2e307j, 1)]
    for points in (wide + [(1 + 1j, 1)], wide):
        prof = ap.balayage_profile(ap.Variety(points), scan)
        assert math.isfinite(prof.max_miss)
        assert prof.max_miss == pytest.approx(prof.slope_bound * 0.85e308 / 2, rel=1e-15)
    assert prof.slope_bound == 0.0 and prof.max_miss == 0.0


def test_report_round_trip_dict(log_shift):
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 6}))
    report = ap.run_condition_report(v, log_shift)
    payload = report.to_dict()
    assert set(payload) >= {"radii", "condition_a", "condition_b", "thresholds"}
    assert len(payload["condition_a"]["constants"]) == len(payload["radii"])
    assert payload["condition_b"]["verdict"] in (
        "bounded-evidence", "divergence-evidence", "inconclusive")


def test_sweeps_raise_on_an_omega_that_overflows_at_a_point():
    # check stops at split_regions; each sweep called alone stops too, at
    # the same checked omega, instead of reading inf as a weight.
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1e308))
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 4}))
    radii = ap.default_radii(v.window_radius)
    hv = ap.HalfPlaneVariety.from_variety(v)
    for call in (lambda: ap.split_regions(v, w),
                 lambda: ap.condition_a_constants(v, w, radii),
                 lambda: ap.condition_b_constants(v, w, radii),
                 lambda: ap.blaschke_sum_report(hv, w, radii),
                 lambda: ap.separation_profile(v, w),
                 # one point: no separation scan before the separation radii
                 lambda: ap.annulus_counting_report(ap.Variety([(10 + 0j, 1)], window_radius=400),
                                                    w, [45, 60, 90, 180])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^omega\(\S+\) is not finite at the point"):
                call()


def test_point_evaluations_raise_on_an_omega_that_overflows():
    # The disk radii eps p of singular_weight (at the points) and of
    # local_density_constant (at the samples) go through the same checked
    # omega.  Read as inf, they put the samples 3+3i and 100+50i, which are no
    # points, on the configuration (-inf), and the density read 1.8e-307.
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1e308))
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 4}))
    samples = [3 + 3j, 100 + 50j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^omega\(\S+\) is not finite at the point"):
            ap.singular_weight(v, w, 0.5, samples)
        with pytest.raises(NumericError, match=r"is not finite at the point \(100\+50j\)$"):
            ap.local_density_constant(v, w, 0.5, samples)
    # omega is finite at both points of this variety, so only p(100+50i) fails
    two = ap.Variety([(1 + 1j, 1), (2 - 1j, 1)])
    for call in (lambda: ap.penalized_weight(two, w, 0.5, 2.0, 100 + 50j),
                 lambda: ap.blaschke_lower_bound_report(ap.HalfPlaneVariety.from_variety(two),
                                                        w, [100 + 50j])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^omega\(111\.8\d*\) is not finite at "
                                                   r"the point \(100\+50j\)$"):
                call()


def test_sweep_writes_each_witness_form():
    sweep = ap.Sweep([1.0, 2.0, 4.0, 8.0], [0.0, 1.0, 1.0, 1.0],
                     [None, 1 + 2j, 0.5, -3.0], floor_hits=2).classify()
    assert sweep.to_dict() == {
        "radii": [1.0, 2.0, 4.0, 8.0], "constants": [0.0, 1.0, 1.0, 1.0],
        "witnesses": [None, [1.0, 2.0], 0.5, -3.0],
        "verdict": "bounded-evidence", "exponent": 0.0}
    section = sweep.to_dict()
    del section["radii"]
    assert ap.ConditionReport(sweep, sweep).to_dict() == {
        "radii": sweep.radii, "condition_a": {**section, "floor_hits": 2},
        "condition_b": section, "thresholds": [0.05, 0.2]}

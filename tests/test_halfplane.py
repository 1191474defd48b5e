import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apinterp as ap
from apinterp.errors import DomainError
from apinterp.halfplane import LOG_ZERO

from conftest import finite_complex, jensen_quadrature, point_lists


def upper_points(max_size=20):
    return point_lists(min_size=1, max_size=max_size, min_im=0.1, max_im=10.0)


def line_variety(K, height=1.0):
    return ap.HalfPlaneVariety([(complex(k, height), 1) for k in range(-K, K + 1)])


def test_pseudo_distance_values():
    assert ap.pseudo_distance(1j, 1j) == 0.0
    assert ap.pseudo_distance(1j, 2j) == pytest.approx(1 / 3, abs=1e-15)
    assert ap.pseudo_distance(1 + 1j, -1 + 1j) == pytest.approx(2 / (2 * math.sqrt(2)), abs=1e-12)


def test_pseudo_distance_domain():
    with pytest.raises(DomainError):
        ap.pseudo_distance(1j, 1 - 1j)


@settings(max_examples=100, deadline=None)
@given(finite_complex(min_im=1e-3, max_im=20.0), finite_complex(min_im=1e-3, max_im=20.0),
       st.floats(-30, 30), st.floats(0.1, 8.0))
def test_pseudo_distance_invariances(z, w, shift, scale):
    base = ap.pseudo_distance(z, w)
    assert ap.pseudo_distance(w, z) == base
    translated = ap.pseudo_distance(z + shift, w + shift)
    dilated = ap.pseudo_distance(scale * z, scale * w)
    assert translated == pytest.approx(base, rel=1e-10, abs=1e-12)
    assert dilated == pytest.approx(base, rel=1e-10, abs=1e-12)
    assert 0.0 <= base < 1.0


def test_log_blaschke_abs_values():
    hv = ap.HalfPlaneVariety([(2j, 1)])
    assert ap.log_blaschke_abs(hv, 1j) == pytest.approx(math.log(1 / 3), abs=1e-12)
    assert ap.log_blaschke_abs(hv, 2j) == LOG_ZERO
    assert ap.log_blaschke_abs(ap.HalfPlaneVariety([]), 1j) == 0.0


def test_line_sum_matches_product_identity():
    K = 1000
    hv = line_variety(K)
    s = ap.blaschke_sum(hv, 1j)
    product = sum(math.log1p(4 / (k * k)) for k in range(1, K + 1))
    assert s == pytest.approx(product, abs=1e-10)
    assert ap.log_blaschke_abs(hv, 1j) is LOG_ZERO  # the center is a point
    # drop the center point: log|B| at i is minus the same sum
    hv2 = ap.HalfPlaneVariety([(complex(k, 1), 1) for k in range(-K, K + 1) if k])
    assert ap.log_blaschke_abs(hv2, 1j) == pytest.approx(-product, abs=1e-10)


def test_blaschke_sum_values():
    assert ap.blaschke_sum(ap.HalfPlaneVariety([(5j, 3)]), 5j) == 0.0
    hv = ap.HalfPlaneVariety([(1j, 1), (1 + 1j, 1)])
    assert ap.blaschke_sum(hv, 1j) == pytest.approx(0.5 * math.log(5), abs=1e-12)
    with pytest.raises(DomainError):
        ap.blaschke_sum(hv, 3j)


def test_hyperbolic_counting_closed_boundary():
    hv = ap.HalfPlaneVariety([(2j, 1)])
    assert ap.count_in_hyp_disk(hv, 1j, 0.3) == 0
    assert ap.count_in_hyp_disk(hv, 1j, 1 / 3) == 1
    assert ap.count_in_hyp_disk(ap.HalfPlaneVariety([]), 1j, 0.5) == 0


@settings(max_examples=40, deadline=None)
@given(upper_points(max_size=15), finite_complex(max_abs=8.0, min_im=0.2, max_im=6.0),
       st.floats(0.05, 0.95))
@example([(0.1j, 1)], 0.2j, 1 / 3)  # rho = 1/3 exactly: on the closed boundary
def test_hyperbolic_counting_dual_formula(pts, z, t):
    hv = ap.HalfPlaneVariety(pts)
    disk = ap.HypDisk(z, t)
    direct = ap.count_in_hyp_disk(hv, z, t)
    via_disk = int(sum(m for lam, m in zip(hv.lam, hv.mult) if disk.contains(lam)))
    assert direct == via_disk


def test_hyp_disk_stays_in_upper_half():
    disk = ap.HypDisk(2 + 1j, 0.9)
    assert disk.euclidean_center.imag - disk.euclidean_radius > 0


def test_hyperbolic_jensen_identities():
    hv = ap.HalfPlaneVariety([(2j, 1)])
    assert ap.hyperbolic_jensen(hv, 1j) == pytest.approx(math.log(3), abs=1e-12)
    assert ap.hyperbolic_jensen(ap.HalfPlaneVariety([]), 1j) == 0.0
    with pytest.raises(DomainError):
        ap.hyperbolic_jensen(hv, 2j)


@settings(max_examples=20, deadline=None)
@given(upper_points(max_size=20))
def test_hyperbolic_jensen_equals_quadrature(pts):
    hv = ap.HalfPlaneVariety(pts)
    z = 0.311 + 1.173j
    if np.any(np.abs(hv.lam - z) < 1e-6):
        return
    closed = ap.hyperbolic_jensen(hv, z)
    assert closed == -ap.log_blaschke_abs(hv, z)  # same summation, exactly
    assert jensen_quadrature(hv, z) == pytest.approx(closed, abs=1e-4, rel=1e-4)


@settings(max_examples=30, deadline=None)
@given(upper_points(max_size=12))
def test_blaschke_sum_termwise_lower_bound(pts):
    hv = ap.HalfPlaneVariety(pts)
    i = 0
    lam = complex(hv.lam[i])
    s = ap.blaschke_sum(hv, lam)
    others = np.ones(len(hv), dtype=bool)
    others[i] = False
    bound = float(np.sum(hv.mult[others] * lam.imag * hv.lam[others].imag
                         / np.abs(lam - np.conj(hv.lam[others])) ** 2))
    assert s >= bound - 1e-12


@settings(max_examples=40, deadline=None)
@given(upper_points(max_size=15), st.floats(-20, 20))
def test_balayage_bridge_factor_four(pts, x):
    # with lambda the nearest configuration point to x:
    # sum m Im / |x - lambda'|^2 <= 4 sum m Im / |lambda - conj lambda'|^2
    hv = ap.HalfPlaneVariety(pts)
    i = int(np.argmin(np.abs(x - hv.lam)))
    lam = hv.lam[i]
    lhs = float(np.sum(hv.mult * hv.lam.imag / np.abs(x - hv.lam) ** 2))
    rhs = float(np.sum(hv.mult * hv.lam.imag / np.abs(lam - np.conj(hv.lam)) ** 2))
    assert lhs <= 4 * rhs * (1 + 1e-9)


def test_blaschke_sum_report_line_bounded(log_shift):
    hv = line_variety(400)
    radii = [25, 50, 100, 200, 400]
    report = ap.blaschke_sum_report(hv, log_shift, radii)
    assert report.trend.verdict == "bounded-evidence"
    assert report.constants[-1] == pytest.approx(
        ap.blaschke_sum(hv.restrict(400), 1j) / log_shift.p(1j), rel=0.05)


def test_blaschke_sum_report_singleton(log_shift):
    hv = ap.HalfPlaneVariety([(1j, 1)], window_radius=64)
    report = ap.blaschke_sum_report(hv, log_shift, [4, 8, 16, 32])
    assert report.constants == [0.0] * 4


def test_blaschke_sum_report_dyadic_grows(log_shift):
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 8}))
    hv = ap.HalfPlaneVariety.from_variety(v)
    radii = ap.default_radii(v.window_radius)
    report = ap.blaschke_sum_report(hv, log_shift, radii)
    assert report.constants[-1] > 2 * report.constants[0]


def test_blaschke_lower_bound_report(log_shift):
    hv = line_variety(200)
    samples = [0.5 + 1j, 10.25 + 2j]
    rep = ap.blaschke_lower_bound_report(hv, log_shift, samples)
    assert rep.worst > 0 and rep.n_samples == 2
    assert rep.worst < 10  # same scale as the exclusion sums on the line
    empty = ap.blaschke_lower_bound_report(ap.HalfPlaneVariety([]), log_shift, samples)
    assert empty.worst == 0.0


def loop_lower_bound(hv, w, samples):
    """blaschke_lower_bound_report as the per-sample loop it replaced."""
    worst, witness, n = 0.0, None, 0
    for z in samples:
        z = complex(z)
        val = ap.log_blaschke_abs(hv, z)
        if val == LOG_ZERO:
            raise DomainError("sample coincides with a configuration point")
        n += 1
        ratio = -val / max(w.p(z), 1.0)
        if ratio > worst:
            worst, witness = ratio, z
    return worst, witness, n


QUARTER_UPPER = st.builds(complex, st.integers(-12, 12).map(lambda k: k / 4),
                          st.integers(1, 12).map(lambda k: k / 4))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(QUARTER_UPPER, st.integers(1, 3)), min_size=1, max_size=20),
       st.lists(st.builds(complex, st.integers(-12, 12).map(lambda k: k / 4),
                          st.integers(-2, 12).map(lambda k: k / 4)), max_size=12))
def test_blaschke_lower_bound_report_matches_the_loop(log_shift, pts, samples):
    # Quarter-grid samples: some on points, some with Im <= 0, mirror ties.
    hv = ap.HalfPlaneVariety(pts)
    try:
        want = loop_lower_bound(hv, log_shift, samples)
    except DomainError as exc:
        with pytest.raises(DomainError, match=str(exc)):
            ap.blaschke_lower_bound_report(hv, log_shift, samples)
        return
    rep = ap.blaschke_lower_bound_report(hv, log_shift, samples)
    assert (rep.worst, rep.witness, rep.n_samples) == want
    assert type(rep.worst) is float


def test_blaschke_lower_bound_on_separation_annuli(log_shift):
    # feed the report the ring samples the interpolant machinery produces
    import cmath

    v = ap.Variety([(complex(k, 1.0), 1) for k in range(-60, 61)])
    hv = ap.HalfPlaneVariety.from_variety(v)
    sep = ap.SeparationRadii.from_profile(v, log_shift)
    samples = []
    for i in range(0, len(v), 20):
        lam = complex(v.lam[i])
        delta = sep.radii[i]
        samples.extend(lam + delta * cmath.exp(2j * math.pi * k / 4)
                       for k in range(4))
    rep = ap.blaschke_lower_bound_report(hv, log_shift, samples)
    assert rep.n_samples == len(samples)
    # on the ring around lambda the dominant term is the excluded-point sum,
    # so the constant stays on the same scale as S(lambda)/p(lambda)
    scale = ap.blaschke_sum(hv, 1j) / log_shift.p(1j)
    assert 0 < rep.worst < 10 * scale


def test_poisson_kernel_and_green():
    assert ap.poisson_kernel(1j, 0.0) == 1.0
    assert ap.green_function(1j, 2j) == pytest.approx(math.log(3), abs=1e-12)
    from scipy.integrate import quad
    val, _ = quad(lambda x: ap.poisson_kernel(2 + 3j, x), -np.inf, np.inf)
    assert val == pytest.approx(math.pi, abs=1e-6)


def test_halfplane_variety_rejects_real_points():
    with pytest.raises(DomainError):
        ap.HalfPlaneVariety([(1 + 0j, 1)])


def test_from_variety_conjugation_reduction():
    v = ap.Variety([(1 + 2j, 1), (3 - 4j, 2), (5 + 0j, 1)])
    up = ap.HalfPlaneVariety.from_variety(v)
    low = ap.HalfPlaneVariety.from_variety(v, conjugate_lower=True)
    assert [complex(z) for z in up.lam] == [1 + 2j]
    assert [complex(z) for z in low.lam] == [3 + 4j]


def test_halfplane_variety_is_a_validated_variety():
    hv = ap.HalfPlaneVariety([(1 + 2j, 1), (1 + 2j, 2), (30 + 1j, 1)], window_radius=100)
    assert isinstance(hv, ap.Variety)
    assert hv.total_mult == 4 and hv.merged_count == 1
    inner = hv.restrict(10)
    assert type(inner) is ap.HalfPlaneVariety
    assert [complex(z) for z in inner.lam] == [1 + 2j] and inner.window_radius == 100
    conj = hv.conjugate()
    assert type(conj) is ap.Variety
    assert np.all(conj.lam.imag < 0)

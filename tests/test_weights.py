import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apinterp as ap
from apinterp.errors import DomainError, TabulatedRangeError

from conftest import finite_complex, poisson_quadrature, w2_quadrature

PI_LOG2 = math.pi * math.log(2.0)          # closed form of the log-square growth integral
CATALAN = 0.915965594177219015              # sum (-1)^k / (2k+1)^2
U_LOG_SHIFT_AT_I = (2 / math.pi) * ((math.pi / 4) * math.log(2.0) + CATALAN)


def test_omega_values():
    assert ap.OmegaProfile.log_shift(1.0)(0.0) == 0.0
    assert ap.OmegaProfile.power(0.5)(4.0) == pytest.approx(2.0, abs=1e-15)
    assert ap.OmegaProfile.log_square()(1.0) == pytest.approx(math.log(2), abs=1e-12)


def test_log_square_omega_does_not_overflow():
    # t * t overflows from t = 2^512 (about 1.34e154) on; there omega is
    # 2 log t + log1p(t^-2), and below it keeps log1p(t * t).
    omega = ap.OmegaProfile.log_square()
    ts = [1e154, 2.0 ** 512 * (1 - 2.0 ** -53), 2.0 ** 512, 1e155, 1e200, 1e250, 1e300]
    for t in ts:
        assert omega(t) == pytest.approx(2 * math.log(t) + math.log1p(t ** -2), rel=1e-15)
    assert np.array_equal(omega(np.array([3.0, *ts])), [omega(t) for t in [3.0, *ts]])
    # Below 2^512 every bit is log1p(t * t)'s.
    for t in (3.0, 1e154, 1.5 * 2.0 ** 511, 2.0 ** 512 * (1 - 2.0 ** -53)):
        assert omega(t) == np.log1p(np.float64(t) * t)


def test_omega_rejects_bad_arguments():
    with pytest.raises(DomainError):
        ap.OmegaProfile.log_shift(1.0)(-1.0)
    tab = ap.OmegaProfile.tabulated([(0, 0), (10, 1)])
    with pytest.raises(TabulatedRangeError):
        tab(11.0)
    with pytest.raises(DomainError):
        ap.OmegaProfile.power(1.0)
    with pytest.raises(DomainError):
        ap.OmegaProfile.tabulated([(0, 1), (5, 0.5)])  # decreasing values


def test_tabulated_profile_interpolates_its_knots():
    knots = [(0.0, 0.0), (0.5, 0.1), (3.0, 0.1), (10.0, 2.5), (40.0, 4.0)]
    tab = ap.OmegaProfile.tabulated(knots)
    ts, ws = np.array(knots).T
    t = np.concatenate([ts, np.linspace(0.0, 40.0, 401)])
    expected = np.interp(t, ts, ws)
    # the knot arrays are built at construction: a call never reads the tuple
    object.__setattr__(tab, "knots", None)
    assert np.array_equal(tab(t), expected)
    assert [tab(float(x)) for x in t] == expected.tolist()
    with pytest.raises(TabulatedRangeError):
        tab(np.array([1.0, 40.5]))


def test_p_values(log_shift, log_square):
    assert log_shift.p(3j) == pytest.approx(3 + math.log(4), abs=1e-12)
    assert log_shift.p(0j) == 0.0
    assert log_square.p(1 + 1j) == pytest.approx(1 + math.log(3), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(finite_complex(max_abs=1e6))
def test_p_symmetries_exact(z):
    w = ap.BeurlingWeight(ap.OmegaProfile.log_square())
    assert w.p(z) == w.p(z.conjugate()) == w.p(-z)


def test_p_symmetries_bulk(log_square):
    rng = np.random.default_rng(0)
    zs = rng.uniform(-1e4, 1e4, 10_000) + 1j * rng.uniform(-1e4, 1e4, 10_000)
    p = log_square.p(zs)
    assert np.array_equal(p, log_square.p(np.conj(zs)))
    assert np.array_equal(p, log_square.p(-zs))


def test_log_shift_is_strictly_subadditive(log_shift):
    rep = ap.check_axioms(log_shift)
    assert rep.subadd_excess <= 1e-12
    assert rep.subadd_strict and rep.subadd_relaxed


def test_log_square_subadditivity_excess(log_square):
    # pointwise excess at s = t = 1 is log 5 - 2 log 2, positive
    omega = log_square.omega
    assert omega(2.0) - 2 * omega(1.0) == pytest.approx(math.log(5) - 2 * math.log(2), abs=1e-12)
    rep = ap.check_axioms(log_square)
    assert rep.subadd_excess >= math.log(5) - 2 * math.log(2) - 1e-12
    # exact supremum of the excess is log(4/3), below the relaxed tolerance
    assert rep.subadd_excess <= math.log(4 / 3) + 1e-9
    assert not rep.subadd_strict
    assert rep.subadd_relaxed


def test_power_subadditive():
    rep = ap.check_axioms(ap.BeurlingWeight(ap.OmegaProfile.power(0.5)))
    assert rep.subadd_excess <= 1e-12
    assert math.isfinite(rep.w2_integral)


def test_w2_log_square_closed_form(log_square):
    rep = ap.check_axioms(log_square)
    assert rep.w2_integral == pytest.approx(PI_LOG2, abs=1e-6)
    assert not rep.w2_tail_is_estimate


def test_w2_tabulated_tail_is_estimate():
    w = ap.BeurlingWeight(ap.OmegaProfile.tabulated([(0, 0), (50, 2), (100, 3)]))
    rep = ap.check_axioms(w)
    assert rep.w2_tail_is_estimate
    assert math.isfinite(rep.w2_integral) and rep.w2_tail > 0


@pytest.mark.parametrize("omega", [
    ap.OmegaProfile.log_shift(1.0), ap.OmegaProfile.log_shift(2.5),
    ap.OmegaProfile.log_square(), ap.OmegaProfile.power(0.1),
    ap.OmegaProfile.power(0.5), ap.OmegaProfile.power(0.8),
    ap.OmegaProfile.power(0.95)], ids=lambda om: f"{om.family}-{om.a}-{om.gamma}")
def test_w2_closed_forms_match_quadrature(omega):
    rep = ap.check_axioms(ap.BeurlingWeight(omega))
    integral, _ = w2_quadrature(omega)
    assert rep.w2_integral == pytest.approx(integral, rel=1e-13, abs=0.0)
    assert rep.w2_tail == 0.0 and not rep.w2_tail_is_estimate


_T401 = np.linspace(0.0, 400.0, 401)
_T300 = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 299)])


@pytest.mark.parametrize("knots", [
    [(0, 0), (50, 2), (100, 3)],
    list(zip(_T401, np.log1p(_T401 * _T401))),
    list(zip(_T300, np.sqrt(_T300)))], ids=["3-knot", "401-log-square", "300-sqrt"])
def test_w2_tabulated_matches_quadrature(knots):
    # the 401-knot log(1+t^2) made the earlier adaptive quadrature raise
    omega = ap.OmegaProfile.tabulated(knots)
    rep = ap.check_axioms(ap.BeurlingWeight(omega))
    integral, tail = w2_quadrature(omega)
    assert rep.w2_integral == pytest.approx(integral, rel=1e-12, abs=0.0)
    assert rep.w2_tail == pytest.approx(tail, rel=1e-12, abs=0.0)
    assert rep.w2_tail_is_estimate


def test_w2_tabulated_range_must_start_at_zero():
    w = ap.BeurlingWeight(ap.OmegaProfile.tabulated([(0.01, 0), (50, 2), (100, 3)]))
    with pytest.raises(TabulatedRangeError):
        ap.check_axioms(w)


# Every field other than w2_*, as written by the quadrature-based W2 commit:
# the closed form changes only the w2_* fields, and the scans keep their bits.
AXIOM_FIELDS = {
    "log_shift": {
        "subadd_excess": -0.0035074217851604195,
        "subadd_argmax": [0.06289308176100629, 0.06289308176100629],
        "subadd_strict": True, "subadd_relaxed": True,
        "w1_constant": 1.0, "w1_argmax": 1.0062893081761006,
        "oscillation_worst": 1.0102380916840201,
        "oscillation_argmax": [100.0, 95.38487948315874], "oscillation_ok": True,
        "prop_c_constant": 2.2092571777386665, "prop_d_constant": 1.139301186252133,
        "prop_d_eps": 0.1},
    "log_square": {
        "subadd_excess": 0.287472981630353,
        "subadd_argmax": [0.6918238993710691, 0.6918238993710691],
        "subadd_strict": False, "subadd_relaxed": True,
        "w1_constant": 0.9954970220450501, "w1_argmax": 1.0062893081761006,
        "oscillation_worst": 1.0214290743565353,
        "oscillation_argmax": [100.0, 90.78955963302349], "oscillation_ok": True,
        "prop_c_constant": 2.624735728807063, "prop_d_constant": 1.1883014740652709,
        "prop_d_eps": 0.1},
    "power": {
        "subadd_excess": -0.14690641150956485,
        "subadd_argmax": [0.06289308176100629, 0.06289308176100629],
        "subadd_strict": True, "subadd_relaxed": True,
        "w1_constant": 0.8047404201048896, "w1_argmax": 3.89937106918239,
        "oscillation_worst": 1.0540925533894598,
        "oscillation_argmax": [100.0, 90.0], "oscillation_ok": True,
        "prop_c_constant": 2.225703069325793, "prop_d_constant": 1.1390692796981214,
        "prop_d_eps": 0.1},
    "tabulated": {
        "subadd_excess": 4.440892098500626e-16,
        "subadd_argmax": [8.176100628930818, 29.240177382128653],
        "subadd_strict": True, "subadd_relaxed": True,
        "w1_constant": 17.298377685902107, "w1_argmax": 1.0062893081761006,
        "oscillation_worst": 1.0,
        "oscillation_argmax": [100.0, 100.0], "oscillation_ok": True,
        "prop_c_constant": 2.0195757162200825, "prop_d_constant": 1.103223870316209,
        "prop_d_eps": 0.1},
}
AXIOM_PROFILES = {
    "log_shift": ap.OmegaProfile.log_shift(1.0),
    "log_square": ap.OmegaProfile.log_square(),
    "power": ap.OmegaProfile.power(0.5),
    "tabulated": ap.OmegaProfile.tabulated([(0, 0), (50, 2), (100, 3)]),
}


@pytest.mark.parametrize("family", list(AXIOM_PROFILES))
def test_axiom_scans_pinned(family):
    got = ap.check_axioms(ap.BeurlingWeight(AXIOM_PROFILES[family])).to_dict()
    w2_keys = ["w2_integral", "w2_tail", "w2_tail_is_estimate"]
    assert [k for k in got if k.startswith("w2_")] == w2_keys
    assert {k: v for k, v in got.items() if not k.startswith("w2_")} == AXIOM_FIELDS[family]


def test_oscillation_within_factor_two(log_shift, log_square):
    for w in (log_shift, log_square):
        rep = ap.check_axioms(w)
        assert rep.oscillation_ok
        assert 1.0 <= rep.oscillation_worst <= 2.0


def test_doubling_growth_from_subadditivity(log_shift, log_square):
    ts = np.geomspace(0.5, 5e3, 64)
    for w in (log_shift, log_square):
        excess = ap.check_axioms(w).subadd_excess
        omega = w.omega
        assert np.all(omega(2 * ts) <= 2 * omega(ts) + max(excess, 0.0) + 1e-12)


def test_disk_constant_shrinks_with_eps(log_shift):
    c_small = ap.estimate_disk_constant(log_shift, 0.01)
    c_big = ap.estimate_disk_constant(log_shift, 0.2)
    assert 1.0 <= c_small <= c_big
    assert c_small < 1.1


def test_poisson_transform_zero_profile():
    w = ap.BeurlingWeight(ap.OmegaProfile.tabulated([(0, 0), (100, 0)]))
    assert ap.poisson_transform(w, 1j) == 0.0


def test_poisson_transform_log_square_closed_form(log_square):
    # harmonic extension of log(1+t^2) is 2 log|z + i|
    u = ap.poisson_transform(log_square, 1j)
    assert u == pytest.approx(2 * math.log(2), abs=1e-5)
    for z in (0.5 + 2j, -3 + 0.7j):
        u = ap.poisson_transform(log_square, z)
        assert u == pytest.approx(2 * math.log(abs(z + 1j)), rel=1e-8)


def test_poisson_transform_log_shift_value(log_shift):
    u1 = ap.poisson_transform(log_shift, 1j)
    u2 = poisson_quadrature(log_shift.omega, 1j)
    assert abs(u1 - u2) < 1e-4
    assert u1 == pytest.approx(U_LOG_SHIFT_AT_I, abs=1e-3)
    assert u1 == pytest.approx(0.9297, abs=1e-3)


def test_poisson_transform_even_symmetry(log_shift):
    for z in (2 + 1j, 0.3 + 0.5j, -4 + 2.5j):
        u = ap.poisson_transform(log_shift, z)
        u_m = ap.poisson_transform(log_shift, complex(-z.real, z.imag))
        assert u == pytest.approx(u_m, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("z", [
    1 - 1j, 2 + 0j, complex(math.inf, 1), complex(-math.inf, 1), complex(1, math.inf),
    complex(math.nan, 1), complex(1, math.nan), np.array([1j, complex(math.inf, 1)]),
], ids=["lower", "real", "inf_re", "minus_inf_re", "inf_im", "nan_re", "nan_im", "array"])
def test_poisson_transform_requires_upper_half(log_shift, z):
    with pytest.raises(DomainError):
        ap.poisson_transform(log_shift, z)


# log(1 + t^2) tabulated at t = 0, 1, ..., 400
TAB_401 = ap.OmegaProfile.tabulated([(t, math.log1p(t * t)) for t in range(401)])
ORACLE_PROFILES = {
    "log_shift": [ap.OmegaProfile.log_shift(1.0), ap.OmegaProfile.log_shift(2.5)],
    "log_square": [ap.OmegaProfile.log_square()],
    "power": [ap.OmegaProfile.power(0.5), ap.OmegaProfile.power(0.8)],
    "tabulated": [TAB_401],
}
# x at 0, on a knot, at +-100 and off the knots; y from 1e-9 to 1e4
ORACLE_ZS = [complex(x, y) for x in (0.0, 3.0, -100.0, 100.0, 0.37)
             for y in (1e-9, 1e-4, 1.0, 20.0, 1e4)]


@pytest.mark.parametrize("family", sorted(ORACLE_PROFILES))
def test_poisson_transform_matches_quadrature_oracle(family):
    for omega in ORACLE_PROFILES[family]:
        w = ap.BeurlingWeight(omega)
        for z in ORACLE_ZS:
            u, ref = ap.poisson_transform(w, z), poisson_quadrature(omega, z)
            assert math.isfinite(ref) and ref >= 0
            tol = 1e-12 * ref if ref >= 1e-3 else 1e-15
            assert abs(u - ref) <= tol, (omega, z, u, ref)


def test_poisson_transform_keeps_relative_accuracy_near_the_axis():
    # u is 1e-9 to 1e-5 here, so the absolute tolerance above would let a
    # form that cancels to 1e-16 absolute (log(x^2 + (1+y)^2), or
    # Li2(1 - 1/(1+z)) for log_shift) pass; the closed forms keep ~1e-16 relative
    for omegas in ORACLE_PROFILES.values():
        for omega in omegas:
            for z in (1e-9j, 1e-6 + 1e-6j):
                u = ap.poisson_transform(ap.BeurlingWeight(omega), z)
                assert u == pytest.approx(poisson_quadrature(omega, z), rel=1e-12, abs=0)


def test_poisson_transform_array_equals_scalar_calls():
    zs = np.array(ORACLE_ZS).reshape(5, 5)
    for omegas in ORACLE_PROFILES.values():
        for omega in omegas:
            w = ap.BeurlingWeight(omega)
            batch = ap.poisson_transform(w, zs)
            assert batch.shape == zs.shape
            alone = [[ap.poisson_transform(w, complex(z)) for z in row] for row in zs]
            assert type(alone[0][0]) is float
            assert np.array_equal(batch, alone)


def test_poisson_bound_zero_profile():
    w = ap.BeurlingWeight(ap.OmegaProfile.tabulated([(0, 0), (100, 0)]))
    rep = ap.verify_poisson_bound(w, [1j, 2 + 3j, -5 + 0.5j])
    assert rep.a_fit == 0.0 and rep.b_fit == 0.0 and rep.max_deviation == 0.0


def test_poisson_bound_no_samples(log_shift):
    rep = ap.verify_poisson_bound(log_shift, [])
    assert rep.to_dict() == {"a_fit": 0.0, "b_fit": 0.0, "max_deviation": 0.0,
                             "worst_point": [0.0, 0.0], "n_samples": 0}


def test_poisson_bound_on_horizontal_line(log_square):
    samples = [complex(x, 1.0) for x in np.linspace(-50, 50, 21)]
    rep = ap.verify_poisson_bound(log_square, samples)
    assert rep.b_fit == 0.0  # one shared height
    assert 0 < rep.a_fit < 1.5
    # deviation peaks over the origin: log((x^2+4)/(x^2+2)) maximal at x = 0
    assert rep.worst_point == pytest.approx(1j)


def test_poisson_bound_linear_residual(log_shift):
    ys = np.geomspace(1.0, 100.0, 12)
    samples = [complex(0, y) for y in ys]
    rep = ap.verify_poisson_bound(log_shift, samples)
    devs = [abs(ap.poisson_transform(log_shift, z) - log_shift.omega(abs(z)))
            for z in samples]
    assert all(d <= rep.a_fit + rep.b_fit * z.imag + 1e-9
               for d, z in zip(devs, samples))


def test_weight_config_round_trip():
    for cfg in ({"family": "log_shift", "a": 2.0},
                {"family": "log_square"},
                {"family": "power", "gamma": 0.3},
                {"family": "tabulated", "knots": [[0.0, 0.0], [5.0, 1.0]]}):
        w = ap.BeurlingWeight.from_dict(cfg)
        assert w.to_dict() == cfg


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1e5), st.floats(0.0, 1e5))
def test_omega_monotone(s, t):
    omega = ap.OmegaProfile.log_shift(1.5)
    lo, hi = min(s, t), max(s, t)
    assert omega(lo) <= omega(hi) + 1e-12


def loop_oscillation(omega, t_cap):
    """check_axioms' oscillation scan as the per-window loop it replaced."""
    worst, arg = 1.0, (100.0, 100.0)
    x_hi = t_cap * 0.9
    if x_hi > 100.0:
        for x in np.geomspace(100.0, x_hi, 120):
            half = omega(x)
            ys = np.linspace(max(x - half, 0.0), min(x + half, t_cap), 41)
            wy, wx = omega(ys), omega(x)
            if wx <= 0:
                continue
            with np.errstate(divide="ignore"):
                r = np.where(wy > 0, np.maximum(wy / wx, wx / np.where(wy > 0, wy, 1.0)),
                             np.inf)
            j = int(np.argmax(r))
            if r[j] > worst:
                worst, arg = float(r[j]), (float(x), float(ys[j]))
    return worst, arg


def loop_disk_constant(w, radius_factor, eps_mode, n, seed, t_cap):
    """weights._disk_constant as the per-sample loop it replaced."""
    rng = np.random.default_rng(seed)
    hi = min(t_cap / 4 if math.isfinite(t_cap) else 1e3, 1e3)
    zs = np.geomspace(1.0, max(hi, 2.0), n) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
    worst = 1.0
    for z in zs:
        pz = w.p(z)
        if pz <= 0:
            continue
        r = radius_factor * pz
        zetas = z + r * np.sqrt(rng.uniform(0, 1, 16)) * np.exp(1j * rng.uniform(0, 2 * math.pi, 16))
        if math.isfinite(t_cap):
            zetas = zetas[np.abs(zetas) <= t_cap]
        p_zeta = w.p(zetas)
        if eps_mode:
            p_zeta = p_zeta[np.abs(zetas - z) <= radius_factor * p_zeta]
        if p_zeta.size:
            worst = max(worst, float(np.max(p_zeta)) / pz)
    return worst


LOOP_PROFILES = [
    ap.OmegaProfile.log_shift(2.5), ap.OmegaProfile.power(0.9),
    # zero up to t = 150 (skipped windows), then a steep piece
    ap.OmegaProfile.tabulated([(0, 0), (150, 0), (300, 2), (20000, 8)]),
    # ends at t = 600, so samples near it are cut off at t_cap
    ap.OmegaProfile.tabulated([(0, 0.5), (400, 1), (420, 4), (600, 4.5)]),
]


@pytest.mark.parametrize("omega", LOOP_PROFILES)
def test_axiom_sampling_matches_the_loops(omega):
    w = ap.BeurlingWeight(omega)
    t_cap = min(1e4, omega.t_max)
    rep = ap.check_axioms(w)
    assert (rep.oscillation_worst, rep.oscillation_argmax) == loop_oscillation(omega, t_cap)
    for factor, eps_mode, seed in ((1.0, False, 3), (0.1, True, 4), (0.5, True, 5)):
        want = loop_disk_constant(w, factor, eps_mode, 64, seed, t_cap)
        assert ap.weights._disk_constant(w, factor, eps_mode, 64, seed, t_cap) == want

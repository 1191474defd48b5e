import cmath
import math

import numpy as np
import pytest

import apinterp as ap
from apinterp.errors import DomainError, InvariantViolation
from apinterp.extension import V_SINGULAR
from apinterp.numutil import truncated_log_sums

from conftest import collapsing_pairs, wirtinger_stencil


@pytest.fixture(scope="module")
def lattice():
    return ap.generate(ap.FamilySpec("integer_lattice", {"window": 100}))


@pytest.fixture(scope="module")
def jet_setup(log_shift):
    rng = np.random.default_rng(3)
    v = ap.Variety([(complex(k, 0.0), 2 if k % 3 == 0 else 1)
                    for k in range(-20, 21)], window_radius=50.0)
    values = [tuple(complex(a, b) for a, b in rng.normal(size=(m, 2)))
              for m in v.mult]
    data = ap.InterpolationData.for_variety(v, values, alpha=1.0)
    sep = ap.SeparationRadii.from_profile(v, log_shift)
    return v, data, sep


def test_cutoff_shape_and_derivative_bound():
    cut = ap.CutoffSpec()
    assert cut.value(0.3) == 1.0 and cut.value(1.0) == 1.0
    assert cut.value(2.0) == 0.0 and cut.value(5.0) == 0.0
    assert 0.0 < cut.value(1.5) < 1.0
    assert cut.audit(10_000) <= 2.1
    grid = np.linspace(0.5, 2.5, 1001)
    vals = [cut.value(float(u)) for u in grid]
    assert min(vals) >= 0.0 and max(vals) <= 1.0
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))  # non-increasing


def test_separation_radii_disjointness_enforced(log_shift):
    v = ap.Variety([(0j, 1), (0.1 + 0j, 1)])
    with pytest.raises(InvariantViolation):
        ap.SeparationRadii.from_params(v, log_shift, delta=0.25, growth=0.0)
    sep = ap.SeparationRadii.from_profile(v, log_shift)
    d = abs(v.lam[1] - v.lam[0])
    assert d >= 2 * (sep.radii[0] + sep.radii[1])
    # Radii 0.5 and 0.25: disks D(lambda, 2 delta) overlap below distance
    # 1.5, which only the 4 * max(radii) = 2 pair cutoff reaches, not 1.
    radii = np.array([0.5, 0.25])
    for gap, overlaps in ((1.25, True), (np.nextafter(1.5, 0), True), (1.5, False),
                          (1.75, False)):
        lam = np.array([0j, complex(gap, 0)])
        if overlaps:
            with pytest.raises(InvariantViolation, match="overlap near 0j"):
                ap.SeparationRadii(lam, radii, 0.25, 0.0)
        else:
            ap.SeparationRadii(lam, radii, 0.25, 0.0)


@pytest.mark.parametrize("spec", [
    ("perturbed_lattice", {"half_count": 60, "seed": 21, "amplitude": 0.45}),
    ("strip_random", {"count": 400, "half_width": 20.0, "seed": 5}),
])
def test_separation_radii_delta_equals_all_pairs_minimum(spec, log_shift):
    v = ap.generate(ap.FamilySpec(*spec))
    sep = ap.SeparationRadii.from_profile(v, log_shift)
    shrink = np.exp(-sep.growth * np.maximum(log_shift.p(v.lam), 0.0) / v.mult)
    i, j = np.triu_indices(len(v), k=1)
    d = np.hypot(v.lam.real[i] - v.lam.real[j], v.lam.imag[i] - v.lam.imag[j])
    close = d < 1.0
    feasible = d[close] / (2 * (shrink[i][close] + shrink[j][close])) / 2.0
    assert close.sum() > 10
    assert sep.delta == min(0.25, feasible.min())


def test_smooth_interpolant_pointwise(jet_setup):
    v, data, sep = jet_setup
    for i in (0, 7, 25):
        lam = complex(v.lam[i])
        assert ap.smooth_interpolant(data, sep, lam) == data.values[i][0]
    far = 0.5 + 40j
    assert ap.smooth_interpolant(data, sep, far) == 0j
    mid = complex(v.lam[3]) + 0.5  # between lattice points, outside all disks
    assert ap.smooth_interpolant(data, sep, mid) == 0j


def test_jets_reproduced_by_finite_differences(jet_setup):
    v, data, sep = jet_setup
    n_theta = 32
    for i in (0, 9, 21):
        lam = complex(v.lam[i])
        rho = 0.5 * sep.radii[i]
        ring = [ap.smooth_interpolant(data, sep, lam + rho * cmath.exp(2j * math.pi * k / n_theta))
                for k in range(n_theta)]
        for l in range(int(v.mult[i])):
            coeff = sum(f * cmath.exp(-2j * math.pi * k * l / n_theta)
                        for k, f in enumerate(ring)) / n_theta / rho ** l
            assert abs(coeff - data.values[i][l]) <= 1e-6 * max(1.0, abs(data.values[i][l]))


def test_dbar_zero_regions(jet_setup):
    v, data, sep = jet_setup
    i = 5
    lam = complex(v.lam[i])
    assert ap.dbar_defect(data, sep, lam + 0.5 * sep.radii[i]) == 0j
    assert ap.dbar_defect(data, sep, lam + 0.5 + 0.3j) == 0j  # between disks
    assert ap.dbar_defect(data, sep, 1000 + 0j) == 0j


def test_dbar_supported_inside_annuli(jet_setup):
    v, data, sep = jet_setup
    rng = np.random.default_rng(8)
    for _ in range(200):
        z = complex(rng.uniform(-25, 25), rng.uniform(-1, 1))
        val = ap.dbar_defect(data, sep, z)
        if val != 0j:
            d = np.abs(z - v.lam)
            i = int(np.argmin(d))
            assert sep.radii[i] <= d[i] <= 2 * sep.radii[i]


def test_dbar_matches_wirtinger_stencil(jet_setup):
    v, data, sep = jet_setup
    i = 5
    lam = complex(v.lam[i])
    delta = sep.radii[i]
    z = lam + math.sqrt(1.5) * delta * cmath.exp(0.7j)
    analytic = ap.dbar_defect(data, sep, z)
    f = lambda zz: ap.smooth_interpolant(data, sep, zz)
    err_h = abs(wirtinger_stencil(f, z, 1e-3 * delta) - analytic)
    err_h2 = abs(wirtinger_stencil(f, z, 5e-4 * delta) - analytic)
    assert err_h <= 1e-3 * max(1.0, abs(analytic))
    assert err_h2 <= err_h / 2.0  # second order in the step


def test_interpolant_linear_in_data(jet_setup):
    v, data, sep = jet_setup
    rng = np.random.default_rng(4)
    other = ap.InterpolationData.for_variety(
        v, [tuple(complex(a, b) for a, b in rng.normal(size=(m, 2))) for m in v.mult])
    combined = ap.InterpolationData.for_variety(
        v, [tuple(x + 2 * y for x, y in zip(r1, r2))
            for r1, r2 in zip(data.values, other.values)])
    for z in (complex(v.lam[2]) + 0.1, complex(v.lam[11]) + 0.15j, 3.0 + 0.2j):
        lhs = ap.smooth_interpolant(combined, sep, z)
        rhs = (ap.smooth_interpolant(data, sep, z)
               + 2 * ap.smooth_interpolant(other, sep, z))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        lhs_d = ap.dbar_defect(combined, sep, z)
        rhs_d = ap.dbar_defect(data, sep, z) + 2 * ap.dbar_defect(other, sep, z)
        assert lhs_d == pytest.approx(rhs_d, rel=1e-12, abs=1e-12)


def test_growth_report_zero_and_doubling(jet_setup, log_shift):
    v, data, sep = jet_setup
    zero = ap.InterpolationData.for_variety(v, [tuple(0j for _ in range(m)) for m in v.mult])
    rep0 = ap.dbar_growth_report(zero, sep, log_shift)
    assert rep0.k_fit == 0.0 and rep0.integral_dbar == 0.0
    rep1 = ap.dbar_growth_report(data, sep, log_shift)
    rep2 = ap.dbar_growth_report(data.scaled(2.0), sep, log_shift)
    assert rep2.log_sup - rep1.log_sup == pytest.approx(math.log(2), abs=1e-9)
    assert rep1.k_fit > 0 and math.isfinite(rep1.integral_f)
    for rep in (rep0, rep1, rep2):
        assert all(type(v) in (int, float) for v in vars(rep).values()), vars(rep)


def test_growth_report_unit_data_on_lattice(lattice, log_shift):
    unit = ap.InterpolationData.for_variety(
        lattice, [(1 + 0j,) for _ in range(len(lattice))], alpha=0.0)
    sep = ap.SeparationRadii.from_profile(lattice, log_shift)
    rep = ap.dbar_growth_report(unit, sep, log_shift)
    assert 0 < rep.k_fit < 5 * sep.growth + 2.0  # log(1/delta) scale over p
    assert math.isfinite(rep.integral_f) and math.isfinite(rep.integral_dbar)
    assert rep.gamma == pytest.approx(2 * rep.k_fit + 2.0)


def test_certificate_scales(jet_setup, log_shift):
    v, data, sep = jet_setup
    c1 = data.certificate(log_shift)
    c2 = data.scaled(3.0).certificate(log_shift)
    assert c2 == pytest.approx(3 * c1, rel=1e-12)


def test_singular_weight_values(lattice, log_shift):
    eps = 0.1
    assert ap.singular_weight(lattice, log_shift, eps, 0.5 + 50j) == 0.0
    lam = 30 + 0j
    p = log_shift.p(lam)
    boundary = lam + eps * p
    assert ap.singular_weight(lattice, log_shift, eps, boundary) == pytest.approx(0.0, abs=1e-12)
    half = lam + eps * p / 2
    assert ap.singular_weight(lattice, log_shift, eps, half) == pytest.approx(
        math.log(0.25) + 1 - 0.25, abs=1e-12)
    assert ap.singular_weight(lattice, log_shift, eps, lam) == V_SINGULAR


def test_singular_weight_nonpositive_everywhere(lattice, log_shift):
    rng = np.random.default_rng(12)
    for _ in range(500):
        z = complex(rng.uniform(-60, 60), rng.uniform(-2, 2))
        val = ap.singular_weight(lattice, log_shift, 0.1, z)
        assert val <= 0.0 or val == V_SINGULAR


def test_singular_weight_c1_boundary_matching():
    # the bracket u -> log u^2... is value- and slope-flat at the boundary:
    # g(d) = log(d^2/c^2) + 1 - d^2/c^2 has g(c) = 0 and g'(c) = 0
    c = 2.37
    g = lambda d: math.log(d * d / (c * c)) + 1 - d * d / (c * c)
    gp = lambda d: 2 / d - 2 * d / (c * c)
    assert g(c) == pytest.approx(0.0, abs=1e-15)
    assert gp(c) == pytest.approx(0.0, abs=1e-15)
    d = c * (1 - 1e-7)
    assert abs(g(d)) < 1e-13


def test_penalized_weight_composition(lattice, log_shift):
    z = 12.3 + 0.4j
    beta = 2.5
    expected = beta * log_shift.p(z) + ap.singular_weight(lattice, log_shift, 0.1, z)
    assert ap.penalized_weight(lattice, log_shift, 0.1, beta, z) == pytest.approx(expected)


def test_subharmonic_audit_reports_beta0(lattice, log_shift):
    # samples inside the singular disks of far-out lattice points, off the axis
    samples = []
    for x in (40, 60, 80, 95):
        p = log_shift.p(complex(x, 0))
        samples.append(complex(x, 0.45 * 0.1 * p))
    audit = ap.subharmonic_audit(lattice, log_shift, 0.1, samples, h=0.01)
    assert audit.beta0 > 0
    assert audit.worst_residual >= -1e-6
    # a clearly larger beta keeps every stencil nonnegative as well
    for z in samples:
        p_cache = log_shift.p(lattice.lam)
        h = 0.01
        vals = [ap.penalized_weight(lattice, log_shift, 0.1, 2 * audit.beta0 + 1, z + off)
                for off in (0, h, -h, 1j * h, -1j * h)]
        lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / (h * h)
        assert lap >= -1e-6


def test_singularity_exponent_near_point(lattice, log_shift):
    # psi - 2 m log|z - lambda| stays bounded on shrinking rings
    lam = 50 + 0j
    eps, beta = 0.1, 3.0
    m = 1
    vals = []
    for rho in (1e-3, 1e-4, 1e-5):
        z = lam + rho * cmath.exp(0.3j)
        psi = ap.penalized_weight(lattice, log_shift, eps, beta, z)
        vals.append(psi - 2 * m * math.log(rho))
    assert max(vals) - min(vals) < 0.1
    # and the log-slope of psi itself is 2m
    z1 = lam + 1e-3
    z2 = lam + 1e-5
    s1 = ap.singular_weight(lattice, log_shift, eps, z1)
    s2 = ap.singular_weight(lattice, log_shift, eps, z2)
    slope = (s1 - s2) / (math.log(1e-3) - math.log(1e-5))
    assert slope == pytest.approx(2 * m, rel=1e-3)


def test_annulus_counting_lattice_bounded(lattice, log_shift):
    radii = ap.default_radii(lattice.window_radius)
    rep = ap.annulus_counting_report(lattice, log_shift, radii)
    assert rep.trend.verdict == "bounded-evidence"
    assert rep.c_eps >= 1.0
    assert rep.domination < 10.0


def test_annulus_counting_collapsing_divergent(log_shift):
    v = collapsing_pairs()
    radii = ap.default_radii(v.window_radius)
    rep = ap.annulus_counting_report(v, log_shift, radii)
    assert rep.trend.verdict == "divergence-evidence"
    assert rep.constants[-1] > 2 * rep.constants[0]


def test_annulus_counting_singleton(log_shift):
    v = ap.Variety([(40 + 0j, 1)], window_radius=400)
    radii = [45, 60, 90, 180]
    rep = ap.annulus_counting_report(v, log_shift, radii)
    sep = ap.SeparationRadii.from_profile(v, log_shift)
    ring = math.sqrt(1.5) * sep.radii[0]
    expected = 0.0
    for theta in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
        z = 40 + ring * cmath.exp(1j * theta)
        pz = log_shift.p(z)
        expected = max(expected,
                       ap.integrated_count(v, z, rep.c_eps * pz) / max(pz, 1.0))
    assert rep.constants[-1] == pytest.approx(expected, rel=1e-9)


def test_annulus_counting_equals_per_sample_integrated_count(log_shift):
    # The batched ring samples against one integrated_count call per sample,
    # bit for bit; points near the origin have p(lambda) < 1, so the P_MIN
    # floor of the domination ratio is exercised.
    v = ap.generate(ap.FamilySpec("perturbed_lattice",
                                  {"half_count": 30, "seed": 4, "amplitude": 0.45}))
    radii = ap.default_radii(v.window_radius)
    sep = ap.SeparationRadii.from_profile(v, log_shift)
    rep = ap.annulus_counting_report(v, log_shift, radii, sep=sep)
    p_lam = log_shift.p(v.lam)
    assert np.min(p_lam) < 1.0
    excl = truncated_log_sums(v.lam, v.mult, v.lam, rep.c_prime * p_lam)
    ratios, domination = [], 0.0
    for i, lam in enumerate(v.lam):
        ring = math.sqrt(1.5) * sep.radii[i]
        worst = 0.0
        for theta in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
            z = complex(lam) + ring * complex(math.cos(theta), math.sin(theta))
            pz = log_shift.p(z)
            worst = max(worst, ap.integrated_count(v, z, rep.c_eps * pz) / max(pz, 1.0))
        ratios.append(worst)
        domination = max(domination, worst * max(p_lam[i], 1.0) / (p_lam[i] + excl[i]))
    abs_lam = np.abs(v.lam)
    assert rep.constants == [max(x for x, a in zip(ratios, abs_lam) if a <= r)
                             for r in radii]
    assert rep.domination == domination


def test_annulus_counting_sample_at_zero_weight_raises(log_shift):
    # A ring sample landing on z = 0, where p vanishes, gives a zero disk
    # radius: an error, as for integrated_count, not a silent 0.
    delta = 0.25
    v = ap.Variety([(complex(-math.sqrt(1.5) * delta, 0.0), 1), (10 + 0j, 1)],
                   window_radius=40.0)
    sep = ap.SeparationRadii.from_params(v, log_shift, delta, 0.0)
    with pytest.raises(DomainError, match="radius must be positive"):
        ap.annulus_counting_report(v, log_shift, [2.5, 5.0, 10.0, 20.0], sep=sep)


def test_jets_file_round_trip(tmp_path, jet_setup):
    v, data, sep = jet_setup
    path = tmp_path / "jets.json"
    ap.save_jets(data, path)
    v2, data2 = ap.load_jets(path, window_radius=v.window_radius)
    assert np.array_equal(v2.lam, v.lam)
    assert np.array_equal(v2.mult, v.mult)
    assert data2.values == data.values


def test_interpolation_data_validation(log_shift):
    v = ap.Variety([(0j, 2)])
    with pytest.raises(DomainError):
        ap.InterpolationData.for_variety(v, [(1.0,)])  # needs two values


def test_non_finite_jet_values_rejected(tmp_path):
    # json reads NaN, so a non-finite value must be caught by for_variety,
    # not turn the growth report's integrals into nan next to a finite k_fit
    path = tmp_path / "jets.json"
    path.write_text('{"jets": [{"re": 0.0, "im": 0.0, "values": [[NaN, 0.0]]},'
                    ' {"re": 1.0, "im": 0.0, "values": [[1.0, 0.0]]}]}')
    with pytest.raises(DomainError, match="finite"):
        ap.load_jets(path)
    v = ap.Variety([(0j, 2), (1 + 0j, 1)])
    with pytest.raises(DomainError, match="finite"):
        ap.InterpolationData.for_variety(v, [(1.0, complex(0.0, math.inf)), (2.0,)])

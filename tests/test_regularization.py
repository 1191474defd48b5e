import math

import numpy as np
import pytest
from scipy.integrate import quad

import apinterp as ap
from apinterp import regularization as reg
from apinterp.errors import ConstructionError, DomainError


@pytest.fixture(scope="module")
def constant_weight():
    return ap.BeurlingWeight(ap.OmegaProfile.tabulated([(0.0, 1.0), (60.0, 1.0)]))


@pytest.fixture(scope="module")
def constant_reg(constant_weight):
    part = ap.build_partition(constant_weight, 30.0)
    return reg.RegularizedWeight(constant_weight, part)


@pytest.fixture(scope="module")
def log_shift_reg(log_shift):
    part = ap.build_partition(log_shift, 300.0)
    return reg.RegularizedWeight(log_shift, part)


def test_constant_profile_gives_unit_intervals(constant_weight):
    part = ap.build_partition(constant_weight, 10.0)
    pos = part.positive_side()
    assert len(pos) == 10
    assert pos[0].left == 0.0 and pos[-1].right == 10.0
    assert all(iv.right - iv.left == pytest.approx(1.0, abs=1e-12) for iv in pos)


@pytest.mark.parametrize("profile", [
    ap.OmegaProfile.log_shift(1.0),
    ap.OmegaProfile.log_square(),
    ap.OmegaProfile.power(0.5),
    ap.OmegaProfile.tabulated([(0, 0), (1, 0.5), (10, 2), (100, 4), (1000, 6), (100000, 10)]),
], ids=["log_shift", "log_square", "power", "tabulated"])
@pytest.mark.parametrize("t_extent", [5.0, 100.0, 1e4])
def test_partition_start_equals_the_full_bisection(profile, t_extent):
    # The bisection stops once lo and hi are adjacent; the 200 steps it used
    # to run always, kept here as the oracle, give the same t0 bits.
    w = ap.BeurlingWeight(profile)
    assert w.omega(0.0) < reg.OMEGA_FLOOR
    lo, hi = 0.0, t_extent
    for _ in range(200):
        mid = (lo + hi) / 2
        if w.omega(mid) >= reg.OMEGA_FLOOR:
            hi = mid
        else:
            lo = mid
    assert ap.build_partition(w, t_extent).t_inner == hi


def test_partition_tiling_and_centers(log_shift):
    part = ap.build_partition(log_shift, 100.0)
    audit = part.audit()
    assert audit.max_gap < 1e-8
    assert audit.max_center_error < 1e-8
    pos = part.positive_side()
    lengths = [iv.omega for iv in pos]
    assert all(b >= a for a, b in zip(lengths, lengths[1:]))  # grows with x
    # interval length equals the profile at the center, by construction
    for iv in pos[::7]:
        assert iv.omega == pytest.approx(log_shift.omega(abs(iv.center)), abs=1e-9)


def test_partition_mirror_symmetry(log_shift):
    part = ap.build_partition(log_shift, 50.0)
    pos = part.positive_side()
    neg = [iv for iv in part.intervals if iv.center < 0]
    assert len(pos) == len(neg)
    for a, b in zip(pos, reversed(neg)):
        assert a.center == -b.center and a.left == -b.right and a.right == -b.left


def test_partition_rejects_flat_profile():
    w = ap.BeurlingWeight(ap.OmegaProfile.tabulated([(0.0, 0.0), (10.0, 1e-6)]))
    with pytest.raises(ConstructionError):
        ap.build_partition(w, 5.0)


def test_circular_mean_log_branches():
    assert ap.circular_mean_log(2 + 0j, 0j, 1.0) == pytest.approx(math.log(2), abs=1e-15)
    assert ap.circular_mean_log(5j, 5j, 2.0) == pytest.approx(math.log(2) - 0.5, abs=1e-15)
    # both branches agree on the boundary circle
    inside = ap.circular_mean_log(1 + 0j, 0j, 1.0)
    assert inside == pytest.approx(math.log(1.0), abs=1e-15)


def test_mean_log_gap_values():
    assert ap.mean_log_gap(3 + 0j, 0.0, 1.0) == 0.0
    got = ap.mean_log_gap(0.5 + 0j, 0.0, 1.0)
    assert got == pytest.approx(-0.375 - math.log(0.5), abs=1e-12)
    assert got == pytest.approx(0.318147, abs=1e-6)
    assert ap.mean_log_gap(0j, 0.0, 1.0) == math.inf


def test_mean_log_gap_nonnegative_everywhere():
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        radius = rng.uniform(0.1, 5.0)
        x = rng.uniform(-3, 3)
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert ap.mean_log_gap(z, x, radius) >= -1e-12


def test_correction_zero_off_supports(log_shift_reg):
    part = log_shift_reg.partition
    z = complex(50.0, 10 * part.max_omega + 1.0)
    assert ap.potential_correction(log_shift_reg, z) == 0.0
    assert ap.regularized_p(log_shift_reg, z) == abs(z.imag)


def test_correction_nonnegative_on_strip(log_shift, log_shift_reg):
    xs = np.geomspace(2.0, 200.0, 25)
    for x in xs:
        for frac in (-1.5, -0.5, 0.0, 0.7, 1.9):
            z = complex(x, frac * log_shift.omega(x))
            assert ap.potential_correction(log_shift_reg, z) >= -1e-8


def test_correction_scale_at_interval_center(log_shift, log_shift_reg):
    pos = log_shift_reg.partition.positive_side()
    iv = min(pos, key=lambda i: abs(i.center - 100))
    r = ap.potential_correction(log_shift_reg, complex(iv.center, 0.0))
    assert 0.5 * iv.omega <= r <= 50 * iv.omega
    # frozen from a 2e6-sample Monte Carlo of the defining double integral
    # (single-interval value 16.2041 +- 0.002 at this center)
    single = float(reg._interval_correction(iv.left, iv.right, iv.omega, iv.center, 0.0))
    assert single == pytest.approx(16.2032, abs=0.01)


def _quadrature_correction(part, z):
    """r(z) as a sum of per-interval quadratures of mean_log_gap, with
    breakpoints at Re z and at the chord ends of each smearing disk."""
    terms = []
    for iv in part.intervals:
        radius = reg.SMEAR_FACTOR * iv.omega
        if abs(z.imag) >= radius:
            continue
        half = math.sqrt(radius * radius - z.imag * z.imag)
        if iv.right <= z.real - half or iv.left >= z.real + half:
            continue
        points = [p for p in (z.real - half, z.real, z.real + half)
                  if iv.left < p < iv.right]
        # the log singularity at x = Re z is integrable; its one point is dropped
        val, _ = quad(lambda x: ap.mean_log_gap(z, x, radius) if x != z.real else 0.0,
                      iv.left, iv.right, points=points or None,
                      epsabs=1e-300, epsrel=2e-14, limit=400)
        terms.append(val)
    return math.fsum(terms)


ORACLE_PROFILES = {
    "log_shift": ap.OmegaProfile.log_shift(1.0),
    "log_square": ap.OmegaProfile.log_square(),
    "power": ap.OmegaProfile.power(0.5),
    "tabulated": ap.OmegaProfile.tabulated([(0.0, 0.5), (50.0, 2.0), (1000.0, 6.0)]),
}


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("name", sorted(ORACLE_PROFILES))
def test_correction_matches_quadrature_oracle(name):
    w = ap.BeurlingWeight(ORACLE_PROFILES[name])
    rw = ap.regularize(w, 300.0)
    pos = rw.partition.positive_side()
    zs = []
    for x in (15.0, 40.0):
        iv = min(pos, key=lambda i: abs(i.center - x))
        top = reg.SMEAR_FACTOR * iv.omega
        zs += [complex(iv.center, 0.0), complex(iv.left, 0.0), complex(iv.right, 0.0),
               complex(-iv.center, 0.0), complex(iv.left + 1e-7 * iv.omega, 0.0),
               complex(iv.center, 0.3 * iv.omega),
               complex(iv.center, -0.5 * top), complex(iv.center, top * (1 - 1e-9)),
               complex(iv.left, -top * (1 - 1e-12))]
    assert max(abs(z.real) for z in zs) < rw.reliable_half_width
    for z in zs:
        got = ap.potential_correction(rw, z)
        want = _quadrature_correction(rw.partition, z)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), z


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_correction_near_a_flat_disk_edge_is_absolutely_accurate(constant_reg):
    # with every radius equal, r vanishes like (10 omega - |Im z|)^(5/2); the
    # closed form keeps an absolute error of a few eps * omega, so its
    # relative error grows there, as does the quadrature's
    iv = constant_reg.partition.positive_side()[12]
    for gap in (1e-2, 1e-4, 1e-6, 1e-9):
        z = complex(iv.center, 10.0 * iv.omega * (1 - gap))
        got = ap.potential_correction(constant_reg, z)
        want = _quadrature_correction(constant_reg.partition, z)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * iv.omega)
    z = complex(iv.center, 10.0 * iv.omega)
    assert ap.potential_correction(constant_reg, z) == 0.0


@pytest.mark.parametrize("term, f", [(reg._interval_correction, ap.potential_correction),
                                     (reg._chord_density, ap.measure_density)])
def test_batch_values_are_each_window_1d_sum(log_shift_reg, term, f):
    # each point's value is the plain 1-d numpy sum over its own window, so a
    # grid keeps the bits of one call per point
    part = log_shift_reg.partition
    x, y = np.meshgrid(np.linspace(-230, 230, 47), np.linspace(-35, 35, 15))
    z = (x + 1j * y).ravel()
    lo, hi = part.near(z.real)
    assert np.unique(hi - lo).size > 10
    want = [float(term(part._left[a:b], part._right[a:b], part._omega[a:b], p.real, p.imag).sum())
            for p, a, b in zip(z, lo, hi)]
    assert f(log_shift_reg, z).tolist() == want


def test_regularized_p_axis_ratio_window(log_shift, log_shift_reg):
    # away from the origin the correction is a stable multiple of the profile
    for x in np.geomspace(5.0, 240.0, 12):
        ratio = ap.regularized_p(log_shift_reg, complex(x, 0.0)) / log_shift.p(complex(x, 0.0))
        assert 0.2 <= ratio <= 20.0


def test_regularized_p_conjugation_symmetry(log_shift_reg):
    for z in (30 + 1.2j, 111.5 + 0.4j, 60.25 + 3j):
        a = ap.regularized_p(log_shift_reg, z)
        b = ap.regularized_p(log_shift_reg, z.conjugate())
        assert a == pytest.approx(b, abs=1e-9)


def test_reliable_region_enforced(log_shift_reg):
    with pytest.raises(DomainError):
        ap.potential_correction(log_shift_reg, complex(290.0, 0.0))


def test_mass_audit_balances(log_shift_reg, constant_reg):
    for rw in (log_shift_reg, constant_reg):
        part = rw.partition
        for idx in range(0, len(part), max(1, len(part) // 6)):
            audit = ap.interval_mass_audit(part, idx)
            omega_n = part.intervals[idx].omega
            assert abs(audit.discrepancy) <= 1e-8 * omega_n
            assert audit.nu_mass == pytest.approx(omega_n, abs=1e-9)


def test_laplacian_matches_density_with_richardson(constant_reg):
    pos = constant_reg.partition.positive_side()
    z = complex(pos[15].center, 0.5)
    a1 = ap.laplacian_audit(constant_reg, z, 0.05)
    a2 = ap.laplacian_audit(constant_reg, z, 0.025)
    # analytic density: total chord length / (100 pi omega^2), omega = 1
    chord = 2 * math.sqrt(100.0 - 0.25)
    assert a1.density == pytest.approx(chord / (100 * math.pi), rel=1e-12)
    assert a1.expected == pytest.approx(2 * math.pi * a1.density, rel=1e-15)
    assert abs(a1.residual) < 5e-6
    ratio = a1.residual / a2.residual
    assert 3.0 <= ratio <= 5.0


def test_laplacian_zero_above_supports(constant_reg):
    z = complex(15.0, 10.0 * constant_reg.partition.max_omega + 2.0)
    audit = ap.laplacian_audit(constant_reg, z, 0.05)
    assert audit.stencil == 0.0 and audit.density == 0.0


def test_laplacian_guards_stencil(constant_reg):
    with pytest.raises(DomainError):
        ap.laplacian_audit(constant_reg, complex(15.0, 0.05), 0.05)


def test_density_skip_and_quadrature_paths_agree(log_shift, log_shift_reg):
    # just outside every support the lookup path and the integral both give 0
    part = log_shift_reg.partition
    z = complex(80.0, 10 * part.max_omega + 0.5)
    assert ap.measure_density(log_shift_reg, z) == 0.0
    assert ap.potential_correction(log_shift_reg, z) == 0.0

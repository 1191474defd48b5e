"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them inline).  Every tolerance is pinned here, not configured elsewhere.
"""

import json
import math

import numpy as np
import pytest

import apinterp as ap
import apinterp.cli as cli

from conftest import collapsing_pairs, jensen_quadrature, poisson_quadrature, wirtinger_stencil

LOG_SHIFT = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
LOG_SQUARE = ap.BeurlingWeight(ap.OmegaProfile.log_square())


def report(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    return ok


def test_criterion_1_dyadic_angle_reproduction():
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": 14}))
    radii = ap.default_radii(v.window_radius)
    sweep_a = ap.condition_a_constants(v, LOG_SHIFT, radii)
    sweep_b = ap.condition_b_constants(v, LOG_SHIFT, radii)
    slope_a = ap.classify_trend(radii, sweep_a.constants).exponent
    slope_b = ap.classify_trend(radii, sweep_b.constants).exponent

    ok_a = report("criterion 1a: dyadic angle condition-a slope < 0.05",
                  slope_a < 0.05, f"slope={slope_a:.4f}")

    # brute-force per-generation oracle for the balayage increment at x = 0,
    # summed in plain Python independent of the library kernels
    ok_inc = True
    for n in range(6, 15):
        h = float(2 ** n)
        inc = sum(h / (x * x + h * h) for x in np.arange(-h + 1.0, h, 2.0))
        if abs(inc - math.pi / 4) > 0.10 * (math.pi / 4):
            ok_inc = False
        row = ap.generators.dyadic_row(n)
        if abs(ap.balayage_value(row, 0.0) - inc) > 1e-9:
            ok_inc = False
    ok_inc = report("criterion 1c: balayage increments pi/4 +- 10% (gens 6..14)",
                    ok_inc)

    ok_b = report("criterion 1b: dyadic angle condition-b slope > 0.2",
                  slope_b > 0.2, f"slope={slope_b:.4f}")
    assert ok_a and ok_inc
    # The per-radius suprema grow by ~pi/4 per included generation, i.e.
    # logarithmically in the radius, so the measured log-log slope sits
    # near 0.1 and cannot exceed the stated 0.2 threshold; see the decisions
    # ledger for the full analysis.  The criterion is asserted as stated.
    assert ok_b, (
        f"condition-b log-log slope is {slope_b:.4f}, not > 0.2: constants "
        f"{[round(c, 3) for c in sweep_b.constants]} grow logarithmically in "
        "the radius (about pi/4 per generation), which this threshold cannot detect")


def test_criterion_2_integer_lattice_sanity():
    v = ap.generate(ap.FamilySpec("integer_lattice", {"window": 2e4}))
    radii = ap.default_radii(v.window_radius)
    sweep_a = ap.condition_a_constants(v, LOG_SHIFT, radii)
    last = sweep_a.constants[-1]
    # direct-summation oracle at R = 1e4: distances 1..9 on each side
    p = math.log(1 + 1e4)
    oracle = 2 * sum(math.log(p / d) for d in range(1, int(p) + 1)) / p
    ok_val = report("criterion 2: lattice condition-a constant in [1.40, 1.75]",
                    1.40 <= last <= 1.75, f"value={last:.5f} oracle={oracle:.5f}")
    sweep_b = ap.condition_b_constants(v, LOG_SHIFT, radii)
    ok_zero = report("criterion 2: lattice condition-b identically zero",
                     all(c == 0.0 for c in sweep_b.constants))
    assert ok_val and abs(last - oracle) < 1e-9 and ok_zero


def test_criterion_3_counting_oracle_equivalence():
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 51))
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        r = rng.uniform(0.5, 8.0)
        pts = []
        for _ in range(n):
            d = rng.uniform(0.01 * r, 2.2 * r)
            ang = rng.uniform(0, 2 * math.pi)
            pts.append((z + d * math.cos(ang) + 1j * d * math.sin(ang),
                        int(rng.integers(1, 4))))
        v = ap.Variety(pts)
        closed = ap.integrated_count(v, z, r)
        quad = ap.integrated_count_oracle(v, z, r, steps=20000)
        if closed != 0.0:
            worst = max(worst, abs(closed - quad) / abs(closed))
    ok = report("criterion 3: closed form vs quadrature oracle, 100 random",
                worst < 1e-6, f"worst rel err={worst:.2e}")
    assert ok


def test_criterion_4_halfplane_identities():
    rng = np.random.default_rng(7)
    ok_exact, ok_quad = True, True
    for _ in range(20):
        pts = [(complex(rng.uniform(-6, 6), rng.uniform(0.2, 5.0)),
                int(rng.integers(1, 3))) for _ in range(int(rng.integers(3, 25)))]
        hv = ap.HalfPlaneVariety(pts)
        z = complex(rng.uniform(-4, 4), rng.uniform(0.3, 3.0))
        if np.any(np.abs(hv.lam - z) < 1e-9):
            continue
        closed = ap.hyperbolic_jensen(hv, z)
        if closed != -ap.log_blaschke_abs(hv, z):
            ok_exact = False
        if abs(closed - jensen_quadrature(hv, z)) > 1e-4 * max(1.0, closed):
            ok_quad = False
    ok_exact = report("criterion 4: jensen integral equals -log|B| exactly", ok_exact)
    ok_quad = report("criterion 4: jensen integral matches quadrature to 1e-4", ok_quad)

    K = 10_000
    hv = ap.HalfPlaneVariety([(complex(k, 1.0), 1) for k in range(-K, K + 1)])
    s = ap.blaschke_sum(hv, 1j)
    product = sum(math.log1p(4 / (k * k)) for k in range(1, K + 1))
    ok_line = report("criterion 4: line exclusion sum matches product identity",
                     abs(s - product) < 1e-3,
                     f"S={s:.6f} product={product:.6f}")
    # the infinite-line limit log(sinh(2 pi)/(2 pi)) is within the same window
    limit = math.log(math.sinh(2 * math.pi) / (2 * math.pi))
    assert abs(s - limit) < 1e-3
    assert ok_exact and ok_quad and ok_line


def test_criterion_5_poisson_transform_bound():
    u1 = ap.poisson_transform(LOG_SQUARE, 1j)
    u2 = poisson_quadrature(LOG_SQUARE.omega, 1j)
    ok_val = report("criterion 5: u(i) = 2 log 2, agreeing with quadrature",
                    abs(u1 - 2 * math.log(2)) < 1e-4 and abs(u1 - u2) < 1e-4,
                    f"u={u1:.8f}")
    samples = [complex(x, 1.0) for x in np.linspace(-1000, 1000, 81)]
    rep = ap.verify_poisson_bound(LOG_SQUARE, samples)
    ok_fit = report("criterion 5: |u - omega| <= A + B with finite A, B <= 1.5",
                    math.isfinite(rep.a_fit) and rep.b_fit <= 1.5,
                    f"A={rep.a_fit:.4f} B={rep.b_fit:.4f}")
    devs = [abs(ap.poisson_transform(LOG_SQUARE, z) - LOG_SQUARE.omega(abs(z)))
            for z in samples[::10]]
    assert all(d <= rep.a_fit + rep.b_fit * 1.0 + 1e-9 for d in devs)
    assert ok_val and ok_fit


def test_criterion_6_regularization_audit():
    from apinterp import regularization as reg
    part = ap.build_partition(LOG_SHIFT, 300.0)
    rw = reg.RegularizedWeight(LOG_SHIFT, part)

    xs = np.geomspace(2.0, 200.0, 200)
    fracs = (-1.9, -1.0, -0.3, 0.4, 1.5)
    worst = 0.0
    for x in xs:
        for f in fracs:
            z = complex(x, f * LOG_SHIFT.omega(x))
            worst = min(worst, ap.potential_correction(rw, z))
    ok_pos = report("criterion 6: r >= -1e-8 on 1000-point strip grid",
                    worst >= -1e-8, f"min r={worst:.2e}")

    above = all(ap.potential_correction(rw, complex(x, 10 * part.max_omega + 1.0)) == 0.0
                for x in np.linspace(-200, 200, 41))
    ok_zero = report("criterion 6: r identically zero above all supports", above)

    ok_mass = True
    for idx in range(0, len(part), max(1, len(part) // 10)):
        audit = ap.interval_mass_audit(part, idx)
        if abs(audit.discrepancy) > 1e-8 * part.intervals[idx].omega:
            ok_mass = False
    ok_mass = report("criterion 6: per-interval mass balance to 1e-8 * omega_n", ok_mass)

    wc = ap.BeurlingWeight(ap.OmegaProfile.tabulated([(0.0, 1.0), (60.0, 1.0)]))
    cpart = ap.build_partition(wc, 30.0)
    crw = reg.RegularizedWeight(wc, cpart)
    z = complex(cpart.positive_side()[15].center, 0.5)
    a1 = ap.laplacian_audit(crw, z, 0.05)
    a2 = ap.laplacian_audit(crw, z, 0.025)
    ratio = a1.residual / a2.residual
    ok_lap = report("criterion 6: stencil Laplacian matches density, Richardson in [3, 5]",
                    abs(a1.residual) < 1e-4 and 3.0 <= ratio <= 5.0,
                    f"residual={a1.residual:.2e} ratio={ratio:.3f}")
    assert ok_pos and ok_zero and ok_mass and ok_lap


def test_criterion_7_extension_suite():
    import cmath
    rng = np.random.default_rng(3)
    v = ap.Variety([(complex(k, 0.0), 2 if k % 3 == 0 else 1)
                    for k in range(-20, 21)], window_radius=50.0)
    values = [tuple(complex(a, b) for a, b in rng.normal(size=(m, 2)))
              for m in v.mult]
    data = ap.InterpolationData.for_variety(v, values)
    sep = ap.SeparationRadii.from_profile(v, LOG_SHIFT)

    ok_jets = True
    n_theta = 32
    for i in (0, 9, 27):
        lam = complex(v.lam[i])
        rho = 0.5 * sep.radii[i]
        ring = [ap.smooth_interpolant(data, sep, lam + rho * cmath.exp(2j * math.pi * k / n_theta))
                for k in range(n_theta)]
        for l in range(int(v.mult[i])):
            coeff = sum(f * cmath.exp(-2j * math.pi * k * l / n_theta)
                        for k, f in enumerate(ring)) / n_theta / rho ** l
            if abs(coeff - data.values[i][l]) > 1e-6 * max(1.0, abs(data.values[i][l])):
                ok_jets = False
    ok_jets = report("criterion 7: interpolant reproduces all jets to 1e-6", ok_jets)

    i = 5
    lam = complex(v.lam[i])
    zt = lam + math.sqrt(1.5) * sep.radii[i] * cmath.exp(0.7j)
    analytic = ap.dbar_defect(data, sep, zt)
    f = lambda zz: ap.smooth_interpolant(data, sep, zz)
    e1 = abs(wirtinger_stencil(f, zt, 1e-3 * sep.radii[i]) - analytic)
    e2 = abs(wirtinger_stencil(f, zt, 5e-4 * sep.radii[i]) - analytic)
    ok_dbar = report("criterion 7: dbar matches Wirtinger stencil at O(h^2)",
                     e1 < 1e-3 * max(1.0, abs(analytic)) and e2 < e1 / 2,
                     f"err(h)={e1:.2e} err(h/2)={e2:.2e}")

    c = 1.713
    bracket = lambda d: math.log(d * d / (c * c)) + 1 - d * d / (c * c)
    bracket_slope = lambda d: 2 / d - 2 * d / (c * c)
    lattice = ap.generate(ap.FamilySpec("integer_lattice", {"window": 100}))
    rng2 = np.random.default_rng(5)
    v_ok = all(ap.singular_weight(lattice, LOG_SHIFT, 0.1,
                                  complex(rng2.uniform(-60, 60), rng2.uniform(-2, 2)))
               <= 0.0 for _ in range(300))
    ok_v = report("criterion 7: singular weight <= 0 with exact C1 boundary",
                  v_ok and abs(bracket(c)) < 1e-15 and abs(bracket_slope(c)) < 1e-15)

    samples = [complex(x, 0.45 * 0.1 * LOG_SHIFT.p(complex(x, 0))) for x in (40, 60, 80, 95)]
    audit = ap.subharmonic_audit(lattice, LOG_SHIFT, 0.1, samples, h=0.01)
    ok_psi = report("criterion 7: penalized weight stencil-subharmonic at beta0",
                    audit.beta0 > 0 and audit.worst_residual >= -1e-6,
                    f"beta0={audit.beta0:.3f}")

    radii = ap.default_radii(lattice.window_radius)
    rep_l = ap.annulus_counting_report(lattice, LOG_SHIFT, radii)
    coll = collapsing_pairs()
    rep_c = ap.annulus_counting_report(coll, LOG_SHIFT, ap.default_radii(coll.window_radius))
    ok_ann = report("criterion 7: annulus counting bounded on lattice, divergent on collapse",
                    rep_l.trend.verdict == "bounded-evidence"
                    and rep_c.trend.verdict == "divergence-evidence",
                    f"lattice slope={rep_l.trend.exponent:.3f} collapse slope={rep_c.trend.exponent:.3f}")
    assert ok_jets and ok_dbar and ok_v and ok_psi and ok_ann


def test_criterion_8_invariant_suite(tmp_path):
    rng = np.random.default_rng(1)
    pts = [(complex(rng.uniform(-10, 10), rng.uniform(0.3, 4.0)),
            int(rng.integers(1, 4))) for _ in range(25)]
    v = ap.Variety(pts, window_radius=32)

    scaled = v.scale_mult(3)
    x1, s1 = ap.balayage_sup(v)
    x3, s3 = ap.balayage_sup(scaled)
    ok_scale = report("criterion 8: multiplicity scaling equivariance",
                      abs(s3 - 3 * s1) < 1e-9 * max(1, s1)
                      and abs(ap.integrated_count(scaled, 0.5j + 1, 5.0)
                              - 3 * ap.integrated_count(v, 0.5j + 1, 5.0)) < 1e-9)

    conj = v.conjugate()
    ok_conj = report("criterion 8: conjugation symmetry",
                     all(abs(ap.balayage_value(v, x) - ap.balayage_value(conj, x)) < 1e-12
                         for x in np.linspace(-10, 10, 11))
                     and ap.count_in_disk(v, 2 + 1j, 3.0) == ap.count_in_disk(conj, 2 - 1j, 3.0))

    fam = '{"family":"dyadic_angle","n_min":1,"n_max":5}'
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert cli.main(["check", "--weight", '{"family":"log_shift","a":1.0}',
                         "--family", fam, "--out", str(path)]) == 0
    ok_bytes = report("criterion 8: reports byte-stable across runs",
                      a.read_bytes() == b.read_bytes())

    gen = tmp_path / "gen.json"
    assert cli.main(["generate", "--family", fam, "--out", str(gen)]) == 0
    code = cli.main(["check", "--weight", '{"family":"log_shift","a":1.0}',
                     "--input", str(gen), "--out", str(tmp_path / "chk.json")])
    payload = json.loads((tmp_path / "chk.json").read_text())
    ok_round = report("criterion 8: CLI round-trip consumes its own output",
                      code == 0 and payload["input"]["points"] == 62)
    assert ok_scale and ok_conj and ok_bytes and ok_round

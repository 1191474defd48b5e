"""The jet layer (`smooth_interpolant`, `dbar_defect`, `dbar_growth_report`)
against a golden corpus in tests/data and a direct-sum oracle.

Each file tests/data/jet_perturbed_lattice_<half_count>.json holds the
growth report and 20 pointwise values of F and dbar F on a seeded
perturbed_lattice under the log_shift weight, with seeded jet values and
separation radii from the profile (see `jet_case`).  The files were
written before the jet layer moved to arrays (commit dbd7762), from the
repository root, with

    PYTHONPATH=src:tests python -c "import test_jet_golden as g; g.write_goldens()"

Tolerances: `n_samples` is exact, `k_fit`, `gamma` and `log_sup` agree to
1e-14 relative, the two weighted integrals to 1e-12 relative, and every
pointwise value to 1e-14 relative (of the largest pinned modulus of its
kind, so that a value that rounds to zero is pinned absolutely).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import apinterp as ap

GOLDEN = Path(__file__).parent / "data"

CASES = {15: 7, 40: 0, 121: 3}  # half_count: seed

N_POINTWISE = 20


def jet_case(half_count: int, seed: int):
    """Variety, weight, jet data and separation radii of one golden case."""
    v = ap.generate(ap.FamilySpec("perturbed_lattice",
                                  {"half_count": half_count, "seed": seed}))
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
    rng = np.random.default_rng(seed)
    values = [tuple(complex(a, b) for a, b in rng.normal(size=(int(m), 2)))
              for m in v.mult]
    data = ap.InterpolationData.for_variety(v, values)
    sep = ap.SeparationRadii.from_profile(v, w)
    return v, w, data, sep


def pointwise_samples(v, sep, seed: int) -> list[complex]:
    """Seeded points around seeded configuration points, from the centre out
    to beyond the owning disk D(lambda, 2 delta): the core, the transition
    annulus and the zero region are all hit."""
    rng = np.random.default_rng(1000 + seed)
    k = rng.integers(0, len(v), N_POINTWISE)
    rho = np.sqrt(rng.uniform(0.0, 4.4, N_POINTWISE)) * sep.radii[k]
    return [complex(z) for z in v.lam[k] + rho * np.exp(2j * np.pi * rng.random(N_POINTWISE))]


def _pairs(zs):
    return [[z.real, z.imag] for z in zs]


def golden_payload(half_count: int, seed: int) -> dict:
    v, w, data, sep = jet_case(half_count, seed)
    zs = pointwise_samples(v, sep, seed)
    rep = ap.dbar_growth_report(data, sep, w)
    return {
        "report": vars(rep),
        "points": _pairs(zs),
        "interpolant": _pairs(ap.smooth_interpolant(data, sep, z) for z in zs),
        "dbar": _pairs(ap.dbar_defect(data, sep, z) for z in zs),
    }


def write_goldens() -> None:
    for half_count, seed in CASES.items():
        path = GOLDEN / f"jet_perturbed_lattice_{half_count}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden_payload(half_count, seed), fh, indent=1, allow_nan=False)
            fh.write("\n")


@pytest.mark.parametrize("half_count", sorted(CASES))
def test_jet_layer_matches_golden(half_count):
    want = json.loads((GOLDEN / f"jet_perturbed_lattice_{half_count}.json").read_text())
    got = golden_payload(half_count, CASES[half_count])
    rep, ref = got["report"], want["report"]
    assert sorted(rep) == sorted(ref)
    assert type(rep["n_samples"]) is int and rep["n_samples"] == ref["n_samples"]
    for key in ("k_fit", "gamma", "log_sup"):
        assert type(rep[key]) is float
        assert rep[key] == pytest.approx(ref[key], rel=1e-14, abs=0.0), key
    for key in ("integral_f", "integral_dbar"):
        assert type(rep[key]) is float
        assert rep[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0), key
    assert got["points"] == want["points"]
    for kind in ("interpolant", "dbar"):
        vals = np.array([complex(*p) for p in got[kind]])
        ref_vals = np.array([complex(*p) for p in want[kind]])
        scale = np.max(np.abs(ref_vals))
        assert scale > 0 and np.count_nonzero(ref_vals) < N_POINTWISE, kind
        assert np.all((vals == 0) == (ref_vals == 0)), kind
        assert np.max(np.abs(vals - ref_vals)) <= 1e-14 * scale, kind


def direct_report(data, sep, w) -> dict:
    """Every DbarGrowthReport field from one scalar smooth_interpolant or
    dbar_defect call per sample, with the sums taken by math.fsum.  The
    samples are the report's: per point, 5 rings sqrt(frac) delta with frac
    in linspace(1.05, 1.95, 5) for dbar F and 10 rings with frac in
    linspace(0.05, 1.95, 10) for F, 16 angles each."""
    thetas = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    dbar_rows, f_rows = [], []
    for lam, delta in zip(data.lam, sep.radii):
        for fracs, width, fn, rows in ((np.linspace(1.05, 1.95, 5), 0.9 / 5, ap.dbar_defect,
                                        dbar_rows),
                                       (np.linspace(0.05, 1.95, 10), 1.9 / 10,
                                        ap.smooth_interpolant, f_rows)):
            cell = math.pi * delta * delta * width / 16
            for rad in np.sqrt(fracs) * delta:
                for theta in thetas:
                    z = complex(lam) + rad * complex(math.cos(theta), math.sin(theta))
                    rows.append((abs(fn(data, sep, z)), w.p(z), cell))
    logs = [(math.log(val), p) for val, p, _ in dbar_rows if val > 0]
    log_sup = max((lv for lv, _ in logs), default=-math.inf)
    k_fit = max([0.0] + [lv / max(p, 1.0) for lv, p in logs])
    gamma = 2 * k_fit + 2.0
    return {
        "k_fit": k_fit, "gamma": gamma, "log_sup": log_sup,
        "n_samples": len(dbar_rows),
        "integral_f": math.fsum(f * f * math.exp(-gamma * p) * c for f, p, c in f_rows),
        "integral_dbar": math.fsum(d * d * math.exp(-gamma * p) * c for d, p, c in dbar_rows),
    }


@pytest.fixture(scope="module")
def mixed_jets():
    """Multiplicities 1, 2 and 3, so that the padded jet coefficients differ
    in length from point to point."""
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
    rng = np.random.default_rng(11)
    v = ap.Variety([(complex(k, rng.uniform(-0.3, 0.3)), 1 + k % 3)
                    for k in range(-12, 13)], window_radius=30.0)
    values = [tuple(complex(a, b) for a, b in rng.normal(size=(int(m), 2)))
              for m in v.mult]
    return v, w, ap.InterpolationData.for_variety(v, values)


@pytest.mark.parametrize("case", ["mixed", "lattice_15"])
def test_growth_report_equals_direct_sum(case, mixed_jets):
    if case == "mixed":
        v, w, data = mixed_jets
        sep = ap.SeparationRadii.from_profile(v, w)
    else:
        v, w, data, sep = jet_case(15, CASES[15])
    rep = vars(ap.dbar_growth_report(data, sep, w))
    want = direct_report(data, sep, w)
    assert sorted(rep) == sorted(want)
    assert rep["n_samples"] == want["n_samples"] == 80 * len(v)
    assert rep["integral_dbar"] > 0 and rep["integral_f"] > 0
    for key, val in want.items():
        assert rep[key] == pytest.approx(val, rel=1e-12, abs=0.0), key


def test_cutoff_returns_float_for_scalar():
    # np.frompyfunc over value/derivative needs plain floats back
    cut = ap.CutoffSpec()
    for u in (0.5, 1.0, 1.3, 1.5, 2.0, 3.0, np.float64(1.7)):
        assert type(cut.value(u)) is float
        assert type(cut.derivative(u)) is float
    grid = np.linspace(0.5, 2.5, 41)
    as_objects = np.frompyfunc(cut.derivative, 1, 1)(grid).astype(float)
    assert np.array_equal(as_objects, cut.derivative(grid))
    assert np.array_equal(np.frompyfunc(cut.value, 1, 1)(grid).astype(float),
                          cut.value(grid))

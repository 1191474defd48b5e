"""The benchmark's two workloads: seeded inputs and one job each.

A job is the list of public calls a user makes for one result; it returns
every output as bytes so repeats can be compared byte for byte.  Jobs call
the library through module attributes (``cli.main``, ``weights.check_axioms``)
so the traced run's wrappers see every call.  Sizes are chosen so that one
job takes about 1.5 s (``check-dyadic``) and 3.5 s (``strip-weight-jet``) on a
2-core x86-64 box, so one run of ``run_seconds`` holds about 15 to 30 jobs.  ``rungs`` gives the size ladder the
traced run uses for the N-exponents (smallest first, the full size last).

This module imports only what set-up needs (apinterp and numpy), because
``probe.py`` times a fresh interpreter through it.
"""

import json
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from apinterp import cli, conditions, extension, generators, weights
from apinterp.variety import save_variety

LOG_SHIFT = '{"family":"log_shift","a":1.0}'
LOG_SQUARE = '{"family":"log_square"}'


def no_phase(_name):
    return nullcontext()


def run_cli(args):
    """cli.main in-process; a non-zero status or a usage exit is a job failure."""
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise RuntimeError(f"apinterp {args[0]} exited with status {code}")


def dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


class CheckDyadic:
    """`check` then `profile-balayage` on dyadic_angle 1..n_max with log_shift(1).

    All points are strip-exterior and in the upper half, so the far-field
    O(N^2) kernels (Blaschke sweep, condition a, balayage) carry the job and
    the close-pair scan finds nothing.  The family has no seed; the seed
    jitters the profile window by up to 1% at each end.
    """

    name = "check-dyadic"
    sizes = {"n_max": 12, "samples": 4096}

    def rungs(self, sizes):
        return [dict(sizes, n_max=sizes["n_max"] + k) for k in (-2, -1, 0)]

    def inputs(self, seed, sizes, work_dir: Path) -> dict:
        rng = np.random.default_rng(seed)
        n = int(sizes["n_max"])
        h = float(2 ** n)
        return {
            "n_max": n,
            "n_points": 2 ** (n + 1) - 2,
            "family": json.dumps({"family": "dyadic_angle", "n_min": 1, "n_max": n}),
            "xmin": -h * (1.0 + 0.01 * rng.random()),
            "xmax": h * (1.0 + 0.01 * rng.random()),
            "samples": int(sizes["samples"]),
            "report": work_dir / "report.json",
            "profile": work_dir / "profile.csv",
        }

    def job(self, inp, phase=no_phase) -> dict:
        run_cli(["check", "--weight", LOG_SHIFT, "--family", inp["family"],
                 "--out", str(inp["report"])])
        run_cli(["profile-balayage", "--weight", LOG_SHIFT,
                 "--family", inp["family"], "--samples", str(inp["samples"]),
                 f"--xmin={inp['xmin']!r}", f"--xmax={inp['xmax']!r}",
                 "--out", str(inp["profile"])])
        return {"report": inp["report"].read_bytes(),
                "profile": inp["profile"].read_bytes()}


class CheckStrip:
    """Strip part of ``strip-weight-jet``: `check --input <csv>` on a seeded
    strip_random sample with log_shift(1).

    Dense points near the real axis: the pure-Python close-pair separation
    scan dominates, condition b is nearly empty, and CSV ingest is on the
    path.  A far-field kernel speed-up should leave this part unchanged.
    """

    def inputs(self, seed, sizes, work_dir: Path) -> dict:
        spec = generators.FamilySpec("strip_random", {
            "count": int(sizes["count"]), "seed": int(seed), "half_width": 100.0})
        csv_path = work_dir / "strip.csv"
        save_variety(generators.generate(spec), csv_path)
        return {"n_points": int(sizes["count"]), "csv": csv_path,
                "report": work_dir / "report.json"}

    def job(self, inp, phase=no_phase) -> dict:
        run_cli(["check", "--weight", LOG_SHIFT, "--input", str(inp["csv"]),
                 "--out", str(inp["report"])])
        return {"report": inp["report"].read_bytes()}


PROFILES = (("log_square", LOG_SQUARE), ("log_shift", LOG_SHIFT))


class WeightAudit:
    """Weight part of ``strip-weight-jet``.  Per profile: `regularize` on a
    grid, verify_poisson_bound on seeded upper-half-plane samples,
    check_axioms.  Quadrature layers only, no point kernel.  log_square has a
    closed-form Poisson transform and log_shift has none, so a closed-form
    change moves the first profile only.
    """

    def inputs(self, seed, sizes, work_dir: Path) -> dict:
        rng = np.random.default_rng(seed)
        n = int(sizes["poisson_samples"])
        return {
            "grid": {"xmin": 5.0 + rng.random(), "xmax": 100.0 + rng.random(),
                     "ymin": -2.0, "ymax": 2.0,
                     "nx": int(sizes["nx"]), "ny": int(sizes["ny"])},
            # Heights on a fixed log grid: quadrature cost depends mostly on the
            # height, so the job's cost does not drift with the seed.
            "samples": rng.uniform(-100.0, 100.0, n) + 1j * np.geomspace(0.1, 20.0, n),
            "out": work_dir,
        }

    def job(self, inp, phase=no_phase) -> dict:
        g = inp["grid"]
        out = {}
        for name, spec in PROFILES:
            with phase(name):
                path = inp["out"] / f"{name}-grid.csv"
                run_cli(["regularize", "--weight", spec,
                         f"--xmin={g['xmin']!r}", f"--xmax={g['xmax']!r}",
                         f"--ymin={g['ymin']!r}", f"--ymax={g['ymax']!r}",
                         "--nx", str(g["nx"]), "--ny", str(g["ny"]),
                         "--out", str(path)])
                w = weights.BeurlingWeight(weights.OmegaProfile.from_dict(json.loads(spec)))
                bound = weights.verify_poisson_bound(w, inp["samples"])
                axioms = weights.check_axioms(w)
                out[name + ".grid"] = path.read_bytes()
                out[name + ".poisson"] = dumps(bound.to_dict())
                out[name + ".axioms"] = dumps(axioms.to_dict())
        return out


class JetExtension:
    """Extension part of ``strip-weight-jet``.  On a seeded perturbed_lattice
    with seeded jet values: separation radii from the profile, dbar growth
    report, annulus counting report and the subharmonic audit.
    """

    def inputs(self, seed, sizes, work_dir: Path) -> dict:
        hc = int(sizes["half_count"])
        v = generators.generate(generators.FamilySpec(
            "perturbed_lattice", {"half_count": hc, "seed": int(seed)}))
        rng = np.random.default_rng(seed)
        values = [tuple(complex(a, b) for a, b in rng.normal(size=(int(m), 2)))
                  for m in v.mult]
        n = int(sizes["audit_samples"])
        # Half-integer abscissae stay >= 0.25 from the lattice points, and
        # |Im| >= 0.05 keeps the h = 0.02 stencil off the real axis.
        samples = (rng.integers(-hc, hc, n) + 0.5) + 1j * rng.uniform(0.05, 0.45, n)
        return {
            "n_points": len(v),
            "variety": v,
            "data": extension.InterpolationData.for_variety(v, values),
            "weight": weights.BeurlingWeight(weights.OmegaProfile.log_shift(1.0)),
            "radii": conditions.default_radii(v.window_radius),
            "eps": 0.1,
            "samples": [complex(z) for z in samples],
        }

    def job(self, inp, phase=no_phase) -> dict:
        v, w = inp["variety"], inp["weight"]
        sep = extension.SeparationRadii.from_profile(v, w)
        dbar = extension.dbar_growth_report(inp["data"], sep, w)
        ann = extension.annulus_counting_report(v, w, inp["radii"], sep=sep)
        sub = extension.subharmonic_audit(v, w, inp["eps"], inp["samples"])
        return {
            "radii": dumps({"delta": sep.delta, "growth": sep.growth,
                            "radii": sep.radii.tolist()}),
            "dbar": dumps(vars(dbar)),
            "annulus": dumps(ann.to_dict()),
            "subharmonic": dumps(vars(sub)),
        }


class StripWeightJet:
    """`check` on the strip, the weight audit, then the jet extension, as one
    job: every layer except the far-field kernels that ``check-dyadic``
    carries.  The three parts share one workload so that each run is long
    enough to be steady; they share no layer but ``cli.main`` and a small
    separation scan, so the traced run still keeps them apart.  Their outputs
    have disjoint keys.
    """

    name = "strip-weight-jet"
    sizes = {"count": 6000, "nx": 16, "ny": 9, "poisson_samples": 24,
             "half_count": 60, "audit_samples": 100}
    strip, weight, jet = CheckStrip(), WeightAudit(), JetExtension()

    def rungs(self, sizes):
        """The ladder scales the strip and the lattice together; the weight
        part keeps its size.  N is the strip's point count."""
        return [dict(sizes, count=int(sizes["count"]) // k,
                     half_count=int(sizes["half_count"]) // k) for k in (4, 2, 1)]

    def inputs(self, seed, sizes, work_dir: Path) -> dict:
        strip = self.strip.inputs(seed, sizes, work_dir)
        return {"n_points": strip["n_points"], "strip": strip,
                "weight": self.weight.inputs(seed, sizes, work_dir),
                "jet": self.jet.inputs(seed, sizes, work_dir)}

    def job(self, inp, phase=no_phase) -> dict:
        return {**self.strip.job(inp["strip"]), **self.weight.job(inp["weight"], phase),
                **self.jet.job(inp["jet"])}


WORKLOADS = {wl.name: wl for wl in (CheckDyadic(), StripWeightJet())}

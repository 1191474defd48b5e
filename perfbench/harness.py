"""Closed-loop job runner, traced run and metric assembly for the benchmark.

One process, one job in flight: the next job starts when the previous one
has returned and been checked.  The untraced run gives the end-to-end
metrics; the traced run installs the wrappers of ``TARGETS`` around traced
jobs only and gives the per-layer metrics.  Every job's output is checked:
the first by the workload's oracle, the rest by byte equality with the
first output that passed it (reports are documented to be byte-stable).
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from apinterp import (cli, conditions, extension, generators, halfplane,
                      regularization, weights)

import oracles
from tracer import ROOT_SPAN, Tracer
from workloads import PROFILES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 3
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# per-layer metrics of the wrapped functions; the trace.* ones are computed apart
_LAYER_NAMES = tuple(name for name in PER_LAYER if not name.startswith("trace."))
EXPONENT_LAYERS = tuple(name[:-len(".n_exponent")] for name in _LAYER_NAMES
                        if name.endswith(".n_exponent"))
PROFILE_NAMES = tuple(name for name, _ in PROFILES)


# ---- per-layer work counters, computed from public arrays after the job ----

def _condition_a_pairs(a, _result):
    """Sum over scanned centers of the annulus window | |l| - |c| | <= p(c)."""
    v, w, radii = a["v"], a["w"], a["radii"]
    abs_all = np.abs(v.lam)
    centers = v.lam[abs_all <= max(radii)]
    if not centers.size:
        return {"pairs": 0}
    p_c = w.p(centers)
    lo = np.searchsorted(abs_all, np.abs(centers) - p_c, side="left")
    hi = np.searchsorted(abs_all, np.abs(centers) + p_c, side="right")
    return {"pairs": int(np.sum(hi - lo))}


def _balayage_pairs(a, _result):
    """Candidate abscissae times exterior points."""
    v = a["v_exterior"]
    if not len(v):
        return {"pairs": 0}
    scan = a["scan"] or conditions.ScanSpec()
    xmin = scan.xmin if scan.xmin is not None else -v.window_radius
    xmax = scan.xmax if scan.xmax is not None else v.window_radius
    grid = np.linspace(xmin, xmax, max(2, scan.samples))
    return {"pairs": int(np.unique(np.concatenate([v.lam.real, grid])).size) * len(v)}


def _blaschke_pairs(a, _result):
    """Sum over radii of n_r^2."""
    abs_lam = np.sort(np.abs(a["hv"].lam))
    n_r = np.searchsorted(abs_lam, np.asarray(a["radii"], dtype=float), side="right")
    return {"pairs": int(np.sum(n_r.astype(np.int64) ** 2))}


def _separation_examined(_a, result):
    return {"pairs_examined": int(result.pairs_examined)}


# (owner, attribute the caller resolves, layer name, timed span, work counter)
TARGETS = (
    (cli, "main", "cli.main", True, None),
    (generators, "generate", "generators.generate", True, None),
    (cli, "load_variety", "variety.load_variety", True, None),
    (conditions, "split_regions", "conditions.split_regions", True, None),
    (conditions, "condition_a_constants", "conditions.condition_a_constants", True,
     _condition_a_pairs),
    (conditions, "condition_b_constants", "conditions.condition_b_constants", True, None),
    (conditions, "balayage_sup", "conditions.balayage_sup", False, _balayage_pairs),
    (conditions, "balayage_profile", "conditions.balayage_profile", True, None),
    (cli, "separation_profile", "variety.separation_profile", True, _separation_examined),
    (extension, "separation_profile", "variety.separation_profile", True,
     _separation_examined),
    (halfplane.HalfPlaneVariety, "from_variety", "halfplane.HalfPlaneVariety.from_variety",
     True, None),
    (halfplane, "blaschke_sum_report", "halfplane.blaschke_sum_report", True,
     _blaschke_pairs),
    (regularization, "regularize", "regularization.regularize", True, None),
    (regularization, "potential_correction", "regularization.potential_correction",
     True, None),
    (regularization, "adaptive_quad", "regularization.adaptive_quad", False, None),
    (weights, "poisson_transform", "weights.poisson_transform", True, None),
    (weights, "adaptive_quad", "weights.adaptive_quad", False, None),
    (weights, "check_axioms", "weights.check_axioms", True, None),
    (extension.SeparationRadii, "from_profile",
     "extension.SeparationRadii.from_profile", True, None),
    (extension, "dbar_growth_report", "extension.dbar_growth_report", True, None),
    (extension, "dbar_defect", "extension.dbar_defect", False, None),
    (extension, "smooth_interpolant", "extension.smooth_interpolant", False, None),
    (extension, "annulus_counting_report", "extension.annulus_counting_report", True, None),
    (extension, "integrated_count", "variety.integrated_count", False, None),
    (extension, "subharmonic_audit", "extension.subharmonic_audit", True, None),
)


def layer_metrics(tracer, own) -> dict:
    """Per-layer values of one traced job (without exponents and trace.*);
    ``own`` is ``tracer.self_times()``."""
    selfs = Counter()
    for span, s in zip(tracer.spans, own):
        selfs[(span[0], span[4])] += s
    out = {}
    for name in _LAYER_NAMES:
        base, _, tail = name.rpartition(".")
        phase = None
        if tail in PROFILE_NAMES:
            phase, (base, _, tail) = tail, base.rpartition(".")
        if tail == "n_exponent":
            continue
        src, key = (selfs, base) if tail == "self_s" else (tracer.counts, f"{base}.{tail}")
        out[name] = sum(v for (k, ph), v in src.items()
                        if k == key and (phase is None or ph == phase))
    return out


def _slope(points):
    """Least-squares slope of log(y) on log(N) over the positive points."""
    pts = [(n, y) for n, y in points if n > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    xs, ys = zip(*pts)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# ---- running jobs ----

class JobLoop:
    """Runs jobs one at a time, times them and checks every output."""

    def __init__(self, wl, inputs, tamper=None):
        self.wl, self.inputs, self.tamper = wl, inputs, tamper
        self.reference = None
        self.attempted = 0
        self.failures = []

    def _problems(self, inp, outputs):
        if inp is self.inputs and self.reference is not None:
            return [] if outputs == self.reference else \
                ["output bytes differ from the oracle-checked output"]
        try:
            problems = oracles.CHECKS[self.wl.name](inp, outputs)
        except Exception:
            problems = ["oracle raised: " + traceback.format_exc(limit=2).strip()]
        if not problems and inp is self.inputs:
            self.reference = outputs
        return problems

    def run(self, job=None, inp=None):
        """One job; returns (ok, wall seconds, cpu seconds)."""
        inp = self.inputs if inp is None else inp
        index = self.attempted
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outputs = (job or self.wl.job)(inp)
        except Exception as exc:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            self.failures.append(f"job {index}: {type(exc).__name__}: {exc}")
            return False, wall, cpu
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if self.tamper is not None:
            outputs = self.tamper(index, outputs)
        problems = self._problems(inp, outputs)
        if problems:
            self.failures.append(f"job {index}: " + "; ".join(problems[:3]))
        return not problems, wall, cpu


def _median(values):
    return float(statistics.median(values))


def probe_setup(name, seed, sizes, work_dir: Path) -> float:
    """Wall seconds for a fresh interpreter to import apinterp and build the inputs."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed),
           json.dumps(sizes), str(work_dir)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=150, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def untraced(loop, seconds, setup_times) -> tuple:
    loop.run()  # warm-up: checked against the oracles, not timed
    start = time.perf_counter()
    walls, cpus = [], []
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        _, wall, cpu = loop.run()
        walls.append(wall)
        cpus.append(cpu)
    metrics = {
        "job_s": _median(walls),
        "cpu_s": _median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": _median(setup_times),
    }
    return metrics, {"job_s": walls, "cpu_s": cpus, "setup_s": setup_times}, []


def traced(loop, seconds, seed, sizes, work_dir) -> tuple:
    wl = loop.wl
    tracer = Tracer()
    jobs = []

    def traced_job(inp):
        tracer.reset()
        for owner, attr, name, timed, work in TARGETS:
            tracer.install(owner, attr, name, timed, work)
        try:
            with tracer.span(ROOT_SPAN):
                outputs = wl.job(inp, tracer.phase_span)
        finally:
            tracer.uninstall()
        tracer.finish()
        root = tracer.spans[0]
        job_s = root[2] - root[1]
        own = tracer.self_times()
        layers = layer_metrics(tracer, own)
        wrapped = sum(s for span, s in zip(tracer.spans, own)
                      if span[0] != ROOT_SPAN and not span[0].startswith("phase:"))
        jobs.append({"n_points": inp.get("n_points", 0), "job_s": job_s,
                     "coverage": wrapped / job_s, "layers": layers,
                     "spans": [[s[0], s[1] - root[1], s[2] - root[1], s[3], s[4]]
                               for s in tracer.spans],
                     "counts": {f"{k}|{ph}": v for (k, ph), v in tracer.counts.items()}})
        return outputs

    loop.run()  # warm-up: checked against the oracles, not timed
    start = time.perf_counter()
    plain = []
    while len(plain) < 2 or time.perf_counter() - start < seconds:
        plain.append(loop.run()[1])
        loop.run(traced_job)
    full = list(jobs)
    ladder = []
    for k, rung in enumerate(wl.rungs(sizes)[:-1]):
        rung_dir = work_dir / f"rung{k}"
        rung_dir.mkdir(parents=True, exist_ok=True)
        done = len(jobs)
        loop.run(traced_job, wl.inputs(seed, rung, rung_dir))
        ladder.extend(jobs[done:])

    if not full:  # every traced job raised; the failures are already counted
        full = [{"n_points": 0, "job_s": 0.0, "coverage": 0.0,
                 "layers": dict.fromkeys(_LAYER_NAMES, 0.0)}]
    metrics = {name: _median([j["layers"][name] for j in full])
               for name in _LAYER_NAMES if not name.endswith(".n_exponent")}
    n_full = full[0]["n_points"]
    for layer in EXPONENT_LAYERS:
        key = layer + ".self_s"
        pts = [(j["n_points"], j["layers"][key]) for j in ladder]
        metrics[layer + ".n_exponent"] = _slope(pts + [(n_full, metrics[key])]) \
            if ladder else 0.0
    metrics["trace.job_s"] = _median([j["job_s"] for j in full])
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - _median(plain)
    metrics["trace.coverage"] = _median([j["coverage"] for j in full])
    samples = {"untraced_job_s": plain, "traced_job_s": [j["job_s"] for j in full],
               "ladder_points": [j["n_points"] for j in ladder] + [n_full]}
    return metrics, samples, jobs


# ---- provenance ----

def git_commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed, sizes) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "sizes": sizes,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


# ---- entry ----

def run(name, seed, seconds, trace, sizes=None, tamper=None) -> dict:
    """Run one workload and return the result record (see ``result_line``)."""
    wl = WORKLOADS[name]
    sizes = dict(wl.sizes if sizes is None else sizes)
    work_dir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    try:
        setup_times = [] if trace else [
            probe_setup(name, seed, sizes, work_dir / f"probe{k}") for k in range(SETUP_PROBES)]
        (work_dir / "inputs").mkdir(parents=True, exist_ok=True)
        loop = JobLoop(wl, wl.inputs(seed, sizes, work_dir / "inputs"), tamper)
        if trace:
            metrics, samples, jobs = traced(loop, seconds, seed, sizes, work_dir)
        else:
            metrics, samples, jobs = untraced(loop, seconds, setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "provenance": provenance(seed, sizes),
        "attempted": loop.attempted, "failed": len(loop.failures),
        "failures": loop.failures,
        "metrics": {m: {"value": float(metrics[m]), "unit": units[m]} for m in units},
        "samples": samples,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if jobs:
        (results / f"{stem}-spans.json").write_text(json.dumps(jobs) + "\n")
    return record


def result_line(record) -> str:
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def summary(record) -> str:
    """Human-readable lines: provenance, every metric with its unit, error rate."""
    lines = [f"# apinterp benchmark: workload {record['workload']}, "
             f"trace {record['trace']}, {record['seconds']} s",
             "# provenance " + json.dumps(record["provenance"], sort_keys=True)]
    counts = {k: len(v) for k, v in record["samples"].items()}
    for metric, entry in record["metrics"].items():
        lines.append(f"{metric:52s} {entry['value']:.6g} {entry['unit']}")
    lines.append(f"{'error_rate':52s} {record['failed'] / record['attempted']:.6g} "
                 f"ratio  ({record['failed']} failed of {record['attempted']} jobs)")
    lines.append("# samples " + json.dumps(counts, sort_keys=True))
    lines.extend("# failure " + f for f in record["failures"][:5])
    return "\n".join(lines)

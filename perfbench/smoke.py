"""Smoke test of the benchmark itself at tiny sizes; not part of the tier-1 suite.

    python3 -m pytest -q perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, and that a corrupted output is counted as a failed job.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402

TINY = {
    "check-dyadic": {"n_max": 5, "samples": 64},
    "strip-weight-jet": {"count": 400, "nx": 4, "ny": 3, "poisson_samples": 4,
                         "half_count": 12, "audit_samples": 10},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert set(TINY) == set(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_emitted_with_unit(name, trace):
    record = harness.run(name, seed=5, seconds=0.01, trace=bool(trace),
                         sizes=TINY[name])
    assert record["failures"] == []
    line = json.loads(harness.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 3
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == _declared("per_layer" if trace else "end_to_end")
    summary = harness.summary(record)
    for metric, unit in got.items():
        assert f" {unit}" in next(l for l in summary.splitlines() if l.startswith(metric))
    assert "error_rate" in summary


@pytest.mark.parametrize("bad_job", [0, 1])
def test_corrupted_output_counts_as_failure(bad_job):
    def tamper(index, outputs):
        if index != bad_job:
            return outputs
        key = sorted(outputs)[0]
        data = bytearray(outputs[key])
        data[len(data) // 2] ^= 0x01
        return dict(outputs, **{key: bytes(data)})

    record = harness.run("check-dyadic", seed=5, seconds=0.01, trace=False,
                         sizes=TINY["check-dyadic"], tamper=tamper)
    line = json.loads(harness.result_line(record))
    assert line["correct"] is False
    assert line["failed"] == 1
    assert record["failures"][0].startswith(f"job {bad_job}:")
    summary = harness.summary(record)
    assert f"(1 failed of {line['attempted']} jobs)" in summary

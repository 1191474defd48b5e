"""`apinterp check` reports against a golden corpus in tests/data.

Each file tests/data/check_<input>_<weight>.json was written with the
commands below, from the repository root, before the close-pair search
moved to a k-d tree (commit 0ee5e14):

    apinterp generate --family '{"family":"strip_random","count":1500,"seed":3}' \\
        --out strip.csv
    apinterp check --weight W --family '{"family":"dyadic_angle","n_min":1,"n_max":8}' \\
        --out tests/data/check_dyadic_angle_<weight>.json
    apinterp check --weight W --input strip.csv \\
        --out tests/data/check_strip_random_<weight>.json
    apinterp check --weight W \\
        --family '{"family":"perturbed_lattice","half_count":200,"seed":21}' \\
        --out tests/data/check_perturbed_lattice_<weight>.json

with W each of the WEIGHTS below.  Every field is pinned exactly (verdicts,
witnesses, counts, pairs_examined and every constant), except
separation.worst_constant, which is pinned to 1e-15 relative: its logs are
taken by np.log, which may differ from math.log in the last bit.
"""

import json
from pathlib import Path

import pytest

import apinterp.cli as cli

GOLDEN = Path(__file__).parent / "data"

WEIGHTS = {
    "log_shift": '{"family":"log_shift","a":1.0}',
    "log_square": '{"family":"log_square"}',
    "power": '{"family":"power","gamma":0.5}',
    "tabulated": '{"family":"tabulated","knots":'
                 '[[0,0],[1,0.5],[10,2],[100,4],[1000,6],[100000,10]]}',
}

STRIP = '{"family":"strip_random","count":1500,"seed":3}'

INPUTS = {
    "dyadic_angle": ["--family", '{"family":"dyadic_angle","n_min":1,"n_max":8}'],
    "strip_random": None,  # --input of the CSV written by `generate`
    "perturbed_lattice": ["--family",
                          '{"family":"perturbed_lattice","half_count":200,"seed":21}'],
}

LOOSE = {("separation", "worst_constant"): 1e-15}


@pytest.fixture(scope="module")
def strip_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "strip.csv"
    assert cli.main(["generate", "--family", STRIP, "--out", str(path)]) == 0
    return path


def assert_matches(got, want, path=()):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], path + (key,))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (a, b) in enumerate(zip(got, want)):
            assert_matches(a, b, path + (k,))
    elif path in LOOSE:
        assert got == pytest.approx(want, rel=LOOSE[path], abs=0.0), path
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_check_matches_golden_report(name, weight, strip_csv, tmp_path):
    source = INPUTS[name] or ["--input", str(strip_csv)]
    out = tmp_path / "report.json"
    assert cli.main(["check", "--weight", WEIGHTS[weight], *source, "--out", str(out)]) == 0
    want = json.loads((GOLDEN / f"check_{name}_{weight}.json").read_text())
    assert_matches(json.loads(out.read_text()), want)

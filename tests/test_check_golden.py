"""`apinterp check` reports and `profile-balayage` CSVs against a golden
corpus in tests/data.

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

Each file tests/data/profile_balayage_dyadic_angle_<weight>.csv was written
before the jet layer moved to arrays (commit dbd7762) with

    apinterp profile-balayage --weight W \\
        --family '{"family":"dyadic_angle","n_min":1,"n_max":8}' \\
        --xmin -300 --xmax 300 --samples 257 \\
        --out tests/data/profile_balayage_dyadic_angle_<weight>.csv

and is pinned byte for byte.  The weight enters only through the split, and
all 510 dyadic points lie above every one of these strips, so the four files
are the same bytes.

Every sweep selects through the tree code (treecode), and its reported
numbers are the direct kernels' bits.  The larger inputs below were the
first whose sweeps took the tree, when it ran only above a term count; their
files were written before the tree-code (commit 4077221) with

    apinterp generate --family '{"family":"strip_random","count":6000,"seed":3}' \\
        --out strip6000.csv
    apinterp check --weight W --family '{"family":"dyadic_angle","n_min":1,"n_max":N}' \\
        --out tests/data/check_dyadic_angle_<N>_<weight>.json
    apinterp check --weight W --input strip6000.csv \\
        --out tests/data/check_strip_random_6000_<weight>.json
    apinterp profile-balayage --weight '{"family":"log_shift","a":1.0}' \\
        --family '{"family":"dyadic_angle","n_min":1,"n_max":11}' \\
        --xmin -2100 --xmax 2100 --samples 2049 \\
        --out tests/data/profile_balayage_dyadic_angle_11_log_shift.csv

with N = 11 and 12 and W each of the WEIGHTS below, and each is pinned byte for
byte.

The profile of dyadic 1..12 sends its real parts off the grid through the
tree and keeps its grid values direct.  Its file was written before the
balayage grid of condition b went through the tree (commit c406672) with

    apinterp profile-balayage --weight '{"family":"log_shift","a":1.0}' \\
        --family '{"family":"dyadic_angle","n_min":1,"n_max":12}' \\
        --xmin=-4100.0 --xmax=4110.0 --samples 1025 \\
        --out tests/data/profile_balayage_dyadic_angle_12_log_shift.csv

and is pinned byte for byte.

On dyadic 1..14 most of condition a's near field is leaves that cross a disk
circle, which the tree bounds first and sums only for the contending centers.
That report was written before the per-center near field (commit d453360) with

    apinterp check --weight '{"family":"log_shift","a":1.0}' \\
        --family '{"family":"dyadic_angle","n_min":1,"n_max":14}' \\
        --out tests/data/check_dyadic_angle_14_log_shift.json

and is pinned byte for byte.

A horizontal line is the input on which the selection keeps the most
candidates: its points and their mirror images tie to the bit.  Its files
were written before the sweeps shared one selection routine (commit 18a4f38)
with

    apinterp check --weight W \\
        --family '{"family":"horizontal_line","height":1.0,"spacing":0.5,"extent":1500}' \\
        --out tests/data/check_horizontal_line_<weight>.json
    apinterp profile-balayage --weight '{"family":"log_shift","a":0.01}' \\
        --family '{"family":"horizontal_line","height":1.0,"spacing":0.5,"extent":1500}' \\
        --xmin=-1500 --xmax 1500 --samples 1201 \\
        --out tests/data/profile_balayage_horizontal_line_log_shift_0.01.csv

with W each of the WEIGHTS below and log_shift with a = 0.01, whose strip is
so thin that all 6 001 points lie outside it.  The profile's grid points are
all real parts of the line, so every grid value ties with its mirror.  Each
file is pinned byte for byte.
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

DYADIC = INPUTS["dyadic_angle"]

LOOSE = {("separation", "worst_constant"): 1e-15}

LINE = ["--family", '{"family":"horizontal_line","height":1.0,"spacing":0.5,"extent":1500}']

THIN = '{"family":"log_shift","a":0.01}'


STRIP_6000 = '{"family":"strip_random","count":6000,"seed":3}'

LARGE = {
    "dyadic_angle_11": ["--family", '{"family":"dyadic_angle","n_min":1,"n_max":11}'],
    "dyadic_angle_12": ["--family", '{"family":"dyadic_angle","n_min":1,"n_max":12}'],
    "strip_random_6000": None,  # --input of the CSV written by `generate`
}


def generated_csv(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("golden") / "points.csv"
    assert cli.main(["generate", "--family", spec, "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def strip_csv(tmp_path_factory):
    return generated_csv(tmp_path_factory, STRIP)


@pytest.fixture(scope="module")
def strip_6000_csv(tmp_path_factory):
    return generated_csv(tmp_path_factory, STRIP_6000)


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


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
def test_profile_balayage_matches_golden_csv(weight, tmp_path):
    out = tmp_path / "profile.csv"
    assert cli.main(["profile-balayage", "--weight", WEIGHTS[weight], *DYADIC,
                     "--xmin", "-300", "--xmax", "300", "--samples", "257",
                     "--out", str(out)]) == 0
    want = GOLDEN / f"profile_balayage_dyadic_angle_{weight}.csv"
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("name", sorted(LARGE))
def test_check_matches_golden_bytes_above_the_crossover(name, weight, strip_6000_csv,
                                                        tmp_path):
    source = LARGE[name] or ["--input", str(strip_6000_csv)]
    out = tmp_path / "report.json"
    assert cli.main(["check", "--weight", WEIGHTS[weight], *source, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"check_{name}_{weight}.json").read_bytes()


def test_profile_balayage_matches_golden_csv_above_the_crossover(tmp_path):
    out = tmp_path / "profile.csv"
    assert cli.main(["profile-balayage", "--weight", WEIGHTS["log_shift"],
                     *LARGE["dyadic_angle_11"], "--xmin", "-2100", "--xmax", "2100",
                     "--samples", "2049", "--out", str(out)]) == 0
    want = GOLDEN / "profile_balayage_dyadic_angle_11_log_shift.csv"
    assert out.read_bytes() == want.read_bytes()


def test_profile_balayage_matches_golden_csv_on_dyadic_1_to_12(tmp_path):
    out = tmp_path / "profile.csv"
    assert cli.main(["profile-balayage", "--weight", WEIGHTS["log_shift"],
                     *LARGE["dyadic_angle_12"], "--xmin=-4100.0", "--xmax=4110.0",
                     "--samples", "1025", "--out", str(out)]) == 0
    want = GOLDEN / "profile_balayage_dyadic_angle_12_log_shift.csv"
    assert out.read_bytes() == want.read_bytes()


def test_check_matches_golden_bytes_on_dyadic_1_to_14(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["check", "--weight", WEIGHTS["log_shift"], "--family",
                     '{"family":"dyadic_angle","n_min":1,"n_max":14}', "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "check_dyadic_angle_14_log_shift.json").read_bytes()


@pytest.mark.parametrize("weight", sorted(WEIGHTS) + ["log_shift_0.01"])
def test_check_matches_golden_bytes_on_horizontal_line(weight, tmp_path):
    out = tmp_path / "report.json"
    spec = WEIGHTS.get(weight, THIN)
    assert cli.main(["check", "--weight", spec, *LINE, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"check_horizontal_line_{weight}.json").read_bytes()


def test_profile_balayage_matches_golden_csv_on_horizontal_line(tmp_path):
    out = tmp_path / "profile.csv"
    assert cli.main(["profile-balayage", "--weight", THIN, *LINE, "--xmin=-1500",
                     "--xmax", "1500", "--samples", "1201", "--out", str(out)]) == 0
    want = GOLDEN / "profile_balayage_horizontal_line_log_shift_0.01.csv"
    assert out.read_bytes() == want.read_bytes()

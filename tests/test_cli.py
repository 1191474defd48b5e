import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import apinterp as ap
import apinterp.cli as cli

ROOT = Path(__file__).resolve().parent.parent


def run(args):
    return cli.main(args)


def test_generate_then_check_round_trip(tmp_path, capsys):
    out = tmp_path / "family.json"
    assert run(["generate", "--family",
                '{"family":"dyadic_angle","n_min":1,"n_max":5}',
                "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    code = run(["check", "--weight", '{"family":"log_shift","a":1.0}',
                "--input", str(out), "--out", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["input"]["points"] == 62
    assert payload["split"]["upper"] == 62
    assert len(payload["condition_a"]["constants"]) == len(payload["radii"])


def test_reports_are_byte_stable(tmp_path):
    fam = '{"family":"horizontal_line","height":1.0,"extent":50}'
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["check", "--weight", '{"family":"log_square"}',
                    "--family", fam, "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_empty_variety(tmp_path):
    src = tmp_path / "empty.json"
    src.write_text('{"points": [], "window_radius": 64.0}')
    report = tmp_path / "rep.json"
    assert run(["check", "--weight", '{"family":"log_shift","a":1.0}',
                "--input", str(src), "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["condition_a"]["constants"] == [0.0] * 8
    assert payload["condition_b"]["verdict"] == "bounded-evidence"
    assert payload["separation"] is None


def test_check_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("re,im,mult\n1.0,zap,1\n")
    assert run(["check", "--weight", '{"family":"log_shift","a":1.0}',
                "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.csv:2" in err
    assert run(["check", "--weight", '{"family":"nope"}',
                "--family", '{"family":"integer_lattice","window":32}']) == 1


def test_check_lattice_verdicts(tmp_path):
    report = tmp_path / "lattice.json"
    assert run(["check", "--weight", '{"family":"log_shift","a":1.0}',
                "--family", '{"family":"integer_lattice","window":2000}',
                "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["condition_a"]["verdict"] == "bounded-evidence"
    assert payload["condition_b"]["verdict"] == "bounded-evidence"
    assert payload["condition_b"]["constants"] == [0.0] * 8
    assert payload["blaschke_upper"] is None  # every point is real


def test_profile_balayage_generation_additivity(tmp_path):
    # the sampled value at x = 0 is the sum of the per-generation increments
    out = tmp_path / "prof.csv"
    assert run(["profile-balayage", "--weight", '{"family":"log_shift","a":1.0}',
                "--family", '{"family":"dyadic_angle","n_min":1,"n_max":7}',
                "--xmin", "-8", "--xmax", "8", "--samples", "17",
                "--out", str(out)]) == 0
    rows = {float(r.split(",")[0]): float(r.split(",")[1])
            for r in out.read_text().strip().splitlines()[1:-1]}
    import apinterp as ap
    increments = sum(ap.balayage_value(ap.generators.dyadic_row(n), 0.0)
                     for n in range(1, 8))
    assert rows[0.0] == pytest.approx(increments, rel=1e-12)


def test_check_verdict_is_data_not_status(tmp_path):
    # a divergent configuration still exits 0
    report = tmp_path / "rep.json"
    code = run(["check", "--weight", '{"family":"log_shift","a":1.0}',
                "--family", '{"family":"dyadic_angle","n_min":1,"n_max":6}',
                "--out", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["blaschke_upper"]["verdict"] in (
        "bounded-evidence", "divergence-evidence", "inconclusive")


def test_check_csv_format(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["check", "--weight", '{"family":"log_shift","a":1.0}',
                "--family", '{"family":"integer_lattice","window":64}',
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "radius,condition_a,condition_b"
    assert len(lines) == 9


def test_profile_balayage_peak(tmp_path):
    src = tmp_path / "one.json"
    src.write_text('{"points": [{"re": 0.0, "im": 1.0, "mult": 1}], "window_radius": 8.0}')
    out = tmp_path / "profile.csv"
    assert run(["profile-balayage", "--weight", '{"family":"log_shift","a":1.0}',
                "--input", str(src), "--xmin", "-2", "--xmax", "2",
                "--samples", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,value"
    x_star, sup = lines[-1].split(",")
    assert abs(float(x_star)) < 1e-9
    assert float(sup) == pytest.approx(1.0, abs=1e-9)


def test_profile_balayage_empty_exterior(tmp_path):
    out = tmp_path / "zeros.csv"
    assert run(["profile-balayage", "--weight", '{"family":"log_shift","a":1.0}',
                "--family", '{"family":"integer_lattice","window":32}',
                "--xmin", "-4", "--xmax", "4", "--samples", "9",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_profile_balayage_empty_exterior_rows_are_plain_floats(tmp_path):
    out = tmp_path / "zeros.csv"
    assert run(["profile-balayage", "--weight", '{"family":"log_shift","a":1.0}',
                "--family", '{"family":"perturbed_lattice"}',
                "--xmin", "-100", "--xmax", "100", "--samples", "5",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    assert [x for x, _ in rows[:-1]] == [-100.0, -50.0, 0.0, 50.0, 100.0]
    assert all(val == 0.0 for _, val in rows)


def test_regularize_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["regularize", "--weight", '{"family":"log_shift","a":1.0}',
                "--xmin", "5", "--xmax", "25", "--ymin", "-1", "--ymax", "1",
                "--nx", "5", "--ny", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,r,p_tilde,p,ratio"
    assert len(lines) == 1 + 15
    for row in lines[1:]:
        x, y, r, pt, p, ratio = (float(tok) for tok in row.split(","))
        assert r >= -1e-8
        assert pt == pytest.approx(abs(y) + r, abs=1e-12)


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, weight", [
    ("log_shift", '{"family":"log_shift","a":1.0}'),
    ("log_square", '{"family":"log_square"}'),
])
def test_regularize_matches_golden_grid(name, weight, tmp_path):
    # golden grids were written by the quadrature-based correction; r and
    # the two columns derived from it agree to 1e-12, the rest byte for byte
    out = tmp_path / "grid.csv"
    assert run(["regularize", "--weight", weight, "--xmin", "5", "--xmax", "30",
                "--ymin", "-1", "--ymax", "45", "--nx", "6", "--ny", "3",
                "--out", str(out)]) == 0
    got = out.read_text().splitlines()
    want = (GOLDEN / f"regularize_{name}.csv").read_text().splitlines()
    assert got[0] == want[0] == "x,y,r,p_tilde,p,ratio"
    assert len(got) == len(want) == 1 + 18
    zeros = 0
    for row, ref in zip(got[1:], want[1:]):
        x, y, r, pt, p, ratio = row.split(",")
        x0, y0, r0, pt0, p0, ratio0 = ref.split(",")
        assert (x, y, p) == (x0, y0, p0)
        for tok, tok0 in ((r, r0), (pt, pt0), (ratio, ratio0)):
            assert float(tok) == pytest.approx(float(tok0), rel=1e-12, abs=0.0)
        zeros += r == "0.0"
        assert (r == "0.0") == (r0 == "0.0")
    assert zeros == (6 if name == "log_shift" else 0)


def test_generate_to_stdout(capsys):
    assert run(["generate", "--family",
                '{"family":"integer_lattice","window":3}']) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 7


def test_user_radii_validation(tmp_path):
    fam = '{"family":"integer_lattice","window":64}'
    weight = '{"family":"log_shift","a":1.0}'
    assert run(["check", "--weight", weight, "--family", fam,
                "--radii", "8,4,16,32"]) == 1
    assert run(["check", "--weight", weight, "--family", fam,
                "--radii", "2,4,8,64"]) == 1
    assert run(["check", "--weight", weight, "--family", fam,
                "--radii", "4,8,16,32", "--out", str(tmp_path / "ok.json")]) == 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_check_report_is_strict_json(capsys):
    assert run(["check", "--weight", '{"family":"log_shift","a":1.0}',
                "--family", '{"family":"geometric_ray","count":3}']) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["condition_a"]["verdict"] == "inconclusive"
    assert payload["condition_a"]["exponent"] is None


WEIGHT = '{"family":"log_shift","a":1.0}'
FAMILY = '{"family":"integer_lattice","window":16}'


@pytest.mark.parametrize("args, key", [
    (["check", "--weight", WEIGHT, "--family", '{"family":"integer_lattice","bogus":1}'],
     "'bogus'"),
    (["generate", "--family", '{"family":"integer_lattice","bogus":1}'], "'bogus'"),
    (["generate", "--family", '[1, 2]'], "JSON object"),
    (["check", "--weight", '{"family":"power"}', "--family", FAMILY], "'gamma'"),
    (["check", "--weight", '{"family":"log_shift","b":2}', "--family", FAMILY], "'b'"),
    (["check", "--weight", '{"family":"log_square","a":1}', "--family", FAMILY], "'a'"),
    (["profile-balayage", "--weight", '{"family":"tabulated"}', "--family", FAMILY,
      "--xmin", "-1", "--xmax", "1"], "'knots'"),
    (["generate", "--family", '{"family":"integer_lattice","window":"x"}'], "'window'"),
    (["check", "--weight", '{"family":"power","gamma":"x"}', "--family", FAMILY], "'gamma'"),
    (["check", "--weight", '{"family":"tabulated","knots":[[0,"a"],[9,1]]}',
      "--family", FAMILY], "knots"),
    (["check", "--weight", WEIGHT, "--family", FAMILY, "--radii", "1,2,4,nan"], "radii"),
    (["check", "--weight", WEIGHT, "--family", FAMILY, "--thresholds", "0.05,inf"],
     "thresholds"),
    (["profile-balayage", "--weight", WEIGHT, "--family", FAMILY,
      "--xmin=-inf", "--xmax", "1"], "xmin"),
    (["regularize", "--weight", WEIGHT, "--xmin", "1", "--xmax", "inf",
      "--ymin", "-1", "--ymax", "1"], "grid bounds"),
    (["regularize", "--weight", WEIGHT, "--xmin", "1", "--xmax", "2",
      "--ymin", "nan", "--ymax", "1"], "grid bounds"),
    (["generate", "--family", '{"family":"integer_lattice","window":1e300}'], "points"),
    (["generate", "--family", '{"family":"horizontal_line","spacing":1e-300}'], "points"),
    (["generate", "--family", '{"family":"dyadic_angle","n_max":21}'], "points"),
    (["generate", "--family", '{"family":"dyadic_angle","n_max":1000000000}'], "points"),
    (["generate", "--family", '{"family":"perturbed_lattice","half_count":1000000000000}'],
     "points"),
    (["generate", "--family", '{"family":"strip_random","count":1000000000000}'], "points"),
    (["generate", "--family", '{"family":"geometric_ray","count":1000000000000}'], "points"),
    (["check", "--weight", WEIGHT, "--family", '{"family":"integer_lattice","window":1e300}'],
     "points"),
    (["generate", "--family", '{"family":"strip_random","half_width":-1}'], "half_width"),
    (["generate", "--family", '{"family":"strip_random","strip_height":-0.5}'],
     "strip_height"),
    (["check", "--weight", WEIGHT, "--family", '{"family":"strip_random","half_width":1e308}'],
     "half_width"),
    (["profile-balayage", "--weight", WEIGHT, "--family",
      '{"family":"dyadic_angle","n_min":1,"n_max":3}', "--xmin=-10", "--xmax", "10",
      "--samples", "1000000000000"], "samples"),
    (["regularize", "--weight", WEIGHT, "--xmin=1", "--xmax", "2", "--ymin=-1", "--ymax", "1",
      "--nx", "10000000", "--ny", "10000000"], "points"),
    (["check", "--weight", WEIGHT, "--family",
      '{"family":"horizontal_line","mult":100000000000000000000}'],
     "multiplicity 100000000000000000000"),
    (["generate", "--family", '{"family":"horizontal_line","mult":100000000000000000000}'],
     "multiplicity 100000000000000000000"),
    (["check", "--weight", WEIGHT, "--family", '{"family":"integer_lattice","mult":NaN}'],
     "mult"),
])
def test_malformed_specs_exit_1_with_one_line(args, key, capsys):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]


NON_FINITE_INPUTS = {
    "csv-inf": ("points.csv", "re,im,mult\n1.0,2.0,1\ninf,1,1\n"),
    "csv-nan": ("points.csv", "1.0,2.0,1\n0.5,nan,2\n"),
    "json-nan-window": ("points.json", '{"points": [{"re": 1.0, "im": 2.0}, '
                        '{"re": NaN, "im": 1.0}], "window_radius": 64.0}'),
    "json-nan": ("points.json", '{"points": [{"re": NaN, "im": 1.0, "mult": 2}]}'),
    "json-inf-window": ("points.json", '{"points": [{"re": 1.0, "im": -Infinity}], '
                        '"window_radius": 64.0}'),
    "json-inf": ("points.json", '{"points": [{"re": Infinity, "im": 1.0}, '
                 '{"re": 1.0, "im": 2.0}]}'),
}


@pytest.mark.parametrize("command", [
    ["check"],
    ["profile-balayage", "--xmin", "-10", "--xmax", "10", "--samples", "33"],
])
@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
def test_non_finite_point_exits_1_with_one_line(name, command, tmp_path, capsys):
    filename, text = NON_FINITE_INPUTS[name]
    src = tmp_path / filename
    src.write_text(text)
    out = tmp_path / "out.txt"
    assert run([command[0], "--weight", WEIGHT, "--input", str(src), *command[1:],
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "non-finite" in lines[0]


# Multiplicities, and totals of merged rows, above 2^53 (the tree code keeps
# masses as floats, exact only up to 2^53), one no integer holds, and JSON
# values that are not integers.
HUGE_MULT_INPUTS = {
    "csv": ("points.csv", "re,im,mult\n1.0,2.0,100000000000000000000000\n3.0,4.0,1\n",
            "multiplicity 100000000000000000000000 is above 2^53"),
    "json": ("points.json", '{"points": [{"re": 1.0, "im": 2.0, "mult": 1e30}, '
             '{"re": 3.0, "im": 4.0}]}',
             "multiplicity 1000000000000000019884624838656 is above 2^53"),
    "json-inf": ("points.json", '{"points": [{"re": 1.0, "im": 2.0, "mult": Infinity}]}',
                 "malformed variety record"),
    "csv-merge": ("points.csv", "re,im,mult\n1.0,2.0,4611686018427387904\n"
                  "1.0,2.0,4611686018427387904\n3.0,4.0,1\n",
                  "multiplicity 4611686018427387904 is above 2^53"),
    "csv-merge-total": ("points.csv", "re,im,mult\n1.0,2.0,4503599627370496\n"
                        "1.0,2.0,4503599627370496\n3.0,4.0,1\n",
                        "total multiplicity 9007199254740993 is above 2^53"),
    "json-fraction": ("points.json", '{"points": [{"re": 1.0, "im": 2.0, "mult": 2.5}]}',
                      "multiplicity 2.5 is not an integer"),
    "json-bool": ("points.json", '{"points": [{"re": 1.0, "im": 2.0, "mult": true}]}',
                  "multiplicity [True] is not a number"),
    "json-string": ("points.json", '{"points": [{"re": 1.0, "im": 2.0, "mult": "3"}]}',
                    "multiplicity ['3'] is not a number"),
    "json-null": ("points.json", '{"points": [{"re": 1.0, "im": 2.0, "mult": null}]}',
                  "malformed variety record"),
}


@pytest.mark.parametrize("command", [
    ["check"],
    ["profile-balayage", "--xmin", "-10", "--xmax", "10", "--samples", "33"],
])
@pytest.mark.parametrize("name", sorted(HUGE_MULT_INPUTS))
def test_huge_multiplicity_exits_1_with_one_line(name, command, tmp_path, capsys):
    filename, text, message = HUGE_MULT_INPUTS[name]
    src = tmp_path / filename
    src.write_text(text)
    out = tmp_path / "out.txt"
    assert run([command[0], "--weight", WEIGHT, "--input", str(src), *command[1:],
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert message in lines[0]


def test_window_radius_that_is_not_a_number_exits_1(tmp_path, capsys):
    src = tmp_path / "points.json"
    src.write_text('{"points": [{"re": 1.0, "im": 2.0}], "window_radius": "8"}')
    assert run(["check", "--weight", WEIGHT, "--input", str(src)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error: malformed variety record")


@pytest.mark.parametrize("command", [
    ["check"],
    ["profile-balayage", "--xmin", "-10", "--xmax", "10", "--samples", "33"],
])
def test_overflowing_omega_exits_2_with_one_line(command, tmp_path, capsys):
    # a log1p(|lambda|) overflows at |1 + 8i| for a = 1e308; with a = 1e306
    # every omega on this variety is finite.
    family = '{"family":"dyadic_angle","n_min":1,"n_max":4}'
    out = tmp_path / "out.txt"
    assert run([command[0], "--weight", '{"family":"log_shift","a":1e308}', "--family", family,
                *command[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: omega(")
    assert "is not finite at the point (1+8j)" in lines[0]
    assert run([command[0], "--weight", '{"family":"log_shift","a":1e306}', "--family", family,
                *command[1:], "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("a, exit_code, message", [
    ("1e308", 2, "numeric failure: omega(31.0) is not finite at the point (31+0j)"),
    ("1e306", 2, "numeric failure: t_extent is not finite"),
    ("1e304", 1, "error: z lies outside the reliable region of the partition"),
])
def test_regularize_overflowing_omega_exits_with_one_line(a, exit_code, message, tmp_path,
                                                          capsys):
    # At 1e308 the extent's omega guess overflows; at 1e306 the extent
    # span + 12 * SMEAR_FACTOR * omega does; at 1e304 the partition is built
    # but its intervals are too long to reach the grid.
    out = tmp_path / "grid.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["regularize", "--weight", f'{{"family":"log_shift","a":{a}}}',
                    "--xmin", "5", "--xmax", "30", "--ymin", "-1", "--ymax", "45",
                    "--nx", "6", "--ny", "3", "--out", str(out)]) == exit_code
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("command", [
    ["profile-balayage", "--family", '{"family":"dyadic_angle","n_min":1,"n_max":4}',
     "--xmin", "0", "--xmax", "1e308", "--samples", "3"],
    ["check", "--input", "points.csv"],
    ["check", "--input", "high.csv"],
    ["check", "--input", "spread.csv"],
])
def test_overflowing_distances_run_without_warnings(command, tmp_path, capsys):
    # Squared distances to x = 1e308 and to the point at re = 1e200 overflow
    # in the Poisson and log-rho terms; each such term is 0, and no
    # RuntimeWarning (an error under the test configuration) is raised.  In
    # high.csv both the squared distance and 4 Im c Im lambda of the two high
    # points overflow; their log-rho term is log 9 / 2.  In spread.csv the
    # tree expands the cells of those points and of -1e306+2e305i about far
    # group centers, where the same products overflow.
    (tmp_path / "points.csv").write_text(
        "re,im,mult\n1e200,1.0,1\n1.0,2.0,1\n3.0,-5.0,1\n-2.0,7.0,2\n4.0,0.5,1\n")
    (tmp_path / "high.csv").write_text("re,im,mult\n1,1e160,1\n2,2e160,1\n3,5,1\n")
    spread = np.random.default_rng(0).uniform(-50.0, 50.0, (5000, 2)).tolist()
    (tmp_path / "spread.csv").write_text("".join(
        ["re,im,mult\n"] + [f"{x!r},{y!r},1\n" for x, y in spread]
        + ["1,1e160,1\n2,2e160,1\n-1e306,2e305,1\n"]))
    command = [str(tmp_path / a) if a.endswith(".csv") else a for a in command]
    out = tmp_path / "out.txt"
    assert run([command[0], "--weight", WEIGHT, *command[1:], "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command[0] == "profile-balayage":
        assert out.read_text().splitlines()[2:4] == ["5e+307,0.0", "1e+308,0.0"]


EXTREME_INPUTS = {
    # Im^2 = 1e-340 underflows to 0; the balayage at x = 0 is 1e170.
    "low.csv": "re,im,mult\n0,1e-170,1\n1,1,1\n2,3,1\n3,0.5,1\n",
    # t * t overflows in log_square's omega; omega at the first point is 921.73.
    "far.csv": "re,im,mult\n1e200,1e200,1\n2e200,5e199,1\n3,5,1\n4,1,1\n",
    # The window spans about +-1.6e308, so its width overflows.
    "wide.csv": "re,im,mult\n8e307,1e307,1\n-8e307,2e307,1\n1,1,1\n",
    # Two clusters more than DBL_MAX apart: their distances overflow to inf.
    "far_apart.json": json.dumps({"points": [
        {"re": 6e307 + k * 1e300, "im": 6e307 + k * 1e300, "mult": 1} for k in range(40)] + [
        {"re": -1.3e308 + k * 1e300, "im": 1e300, "mult": 1} for k in range(40)],
        "window_radius": 1.79e308}),
}
LOG_SQUARE = '{"family":"log_square"}'
POWER = '{"family":"power","gamma":0.5}'
# Points k 2^-k below 1e-305: some close pairs lie nearer than 1 / DBL_MAX.
RAY = '{"family":"geometric_ray","count":2000}'


@pytest.mark.parametrize("weight, command", [
    (LOG_SQUARE, ["check", "--input", "low.csv"]),
    (LOG_SQUARE, ["profile-balayage", "--input", "low.csv", "--xmin", "-5", "--xmax", "5",
                  "--samples", "11"]),
    (LOG_SQUARE, ["check", "--input", "far.csv"]),
    (WEIGHT, ["check", "--input", "wide.csv"]),
    (LOG_SQUARE, ["check", "--input", "wide.csv"]),
    (WEIGHT, ["profile-balayage", "--input", "wide.csv", "--xmin=-1.7e308", "--xmax",
              "1.7e308", "--samples", "5"]),
    (LOG_SQUARE, ["profile-balayage", "--input", "wide.csv", "--xmin=-1.7e308", "--xmax",
                  "1.7e308", "--samples", "5"]),
    (WEIGHT, ["check", "--input", "far_apart.json"]),
    (LOG_SQUARE, ["check", "--input", "far_apart.json"]),
    (POWER, ["check", "--input", "far_apart.json"]),
    (WEIGHT, ["check", "--family", RAY]),
])
def test_extreme_inputs_run_without_warnings(weight, command, tmp_path, capsys):
    # Each true value is finite, or the report does not print it.  A square
    # that underflows or overflows is rescaled exactly where it matters, and
    # no RuntimeWarning (an error under the test configuration) is raised.
    for name, text in EXTREME_INPUTS.items():
        (tmp_path / name).write_text(text)
    command = [str(tmp_path / a) if a in EXTREME_INPUTS else a for a in command]
    out = tmp_path / "out.txt"
    assert run([command[0], "--weight", weight, *command[1:], "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command[0] == "profile-balayage":
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:-1])
        if command[2].endswith("low.csv"):
            assert float(rows["0.0"]) == pytest.approx(1e170, rel=1e-15)
        return
    report = json.loads(out.read_text())
    if command[2].endswith("low.csv"):
        assert report["condition_b"]["constants"] == pytest.approx([1e170] * 8, rel=1e-15)
    if command[2].endswith("wide.csv") and weight == LOG_SQUARE:
        # Every Im^2 of the two exterior points overflows; the supremum is
        # 1e-307 + 2e307 / 2.6e616, at the real part 8e307.
        sweep = report["condition_b"]
        assert sweep["constants"][-1] == pytest.approx(1.0076923076923076e-307, rel=1e-15)
        assert sweep["witnesses"][-1] == 8e307
    if command[2] == RAY:
        # 1 / d overflows at the witness pair; the constant is
        # mult(b) log(1 / d) / max(p(a), 1) there all the same.
        sep = report["separation"]
        v = ap.generate(ap.FamilySpec.from_dict(json.loads(RAY)))
        a, b = (complex(*xy) for xy in sep["worst_pair"])
        d = abs(a - b)
        assert 1.0 / d == math.inf
        p_a = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0)).p(a)
        mult_b = int(v.mult[v.lam == b][0])
        assert math.isfinite(sep["worst_constant"])
        assert sep["worst_constant"] == pytest.approx(
            mult_b * -math.log(d) / max(p_a, 1.0), rel=1e-15)


# Run in a fresh interpreter: conftest.py imports scipy into this one.
SCIPY_FREE_RUN = """
import sys
import apinterp as ap
from apinterp import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), ("import apinterp", scipy_modules())
out, weight = sys.argv[1], sys.argv[2]
family = '{"family":"dyadic_angle","n_min":1,"n_max":6}'
for args in (
        ["generate", "--family", family, "--out", out + "/dyadic.json"],
        ["check", "--weight", weight, "--input", out + "/dyadic.json",
         "--out", out + "/check.json"],
        ["profile-balayage", "--weight", weight, "--family", family, "--xmin", "-10",
         "--xmax", "10", "--samples", "33", "--out", out + "/profile.csv"],
        ["regularize", "--weight", weight, "--xmin", "-3", "--xmax", "3", "--ymin", "0",
         "--ymax", "2", "--nx", "7", "--ny", "3", "--out", out + "/grid.csv"]):
    assert cli.main(args) == 0, args[0]
    assert not scipy_modules(), (args[0], scipy_modules())
w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
print(repr(ap.poisson_transform(w, 0.5 + 2j)))
"""


def test_commands_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path), WEIGHT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the log_shift closed form still loads scipy.special on demand
    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
    assert proc.stdout.split() == [repr(ap.poisson_transform(w, 0.5 + 2j))]
    for name in ("dyadic.json", "check.json", "profile.csv", "grid.csv"):
        assert (tmp_path / name).stat().st_size > 0

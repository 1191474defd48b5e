import json
import math
from pathlib import Path

import pytest

import apinterp.cli as cli


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
])
def test_malformed_specs_exit_1_with_one_line(args, key, capsys):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]

"""Relations between whole reports, at sizes where every sweep runs through
the tree code's far field and near-field bounds: dyadic_angle 1..14 (32 766
points) and a 6000-point strip_random sample (seed 1), under log_shift(1).

* Doubling every multiplicity doubles every condition a, condition b and
  Blaschke constant bit for bit, with the same witnesses and verdicts: a
  factor 2 on every mass is exact in every sum, moment and error bound, so
  the selection makes the same decisions.  So do the factors 2^3 and 2^30.
* Conjugation swaps the Blaschke halves bit for bit: the upper half of the
  conjugate is the conjugated lower half, the same points in the same order.
  Conjugation and the reflection lambda -> -conj(lambda) keep every term of
  conditions a and b, bit for bit, in another order, so the constants agree
  within the summation bound eps (log2 N + 8) times their nonnegative terms'
  sum.
* Condition a and both Blaschke halves are nondecreasing in R: condition a
  takes a running maximum over the centers within R, and a Blaschke sum over
  the points within R only gains nonnegative terms.  Condition b is left out:
  its golden-section refinement can miss a joint peak between real parts and
  then fall as R grows (ROADMAP direction 1).
* Restriction: the Blaschke halves and condition b of the variety cut to
  |lambda| <= radii[k] give the full sweep's k-th constant and witness at
  every radius from k on, bit for bit, since each value is a direct sum over
  the same points in the same order.
* `check` reads the points, not the rows: a permuted CSV gives the same
  bytes, and so does a point of multiplicity 2 written as two rows of 1
  (plus the merge warning).
"""

import numpy as np
import pytest

import apinterp as ap
import apinterp.cli as cli

WEIGHT = '{"family":"log_shift","a":1.0}'
INPUTS = {
    "dyadic_angle_14": ("dyadic_angle", {"n_min": 1, "n_max": 14}),
    "strip_random_6000": ("strip_random", {"count": 6000, "seed": 1}),
}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def variety(request):
    return ap.generate(ap.FamilySpec(*INPUTS[request.param]))


@pytest.fixture(scope="module")
def sweeps(variety, log_shift):
    return _sweeps(variety, log_shift, ap.default_radii(variety.window_radius))


def _blaschke_halves(v, w, radii):
    halves = {}
    for half, conj in (("upper", False), ("lower", True)):
        hv = ap.HalfPlaneVariety.from_variety(v, conjugate_lower=conj)
        if len(hv):
            halves[half] = ap.blaschke_sum_report(hv, w, radii)
    return halves


def _sweeps(v, w, radii):
    return {"a": ap.condition_a_constants(v, w, radii).classify(),
            "b": ap.condition_b_constants(v, w, radii).classify(),
            **_blaschke_halves(v, w, radii)}


def test_doubled_multiplicities_double_every_constant(variety, sweeps, log_shift):
    twice = _sweeps(variety.scale_mult(2), log_shift, ap.default_radii(variety.window_radius))
    assert set(sweeps) == set(twice) and len(sweeps) >= 3
    for name, sweep in sweeps.items():
        assert max(sweep.constants) > 0, name
        assert twice[name].constants == [2 * c for c in sweep.constants], name
        assert twice[name].witnesses == sweep.witnesses, name
        assert twice[name].trend.verdict == sweep.trend.verdict, name


@pytest.mark.parametrize("k", [3, 30])
def test_power_of_two_multiplicities_scale_every_constant(variety, sweeps, log_shift, k):
    scaled = _sweeps(variety.scale_mult(2 ** k), log_shift,
                     ap.default_radii(variety.window_radius))
    assert set(sweeps) == set(scaled)
    for name, sweep in sweeps.items():
        assert scaled[name].constants == [2.0 ** k * c for c in sweep.constants], name
        assert scaled[name].witnesses == sweep.witnesses, name
        assert scaled[name].trend.verdict == sweep.trend.verdict, name


def test_conjugation_swaps_the_blaschke_halves(variety, sweeps, log_shift):
    halves = _blaschke_halves(variety.conjugate(), log_shift,
                              ap.default_radii(variety.window_radius))
    swap = {"upper": "lower", "lower": "upper"}
    assert {swap[name] for name in halves} == {"upper", "lower"} & set(sweeps)
    for name, sweep in halves.items():
        assert sweep.constants == sweeps[swap[name]].constants, name
        assert sweep.witnesses == sweeps[swap[name]].witnesses, name


def test_conjugation_and_reflection_keep_conditions_a_and_b(variety, sweeps, log_shift):
    radii = ap.default_radii(variety.window_radius)
    bound = np.finfo(float).eps * (np.log2(len(variety)) + 8)
    reflected = ap.Variety.from_arrays(-np.conj(variety.lam), variety.mult,
                                       variety.window_radius)
    for image in (variety.conjugate(), reflected):
        for name, sweep in (("a", ap.condition_a_constants(image, log_shift, radii)),
                            ("b", ap.condition_b_constants(image, log_shift, radii))):
            want = np.array(sweeps[name].constants)
            assert max(want) > 0
            assert np.all(np.abs(np.array(sweep.constants) - want) <= bound * want), name


def test_sweeps_are_nondecreasing_in_the_radius(sweeps):
    names = [name for name in ("a", "upper", "lower") if name in sweeps]
    assert len(names) >= 2
    for name in names:
        constants = sweeps[name].constants
        assert constants == sorted(constants), name


def test_restricted_variety_gives_the_sweeps_prefix_values(variety, sweeps, log_shift):
    radii = ap.default_radii(variety.window_radius)
    for k, r in enumerate(radii):
        sub = variety.restrict(r)
        cut = {"b": ap.condition_b_constants(sub, log_shift, radii),
               **_blaschke_halves(sub, log_shift, radii)}
        for name, sweep in cut.items():
            full = sweeps[name]
            assert sweep.constants[k:] == [full.constants[k]] * (len(radii) - k), (name, k)
            assert sweep.witnesses[k:] == [full.witnesses[k]] * (len(radii) - k), (name, k)


def _check(path, out):
    assert cli.main(["check", "--weight", WEIGHT, "--input", str(path),
                     "--out", str(out)]) == 0
    return out.read_bytes()


def test_check_reads_points_not_rows(variety, tmp_path):
    base = tmp_path / "base.csv"
    ap.save_variety(variety, base)
    header, *rows = base.read_text().splitlines()
    # the middle point with multiplicity 2, as one row and as two rows of 1
    k = len(rows) // 2
    re_im = rows[k].rsplit(",", 1)[0]
    rows[k] = f"{re_im},2"
    one = tmp_path / "one.csv"
    one.write_text("\n".join([header, *rows]) + "\n")
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    permuted = tmp_path / "permuted.csv"
    permuted.write_text("\n".join([header, *shuffled]) + "\n")
    rows[k] = f"{re_im},1"
    split = tmp_path / "split.csv"
    split.write_text("\n".join([header, *rows, f"{re_im},1"]) + "\n")

    want = _check(one, tmp_path / "one.json")
    assert _check(permuted, tmp_path / "permuted.json") == want
    with pytest.warns(UserWarning, match="merged 1 duplicate coordinate"):
        assert _check(split, tmp_path / "split.json") == want

"""Command line front end.

Subcommands:
  check              full condition report for a weight + variety
  profile-balayage   CSV of the balayage map plus its refined supremum
  regularize         CSV grid of the regularized weight
  generate           write a parametric family to a variety file

Reports are byte-stable: fixed key order, no timestamps, shortest-repr
floats.  Exit status is 0 when the run completes (verdicts are data, not
status), 1 on input problems, 2 on numeric failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import conditions, generators, halfplane, regularization
from .errors import ApInterpError, InputError, NumericError
from .variety import Variety, load_variety, save_variety, separation_profile
from .weights import BeurlingWeight, OmegaProfile


def _parse_weight(text: str) -> BeurlingWeight:
    text = text.strip()
    if not text.startswith("{"):
        try:
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read weight file {text!r}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid weight JSON: {exc}") from exc
    return BeurlingWeight(OmegaProfile.from_dict(cfg))


def _load_input(args) -> Variety:
    if args.input and args.family:
        raise InputError("give either --input or --family, not both")
    if args.input:
        return load_variety(args.input)
    if args.family:
        try:
            cfg = json.loads(args.family)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid family JSON: {exc}") from exc
        return generators.generate(generators.FamilySpec.from_dict(cfg))
    raise InputError("an input variety is required (--input or --family)")


def _require_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise InputError(f"{what} must be finite numbers")


def _parse_radii(args, window: float) -> list[float]:
    if args.radii:
        try:
            radii = [float(tok) for tok in args.radii.split(",") if tok.strip()]
        except ValueError as exc:
            raise InputError(f"invalid radii list: {exc}") from exc
        _require_finite("radii", *radii)
        if len(radii) < 4:
            raise InputError("at least 4 radii are needed for a trend fit")
        if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
            raise InputError("radii must be strictly increasing")
        if radii[-1] > window / 2 * (1 + 1e-12):
            raise InputError("radii must stay within window_radius / 2")
        return radii
    return conditions.default_radii(window)


def _parse_thresholds(arg: str | None) -> tuple[float, float]:
    if not arg:
        return conditions.DEFAULT_THRESHOLDS
    try:
        lo, hi = (float(t) for t in arg.split(","))
    except ValueError as exc:
        raise InputError(f"invalid thresholds: {exc}") from exc
    _require_finite("thresholds", lo, hi)
    if not 0 <= lo < hi:
        raise InputError("thresholds must satisfy 0 <= low < high")
    return lo, hi


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"report holds a non-finite number: {exc}") from exc


def cmd_check(args) -> int:
    w = _parse_weight(args.weight)
    v = _load_input(args)
    thresholds = _parse_thresholds(args.thresholds)
    radii = _parse_radii(args, v.window_radius)
    split = conditions.split_regions(v, w)
    report = conditions.run_condition_report(v, w, radii, thresholds)
    sep = separation_profile(v, w).to_dict() if len(v) >= 2 else None
    upper = halfplane.HalfPlaneVariety.from_variety(v)
    lower = halfplane.HalfPlaneVariety.from_variety(v, conjugate_lower=True)
    bu_upper = (halfplane.blaschke_sum_report(upper, w, radii, thresholds).to_dict()
                if len(upper) else None)
    bu_lower = (halfplane.blaschke_sum_report(lower, w, radii, thresholds).to_dict()
                if len(lower) else None)
    payload = {
        "weight": w.to_dict(),
        "input": {"points": len(v), "total_mult": v.total_mult,
                  "window_radius": v.window_radius},
        "split": split.counts(),
        "separation": sep,
        "blaschke_upper": bu_upper,
        "blaschke_lower": bu_lower,
        **report.to_dict(),
    }
    if args.format == "csv":
        lines = ["radius,condition_a,condition_b"]
        for r, ca, cb in zip(report.radii, report.constants_a, report.constants_b):
            lines.append(f"{r!r},{ca!r},{cb!r}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_dump(payload), args.out)
    return 0


def cmd_profile_balayage(args) -> int:
    w = _parse_weight(args.weight)
    v = _load_input(args)
    if args.samples < 2:
        raise InputError("need at least 2 samples")
    _require_finite("xmin and xmax", args.xmin, args.xmax)
    if not args.xmin < args.xmax:
        raise InputError("xmin must be below xmax")
    split = conditions.split_regions(v, w)
    ext = split.exterior()
    scan = conditions.ScanSpec(xmin=args.xmin, xmax=args.xmax,
                               samples=args.samples)
    profile = conditions.balayage_profile(ext, scan)
    lines = ["x,value"]
    lines.extend(f"{x!r},{val!r}" for x, val in profile.rows())
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_regularize(args) -> int:
    w = _parse_weight(args.weight)
    _require_finite("grid bounds", args.xmin, args.xmax, args.ymin, args.ymax)
    if not (args.xmin < args.xmax and args.ymin < args.ymax):
        raise InputError("grid bounds must be increasing")
    if args.nx < 1 or args.ny < 1:
        raise InputError("grid sizes must be positive")
    span = max(abs(args.xmin), abs(args.xmax))
    guess = w.omega(min(span + 1.0, w.omega.t_max))
    extent = span + 12.0 * regularization.SMEAR_FACTOR * max(guess, 0.1)
    rw = regularization.regularize(w, extent)
    xs = np.linspace(args.xmin, args.xmax, args.nx)
    ys = np.linspace(args.ymin, args.ymax, args.ny)
    lines = ["x,y,r,p_tilde,p,ratio"]
    for y in ys:
        for x in xs:
            z = complex(float(x), float(y))
            r = regularization.potential_correction(rw, z)
            pt = abs(z.imag) + r
            p = float(w.p(z))
            ratio = pt / p if p > 0 else math.inf
            lines.append(f"{z.real!r},{z.imag!r},{r!r},{pt!r},{p!r},{ratio!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_generate(args) -> int:
    try:
        cfg = json.loads(args.family)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid family JSON: {exc}") from exc
    v = generators.generate(generators.FamilySpec.from_dict(cfg))
    if args.out:
        save_variety(v, args.out)
    else:
        sys.stdout.write(_json_dump(v.to_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apinterp",
        description="Numerical interpolation-variety checks for weighted "
                    "entire-function algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_weight=True, need_input=True):
        if need_weight:
            p.add_argument("--weight", required=True,
                           help="weight JSON (inline or a file path)")
        if need_input:
            p.add_argument("--input", help="variety file (.json or CSV)")
            p.add_argument("--family", help="family spec JSON")
        p.add_argument("--out", help="output path (default: stdout)")

    p_check = sub.add_parser("check", help="run the full condition report")
    add_common(p_check)
    p_check.add_argument("--radii", help="comma separated truncation radii")
    p_check.add_argument("--thresholds", help="slope thresholds, e.g. 0.05,0.2")
    p_check.add_argument("--format", choices=("json", "csv"), default="json")
    p_check.set_defaults(fn=cmd_check)

    p_prof = sub.add_parser("profile-balayage",
                            help="sample the balayage map to CSV")
    add_common(p_prof)
    p_prof.add_argument("--xmin", type=float, required=True)
    p_prof.add_argument("--xmax", type=float, required=True)
    p_prof.add_argument("--samples", type=int, default=512)
    p_prof.set_defaults(fn=cmd_profile_balayage)

    p_reg = sub.add_parser("regularize",
                           help="grid of the regularized weight to CSV")
    add_common(p_reg, need_input=False)
    p_reg.add_argument("--xmin", type=float, required=True)
    p_reg.add_argument("--xmax", type=float, required=True)
    p_reg.add_argument("--ymin", type=float, required=True)
    p_reg.add_argument("--ymax", type=float, required=True)
    p_reg.add_argument("--nx", type=int, default=21)
    p_reg.add_argument("--ny", type=int, default=5)
    p_reg.set_defaults(fn=cmd_regularize)

    p_gen = sub.add_parser("generate", help="write a parametric family")
    p_gen.add_argument("--family", required=True, help="family spec JSON")
    p_gen.add_argument("--out", help="output path (default: stdout)")
    p_gen.set_defaults(fn=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except ApInterpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

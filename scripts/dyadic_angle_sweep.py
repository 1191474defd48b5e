#!/usr/bin/env python3
"""Sweep the dyadic-angle family and print how the two condition constants
scale with the truncation radius.

The counting constant plateaus while the balayage constant keeps climbing
by about pi/4 per extra generation; with the default log-log slope
thresholds that growth reads as inconclusive rather than divergent, which
is exactly the hard regime for trend detection.

Usage: python3 scripts/dyadic_angle_sweep.py [--n-max 14] [--out sweep.csv]
"""

import argparse
import math

import apinterp as ap


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-max", type=int, default=14)
    parser.add_argument("--out", help="optional CSV output path")
    args = parser.parse_args()

    w = ap.BeurlingWeight(ap.OmegaProfile.log_shift(1.0))
    v = ap.generate(ap.FamilySpec("dyadic_angle", {"n_min": 1, "n_max": args.n_max}))
    report = ap.run_condition_report(v, w)
    sweep_a, sweep_b = report.condition_a, report.condition_b
    radii = sweep_a.radii

    print(f"dyadic angle, generations 1..{args.n_max}: {len(v)} points")
    print(f"{'radius':>12} {'counting':>10} {'balayage':>10}")
    for r, ca, cb in zip(radii, sweep_a.constants, sweep_b.constants):
        print(f"{r:12.1f} {ca:10.4f} {cb:10.4f}")
    print(f"counting trend: {sweep_a.trend.verdict} (slope {sweep_a.trend.exponent:.4f})")
    print(f"balayage trend: {sweep_b.trend.verdict} (slope {sweep_b.trend.exponent:.4f})")

    print("\nbalayage increment at x = 0 per generation (limit pi/4 = %.6f):"
          % (math.pi / 4))
    for n in range(1, args.n_max + 1):
        inc = ap.balayage_value(ap.generators.dyadic_row(n), 0.0)
        print(f"  generation {n:2d}: {inc:.6f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("radius,counting_constant,balayage_constant\n")
            for r, ca, cb in zip(radii, sweep_a.constants, sweep_b.constants):
                fh.write(f"{r!r},{ca!r},{cb!r}\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()

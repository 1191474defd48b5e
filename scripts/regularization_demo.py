#!/usr/bin/env python3
"""Build the subharmonic companion weight for a profile and audit it.

Prints the interval partition summary, the correction-to-profile ratio
along the real axis, and the stencil-Laplacian versus measure-density
comparison off the axis.

Usage: python3 scripts/regularization_demo.py [--profile log_shift] [--extent 300]
"""

import argparse
import math

import numpy as np

import apinterp as ap


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--profile", default="log_shift",
                        choices=["log_shift", "log_square", "power"])
    parser.add_argument("--extent", type=float, default=300.0)
    args = parser.parse_args()

    omega = {"log_shift": ap.OmegaProfile.log_shift(1.0),
             "log_square": ap.OmegaProfile.log_square(),
             "power": ap.OmegaProfile.power(0.5)}[args.profile]
    w = ap.BeurlingWeight(omega)
    rw = ap.regularize(w, args.extent)
    part = rw.partition
    audit = part.audit()
    print(f"profile {args.profile}: {len(part)} intervals over "
          f"[-{part.t_outer:.1f}, {part.t_outer:.1f}]")
    print(f"  tiling gap {audit.max_gap:.2e}, center error {audit.max_center_error:.2e}")
    print(f"  reliable half-width {rw.reliable_half_width:.1f}")

    print("\ncorrection along the real axis:")
    hi = rw.reliable_half_width * 0.95
    for x in np.geomspace(max(2.0, part.t_inner + 1.0), hi, 10):
        r = ap.potential_correction(rw, complex(x, 0.0))
        print(f"  x={x:8.2f}  omega={w.omega(x):7.3f}  r={r:8.3f}  "
              f"r/omega={r / w.omega(x):7.3f}")

    z = complex(min(50.0, hi / 2), 0.5)
    lap = ap.laplacian_audit(rw, z, 0.02)
    print(f"\nstencil Laplacian at {z}: {lap.stencil:.6f}")
    print(f"2 pi * measure density:   {lap.expected:.6f}")
    print(f"residual:                 {lap.residual:.2e}")

    masses = [ap.interval_mass_audit(part, i).discrepancy
              for i in range(0, len(part), max(1, len(part) // 8))]
    print(f"worst mass imbalance over sampled intervals: {max(map(abs, masses)):.2e}")


if __name__ == "__main__":
    main()

"""Set-up probe: a fresh interpreter imports apinterp from the checkout and
builds one workload's inputs, then exits.  ``harness.probe_setup`` times it.

    python3 perfbench/probe.py <workload> <seed> <sizes-json> <work-dir>
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    name, seed, sizes, work_dir = argv[1], int(argv[2]), json.loads(argv[3]), Path(argv[4])
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    work_dir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].inputs(seed, sizes, work_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

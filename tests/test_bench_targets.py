"""The traced benchmark wraps library names by module attribute; a name
removed from the library must fail here, not only in a `--trace 1` run."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import harness  # noqa: E402


def test_every_traced_target_is_an_attribute_of_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in harness.TARGETS if attr not in vars(owner)]
    assert missing == []

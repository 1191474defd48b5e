"""The traced benchmark wraps library names by module attribute; a name
removed from the library must fail here, not only in a `--trace 1` run."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import harness  # noqa: E402


def test_every_traced_target_is_an_attribute_of_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in harness.TARGETS if attr not in vars(owner)]
    assert missing == []


def _library_names(path):
    """(line, module, attr) of every library name a perfbench file reads:
    each `from apinterp.x import y`, and each `m.attr` of a name m bound to
    apinterp or one of its modules (by `import`, `from apinterp import m` or
    `from apinterp.x import m`)."""
    tree = ast.parse(path.read_text(), str(path))
    bound, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "apinterp":
                    bound[alias.asname or alias.name] = alias.name if alias.asname else "apinterp"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "apinterp":
            for alias in node.names:
                names.append((node.lineno, node.module, alias.name))
                sub = f"{node.module}.{alias.name}"
                if node.module == "apinterp" and importlib.util.find_spec(sub):
                    bound[alias.asname or alias.name] = sub
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            names.append((node.lineno, bound[node.value.id], node.attr))
    return names


def test_every_library_name_perfbench_reads_exists():
    # A renamed or deleted library name (an oracle's conditions.balayage_value,
    # extension.CutoffSpec, variety.save_variety, ...) must fail here, not
    # only in a benchmark run.
    checked, missing = 0, []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for line, module, attr in _library_names(path):
            checked += 1
            if not hasattr(importlib.import_module(module), attr):
                missing.append(f"{path.name}:{line}: {module}.{attr}")
    assert checked > 30 and missing == []

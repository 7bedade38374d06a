"""Every public function and method in coalgp has a caller outside the tests.

The scan lists, with ``ast``, the public module-level functions and the
public methods (properties included) of the classes in ``src/coalgp``.  A
name counts as used when it is read anywhere in ``src/coalgp`` (a bare name
or an attribute), when it appears in ``perfbench/*.py`` (the benchmark's
tracer wraps functions by name, as strings), when ``coalgp/__init__.py``
imports it, or when it is in ``KEPT`` below.  The match is by name
only: two methods that share a name hide each other, and a use of one counts
for both.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coalgp"

# Public names with no caller in the program, kept on purpose.
KEPT = {
    "run_prior_chain",  # prior recovery (acceptance criterion 7)
    "interval_of",  # scalar lookup against the array latent_slices
    "covariance",  # the dense kernel matrix the GP tests check against
    "isochronous",  # CoalescentData constructor the README's library example uses
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def defined_names() -> dict[str, str]:
    """Public module-level functions and class methods, name -> where."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
                out.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(item.name):
                        out.setdefault(item.name, f"{path.name}:{node.name}.{item.name}")
    return out


def used_names() -> set[str]:
    used = set(KEPT)
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                used.update(alias.name for alias in node.names)
    for path in (ROOT / "perfbench").glob("*.py"):
        used.update(re.findall(r"\w+", path.read_text()))
    return used


def test_every_public_name_has_a_caller():
    used = used_names()
    dead = {name: where for name, where in defined_names().items() if name not in used}
    assert dead == {}, f"public names with no caller outside the tests: {dead}"


def test_scan_sees_functions_methods_and_properties():
    names = defined_names()
    for name in ("run_chain", "latent_slices", "size", "from_json"):
        assert name in names
    assert "__post_init__" not in names and "_rj_pass" not in names

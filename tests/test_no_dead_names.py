"""Every public function and method in coalgp has a caller outside the tests.

The scan lists, with ``ast``, the public module-level functions and the
public methods (properties included) of the classes in ``src/coalgp``.  A
name counts as used when it is read anywhere in ``src/coalgp`` (a bare name
or an attribute), when it appears in ``perfbench/*.py`` (the benchmark's
tracer wraps functions by name, as strings), when ``coalgp/__init__.py``
imports it, or when it is in ``KEPT`` below.  The match is by name
only: two methods that share a name hide each other, and a use of one counts
for both.  A public classmethod or staticmethod must also be read through its
own class: as ``<ItsClass>.name`` in ``src/coalgp``, or as ``cls.name`` inside
that class.
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


def _is_class_level(item) -> bool:
    return any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod") for d in item.decorator_list)


def class_level_methods() -> dict[tuple[str, str], str]:
    """Public classmethods and staticmethods, (class, name) -> where."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _is_public(item.name) and _is_class_level(item):
                        out[node.name, item.name] = f"{path.name}:{node.name}.{item.name}"
    return out


def class_reads() -> set[tuple[str, str]]:
    """(class, name) for every ``Class.name`` read in src, and every
    ``cls.name`` read inside the class ``Class``."""
    reads = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads.add((node.value.id, node.attr))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cls":
                    reads.add((cls.name, node.attr))
    return reads


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
    reads = class_reads()
    dead.update(
        {f"{c}.{name}": where for (c, name), where in class_level_methods().items()
         if name not in KEPT and (c, name) not in reads}
    )
    assert dead == {}, f"public names with no caller outside the tests: {dead}"


def test_scan_sees_functions_methods_and_properties():
    names = defined_names()
    for name in ("run_chain", "latent_slices", "size", "from_json"):
        assert name in names
    assert "__post_init__" not in names and "_rj_pass" not in names


def test_class_level_methods_count_only_reads_through_their_class():
    methods, reads = class_level_methods(), class_reads()
    assert ("CoalescentData", "from_json") in methods and ("ChainDraw", "from_json") in methods
    assert ("CoalescentData", "from_json") in reads  # cls.from_json inside CoalescentData
    assert ("ChainDraw", "from_json") in reads  # ChainDraw.from_json in mcmc.py
    assert ("CoalescentData", "isochronous") not in reads  # kept by KEPT alone

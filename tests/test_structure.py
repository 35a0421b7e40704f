"""Layering rules of the package, checked on its source.

Only ``localfield`` tells Q_p from F_p((T)); every other module asks the
field layer (``FieldSpec.ops``).  No module reaches into another module's
private names, and every name the package exports is used by the engine
or the tests.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ultrazeta"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

# (importing module, source module, private name) still allowed
ALLOWED_PRIVATE = set()


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_the_field_layer_reads_the_field_kind(path):
    if path.stem == "localfield":
        return
    reads = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert reads == [], f"{path.name} reads .kind on lines {reads}"


def _private_imports(path):
    """(source module, name) for every private name of a sibling module
    that ``path`` imports or reads off an imported sibling module."""
    out = []
    modules = {}  # local name -> sibling module
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith(
                "ultrazeta"):
            continue
        source = (node.module or "").rpartition(".")[2]
        for alias in node.names:
            if not source:  # from . import grid
                modules[alias.asname or alias.name] = alias.name
            elif _is_private(alias.name):
                out.append((source, alias.name))
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and _is_private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            out.append((modules[node.value.id], node.attr))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_private_names(path):
    bad = [(src, name) for src, name in _private_imports(path)
           if (path.stem, src, name) not in ALLOWED_PRIVATE]
    assert bad == [], f"{path.name} imports private names {bad}"


def test_the_allowed_private_imports_are_still_used():
    used = {(path.stem, src, name) for path in MODULES
            for src, name in _private_imports(path)}
    assert ALLOWED_PRIVATE <= used


def _used_names(path):
    """Every name ``path`` reads, as a variable or as an attribute."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _exports():
    return [alias.asname or alias.name
            for node in ast.walk(_tree(SRC / "__init__.py"))
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_export_is_used():
    used = set().union(*(_used_names(path) for path in MODULES + TESTS
                         if path != SRC / "__init__.py"))
    unused = [name for name in _exports() if name not in used]
    assert unused == [], f"__init__ exports names nothing uses: {unused}"

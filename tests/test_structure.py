"""Layering rules of the package, checked on its source.

Only ``localfield`` tells Q_p from F_p((T)); every other module asks the
field layer (``FieldSpec.ops``), and inside ``localfield`` only the kind
check and the selector of ``FieldSpec.ops`` compare the field kind.  No
module reaches into another module's private names, and every name the
package exports is used by the engine or the tests.  Polynomials are
evaluated by the field layer's order kernel: only ``intpoly`` calls the
scalar evaluators, which the tests keep as oracles.  The benchmark's span
tracer finds every entry point it wraps.
"""

import ast
import importlib
import types
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


# the only places of ``localfield`` that compare the field kind: the kind
# check and the selector of ``FieldSpec.ops``
KIND_SELECTORS = {"FieldSpec.__post_init__", "_field_ops"}


def _kind_comparisons(tree, scope=""):
    """(enclosing function, line) of every comparison that reads .kind."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{scope}.{node.name}" if scope else node.name
            out += _kind_comparisons(node, name)
            continue
        if isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "kind"
                for sub in ast.walk(node)):
            out.append((scope, node.lineno))
        out += _kind_comparisons(node, scope)
    return out


def test_the_field_layer_compares_the_kind_only_in_its_selector():
    found = _kind_comparisons(_tree(SRC / "localfield.py"))
    outside = [(scope, line) for scope, line in found
               if scope not in KIND_SELECTORS]
    assert outside == [], f"localfield compares .kind outside " \
        f"{sorted(KIND_SELECTORS)}: {outside}"
    assert {scope for scope, _ in found} == KIND_SELECTORS


SCALAR_EVALUATORS = {"eval_int", "eval_fraction", "eval_fpt"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_intpoly_calls_the_scalar_evaluators(path):
    if path.stem == "intpoly":
        return
    calls = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute)
             and node.attr in SCALAR_EVALUATORS]
    assert calls == [], f"{path.name} evaluates a polynomial by hand on " \
        f"lines {calls}; use FieldSpec.ops.poly_ords"


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


def _benchmark_tracer():
    """perfbench/tracer.py as a module, read and compiled in memory so
    that nothing is written under perfbench/."""
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def test_the_benchmark_tracer_resolves_every_entry_point():
    # a rename that leaves a name of ENTRY_POINTS unresolved fails here,
    # not in the benchmark's traced run
    import ultrazeta
    bench = _benchmark_tracer()
    modules = [ultrazeta] + [importlib.import_module(f"ultrazeta.{name}")
                             for name in bench.LAYERS]
    before = [dict(vars(mod)) for mod in modules]
    tracer = bench.Tracer()
    tracer.install(ultrazeta)
    try:
        assert tracer._patched
    finally:
        tracer.uninstall()
    for mod, names in zip(modules, before):
        assert vars(mod).keys() == names.keys()
        assert all(vars(mod)[k] is v for k, v in names.items()), mod

"""The layering of the package, read from its source with ``ast``.

Imports point one way.  The combinatorial core (colour tables, diagrams,
their isomorphisms, the census and its orbit engine, wiring, series and
coverings) needs no numbers beyond exact rationals.  The numeric layer
(``algebra``, ``gaussian``) adds numpy tensors and quadrature, and the front
end (``verify``, ``cli``) sits on both.  A private name stays in its module.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fdcalc"

LAYERS = (
    {"colours", "poly", "diagram", "iso", "dsl", "generate", "prop",
     "series", "coverings"},
    {"algebra", "gaussian"},
    {"verify", "cli"},
)
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
MODULES = sorted(RANK)


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def _imports(name: str) -> list[tuple[str, tuple[str, ...]]]:
    """(module, names) per import in ``name``; a sibling module reads as its
    bare name, and ``import x`` has no names."""
    out = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            out.extend((a.name, ()) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = tuple(a.name for a in node.names)
            module = node.module or ""
            if node.level and not module:
                out.extend((n, ()) for n in names)
            elif node.level or module.startswith("fdcalc."):
                out.append((module.removeprefix("fdcalc."), names))
            else:
                out.append((module, names))
    return out


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(RANK)


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_crosses_a_module(name):
    crossing = [f"{module}.{n}" for module, names in _imports(name)
                if module in RANK for n in names if n.startswith("_")]
    assert crossing == []


@pytest.mark.parametrize("name", MODULES)
def test_only_the_numeric_layer_imports_numpy(name):
    numpy = [m for m, _ in _imports(name) if m.split(".")[0] == "numpy"]
    assert not numpy or name in LAYERS[1]


@pytest.mark.parametrize("name", MODULES)
def test_imports_point_down(name):
    upward = [m for m, _ in _imports(name)
              if m in RANK and RANK[m] > RANK[name]]
    assert upward == []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    """Each imported name is read somewhere in its module.  ``__init__`` is
    left out, since it imports to re-export."""
    tree = _tree(name)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_parameter_is_private(name):
    """A function takes data through public parameters only; a parameter
    named ``_x`` is a hook for one caller."""
    private = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p]
            private += [p.arg for p in params if p.arg.startswith("_")]
    assert private == []

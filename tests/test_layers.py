"""The layering of the package, read from its source with ``ast``.

Imports point one way.  The combinatorial core (colour tables, diagrams,
their isomorphisms, the census and its orbit engine, wiring, series and
coverings) needs no numbers beyond exact rationals.  The numeric layer
(``algebra``, ``gaussian``) adds tensor amplitudes and Gaussian averages,
and the front end (``verify``, ``cli``) sits on both.  The package
``__init__`` imports none of its modules at module level: it serves each
public name and submodule on first use.  The front end imports at module
level only what all its commands or checks share, and the rest, the
numeric layer among it, inside the functions that use it.  The numeric
layer imports numpy only inside its float branches and the functions that
hand out arrays, so that a command or an import that computes with exact
rationals alone loads no numpy.  A private name stays in its module.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

import fdcalc

from util import run_python

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


def _imports(name: str, top_level: bool = False
             ) -> list[tuple[str, tuple[str, ...]]]:
    """(module, names) per import in ``name``, or per import among its
    module-level statements only; a sibling module reads as its bare name,
    and ``import x`` has no names."""
    tree = _tree(name)
    out = []
    for node in tree.body if top_level else ast.walk(tree):
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


def test_every_size_bound_named_is_defined_in_generate():
    # The size bounds live in ``generate``; the docs and the code must not
    # name one that is gone.
    defined = {t.id for node in _tree("generate").body
               if isinstance(node, ast.Assign) for t in node.targets
               if isinstance(t, ast.Name)}
    for path in (SRC.parent.parent / "README.md", *sorted(SRC.glob("*.py"))):
        named = set(re.findall(r"MAX_[A-Z_]+", path.read_text()))
        assert named <= defined, (path.name, named - defined)


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


# The siblings that the package ``__init__`` and the front end may import
# at module level: what every command, or every check, uses.
EAGER = {"__init__": set(), "cli": {"colours", "diagram", "dsl"},
         "verify": LAYERS[0] - {"coverings"}}


@pytest.mark.parametrize("name", ["__init__", "cli", "verify"])
def test_numeric_layer_is_imported_only_where_used(name):
    eager = {m for m, _ in _imports(name, top_level=True) if m in RANK}
    assert eager <= EAGER[name]


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


# -- the package surface -----------------------------------------------------

PUBLIC = [
    "AlgebraError", "AlgebraSpec", "ColourEntry", "ColourTable",
    "ColourTableError", "CoveringError", "CoveringInstance", "CoveringReport",
    "Diagram", "DiagramClass", "DiagramError", "GaussianError",
    "GaussianSpec", "MultiSeries", "ParseError", "Poly", "TypedDiagram",
    "VariableKey", "Vertex", "amplitude", "amplitude_coloured",
    "are_isomorphic", "average_with_potential",
    "bare_edge", "braiding", "build_diagram", "canonical_code", "closures",
    "colouring_covering", "compose", "connected_components", "coupon_star",
    "covering_report", "cut_covering", "cyclic_star", "degree",
    "diagram_monomial", "disjoint_union", "edge_pairings", "enumerate_closed",
    "expand_colourings", "expectation_value", "forget_numbering",
    "format_monomial", "format_table", "free_energy_series", "frt_check",
    "groupoid_integral", "identity", "interaction_terms", "leg_polynomial",
    "load_algebra", "mark_root", "numbering_covering", "parse_diagram",
    "parse_table", "partition_series", "poly_average", "quadrature_average",
    "rooted_series", "serialize_diagram", "symmetric_star", "taylor_stars",
    "tensor", "variable_for", "wick_moment",
]


def test_public_names_are_pinned():
    assert fdcalc.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_owners_object(name):
    obj = getattr(fdcalc, name)
    owner = obj.__module__
    assert owner.removeprefix("fdcalc.") in RANK
    assert getattr(importlib.import_module(owner), name) is obj


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from fdcalc import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert set(PUBLIC) <= set(dir(fdcalc))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        fdcalc.no_such_name


def test_bare_import_loads_no_module():
    done = run_python("-c", "import sys, fdcalc; print(sorted("
                            "m for m in sys.modules if m.startswith('fdcalc')))")
    assert (done.returncode, done.stdout) == (0, "['fdcalc']\n")


@pytest.mark.parametrize("name", MODULES)
def test_every_module_is_served_as_an_attribute(name):
    # Called directly, since a module already imported is bound to the
    # package without it.
    assert fdcalc.__getattr__(name) is importlib.import_module(
        f"fdcalc.{name}")


def test_submodules_are_attributes_after_a_bare_import():
    done = run_python("-c", "import fdcalc; "
                            "print(fdcalc.generate.MAX_CLOSURE_LEGS, "
                            "fdcalc.prop.closures is fdcalc.closures, "
                            "fdcalc.iso.__name__)")
    assert (done.returncode, done.stdout) == (0, "16 True fdcalc.iso\n")


def test_bare_import_leaves_numpy_unloaded():
    done = run_python("-c", "import sys, fdcalc; print('numpy' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_numeric_layer_import_leaves_numpy_unloaded():
    done = run_python("-c", "import sys, fdcalc.algebra, fdcalc.gaussian; "
                            "print('numpy' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n")

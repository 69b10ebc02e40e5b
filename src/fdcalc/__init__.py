"""Exact calculus of Feynman diagrams.

Diagrams are finite graphs whose internal vertices carry coloured,
symmetry-decorated slots and whose legs can be numbered into inputs and
outputs.  The package counts their automorphisms canonically, composes
them as a PROP, enumerates closed diagrams up to isomorphism, forms the
automorphism-weighted generating series (partition function, free
energy, rooted sums) in exact rational arithmetic, evaluates tensor
amplitudes over a choice of pairing and vertex tensors, and cross-checks
the diagram sums against direct Gaussian integrals.

Importing the package loads none of its modules.  Each public name, and
each submodule (``fdcalc.generate``, ...), is served on first use by the
module ``__getattr__``, which imports the module that owns it, so a
program pays only for the modules it uses.  Only the numeric layer
(``algebra``, ``gaussian``) uses numpy, and only for float algebras,
quadrature and the public names that hand out arrays; exact algebras run
on ``fractions`` alone.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Every public name, each with the module that owns it.
_OWNERS = {
    **dict.fromkeys(("AlgebraError", "AlgebraSpec", "amplitude",
                     "amplitude_coloured", "expectation_value",
                     "interaction_terms", "leg_polynomial", "load_algebra"),
                    "algebra"),
    **dict.fromkeys(("ColourEntry", "ColourTable", "ColourTableError"),
                    "colours"),
    **dict.fromkeys(("CoveringError", "CoveringInstance", "CoveringReport",
                     "colouring_covering", "covering_report", "cut_covering",
                     "numbering_covering"),
                    "coverings"),
    **dict.fromkeys(("Diagram", "DiagramError", "TypedDiagram", "Vertex",
                     "bare_edge", "build_diagram", "connected_components",
                     "coupon_star", "cyclic_star", "degree", "disjoint_union",
                     "expand_colourings", "forget_numbering", "mark_root",
                     "symmetric_star"),
                    "diagram"),
    **dict.fromkeys(("ParseError", "format_table", "parse_diagram",
                     "parse_table", "serialize_diagram"),
                    "dsl"),
    **dict.fromkeys(("GaussianError", "GaussianSpec",
                     "average_with_potential", "frt_check", "poly_average",
                     "quadrature_average", "taylor_stars", "wick_moment"),
                    "gaussian"),
    **dict.fromkeys(("DiagramClass", "enumerate_closed"), "generate"),
    **dict.fromkeys(("are_isomorphic", "canonical_code"), "iso"),
    "Poly": "poly",
    **dict.fromkeys(("braiding", "closures", "compose", "edge_pairings",
                     "identity", "tensor"),
                    "prop"),
    **dict.fromkeys(("MultiSeries", "VariableKey", "diagram_monomial",
                     "format_monomial", "free_energy_series",
                     "groupoid_integral", "partition_series",
                     "rooted_series", "variable_for"),
                    "series"),
}

# The package's modules; the front end owns no public name.
_MODULES = {*_OWNERS.values(), "cli", "verify"}

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    """A public name, imported with its module on first use, or one of the
    package's modules."""
    if name in _OWNERS:
        return getattr(_importlib.import_module(f".{_OWNERS[name]}",
                                                __name__), name)
    if name in _MODULES:
        return _importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_OWNERS) | _MODULES)

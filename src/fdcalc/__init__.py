"""Exact calculus of Feynman diagrams.

Diagrams are finite graphs whose internal vertices carry coloured,
symmetry-decorated slots and whose legs can be numbered into inputs and
outputs.  The package counts their automorphisms canonically, composes
them as a PROP, enumerates closed diagrams up to isomorphism, forms the
automorphism-weighted generating series (partition function, free
energy, rooted sums) in exact rational arithmetic, evaluates tensor
amplitudes over a choice of pairing and vertex tensors, and cross-checks
the diagram sums against direct Gaussian integrals.

Only the numeric layer (``algebra``, ``gaussian``) uses numpy, and only
for float algebras, quadrature and the public names that hand out arrays;
exact algebras run on ``fractions`` alone.  The numeric names are served on
first use by the module ``__getattr__``, and importing the package, or
computing with exact rationals alone, leaves numpy unloaded.
"""

import importlib as _importlib
import types as _types

from .colours import ColourEntry, ColourTable, ColourTableError
from .coverings import (CoveringError, CoveringInstance, CoveringReport,
                        colouring_covering, covering_report, cut_covering,
                        numbering_covering)
from .diagram import (Diagram, DiagramError, TypedDiagram, Vertex, bare_edge,
                      build_diagram, connected_components, coupon_star,
                      cyclic_star, degree, disjoint_union, expand_colourings,
                      forget_numbering, mark_root, symmetric_star)
from .dsl import (ParseError, format_table, parse_diagram, parse_table,
                  serialize_diagram)
from .generate import DiagramClass, enumerate_closed
from .iso import are_isomorphic, canonical_code
from .poly import Poly
from .prop import braiding, closures, compose, edge_pairings, identity, tensor
from .series import (MultiSeries, VariableKey, diagram_monomial,
                     format_monomial, free_energy_series, groupoid_integral,
                     partition_series, rooted_series, variable_for)

__version__ = "0.1.0"

# The public names of the numeric layer, each with its module.
_NUMERIC = {
    **dict.fromkeys(("AlgebraError", "AlgebraSpec", "amplitude",
                     "amplitude_coloured", "expectation_value",
                     "interaction_terms", "leg_polynomial", "load_algebra"),
                    "algebra"),
    **dict.fromkeys(("GaussianError", "GaussianSpec",
                     "average_with_potential", "frt_check", "poly_average",
                     "quadrature_average", "taylor_stars", "wick_moment"),
                    "gaussian"),
}

__all__ = sorted([name for name, obj in globals().items()
                  if not name.startswith("_")
                  and not isinstance(obj, _types.ModuleType)] + list(_NUMERIC))


def __getattr__(name: str):
    """A public name of the numeric layer, imported with its module on
    first use."""
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f".{_NUMERIC[name]}", __name__),
                   name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_NUMERIC))

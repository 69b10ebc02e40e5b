"""Exact calculus of Feynman diagrams.

Diagrams are finite graphs whose internal vertices carry coloured,
symmetry-decorated slots and whose legs can be numbered into inputs and
outputs.  The package counts their automorphisms canonically, composes
them as a PROP, enumerates closed diagrams up to isomorphism, forms the
automorphism-weighted generating series (partition function, free
energy, rooted sums) in exact rational arithmetic, evaluates tensor
amplitudes over a choice of pairing and vertex tensors, and cross-checks
the diagram sums against direct Gaussian integrals.
"""

import types as _types

from .algebra import (AlgebraError, AlgebraSpec, amplitude,
                      amplitude_coloured, expectation_value,
                      interaction_terms, leg_polynomial, load_algebra)
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
from .gaussian import (GaussianError, GaussianSpec, average_with_potential,
                       frt_check, poly_average, quadrature_average,
                       taylor_stars, wick_moment)
from .generate import DiagramClass, enumerate_closed
from .iso import are_isomorphic, aut_order_bruteforce, canonical_code
from .poly import Poly
from .prop import braiding, closures, compose, edge_pairings, identity, tensor
from .series import (MultiSeries, VariableKey, diagram_monomial,
                     format_monomial, free_energy_series, groupoid_integral,
                     partition_series, rooted_series, variable_for)

__version__ = "0.1.0"

__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_")
                 and not isinstance(obj, _types.ModuleType))

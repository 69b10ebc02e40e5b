"""Property tests for the canonical search against the brute-force oracle.

The strategy reaches the corners ``util.random_diagram`` never does:
valence-0 vertices, bare edges, root marks on vertices and edges, cyclic
vertices of valence 1 and 2, coupons with no inputs, and typed legs.
"""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fdcalc.diagram import Diagram, TypedDiagram, Vertex, relabel, relabel_typed
from fdcalc.iso import aut_order, aut_order_bruteforce, canonical_code

import util
from test_iso import _bruteforce_iso

# Keeps the brute-force oracles fast.
MAX_HALF_EDGES = 12


@st.composite
def diagrams(draw, vertex_counts: tuple[int, int] = (0, 4),
             valences: tuple[int, int] = (0, 4), max_bare: int = 6,
             max_types: int = 2, closed: bool = False) -> Diagram:
    # Vertices come from at most ``max_types`` drawn types over two colours,
    # so that regular, highly symmetric diagrams are common.
    types = []
    for _ in range(draw(st.integers(1, max_types))):
        kind = draw(st.sampled_from(("symmetric", "cyclic", "coupon")))
        valence = draw(st.integers(*valences))
        n_in = draw(st.integers(0, valence)) if kind == "coupon" else None
        types.append((kind, draw(st.sampled_from("ab")), valence, n_in,
                      draw(st.booleans()), draw(st.booleans())))
    vertices = []
    nid = 0
    for _ in range(draw(st.integers(*vertex_counts))):
        kind, colour, valence, n_in, special, root = draw(st.sampled_from(types))
        if nid + valence > MAX_HALF_EDGES:
            break
        vertices.append(Vertex(kind, colour, tuple(range(nid, nid + valence)),
                               n_in, special=special, root=root))
        nid += valence
    halves = draw(st.permutations(range(nid)))
    npairs = nid // 2 if closed else draw(st.integers(0, nid // 2))
    pairs = [(halves[2 * k], halves[2 * k + 1]) for k in range(npairs)]
    roots = [p for p in pairs if draw(st.booleans())]
    bare = draw(st.integers(0, min(max_bare, (MAX_HALF_EDGES - nid) // 2)))
    pairs += [(nid + 2 * k, nid + 2 * k + 1) for k in range(bare)]
    return Diagram(tuple(vertices), frozenset(pairs), frozenset(roots))


@st.composite
def typed_diagrams(draw) -> TypedDiagram:
    d = draw(diagrams())
    legs = draw(st.permutations(d.legs))
    k = draw(st.integers(0, len(legs)))
    return TypedDiagram(d, tuple(legs[:k]), tuple(legs[k:]))


def _shuffled(d: Diagram, rng: random.Random) -> Diagram:
    """``d`` under a random renaming of half-edges and order of vertices."""
    r = relabel(d, util.random_relabelling(d, rng))
    vertices = list(r.vertices)
    rng.shuffle(vertices)
    return Diagram(tuple(vertices), r.pairs, r.root_pairs)


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@SETTINGS
@given(diagrams())
def test_aut_order_matches_bruteforce(d):
    assert aut_order(d) == aut_order_bruteforce(d)


@SETTINGS
@given(typed_diagrams())
def test_typed_aut_order_matches_bruteforce(t):
    assert aut_order(t) == aut_order_bruteforce(t)
    assert aut_order(t.base) % aut_order(t) == 0


@SETTINGS
@given(diagrams(), st.randoms(use_true_random=False))
def test_code_invariant_under_relabelling(d, rng):
    assert canonical_code(_shuffled(d, rng)) == canonical_code(d)


@SETTINGS
@given(typed_diagrams(), st.randoms(use_true_random=False))
def test_typed_code_invariant_under_relabelling(t, rng):
    f = util.random_relabelling(t.base, rng)
    assert canonical_code(relabel_typed(t, f)) == canonical_code(t)


def _switched(d: Diagram, rng: random.Random) -> Diagram:
    """``d`` with the partners of two of its slot pairs exchanged.  A switch
    keeps every vertex's valence and most local counts, so it makes
    non-isomorphic neighbours that local invariants cannot tell apart."""
    slot_pairs = sorted(p for p in d.pairs if p not in d.bare_pairs)
    if len(slot_pairs) < 2:
        return d
    (a, b), (c, e) = rng.sample(slot_pairs, 2)
    swapped = {(a, b), (c, e)}
    pairs = (d.pairs - swapped) | {(a, c), (b, e)}
    return Diagram(d.vertices, pairs, d.root_pairs - swapped)


@SETTINGS
@given(diagrams(vertex_counts=(4, 6), valences=(2, 3), max_bare=0,
                max_types=1, closed=True),
       st.randoms(use_true_random=False))
def test_switched_codes_equal_iff_isomorphic(d, rng):
    e = _switched(d, rng)
    same = canonical_code(d).code == canonical_code(e).code
    assert same == _bruteforce_iso(d, e)

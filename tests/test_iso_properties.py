"""Property tests for the canonical search against the brute-force oracle,
and for the PROP laws of ``compose`` and ``tensor`` up to isomorphism.

The strategy reaches the corners ``util.random_diagram`` never does:
valence-0 vertices, bare edges, root marks on vertices and edges, cyclic
vertices of valence 1 and 2, coupons with no inputs, and typed legs.
"""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fdcalc.diagram import (
    Diagram, DiagramError, TypedDiagram, Vertex, next_id, relabel,
    relabel_typed,
)
from fdcalc.iso import aut_order, canonical_code
from fdcalc.prop import compose, identity, tensor

import util
from bruteforce import aut_order_bruteforce
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


@st.composite
def typed_with_src(draw, src: int) -> TypedDiagram:
    """A typed diagram with ``src`` inputs.  Bare edges are added when the
    drawn diagram has fewer than ``src`` legs."""
    d = draw(diagrams())
    nid = next_id(d)
    bare = {(nid + 2 * k, nid + 2 * k + 1)
            for k in range((max(0, src - len(d.legs)) + 1) // 2)}
    d = Diagram(d.vertices, d.pairs | bare, d.root_pairs)
    legs = draw(st.permutations(d.legs))
    return TypedDiagram(d, tuple(legs[:src]), tuple(legs[src:]))


@st.composite
def chains(draw, length: int) -> list[TypedDiagram]:
    """Typed diagrams f_1, ..., f_length with f_{i+1} composable after f_i."""
    out = [draw(typed_diagrams())]
    while len(out) < length:
        out.append(draw(typed_with_src(out[-1].tgt)))
    return out


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


def _code_or_error(build) -> bytes | None:
    """The canonical code of ``build()``, or None if it raises DiagramError
    (a composition that closes a circle carrying no vertex)."""
    try:
        return canonical_code(build()).code
    except DiagramError:
        return None


def _same(left, right):
    """Both sides build isomorphic typed diagrams, or both raise."""
    assert _code_or_error(left) == _code_or_error(right)


@SETTINGS
@given(chains(3))
def test_compose_is_associative(fgh):
    f, g, h = fgh
    _same(lambda: compose(h, compose(g, f)),
          lambda: compose(compose(h, g), f))


@SETTINGS
@given(typed_diagrams())
def test_compose_has_identities(t):
    _same(lambda: compose(identity(t.tgt), t), lambda: t)
    _same(lambda: compose(t, identity(t.src)), lambda: t)


@SETTINGS
@given(typed_diagrams(), typed_diagrams(), typed_diagrams())
def test_tensor_is_associative_with_unit(a, b, c):
    _same(lambda: tensor(tensor(a, b), c), lambda: tensor(a, tensor(b, c)))
    _same(lambda: tensor(identity(0), a), lambda: a)
    _same(lambda: tensor(a, identity(0)), lambda: a)


@SETTINGS
@given(chains(2), chains(2))
def test_interchange_law(fg1, fg2):
    (f1, g1), (f2, g2) = fg1, fg2
    _same(lambda: compose(tensor(g1, g2), tensor(f1, f2)),
          lambda: tensor(compose(g1, f1), compose(g2, f2)))

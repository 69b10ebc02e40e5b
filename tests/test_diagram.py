import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdcalc.diagram import (
    Diagram, DiagramError, EdgeColouring, TypedDiagram, Vertex, bare_edge,
    build_diagram, component_labels, connected_components, degree,
    disjoint_union, forget_numbering, mark_root, relabel, symmetric_star,
)

import util
from bruteforce import tagged_components


def test_empty_diagram():
    d = Diagram()
    assert d.legs == ()
    assert d.is_closed
    assert degree(d) == 0
    assert connected_components(d) == []


def test_figure_eight_structure():
    d = util.figure_eight()
    assert degree(d) == 4
    assert d.is_closed
    assert len(connected_components(d)) == 1


def test_special_vertices_are_weightless():
    assert degree(util.figure_eight(special=True)) == 0
    assert degree(util.theta()) == 6


def test_bare_edge_legs():
    d = bare_edge()
    assert set(d.legs) == {0, 1}
    assert d.free_halves == {0, 1}
    assert not d.is_closed
    assert degree(d) == 0


def test_star_legs():
    d = symmetric_star("phi4", 4)
    assert d.legs == (0, 1, 2, 3)


def test_slot_normal_forms():
    a = Vertex("symmetric", "x", (3, 1, 2))
    assert a.slots == (1, 2, 3)
    b = Vertex("cyclic", "y", (2, 3, 1))
    c = Vertex("cyclic", "y", (1, 2, 3))
    assert b == c
    d = Vertex("cyclic", "y", (2, 1, 3))
    assert d != c  # rotation class differs, not a relabelling artefact
    k = Vertex("coupon", "t", (5, 4, 9), n_in=2)
    assert k.ins == (5, 4) and k.outs == (9,)


def test_vertex_validation():
    with pytest.raises(DiagramError):
        Vertex("symmetric", "x", (1, 1))
    with pytest.raises(DiagramError):
        Vertex("coupon", "x", (1, 2))
    with pytest.raises(DiagramError):
        Vertex("cyclic", "x", (1, 2), n_in=1)
    with pytest.raises(DiagramError):
        Vertex("hexagonal", "x", (1, 2))


def test_matching_validation():
    v = Vertex("symmetric", "x", (0, 1, 2))
    with pytest.raises(DiagramError):
        Diagram((v,), frozenset({(0, 0)}))
    with pytest.raises(DiagramError):
        Diagram((v,), frozenset({(0, 1), (1, 2)}))
    with pytest.raises(DiagramError):
        # slot half matched with a free half
        Diagram((v,), frozenset({(2, 7)}))
    with pytest.raises(DiagramError):
        Diagram((v, Vertex("symmetric", "x", (2, 3, 4))), frozenset())


def test_build_diagram_checks_table():
    t = util.quartic_table()
    d = build_diagram([("symmetric", "phi4", (0, 1, 2, 3))], {0: 1, 1: 0, 2: 3, 3: 2}, t)
    assert d == util.figure_eight()
    with pytest.raises(Exception):
        build_diagram([("symmetric", "phi5", (0, 1, 2, 3, 4))], {}, t)
    with pytest.raises(DiagramError):
        build_diagram([("symmetric", "phi4", (0, 1, 2))], {}, t)
    with pytest.raises(DiagramError):
        build_diagram([("symmetric", "phi4", (0, 1, 2, 3))], {0: 1}, t)
    v = Vertex("symmetric", "phi4", (3, 2, 1, 0))
    assert build_diagram([v], {0: 1, 1: 0, 2: 3, 3: 2}, t) == \
        util.figure_eight()


@pytest.mark.parametrize("make,message", [
    (lambda: Diagram((), frozenset({(0, 1)}), frozenset({(2, 3)})),
     "root_pairs must be a subset of pairs"),
    (lambda: EdgeColouring(util.theta(), (((0, 3), 0), ((1, 4), -1),
                                          ((2, 5), 0))),
     "colour indices start at 0"),
    (lambda: relabel(util.theta(), dict.fromkeys(range(6), 0)),
     "relabelling must be injective"),
    (lambda: build_diagram([("symmetric", "x", (0, 1))], {0: 0, 1: 1}),
     "matching fixes half-edge 0"),
    (lambda: build_diagram([("coupon", "t", (0, 1))], {}),
     "coupon vertex needs n_in"),
], ids=["root pairs", "colour index", "relabel", "fixed point",
        "coupon triple"])
def test_refusals_name_their_fault(make, message):
    with pytest.raises(DiagramError, match=message):
        make()


def test_typed_validation():
    d = symmetric_star("phi4", 4)
    t = TypedDiagram(d, (0, 1), (2, 3))
    assert t.src == 2 and t.tgt == 2
    with pytest.raises(DiagramError):
        TypedDiagram(d, (0, 1), (2,))
    with pytest.raises(DiagramError):
        TypedDiagram(d, (0, 0), (1, 2, 3))
    assert forget_numbering(t) == d


def test_components_and_degree_additivity():
    d = disjoint_union(util.figure_eight(), util.theta())
    comps = connected_components(d)
    assert len(comps) == 2
    assert sorted(degree(c) for c in comps) == [4, 6]
    assert degree(d) == 10


def test_components_of_bare_edges():
    d = disjoint_union(bare_edge(), util.figure_eight())
    comps = connected_components(d)
    assert len(comps) == 2
    assert any(c.bare_pairs for c in comps)


def test_component_labels_name_the_least_vertex():
    assert component_labels(Diagram()) == []
    assert component_labels(bare_edge()) == []
    assert component_labels(disjoint_union(util.figure_eight(),
                                           util.theta())) == [0, 1, 1]
    # A chain 0 - 3 - 2 - 1 whose unions meet at the top: every vertex
    # still reads 0.  A valence-0 vertex and a bare edge stand apart.
    chain = Diagram(
        tuple(Vertex("symmetric", "x", (2 * i, 2 * i + 1)) for i in range(4))
        + (Vertex("symmetric", "o", (), root=True),),
        frozenset({(1, 6), (3, 4), (5, 7), (8, 9)}))
    assert component_labels(chain) == [0, 0, 0, 0, 4]
    looped = Diagram((Vertex("cyclic", "c", (0, 1)),
                      Vertex("cyclic", "c", (2, 3))),
                     frozenset({(0, 1), (2, 3)}))
    assert component_labels(looped) == [0, 1]


@st.composite
def component_diagrams(draw):
    """Diagrams with valence-0 vertices, root marks on vertices and pairs,
    and bare edges, some root-marked, on shuffled half-edge ids."""
    specs = draw(st.lists(st.tuples(
        st.sampled_from(["symmetric", "cyclic", "coupon"]),
        st.integers(0, 4), st.booleans()), max_size=6))
    n_bare = draw(st.integers(0, 3))
    n_slots = sum(valence for _, valence, _ in specs)
    ids = draw(st.permutations(range(n_slots + 2 * n_bare)))
    vertices, at = [], 0
    for kind, valence, root in specs:
        slots = tuple(ids[at:at + valence])
        at += valence
        vertices.append(Vertex(kind, kind[0], slots,
                               n_in=0 if kind == "coupon" else None,
                               root=root))
    halves = list(draw(st.permutations(ids[:n_slots])))
    matched = draw(st.integers(0, len(halves) // 2))
    pairs = [tuple(halves[2 * k:2 * k + 2]) for k in range(matched)]
    pairs += [tuple(ids[n_slots + 2 * k:n_slots + 2 * k + 2])
              for k in range(n_bare)]
    marked = draw(st.lists(st.booleans(), min_size=len(pairs),
                           max_size=len(pairs)))
    return Diagram(tuple(vertices), frozenset(pairs),
                   frozenset(p for p, m in zip(pairs, marked) if m))


def _pieces(comps):
    return [(c.vertices, c.pairs, c.root_pairs) for c in comps]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(component_diagrams())
@example(Diagram())
@example(disjoint_union(bare_edge(), bare_edge(5)))
@example(disjoint_union(mark_root(util.figure_eight()), bare_edge()))
@example(Diagram((Vertex("symmetric", "o", ()), Vertex("cyclic", "o", ())),
                 frozenset({(0, 1)}), frozenset({(0, 1)})))
def test_components_equal_the_tagged_union_find(d):
    assert _pieces(connected_components(d)) == _pieces(tagged_components(d))


def test_relabel_roundtrip():
    import random
    rng = random.Random(7)
    for _ in range(50):
        d = util.random_diagram(rng)
        f = util.random_relabelling(d, rng)
        back = {v: k for k, v in f.items()}
        assert relabel(relabel(d, f), back) == d


def test_legs_partition():
    import random
    rng = random.Random(11)
    for _ in range(50):
        d = util.random_diagram(rng)
        matched = {h for p in d.pairs for h in p if h not in d.free_halves}
        assert set(d.legs) | matched == set(d.half_edges)
        assert not (set(d.legs) - set(d.free_halves)) & matched

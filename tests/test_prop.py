import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings

from fdcalc.diagram import (
    Diagram, DiagramError, EMPTY, TypedDiagram, bare_edge, degree,
    disjoint_union, mark_root, symmetric_star, cyclic_star,
)
from fdcalc.generate import MAX_CLOSURE_LEGS, closure_orbits
from fdcalc.iso import (
    aut_order, are_isomorphic, automorphism_generators, canonical_code,
)
from fdcalc.prop import (
    braiding, closures, compose, edge_pairings, identity, tensor,
)
from test_iso_properties import diagrams
from bruteforce import aut_order_bruteforce, group_order, is_automorphism
from util import figure_eight, random_typed

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def typed_with_src(rng: random.Random, k: int) -> TypedDiagram:
    """Random typed diagram with exactly k inputs, padded by plain wires."""
    for _ in range(40):
        t = random_typed(rng)
        if t.src == k:
            return t
        if t.src < k:
            return tensor(t, identity(k - t.src))
    return identity(k)


def test_identity_shape():
    t = identity(3)
    assert t.src == t.tgt == 3
    assert len(t.base.bare_pairs) == 3
    assert not t.base.vertices
    assert aut_order(t) == 1
    assert identity(0).base == EMPTY


def test_braiding_routes_wires():
    for m, n in [(1, 1), (2, 1), (2, 3), (0, 2), (3, 0)]:
        t = braiding(m, n)
        assert t.src == t.tgt == m + n
        p = t.base.partner
        for i in range(m):
            assert p[t.ins[i]] == t.outs[n + i]
        for j in range(n):
            assert p[t.ins[m + j]] == t.outs[j]


def test_braiding_involutive():
    for m, n in [(1, 1), (2, 1), (3, 2)]:
        twice = compose(braiding(n, m), braiding(m, n))
        assert are_isomorphic(twice, identity(m + n))


def test_snake_collapses_wire_chain():
    cup = TypedDiagram(bare_edge(), (), (0, 1))
    cap = TypedDiagram(bare_edge(), (0, 1), ())
    f = tensor(identity(1), cup)
    g = tensor(cap, identity(1))
    snake = compose(g, f)
    assert are_isomorphic(snake, identity(1))


def test_circle_is_rejected():
    cup = TypedDiagram(bare_edge(), (), (0, 1))
    cap = TypedDiagram(bare_edge(), (0, 1), ())
    with pytest.raises(DiagramError):
        compose(cap, cup)


def test_compose_arity_mismatch():
    with pytest.raises(DiagramError):
        compose(identity(2), identity(3))


def test_identity_laws():
    rng = random.Random(7)
    for _ in range(50):
        t = random_typed(rng)
        assert are_isomorphic(compose(identity(t.tgt), t), t)
        assert are_isomorphic(compose(t, identity(t.src)), t)


def test_compose_associative():
    rng = random.Random(11)
    done = 0
    while done < 30:
        f = random_typed(rng)
        g = typed_with_src(rng, f.tgt)
        h = typed_with_src(rng, g.tgt)
        try:
            left = compose(h, compose(g, f))
            right = compose(compose(h, g), f)
        except DiagramError:
            continue  # a circle can close either way; skip those triples
        assert are_isomorphic(left, right)
        done += 1


def test_braiding_natural():
    rng = random.Random(13)
    for _ in range(20):
        f = random_typed(rng)
        g = random_typed(rng)
        lhs = compose(braiding(f.tgt, g.tgt), tensor(f, g))
        rhs = compose(tensor(g, f), braiding(f.src, g.src))
        assert are_isomorphic(lhs, rhs)


def test_degree_additive():
    rng = random.Random(17)
    for _ in range(25):
        f = random_typed(rng)
        g = typed_with_src(rng, f.tgt)
        assert degree(tensor(f, g)) == degree(f) + degree(g)
        try:
            c = compose(g, f)
        except DiagramError:
            continue
        assert degree(c) == degree(f) + degree(g)


def test_edge_pairings_counts():
    assert len(edge_pairings(0)) == 1
    assert len(edge_pairings(2)) == 1
    assert len(edge_pairings(4)) == 3
    assert len(edge_pairings(6)) == 15
    assert len(edge_pairings(8)) == 105
    assert edge_pairings(3) == []
    assert edge_pairings(5) == []


def old_pairings(items):
    """The recursion edge_pairings once ran on: the first item takes each
    later one in turn."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, second in enumerate(rest):
        for more in old_pairings(rest[:i] + rest[i + 1:]):
            yield ((first, second),) + more


@pytest.mark.parametrize("k", range(0, 11, 2))
def test_edge_pairings_order_is_pinned(k):
    expected = []
    for pairing in old_pairings(tuple(range(k))):
        outs = [0] * k
        for i, (a, b) in enumerate(pairing):
            outs[a] = 2 * i
            outs[b] = 2 * i + 1
        expected.append(tuple(outs))
    rows = edge_pairings(k)
    assert [t.outs for t in rows] == expected
    bare = frozenset((2 * i, 2 * i + 1) for i in range(k // 2))
    assert all(t.ins == () and t.base.pairs == bare and not t.base.vertices
               for t in rows)


def test_edge_pairings_rigid_and_distinct():
    seen = set()
    for t in edge_pairings(6):
        assert t.src == 0 and t.tgt == 6
        assert aut_order(t) == 1
        seen.add(canonical_code(t).code)
    assert len(seen) == 15


def test_two_stars_compose_to_theta():
    a = TypedDiagram(symmetric_star("phi3", 3), (), (0, 1, 2))
    b = TypedDiagram(symmetric_star("phi3", 3), (0, 1, 2), ())
    t = compose(b, a)
    assert t.base.is_closed
    assert degree(t) == 6
    assert aut_order(t.base) == 12


def test_closures_of_special_four_star():
    star = symmetric_star("x4", 4, special=True)
    out = closures(star)
    assert len(out) == 1
    rep, mult, aut = out[0]
    assert mult == 3
    assert rep.is_closed
    assert are_isomorphic(rep, figure_eight("x4", special=True))
    assert aut == aut_order(rep) == 8


def test_closures_odd_legs_empty():
    assert closures(symmetric_star("phi3", 3)) == []


def test_closures_of_empty_diagram():
    assert closures(EMPTY) == [(EMPTY, 1, 1)]


def test_closures_of_two_univalent_stars():
    d = disjoint_union(symmetric_star("a1", 1), symmetric_star("a1", 1))
    out = closures(d)
    assert len(out) == 1
    rep, mult, aut = out[0]
    assert mult == 1
    assert aut == aut_order(rep) == 2


def test_closures_of_two_four_stars():
    d = disjoint_union(symmetric_star("phi4", 4), symmetric_star("phi4", 4))
    out = closures(d)
    assert sum(m for _, m, _ in out) == 105
    assert all(aut == aut_order(rep) for rep, _, aut in out)
    by_mult = {m: aut for _, m, aut in out}
    # 9 ways leave the stars separate, 24 tie them with four parallel edges,
    # 72 give one loop on each vertex plus a double edge between them.
    assert by_mult == {9: 128, 24: 48, 72: 16}


def test_closures_of_cyclic_four_star():
    out = closures(cyclic_star("c4", 4))
    by_mult = {m: aut for _, m, aut in out}
    assert by_mult == {2: 2, 1: 4}


def test_closures_of_bare_edge_is_a_circle():
    with pytest.raises(DiagramError):
        closures(bare_edge())


def test_closures_keep_root_marks():
    star = mark_root(symmetric_star("x4", 4, special=True))
    out = closures(star)
    assert len(out) == 1
    rep, mult, aut = out[0]
    assert mult == 3
    assert rep.vertices[0].root
    assert aut == aut_order(rep) == 8
    assert not are_isomorphic(rep, figure_eight("x4", special=True))


def test_closures_refuse_too_many_legs():
    star = symmetric_star("x", MAX_CLOSURE_LEGS + 2)
    start = time.perf_counter()
    with pytest.raises(DiagramError, match="at most 16 legs"):
        closures(star)
    assert time.perf_counter() - start < 1


def test_closures_of_sixteen_leg_star_fail_fast():
    # One symmetric vertex is one multigraph node: its 15!! pairings form a
    # single loop-only multigraph, not millions of pairings to walk.
    start = time.perf_counter()
    out = closures(symmetric_star("x", 16))
    assert time.perf_counter() - start < 1
    assert [(mult, aut) for _, mult, aut in out] == [
        (2027025, 2 ** 8 * math.factorial(8))]


def _closures_by_compose(d: Diagram) -> list[tuple[bytes, int, int]]:
    """The closures of ``d`` by composing it against every edge pairing and
    canonicalising every result, as (code, multiplicity, |Aut|) sorted by
    code."""
    legs = d.legs
    if len(legs) % 2:
        return []
    typed = TypedDiagram(d, legs, ())
    found: dict[bytes, list] = {}
    for p in edge_pairings(len(legs)):
        code = canonical_code(compose(typed, p).base)
        if code.code in found:
            found[code.code][1] += 1
        else:
            found[code.code] = [code.code, 1, code.aut_order]
    return [tuple(entry) for _, entry in sorted(found.items())]


@settings(SETTINGS, max_examples=600)
@given(diagrams(max_bare=1).filter(lambda d: len(d.legs) <= 10))
def test_closures_match_composing_every_pairing(d):
    try:
        expected = _closures_by_compose(d)
    except DiagramError:
        with pytest.raises(DiagramError):
            closures(d)
        return
    got = closures(d)
    assert ([(canonical_code(rep).code, mult, aut) for rep, mult, aut in got]
            == expected)
    # A representative may be any member of its class: ``d`` with a perfect
    # matching of its legs added as edges.
    for rep, _, _ in got:
        assert (rep.vertices, rep.root_pairs) == (d.vertices, d.root_pairs)
        assert d.pairs <= rep.pairs
        assert (sorted(h for p in rep.pairs - d.pairs for h in p)
                == sorted(d.legs))


@SETTINGS
@given(diagrams(max_bare=0).filter(lambda d: len(d.legs) <= 10))
def test_orbits_of_a_marked_piece_are_its_classes(d):
    # An isomorphism of two closures of a marked piece keeps the piece, so
    # it restricts to an automorphism of it: no two orbits share a class.
    marked = mark_root(d)
    orbits = [(canonical_code(c).code, ways) for c, ways in closure_orbits(
        marked, lambda: automorphism_generators(marked)[1])]
    assert len({code for code, _ in orbits}) == len(orbits)
    assert sorted(orbits) == [(canonical_code(rep).code, mult)
                              for rep, mult, _ in closures(marked)]


@SETTINGS
@given(diagrams(max_bare=0))
def test_automorphism_generators_generate_aut(d):
    halves = sorted(h for v in d.vertices for h in v.slots)
    order, gens = automorphism_generators(d)
    assert all(is_automorphism(d, g) for g in gens)
    isolated = Counter((v.kind, v.n_in, v.colour, v.special, v.root)
                       for v in d.vertices if not v.slots)
    assert (group_order(gens, halves)
            * math.prod(map(math.factorial, isolated.values()))
            == order == aut_order_bruteforce(d))

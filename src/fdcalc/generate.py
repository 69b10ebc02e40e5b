"""Enumeration of closed diagrams over a colour table, up to isomorphism.

A closed diagram of bounded degree decomposes into a multiset of ordinary
stars (one per vertex) plus a perfect matching of their legs.  Special
colours are excluded from the star supply: they carry no degree, so admitting
them would make every degree class infinite.  A fixed open piece may be
passed as ``root``; it is marked as distinguished, its legs join the
matching, and its own vertices may be special.

Matchings are not enumerated one by one.  The loose legs of a symmetric
vertex are interchangeable, so only the induced leg multigraph matters: its
nodes are symmetric-vertex leg buckets and individual cyclic or coupon
slots, and a matching is a loop count per node plus an edge multiplicity per
node pair.  The isomorphs that remain are the images under the automorphisms
of the stars and the root (vertex swaps, cyclic rotations), which permute the
nodes.  An isomorphism of two closures of one piece restricts to an
automorphism of the piece, so the classes over one star multiset are exactly
the orbits of its automorphism group on the multigraphs.  The multigraphs
are walked partner by partner (:func:`multigraphs`): the first node with
legs left takes its next partner, the highest first, so each multigraph
comes out once, as its sorted edge codes, in descending lexicographic order;
:func:`node_pairs` reads the codes back as node pairs.  The same walk on
single-leg nodes lists the perfect pairings behind
:func:`fdcalc.prop.edge_pairings`.  One engine, :func:`closure_orbits`,
walks the multigraphs in that order; the first one of each orbit floods the
orbit under generators of the piece's group that the caller hands it, and
it alone is instantiated, with the number of matchings its orbit stands
for.  The walk ends once the orbits account for all (L-1)!! matchings of
the L legs.  The census filters and canonicalises these closures, and
:func:`fdcalc.prop.closures`, which takes the generators from a search of
its piece, sums their matching counts by class.

Sums over the classes need no census.  The closed diagrams over one star
multiset are the action groupoid of Aut(base), the marked root plus the
stars, on the leg matchings; a matching's stabiliser is its closure's
automorphism group, so each orbit weighs its matchings over |Aut(base)|.
The root's vertices are marked, so Aut(base) is Aut(root) times a wreath
product Aut(star) ≀ S_n per colour with n stars.  One search on the root
and one per colour give its order and its generators
(:func:`union_group`), which :func:`star_bases` hands out with each base:
no base is searched.  :func:`fdcalc.algebra.expectation_value` weighs each
orbit of :func:`star_bases` by its amplitude.  :func:`push_forward` yields
whole cardinalities and forms no closure.

Two size rules hold for every caller, each in one function.  The closing
rule, in :func:`_closes` and held by :func:`closure_orbits` and
:func:`star_bases`: a closing takes at most ``MAX_CLOSURE_LEGS`` legs.  The
walk rule, in :func:`_star_multisets`, the one walk over star multisets
that every sum shares: past a star budget of ``MAX_CLOSURE_LEGS`` it stops
after ``MAX_STAR_MULTISETS`` multisets.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache, partial, reduce
from math import factorial, prod

from .colours import ColourEntry, ColourTable
from .diagram import (
    Diagram, DiagramError, EMPTY, component_labels, degree, disjoint_union,
    mark_root, star_for,
)
from .iso import automorphism_generators, canonical_code

MAX_CLOSURE_LEGS = 16
# Each star multiset is one term of Z (or none, for an odd leg count).
MAX_STAR_MULTISETS = 100


class DiagramClass(namedtuple("DiagramClass", "rep aut degree key")):
    """One isomorphism class: a representative, its |Aut|, its degree and
    its canonical code."""

    __slots__ = ()

    def __repr__(self):
        return f"DiagramClass(degree={self.degree}, aut={self.aut})"


def enumerate_closed(table: ColourTable, *, max_degree: int,
                     root: Diagram | None = None,
                     connected: bool = False,
                     reduced: bool = False) -> list[DiagramClass]:
    """All closed diagrams of degree at most ``max_degree``, one per class.

    ``connected`` keeps single-component diagrams only (this drops the empty
    diagram).  ``reduced`` keeps diagrams in which every component touches
    the root marking; with an empty root that leaves the empty diagram alone.
    Both filters read one list of component labels per closure
    (:func:`fdcalc.diagram.component_labels`) and build no sub-diagram.
    Classes come back sorted by degree, then by canonical code.  Each star
    multiset canonicalises one multigraph per orbit of the automorphisms of
    its stars and the root, the first of its orbit in walk order, so the
    search runs once per class and no more.
    """
    if max_degree < 0:
        raise DiagramError("max_degree must be nonnegative")
    piece = EMPTY if root is None else mark_root(root)
    found: list[DiagramClass] = []
    for _, base, _, generators in star_bases(piece, table,
                                             max_degree - degree(piece)):
        for d, _ in closure_orbits(base, generators):
            if connected or reduced:
                labels = component_labels(d)
                if connected and len(set(labels)) != 1:
                    continue
                if reduced and set(labels) - {
                        k for v, k in zip(d.vertices, labels) if v.root}:
                    continue
            code = canonical_code(d)
            found.append(DiagramClass(d, code.aut_order, degree(d), code.code))
    return sorted(found, key=lambda c: (c.degree, c.key))


def closure_orbits(piece: Diagram, generators):
    """Closures of ``piece``, one per orbit of Aut(piece) on its leg
    multigraphs, each with the number of leg pairings its orbit stands for.

    The group comes from the caller: ``generators`` is a function of no
    arguments that returns automorphisms generating Aut(piece), each a map
    of every slot half-edge to its image.  It is called once the piece meets
    the closing rule (:func:`_closes`), so a refused piece is never
    searched.  The multigraphs are walked in :func:`multigraphs` order.  The
    first one of each orbit floods the orbit under the generators, and it
    alone is instantiated.  Every multigraph of an orbit stands for the same
    number of pairings, prod c_a! / (prod 2^l_a l_a! * prod m_ab!) over the
    node capacities c_a, loop counts l_a and edge multiplicities m_ab.  The
    pairings of all L legs number (L-1)!!, so the walk stops once the
    orbits have counted them all: every multigraph left lies in an orbit
    already flooded.
    """
    if not _closes(piece):
        return
    nodes = leg_nodes(piece)
    n = len(nodes)
    caps = tuple(map(len, nodes))
    # Each automorphism of the piece as a map of edge codes a*n + b.
    node_of = {h: i for i, ns in enumerate(nodes) for h in ns}
    perms = {tuple(node_of[g[ns[0]]] for ns in nodes) for g in generators()}
    perms.discard(tuple(range(n)))
    moves = [[min(p[a], p[b]) * n + max(p[a], p[b])
              for a in range(n) for b in range(n)] for p in perms]
    fill = prod(map(factorial, caps))
    left = prod(range(sum(caps) - 1, 0, -2))
    seen: set[tuple[int, ...]] = set()
    for graph in multigraphs(caps):
        if graph in seen:
            continue
        before = len(seen)
        seen.add(graph)
        todo = [graph]
        while todo:
            g = todo.pop()
            for move in moves:
                image = tuple(sorted(map(move.__getitem__, g)))
                if image not in seen:
                    seen.add(image)
                    todo.append(image)
        ways = 1
        for (a, b), m in Counter(node_pairs(graph, n)).items():
            ways *= factorial(m) << m if a == b else factorial(m)
        pairs = instantiate(nodes, graph)
        pairings = (len(seen) - before) * fill // ways
        yield (Diagram(piece.vertices, piece.pairs | pairs, piece.root_pairs),
               pairings)
        left -= pairings
        if not left:
            return


def _closes(piece: Diagram, stars=()) -> bool:
    """The closing rule: whether ``piece`` plus ``stars`` closes to anything,
    which an odd leg count does not.  More than ``MAX_CLOSURE_LEGS`` legs
    raise :class:`DiagramError`, since on cyclic or coupon vertices 18 legs
    can mean 17!! (about 3.4e7) multigraphs to walk and keep, and so does a
    bare edge, whose two ends close a circle with no vertex."""
    legs = len(piece.legs) + sum(e.valence * n for e, n in stars)
    if legs % 2:
        return False
    if legs > MAX_CLOSURE_LEGS:
        raise DiagramError(
            f"closures take at most {MAX_CLOSURE_LEGS} legs, not {legs}")
    if piece.bare_pairs:
        raise DiagramError("composition closed a circle carrying no vertex")
    return True


def push_forward(table: ColourTable, *, max_degree: int,
                 root: Diagram | None = None):
    """The groupoid cardinality of the closed diagrams over each star
    multiset of degree at most ``max_degree``, with no census.

    The closed diagrams containing the marked ``root`` and the stars
    ((entry, n), ...) are the action groupoid of their automorphisms on the
    (L-1)!! perfect matchings of their L legs, so this yields each multiset
    whose L is even with (L-1)!! over the order of :func:`union_group`.  No
    closure is formed, so only the walk rule applies, to the terms of ``Z``
    and the walk alike.  A root with a bare edge fails as in the census.
    """
    if max_degree < 0:
        raise DiagramError("max_degree must be nonnegative")
    piece = EMPTY if root is None else mark_root(root)
    order, _ = union_group(piece)
    for stars in _star_multisets(table.ordinary(),
                                 max_degree - degree(piece)):
        legs = len(piece.legs) + sum(e.valence * n for e, n in stars)
        if legs % 2 == 0:
            yield stars, Fraction(prod(range(legs - 1, 0, -2)), order(stars))


def star_bases(piece: Diagram, table: ColourTable, budget: int):
    """Each multiset of the table's stars within ``budget`` total valence
    that closes, as ((entry, n), ...) in name order, with ``piece`` plus
    those stars, the order of its automorphism group and a function that
    builds the group's generators for :func:`closure_orbits`.  The whole
    walk meets the closing rule before any base is formed or searched."""
    order, generators = union_group(piece)
    for stars in [s for s in _star_multisets(table.ordinary(), budget)
                  if _closes(piece, s)]:
        base = reduce(disjoint_union, (
            star_for(e) for e, n in stars for _ in range(n)), piece)
        yield stars, base, order(stars), partial(generators, stars, base)


def union_group(piece: Diagram):
    """Aut(piece + stars) as two functions: its order, of the stars, and
    its generators, of the stars and the base :func:`star_bases` forms.

    The piece's vertices are marked (:func:`fdcalc.diagram.mark_root`), so
    no automorphism trades them for a star's, and the group is Aut(piece)
    times, for each colour with n stars, Aut(star) wreathed with the
    symmetric group on the n copies.  So its order is |Aut piece| prod n!
    |Aut star|^n, and it is generated by the piece's generators, each
    colour's star generators on its first copy, the swap of its first two
    copies and the cycle of all n.  The piece and each colour's star are
    searched once, at first need; no other diagram is searched.
    """
    search = cache(lambda e: automorphism_generators(
        piece if e is None else star_for(e)))

    def order(stars):
        return search(None)[0] * prod(
            factorial(n) * search(e)[0] ** n for e, n in stars)

    def generators(stars, base):
        # Copy k of a star is the star's half-edges shifted by its least one.
        copies = iter(base.vertices[len(piece.vertices):])
        moves = list(search(None)[1])
        for e, n in stars:
            at = [min(next(copies).slots) for _ in range(n)]
            slots = range(e.valence)
            moves += [{h + at[0]: x + at[0] for h, x in g.items()}
                      for g in search(e)[1]]
            if n > 1:
                moves.append({h + at[k]: h + at[1 - k]
                              for k in (0, 1) for h in slots})
            if n > 2:
                moves.append({h + at[k]: h + at[(k + 1) % n]
                              for k in range(n) for h in slots})
        fixed = {h: h for v in base.vertices for h in v.slots}
        return [fixed | g for g in moves]

    return order, generators


def _star_multisets(entries: tuple[ColourEntry, ...], budget: int):
    """Multisets of ordinary colours with total valence within budget, as
    ((entry, count), ...) in name order, under the walk rule."""
    entries = tuple(sorted(entries, key=lambda e: e.name))

    def rec(i: int, left: int):
        if i == len(entries):
            yield ()
            return
        e = entries[i]
        for count in range(left // e.valence + 1):
            head = ((e, count),) if count else ()
            for rest in rec(i + 1, left - count * e.valence):
                yield head + rest

    if budget < 0:
        return
    for walked, stars in enumerate(rec(0, budget)):
        if walked == MAX_STAR_MULTISETS and budget > MAX_CLOSURE_LEGS:
            raise DiagramError(
                f"a star budget of {budget} takes more than"
                f" {MAX_STAR_MULTISETS} star multisets")
        yield stars


def leg_nodes(base: Diagram) -> list[list[int]]:
    """Matchable leg groups: one bucket per symmetric vertex, one singleton
    per cyclic or coupon slot."""
    matched = base.partner
    nodes: list[list[int]] = []
    for v in base.vertices:
        loose = [h for h in v.slots if h not in matched]
        if not loose:
            continue
        if v.kind == "symmetric":
            nodes.append(loose)
        else:
            nodes.extend([h] for h in loose)
    return nodes


def multigraphs(caps: tuple[int, ...]):
    """Loop counts and pairwise multiplicities filling every capacity.

    Yields each multigraph as the sorted tuple of its edge codes ``a*n + b``
    over node pairs ``a <= b`` (``a == b`` for a loop), one code per edge.
    The walk goes partner by partner: the first node ``a`` with legs left
    takes its next partner ``b``, tried from ``n-1`` down to the partner
    ``a`` took last (or ``a`` itself, a loop, when it has taken none), so
    the tuples come out in descending lexicographic order.  A branch that
    strands a leg yields nothing, and an odd total yields nothing at once.
    """
    if sum(caps) % 2:
        return iter(())
    n = len(caps)
    rem = list(caps)

    def rec(a: int, low: int, head: tuple[int, ...]):
        while a < n and not rem[a]:
            a += 1
            low = a
        if a == n:
            yield head
            return
        rem[a] -= 1
        for b in range(n - 1, low - 1, -1):
            if rem[b]:
                rem[b] -= 1
                yield from rec(a, b, head + (a * n + b,))
                rem[b] += 1
        rem[a] += 1

    return rec(0, 0, ())


def node_pairs(graph, n: int) -> list[tuple[int, int]]:
    """The node pairs ``(a, b)`` behind the edge codes ``a*n + b`` of a
    multigraph on ``n`` nodes, in the order of ``graph``."""
    return [divmod(code, n) for code in graph]


def instantiate(nodes: list[list[int]], graph) -> set[tuple[int, int]]:
    """Pair the legs of ``nodes`` along the edge codes of ``graph``, taking
    each node's legs in order."""
    stacks = [list(ns) for ns in nodes]
    return {(stacks[a].pop(0), stacks[b].pop(0))
            for a, b in node_pairs(graph, len(nodes))}

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
orbit under the generators that :func:`fdcalc.iso.automorphism_generators`
returns, and it alone is instantiated, with the number of matchings its
orbit stands for.  The census filters and canonicalises these closures,
:func:`fdcalc.prop.closures` sums their matching counts by class, and
:func:`fdcalc.algebra.expectation_value` sums over them directly.  The
engine alone decides whether a piece can be closed: an odd leg count closes
to nothing, and more than ``MAX_CLOSURE_LEGS`` legs or a bare edge raise
:class:`DiagramError`, for every caller, a rooted census included.

The series need no census.  The closed diagrams over one star multiset form
the action groupoid of the piece's automorphisms on the leg matchings, whose
cardinality is the number of matchings over the group order, so
:func:`push_forward` walks the same star multisets and yields that number
for each from one canonical search per colour and one on the marked root.
No closure is formed, so ``MAX_DEGREE`` and ``MAX_CLOSURE_LEGS`` bound only
the census.  A degree the census accepts is never refused; past it, the walk
stops after ``MAX_STAR_MULTISETS`` multisets.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .colours import ColourEntry, ColourTable
from .diagram import (
    Diagram, DiagramError, EMPTY, connected_components, degree,
    disjoint_union, mark_root, star_for,
)
from .iso import automorphism_generators, canonical_code

MAX_DEGREE = 16
MAX_CLOSURE_LEGS = 16
# Each star multiset is one term of Z (or none, for an odd leg count), and
# ``log`` of a 100-term Z takes seconds: 2.6 s for quartic Z to degree 396.
# The bound binds only past MAX_DEGREE, where the census would refuse.
MAX_STAR_MULTISETS = 100


@dataclass(frozen=True)
class DiagramClass:
    """One isomorphism class: a representative, its |Aut| and its degree."""

    rep: Diagram
    aut: int
    degree: int
    key: bytes

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
    Classes come back sorted by degree, then by canonical code.  Each star
    multiset canonicalises one multigraph per orbit of the automorphisms of
    its stars and the root, the first of its orbit in walk order, so the
    search runs once per class and no more.
    """
    if max_degree < 0:
        raise DiagramError("max_degree must be nonnegative")
    if max_degree > MAX_DEGREE:
        raise DiagramError(
            f"max_degree {max_degree} exceeds the supported bound {MAX_DEGREE}")
    piece = EMPTY if root is None else mark_root(root)
    budget = max_degree - degree(piece)
    found: list[DiagramClass] = []
    for stars in _star_multisets(table.ordinary(), budget):
        base = piece
        for entry, count in stars:
            for _ in range(count):
                base = disjoint_union(base, star_for(entry))
        for d, _ in closure_orbits(base):
            if connected and len(connected_components(d)) != 1:
                continue
            if reduced and not _is_reduced(d):
                continue
            code = canonical_code(d)
            found.append(DiagramClass(d, code.aut_order, degree(d), code.code))
    return sorted(found, key=lambda c: (c.degree, c.key))


def _is_reduced(d: Diagram) -> bool:
    return all(any(v.root for v in comp.vertices)
               for comp in connected_components(d))


def closure_orbits(piece: Diagram):
    """Closures of ``piece``, one per orbit of Aut(piece) on its leg
    multigraphs, each with the number of leg pairings its orbit stands for.

    The multigraphs are walked in :func:`multigraphs` order.  The first one of
    each orbit floods the orbit under the generators that
    :func:`fdcalc.iso.automorphism_generators` returns, and it alone is
    instantiated.  Every multigraph of an orbit stands for the same number of
    pairings, prod c_a! / (prod 2^l_a l_a! * prod m_ab!) over the node
    capacities c_a, loop counts l_a and edge multiplicities m_ab.

    The piece is checked before the walk.  An odd leg count yields nothing.
    More than ``MAX_CLOSURE_LEGS`` legs raise :class:`DiagramError`: on
    cyclic or coupon vertices every leg is its own node, so 18 legs can mean
    17!! (about 3.4e7) multigraphs to walk and keep.  So does a bare edge,
    since the pairing of its own two ends closes a circle with no vertex.
    """
    legs = len(piece.legs)
    if legs % 2:
        return
    if legs > MAX_CLOSURE_LEGS:
        raise DiagramError(
            f"closures take at most {MAX_CLOSURE_LEGS} legs, not {legs}")
    if piece.bare_pairs:
        raise DiagramError("composition closed a circle carrying no vertex")
    nodes = leg_nodes(piece)
    n = len(nodes)
    caps = tuple(map(len, nodes))
    # Each automorphism of the piece as a map of edge codes a*n + b.
    node_of = {h: i for i, ns in enumerate(nodes) for h in ns}
    perms = {tuple(node_of[g[ns[0]]] for ns in nodes)
             for g in automorphism_generators(piece)}
    perms.discard(tuple(range(n)))
    moves = [[min(p[a], p[b]) * n + max(p[a], p[b])
              for a in range(n) for b in range(n)] for p in perms]
    fill = prod(map(factorial, caps))
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
        yield (Diagram(piece.vertices, piece.pairs | pairs, piece.root_pairs),
               (len(seen) - before) * fill // ways)


def push_forward(table: ColourTable, *, max_degree: int,
                 root: Diagram | None = None):
    """The groupoid cardinality of the closed diagrams over each star
    multiset of degree at most ``max_degree``, with no census.

    The closed diagrams containing the marked ``root`` and the stars
    ((entry, n), ...) are the action groupoid of Aut(mark_root(root)) times
    each colour's S_n wreath Aut(star) on the (L-1)!! perfect matchings of
    their L legs: an isomorphism of two closures restricts to an
    automorphism of the piece.  So the sum of 1/|Aut| over the classes is
    (L-1)!! / (|Aut mark_root(root)| * prod n! |Aut star|^n), and this yields
    each multiset whose L is even with that Fraction.  One canonical search
    per colour and one on the marked root find the orders.

    No closure is formed, so ``MAX_DEGREE`` and ``MAX_CLOSURE_LEGS`` do not
    apply.  Past ``MAX_DEGREE``, where the census would refuse, the walk
    raises :class:`DiagramError` after ``MAX_STAR_MULTISETS`` multisets; it
    bounds the terms of ``Z`` and the walk alike.  Within ``MAX_DEGREE`` the
    walk is finite and always runs to the end, however many colours the
    table has.  A root with a bare edge fails as in the census.
    """
    if max_degree < 0:
        raise DiagramError("max_degree must be nonnegative")
    piece = EMPTY if root is None else mark_root(root)
    root_aut = 1 if root is None else canonical_code(piece).aut_order
    star_aut: dict[str, int] = {}
    walked = 0
    for stars in _star_multisets(table.ordinary(),
                                 max_degree - degree(piece)):
        walked += 1
        if walked > MAX_STAR_MULTISETS and max_degree > MAX_DEGREE:
            raise DiagramError(
                f"max_degree {max_degree} takes more than"
                f" {MAX_STAR_MULTISETS} star multisets")
        legs = len(piece.legs) + sum(e.valence * n for e, n in stars)
        if legs % 2:
            continue
        order = root_aut
        for e, n in stars:
            if e.name not in star_aut:
                star_aut[e.name] = canonical_code(star_for(e)).aut_order
            order *= factorial(n) * star_aut[e.name] ** n
        yield stars, Fraction(prod(range(legs - 1, 0, -2)), order)


def _star_multisets(entries: tuple[ColourEntry, ...], budget: int):
    """Multisets of ordinary colours with total valence within budget, as
    ((entry, count), ...) in table order."""
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
        return iter(())
    return rec(0, budget)


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

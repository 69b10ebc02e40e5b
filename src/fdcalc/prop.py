"""Wiring operations on typed diagrams.

Typed diagrams form a PROP-like structure: ``compose(g, f)`` plugs output
``k`` of ``f`` into input ``k`` of ``g``, ``tensor`` places diagrams side by
side, identities are rows of bare edges, and the braiding crosses two blocks
of wires.  Composition welds edges end to end, so chains of bare edges
collapse to a single edge.  A chain that closes onto itself would leave a
circle with no vertex or endpoint on it, which the half-edge representation
cannot hold; that raises :class:`DiagramError`.

``closures(d)`` pairs off the legs of ``d`` in every way and groups the
closed diagrams into isomorphism classes, each with its multiplicity and
automorphism order.  It does not compose: a closure is ``d`` with the pairs
of legs added as edges.  Pairings that Aut(d) maps onto each other close to
isomorphic diagrams, so the classes are unions of orbits.  The orbits come
from the census's engine in :mod:`fdcalc.generate`, which walks leg
multigraphs, where the legs of a symmetric vertex form one node, and yields
one closure per orbit with its pairing count.  Each is canonicalised once,
and a multiplicity is the sum of its class's pairing counts.  The engine
also decides which pieces can be closed: see
:func:`fdcalc.generate.closure_orbits`.
"""
from __future__ import annotations

from .diagram import (
    Diagram, DiagramError, TypedDiagram, disjoint_union, next_id,
    relabel_typed,
)
from .generate import closure_orbits, multigraphs, node_pairs
from .iso import canonical_code


def identity(n: int) -> TypedDiagram:
    pairs = frozenset((2 * k, 2 * k + 1) for k in range(n))
    d = Diagram((), pairs)
    return TypedDiagram(d, tuple(2 * k for k in range(n)),
                        tuple(2 * k + 1 for k in range(n)))


def braiding(m: int, n: int) -> TypedDiagram:
    """The wire crossing: input i exits at output n+i for i < m, and input
    m+j exits at output j for j < n."""
    pairs = frozenset((2 * k, 2 * k + 1) for k in range(m + n))
    d = Diagram((), pairs)
    ins = tuple(2 * k for k in range(m + n))
    outs = [0] * (m + n)
    for i in range(m):
        outs[n + i] = 2 * i + 1
    for j in range(n):
        outs[j] = 2 * (m + j) + 1
    return TypedDiagram(d, ins, tuple(outs))


def tensor(a: TypedDiagram, b: TypedDiagram) -> TypedDiagram:
    """Disjoint union; ``b``'s half-edge ids are shifted past ``a``'s and its
    endpoint numbers follow ``a``'s."""
    off = next_id(a.base)
    return TypedDiagram(disjoint_union(a.base, b.base),
                        a.ins + tuple(h + off for h in b.ins),
                        a.outs + tuple(h + off for h in b.outs))


def compose(g: TypedDiagram, f: TypedDiagram) -> TypedDiagram:
    """Glue output k of ``f`` onto input k of ``g``.  The result takes
    ``f``'s inputs to ``g``'s outputs."""
    if g.src != f.tgt:
        raise DiagramError(
            f"arity mismatch: cannot plug {f.tgt} outputs into {g.src} inputs")
    off = next_id(f.base)
    gg = relabel_typed(g, {h: h + off for h in g.base.half_edges})

    anchored = f.base._slot_owner.keys() | gg.base._slot_owner.keys()
    mate = dict(f.base.partner)
    mate.update(gg.base.partner)
    glue: dict[int, int] = {}
    for x, y in zip(f.outs, gg.ins):
        glue[x] = y
        glue[y] = x

    # Each glued leg chain alternates matching links and glue links.  Its two
    # terminals are either loose slot halves (the welded edge attaches there)
    # or unglued free halves (legs of the composite).  A chain with no
    # terminal is a circle.
    visited: set[int] = set()

    def walk(start: int) -> int | None:
        h, use_mate = start, True
        while True:
            nxt = (mate if use_mate else glue).get(h)
            if nxt is None:
                return h
            if nxt == start:
                return None
            visited.add(h)
            visited.add(nxt)
            h, use_mate = nxt, not use_mate

    new_pairs: set[tuple[int, int]] = set()
    collapse: dict[int, int] = {}
    for seed in list(glue):
        if seed in visited:
            continue
        other = glue[seed]
        visited.add(seed)
        visited.add(other)
        left = walk(seed)
        if left is None:
            raise DiagramError("composition closed a circle carrying no vertex")
        right = walk(other)
        free_ends = [t for t in (left, right) if t not in anchored]
        if len(free_ends) != 1:
            new_pairs.add((left, right))
        else:
            slot_end = left if right in free_ends else right
            collapse[free_ends[0]] = slot_end

    untouched = {p for p in f.base.pairs | gg.base.pairs
                 if p[0] not in visited and p[1] not in visited}
    base = Diagram(f.base.vertices + gg.base.vertices,
                   frozenset(untouched | new_pairs),
                   f.base.root_pairs | gg.base.root_pairs)
    return TypedDiagram(base,
                        tuple(collapse.get(h, h) for h in f.ins),
                        tuple(collapse.get(h, h) for h in gg.outs))


def edge_pairings(k: int) -> list[TypedDiagram]:
    """All perfect pairings of ``k`` numbered outputs, as rows of bare edges.

    Empty for odd ``k``, (k-1)!! diagrams otherwise, each rigid.  The
    pairings are the leg multigraphs of ``k`` single-leg nodes, in the
    reverse of the census walk's order: the lowest unpaired output takes
    its partner from low to high.
    """
    out: list[TypedDiagram] = []
    base = Diagram((), frozenset((2 * i, 2 * i + 1) for i in range(k // 2)))
    for graph in reversed(list(multigraphs((1,) * k))):
        outs = [0] * k
        for i, (a, b) in enumerate(node_pairs(graph, k)):
            outs[a] = 2 * i
            outs[b] = 2 * i + 1
        out.append(TypedDiagram(base, (), tuple(outs)))
    return out


def closures(d: Diagram) -> list[tuple[Diagram, int, int]]:
    """Isomorphism classes of the closed diagrams produced by pairing off the
    legs of ``d``, as (representative, multiplicity, |Aut|), sorted by code.

    Each orbit of Aut(d) on the leg multigraphs that
    :func:`fdcalc.generate.closure_orbits` yields is canonicalised once, so
    its rules hold here: empty when the leg count is odd, and
    :class:`DiagramError` for a bare edge or more than ``MAX_CLOSURE_LEGS``
    legs.  A multiplicity is the number of pairings in its class's orbits,
    and a representative is the closure of the first multigraph of the
    class in walk order, on the half-edge ids of ``d``.
    """
    found: dict[bytes, list] = {}
    for closed, ways in closure_orbits(d):
        code = canonical_code(closed)
        if code.code in found:
            found[code.code][1] += ways
        else:
            found[code.code] = [closed, ways, code.aut_order]
    return [tuple(entry) for _, entry in sorted(found.items())]

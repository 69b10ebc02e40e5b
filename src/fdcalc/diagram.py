"""Half-edge representation of Feynman diagrams.

A diagram is a finite collection of half-edges together with

* a set of internal vertices, each owning a list of half-edge slots, and
* an involutive matching pairing some half-edges into edges.

A matched pair whose halves sit in vertex slots is an internal edge.  An
unmatched slot half-edge is a leg: an edge running from its vertex to an
implicit 1-valent endpoint (the leg *is* its endpoint).  A matched pair of
half-edges owned by no vertex is a bare edge, both ends terminating in
endpoints; both its halves count as legs.  Edges are unoriented; self-loops
and parallel edges are allowed.  The degenerate bare edge is a valid Diagram
with no Vertex records, and the empty diagram is valid too.

Vertices come in three kinds (see :mod:`fdcalc.colours`): ``coupon`` slots
are fixed pointwise, ``cyclic`` slots may only rotate (no reflection), and
``symmetric`` slots permute freely.  The degree of a diagram is the sum of
the valences of its *ordinary* vertices; special vertices are weightless.

A TypedDiagram adds numbered input and output endpoints over the legs.
Rooted enumeration marks a distinguished sub-diagram: ``root`` flags on
vertices plus the ``root_pairs`` subset of the matching; isomorphisms are
then required to preserve the marking.

All types are frozen; every operation returns new values.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .colours import KIND_SHORT, ColourTable


class DiagramError(ValueError):
    """Structural violation in a diagram or a diagram operation."""


def _min_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    return min((seq[i:] + seq[:i] for i in range(len(seq))), default=seq)


@dataclass(frozen=True)
class Vertex:
    """One internal vertex: a kind, a colour and its half-edge slots.

    Slots are stored in a normal form under the kind's symmetry (sorted for
    symmetric vertices, minimal rotation for cyclic ones) so that equal
    vertices compare equal; relabelling re-normalizes.
    """

    kind: str
    colour: str
    slots: tuple[int, ...]
    n_in: int | None = None
    special: bool = False
    root: bool = False

    def __post_init__(self):
        if self.kind not in KIND_SHORT:
            raise DiagramError(f"unknown vertex kind {self.kind!r}")
        if len(set(self.slots)) != len(self.slots):
            raise DiagramError(f"duplicate slot in vertex {self.colour!r}")
        if self.kind == "coupon":
            if self.n_in is None or not (0 <= self.n_in <= len(self.slots)):
                raise DiagramError("coupon vertex needs n_in within its slot list")
        else:
            if self.n_in is not None:
                raise DiagramError(f"{self.kind} vertex takes no n_in")
            norm = tuple(sorted(self.slots)) if self.kind == "symmetric" else _min_rotation(self.slots)
            object.__setattr__(self, "slots", norm)

    @property
    def valence(self) -> int:
        return len(self.slots)

    @property
    def ins(self) -> tuple[int, ...]:
        return self.slots[: self.n_in] if self.kind == "coupon" else ()

    @property
    def outs(self) -> tuple[int, ...]:
        return self.slots[self.n_in :] if self.kind == "coupon" else ()

    def relabelled(self, f) -> "Vertex":
        return Vertex(self.kind, self.colour, tuple(f[h] for h in self.slots),
                      self.n_in, self.special, self.root)


def _norm_pair(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise DiagramError(f"half-edge {a} matched with itself")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Diagram:
    vertices: tuple[Vertex, ...] = ()
    pairs: frozenset[tuple[int, int]] = frozenset()
    root_pairs: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "pairs", frozenset(_norm_pair(*p) for p in self.pairs))
        object.__setattr__(self, "root_pairs", frozenset(_norm_pair(*p) for p in self.root_pairs))
        slot_owner: dict[int, int] = {}
        for i, v in enumerate(self.vertices):
            for h in v.slots:
                if h in slot_owner:
                    raise DiagramError(f"half-edge {h} used by two slots")
                slot_owner[h] = i
        seen: set[int] = set()
        for a, b in self.pairs:
            for h in (a, b):
                if h in seen:
                    raise DiagramError(f"half-edge {h} matched twice")
                seen.add(h)
        for a, b in self.pairs:
            if (a in slot_owner) != (b in slot_owner):
                raise DiagramError(
                    f"pair ({a},{b}) mixes a vertex slot with a free half-edge; "
                    "vertex-to-endpoint edges are a single unmatched slot")
        if not self.root_pairs <= self.pairs:
            raise DiagramError("root_pairs must be a subset of pairs")

    @cached_property
    def _slot_owner(self) -> dict[int, int]:
        return {h: i for i, v in enumerate(self.vertices) for h in v.slots}

    @cached_property
    def partner(self) -> dict[int, int]:
        m: dict[int, int] = {}
        for a, b in self.pairs:
            m[a] = b
            m[b] = a
        return m

    @cached_property
    def free_halves(self) -> frozenset[int]:
        """Half-edges owned by no vertex; always matched in bare-edge pairs."""
        return frozenset(h for p in self.pairs for h in p if h not in self._slot_owner)

    @cached_property
    def bare_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(p for p in self.pairs if p[0] in self.free_halves)

    @cached_property
    def half_edges(self) -> frozenset[int]:
        return frozenset(self._slot_owner) | self.free_halves

    @cached_property
    def legs(self) -> tuple[int, ...]:
        """Unmatched slot half-edges plus both halves of every bare edge."""
        loose = [h for h in self._slot_owner if h not in self.partner]
        return tuple(sorted(loose) + sorted(self.free_halves))

    @property
    def is_closed(self) -> bool:
        return not self.legs

    def vertex_of(self, h: int) -> int | None:
        return self._slot_owner.get(h)


EMPTY = Diagram()


@dataclass(frozen=True)
class TypedDiagram:
    """A diagram with its legs enumerated as numbered inputs and outputs."""

    base: Diagram
    ins: tuple[int, ...] = ()
    outs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ins", tuple(self.ins))
        object.__setattr__(self, "outs", tuple(self.outs))
        named = list(self.ins) + list(self.outs)
        if len(set(named)) != len(named):
            raise DiagramError("a leg may carry at most one endpoint number")
        if sorted(named) != sorted(self.base.legs):
            raise DiagramError("ins/outs must enumerate the legs exactly")

    @property
    def src(self) -> int:
        return len(self.ins)

    @property
    def tgt(self) -> int:
        return len(self.outs)


@dataclass(frozen=True)
class EdgeColouring:
    """A diagram plus a basis index on each internal edge."""

    base: Diagram
    eta: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self):
        eta = tuple(sorted((tuple(sorted(p)), c) for p, c in dict(self.eta).items()))
        object.__setattr__(self, "eta", eta)
        internal = sorted(self.base.pairs - self.base.bare_pairs)
        if [p for p, _ in self.eta] != internal:
            raise DiagramError("a colouring must cover the internal edges exactly")
        if any(c < 0 for _, c in self.eta):
            raise DiagramError("colour indices start at 0")


def expand_colourings(d: Diagram, dim: int) -> list[EdgeColouring]:
    """All dim^edges ways of putting a basis index on each internal edge."""
    internal = sorted(d.pairs - d.bare_pairs)
    return [EdgeColouring(d, tuple(zip(internal, combo)))
            for combo in itertools.product(range(dim), repeat=len(internal))]


def degree(d: Diagram | TypedDiagram) -> int:
    """Sum of the valences of the ordinary vertices."""
    if isinstance(d, TypedDiagram):
        d = d.base
    return sum(v.valence for v in d.vertices if not v.special)


def forget_numbering(t: TypedDiagram) -> Diagram:
    return t.base


def relabel(d: Diagram, f: dict[int, int]) -> Diagram:
    if len(set(f.values())) != len(f):
        raise DiagramError("relabelling must be injective")
    return Diagram(
        tuple(v.relabelled(f) for v in d.vertices),
        frozenset(_norm_pair(f[a], f[b]) for a, b in d.pairs),
        frozenset(_norm_pair(f[a], f[b]) for a, b in d.root_pairs),
    )


def relabel_typed(t: TypedDiagram, f: dict[int, int]) -> TypedDiagram:
    return TypedDiagram(relabel(t.base, f),
                        tuple(f[h] for h in t.ins), tuple(f[h] for h in t.outs))


def shift(d: Diagram, offset: int) -> Diagram:
    return relabel(d, {h: h + offset for h in d.half_edges})


def next_id(d: Diagram) -> int:
    return max(d.half_edges, default=-1) + 1


def mark_root(d: Diagram) -> Diagram:
    """Mark every vertex and every internal edge of ``d`` as distinguished."""
    vs = tuple(Vertex(v.kind, v.colour, v.slots, v.n_in, v.special, True) for v in d.vertices)
    if d.bare_pairs:
        raise DiagramError("roots with bare edges are not supported")
    return Diagram(vs, d.pairs, d.pairs)


def build_diagram(vertices: list[tuple[str, str, tuple[int, ...]]] | list[Vertex],
                  matching: dict[int, int],
                  table: ColourTable | None = None,
                  bare: list[tuple[int, int]] = ()) -> Diagram:
    """Validating constructor from raw vertex data and an involution.

    ``vertices`` entries are Vertex values or ``(kind, colour, slots)``
    triples (coupon triples use ``(kind, colour, (ins, outs))``).  When a
    colour table is given, colours must exist in it with the right kind and
    arity, and the special flag is taken from it.  ``matching`` must be an
    involution without fixed points; ``bare`` adds vertex-free edges.
    """
    vs: list[Vertex] = []
    for raw in vertices:
        if isinstance(raw, Vertex):
            v = raw
        else:
            kind, colour, slots = raw
            if kind == "coupon":
                s_in, s_out = slots  # type: ignore[misc]
                v = Vertex(kind, colour, tuple(s_in) + tuple(s_out), n_in=len(s_in))
            else:
                v = Vertex(kind, colour, tuple(slots))
        if table is not None:
            entry = table[v.colour]
            arity = (len(v.ins), len(v.outs)) if v.kind == "coupon" else v.valence
            if entry.kind != v.kind or entry.arity != arity:
                raise DiagramError(
                    f"colour {v.colour!r} is a {entry.kind} colour of arity "
                    f"{entry.arity}, not usable as {v.kind}/{arity}")
            v = Vertex(v.kind, v.colour, v.slots, v.n_in, entry.special, v.root)
        vs.append(v)
    for a, b in matching.items():
        if matching.get(b) != a:
            raise DiagramError(f"matching is not an involution at {a}")
        if a == b:
            raise DiagramError(f"matching fixes half-edge {a}")
    pairs = {_norm_pair(a, b) for a, b in matching.items()}
    pairs.update(_norm_pair(a, b) for a, b in bare)
    return Diagram(tuple(vs), frozenset(pairs))


# -- stock shapes -----------------------------------------------------------

def symmetric_star(colour: str, n: int, *, special: bool = False) -> Diagram:
    return Diagram((Vertex("symmetric", colour, tuple(range(n)),
                           special=special),))


def cyclic_star(colour: str, n: int, *, special: bool = False) -> Diagram:
    return Diagram((Vertex("cyclic", colour, tuple(range(n)),
                           special=special),))


def coupon_star(colour: str, m: int, n: int, *, special: bool = False) -> Diagram:
    return Diagram((Vertex("coupon", colour, tuple(range(m + n)),
                           n_in=m, special=special),))


def star_for(entry) -> Diagram:
    """Single-vertex diagram for a colour-table entry, special when the
    entry is."""
    if entry.kind == "coupon":
        m, n = entry.arity
        return coupon_star(entry.name, m, n, special=entry.special)
    if entry.kind == "cyclic":
        return cyclic_star(entry.name, entry.arity, special=entry.special)
    return symmetric_star(entry.name, entry.arity, special=entry.special)


def bare_edge(start: int = 0) -> Diagram:
    return Diagram((), frozenset({(start, start + 1)}))


def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    b = shift(b, next_id(a))
    return Diagram(a.vertices + b.vertices, a.pairs | b.pairs,
                   a.root_pairs | b.root_pairs)


def connected_components(d: Diagram) -> list[Diagram]:
    """Components as sub-diagrams (half-edge ids preserved), deterministic order.

    The empty diagram has no components; a bare edge is a component of its
    own.  Root marks survive on the pieces.
    """
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i in range(len(d.vertices)):
        parent.setdefault(("v", i), ("v", i))
    for a, b in d.pairs:
        oa, ob = d.vertex_of(a), d.vertex_of(b)
        ka = ("v", oa) if oa is not None else ("b", _norm_pair(a, b))
        kb = ("v", ob) if ob is not None else ("b", _norm_pair(a, b))
        union(ka, kb)

    groups: dict = {}
    for key in parent:
        groups.setdefault(find(key), []).append(key)

    comps = []
    for members in groups.values():
        vidx = sorted(i for tag, i in members if tag == "v")
        bares = [p for tag, p in members if tag == "b"]
        vs = tuple(d.vertices[i] for i in vidx)
        halves = {h for v in vs for h in v.slots}
        pairs = {p for p in d.pairs if p[0] in halves} | set(bares)
        comps.append(Diagram(vs, frozenset(pairs), frozenset(p for p in d.root_pairs if p in pairs)))
    comps.sort(key=lambda c: min(c.half_edges, default=-1))
    return comps

"""Canonical codes, isomorphism tests and automorphism counts.

Two diagrams are isomorphic when a bijection of half-edges and vertices
preserves kinds, colours, the matching, leg status and the slot structure:
coupon slots pointwise, cyclic slots up to rotation, symmetric slots up to
arbitrary permutation.  Untyped diagrams may permute legs; typed diagrams
must fix every numbered endpoint.  Rooted diagrams must map the marked
sub-diagram onto itself.

``canonical_code`` runs an individualisation-refinement search on the slot
half-edges, after McKay & Piperno, *Practical graph isomorphism II* (J. Symb.
Comput. 2014) and Junttila & Kaski's *bliss* (ALENEX 2007).

* A half-edge's initial colour holds its vertex's kind, ``n_in``, colour,
  special and root flags and valence, its coupon position, its endpoint
  number (typed legs), leg mark or edge mark (root edge or not), and the
  size of its bundle: the number of edges joining the same two vertices
  (loops apart), or of legs on its vertex.
* Refinement splits colour cells until the partition is equitable: two
  half-edges keep one colour only while their partners, their successors and
  predecessors round a cyclic or coupon vertex, and the colour multisets of
  their symmetric vertices agree.  Partner, successor and predecessor are
  functions, so one round is a sort of short tuples of neighbour colours.
  A colour is the index at which its cell starts in the ordered partition.
* While a cell has several members, the search individualises each member
  in turn and refines again.  Every branch ends in a discrete partition, a
  numbering of the half-edges, and the least form of the diagram under these
  numberings, with the sorted initial colours, is the code.
* Two leaves with equal forms differ by an automorphism.  A node skips the
  children that an automorphism fixing its branch maps onto a child already
  searched, and a leaf equal to the first or the best leaf abandons the
  search back to the node where the two branches split.  |Aut| is the product
  over the first branch of the orbit of each individualised half-edge under
  the automorphisms that fix the ones individualised above it
  (orbit-stabiliser).  Since that count is exact, the automorphisms found
  generate the whole group on the slot half-edges;
  ``automorphism_generators`` returns them.

Valence-0 vertices and untyped bare edges own no slots.  They enter the code
as counts, and |Aut| gains k! for each group of k equal valence-0 vertices
and b!·2^b for b untyped bare edges.  Typed bare edges are fixed by their
endpoint numbers.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .diagram import Diagram, TypedDiagram


@dataclass(frozen=True)
class CanonicalCode:
    code: bytes
    aut_order: int


def _leg_tokens(t: TypedDiagram) -> dict[int, int]:
    """Endpoint numbers as half-edge tags: input k is 2k+1, output k is 2k+2
    (0, 1 and 2 tag untyped legs, edges and root edges)."""
    tok = {h: 2 * k + 1 for k, h in enumerate(t.ins, 1)}
    tok.update({h: 2 * k + 2 for k, h in enumerate(t.outs, 1)})
    return tok


def _refine(col: list[int], cells: int, part: list[int], nxt: list[int],
            prv: list[int], grp: list[int], groups: list[range]
            ) -> tuple[list[int], int]:
    """Split cells until none splits.  ``col`` maps each half-edge to the
    start of its cell and ends in a -1 that the -1 neighbour indices read."""
    n = len(part)
    items = range(n)
    while cells < n:
        get = col.__getitem__
        if groups:
            vk = [tuple(sorted(map(get, g))) for g in groups]
            vk.append(())
            keys = list(zip(col, map(get, part), map(get, nxt), map(get, prv),
                            map(vk.__getitem__, grp)))
        else:
            keys = list(zip(col, map(get, part), map(get, nxt), map(get, prv)))
        new = [-1] * (n + 1)
        count = 0
        prev = None
        for pos, i in enumerate(sorted(items, key=keys.__getitem__)):
            k = keys[i]
            if k != prev:
                prev, start = k, pos
                count += 1
            new[i] = start
        if count == cells:
            break
        col, cells = new, count
    return col, cells


def _orbits(n: int, gens: list[list[int]], path: list[int]) -> list[int] | None:
    """Orbit representative of each half-edge under the automorphisms in
    ``gens`` that fix ``path`` pointwise; None when none of them does."""
    fixing = [g for g in gens if all(g[p] == p for p in path)]
    if not fixing:
        return None
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for g in fixing:
        for a, b in enumerate(g):
            ra, rb = find(a), find(b)
            if ra != rb:
                root[ra] = rb
    return [find(a) for a in range(n)]


def _search(d: Diagram, tok: dict[int, int]
            ) -> tuple[tuple, int, list[dict[int, int]]]:
    """Canonical form and automorphism count of the slot structure of ``d``,
    with the automorphisms the search found as maps of slot half-edges."""
    partner = d.partner
    sigs = [(v.kind, -1 if v.n_in is None else v.n_in, v.colour, v.special,
             v.root, len(v.slots)) for v in d.vertices]
    kinds = sorted(set(sigs))
    rank = {s: r for r, s in enumerate(kinds)}
    index: dict[int, int] = {}
    rk: list[int] = []
    pos: list[int] = []
    own: list[int] = []
    nxt: list[int] = []
    prv: list[int] = []
    grp: list[int] = []
    groups: list[range] = []
    isolated: dict[int, int] = {}
    for vi, (v, sig) in enumerate(zip(d.vertices, sigs)):
        k = sig[5]
        if not k:
            isolated[rank[sig]] = isolated.get(rank[sig], 0) + 1
            continue
        base = len(own)
        index.update(zip(v.slots, range(base, base + k)))
        rk.extend([rank[sig]] * k)
        own.extend([vi] * k)
        if v.kind == "symmetric":
            pos.extend([0] * k)
            grp.extend([len(groups)] * k)
            groups.append(range(base, base + k))
            nxt.extend([-1] * k)
            prv.extend([-1] * k)
        else:
            pos.extend(range(k) if v.kind == "coupon" else [0] * k)
            grp.extend([-1] * k)
            nxt.extend(base + (j + 1) % k for j in range(k))
            prv.extend(base + (j - 1) % k for j in range(k))
    n = len(own)
    count = math.prod(map(math.factorial, isolated.values()))
    layout = (tuple(kinds), tuple(sorted(isolated.items())))
    if not n:
        return layout + ((), ()), count, []
    part = [index[partner[h]] if h in partner else -1 for h in index]

    # Tag: 0 untyped leg, 1 edge, 2 root edge, above 2 an endpoint number.
    tags = [1 if p >= 0 else tok.get(h, 0) for h, p in zip(index, part)]
    for a, b in d.root_pairs:
        if a in index:
            tags[index[a]] = tags[index[b]] = 2
    # Bundle sizes and loop flags: refinement on half-edges cannot see that
    # two edges join the same two vertices.
    own.append(-1)
    ends = list(zip(own, map(own.__getitem__, part)))
    bundle = Counter(ends)
    keys = list(zip(rk, pos, tags, map(bundle.__getitem__, ends),
                    itertools.starmap(operator.eq, ends)))
    runs = sorted(Counter(keys).items())
    start: dict[tuple, int] = {}
    cells = 0
    for key, size in runs:
        start[key] = cells
        cells += size
    col = list(map(start.__getitem__, keys))
    col.append(-1)

    gens: list[list[int]] = []
    first = best = None  # (form, numbering, path) of a leaf
    aut = 1

    def leaf(col: list[int], path: list[int]) -> int:
        nonlocal first, best
        get = col.__getitem__
        at = sorted(range(n), key=get)
        gmin = [min(map(get, g)) for g in groups]
        gmin.append(-1)
        # Per position: the partner's position, then the successor's position
        # (cyclic, coupon) or the vertex's least position (symmetric).
        form = (tuple(map(get, map(part.__getitem__, at)))
                + tuple(map(max, map(get, map(nxt.__getitem__, at)),
                            map(gmin.__getitem__, map(grp.__getitem__, at)))))
        if first is None:
            first = best = (form, col, path[:])
            return len(path) - 1
        for ref_form, ref_col, ref_path in (first, best):
            if form == ref_form:
                gens.append([at[ref_col[i]] for i in range(n)])
                j = 0
                while path[j] == ref_path[j]:
                    j += 1
                return j
        if form < best[0]:
            best = (form, col, path[:])
        return len(path) - 1

    def node(col: list[int], cells: int, path: list[int], on_first: bool) -> int:
        nonlocal aut
        if cells == n:
            return leaf(col, path)
        depth = len(path)
        ordered = sorted(col[:n])
        c = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
        cell = [i for i in range(n) if col[i] == c]
        tried: list[int] = []
        known = 0
        orb = None
        for x in cell:
            if tried and len(gens) != known:
                known = len(gens)
                orb = _orbits(n, gens, path)
            if orb is not None and orb[x] in {orb[t] for t in tried}:
                continue
            tried.append(x)
            new = col[:]
            for m in cell:
                new[m] = c + 1
            new[x] = c
            path.append(x)
            back = node(*_refine(new, cells + 1, part, nxt, prv, grp, groups),
                        path, on_first and len(tried) == 1)
            path.pop()
            if back < depth:
                return back
        if on_first:
            orb = _orbits(n, gens, path)
            if orb is not None:
                aut *= orb.count(orb[cell[0]])
        return depth - 1

    node(*_refine(col, len(runs), part, nxt, prv, grp, groups), [], True)
    halves = list(index)
    maps = [dict(zip(halves, map(halves.__getitem__, g))) for g in gens]
    return layout + (tuple(runs), best[0]), count * aut, maps


def canonical_code(d: Diagram | TypedDiagram) -> CanonicalCode:
    """Complete isomorphism invariant together with the automorphism order."""
    if isinstance(d, TypedDiagram):
        base = d.base
        tok = _leg_tokens(d)
        head = ("T", d.src, d.tgt)
        tail = tuple(sorted(tuple(sorted((tok[a], tok[b])))
                            for a, b in base.bare_pairs))
        body, count, _ = _search(base, tok)
    else:
        base = d
        b = len(base.bare_pairs)
        head, tail = ("D",), b
        body, count, _ = _search(base, {})
        count *= math.factorial(b) * 2 ** b
    return CanonicalCode(repr(head + body + (tail,)).encode(), count)


def automorphism_generators(d: Diagram) -> list[dict[int, int]]:
    """Automorphisms of ``d`` that generate its group on the slot half-edges,
    each a map of every slot half-edge to its image.

    They are the automorphisms the canonical search of ``d`` finds; |Aut| is
    their group's order times the valence-0 and bare-edge factors.
    """
    return _search(d, {})[2]


def aut_order(d: Diagram | TypedDiagram) -> int:
    return canonical_code(d).aut_order


def are_isomorphic(a: Diagram | TypedDiagram, b: Diagram | TypedDiagram) -> bool:
    return canonical_code(a).code == canonical_code(b).code

"""Brute-force oracles for automorphisms, components, Gaussian moments and
series, sharing no logic with the canonical search, the component labels of
:mod:`fdcalc.diagram`, the moment kernel or the weight-order recurrence of
:mod:`fdcalc.series`.

:func:`aut_order_bruteforce`, the oracle for |Aut| from
:func:`fdcalc.iso.canonical_code`, enumerates candidate vertex bijections
extended by explicit slot bijections and counts the maps commuting with the
matching.  :func:`is_automorphism` checks one map of slot half-edges, and
:func:`group_order` lists the group that some maps generate.

:func:`tagged_components`, the oracle for
:func:`fdcalc.diagram.connected_components` and the census filters, runs a
union-find over tagged vertices ``("v", i)`` and bare edges ``("b", pair)``
and builds each component from its own members.

:func:`pairing_moment` sums a Gaussian moment over the perfect matchings of
its index list, with no memo and no packing, and
:func:`potential_coefficient` builds one coefficient of ⟨f·e^S⟩ from
powers formed by ``Poly``'s own product.

:func:`power_sum` sums a series' powers, each formed by the series product,
and :func:`exp_by_power_sum`, :func:`log_by_power_sum` and
:func:`reciprocal_by_power_sum` are the Taylor series it gives.

:func:`exponent_vectors_by_count` counts the indices of each tuple of a
dense tensor's row-major walk, the oracle for
:func:`fdcalc.poly.exponent_vectors`.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from fdcalc.diagram import Diagram, TypedDiagram, _norm_pair
from fdcalc.poly import Poly
from fdcalc.series import MultiSeries


def _sig(v):
    return (v.kind, v.n_in, v.colour, v.special, v.root, v.valence)


def aut_order_bruteforce(d: Diagram | TypedDiagram, bound: int = 16) -> int:
    """Count automorphisms by exhausting vertex and slot bijections.

    Guarded by ``bound`` on the number of half-edges.
    """
    typed = d if isinstance(d, TypedDiagram) else None
    base = d.base if typed is not None else d
    if len(base.half_edges) > bound:
        raise ValueError(f"diagram exceeds the brute-force bound of {bound} half-edges")
    verts = base.vertices
    nvert = len(verts)
    partner = base.partner
    rp = base.root_pairs

    cand = [[j for j in range(nvert) if _sig(verts[j]) == _sig(verts[i])] for i in range(nvert)]
    used = [False] * nvert
    phi: dict[int, int] = {}
    count = 0

    def slot_maps(v, w):
        if v.kind == "coupon":
            yield tuple(zip(v.slots, w.slots))
        elif v.kind == "cyclic":
            for r in range(v.valence):
                yield tuple(zip(v.slots, w.slots[r:] + w.slots[:r]))
            if v.valence == 0:
                yield ()
        else:
            for pm in itertools.permutations(w.slots):
                yield tuple(zip(v.slots, pm))

    def consistent(sm) -> bool:
        tm = dict(sm)
        for h, k in sm:
            p = partner.get(h)
            q = partner.get(k)
            if (p is None) != (q is None):
                return False
            if p is None:
                if typed is not None and k != h:
                    return False
                continue
            if ((min(h, p), max(h, p)) in rp) != ((min(k, q), max(k, q)) in rp):
                return False
            img = phi.get(p, tm.get(p))
            if img is not None and img != q:
                return False
        return True

    def rec(i: int):
        nonlocal count
        if i == nvert:
            count += 1
            return
        v = verts[i]
        for j in cand[i]:
            if used[j]:
                continue
            for sm in slot_maps(v, verts[j]):
                if consistent(sm):
                    used[j] = True
                    phi.update(sm)
                    rec(i + 1)
                    for h, _ in sm:
                        del phi[h]
                    used[j] = False

    rec(0)
    if typed is None:
        b = len(base.bare_pairs)
        count *= math.factorial(b) * 2 ** b
    return count


def is_automorphism(d: Diagram, g: dict[int, int]) -> bool:
    """Whether ``g``, a map of the slot half-edges of ``d``, is an
    automorphism: a bijection of the slots that keeps the matching and the
    root edges, and maps each vertex's slots onto a vertex of the same
    kind, colour and marks, pointwise for coupons, by a rotation for cyclic
    vertices and in any order for symmetric ones."""
    partner = d.partner
    halves = sorted(h for v in d.vertices for h in v.slots)
    if sorted(g) != halves or sorted(g.values()) != halves:
        return False
    for h in halves:
        if (h in partner) != (g[h] in partner):
            return False
        if h in partner:
            edge = tuple(sorted((h, partner[h])))
            image = tuple(sorted((g[h], g[partner[h]])))
            if (partner[g[h]] != g[partner[h]]
                    or (edge in d.root_pairs) != (image in d.root_pairs)):
                return False
    owner = {h: v for v in d.vertices for h in v.slots}
    for v in d.vertices:
        if not v.slots:
            continue
        w = owner[g[v.slots[0]]]
        moved = tuple(g[h] for h in v.slots)
        if _sig(w) != _sig(v):
            return False
        if v.kind == "coupon":
            ok = moved == w.slots
        elif v.kind == "cyclic":
            k = w.slots.index(moved[0])
            ok = moved == w.slots[k:] + w.slots[:k]
        else:
            ok = sorted(moved) == list(w.slots)
        if not ok:
            return False
    return True


def group_order(gens: list[dict[int, int]], halves: list[int]) -> int:
    """Order of the group the maps ``gens`` generate on ``halves``, by
    listing every element as the positions of the images."""
    where = {h: i for i, h in enumerate(halves)}
    moves = [tuple(where[g[h]] for h in halves) for g in gens]
    identity_map = tuple(range(len(halves)))
    elements = {identity_map}
    todo = [identity_map]
    while todo:
        x = todo.pop()
        for m in moves:
            y = tuple(map(m.__getitem__, x))
            if y not in elements:
                elements.add(y)
                todo.append(y)
    return len(elements)


def tagged_components(d: Diagram) -> list[Diagram]:
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


def perfect_matchings(items: list):
    """Every perfect matching of ``items``, as a list of pairs; none for an
    odd count."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for j, other in enumerate(rest):
        for m in perfect_matchings(rest[:j] + rest[j + 1:]):
            yield [(first, other)] + m


def pairing_moment(cov, idx) -> Fraction:
    """⟨v_{i_1}···v_{i_k}⟩ as the plain sum, over the perfect matchings of
    the k positions, of the product of the covariance entries ``cov[a][b]``
    that each matching pairs."""
    idx = list(idx)
    return sum((math.prod(cov[idx[a]][idx[b]] for a, b in m)
                for m in perfect_matchings(list(range(len(idx))))),
               Fraction(0))


def poly_moment(p: Poly, cov) -> Fraction:
    """⟨p⟩, term by term through :func:`pairing_moment`."""
    return sum((c * pairing_moment(cov, [i for i, k in enumerate(e)
                                         for _ in range(k)])
                for e, c in p.terms.items()), Fraction(0))


def potential_coefficient(f: Poly, stars: list[Poly], exps, cov) -> Fraction:
    """The coefficient of x_1^{e_1}···x_m^{e_m} in ⟨f·exp(Σ x_i S_i)⟩, for
    the star polynomials S_i: the average of f·Π S_i^{e_i}/e_i!."""
    p = f
    for s, e in zip(stars, exps):
        p = p * s ** e * Fraction(1, math.factorial(e))
    return poly_moment(p, cov)


def power_sum(t: MultiSeries, coeff) -> MultiSeries:
    """sum coeff(k) * t^k over k >= 0, for ``t`` without constant term.

    Every term of t^k weighs at least k, so the powers vanish past
    ``t.max_degree`` and the sum stops at the first power that does.
    """
    acc = MultiSeries.zero(t.max_degree)
    power = MultiSeries.constant(1, t.max_degree)
    k = 0
    while power.coeffs:
        acc = acc + power * coeff(k)
        k += 1
        power = power * t
    return acc


def exp_by_power_sum(t: MultiSeries) -> MultiSeries:
    """exp(t) = sum t^k / k!, for ``t`` without constant term."""
    return power_sum(t, lambda k: Fraction(1, math.factorial(k)))


def log_by_power_sum(z: MultiSeries) -> MultiSeries:
    """log(1 + t) = sum (-1)^(k+1) t^k / k over k >= 1, for t = z - 1."""
    return power_sum(z - 1, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def reciprocal_by_power_sum(z: MultiSeries) -> MultiSeries:
    """1/(c(1 + t)) = sum (-t)^k / c, for c the constant term of ``z`` and
    t = z/c - 1."""
    c = z.coefficient(())
    return power_sum(z / c - 1, lambda k: (-1) ** k) / c


def exponent_vectors_by_count(dim: int, n: int) -> list[tuple[int, ...]]:
    """The exponent vector of each index tuple of a dense tensor of rank n,
    in row-major order, counted index by index."""
    return [tuple(idx.count(i) for i in range(dim))
            for idx in itertools.product(range(dim), repeat=n)]

"""Brute-force |Aut|, the oracle for :func:`fdcalc.iso.canonical_code`.

It enumerates candidate vertex bijections extended by explicit slot
bijections and counts the maps commuting with the matching.  It shares no
logic with the canonical search.
"""
from __future__ import annotations

import itertools
import math

from fdcalc.diagram import Diagram, TypedDiagram


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

    def sig(v):
        return (v.kind, v.n_in, v.colour, v.special, v.root, v.valence)

    cand = [[j for j in range(nvert) if sig(verts[j]) == sig(verts[i])] for i in range(nvert)]
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

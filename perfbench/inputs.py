"""Deterministic input files for the benchmark workloads.

``write_inputs(directory, seed)`` writes every colour table (``.tbl``),
exact algebra (``.alg``) and diagram (``.fd``) the jobs read.  The seed only
relabels: it shuffles table rows, renames and reorders diagram vertices,
permutes the slots of symmetric vertices and rotates cyclic ones, and moves
each algebra to new coordinates by a signed permutation.  Every printed
quantity (class counts, ``|Aut|``, closed amplitudes, series coefficients)
is invariant under these moves, so one set of reference outputs checks every
seed, and the work done, hence the run time, does not depend on the seed.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

# Ordinary colours per table; each gets a special partner named in capitals.
TABLES = {
    "quartic": [("sym", 4, "phi4")],
    "cubic": [("sym", 3, "phi3")],
    "mixed": [("sym", 3, "phi3"), ("sym", 4, "phi4")],
    "cyclic": [("cyc", 3, "psi3")],
}

# name: (dim, [(kind, valence, colour)]).  The tensors are fixed by the
# name alone, so only the seed's change of coordinates varies between seeds.
ALGEBRAS = {
    "quartic5": (5, [("sym", 4, "phi4")]),
    "mixed4": (4, [("sym", 3, "phi3"), ("sym", 4, "phi4")]),
    "quartic3": (3, [("sym", 4, "phi4")]),
    "cyclic3": (3, [("cyc", 3, "psi3")]),
}

# name: (vertices as (kind, colour, valence), internal edges as
# ((vertex, slot), (vertex, slot)) with 0-based indices).
DIAGRAMS = {
    "sym_stars": ([("sym", "phi3", 3), ("sym", "phi3", 3),
                   ("sym", "phi4", 4)], []),
    "cyc_stars": ([("cyc", "psi3", 3), ("cyc", "psi3", 3),
                   ("sym", "phi4", 4)], []),
    "coupons": ([("coupon(2,2)", "t22", 4), ("coupon(2,2)", "t22", 4),
                 ("sym", "phi3", 3), ("sym", "phi3", 3)],
                [((2, 0), (3, 0))]),
    # Special (bold) stars as roots for ``verify frt --root``.
    "root_PHI4": ([("sym", "PHI4", 4)], []),
    "root_PSI3": ([("cyc", "PSI3", 3)], []),
}


def legs(name: str) -> int:
    """Number of loose slots of a generated diagram."""
    vertices, edges = DIAGRAMS[name]
    return sum(v for _, _, v in vertices) - 2 * len(edges)


def table_text(name: str, rng: random.Random) -> str:
    rows = []
    for kind, valence, colour in TABLES[name]:
        rows.append(f"{kind} {valence} {colour.upper()} special -")
        rows.append(f"{kind} {valence} {colour} ordinary {colour.upper()}")
    rng.shuffle(rows)
    return "\n".join(rows) + "\n"


def _outer_power(vectors, valence: int, dim: int) -> list[Fraction]:
    """Flat row-major entries of sum_k c_k * (u_k tensor ... tensor u_k)."""
    out = []
    for idx in product(range(dim), repeat=valence):
        total = Fraction(0)
        for c, u in vectors:
            term = c
            for i in idx:
                term *= u[i]
            total += term
        out.append(total)
    return out


def _rotation_sum(c: Fraction, u, v, w, dim: int) -> list[Fraction]:
    """Flat entries of c * (u v w + v w u + w u v), a cyclic tensor that is
    not fully symmetric."""
    return [c * (u[i] * v[j] * w[k] + v[i] * w[j] * u[k]
                 + w[i] * u[j] * v[k])
            for i, j, k in product(range(dim), repeat=3)]


def algebra_doc(name: str, rng: random.Random) -> dict:
    dim, colours = ALGEBRAS[name]
    base = random.Random(f"fdcalc-bench-{name}")

    def vec():
        return [base.randint(-1, 2) for _ in range(dim)]

    b = [[base.randint(-1, 1) for _ in range(dim)] for _ in range(dim)]
    pairing = [[Fraction(int(i == j)) + Fraction(
        sum(b[i][k] * b[j][k] for k in range(dim)), 2)
        for j in range(dim)] for i in range(dim)]
    raw = {}
    for kind, valence, colour in colours:
        powers = [(Fraction(base.randint(1, 5), base.randint(1, 6)), vec())
                  for _ in range(3)]
        triple = (Fraction(base.randint(1, 5), base.randint(1, 6)),
                  vec(), vec(), vec()) if kind == "cyc" else None
        raw[colour] = (valence, powers, triple)

    # The seed's change of coordinates x'_i = s_i x_{p(i)}, applied to every
    # covector and to the pairing alike, leaves closed amplitudes unchanged.
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]

    def move(u):
        return [signs[i] * u[perm[i]] for i in range(dim)]

    moved_pairing = [signs[i] * signs[j] * pairing[perm[i]][perm[j]]
                     for i in range(dim) for j in range(dim)]
    tensors = {}
    for colour, (valence, powers, triple) in raw.items():
        flat = _outer_power([(c, move(u)) for c, u in powers], valence, dim)
        if triple is not None:
            c, u, v, w = triple
            flat = [x + y for x, y in zip(
                flat, _rotation_sum(c, move(u), move(v), move(w), dim))]
        tensors[colour] = [str(x) for x in flat]
    return {
        "dim": dim,
        "colours": [{"name": colour, "kind": kind, "valence": valence}
                    for kind, valence, colour in colours],
        "pairing": [str(x) for x in moved_pairing],
        "tensors": tensors,
    }


def diagram_text(name: str, rng: random.Random) -> str:
    vertices, edges = DIAGRAMS[name]
    names = rng.sample(range(100, 1000), len(vertices))
    slot_maps = []
    for kind, _, valence in vertices:
        slots = list(range(valence))
        if kind == "sym":
            rng.shuffle(slots)
        elif kind == "cyc":
            r = rng.randrange(valence)
            slots = slots[r:] + slots[:r]
        slot_maps.append(slots)

    def ref(vertex: int, slot: int) -> str:
        return f"n{names[vertex]}.{slot_maps[vertex][slot] + 1}"

    order = list(range(len(vertices)))
    rng.shuffle(order)
    lines = [f"vertex n{names[i]} {vertices[i][0]} {vertices[i][1]}"
             f" legs {vertices[i][2]};" for i in order]
    stmts = []
    for a, b in edges:
        if rng.random() < 0.5:
            a, b = b, a
        stmts.append(f"edge {ref(*a)} - {ref(*b)};")
    rng.shuffle(stmts)
    return "\n".join(lines + stmts) + "\n"


def write_inputs(directory: Path, seed: int) -> None:
    """Write every input file for ``seed`` into ``directory``."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in sorted(TABLES):
        files[f"{name}.tbl"] = table_text(name, rng)
    for name in sorted(ALGEBRAS):
        files[f"{name}.alg"] = json.dumps(algebra_doc(name, rng))
    for name in sorted(DIAGRAMS):
        files[f"{name}.fd"] = diagram_text(name, rng)
    for fname, text in files.items():
        (directory / fname).write_text(text, encoding="utf-8")

"""Shared constructors for the test suite."""
from __future__ import annotations

import os
import random
import subprocess
import sys

import fdcalc
from fdcalc.colours import ColourEntry, ColourTable
from fdcalc.diagram import Diagram, TypedDiagram, Vertex


# Seconds a child interpreter may run before it is killed and its test
# fails with ``subprocess.TimeoutExpired``, so that a hang cannot stall the
# suite.
RUN_TIMEOUT_S = 20


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run on ``args`` that imports the same fdcalc as
    the test suite, however pytest found it, killed after
    ``RUN_TIMEOUT_S``."""
    src = os.path.dirname(os.path.dirname(fdcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=RUN_TIMEOUT_S)


def quartic_table() -> ColourTable:
    return ColourTable([
        ColourEntry("PHI4", "symmetric", 4, special=True),
        ColourEntry("phi4", "symmetric", 4, bold="PHI4"),
    ])


def cubic_table() -> ColourTable:
    return ColourTable([
        ColourEntry("PHI3", "symmetric", 3, special=True),
        ColourEntry("phi3", "symmetric", 3, bold="PHI3"),
    ])


def mixed_table() -> ColourTable:
    return ColourTable([
        ColourEntry("PHI3", "symmetric", 3, special=True),
        ColourEntry("phi3", "symmetric", 3, bold="PHI3"),
        ColourEntry("PHI4", "symmetric", 4, special=True),
        ColourEntry("phi4", "symmetric", 4, bold="PHI4"),
    ])


def cyclic_table() -> ColourTable:
    return ColourTable([
        ColourEntry("PSI3", "cyclic", 3, special=True),
        ColourEntry("psi3", "cyclic", 3, bold="PSI3"),
    ])


def coupon_table() -> ColourTable:
    return ColourTable([
        ColourEntry("T22", "coupon", (2, 2), special=True),
        ColourEntry("t22", "coupon", (2, 2), bold="T22"),
    ])


def low_valence_table() -> ColourTable:
    """Ordinary colours of valence 1, 2, 3 and 4: many star multisets at a
    low degree (121 at degree 11)."""
    return ColourTable([
        e for k in (1, 2, 3, 4)
        for e in (ColourEntry(f"S{k}", "symmetric", k, special=True),
                  ColourEntry(f"s{k}", "symmetric", k, bold=f"S{k}"))
    ])


def figure_eight(colour: str = "phi4", special: bool = False) -> Diagram:
    return Diagram((Vertex("symmetric", colour, (0, 1, 2, 3), special=special),),
                   frozenset({(0, 1), (2, 3)}))


def theta(colour: str = "phi3", special: bool = False) -> Diagram:
    return Diagram((Vertex("symmetric", colour, (0, 1, 2), special=special),
                    Vertex("symmetric", colour, (3, 4, 5), special=special)),
                   frozenset({(0, 3), (1, 4), (2, 5)}))


def dumbbell(colour: str = "phi3") -> Diagram:
    return Diagram((Vertex("symmetric", colour, (0, 1, 2)),
                    Vertex("symmetric", colour, (3, 4, 5))),
                   frozenset({(0, 1), (3, 4), (2, 5)}))


def banded_pair(colour: str = "phi4") -> Diagram:
    """Two 4-valent vertices joined by four parallel edges."""
    return Diagram((Vertex("symmetric", colour, (0, 1, 2, 3)),
                    Vertex("symmetric", colour, (4, 5, 6, 7))),
                   frozenset({(0, 4), (1, 5), (2, 6), (3, 7)}))


def band_with_loops(colour: str = "phi4") -> Diagram:
    """Two 4-valent vertices, a loop on each, joined by two parallel edges."""
    return Diagram((Vertex("symmetric", colour, (0, 1, 2, 3)),
                    Vertex("symmetric", colour, (4, 5, 6, 7))),
                   frozenset({(0, 1), (4, 5), (2, 6), (3, 7)}))


def random_relabelling(d: Diagram, rng: random.Random) -> dict[int, int]:
    ids = sorted(d.half_edges)
    target = list(range(1000, 1000 + len(ids)))
    rng.shuffle(target)
    return dict(zip(ids, target))


def random_diagram(rng: random.Random, max_vertices: int = 3,
                   closed: bool = False) -> Diagram:
    """Small random diagram over an implicit mixed alphabet."""
    kinds = [("symmetric", "s3", 3), ("symmetric", "s4", 4),
             ("cyclic", "c3", 3), ("coupon", "k21", 3)]
    nv = rng.randint(1, max_vertices)
    verts = []
    nid = 0
    for _ in range(nv):
        kind, colour, valence = rng.choice(kinds)
        slots = tuple(range(nid, nid + valence))
        nid += valence
        verts.append(Vertex(kind, colour, slots, n_in=2 if kind == "coupon" else None,
                            special=rng.random() < 0.3))
    halves = list(range(nid))
    rng.shuffle(halves)
    pairs = set()
    while len(halves) >= 2:
        if not closed and rng.random() < 0.3:
            halves.pop()
            continue
        a = halves.pop()
        b = halves.pop()
        pairs.add((min(a, b), max(a, b)))
    return Diagram(tuple(verts), frozenset(pairs))


def random_typed(rng: random.Random, max_vertices: int = 3) -> TypedDiagram:
    d = random_diagram(rng, max_vertices)
    legs = list(d.legs)
    rng.shuffle(legs)
    k = rng.randint(0, len(legs))
    return TypedDiagram(d, tuple(legs[:k]), tuple(legs[k:]))

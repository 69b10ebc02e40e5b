"""Finite covering instances over diagram groupoids and their integrals.

A covering is presented here over a single base isomorphism class: a chosen
representative, its automorphism count, and the fibre over the
representative grouped into classes of the total groupoid.  Orbit counting
locks the degree, the class multiplicities, and the automorphism counts
together, and the pull-back, Fubini, and push-pull identities for groupoid
integrals follow exactly; `covering_report` checks all of it against freely
chosen class functions.

Three constructions are provided: dropping the endpoint numbering of an
open diagram (degree legs!), cutting a root-marked closed diagram into a
numbered open piece and its complement (degree cuts!), and colouring the
edges of a closed diagram with a finite palette (degree n^edges).
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations
from math import factorial

from .diagram import (Diagram, EdgeColouring, TypedDiagram, Vertex,
                      expand_colourings, next_id)
from .iso import canonical_code
from .prop import compose

MARKER_PREFIX = "\x00edge-colour:"


class CoveringError(ValueError):
    pass


@dataclass(frozen=True)
class FibreClass:
    rep: object
    aut: int
    count: int


@dataclass(frozen=True)
class CoveringInstance:
    kind: str
    degree: int
    base_rep: object
    base_aut: int
    classes: tuple[FibreClass, ...]

    def cardinality_ok(self) -> bool:
        """Orbit sizes must tile the fibre and pair off against |Aut|."""
        return (sum(c.count for c in self.classes) == self.degree
                and all(c.count * c.aut == self.base_aut
                        for c in self.classes))


@dataclass(frozen=True)
class CoveringReport:
    cardinality: bool
    pullback: bool
    fubini: bool
    pushpull: bool

    @property
    def ok(self) -> bool:
        return (self.cardinality and self.pullback and self.fubini
                and self.pushpull)


def covering_report(cov: CoveringInstance, phi=None, psi=None,
                    rng=None) -> CoveringReport:
    """Check the three integral identities on ``cov``.

    ``phi`` assigns a value to each fibre class (list, parallel to
    ``cov.classes``) and ``psi`` one to the base class; left unset they are
    drawn from ``rng`` when given, else set to 1.  Everything is exact
    rational arithmetic.
    """
    def draw():
        if rng is None:
            return Fraction(1)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    if phi is None:
        phi = [draw() for _ in cov.classes]
    phi = [Fraction(x) for x in phi]
    if psi is None:
        psi = draw()
    psi = Fraction(psi)

    total_phi = sum((v / c.aut for v, c in zip(phi, cov.classes)),
                    Fraction(0))
    base_psi = psi / cov.base_aut
    lifted_psi = sum((psi / c.aut for c in cov.classes), Fraction(0))
    pushed = sum((v * c.count for v, c in zip(phi, cov.classes)),
                 Fraction(0))
    return CoveringReport(
        cardinality=cov.cardinality_ok(),
        pullback=lifted_psi == cov.degree * base_psi,
        fubini=pushed / cov.base_aut == total_phi,
        pushpull=sum((pushed / c.aut for c in cov.classes), Fraction(0))
        == cov.degree * total_phi,
    )


def _group(items) -> tuple[FibreClass, ...]:
    found: dict[tuple, list] = {}
    for key, rep, aut in items:
        if key in found:
            found[key][1] += 1
        else:
            found[key] = [(rep, aut), 1]
    return tuple(FibreClass(rep, aut, count)
                 for (rep, aut), count in
                 (found[k] for k in sorted(found)))


# -- dropping endpoint numbers ---------------------------------------------------

def numbering_covering(d: Diagram, n_in: int = 0) -> CoveringInstance:
    """All legs! ways to number the legs of ``d``, ``n_in`` of them inward."""
    legs = d.legs
    if not 0 <= n_in <= len(legs):
        raise CoveringError("input count out of range")
    items = []
    for p in permutations(legs):
        t = TypedDiagram(d, p[:n_in], p[n_in:])
        code = canonical_code(t)
        items.append((code.code, t, code.aut_order))
    return CoveringInstance("numbering", factorial(len(legs)), d,
                            canonical_code(d).aut_order, _group(items))


# -- cutting at a marked root ----------------------------------------------------

def _unmarked(v: Vertex) -> Vertex:
    return replace(v, root=False) if v.root else v


def cut_covering(psi: Diagram) -> CoveringInstance:
    """Split a root-marked closed diagram along its closure edges.

    Each of the cuts! numberings of the root piece's loose ends produces a
    numbered pair (complement, root piece); composing the pair restores the
    diagram.  A closure edge running between two root half-edges leaves a
    bare edge in the complement.
    """
    if not psi.is_closed:
        raise CoveringError("cut decomposition needs a closed diagram")
    if not any(v.root for v in psi.vertices):
        raise CoveringError("no root marking to cut at")
    rooted = [v for v in psi.vertices if v.root]
    rest = tuple(v for v in psi.vertices if not v.root)
    root_halves = {h for v in rooted for h in v.slots}
    gam = Diagram(tuple(_unmarked(v) for v in rooted),
                  frozenset(psi.root_pairs))
    cut = tuple(gam.legs)

    fresh = next_id(psi)
    partner_in_phi: dict[int, int] = {}
    phi_pairs = []
    for a, b in sorted(psi.pairs - psi.root_pairs):
        in_a, in_b = a in root_halves, b in root_halves
        if in_a and in_b:
            phi_pairs.append((fresh, fresh + 1))
            partner_in_phi[a] = fresh
            partner_in_phi[b] = fresh + 1
            fresh += 2
        elif in_a:
            partner_in_phi[a] = b
        elif in_b:
            partner_in_phi[b] = a
        else:
            phi_pairs.append((a, b))
    phi = Diagram(rest, frozenset(phi_pairs))

    items = []
    for sigma in permutations(cut):
        gam_t = TypedDiagram(gam, (), sigma)
        phi_t = TypedDiagram(phi, tuple(partner_in_phi[h] for h in sigma), ())
        cg, cp = canonical_code(gam_t), canonical_code(phi_t)
        items.append(((cg.code, cp.code), (phi_t, gam_t),
                      cg.aut_order * cp.aut_order))
    return CoveringInstance("cut", factorial(len(cut)), psi,
                            canonical_code(psi).aut_order, _group(items))


def reassemble(pair: tuple[TypedDiagram, TypedDiagram]) -> Diagram:
    """Glue a cut pair back into the closed diagram it came from."""
    phi_t, gam_t = pair
    return compose(phi_t, gam_t).base


# -- colouring the edges ---------------------------------------------------------

def _spliced(c: EdgeColouring) -> Diagram:
    d = c.base
    fresh = next_id(d)
    verts = list(d.vertices)
    pairs = []
    for (a, b), colour in c.eta:
        verts.append(Vertex("symmetric", f"{MARKER_PREFIX}{colour}",
                            (fresh, fresh + 1), special=True))
        pairs.extend([(a, fresh), (b, fresh + 1)])
        fresh += 2
    return Diagram(tuple(verts), frozenset(pairs))


def colouring_covering(d: Diagram, n: int) -> CoveringInstance:
    """All n^edges ways to colour the edges of a closed diagram.

    A colouring's symmetry is computed by splicing a 2-valent marker vertex
    named after the colour into each edge: the spliced diagram's
    automorphisms are exactly the colour-preserving ones of the original,
    with edge flips still allowed because the marker is symmetric.
    """
    if not d.is_closed:
        raise CoveringError("edge colourings need a closed diagram")
    if n < 1:
        raise CoveringError("palette must be nonempty")
    items = []
    for c in expand_colourings(d, n):
        code = canonical_code(_spliced(c))
        items.append((code.code, c, code.aut_order))
    return CoveringInstance("colouring", n ** len(d.pairs), d,
                            canonical_code(d).aut_order, _group(items))

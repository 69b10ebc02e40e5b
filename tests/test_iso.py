import hashlib
import math
import random

import pytest

from fdcalc.diagram import (
    Diagram, TypedDiagram, Vertex, bare_edge, coupon_star, cyclic_star,
    disjoint_union, mark_root, relabel, symmetric_star,
)
from fdcalc.generate import closure_orbits, enumerate_closed
from fdcalc.iso import (
    are_isomorphic, aut_order, automorphism_generators, canonical_code,
)
from fdcalc.prop import closures

import util
from bruteforce import aut_order_bruteforce


# Frozen expected orders; each was computed by hand from the symmetry
# regimes (slot permutations / rotations / rigid slots, matching-commuting)
# and is cross-checked against the brute-force oracle below.
HAND_COUNTED = [
    (util.figure_eight(), 8),
    (util.theta(), 12),
    (util.dumbbell(), 8),
    (util.banded_pair(), 48),
    (util.band_with_loops(), 16),
    (symmetric_star("phi4", 4), 24),
    (symmetric_star("phi3", 3), 6),
    (cyclic_star("psi3", 3), 3),
    (cyclic_star("psi5", 5), 5),
    (coupon_star("t22", 2, 2), 1),
    (bare_edge(), 2),
    (Diagram(), 1),
]


@pytest.mark.parametrize("d,expected", HAND_COUNTED, ids=lambda x: str(x)[:30])
def test_hand_counted_aut_orders(d, expected):
    assert aut_order(d) == expected
    assert aut_order_bruteforce(d) == expected


def test_typed_bare_edge_is_rigid():
    t = TypedDiagram(bare_edge(), (), (0, 1))
    assert aut_order(t) == 1
    assert aut_order_bruteforce(t) == 1
    # both output numberings give the same class: the flip is an isomorphism
    s = TypedDiagram(bare_edge(), (), (1, 0))
    assert are_isomorphic(t, s)


def test_disjoint_unions_multiply_and_mix():
    two_eights = disjoint_union(util.figure_eight(), util.figure_eight())
    assert aut_order(two_eights) == 128  # 2! * 8 * 8
    mixed = disjoint_union(util.figure_eight(), util.theta())
    assert aut_order(mixed) == 96  # 8 * 12
    assert aut_order_bruteforce(two_eights) == 128
    assert aut_order_bruteforce(mixed) == 96


def test_typed_star_is_rigid():
    d = symmetric_star("phi4", 4)
    t = TypedDiagram(d, (0, 1, 2, 3), ())
    assert aut_order(t) == 1
    assert aut_order(d) % aut_order(t) == 0


def test_relabelling_invariance():
    rng = random.Random(3)
    for d in (util.figure_eight(), util.theta(), util.dumbbell()):
        base = canonical_code(d)
        for _ in range(1000):
            r = relabel(d, util.random_relabelling(d, rng))
            assert canonical_code(r) == base


def test_nonisomorphic_pairs():
    assert not are_isomorphic(util.theta(), util.dumbbell())
    assert not are_isomorphic(util.banded_pair(), util.band_with_loops())
    assert not are_isomorphic(util.figure_eight(), util.figure_eight(special=True))
    assert not are_isomorphic(cyclic_star("a", 3), symmetric_star("a", 3))


def test_cyclic_orientation_matters():
    # cyclic 4-vertex, loops between adjacent slots vs antipodal slots:
    # distinguishable because rotations cannot reorder cyclic distance
    a = Diagram((Vertex("cyclic", "c", (0, 1, 2, 3)),), frozenset({(0, 1), (2, 3)}))
    b = Diagram((Vertex("cyclic", "c", (0, 1, 2, 3)),), frozenset({(0, 2), (1, 3)}))
    assert not are_isomorphic(a, b)
    assert aut_order(a) == 2  # rotation by two swaps the adjacent loops
    assert aut_order(b) == 4  # all rotations preserve the antipodal wiring
    assert aut_order_bruteforce(a) == 2
    assert aut_order_bruteforce(b) == 4


def test_root_marks_restrict_automorphisms():
    # theta with one marked edge: the two unmarked edges may still swap
    d = util.theta()
    marked = Diagram(d.vertices, d.pairs, frozenset({(0, 3)}))
    assert aut_order(marked) == 4
    assert aut_order_bruteforce(marked) == 4
    rooted = mark_root(d)
    assert aut_order(rooted) == 12


def test_root_flag_separates_classes():
    plain = util.figure_eight()
    rooted = mark_root(plain)
    assert not are_isomorphic(plain, rooted)


def test_oracle_agreement_random():
    rng = random.Random(17)
    for _ in range(150):
        d = util.random_diagram(rng)
        assert aut_order(d) == aut_order_bruteforce(d), d
    for _ in range(60):
        t = util.random_typed(rng)
        assert aut_order(t) == aut_order_bruteforce(t), t


def test_typed_divides_untyped():
    rng = random.Random(23)
    for _ in range(80):
        t = util.random_typed(rng)
        assert aut_order(t.base) % aut_order(t) == 0


def test_code_equality_iff_isomorphic():
    rng = random.Random(29)
    ds = [util.random_diagram(rng) for _ in range(40)]
    for a in ds:
        for b in ds:
            lhs = are_isomorphic(a, b)
            rhs = _bruteforce_iso(a, b)
            assert lhs == rhs, (a, b)


def _bruteforce_iso(a: Diagram, b: Diagram) -> bool:
    """Independent isomorphism search: try the union as two rooted halves."""
    if len(a.vertices) != len(b.vertices) or len(a.pairs) != len(b.pairs):
        return False
    import itertools
    na = len(a.vertices)
    sig = lambda v: (v.kind, v.n_in, v.colour, v.special, v.root, v.valence)
    for perm in itertools.permutations(range(na)):
        if any(sig(a.vertices[i]) != sig(b.vertices[perm[i]]) for i in range(na)):
            continue
        if _extend_slotwise(a, b, perm):
            return True
    return not na and len(a.bare_pairs) == len(b.bare_pairs)


def _extend_slotwise(a: Diagram, b: Diagram, perm) -> bool:
    import itertools

    def maps_for(v, w):
        if v.kind == "coupon":
            return [tuple(zip(v.slots, w.slots))]
        if v.kind == "cyclic":
            return [tuple(zip(v.slots, w.slots[r:] + w.slots[:r])) for r in range(v.valence)]
        return [tuple(zip(v.slots, p)) for p in itertools.permutations(w.slots)]

    if len(a.bare_pairs) != len(b.bare_pairs):
        return False

    choices = [maps_for(a.vertices[i], b.vertices[perm[i]]) for i in range(len(a.vertices))]

    def rec(i, phi):
        if i == len(choices):
            for x, y in a.pairs:
                if x in phi:  # slot pair
                    img = (min(phi[x], phi[y]), max(phi[x], phi[y]))
                    if img not in b.pairs:
                        return False
                    if ((x, y) in a.root_pairs) != (img in b.root_pairs):
                        return False
            return True
        for sm in choices[i]:
            np = dict(phi)
            np.update(sm)
            ok = True
            for x, y in sm:
                p = a.partner.get(x)
                if (p is None) != (b.partner.get(y) is None):
                    ok = False
                    break
                if p is not None and p in np and np[p] != b.partner.get(y):
                    ok = False
                    break
            if ok and rec(i + 1, np):
                return True
        return False

    return rec(0, {})


# -- factorial families ---------------------------------------------------------
# Each |Aut| is a closed form, and a search over slot orders would need about
# |Aut| steps to find it.

def _banana(k: int) -> Diagram:
    """Two k-valent symmetric vertices joined by k parallel edges."""
    return Diagram((Vertex("symmetric", "p", tuple(range(k))),
                    Vertex("symmetric", "p", tuple(range(k, 2 * k)))),
                   frozenset((i, k + i) for i in range(k)))


def _flower(k: int) -> Diagram:
    """One 2k-valent symmetric vertex carrying k loops."""
    return Diagram((Vertex("symmetric", "p", tuple(range(2 * k))),),
                   frozenset((2 * i, 2 * i + 1) for i in range(k)))


@pytest.mark.parametrize("d,expected", [
    (symmetric_star("p", 10), math.factorial(10)),
    (_banana(7), 2 * math.factorial(7)),
    (_flower(5), 2 ** 5 * math.factorial(5)),
    (symmetric_star("p", 30), math.factorial(30)),
    (_banana(12), 2 * math.factorial(12)),
    (_flower(10), 2 ** 10 * math.factorial(10)),
], ids=["star10", "banana7", "flower5", "star30", "banana12", "flower10"])
def test_factorial_families(d, expected):
    assert aut_order(d) == expected


# -- golden code bytes ------------------------------------------------------------
# The code is the least leaf form of the search, so it depends on the ordered
# cells that refinement reaches, not on the isomorphism class alone.  A change
# to refinement may keep every |Aut| and still change these bytes, which sort
# the rows of ``closures`` and ``enumerate``.

def _census(table) -> list[Diagram]:
    return [c.rep for c in enumerate_closed(table, max_degree=8)]


def _rooted_theta() -> Diagram:
    return Diagram((Vertex("symmetric", "phi3", (0, 1, 2), root=True),
                    Vertex("symmetric", "phi3", (3, 4, 5))),
                   frozenset({(0, 3), (1, 4), (2, 5)}))


GOLDEN_CODES = {
    "census-quartic-8": (lambda: _census(util.quartic_table()),
        5, "8107494cd2a970975763d4071eac203d706422ac4dc1140bae6febccef409a36"),
    "census-cubic-8": (lambda: _census(util.cubic_table()),
        3, "684ff79840c1ef57fc5f9df8cce5514fae6476088ea0811ff8ad863be42bdb04"),
    "census-mixed-8": (lambda: _census(util.mixed_table()),
        7, "8003fa809415d43936bfa99c33de6edd83c8e0197a4fcef93713544c363064bd"),
    "census-cyclic-8": (lambda: _census(util.cyclic_table()),
        4, "be6344d1b90024f58c025b1350e517f459acfb0a79e3d93637b7858938367a6b"),
    "census-coupon-8": (lambda: _census(util.coupon_table()),
        69, "03e5048f43701b29b32afc7bd145868b40e1857304cd08ad3aabcc9e041d589b"),
    "factorial-families": (lambda: [
        symmetric_star("p", 10), _banana(7), _flower(5),
        symmetric_star("p", 30), _banana(12), _flower(10)],
        6, "9313790f483233510f221fb3979673230e99bb6fd470fbf8e6dae90ac382713f"),
    "typed": (lambda: [
        TypedDiagram(coupon_star("t", 2, 2), (2, 0), (3, 1)),
        TypedDiagram(disjoint_union(cyclic_star("c", 3), bare_edge()),
                     (4, 1), (0, 3, 2))],
        2, "d31cec93b3475254ffbceda2ad0fd77e82567790777c2c1825b770e815feff09"),
    "rooted-theta": (lambda: [_rooted_theta()],
        1, "e48aa651ab68cca64508b09d0686a170cc74cd8047e8fc3e76ef0f770f1d4e0c"),
}


@pytest.mark.parametrize("name", GOLDEN_CODES)
def test_golden_code_bytes(name):
    make, count, digest = GOLDEN_CODES[name]
    h = hashlib.sha256()
    diagrams = make()
    for d in diagrams:
        code = canonical_code(d).code
        h.update(len(code).to_bytes(4, "big") + code)
    assert (len(diagrams), h.hexdigest()) == (count, digest)


# Whole search results: code bytes with |Aut|, the rows of ``closures``, and
# the automorphisms ``automorphism_generators`` returns, in list order.

def _coupon_piece() -> Diagram:
    """Two coupon (2,2) vertices and two cubic vertices joined by one edge:
    12 legs, as in the benchmark's ``closures`` job."""
    return Diagram((Vertex("coupon", "t22", (0, 1, 2, 3), n_in=2),
                    Vertex("coupon", "t22", (4, 5, 6, 7), n_in=2),
                    Vertex("symmetric", "phi3", (8, 9, 10)),
                    Vertex("symmetric", "phi3", (11, 12, 13))),
                   frozenset({(8, 11)}))


def _with_isolated() -> Diagram:
    """A theta beside three valence-0 vertices, two of them equal."""
    return Diagram(util.theta().vertices + (
        Vertex("symmetric", "z", ()), Vertex("symmetric", "z", ()),
        Vertex("cyclic", "y", ())), util.theta().pairs)


def _piece_orbits(piece: Diagram) -> list[Diagram]:
    return [closed for closed, _ in closure_orbits(
        piece, lambda: automorphism_generators(piece)[1])]


def _code_rows(diagrams):
    for d in diagrams:
        c = canonical_code(d)
        yield c.code + b"|%d" % c.aut_order


def _closure_rows(d: Diagram):
    for closed, mult, aut in closures(d):
        yield canonical_code(closed).code + repr(
            (mult, aut, sorted(closed.pairs))).encode()


def _generator_rows(diagrams):
    for d in diagrams:
        count, maps = automorphism_generators(d)
        yield repr((count, [sorted(m.items()) for m in maps])).encode()


GOLDEN_SEARCHES = {
    "coupon-piece-orbits": (lambda: _code_rows(_piece_orbits(_coupon_piece())),
        920, "cc205ed2de792161a6d7526818a9a731aad9f09795007c7cbbe153778d816e7a"),
    "closures-cyclic-10": (lambda: _closure_rows(cyclic_star("c", 10)),
        105, "f7dad3b1a19151eccf25f09b8e530ec52ad0033918a2ce07e8881e09d23092e6"),
    "generators": (lambda: _generator_rows([
        _coupon_piece(), _rooted_theta(), symmetric_star("p", 6),
        _with_isolated()]),
        4, "3a633cf6e1a006639be2d1b7be8e41ac3d06b50f2f07c539f0e6697e484fa1c9"),
}


@pytest.mark.parametrize("name", GOLDEN_SEARCHES)
def test_golden_search_bytes(name):
    make, count, digest = GOLDEN_SEARCHES[name]
    h = hashlib.sha256()
    rows = list(make())
    for row in rows:
        h.update(len(row).to_bytes(4, "big") + row)
    assert (len(rows), h.hexdigest()) == (count, digest)


def test_search_results_do_not_depend_on_call_order():
    """Searches in any order give what each gives alone: diagrams that share
    a vertex tuple, or differ from one only in marks, types or valence-0
    vertices, get their own codes and generators."""
    piece = _coupon_piece()
    first, second = _piece_orbits(piece)[:2]
    legs = piece.legs
    mixed = [first, second, mark_root(first),
             TypedDiagram(piece, legs[:5], legs[5:]), piece,
             _with_isolated(), Diagram()]

    def results(order):
        out = {}
        for i in order:
            d = mixed[i]
            gens = None if isinstance(d, TypedDiagram) else \
                automorphism_generators(d)
            out[i] = (canonical_code(d), gens)
        return out

    forwards = results(range(len(mixed)))
    order = list(range(len(mixed)))
    random.Random(5).shuffle(order)
    assert results(reversed(range(len(mixed)))) == forwards
    assert results(order) == forwards
    assert results(order + order) == forwards


# -- pairs that local invariants cannot separate ----------------------------------

def _cycles(lengths, kind: str) -> Diagram:
    """Disjoint cycles of 2-valent vertices of one kind and colour."""
    verts, pairs, nid = [], [], 0
    for n in lengths:
        base = nid
        for _ in range(n):
            verts.append(Vertex(kind, "a", (nid, nid + 1)))
            nid += 2
        pairs += [(base + 2 * i + 1, base + 2 * ((i + 1) % n)) for i in range(n)]
    return Diagram(tuple(verts), frozenset(pairs))


def _cubic(edges) -> Diagram:
    """A simple cubic graph on symmetric vertices, from its edge list."""
    nv = 1 + max(max(e) for e in edges)
    used = [0] * nv
    pairs = []
    for a, b in edges:
        pairs.append((3 * a + used[a], 3 * b + used[b]))
        used[a] += 1
        used[b] += 1
    verts = tuple(Vertex("symmetric", "a", (3 * i, 3 * i + 1, 3 * i + 2))
                  for i in range(nv))
    return Diagram(verts, frozenset(pairs))


@pytest.mark.parametrize("kind", ["symmetric", "cyclic"])
def test_hexagon_is_not_two_triangles(kind):
    hexagon, triangles = _cycles([6], kind), _cycles([3, 3], kind)
    assert not are_isomorphic(hexagon, triangles)
    # A 2-valent cyclic vertex may still swap its slots by a rotation.
    assert aut_order(hexagon) == aut_order_bruteforce(hexagon) == 12
    assert aut_order(triangles) == aut_order_bruteforce(triangles) == 72


def test_prism_is_not_k33():
    k33 = _cubic([(a, b) for a in range(3) for b in range(3, 6)])
    prism = _cubic([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                    (0, 3), (1, 4), (2, 5)])
    assert not are_isomorphic(k33, prism)
    assert aut_order(k33) == 72
    assert aut_order(prism) == 12

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from fdcalc.diagram import (
    Diagram, DiagramError, EMPTY, Vertex, bare_edge, connected_components,
    cyclic_star, degree, disjoint_union, mark_root, star_for, symmetric_star,
)
from fdcalc.dsl import format_table
from fdcalc.generate import (
    MAX_STAR_MULTISETS, DiagramClass, _star_multisets, closure_orbits,
    enumerate_closed, leg_nodes, multigraphs, push_forward,
)
from fdcalc.iso import are_isomorphic, canonical_code
from util import (
    banded_pair, band_with_loops, coupon_table, cubic_table, cyclic_table,
    dumbbell, figure_eight, mixed_table, quartic_table, run_python, theta,
)


def naive_enumerate(table, max_degree, root=None):
    """Independent oracle: raw perfect matchings, no multigraph quotient."""
    piece = EMPTY if root is None else mark_root(root)
    budget = max_degree - degree(piece)
    colours = sorted(table.ordinary(), key=lambda e: e.name)

    def multisets(i, left):
        if i == len(colours):
            yield []
            return
        e = colours[i]
        for count in range(left // e.valence + 1):
            for rest in multisets(i + 1, left - count * e.valence):
                yield [e] * count + rest

    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for k, second in enumerate(rest):
            for more in pairings(rest[:k] + rest[k + 1:]):
                yield [(first, second)] + more

    found = {}
    for stars in multisets(0, budget):
        base = piece
        for entry in stars:
            base = disjoint_union(base, star_for(entry))
        legs = list(base.legs)
        if len(legs) % 2:
            continue
        for extra in pairings(legs):
            d = Diagram(base.vertices, base.pairs | set(extra), base.root_pairs)
            code = canonical_code(d)
            found[code.code] = code.aut_order
    return found


def _enumerate_by_candidates(table, max_degree, root=None, connected=False,
                             reduced=False):
    """Reference census without the orbit quotient: every leg multigraph is
    instantiated, filtered and canonicalised, and the first multigraph of
    each code is kept.  The multigraph walk is spelled out here as nested
    (loops, multiplicities) tuples per node."""
    def multigraphs(caps):
        n = len(caps)

        def rec(i, rem):
            if i == n:
                yield ()
                return
            for loops in range(rem[i] // 2 + 1):
                for combo in distribute(rem[i] - 2 * loops, rem[i + 1:]):
                    nxt = rem[:i + 1] + tuple(
                        r - m for r, m in zip(rem[i + 1:], combo))
                    for tail in rec(i + 1, nxt):
                        yield ((loops, combo),) + tail

        return rec(0, caps)

    def distribute(total, limits):
        if not limits:
            if total == 0:
                yield ()
            return
        for m in range(min(total, limits[0]) + 1):
            for rest in distribute(total - m, limits[1:]):
                yield (m,) + rest

    def instantiate(nodes, graph):
        stacks = [list(ns) for ns in nodes]
        pairs = set()
        for i, (loops, combo) in enumerate(graph):
            for _ in range(loops):
                pairs.add((stacks[i].pop(0), stacks[i].pop(0)))
            for dj, m in enumerate(combo):
                for _ in range(m):
                    pairs.add((stacks[i].pop(0), stacks[i + 1 + dj].pop(0)))
        return pairs

    piece = EMPTY if root is None else mark_root(root)
    found = {}
    for stars in _star_multisets(table.ordinary(),
                                 max_degree - degree(piece)):
        base = piece
        for entry, count in stars:
            for _ in range(count):
                base = disjoint_union(base, star_for(entry))
        if len(base.legs) % 2:
            continue
        nodes = leg_nodes(base)
        for graph in multigraphs(tuple(len(ns) for ns in nodes)):
            d = Diagram(base.vertices, base.pairs | instantiate(nodes, graph),
                        base.root_pairs)
            comps = connected_components(d)
            if connected and len(comps) != 1:
                continue
            if reduced and not all(any(v.root for v in c.vertices)
                                   for c in comps):
                continue
            code = canonical_code(d)
            if code.code not in found:
                found[code.code] = DiagramClass(d, code.aut_order, degree(d),
                                                code.code)
    return sorted(found.values(), key=lambda c: (c.degree, c.key))


def groupoid_sum(classes, deg):
    return sum((Fraction(1, c.aut) for c in classes if c.degree == deg),
               Fraction(0))


def test_quartic_closed_classes():
    out = enumerate_closed(quartic_table(), max_degree=8)
    assert [c.degree for c in out] == [0, 4, 8, 8, 8]
    assert out[0].rep == EMPTY and out[0].aut == 1
    assert are_isomorphic(out[1].rep, figure_eight())
    assert out[1].aut == 8
    reps = {c.aut: c.rep for c in out if c.degree == 8}
    assert set(reps) == {128, 48, 16}
    assert are_isomorphic(reps[48], banded_pair())
    assert are_isomorphic(reps[16], band_with_loops())
    assert are_isomorphic(reps[128],
                          disjoint_union(figure_eight(), figure_eight()))
    assert groupoid_sum(out, 4) == Fraction(1, 8)
    assert groupoid_sum(out, 8) == Fraction(35, 384)


def test_quartic_connected_classes():
    out = enumerate_closed(quartic_table(), max_degree=8, connected=True)
    assert [c.degree for c in out] == [4, 8, 8]
    assert groupoid_sum(out, 4) == Fraction(1, 8)
    assert groupoid_sum(out, 8) == Fraction(1, 12)


def test_cubic_connected_classes():
    out = enumerate_closed(cubic_table(), max_degree=6, connected=True)
    assert [c.degree for c in out] == [6, 6]
    auts = {c.aut: c.rep for c in out}
    assert set(auts) == {12, 8}
    assert are_isomorphic(auts[12], theta())
    assert are_isomorphic(auts[8], dumbbell())
    assert groupoid_sum(out, 6) == Fraction(5, 24)


def test_cyclic_connected_classes():
    # Two cyclic vertices admit two distinct thetas: the three bridges can
    # match the cyclic orders or oppose them, and no reflections exist to
    # identify the two.  Orbit sizes 9 + 3 + 3 cover all 15 matchings.
    out = enumerate_closed(cyclic_table(), max_degree=6, connected=True)
    assert [c.degree for c in out] == [6, 6, 6]
    assert sorted(c.aut for c in out) == [2, 6, 6]
    thetas = [c.rep for c in out if c.aut == 6]
    assert not are_isomorphic(*thetas)


def test_coupon_connected_classes():
    out = enumerate_closed(coupon_table(), max_degree=4, connected=True)
    assert [c.degree for c in out] == [4, 4, 4]
    assert all(c.aut == 1 for c in out)


def test_empty_diagram_only_without_colours_or_root():
    out = enumerate_closed(quartic_table(), max_degree=3)
    assert len(out) == 1 and out[0].rep == EMPTY
    out = enumerate_closed(quartic_table(), max_degree=8, reduced=True)
    assert len(out) == 1 and out[0].rep == EMPTY
    assert enumerate_closed(quartic_table(), max_degree=8, reduced=True,
                            connected=True) == []


def test_rooted_reduced_classes():
    root = symmetric_star("PHI4", 4, special=True)
    out = enumerate_closed(quartic_table(), max_degree=4, root=root,
                           reduced=True)
    assert [c.degree for c in out] == [0, 4, 4]
    assert groupoid_sum(out, 0) == Fraction(1, 8)
    assert groupoid_sum(out, 4) == Fraction(1, 6)
    assert all(any(v.root for v in c.rep.vertices) for c in out)


def test_rooted_full_classes():
    root = symmetric_star("PHI4", 4, special=True)
    out = enumerate_closed(quartic_table(), max_degree=4, root=root)
    assert groupoid_sum(out, 0) == Fraction(1, 8)
    assert groupoid_sum(out, 4) == Fraction(35, 192)


def test_degree_guard():
    with pytest.raises(DiagramError):
        enumerate_closed(quartic_table(), max_degree=17)
    with pytest.raises(DiagramError):
        enumerate_closed(quartic_table(), max_degree=-1)


def six_special_psi3_stars() -> Diagram:
    """18 legs of degree 0: six special cyclic stars, every leg its own
    multigraph node."""
    out = EMPTY
    for _ in range(6):
        out = disjoint_union(out, cyclic_star("PSI3", 3, special=True))
    return out


def test_rooted_census_refuses_too_many_legs():
    # Without the bound the walk would keep up to 17!! multigraphs.  In a
    # child interpreter, so that a hang fails at run_python's timeout.
    done = run_python("-c", """
import sys, time
from fdcalc import (DiagramError, cyclic_star, disjoint_union,
                    enumerate_closed, parse_table)
root = cyclic_star("PSI3", 3, special=True)
for _ in range(5):
    root = disjoint_union(root, cyclic_star("PSI3", 3, special=True))
start = time.perf_counter()
try:
    enumerate_closed(parse_table(sys.argv[1]), max_degree=0, root=root)
except DiagramError as exc:
    print(exc)
print(time.perf_counter() - start < 1)
""", format_table(cyclic_table()))
    assert (done.returncode, done.stdout) == (
        0, "closures take at most 16 legs, not 18\nTrue\n")


def test_push_forward_forms_no_closure():
    # The orbit count of the six-star root's 17!! matchings needs no walk,
    # so neither the 16-leg bound nor the degree bound stands in its way.
    assert list(push_forward(cyclic_table(), max_degree=0,
                             root=six_special_psi3_stars())) == [
        ((), Fraction(17 * 15 * 13 * 11 * 9 * 7 * 5 * 3,
                      factorial(6) * 3 ** 6))]
    assert len(list(push_forward(quartic_table(), max_degree=40))) == 11


def test_push_forward_bounds_its_walk():
    # An odd root on even stars has no term at all; the walk still ends.
    with pytest.raises(DiagramError, match=f"{MAX_STAR_MULTISETS} star"):
        list(push_forward(quartic_table(), max_degree=10 ** 6,
                          root=symmetric_star("PHI3", 3, special=True)))
    with pytest.raises(DiagramError, match="must be nonnegative"):
        list(push_forward(quartic_table(), max_degree=-1))


def test_rooted_census_refuses_an_eighteen_leg_special_star():
    with pytest.raises(DiagramError, match="at most 16 legs, not 18"):
        enumerate_closed(quartic_table(), max_degree=0,
                         root=symmetric_star("PHI4", 18, special=True))


def test_closure_orbits_refuse_a_bare_edge():
    with pytest.raises(DiagramError, match="circle carrying no vertex"):
        list(closure_orbits(disjoint_union(symmetric_star("x", 2),
                                           bare_edge())))


@pytest.mark.parametrize("piece", [
    symmetric_star("x", 3),
    # The odd count is read first: no error for 17 legs or a bare edge.
    symmetric_star("x", 17),
    disjoint_union(symmetric_star("x", 3), bare_edge()),
], ids=["3-star", "17-star", "3-star-and-bare-edge"])
def test_closure_orbits_yield_nothing_on_odd_legs(piece):
    assert list(closure_orbits(piece)) == []


def multigraphs_by_matchings(caps):
    """Independent oracle: every perfect matching of the leg tokens, each
    as its sorted edge codes, duplicates removed, in descending order.

    A matching is listed as the partner index that the lowest unmatched leg
    takes among the legs left, one ``itertools.product`` coordinate per
    pair.
    """
    n = len(caps)
    owner = [a for a, c in enumerate(caps) for _ in range(c)]
    graphs = set()
    for choice in itertools.product(*map(range, range(len(owner) - 1, 0, -2))):
        left = list(range(len(owner)))
        codes = []
        for k in choice:
            a = owner[left.pop(0)]
            b = owner[left.pop(k)]
            codes.append(min(a, b) * n + max(a, b))
        graphs.add(tuple(sorted(codes)))
    return sorted(graphs, reverse=True)


def _capacity_vectors():
    """Random capacities (1-6 nodes, 1-4 legs each, even total), then every
    all-singleton vector up to 12 nodes.  Totals stay at most 12, since the
    oracle lists all (total - 1)!! matchings."""
    rng = random.Random(8)
    out = []
    while len(out) < 60:
        caps = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        if sum(caps) % 2 == 0 and sum(caps) <= 12:
            out.append(caps)
    return out + [(1,) * k for k in range(0, 13, 2)]


@pytest.mark.parametrize("caps", _capacity_vectors(), ids=str)
def test_multigraph_walk_matches_matching_oracle(caps):
    assert list(multigraphs(caps)) == multigraphs_by_matchings(caps)


def test_odd_multigraph_walk_ends_at_once():
    # 21 one-leg nodes: without a parity test the walk would try every
    # pairing of the first 20 before finding the stranded leg.  In a child
    # interpreter, so that a slow walk fails at run_python's timeout.
    done = run_python("-c", "from fdcalc.generate import multigraphs; "
                            "print(list(multigraphs((1,) * 21)))")
    assert (done.returncode, done.stdout) == (0, "[]\n")


@pytest.mark.parametrize("table,maxdeg,root", [
    (quartic_table(), 8, None),
    (cubic_table(), 6, None),
    (mixed_table(), 7, None),
    (cyclic_table(), 6, None),
    (coupon_table(), 4, None),
    (quartic_table(), 4, symmetric_star("PHI4", 4, special=True)),
    (cubic_table(), 6, symmetric_star("PHI3", 3, special=True)),
])
def test_matches_naive_oracle(table, maxdeg, root):
    fast = enumerate_closed(table, max_degree=maxdeg, root=root)
    slow = naive_enumerate(table, maxdeg, root)
    assert {c.key: c.aut for c in fast} == slow


def test_filters_are_subsets():
    table = mixed_table()
    full = {c.key for c in enumerate_closed(table, max_degree=7)}
    conn = {c.key for c in enumerate_closed(table, max_degree=7, connected=True)}
    assert conn < full


def symmetric_power_aut(d: Diagram) -> int:
    """|Aut| predicted from the connected pieces of ``d``.

    A disjoint union is a multiset of connected diagrams, so its
    automorphisms are the automorphisms of the pieces extended by the
    permutations of equal pieces: |Aut| = prod over distinct components c of
    multiplicity! * |Aut c|^multiplicity.
    """
    mult: dict[bytes, tuple[int, int]] = {}
    for comp in connected_components(d):
        code = canonical_code(comp)
        n, aut = mult.get(code.code, (0, code.aut_order))
        mult[code.code] = (n + 1, aut)
    out = 1
    for n, aut in mult.values():
        out *= factorial(n) * aut ** n
    return out


def symmetric_power_check(classes: list[DiagramClass]) -> bool:
    """Does every class's |Aut| factor through its connected components?"""
    return all(c.aut == symmetric_power_aut(c.rep) for c in classes)


def test_symmetric_power_aut_on_stock_shapes():
    two_eights = disjoint_union(figure_eight(), figure_eight())
    assert symmetric_power_aut(two_eights) == 128  # 2! * 8^2
    assert symmetric_power_aut(disjoint_union(figure_eight(), theta())) == 96  # 8 * 12
    assert symmetric_power_aut(EMPTY) == 1


def test_symmetric_power_check_full_enumerations():
    for table in (quartic_table(), cubic_table(), mixed_table()):
        classes = enumerate_closed(table, max_degree=8)
        assert symmetric_power_check(classes)


_TABLES = {"quartic": quartic_table(), "cubic": cubic_table(),
           "mixed": mixed_table(), "cyclic": cyclic_table(),
           "coupon": coupon_table()}
_ROOTS = {"PHI4": symmetric_star("PHI4", 4, special=True),
          "PHI3": symmetric_star("PHI3", 3, special=True),
          "PSI3": cyclic_star("PSI3", 3, special=True),
          # A self-loop leaves the root's symmetric bucket half matched.
          "looped": Diagram((Vertex("symmetric", "PHI4", (0, 1, 2, 3),
                                    special=True),), frozenset({(0, 1)}))}
_CENSUS_CASES = [
    ("quartic", 8, None, ""), ("cubic", 6, None, ""), ("mixed", 7, None, ""),
    ("cyclic", 6, None, ""), ("coupon", 8, None, ""),
    ("quartic", 8, "PHI4", ""), ("cubic", 9, "PHI3", ""),
    ("quartic", 8, "looped", ""), ("cyclic", 9, "PSI3", ""),
]
_CENSUS_CASES += [
    (t, deg, root, flag) for t, deg, root, _ in _CENSUS_CASES[:5]
    for flag in ("connected", "reduced")
] + [
    (t, deg, root, "reduced") for t, deg, root, _ in _CENSUS_CASES[5:8]
] + [("cyclic", 12, None, "connected")]


@pytest.mark.parametrize(
    "table,maxdeg,root,flag", _CENSUS_CASES,
    ids=["-".join(map(str, filter(None, c))) for c in _CENSUS_CASES])
def test_orbit_census_matches_per_candidate_reference(table, maxdeg, root,
                                                      flag):
    # Same representatives, |Aut|, degrees, codes and order: one orbit of the
    # stars' automorphisms is one class, and its first multigraph in walk
    # order is the representative the per-candidate census keeps.
    table, root = _TABLES[table], _ROOTS.get(root)
    flags = {flag: True} if flag else {}
    got = enumerate_closed(table, max_degree=maxdeg, root=root, **flags)
    assert got == _enumerate_by_candidates(table, maxdeg, root, **flags)


@pytest.mark.parametrize("rooted", [False, True], ids=["12", "rooted-9"])
@pytest.mark.parametrize("table", _TABLES)
def test_census_orbits_obey_orbit_stabiliser(table, rooted):
    """|Aut(closure)| * (pairings in its orbit) == |Aut(base)| on every
    census base: the stars of each star multiset at degree 12, or at degree 9
    with the table's first special colour as root.

    A census base has no edges, so an automorphism of a closure is one of
    the base that fixes its pairing, and the orbit-stabiliser theorem gives
    the identity.  It holds for the census only.  A piece with internal
    edges may have closures with more automorphisms than that: an unmarked
    6-star with one loop has |Aut| 48 and one orbit of 3 pairings, and its
    closure, three loops on one vertex, has |Aut| 48 too, not 16.
    """
    table = _TABLES[table]
    piece, budget = EMPTY, 12
    if rooted:
        special = next(e for e in table if e.special)
        piece, budget = mark_root(star_for(special)), 9
    for stars in _star_multisets(table.ordinary(), budget):
        base = piece
        for entry, count in stars:
            for _ in range(count):
                base = disjoint_union(base, star_for(entry))
        if len(base.legs) % 2:
            continue
        aut = canonical_code(base).aut_order
        for closed, pairings in closure_orbits(base):
            assert canonical_code(closed).aut_order * pairings == aut

from fractions import Fraction as F

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcalc.diagram import (
    Diagram, DiagramError, Vertex, bare_edge, disjoint_union, star_for,
    symmetric_star,
)
from fdcalc.generate import MAX_STAR_MULTISETS, enumerate_closed
from fdcalc.series import (
    MultiSeries, VariableKey, diagram_monomial, free_energy_series,
    groupoid_integral, partition_series, rooted_series, variable_for,
)
from util import (
    coupon_table, cubic_table, cyclic_table, low_valence_table, mixed_table,
    quartic_table,
)

X = VariableKey("phi4", 4)
G = VariableKey("phi3", 3)


def var(key, deg):
    return MultiSeries.variable(key, deg)


def series(deg, **powers_to_coeff):
    """Series in X and G from {"x2": c} style keys, for terse expectations."""
    coeffs = {}
    for spec, c in powers_to_coeff.items():
        mono = []
        for name, key in (("x", X), ("g", G)):
            if name in spec:
                tail = spec.split(name, 1)[1]
                e = int(tail[0]) if tail[:1].isdigit() else 1
                mono.append((key, e))
        coeffs[tuple(sorted(mono))] = F(c)
    return MultiSeries(coeffs, deg)


def test_weighted_truncation():
    x = var(X, 12)
    assert (x ** 3).coeffs
    assert not (x ** 4).coeffs
    assert x.valuation == 4
    assert MultiSeries.zero(12).valuation == 13


def test_ring_arithmetic():
    x = var(X, 12)
    assert (1 + x) * (1 - x) == 1 - x ** 2
    assert (1 + x) - (1 + x) == MultiSeries.zero(12)
    assert x / 2 + x / 2 == x
    assert (2 * x) * F(1, 2) == x
    s = 1 + x / 8
    assert s * s.reciprocal() == MultiSeries.constant(1, 12)
    assert s ** -2 == (s * s).reciprocal()


def test_mixed_truncation_takes_minimum():
    a = var(X, 12)
    b = MultiSeries.constant(1, 8)
    assert (a + b).max_degree == 8
    assert (a * b).max_degree == 8


def test_exp_log_roundtrip():
    u = VariableKey("u", 1)
    v = VariableKey("v", 2)
    s = var(u, 9) + var(v, 9) * F(3, 5) + var(u, 9) ** 2 * 7
    assert s.exp().log() == s
    assert (1 + s).log().exp() == 1 + s
    t = s.exp()
    assert t.coefficient(()) == 1
    assert t.coefficient(((u, 1),)) == 1
    assert t.coefficient(((u, 2),)) == F(15, 2)  # 7 + 1/2


KEYS = [VariableKey("u", 1), VariableKey("v", 2), VariableKey("w", 3)]


@st.composite
def series_without_constant(draw) -> MultiSeries:
    max_degree = draw(st.integers(0, 7))
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        mono = tuple(sorted(
            (k, e) for k in KEYS if (e := draw(st.integers(0, 3)))))
        if mono:
            coeffs[mono] = F(draw(st.integers(-5, 5)), draw(st.integers(1, 6)))
    return MultiSeries(coeffs, max_degree)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series_without_constant())
def test_log_inverts_exp(s):
    assert s.exp().log() == s


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series_without_constant(),
       st.fractions(-9, 9, max_denominator=9).filter(bool))
def test_reciprocal_inverts(t, c):
    s = t + c
    assert s * s.reciprocal() == MultiSeries.constant(1, s.max_degree)


def test_series_text_is_pinned():
    u, v = VariableKey("u", 1), VariableKey("v", 2)
    s = MultiSeries({(): F(-1, 3), ((u, 2), (v, 1)): 4, ((v, 1),): F(1, 2)}, 4)
    assert str(s) == "-1/3 + 1/2*v + 4*u^2*v (+O^5)"
    assert str(MultiSeries.zero(5)) == "0 (+O^6)"
    table = mixed_table()
    diff = partition_series(table, 10) - free_energy_series(table, 10)
    assert str(diff) == "1 + 1/128*phi4^2 + 5/192*phi3^2*phi4 (+O^11)"


def test_domain_errors():
    x = var(X, 8)
    with pytest.raises(ValueError):
        (1 + x).exp()
    with pytest.raises(ValueError):
        x.log()
    with pytest.raises(ValueError):
        x.reciprocal()
    with pytest.raises(ValueError):
        x.truncate(12)
    with pytest.raises(ValueError):
        VariableKey("bad", 0)


def test_derivative():
    s = series(12, x2=F(3), x1=F(5), **{"": F(7)})
    d = s.derivative(X)
    assert d.max_degree == 8
    assert d.coefficient(()) == 5
    assert d.coefficient(((X, 1),)) == 6
    # a second derivative costs another grade of precision
    assert d.derivative(X) == MultiSeries.constant(6, 4)


def test_diagram_monomial():
    table = mixed_table()
    d = disjoint_union(symmetric_star("phi3", 3), symmetric_star("phi4", 4))
    d = disjoint_union(d, symmetric_star("PHI4", 4, special=True))
    assert diagram_monomial(d, table) == ((G, 1), (X, 1))
    assert variable_for(table, "phi4") == X


# Expected coefficients below come from Gaussian moments: a closed-diagram
# sum over k stars of valence n weighs (nk-1)!! / (k! * n!^k).

def test_quartic_partition_series():
    z = partition_series(quartic_table(), 12)
    assert z == series(12, **{"": 1, "x1": F(1, 8), "x2": F(35, 384),
                              "x3": F(385, 3072)})


def test_cubic_partition_series():
    z = partition_series(cubic_table(), 12)
    assert z == series(12, **{"": 1, "g2": F(5, 24), "g4": F(385, 1152)})


def test_mixed_partition_series():
    z = partition_series(mixed_table(), 12)
    assert z == series(12, **{"": 1,
                              "g2": F(5, 24), "g4": F(385, 1152),
                              "x1": F(1, 8), "x2": F(35, 384),
                              "x3": F(385, 3072),
                              "g2x1": F(35, 64)})


def test_free_energy_series():
    f = free_energy_series(quartic_table(), 12)
    assert f == series(12, x1=F(1, 8), x2=F(1, 12), x3=F(11, 96))
    g = free_energy_series(cubic_table(), 12)
    assert g == series(12, g2=F(5, 24), g4=F(5, 16))


def test_exp_of_free_energy_is_partition():
    for table in (quartic_table(), cubic_table(), mixed_table()):
        assert free_energy_series(table, 12).exp() == partition_series(table, 12)
        assert partition_series(table, 12).log() == free_energy_series(table, 12)


def test_first_derivative_marks_one_star():
    table = quartic_table()
    root = symmetric_star("PHI4", 4, special=True)
    dz = partition_series(table, 12).derivative(X)
    assert dz == rooted_series(table, root, 8)
    assert dz.coefficient(()) == F(1, 8)
    assert dz.coefficient(((X, 1),)) == F(35, 192)


def test_second_derivative_needs_factorial():
    table = quartic_table()
    star = symmetric_star("PHI4", 4, special=True)
    two = disjoint_union(star, star)
    ddz = partition_series(table, 12).derivative(X).derivative(X)
    assert ddz == 2 * rooted_series(table, two, 4)
    assert ddz.coefficient(()) == F(35, 192)


def test_cross_derivative_mixed():
    table = mixed_table()
    root = disjoint_union(symmetric_star("PHI3", 3, special=True),
                          symmetric_star("PHI4", 4, special=True))
    z = partition_series(table, 12)
    dd = z.derivative(G).derivative(X)
    assert dd == rooted_series(table, root, 5)
    assert dd.coefficient(()) == 0
    assert dd.coefficient(((G, 1),)) == F(35, 32)


def test_reduced_series_factors_off_partition():
    table = quartic_table()
    root = symmetric_star("PHI4", 4, special=True)
    red = rooted_series(table, root, 8, reduced=True)
    assert red.coefficient(()) == F(1, 8)
    assert red.coefficient(((X, 1),)) == F(1, 6)
    assert red * partition_series(table, 8) == rooted_series(table, root, 8)


def test_weighted_groupoid_integral():
    table = quartic_table()
    classes = enumerate_closed(table, max_degree=8)
    # weight by vertex count: picks x*d/dx out of the counting integral
    weighted = groupoid_integral(
        classes, table, 8,
        weight=lambda d: sum(1 for v in d.vertices if not v.special))
    z12 = partition_series(table, 12)
    x = MultiSeries.variable(X, 12)
    assert weighted == x * z12.derivative(X)


def orbit_count_z(table, max_degree):
    """Z from the orbit count alone, enumerating nothing.

    The closed diagrams on n_c stars of each colour c are the orbits of the
    stars' symmetry group on the (L-1)!! perfect matchings of their L legs,
    and the groupoid sum of an action is the set size over the group order.
    So the coefficient of prod x_c^{n_c} is (L-1)!! / prod n_c! |Aut c|^{n_c},
    with |Aut c| = k! for a symmetric, k for a cyclic and 1 for a coupon
    star of valence k (Cvitanovic, Lautrup & Pearson, Phys. Rev. D 18, 1978).
    """
    aut = {"symmetric": math.factorial, "cyclic": lambda k: k,
           "coupon": lambda k: 1}
    entries = sorted(table.ordinary(), key=lambda e: e.name)
    coeffs = {}
    for counts in itertools.product(
            *(range(max_degree // e.valence + 1) for e in entries)):
        legs = sum(n * e.valence for n, e in zip(counts, entries))
        if legs > max_degree or legs % 2:
            continue
        size = math.prod(range(legs - 1, 0, -2))
        order = math.prod(math.factorial(n) * aut[e.kind](e.valence) ** n
                          for n, e in zip(counts, entries))
        mono = tuple((VariableKey(e.name, e.valence), n)
                     for n, e in zip(counts, entries) if n)
        coeffs[mono] = F(size, order)
    return MultiSeries(coeffs, max_degree)


def census_series(table, max_degree, **kwargs):
    """The census side: the groupoid integral over enumerated classes."""
    classes = enumerate_closed(table, max_degree=max_degree, **kwargs)
    return groupoid_integral(classes, table, max_degree)


@pytest.mark.parametrize("table,max_degree", [
    (quartic_table(), 16), (cubic_table(), 12), (mixed_table(), 14),
    (cyclic_table(), 12), (coupon_table(), 10),
], ids=["quartic16", "cubic12", "mixed14", "cyclic12", "coupon10"])
def test_census_series_match_orbit_count(table, max_degree):
    z = orbit_count_z(table, max_degree)
    assert census_series(table, max_degree) == z
    assert census_series(table, max_degree, connected=True) == z.log()
    assert partition_series(table, max_degree) == z
    assert free_energy_series(table, max_degree) == z.log()


def test_push_forward_keeps_every_census_degree():
    # Colours of valence 1-4 walk more than MAX_STAR_MULTISETS star
    # multisets at degree 11, which the census accepts; so do the series.
    table, degree = low_valence_table(), 11
    walked = sum(1 for counts in itertools.product(
        *(range(degree // k + 1) for k in (1, 2, 3, 4)))
        if sum(k * n for k, n in zip((1, 2, 3, 4), counts)) <= degree)
    assert walked > MAX_STAR_MULTISETS
    z = census_series(table, degree)
    assert z == orbit_count_z(table, degree)
    assert partition_series(table, degree) == z
    assert free_energy_series(table, degree) == census_series(
        table, degree, connected=True)
    root = star_for(table["S2"])
    assert rooted_series(table, root, degree) == census_series(
        table, degree, root=root)


def _coupon_with_edge(colour, special):
    return Diagram((Vertex("coupon", colour, (0, 1, 2, 3), n_in=2,
                           special=special),), frozenset({(0, 2)}))


def _rooted_cases():
    """Every ordinary colour of the five tables as an ordinary and as a
    special root at degree 8, and roots with internal edges at 10-11."""
    for name, table in (("quartic", quartic_table()),
                        ("cubic", cubic_table()), ("mixed", mixed_table()),
                        ("cyclic", cyclic_table()),
                        ("coupon", coupon_table())):
        for entry in table.ordinary():
            for e in (entry, table[entry.bold]):
                yield pytest.param(table, star_for(e), 8,
                                   id=f"{name}-{e.name}")
    loop = Diagram((Vertex("symmetric", "PHI4", (0, 1, 2, 3), special=True),),
                   frozenset({(0, 1)}))
    yield pytest.param(quartic_table(), loop, 10, id="quartic-PHI4-loop")
    yield pytest.param(cubic_table(), Diagram(
        (Vertex("symmetric", "PHI3", (0, 1, 2), special=True),),
        frozenset({(0, 1)})), 11, id="cubic-PHI3-loop")
    yield pytest.param(mixed_table(), Diagram(
        (Vertex("symmetric", "phi3", (0, 1, 2)),
         Vertex("symmetric", "phi4", (3, 4, 5, 6))),
        frozenset({(0, 3)})), 11, id="mixed-phi3-phi4-edge")
    yield pytest.param(cyclic_table(), Diagram(
        (Vertex("cyclic", "PSI3", (0, 1, 2), special=True),
         Vertex("cyclic", "PSI3", (3, 4, 5), special=True)),
        frozenset({(0, 3)})), 10, id="cyclic-PSI3-PSI3-edge")
    yield pytest.param(coupon_table(), _coupon_with_edge("T22", True), 11,
                       id="coupon-T22-edge")
    yield pytest.param(coupon_table(), _coupon_with_edge("t22", False), 10,
                       id="coupon-t22-edge")


@pytest.mark.parametrize("table,root,max_degree", _rooted_cases())
def test_rooted_push_forward_matches_census(table, root, max_degree):
    full = census_series(table, max_degree, root=root)
    assert full.coeffs
    assert rooted_series(table, root, max_degree) == full
    assert rooted_series(table, root, max_degree, reduced=True) == (
        census_series(table, max_degree, root=root, reduced=True))


def test_rooted_series_keep_the_census_refusal_of_a_bare_edge():
    root = disjoint_union(symmetric_star("PHI4", 4, special=True), bare_edge())
    with pytest.raises(DiagramError, match="roots with bare edges"):
        rooted_series(quartic_table(), root, 8)
    with pytest.raises(DiagramError, match="roots with bare edges"):
        enumerate_closed(quartic_table(), max_degree=8, root=root)

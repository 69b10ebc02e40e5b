import io
import itertools
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import numpy as np
import pytest

from fdcalc.algebra import (
    SYMMETRY_TOL, AlgebraSpec, amplitude, expectation_value,
    interaction_terms,
)
from fdcalc.cli import main
from fdcalc.colours import standard_table
from fdcalc.diagram import (EMPTY, coupon_star, cyclic_star, symmetric_star)
from fdcalc.gaussian import (
    FrtReport, GaussianError, GaussianSpec, average_with_potential,
    frt_check, poly_average, quadrature_average, taylor_stars, wick_moment,
)
from fdcalc.poly import Poly
from fdcalc.prop import edge_pairings
from fdcalc.series import partition_series, variable_for
from bruteforce import pairing_moment, poly_moment, potential_coefficient
from util import mixed_table, quartic_table

PD2 = [[F(2), F(1)], [F(1), F(1)]]


def ones_algebra(table, dim=1, pairing=None):
    if pairing is None:
        pairing = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    tensors = {e.name: np.full((dim,) * e.valence, F(1), dtype=object)
               for e in table.ordinary()}
    return AlgebraSpec(dim, pairing, table, tensors)


def sym_tensor(rng, dim, n):
    raw = np.empty((dim,) * n, dtype=object)
    for idx in np.ndindex(*raw.shape):
        raw[idx] = F(rng.randint(-2, 3))
    return sum(raw.transpose(p) for p in itertools.permutations(range(n)))


def cyc_tensor(rng, dim, n):
    raw = np.empty((dim,) * n, dtype=object)
    for idx in np.ndindex(*raw.shape):
        raw[idx] = F(rng.randint(-2, 3))
    return sum(raw.transpose(tuple(range(r, n)) + tuple(range(r)))
               for r in range(n))


def random_pd(rng, dim):
    a = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    m = [[F(sum(a[i][k] * a[j][k] for k in range(dim)) + (i == j))
          for j in range(dim)] for i in range(dim)]
    return m


def random_poly(rng, dim, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(dim)] += 1
        terms[tuple(e)] = F(rng.randint(-3, 3))
    return Poly(dim, terms)


# -- the weight itself ----------------------------------------------------------

def test_pairing_validation():
    with pytest.raises(GaussianError):
        GaussianSpec(2, [[F(1), F(2)], [F(2), F(1)]])  # indefinite
    with pytest.raises(GaussianError):
        GaussianSpec(2, [[F(1), F(1)], [F(0), F(1)]])  # not symmetric
    with pytest.raises(GaussianError):
        GaussianSpec(1, [[F(0)]])
    with pytest.raises(GaussianError):
        GaussianSpec(2, [[F(1)]])
    assert GaussianSpec(2, PD2).exact
    assert not GaussianSpec(2, [[2.0, 1.0], [1.0, 1.0]]).exact


def test_pairing_symmetry_tolerance():
    # Floats are held to the tolerance AlgebraSpec holds its pairing to,
    # rationals to exact equality.
    near = 1 + SYMMETRY_TOL / 10
    assert not GaussianSpec(2, [[2.0, 1.0], [near, 1.0]]).exact
    with pytest.raises(GaussianError, match="symmetric"):
        GaussianSpec(2, [[2.0, 1.0], [1 + SYMMETRY_TOL * 10, 1.0]])
    with pytest.raises(GaussianError, match="symmetric"):
        GaussianSpec(2, [[F(2), F(1)], [F(1) + F(1, 10 ** 30), F(1)]])
    with pytest.raises(GaussianError, match="symmetric"):
        GaussianSpec(2, [[2.0, 1.0], [float("nan"), 1.0]])


@pytest.mark.parametrize("pairing", [
    [[0, 1], [1, 0]],  # invertible, but only after a row exchange
    [[1, 1], [1, 1]],  # singular
    [[1, 0, 2], [0, 1, 0], [2, 0, 1]],  # leading minors 1, 1, -3
], ids=["swap", "singular", "third-minor-negative"])
@pytest.mark.parametrize("scalar", [F, float])
def test_pairing_not_positive_definite(pairing, scalar):
    with pytest.raises(GaussianError, match="must be positive definite"):
        GaussianSpec(len(pairing), [[scalar(x) for x in row]
                                    for row in pairing])


def test_exact_covariance_inverts_pairing():
    rng = random.Random(7)
    for dim in range(1, 5):
        g = GaussianSpec(dim, random_pd(rng, dim))
        assert g.covariance.shape == g.pairing.shape == (dim, dim)
        assert all(type(x) is F for x in g.covariance.flat)
        assert (g.pairing.dot(g.covariance) == np.eye(dim)).all()


def test_float_arrays_are_built_when_first_read():
    g = GaussianSpec(2, [[2.0, 0.5], [0.5, 1.0]])
    assert "pairing" not in vars(g) and "covariance" not in vars(g)
    assert g.pairing.dtype == g.covariance.dtype == float
    assert g.pairing.tolist() == [[2.0, 0.5], [0.5, 1.0]]
    assert np.array_equal(g.covariance, np.linalg.inv(g.pairing))


def test_moment_and_average_refuse_other_spaces():
    g = GaussianSpec(2, PD2)
    with pytest.raises(GaussianError, match="coordinate index out of range"):
        g.moment((0, 2))
    with pytest.raises(GaussianError,
                       match="polynomial and weight live on different spaces"):
        poly_average(Poly(3, {(1, 1, 0): F(1)}), g)
    plane = Poly(2, {(2, 0): F(1), (0, 2): F(1)})
    with pytest.raises(GaussianError,
                       match="polynomial and weight live on different spaces"):
        quadrature_average(plane, GaussianSpec(1, [[1]]))
    with pytest.raises(GaussianError,
                       match="polynomial and weight live on different spaces"):
        average_with_potential(plane, ones_algebra(quartic_table()))


@pytest.mark.parametrize("pairing, exact", [
    (PD2, True),
    ([2, 1, 1, 1], True),
    (np.array([[2, 1], [1, 1]]), True),
    (np.array([[2.0, 1.0], [1.0, 1.0]]), False),
], ids=["nested", "flat", "numpy int", "numpy float"])
def test_weight_reads_its_pairing_as_an_algebra_does(pairing, exact):
    g = GaussianSpec(2, pairing)
    assert g.exact is exact
    assert AlgebraSpec(2, pairing, quartic_table(), {}).exact is exact
    nested = GaussianSpec(2, PD2)
    for idx in [(0, 0), (0, 1), (1, 1), (0, 0, 0, 0), (0, 0, 1, 1),
                (0, 1, 1, 1)]:
        assert g.moment(idx) == nested.moment(idx)
        assert isinstance(g.moment(idx), F if exact else float)


def test_negative_dimension_is_refused():
    # Each pairing has (-dim)² entries, so it passes the flat shape rule.
    for dim, pairing in [(-1, [5]), (-2, [1, 2, 3, 4])]:
        with pytest.raises(GaussianError, match="dim must be nonnegative"):
            GaussianSpec(dim, pairing)


def test_zero_dimensional_weight():
    g = GaussianSpec(0, [])
    assert g.moment(()) == 1
    assert g.pairing.shape == g.covariance.shape == (0, 0)


def test_wick_moment_frozen_values():
    g = GaussianSpec(1, [[F(1)]])
    assert wick_moment(2, g)[0, 0] == 1
    assert wick_moment(4, g)[0, 0, 0, 0] == 3
    assert wick_moment(8, g)[(0,) * 8] == 105
    assert wick_moment(3, g)[0, 0, 0] == 0
    assert wick_moment(0, g)[()] == 1


def test_wick_moment_order_two_is_covariance():
    g = GaussianSpec(2, PD2)
    assert np.array_equal(wick_moment(2, g), g.covariance)
    assert g.covariance[0, 0] == 1 and g.covariance[0, 1] == -1


def test_wick_moment_guard():
    g = GaussianSpec(1, [[F(1)]])
    with pytest.raises(GaussianError):
        wick_moment(13, g)
    with pytest.raises(GaussianError):
        wick_moment(-1, g)


def test_moment_recursions_agree():
    # wick_moment builds tensors by axis bookkeeping, GaussianSpec.moment by
    # a memoized multiset recursion; they must produce identical numbers
    rng = random.Random(2)
    for dim in (1, 2, 3):
        g = GaussianSpec(dim, random_pd(rng, dim))
        for k in (2, 4, 6):
            t = wick_moment(k, g)
            for idx in itertools.product(range(dim), repeat=k):
                assert t[idx] == g.moment(idx)


def test_wick_equals_pairing_diagram_amplitudes():
    # summing amplitudes of every bare-edge pairing of k endpoints is the
    # same computation routed through the diagram machinery
    table = standard_table()
    a = AlgebraSpec(2, PD2, table, {})
    g = GaussianSpec(2, PD2)
    for k in (2, 4, 6):
        total = sum(np.asarray(amplitude(m, a)) for m in edge_pairings(k))
        assert np.array_equal(total, wick_moment(k, g))


# -- the kernel against brute force --------------------------------------------

def fractional_pd(rng, dim):
    """B·Bᵀ + I for a B of small fractions: positive definite, with
    denominators in its entries."""
    b = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]
         for _ in range(dim)]
    return [[sum(b[i][k] * b[j][k] for k in range(dim)) + (i == j)
             for j in range(dim)] for i in range(dim)]


def fractional_poly(rng, dim, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 7)):
        e = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(min(dim, rng.randint(1, 2)))] += 1
        terms[tuple(e)] = F(rng.randint(-9, 9), rng.randint(1, 6))
    return Poly(dim, terms)


def covariance_rows(g):
    return [list(row) for row in g.covariance]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_moment_is_the_pairing_sum(dim):
    rng = random.Random(100 + dim)
    for _ in range(3):
        g = GaussianSpec(dim, fractional_pd(rng, dim))
        cov = covariance_rows(g)
        assert g._den > 1
        for k in range(9):
            for _ in range(4):
                # Draw from few coordinates, so that indices repeat.
                idx = [rng.randrange(min(dim, rng.randint(1, 3)))
                       for _ in range(k)]
                got = g.moment(idx)
                assert type(got) is F
                assert got == pairing_moment(cov, idx), (dim, idx)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_poly_average_is_the_pairing_sum(dim):
    rng = random.Random(200 + dim)
    for _ in range(6):
        g = GaussianSpec(dim, fractional_pd(rng, dim))
        p = fractional_poly(rng, dim, 8)
        got = poly_average(p, g)
        assert type(got) is F
        assert got == poly_moment(p, covariance_rows(g))


POTENTIAL_TABLES = [
    ("quartic", [("symmetric", "s4", 4)], 2, [1, 2, 3]),
    ("mixed", [("symmetric", "s3", 3), ("symmetric", "s4", 4)], 2, [1, 2]),
    ("cyclic", [("cyclic", "c3", 3)], 2, [1, 2, 3]),
    ("coupon", [("coupon", "k21", (2, 1)), ("symmetric", "s4", 4)], 1, [1, 2]),
]


@pytest.mark.parametrize("colours,max_order,dims",
                         [c[1:] for c in POTENTIAL_TABLES],
                         ids=[c[0] for c in POTENTIAL_TABLES])
def test_average_with_potential_is_the_naive_product(colours, max_order,
                                                     dims):
    rng = random.Random(len(colours) * 10 + max_order)
    table = standard_table(*colours)
    makers = {"symmetric": sym_tensor, "cyclic": cyc_tensor}
    for dim in dims:
        tensors = {}
        for entry in table.ordinary():
            make = makers.get(entry.kind)
            tensors[entry.name] = (
                make(rng, dim, entry.valence) * F(1, rng.randint(1, 3))
                if make else
                [F(rng.randint(-2, 2), rng.randint(1, 3))
                 for _ in range(dim ** entry.valence)])
        a = AlgebraSpec(dim, fractional_pd(rng, dim), table, tensors)
        f = fractional_poly(rng, dim, 2)
        got = average_with_potential(f, a, max_order)
        keys, stars = zip(*interaction_terms(a))
        cov = covariance_rows(GaussianSpec(dim, a.pairing_rows()))
        bound = got.max_degree
        want = {}
        for exps in itertools.product(*(range(bound // k.grade + 1)
                                        for k in keys)):
            if sum(e * k.grade for e, k in zip(exps, keys)) <= bound:
                c = potential_coefficient(f, stars, exps, cov)
                if c:
                    want[tuple((k, e) for k, e in zip(keys, exps) if e)] = c
        assert got.coeffs == want
        assert all(type(c) is F for c in got.coeffs.values())


# -- quadrature ------------------------------------------------------------------

def test_quadrature_basics():
    g = GaussianSpec(1, [[F(1)]])
    assert abs(quadrature_average(Poly.constant(1, F(1)), g) - 1) < 1e-12
    assert abs(quadrature_average(Poly(1, {(4,): F(1)}), g) - 3) < 1e-11
    gi = GaussianSpec(2, [[F(1), F(0)], [F(0), F(1)]])
    assert abs(quadrature_average(Poly(2, {(2, 2): F(1)}), gi) - 1) < 1e-11


def test_quadrature_dimension_guard():
    g = GaussianSpec(5, [[F(int(i == j)) for j in range(5)]
                         for i in range(5)])
    with pytest.raises(GaussianError):
        quadrature_average(Poly.constant(5, F(1)), g)


def test_wick_vs_quadrature_random():
    rng = random.Random(31)
    for trial in range(5):
        dim = 1 + trial % 3
        g = GaussianSpec(dim, random_pd(rng, dim))
        p = random_poly(rng, dim, 8)
        exact = poly_average(p, g)
        quad = quadrature_average(p, g)
        assert abs(float(exact) - quad) <= 1e-9 * max(1.0, abs(float(exact)))


# -- formal averages --------------------------------------------------------------

def test_average_with_potential_quartic():
    a = ones_algebra(quartic_table())
    got = average_with_potential(Poly.constant(1, F(1)), a, 2)
    assert got == partition_series(quartic_table(), 8)
    assert got.coefficient(()) == 1


def test_average_with_potential_cubic_matches_partition():
    table = standard_table(("symmetric", "psi3", 3))
    a = ones_algebra(table)
    got = average_with_potential(Poly.constant(1, F(1)), a, 4)
    assert got == partition_series(table, 12)


@pytest.mark.parametrize("dim", [1, 2])
def test_average_with_potential_mixed_valence_matches_diagrams(dim):
    """The average is exact to the weight it reports, max_order times the
    largest valence, so it holds phi3^4 at weight 12 as well as phi4^3."""
    if dim == 1:
        a = ones_algebra(mixed_table())
    else:
        rng = random.Random(3)
        a = AlgebraSpec(2, PD2, mixed_table(),
                        {"phi3": sym_tensor(rng, 2, 3),
                         "phi4": sym_tensor(rng, 2, 4)})
    got = average_with_potential(Poly.constant(dim, F(1)), a, 3)
    want = expectation_value(EMPTY, a, with_potential=True, max_degree=12)
    assert got == want


def test_average_without_potential_is_plain_moment():
    table = standard_table()
    a = AlgebraSpec(2, PD2, table, {})
    got = average_with_potential(Poly(2, {(2, 0): F(1)}), a, 3)
    assert got.coeffs == {(): F(1)}  # covariance (0,0) entry


def test_average_of_a_float_polynomial_over_an_exact_algebra():
    # The integer form serves exact polynomials only; a float one keeps its
    # coefficients, and the average is its scalar times the exact one, up
    # to rounding.
    a = ones_algebra(quartic_table())
    exact = average_with_potential(Poly(1, {(4,): F(1)}), a, 2)
    got = average_with_potential(Poly(1, {(4,): 0.3}), a, 2)
    assert len(exact.coeffs) == 3 and got.coeffs.keys() == exact.coeffs.keys()
    for m, c in exact.coeffs.items():
        assert abs(got.coefficient(m) - c * F(3, 10)) <= 1e-15 * c


def test_average_parity():
    a = ones_algebra(quartic_table())
    got = average_with_potential(Poly(1, {(3,): F(1)}), a, 3)
    assert got.coeffs == {}


def test_average_order_guard():
    a = ones_algebra(quartic_table())
    with pytest.raises(GaussianError):
        average_with_potential(Poly.constant(1, F(1)), a, 13)


# -- the two halves of the calculus against each other -----------------------------

def test_frt_special_star_both_sides_one_eighth():
    a = ones_algebra(quartic_table())
    r = frt_check(symmetric_star("PHI4", 4, special=True), a)
    assert isinstance(r, FrtReport)
    assert r.match and r.diff == 0
    assert r.lhs.coefficient(()) == F(1, 8)
    assert r.rhs.coefficient(()) == F(1, 8)


def test_frt_odd_root_vanishes_both_ways():
    table = standard_table(("symmetric", "q3", 3))
    a = ones_algebra(table)
    r = frt_check(symmetric_star("Q3", 3, special=True), a)
    assert r.match and r.lhs.coeffs == {} and r.rhs.coeffs == {}


def test_frt_ordinary_root_carries_its_own_coupling():
    # Both sides grade the root phi4 vertex as a coupling: the coefficient of
    # phi4^(k+1) is <x^(4k+4)> / (24^(k+1) k!) = (4k+3)!! / (24^(k+1) k!).
    a = ones_algebra(quartic_table())
    r = frt_check(symmetric_star("phi4", 4), a, with_potential=True,
                  max_degree=12)
    phi4 = variable_for(a.table, "phi4")
    expected = {((phi4, 1),): F(1, 8), ((phi4, 2),): F(35, 192),
                ((phi4, 3),): F(385, 1024)}
    assert r.lhs.coeffs == r.rhs.coeffs == expected
    assert r.match and r.diff == 0


def test_frt_exact_on_random_two_dim_algebras():
    rng = random.Random(17)
    table = standard_table(("symmetric", "s4", 4), ("cyclic", "c3", 3),
                           ("coupon", "k22", (2, 2)))
    roots = [symmetric_star("S4", 4, special=True),
             cyclic_star("C3", 3, special=True),
             coupon_star("K22", 2, 2, special=True),
             EMPTY]
    for dim, pairing in ((1, [[F(2)]]), (2, PD2)):
        tensors = {"s4": sym_tensor(rng, dim, 4),
                   "c3": cyc_tensor(rng, dim, 3),
                   "k22": np.vectorize(lambda _: F(rng.randint(-2, 3)),
                                       otypes=[object])(
                               np.empty((dim,) * 4))}
        a = AlgebraSpec(dim, pairing, table, tensors)
        for root in roots:
            r = frt_check(root, a, with_potential=True, max_degree=6)
            assert r.match, (dim, root, r.lines())
            assert r.diff == 0


def test_frt_float_mode():
    table = quartic_table()
    a = AlgebraSpec(2, [[2.0, 1.0], [1.0, 1.0]], table,
                    {"phi4": np.full((2,) * 4, 0.5)})
    r = frt_check(symmetric_star("PHI4", 4, special=True), a,
                  with_potential=True, max_degree=8)
    assert r.match
    assert float(r.diff) < 1e-9


def test_frt_float_pairing_symmetric_within_tolerance():
    # AlgebraSpec accepts this pairing, so the Gaussian side must too.
    a = AlgebraSpec(2, [[1.0, 0.1], [0.10000000000001, 1.0]], quartic_table(),
                    {"phi4": np.full((2,) * 4, 0.5)})
    r = frt_check(EMPTY, a, with_potential=True, max_degree=8)
    assert r.match
    assert float(r.diff) < 1e-9


def test_frt_rejects_indefinite_pairing():
    table = quartic_table()
    a = AlgebraSpec(1, [[F(-1)]], table,
                    {"phi4": np.full((1,) * 4, F(1), dtype=object)})
    with pytest.raises(GaussianError):
        frt_check(EMPTY, a, with_potential=True, max_degree=4)


def test_frt_report_lines():
    a = ones_algebra(quartic_table())
    r = frt_check(EMPTY, a, with_potential=True, max_degree=8)
    lines = r.lines()
    assert lines[0].startswith("1\t1\t1")
    assert lines[-1] == "max deviation\t0"
    r = frt_check(EMPTY, ones_algebra(mixed_table()), with_potential=True,
                  max_degree=7)
    assert r.lines() == ["1\t1\t1", "phi3^2\t5/24\t5/24", "phi4\t1/8\t1/8",
                         "max deviation\t0"]


# -- Taylor expansion through stars -------------------------------------------------

def test_taylor_examples():
    r = taylor_stars(Poly(1, {(2,): F(1)}), (F(3),))
    assert r.groupoid_sum == 9 and r.direct_value == 9
    r = taylor_stars(Poly(2, {(1, 1): F(1)}), (F(1), F(2)))
    assert r.groupoid_sum == 2 and r.direct_value == 2
    r = taylor_stars(Poly.constant(2, F(5)), (F(0), F(0)))
    assert r.groupoid_sum == 5 and r.direct_value == 5


def test_taylor_random_exact():
    rng = random.Random(41)
    for _ in range(20):
        dim = rng.randint(1, 3)
        p = random_poly(rng, dim, 6)
        v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        r = taylor_stars(p, v)
        assert r.groupoid_sum == r.direct_value


TAYLOR_FLOAT_CASES = [
    (Poly(2, {(2, 1): 0.5, (0, 2): -1.25, (0, 0): 2.0}), (0.3, -1.7)),
    # an exact polynomial at a float point
    (Poly(2, {(2, 1): F(1, 2), (0, 2): F(-5, 4), (0, 0): 2}), (0.3, -1.7)),
    # a float polynomial at an exact point
    (Poly(2, {(2, 1): 0.5, (0, 2): -1.25, (0, 0): 2.0}),
     (F(3, 10), F(-17, 10))),
]


def test_taylor_float_mode():
    for p, v in TAYLOR_FLOAT_CASES:
        r = taylor_stars(p, v)
        assert isinstance(r.groupoid_sum, float)
        assert abs(r.groupoid_sum - r.direct_value) <= 1e-10 * max(
            1.0, abs(r.direct_value))


def test_taylor_degree_guard():
    with pytest.raises(GaussianError):
        taylor_stars(Poly(1, {(11,): F(1)}), (F(1),))
    with pytest.raises(GaussianError):
        taylor_stars(Poly(2, {(1, 1): F(1)}), (F(1),))


# -- float outputs, pinned bit for bit -----------------------------------------------
#
# Float sums depend on their order.  These pins hold the order of the
# Gaussian road's float sums: a moment's pairings in the order of its sorted
# index list, a repeated index's term added once per repeat, and an
# average's terms in the polynomial's order.

MIXED2_ALG = json.dumps({
    "dim": 2,
    "colours": [{"name": "phi3", "kind": "sym", "valence": 3},
                {"name": "phi4", "kind": "sym", "valence": 4}],
    "pairing": [1.5, 0.25, 0.25, 0.75],
    "tensors": {"phi3": [0.5, -0.375, -0.375, 0.25, -0.375, 0.25, 0.25,
                         1.125],
                "phi4": [1.5, -0.25, -0.25, 0.75, -0.25, 0.75, 0.75, 0.125,
                         -0.25, 0.75, 0.75, 0.125, 0.75, 0.125, 0.125,
                         -1.0]},
})

FRT_PINS = [
    (["--root", "two3.fd"],
     "1\t30863361663736453/54043195528445952"
     "\t642986701327843/1125899906842624\n"
     "max deviation\t11/54043195528445952\n"
     "PASS\n"),
    (["--potential", "--max-degree", "8"],
     "1\t1\t1\n"
     "phi3^2\t30863361663736453/54043195528445952"
     "\t642986701327843/1125899906842624\n"
     "phi4\t7480027062760677/144115188075855872"
     "\t1870006765690171/36028797018963968\n"
     "phi4^2\t1605505416566621747/3458764513820540928"
     "\t4181003688975577/9007199254740992\n"
     "max deviation\t11/54043195528445952\n"
     "PASS\n"),
    (["--root", "two3.fd", "--potential", "--max-degree", "6"],
     "1\t30863361663736453/54043195528445952"
     "\t642986701327843/1125899906842624\n"
     "phi3^2\t419981783622432397/27021597764222976"
     "\t2187405123033503/140737488355328\n"
     "phi4\t-36052508850235935/18014398509481984"
     "\t-1126640901569873/562949953421312\n"
     "max deviation\t179/27021597764222976\n"
     "PASS\n"),
]


@pytest.mark.parametrize("args,stdout", FRT_PINS,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else "")
def test_verify_frt_float_stdout_is_pinned(tmp_path, args, stdout):
    (tmp_path / "mixed2.alg").write_text(MIXED2_ALG)
    (tmp_path / "two3.fd").write_text("vertex a sym PHI3 legs 3;\n"
                                      "vertex b sym PHI3 legs 3;\n")
    argv = ["verify", "frt", "--algebra", str(tmp_path / "mixed2.alg")]
    argv += [str(tmp_path / a) if a.endswith(".fd") else a for a in args]
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    assert (rc, out.getvalue()) == (0, stdout)


def _pin_algebra(scalar):
    table = standard_table(("symmetric", "phi3", 3), ("symmetric", "phi4", 4))
    mixed = json.loads(MIXED2_ALG)
    tensors = {name: [scalar(x) for x in flat]
               for name, flat in mixed["tensors"].items()}
    pairing = [[scalar(1.5), scalar(0.25)], [scalar(0.25), scalar(0.75)]]
    return AlgebraSpec(2, pairing, table, tensors)


def _sorted_reprs(s):
    return sorted((str(m), repr(c)) for m, c in s.coeffs.items())


def test_float_weight_averages_are_pinned():
    g = GaussianSpec(3, [[1.5, 0.25, -0.5], [0.25, 0.75, 0.125],
                         [-0.5, 0.125, 2.0]])
    p = Poly(3, {(4, 0, 0): 0.3, (2, 2, 0): -1.7, (0, 3, 3): 0.125,
                 (1, 1, 2): 2.5, (3, 0, 0): 9.0, (0, 0, 0): 0.1,
                 (0, 2, 0): 1e-3, (2, 1, 1): -0.7})
    assert repr(poly_average(p, g)) == "np.float64(-2.1761848678776756)"
    assert repr(poly_average(Poly(3, {(2, 0, 2): 1.25, (0, 6, 0): -0.5}),
                             g)) == "np.float64(-22.696383166705)"
    assert repr(poly_average(Poly(3, {(1, 0, 0): 1.0}), g)) == "0.0"
    assert repr(poly_average(Poly(3, {}), g)) == "0.0"

    s = average_with_potential(
        Poly(2, {(2, 0): 0.5, (1, 3): -1.25, (0, 2): 3.0}),
        _pin_algebra(float), 3)
    assert repr(s) == (
        "3284199382243363/562949953421312"
        " + -3034231566094345/2251799813685248*phi4"
        " + 6134785315625809/281474976710656*phi3^2"
        " + 7510432240034383/281474976710656*phi4^2"
        " + -1471137716485653/8796093022208*phi3^2*phi4"
        " + 1356093805952461/6597069766656*phi3^4"
        " + -1881487338046237/105553116266496*phi4^3 (+O^13)")


def test_float_coefficients_over_an_exact_weight_are_pinned():
    # Each term meets its exact moment as a Fraction, as the float
    # arithmetic of a Fraction rounds it.
    g = GaussianSpec(2, [[F(3, 2), F(1, 4)], [F(1, 4), F(3, 4)]])
    assert repr(poly_average(
        Poly(2, {(2, 2): 0.3, (0, 2): F(1, 3), (4, 0): F(2, 7)}), g)
    ) == "1.2298566485417697"
    s = average_with_potential(
        Poly(2, {(2, 0): 0.5, (1, 3): F(-5, 4), (0, 2): 3.0}),
        _pin_algebra(lambda x: F(x)), 2)
    assert [c for _, c in _sorted_reprs(s)] == [
        "Fraction(6134785315625813, 281474976710656)",
        "Fraction(-3034231566094335, 2251799813685248)",
        "Fraction(3755216120017195, 140737488355328)",
        "Fraction(6568398764486727, 1125899906842624)"]

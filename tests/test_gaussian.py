import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from fdcalc.algebra import (
    SYMMETRY_TOL, AlgebraSpec, amplitude, expectation_value,
)
from fdcalc.colours import standard_table
from fdcalc.diagram import (EMPTY, coupon_star, cyclic_star, symmetric_star)
from fdcalc.gaussian import (
    FrtReport, GaussianError, GaussianSpec, average_with_potential,
    frt_check, poly_average, quadrature_average, taylor_stars, wick_moment,
)
from fdcalc.poly import Poly
from fdcalc.prop import edge_pairings
from fdcalc.series import partition_series, variable_for
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


def test_taylor_float_mode():
    p = Poly(2, {(2, 1): 0.5, (0, 2): -1.25, (0, 0): 2.0})
    v = (0.3, -1.7)
    r = taylor_stars(p, v)
    assert abs(r.groupoid_sum - r.direct_value) <= 1e-10 * max(
        1.0, abs(r.direct_value))


def test_taylor_degree_guard():
    with pytest.raises(GaussianError):
        taylor_stars(Poly(1, {(11,): F(1)}), (F(1),))
    with pytest.raises(GaussianError):
        taylor_stars(Poly(2, {(1, 1): F(1)}), (F(1),))

"""Gaussian averages as an independent road to the diagram sums.

A centred Gaussian weight on R^N is fixed by a symmetric positive definite
matrix.  Moments of polynomials against it can be computed three ways that
share no code: summing over pairings (exact, the `wick_moment` tensors and
the memoized recursion behind `poly_average`), tensor-product Gauss-Hermite
quadrature after whitening, and the groupoid sums of the diagram modules.
`frt_check` and `taylor_stars` hold the roads against each other.

Rational inputs stay rational through every pairing sum, and an exact
weight runs on ``fractions`` alone.  numpy serves float weights, the
quadrature, and the public arrays: ``wick_moment`` and the ``pairing`` and
``covariance`` of an exact weight, which are built when first read.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import factorial, pi, prod, sqrt

from .algebra import (SYMMETRY_TOL, AlgebraSpec, amplitude, expectation_value,
                      leg_polynomial, interaction_terms)
from .colours import standard_table
from .diagram import Diagram, Vertex, degree
from .iso import canonical_code
from .poly import Poly, integer_form, invert_exact, is_exact
from .series import (DEFAULT_DEGREE, MultiSeries, Monomial, diagram_monomial,
                     name_monomial)

WICK_LIMIT = 12
QUAD_DIM_LIMIT = 4
POTENTIAL_ORDER_LIMIT = 12
TAYLOR_DEGREE_LIMIT = 10
REL_TOL = 1e-9
ABS_TOL = 1e-12


class GaussianError(ValueError):
    pass


class GaussianSpec:
    """The weight exp(-q(v)/2) dv on R^dim, normalized to total mass one.

    ``pairing`` is the matrix of the quadratic form q.  It must be symmetric
    and positive definite.  Rational entries must be exactly symmetric, and
    float entries to within ``SYMMETRY_TOL``, the tolerance that
    :class:`fdcalc.algebra.AlgebraSpec` holds its pairing to.  With rational
    entries one exact elimination checks definiteness and inverts the
    matrix: it is positive definite exactly when every pivot is reached
    without a row exchange and is positive.  Float entries are checked
    through the leading principal minors.
    Moments are polynomials in the inverse matrix, kept exact in rational
    mode: the covariance is held as integer numerators over one denominator
    d, and the moment of order 2k is summed in Python ints over d^k.  A
    float weight holds ``pairing`` and ``covariance`` as numpy arrays from
    the start; an exact one builds them as object arrays when they are
    first read.
    """

    def __init__(self, dim: int, pairing):
        mat = [list(row) for row in pairing]
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise GaussianError("pairing must be a dim x dim matrix")
        self.dim = dim
        self.exact = all(is_exact(x) for row in mat for x in row)
        if self.exact:
            mat = [[Fraction(x) for x in row] for row in mat]
        else:
            mat = [[float(x) for x in row] for row in mat]
        tol = 0 if self.exact else SYMMETRY_TOL
        for i in range(dim):
            for j in range(i):
                if not abs(mat[i][j] - mat[j][i]) <= tol:
                    raise GaussianError("pairing must be symmetric")
        if self.exact:
            inverse, pivots = invert_exact(mat)
            if not all(p is not None and p > 0 for p in pivots):
                raise GaussianError("pairing must be positive definite")
            self._rows = mat
            nums, self._den = integer_form(x for row in inverse for x in row)
            self._cov = [nums[i:i + dim] for i in range(0, len(nums), dim)]
        else:
            import numpy as np
            for k in range(1, dim + 1):
                if np.linalg.det(np.array([row[:k] for row in mat[:k]])) <= 0:
                    raise GaussianError("pairing must be positive definite")
            self.pairing = np.array(mat, dtype=float)
            self.covariance = self._cov = np.linalg.inv(self.pairing)
        # Moment numerators by sorted index tuple, ints when exact.
        self._moments: dict[tuple[int, ...], object] = {
            (): 1 if self.exact else 1.0}

    # A float weight sets both arrays in ``__init__``, which hides these.
    @cached_property
    def pairing(self):
        import numpy as np
        # reshape keeps the 0 x 0 weight square
        return np.array(self._rows, dtype=object).reshape(self.dim, self.dim)

    @cached_property
    def covariance(self):
        import numpy as np
        return np.array([[Fraction(n, self._den) for n in row]
                         for row in self._cov],
                        dtype=object).reshape(self.dim, self.dim)

    def one(self):
        return Fraction(1) if self.exact else 1.0

    def zero(self):
        return Fraction(0) if self.exact else 0.0

    def moment(self, idx: tuple[int, ...]):
        """⟨v_{i_1}···v_{i_k}⟩ for a multiset of coordinate indices."""
        idx = tuple(sorted(idx))
        if any(not 0 <= i < self.dim for i in idx):
            raise GaussianError("coordinate index out of range")
        if len(idx) % 2:
            return self.zero()
        m = self._moment(idx)
        return Fraction(m, self._den ** (len(idx) // 2)) if self.exact else m

    def _moment(self, idx: tuple[int, ...]):
        """The moment of a sorted index tuple of even length, as its
        numerator when exact."""
        known = self._moments.get(idx)
        if known is not None:
            return known
        first, rest = idx[0], idx[1:]
        total = 0
        for j in range(len(rest)):
            total += (self._cov[first][rest[j]]
                      * self._moment(rest[:j] + rest[j + 1:]))
        self._moments[idx] = total
        return total


# -- moment tensors ------------------------------------------------------------

def wick_moment(k: int, g: GaussianSpec):
    """The dense order-k moment tensor; the zero tensor for odd k.

    Entry (i_1..i_k) is the sum over the (k-1)!! pairings of the product of
    covariance entries, built by a recursion that always pairs the first
    index, so the result is independent of any enumeration order.
    """
    if not 0 <= k <= WICK_LIMIT:
        raise GaussianError(f"moment order {k} out of range 0..{WICK_LIMIT}")
    import numpy as np
    shape = (g.dim,) * k
    dtype = object if g.exact else float
    if k % 2:
        return np.full(shape, g.zero(), dtype=dtype)
    level = np.full((), g.one(), dtype=dtype)
    for m in range(2, k + 1, 2):
        acc = np.full((g.dim,) * m, g.zero(), dtype=dtype)
        for j in range(1, m):
            acc = acc + np.moveaxis(
                np.multiply.outer(g.covariance, level), 1, j)
        level = acc
    return level


def poly_average(p: Poly, g: GaussianSpec):
    """⟨p⟩ against the Gaussian weight, term by term through pairings."""
    if p.dim != g.dim:
        raise GaussianError("polynomial and weight live on different spaces")
    total = g.zero()
    for e, c in p.terms.items():
        idx = tuple(i for i, k in enumerate(e) for _ in range(k))
        total += c * g.moment(idx)
    return total


def quadrature_average(p: Poly, g: GaussianSpec) -> float:
    """⟨p⟩ by tensor-product Gauss-Hermite quadrature.

    The quadratic form is whitened through the lower-triangular
    positive-diagonal factorization of its inverse, so the rule is exact for
    polynomials within the degree bound of the chosen order.
    """
    if g.dim > QUAD_DIM_LIMIT:
        raise GaussianError(f"quadrature limited to {QUAD_DIM_LIMIT} axes")
    import numpy as np
    from numpy.polynomial.hermite import hermgauss
    order = (p.degree() + 1 + 1) // 2 + 2
    nodes, weights = hermgauss(order)
    ginv = np.linalg.inv(np.asarray(g.pairing, dtype=float))
    lower = np.linalg.cholesky(ginv)
    total = 0.0
    for combo in itertools.product(range(order), repeat=g.dim):
        u = np.array([nodes[i] for i in combo])
        v = sqrt(2.0) * (lower @ u)
        total += prod(weights[i] for i in combo) * float(p.evaluate(v))
    return float(total / pi ** (g.dim / 2))


# -- formal averages against a potential ---------------------------------------

def _potential_expansion(f: Poly, a: AlgebraSpec,
                         budget: int) -> dict[Monomial, Fraction]:
    """Coefficients of ⟨f·e^S⟩ on the coupling monomials of grade-weighted
    degree at most ``budget``.

    The walk fixes one coupling's exponent at a time, smallest first, and
    carries the product of ``f`` with the powers fixed so far, so each
    power of a star polynomial is one product away from the one before.
    Exact polynomials enter as integer coefficients over one denominator
    each, so the products run in Python ints, and ``denom`` gathers the
    denominators with the factorials.
    """
    gauss = GaussianSpec(a.dim, a.pairing_rows())
    exact = a.exact and all(is_exact(c) for c in f.terms.values())

    def scaled(p: Poly) -> tuple[Poly, int]:
        if not exact:
            return p, 1
        nums, den = integer_form(p.terms.values())
        return Poly(p.dim, dict(zip(p.terms, nums))), den

    # With no budget every exponent is 0, and no star polynomial is needed;
    # an algebra may lack the tensor of a colour the average never uses.
    terms = [(key, *scaled(part))
             for key, part in (interaction_terms(a) if budget else ())]
    coeffs: dict[Monomial, Fraction] = {}

    def descend(i: int, poly: Poly, left: int, mono: Monomial, denom: int):
        if i == len(terms):
            val = poly_average(poly, gauss)
            if val:
                coeffs[tuple(sorted(mono))] = Fraction(val) / denom
            return
        key, part, den = terms[i]
        power = Poly.constant(a.dim, 1)
        for e in range(left // key.grade + 1):
            if e:
                power = power * part
            descend(i + 1, poly * power, left - e * key.grade,
                    mono + ((key, e),) if e else mono,
                    denom * factorial(e) * den ** e)

    f, den = scaled(f)
    descend(0, f, budget, (), den)
    return coeffs


def average_with_potential(f: Poly, a: AlgebraSpec,
                           max_order: int = POTENTIAL_ORDER_LIMIT) -> MultiSeries:
    """⟨f·e^S⟩ as a series in the couplings, exact to weight ``max_order``
    times the largest valence.

    S is the interaction sum of ``a``'s colour table, one coupling variable
    per ordinary colour, graded by its valence; the coefficient of a
    coupling monomial of total degree k comes from ⟨f·S^k⟩/k! and is a
    single finite Gaussian moment.  Parity makes every odd combination
    vanish rather than fail.
    """
    if not 0 <= max_order <= POTENTIAL_ORDER_LIMIT:
        raise GaussianError(
            f"expansion order capped at {POTENTIAL_ORDER_LIMIT}")
    bound = max_order * max((e.valence for e in a.table.ordinary()), default=1)
    return MultiSeries(_potential_expansion(f, a, bound), bound)


# -- holding the roads against each other --------------------------------------

class FrtReport(namedtuple("FrtReport", "match lhs rhs diff")):
    __slots__ = ()

    def lines(self) -> list[str]:
        keys = sorted(set(self.lhs.coeffs) | set(self.rhs.coeffs))
        out = []
        for m in keys:
            out.append(f"{name_monomial(m) or '1'}\t{self.lhs.coefficient(m)}"
                       f"\t{self.rhs.coefficient(m)}")
        out.append(f"max deviation\t{self.diff}")
        return out


def frt_check(g: Diagram, a: AlgebraSpec, *, with_potential: bool = False,
              max_degree: int = DEFAULT_DEGREE) -> FrtReport:
    """Diagram-sum value of ``g`` against the direct Gaussian average.

    The left side sums amplitudes over closed diagrams around ``g`` weighted
    by 1/|Aut|; the right side averages the polynomial of ``g`` divided by
    |Aut g|, against the bare weight or against e^S when ``with_potential``
    is set.  Rational algebras must agree exactly; floating point ones to
    1e-9 relative.  ``max_degree`` bounds the valence-weighted degree on
    both sides.  The pairing of ``a`` doubles as the Gaussian matrix, so it
    must be positive definite.
    """
    lhs = expectation_value(g, a, with_potential=with_potential,
                            max_degree=max_degree)
    aut = canonical_code(g).aut_order
    f = leg_polynomial(g, a) * Fraction(1, aut)
    # The left side grades g's own ordinary vertices as couplings, so with
    # the potential the right side carries g's monomial and leaves the rest
    # of the degree bound to the potential.
    budget = max_degree - degree(g) if with_potential else 0
    rhs = MultiSeries(_potential_expansion(f, a, budget), max_degree)
    if with_potential:
        rhs = MultiSeries({diagram_monomial(g, a.table): 1}, max_degree) * rhs
    keys = set(lhs.coeffs) | set(rhs.coeffs)
    diff = max((abs(lhs.coefficient(m) - rhs.coefficient(m)) for m in keys),
               default=Fraction(0))
    if a.exact:
        match = diff == 0
    else:
        match = all(abs(lhs.coefficient(m) - rhs.coefficient(m))
                    <= ABS_TOL + REL_TOL * abs(lhs.coefficient(m))
                    for m in keys)
    return FrtReport(match, lhs, rhs, diff)


class TaylorReport(namedtuple("TaylorReport", "groupoid_sum direct_value")):
    __slots__ = ()


def taylor_stars(phi: Poly, v) -> TaylorReport:
    """Rebuild phi(v) from one star diagram per derivative order.

    The order-n term attaches n copies of ``v`` to a fully symmetric vertex
    carrying the order-n derivative tensor of ``phi`` at zero; the diagram
    machinery supplies the 1/n! through |Aut| of the star.  The report pairs
    that sum with the plain evaluation phi(v).  The sum is exact when every
    coefficient and coordinate is an int or a Fraction, in doubles
    otherwise; the stars' algebra gets the raw entries and converts them.
    """
    if phi.degree() > TAYLOR_DEGREE_LIMIT:
        raise GaussianError(f"degree capped at {TAYLOR_DEGREE_LIMIT}")
    dim = phi.dim
    point = tuple(v)
    if len(point) != dim:
        raise GaussianError("point and polynomial dimensions differ")
    direct = phi.evaluate(point)
    exact = (all(is_exact(c) for c in phi.terms.values())
             and all(is_exact(x) for x in point))
    total = phi.terms.get((0,) * dim, Fraction(0) if exact else 0.0)
    orders = sorted({sum(e) for e in phi.terms if sum(e)})
    if not orders:
        return TaylorReport(total, direct)

    specs = [("symmetric", f"d{n}", n) for n in orders]
    specs.append(("symmetric", "vec", 1))
    tensors = {"vec": list(point)}
    for n in orders:
        flat = []
        for idx in itertools.product(range(dim), repeat=n):
            e = tuple(idx.count(i) for i in range(dim))
            c = phi.terms.get(e)
            flat.append(c * prod(factorial(k) for k in e) if c else 0)
        tensors[f"d{n}"] = flat
    # AlgebraSpec infers the mode from the entries.  A float constant term
    # is in no tensor, so the identity pairing carries the mode for it.
    one = 1 if exact else 1.0
    eye = [[one * (i == j) for j in range(dim)] for i in range(dim)]
    a = AlgebraSpec(dim, eye, standard_table(*specs), tensors)

    for n in orders:
        star = Diagram(
            (Vertex("symmetric", f"d{n}", tuple(range(n))),)
            + tuple(Vertex("symmetric", "vec", (n + i,)) for i in range(n)),
            frozenset((i, n + i) for i in range(n)))
        aut = canonical_code(star).aut_order
        total = total + amplitude(star, a) / Fraction(aut)
    return TaylorReport(total, direct)

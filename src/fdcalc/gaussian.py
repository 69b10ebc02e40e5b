"""Gaussian averages as an independent road to the diagram sums.

A centred Gaussian weight on R^N is fixed by a symmetric positive definite
matrix.  Moments of polynomials against it can be computed three ways that
share no code: summing over pairings (exact, the `wick_moment` tensors and
the memoized recursion behind `poly_average`), tensor-product Gauss-Hermite
quadrature after whitening, and the groupoid sums of the diagram modules.
`frt_check` holds the roads against each other, and `taylor_stars` reads
a polynomial as the interaction sum of its derivative tensors.

Rational inputs stay rational through every pairing sum, and an exact
weight runs on ``fractions`` alone.  ``GaussianSpec.moment``,
``poly_average`` and the expansion behind ``average_with_potential`` share
one moment kernel, keyed by packed exponents: a monomial's exponent vector
is one int, so multiplying monomials adds keys.  An exact average sums
integer numerators over one power of the covariance denominator and makes
one Fraction at the end; a float weight keeps its covariance in the same
form, numpy float64 entries over denominator 1, and runs the same kernel
in the summation order of the sorted index lists, so its sums keep their
bits.  numpy serves float weights, the quadrature, and the public arrays:
``wick_moment`` and the ``pairing`` and ``covariance`` of a weight, which
both modes build when first read.  The diagram side
(``algebra``, ``iso``, ``series``) is imported by the functions that hold
the roads against each other, so a weight and its averages load ``poly``
alone.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import factorial, pi, prod, sqrt
from typing import TYPE_CHECKING

from .poly import (
    SYMMETRY_TOL, Poly, exponent_vectors, has_shape, integer_form,
    invert_exact, is_exact, row_major,
)

if TYPE_CHECKING:
    from .algebra import AlgebraSpec
    from .diagram import Diagram
    from .series import Monomial, MultiSeries

WICK_LIMIT = 12
QUAD_DIM_LIMIT = 4
POTENTIAL_ORDER_LIMIT = 12
TAYLOR_DEGREE_LIMIT = 10
REL_TOL = 1e-9
ABS_TOL = 1e-12
# The series' default degree bound, restated so that loading this module
# loads no series code; a test holds the two equal.
DEFAULT_DEGREE = 12


class GaussianError(ValueError):
    pass


class GaussianSpec:
    """The weight exp(-q(v)/2) dv on R^dim, normalized to total mass one.

    ``pairing`` is the matrix of the quadratic form q, read as
    :class:`fdcalc.algebra.AlgebraSpec` reads its pairing: nested lists or
    an array, or dim² row-major entries, exact when every entry is an int
    or a Fraction (numpy ints too).  It must be symmetric and positive
    definite.  Rational entries must be exactly symmetric, and
    float entries to within ``SYMMETRY_TOL``, the tolerance that
    :class:`fdcalc.algebra.AlgebraSpec` holds its pairing to.  With rational
    entries one exact elimination checks definiteness and inverts the
    matrix: it is positive definite exactly when every pivot is reached
    without a row exchange and is positive.  Float entries are checked
    through the leading principal minors.

    Moments are polynomials in the inverse matrix, kept exact in rational
    mode: the covariance is held as integer numerators over one denominator
    d, and the moment of order 2k is summed in Python ints over d^k.  A
    float weight runs the same code with denominator 1 on its float
    entries.  One memoized kernel computes every moment, keyed by the
    packed exponent vector: the exponent of v_i is the digit i of one int,
    in a base that is a power of two above the largest degree the call can
    reach, so sums of keys never carry, and the digit above the last holds
    the total degree.  The kernel pairs the least index present with each
    index in turn, in ascending order, adding a repeated index's term once
    per repeat, so a float moment is summed in the order of its sorted
    index list.  Both modes build ``pairing`` and ``covariance`` when they
    are first read, as object arrays of Fractions when exact.
    """

    def __init__(self, dim: int, pairing):
        if dim < 0:
            raise GaussianError("dim must be nonnegative")
        read = row_major(pairing)
        if not has_shape(read, (dim, dim)):
            raise GaussianError("pairing must be a dim x dim matrix")
        self.dim = dim
        self.exact = all(is_exact(x) for x in read[1])
        flat = [Fraction(x) if self.exact else float(x) for x in read[1]]
        mat = [flat[i * dim:(i + 1) * dim] for i in range(dim)]
        tol = 0 if self.exact else SYMMETRY_TOL
        for i in range(dim):
            for j in range(i):
                if not abs(mat[i][j] - mat[j][i]) <= tol:
                    raise GaussianError("pairing must be symmetric")
        if self.exact:
            inverse, pivots = invert_exact(mat)
            if not all(p is not None and p > 0 for p in pivots):
                raise GaussianError("pairing must be positive definite")
            nums, self._den = integer_form(x for row in inverse for x in row)
            self._cov = [nums[i * dim:(i + 1) * dim] for i in range(dim)]
        else:
            import numpy as np
            for k in range(1, dim + 1):
                if np.linalg.det(np.array([row[:k] for row in mat[:k]])) <= 0:
                    raise GaussianError("pairing must be positive definite")
            self._cov = [list(row) for row in np.linalg.inv(mat)]
            self._den = 1
        self._rows = mat
        # The moment kernel for each digit width, each with its own memo.
        self._kernels: dict[int, object] = {}

    def _array(self, rows):
        import numpy as np
        # reshape keeps the 0 x 0 weight square
        return np.array(rows, dtype=object if self.exact else float).reshape(
            self.dim, self.dim)

    @cached_property
    def pairing(self):
        return self._array(self._rows)

    @cached_property
    def covariance(self):
        return self._array([[self._scaled(n, 1) for n in row]
                            for row in self._cov])

    def one(self):
        return Fraction(1) if self.exact else 1.0

    def zero(self):
        return Fraction(0) if self.exact else 0.0

    def moment(self, idx: tuple[int, ...]):
        """⟨v_{i_1}···v_{i_k}⟩ for a multiset of coordinate indices."""
        idx = [operator.index(i) for i in idx]
        if any(not 0 <= i < self.dim for i in idx):
            raise GaussianError("coordinate index out of range")
        k = len(idx)
        if k % 2:
            return self.zero()
        shift = k.bit_length()
        key = sum(1 << shift * i for i in idx) + (k << shift * self.dim)
        return self._scaled(self._kernel(shift)(key), k // 2)

    def _scaled(self, m, half: int):
        """The moment of order 2·``half`` whose numerator is ``m``."""
        return Fraction(m, self._den ** half) if self.exact else m

    def _kernel(self, shift: int):
        """The memoized map from a packed key of even degree, with digits
        ``shift`` bits wide, to its moment numerator."""
        known = self._kernels.get(shift)
        if known is not None:
            return known
        dim, cov = self.dim, self._cov
        top = shift * dim
        mask = (1 << shift) - 1
        memo = {0: 1 if self.exact else 1.0}
        # drop[i][j] takes one v_i and one v_j out of a key.
        drop = [[(1 << shift * i) + (1 << shift * j) + (2 << top)
                 for j in range(dim)] for i in range(dim)]

        def moment(key: int):
            total = memo.get(key)
            if total is not None:
                return total
            # Pair the least index present, whose digit holds the lowest
            # set bit, with each index in turn.
            i = ((key & -key).bit_length() - 1) // shift
            row, step = cov[i], drop[i]
            rest = key - (1 << shift * i)
            total = 0
            for j in range(i, dim):
                count = rest >> shift * j & mask
                if count:
                    term = row[j] * moment(key - step[j])
                    for _ in range(count):
                        total += term
            memo[key] = total
            return total

        self._kernels[shift] = moment
        return moment

    def _average(self, terms, shift: int, ints: bool):
        """Σ c·⟨v^e⟩ over the (packed key, coefficient) pairs ``terms``, as
        a sum and its denominator.

        With ``ints``, for int coefficients over an exact weight, the sum
        is of Python ints over d^h, the highest power of the covariance
        denominator that a term reaches.  Otherwise each moment enters as
        :meth:`moment` gives it, and the terms are added to ``zero()`` in
        their order, over denominator 1.
        """
        moment = self._kernel(shift)
        top = shift * self.dim
        if ints:
            half = max((key >> top for key, _ in terms), default=0) >> 1
            powers = [self._den ** j for j in range(half + 1)]
            zero, power = 0, powers[half]

            def value(m, j):
                return m * powers[half - j]
        else:
            zero, power, value = self.zero(), 1, self._scaled
        total = zero
        for key, c in terms:
            deg = key >> top
            total += c * (zero if deg & 1 else value(moment(key), deg >> 1))
        return total, power


def _packed(p: Poly, shift: int, ints: bool) -> tuple[dict[int, object], int]:
    """The terms of ``p`` keyed by packed exponents with ``shift``-bit
    digits, and the denominator of their coefficients: with ``ints``, the
    coefficients become integer numerators over one denominator."""
    coeffs, den = (integer_form(p.terms.values()) if ints
                   else (p.terms.values(), 1))
    top = shift * p.dim
    return {sum(x << shift * i for i, x in enumerate(e)) + (sum(e) << top): c
            for e, c in zip(p.terms, coeffs)}, den


def _times(p: dict[int, object], q: dict[int, object]) -> dict[int, object]:
    """The product of two polynomials keyed by packed exponents, summed in
    the order of :meth:`Poly.__mul__`, zero terms dropped."""
    acc: dict[int, object] = {}
    get = acc.get
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return {k: c for k, c in acc.items() if c}


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
    ints = g.exact and all(is_exact(c) for c in p.terms.values())
    shift = max(p.degree(), 1).bit_length()
    terms, den = _packed(p, shift, ints)
    total, power = g._average(terms.items(), shift, ints)
    return Fraction(total, power * den) if ints else total


def quadrature_average(p: Poly, g: GaussianSpec) -> float:
    """⟨p⟩ by tensor-product Gauss-Hermite quadrature.

    The quadratic form is whitened through the lower-triangular
    positive-diagonal factorization of its inverse, so the rule is exact for
    polynomials within the degree bound of the chosen order.
    """
    if p.dim != g.dim:
        raise GaussianError("polynomial and weight live on different spaces")
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
    Every polynomial is keyed by packed exponents, so a product adds keys.
    Exact polynomials enter as integer coefficients over one denominator
    each, so the products and averages run in Python ints, and ``denom``
    gathers the denominators with the factorials.
    """
    from .algebra import interaction_terms
    gauss = GaussianSpec(a.dim, a.pairing_rows())
    ints = gauss.exact and all(is_exact(c) for c in f.terms.values())
    # With no budget every exponent is 0, and no star polynomial is needed;
    # an algebra may lack the tensor of a colour the average never uses.
    stars = interaction_terms(a) if budget else ()
    reach = f.degree() + sum(budget // key.grade * part.degree()
                             for key, part in stars)
    shift = max(reach, 1).bit_length()
    stars = [(key, *_packed(part, shift, ints)) for key, part in stars]
    coeffs: dict[Monomial, Fraction] = {}

    def descend(i: int, poly: dict, left: int, mono: Monomial, denom: int):
        if i == len(stars):
            total, power = gauss._average(poly.items(), shift, ints)
            if total:
                coeffs[tuple(sorted(mono))] = (
                    Fraction(total, power * denom) if ints
                    else Fraction(total) / denom)
            return
        key, part, den = stars[i]
        for e in range(left // key.grade + 1):
            if e:
                power = part if e == 1 else _times(power, part)
            descend(i + 1, _times(poly, power) if e else poly,
                    left - e * key.grade, mono + ((key, e),) if e else mono,
                    denom * factorial(e) * den ** e)

    f, den = _packed(f, shift, ints)
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
    if f.dim != a.dim:
        raise GaussianError("polynomial and weight live on different spaces")
    if not 0 <= max_order <= POTENTIAL_ORDER_LIMIT:
        raise GaussianError(
            f"expansion order capped at {POTENTIAL_ORDER_LIMIT}")
    from .series import MultiSeries
    bound = max_order * max((e.valence for e in a.table.ordinary()), default=1)
    return MultiSeries(_potential_expansion(f, a, bound), bound)


# -- holding the roads against each other --------------------------------------

class FrtReport(namedtuple("FrtReport", "match lhs rhs diff")):
    __slots__ = ()

    def lines(self) -> list[str]:
        from .series import name_monomial
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
    from .algebra import expectation_value, leg_polynomial
    from .diagram import degree
    from .iso import canonical_code
    from .series import MultiSeries, diagram_monomial
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
    """phi(v) as phi(0) plus the interaction sum of its derivative tensors.

    The order-n derivative tensor of ``phi`` at zero is the tensor of a
    symmetric colour of valence n.  Over the algebra of these tensors,
    :func:`fdcalc.algebra.interaction_terms` gives each star's leg
    polynomial over |Aut star| = n!, which is the order-n part of ``phi``.
    The report pairs phi(0) plus that sum at ``v`` with the plain
    evaluation phi(v).  The algebra is exact when every coefficient is an
    int or a Fraction, in doubles otherwise.
    """
    from .algebra import AlgebraSpec, interaction_terms
    from .colours import standard_table
    if phi.degree() > TAYLOR_DEGREE_LIMIT:
        raise GaussianError(f"degree capped at {TAYLOR_DEGREE_LIMIT}")
    dim = phi.dim
    point = tuple(v)
    if len(point) != dim:
        raise GaussianError("point and polynomial dimensions differ")
    direct = phi.evaluate(point)
    total = phi.terms.get((0,) * dim, 0)
    orders = sorted({sum(e) for e in phi.terms if sum(e)})
    if not orders:
        return TaylorReport(total, direct)

    tensors = {}
    for n in orders:
        flat = []
        for e in exponent_vectors(dim, n):
            c = phi.terms.get(e)
            flat.append(c * prod(factorial(k) for k in e) if c else 0)
        tensors[f"d{n}"] = flat
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
    table = standard_table(*(("symmetric", f"d{n}", n) for n in orders))
    for _, p in interaction_terms(AlgebraSpec(dim, eye, table, tensors)):
        total = total + p.evaluate(point)
    return TaylorReport(total, direct)

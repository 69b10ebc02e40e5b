"""Polynomials in the coordinates of one finite-dimensional vector.

Terms map an exponent tuple (one entry per coordinate) to a coefficient.
Coefficients may be Fractions, ints or floats; nothing here forces a choice,
so exact and numeric pipelines share the type.

The module also holds the one exact elimination, ``invert_exact``, which
gives the copairing of an algebra and the covariance of a Gaussian weight
together with the pivots behind its positivity check, and ``integer_form``,
which lets exact arithmetic run on Python ints.
"""
from __future__ import annotations

import math
from fractions import Fraction


def is_exact(x) -> bool:
    """True for the exact scalars (ints and Fractions, not bools)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class Poly:
    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def constant(cls, dim: int, c) -> "Poly":
        return cls(dim, {(0,) * dim: c})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.dim == other.dim
                and self.terms == other.terms)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.dim, {e: c * other for e, c in self.terms.items()})
        acc: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
        return Poly(self.dim, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        acc = Poly.constant(self.dim, 1)
        for _ in range(n):
            acc = acc * self
        return acc

    def evaluate(self, point):
        total = 0
        for e, c in self.terms.items():
            term = c
            for x, k in zip(point, e):
                for _ in range(k):
                    term = term * x
            total = total + term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"v{i}^{k}" if k > 1 else f"v{i}"
                            for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    __repr__ = __str__


def integer_form(values) -> tuple[tuple[int, ...], int]:
    """Exact scalars as integer numerators over their least common
    denominator."""
    values = tuple(values)
    den = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def invert_exact(rows) -> tuple[list[list[Fraction]] | None, list]:
    """Gauss-Jordan inverse of a square matrix of exact scalars.

    Returns ``(inverse, pivots)``; the inverse is None when the matrix is
    singular.  ``pivots[c]`` is the diagonal entry that eliminates column c
    while no row has been exchanged yet, and None from the first exchange
    on.  Without exchanges the pivots are the ratios d_k / d_{k-1} of
    successive leading principal minors, so a symmetric matrix is positive
    definite exactly when every pivot is a positive number.
    """
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                          for j in range(n)]
            for i, row in enumerate(rows)]
    pivots: list = [None] * n
    exchanged = False
    for c in range(n):
        p = next((r for r in range(c, n) if work[r][c]), None)
        if p is None:
            return None, pivots
        if p != c:
            work[c], work[p] = work[p], work[c]
            exchanged = True
        if not exchanged:
            pivots[c] = work[c][c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            f = work[r][c]
            if r != c and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work], pivots

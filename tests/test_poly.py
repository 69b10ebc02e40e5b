"""The exact kernels of ``poly``: the elimination against a Leibniz-sum
determinant, and the integer form.

The oracle expands determinants over permutations and shares no code with
``fdcalc``.
"""
import itertools
import math
import random
from fractions import Fraction as F

from fdcalc.poly import integer_form, invert_exact


def leibniz_det(m):
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        term = F(sign)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def leading_minors(m):
    """d_0 = 1, d_1, ..., d_n."""
    return [F(1)] + [leibniz_det([row[:k] for row in m[:k]])
                     for k in range(1, len(m) + 1)]


def random_matrix(rng, n):
    """A rational matrix of one of five shapes: positive definite,
    symmetric, singular, zero in the leading corner, or unstructured."""
    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    shape = rng.choice(("pd", "symmetric", "singular", "zero-lead", "any"))
    m = [[entry() for _ in range(n)] for _ in range(n)]
    if shape == "pd":
        m = [[sum(m[i][k] * m[j][k] for k in range(n)) + (i == j)
              for j in range(n)] for i in range(n)]
    elif shape == "symmetric":
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    elif shape == "singular":
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        c = entry()
        m[i] = [c * x for x in m[j]] if i != j else [F(0)] * n
    elif shape == "zero-lead":
        m[0][0] = F(0)
    return m


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_kernel_matches_leibniz_oracle():
    rng = random.Random(61)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        inverse, pivots = invert_exact(m)
        minors = leading_minors(m)

        assert (inverse is None) == (minors[n] == 0)
        if inverse is not None:
            eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            assert matmul(m, inverse) == eye
            assert matmul(inverse, m) == eye

        assert len(pivots) == n
        for c in range(n):
            if all(minors[1:c + 2]):
                assert pivots[c] == minors[c + 1] / minors[c]
            else:
                assert pivots[c] is None

        positive = all(p is not None and p > 0 for p in pivots)
        assert positive == all(d > 0 for d in minors)
        seen.add((inverse is None, positive))
    assert seen == {(True, False), (False, False), (False, True)}


def test_kernel_leaves_its_input_alone():
    m = [[F(0), F(1)], [F(1), F(0)]]
    inverse, pivots = invert_exact(m)
    assert m == [[0, 1], [1, 0]]
    assert inverse == m and pivots == [None, None]


def test_kernel_on_the_empty_matrix():
    assert invert_exact([]) == ([], [])


def test_integer_form_over_the_least_denominator():
    rng = random.Random(5)
    for _ in range(200):
        values = [F(rng.randint(-20, 20), rng.randint(1, 12))
                  for _ in range(rng.randint(0, 6))] + [rng.randint(-3, 3)]
        nums, den = integer_form(values)
        assert all(type(n) is int for n in nums)
        assert [F(n, den) for n in nums] == values
        # A smaller common denominator would divide den and every numerator.
        assert math.gcd(den, *nums) == 1
    assert integer_form([]) == ((), 1)

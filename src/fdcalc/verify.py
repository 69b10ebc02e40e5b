"""Built-in consistency checks behind the ``verify`` CLI commands.

Every check fabricates its own instances deterministically (fixed seeds,
fixed diagram families), so two runs print byte-identical reports.  Each
returns a CheckResult: a verdict plus one line per case.  The checks
that need the numeric layer import ``gaussian`` themselves, ``fubini``
imports ``coverings`` itself, and ``expfz`` the census and the series, so
that the others never load them: ``wick`` loads ``gaussian`` and ``poly``
and none of the diagram machinery.  ``taylor``, and ``frt`` on an exact
algebra, compute in exact rationals and run without numpy; ``wick``
compares against quadrature, which loads it.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from .colours import ColourTable
from .diagram import (Diagram, Vertex, build_diagram, coupon_star,
                      cyclic_star, mark_root, symmetric_star)
from .poly import Poly

if TYPE_CHECKING:
    from .algebra import AlgebraSpec

WICK_CASES = 5
TAYLOR_CASES = 20
_SEED = 971203


class CheckResult(namedtuple("CheckResult", "name ok lines")):
    __slots__ = ()


def _random_pd(rng: random.Random, dim: int) -> list[list[Fraction]]:
    a = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
         for _ in range(dim)]
    return [[sum(a[i][k] * a[j][k] for k in range(dim))
             + (1 if i == j else 0) for j in range(dim)]
            for i in range(dim)]


def _random_poly(rng: random.Random, dim: int, max_degree: int,
                 terms: int) -> Poly:
    coeffs: dict = {}
    for _ in range(terms):
        e = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(dim)] += 1
        coeffs[tuple(e)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly(dim, coeffs)


def check_wick() -> CheckResult:
    """Pairing-sum moments against Gauss-Hermite quadrature, on
    ``WICK_CASES`` random polynomials of degree at most 8."""
    from .gaussian import (ABS_TOL, REL_TOL, GaussianSpec, poly_average,
                           quadrature_average)
    rng = random.Random(_SEED)
    lines, ok = [], True
    for i in range(WICK_CASES):
        dim = 1 + i % 3
        g = GaussianSpec(dim, _random_pd(rng, dim))
        p = _random_poly(rng, dim, 8, terms=6)
        exact = float(poly_average(p, g))
        quad = quadrature_average(p, g)
        good = abs(exact - quad) <= max(REL_TOL * max(abs(exact), abs(quad)),
                                        ABS_TOL)
        ok = ok and good
        lines.append(f"case {i + 1}\tdim {dim}\tdegree {p.degree()}\t"
                     f"pairing-sum {exact:.17g}\tquadrature {quad:.17g}\t"
                     f"{'agree' if good else 'DIFFER'}")
    return CheckResult("wick", ok, tuple(lines))


def check_taylor() -> CheckResult:
    """Star-diagram Taylor reconstruction against direct evaluation, on
    ``TAYLOR_CASES`` random polynomials of degree at most 6."""
    from .gaussian import taylor_stars
    rng = random.Random(_SEED + 1)
    lines, ok = [], True
    for i in range(TAYLOR_CASES):
        dim = 1 + i % 3
        p = _random_poly(rng, dim, 6, terms=5)
        v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                  for _ in range(dim))
        rep = taylor_stars(p, v)
        good = rep.groupoid_sum == rep.direct_value
        ok = ok and good
        lines.append(f"case {i + 1}\tdim {dim}\tstars {rep.groupoid_sum}\t"
                     f"direct {rep.direct_value}\t"
                     f"{'agree' if good else 'DIFFER'}")
    return CheckResult("taylor", ok, tuple(lines))


def check_exp_free_energy(table: ColourTable, max_degree: int) -> CheckResult:
    """exp of the connected census sum against ``Z``.

    ``F`` sums the census of connected classes and ``Z`` is the orbit-count
    push-forward, so the two sides share no code past the star multisets.
    The census runs first, so that an input either size rule of
    :mod:`fdcalc.generate` refuses fails with the census's message.
    """
    from .generate import enumerate_closed
    from .series import (format_monomial, groupoid_integral,
                         partition_series, sorted_terms)
    f = groupoid_integral(
        enumerate_closed(table, max_degree=max_degree, connected=True),
        table, max_degree)
    z = partition_series(table, max_degree)
    diff = z - f.exp()
    lines = [f"Z\t{format_monomial(m)}\t{c}" for m, c in sorted_terms(z)]
    lines += [f"F\t{format_monomial(m)}\t{c}" for m, c in sorted_terms(f)]
    lines.append(f"exp(F) - Z\t{'0' if not diff.coeffs else str(diff)}")
    return CheckResult("expfz", not diff.coeffs, tuple(lines))


def check_frt(a: AlgebraSpec, root: Diagram | None = None, *,
              with_potential: bool = False, max_degree: int = 8) -> CheckResult:
    """Diagram-sum expectation against the direct Gaussian average."""
    from .gaussian import frt_check
    g = root if root is not None else Diagram()
    rep = frt_check(g, a, with_potential=with_potential,
                    max_degree=max_degree)
    return CheckResult("frt", rep.match, tuple(rep.lines()))


# -- covering instances ------------------------------------------------------

def _figure_eight() -> Diagram:
    return build_diagram([("symmetric", "phi4", (0, 1, 2, 3))],
                         {0: 1, 1: 0, 2: 3, 3: 2})


def _theta() -> Diagram:
    return build_diagram([("symmetric", "phi3", (0, 1, 2)),
                          ("symmetric", "phi3", (3, 4, 5))],
                         {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2})


def _chain() -> Diagram:
    return build_diagram([("symmetric", "phi3", (0, 1, 2)),
                          ("symmetric", "phi3", (3, 4, 5))],
                         {0: 3, 3: 0})


def _rooted_figure_eight() -> Diagram:
    v = Vertex("symmetric", "phi4", (0, 1, 2, 3), root=True)
    return Diagram((v,), frozenset({(0, 1), (2, 3)}))


def _one_rooted_theta() -> Diagram:
    d = _theta()
    return Diagram((Vertex("symmetric", "phi3", (0, 1, 2), root=True),
                    d.vertices[1]), d.pairs)


def _half_rooted_star() -> Diagram:
    v = Vertex("symmetric", "phi4", (0, 1, 2, 3), root=True)
    return Diagram((v,), frozenset({(0, 1), (2, 3)}),
                   root_pairs=frozenset({(0, 1)}))


def _cyclic_loop() -> Diagram:
    return Diagram((Vertex("cyclic", "c4", (0, 1, 2, 3)),),
                   frozenset({(0, 1), (2, 3)}))


def check_coverings() -> CheckResult:
    """Pull-back, push-forward and projection identities on stock coverings."""
    from .coverings import (colouring_covering, covering_report,
                            cut_covering, numbering_covering)
    instances = [
        ("4-star", numbering_covering(symmetric_star("phi4", 4))),
        ("4-star as (2,2)",
         numbering_covering(symmetric_star("phi4", 4), n_in=2)),
        ("cyclic 3-star", numbering_covering(cyclic_star("c3", 3))),
        ("coupon (2,1)", numbering_covering(coupon_star("t21", 2, 1), n_in=1)),
        ("two-vertex chain", numbering_covering(_chain())),
        ("everything marked", cut_covering(mark_root(_figure_eight()))),
        ("figure eight", cut_covering(_rooted_figure_eight())),
        ("one-vertex theta", cut_covering(_one_rooted_theta())),
        ("half-rooted 4-star", cut_covering(_half_rooted_star())),
        ("figure eight / 2", colouring_covering(_figure_eight(), 2)),
        ("theta / 2", colouring_covering(_theta(), 2)),
        ("theta / 3", colouring_covering(_theta(), 3)),
        ("cyclic loop / 2", colouring_covering(_cyclic_loop(), 2)),
    ]
    rng = random.Random(_SEED + 2)
    lines, ok = [], True
    for label, cov in instances:
        rep = covering_report(cov, rng=rng)
        ok = ok and rep.ok
        lines.append(f"{cov.kind}\t{label}\tdegree {cov.degree}\t"
                     f"classes {len(cov.classes)}\t"
                     f"{'ok' if rep.ok else 'MISMATCH'}")
    return CheckResult("fubini", ok, tuple(lines))

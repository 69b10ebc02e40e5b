"""Acceptance suite: one test per shipped guarantee.

Each test is self-contained, deterministic and finishes well inside a
minute.  Exact identities are asserted as Fraction equalities; the two
numerical cross-checks carry pinned tolerances (1e-9 relative for the
quadrature comparison, 1e-10 for the Taylor reconstruction).
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

from fdcalc.algebra import AlgebraSpec
from fdcalc.coverings import (colouring_covering, covering_report,
                              cut_covering, numbering_covering)
from fdcalc.diagram import (Diagram, coupon_star, cyclic_star, disjoint_union,
                            mark_root, symmetric_star)
from fdcalc.dsl import format_table, parse_diagram
from fdcalc.gaussian import (GaussianSpec, frt_check, poly_average,
                             quadrature_average, taylor_stars)
from fdcalc.generate import enumerate_closed
from fdcalc.iso import canonical_code
from fdcalc.poly import Poly
from fdcalc.prop import edge_pairings
from fdcalc.series import (free_energy_series, groupoid_integral,
                           partition_series, rooted_series, variable_for)
from fdcalc.cli import main as cli_main

import io
from contextlib import redirect_stdout

from bruteforce import aut_order_bruteforce
from util import (coupon_table, cubic_table, cyclic_table, figure_eight,
                  mixed_table, quartic_table, random_diagram, run_python)

ALL_TABLES = [quartic_table, cubic_table, mixed_table, cyclic_table,
              coupon_table]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli_main(argv)
    return rc, out.getvalue()


def test_01_automorphism_counts_match_brute_force():
    corpus = []
    for maker in ALL_TABLES:
        corpus.extend(cls.rep for cls in enumerate_closed(maker(),
                                                          max_degree=8))
    rng = random.Random(20260819)
    while len(corpus) < 520:
        d = random_diagram(rng, max_vertices=3)
        if len(d.half_edges) <= 16:
            corpus.append(d)
    checked = 0
    for d in corpus:
        assert len(d.half_edges) <= 16
        assert canonical_code(d).aut_order == aut_order_bruteforce(d)
        checked += 1
    assert checked >= 500


def test_02_pairing_counts_follow_double_factorials():
    expected = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395, 7: 135135}
    for n in range(1, 8):
        rows = edge_pairings(2 * n)
        double_factorial = 1
        for k in range(1, 2 * n, 2):
            double_factorial *= k
        assert len(rows) == double_factorial == expected[n]
        codes = {canonical_code(t).code for t in rows}
        assert len(codes) == len(rows)
    assert edge_pairings(3) == []


def test_03_partition_function_is_exp_of_free_energy():
    # F from the census of connected classes, Z from the orbit count.
    for maker in (quartic_table, cubic_table, mixed_table):
        table = maker()
        z = partition_series(table, 12)
        f = groupoid_integral(
            enumerate_closed(table, max_degree=12, connected=True), table, 12)
        assert f.exp() == z
        assert z.log() == f == free_energy_series(table, 12)
    qt = quartic_table()
    z = partition_series(qt, 12)
    x = variable_for(qt, "phi4")
    assert z.coefficient(()) == 1
    assert z.coefficient(((x, 1),)) == F(1, 8)
    assert z.coefficient(((x, 2),)) == F(35, 384) == F(105, 1152)
    assert z.coefficient(((x, 3),)) == F(385, 3072)
    f = free_energy_series(qt, 12)
    assert f.coefficient(((x, 1),)) == F(1, 8)
    assert f.coefficient(((x, 2),)) == F(1, 12)
    assert f.coefficient(((x, 3),)) == F(11, 96)


def _random_pd(rng: random.Random, dim: int) -> list[list[F]]:
    a = [[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
    return [[sum(a[i][k] * a[j][k] for k in range(dim))
             + (1 if i == j else 0) for j in range(dim)]
            for i in range(dim)]


def test_04_moments_match_quadrature_to_1e9():
    rng = random.Random(424242)
    for dim in (1, 2, 3, 2, 3):
        g = GaussianSpec(dim, _random_pd(rng, dim))
        for total in range(9):
            for cuts in itertools.combinations_with_replacement(
                    range(dim), total):
                e = [0] * dim
                for i in cuts:
                    e[i] += 1
                p = Poly(dim, {tuple(e): F(1)})
                exact = float(poly_average(p, g))
                quad = quadrature_average(p, g)
                assert abs(exact - quad) <= max(
                    1e-9 * max(abs(exact), abs(quad)), 1e-12), (dim, e)


def test_05_expectations_match_gaussian_averages():
    cases = [
        ("empty", quartic_table(), {"phi4": [1]}, Diagram()),
        ("symmetric 4-star", quartic_table(), {"phi4": [1]},
         symmetric_star("PHI4", 4, special=True)),
        ("cyclic 3-star", cyclic_table(), {"psi3": [1]},
         cyclic_star("PSI3", 3, special=True)),
        ("coupon (2,2)-star", coupon_table(), {"t22": [1]},
         coupon_star("T22", 2, 2, special=True)),
    ]
    for label, table, tensors, root in cases:
        a = AlgebraSpec(1, [[1]], table, tensors)
        rep = frt_check(root, a, with_potential=True, max_degree=8)
        assert rep.match and rep.diff == 0, label

    star = symmetric_star("PHI4", 4, special=True)
    a = AlgebraSpec(1, [[1]], quartic_table(), {"phi4": [1]})
    bare = frt_check(star, a)
    assert bare.lhs.coefficient(()) == F(1, 8)
    assert bare.rhs.coefficient(()) == F(1, 8)


def _first_vertex_rooted(d: Diagram) -> Diagram:
    return Diagram((replace(d.vertices[0], root=True),) + d.vertices[1:],
                   d.pairs)


def test_06_covering_integral_identities():
    rng = random.Random(606)
    instances = []

    opens = [symmetric_star("phi4", 4), cyclic_star("psi3", 3),
             coupon_star("t22", 2, 2)]
    grabbed = 0
    while grabbed < 8:
        d = random_diagram(rng, max_vertices=3)
        if 0 < len(d.legs) <= 4 and len(d.half_edges) <= 12:
            opens.append(d)
            grabbed += 1
    for d in opens:
        instances.append(numbering_covering(d))
        instances.append(numbering_covering(d, n_in=len(d.legs) // 2))

    closed = []
    for maker, deg in ((quartic_table, 8), (cubic_table, 6),
                       (mixed_table, 7)):
        for cls in enumerate_closed(maker(), max_degree=deg):
            if cls.rep.vertices and len(cls.rep.vertices) <= 3:
                closed.append(cls.rep)
    for rep in closed:
        instances.append(cut_covering(_first_vertex_rooted(rep)))
    instances.append(cut_covering(mark_root(figure_eight())))

    for rep in closed:
        if len(rep.pairs) <= 4:
            instances.append(colouring_covering(rep, 2))
            instances.append(colouring_covering(rep, 3))

    assert len(instances) > 40
    for cov in instances:
        assert cov.cardinality_ok(), cov.kind
        report = covering_report(cov, rng=rng)
        assert report.ok, (cov.kind, cov.degree)


def test_07_coupling_derivatives_are_rooted_sums():
    qt = quartic_table()
    x4 = variable_for(qt, "phi4")
    z = partition_series(qt, 12)
    assert z.derivative(x4) == rooted_series(
        qt, symmetric_star("PHI4", 4, special=True), 8)

    z16 = partition_series(qt, 16)
    two = disjoint_union(symmetric_star("PHI4", 4, special=True),
                         symmetric_star("PHI4", 4, special=True))
    assert z16.derivative(x4).derivative(x4) == 2 * rooted_series(qt, two, 8)

    mt = mixed_table()
    x3 = variable_for(mt, "phi3")
    x4m = variable_for(mt, "phi4")
    zm = partition_series(mt, 15)
    pair = disjoint_union(symmetric_star("PHI3", 3, special=True),
                          symmetric_star("PHI4", 4, special=True))
    assert zm.derivative(x3).derivative(x4m) == rooted_series(mt, pair, 8)

    triple = disjoint_union(disjoint_union(
        symmetric_star("PHI3", 3, special=True),
        symmetric_star("PHI3", 3, special=True)),
        symmetric_star("PHI4", 4, special=True))
    third = zm.derivative(x3).derivative(x3).derivative(x4m)
    assert third == 2 * rooted_series(mt, triple, 5)


def test_08_reduced_series_times_z_is_full_series():
    qt = quartic_table()
    star = symmetric_star("PHI4", 4, special=True)
    full = rooted_series(qt, star, 8)
    reduced = rooted_series(qt, star, 8, reduced=True)
    z = partition_series(qt, 8)
    assert reduced * z == full
    # The census of reduced classes, against the push-forward over Z.
    assert reduced == groupoid_integral(
        enumerate_closed(qt, max_degree=8, root=star, reduced=True), qt, 8)
    assert full.coefficient(()) == F(1, 8)
    assert reduced.coefficient(()) == F(1, 8)


def test_09_star_sums_reproduce_polynomial_values():
    rng = random.Random(909)
    for case in range(20):
        dim = 1 + case % 3
        terms = {}
        for _ in range(5):
            e = [0] * dim
            for _ in range(rng.randint(0, 6)):
                e[rng.randrange(dim)] += 1
            terms[tuple(e)] = F(rng.randint(-9, 9), rng.randint(1, 9))
        p = Poly(dim, terms)
        v = tuple(F(rng.randint(-4, 4), rng.randint(1, 4))
                  for _ in range(dim))
        rep = taylor_stars(p, v)
        assert abs(rep.groupoid_sum - rep.direct_value) <= F(1, 10 ** 10)
        assert rep.groupoid_sum == rep.direct_value


def test_10_cli_round_trip_and_determinism(tmp_path):
    for maker in ALL_TABLES:
        table = maker()
        tbl = tmp_path / f"{maker.__name__}.tbl"
        tbl.write_text(format_table(table))
        argv = ["enumerate", "--table", str(tbl), "--max-degree", "8"]
        rc, out = _run_cli(argv)
        assert rc == 0
        assert _run_cli(argv) == (rc, out)
        classes = enumerate_closed(table, max_degree=8)
        rows = out.splitlines()
        assert len(rows) == len(classes)
        for row, cls in zip(rows, classes):
            _, aut, _, text = row.split("\t")
            code = canonical_code(parse_diagram(text, table))
            assert code.code == cls.key
            assert int(aut) == cls.aut

    theta_fd = tmp_path / "theta.fd"
    theta_fd.write_text("vertex a sym phi3 legs 3; vertex b sym phi3 legs 3;"
                        " edge a.1 - b.1; edge a.2 - b.2; edge a.3 - b.3;")
    cmd = ("-m", "fdcalc.cli", "aut", str(theta_fd))
    first, second = run_python(*cmd), run_python(*cmd)
    assert first.returncode == 0
    assert first.stdout.splitlines()[0] == "aut\t12"
    assert (first.stdout, first.stderr) == (second.stdout, second.stderr)

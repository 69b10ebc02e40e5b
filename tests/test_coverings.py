import random
from fractions import Fraction as F

import numpy as np
import pytest

from fdcalc.algebra import AlgebraSpec, amplitude, amplitude_coloured
from fdcalc.colours import standard_table
from fdcalc.coverings import (
    CoveringError, colouring_covering, covering_report, cut_covering,
    numbering_covering, reassemble,
)
from fdcalc.diagram import Diagram, Vertex, mark_root, symmetric_star
from fdcalc.generate import enumerate_closed
from fdcalc.iso import are_isomorphic, canonical_code
from util import figure_eight, quartic_table, random_diagram, theta


def rooted_figure_eight() -> Diagram:
    return Diagram((Vertex("symmetric", "PHI4", (0, 1, 2, 3), special=True,
                           root=True),),
                   frozenset({(0, 1), (2, 3)}))


def unmark(d: Diagram) -> Diagram:
    return Diagram(tuple(Vertex(v.kind, v.colour, v.slots, v.n_in, v.special)
                         for v in d.vertices), d.pairs)


# -- dropping the numbering ------------------------------------------------------

def test_numbering_covering_of_a_star():
    cov = numbering_covering(symmetric_star("phi4", 4), n_in=4)
    assert cov.degree == 24 and cov.base_aut == 24
    assert len(cov.classes) == 1
    (c,) = cov.classes
    assert c.count == 24 and c.aut == 1
    assert cov.cardinality_ok()


def test_numbering_covering_split_roles():
    # with 2 of 4 legs inward the numbered classes are still a single orbit
    cov = numbering_covering(symmetric_star("phi4", 4), n_in=2)
    assert cov.degree == 24
    assert sum(c.count for c in cov.classes) == 24
    assert cov.cardinality_ok()


def test_numbering_covering_closed_diagram_is_trivial():
    cov = numbering_covering(figure_eight(), n_in=0)
    assert cov.degree == 1 and len(cov.classes) == 1
    assert cov.classes[0].aut == cov.base_aut == 8


def test_numbering_covering_identities_random():
    rng = random.Random(77)
    seen = 0
    while seen < 12:
        d = random_diagram(rng, max_vertices=3)
        if len(d.legs) > 5:
            continue
        n_in = rng.randint(0, len(d.legs))
        rep = covering_report(numbering_covering(d, n_in), rng=rng)
        assert rep.ok, (d, n_in, rep)
        seen += 1


def test_numbering_covering_input_guard():
    with pytest.raises(CoveringError):
        numbering_covering(symmetric_star("phi4", 4), n_in=5)


# -- cutting at the root ---------------------------------------------------------

def test_cut_covering_of_the_rooted_figure_eight():
    cov = cut_covering(rooted_figure_eight())
    assert cov.degree == 24 and cov.base_aut == 8
    assert len(cov.classes) == 3
    assert all(c.aut == 1 and c.count == 8 for c in cov.classes)
    assert sum(F(1, c.aut) for c in cov.classes) == F(24, 8)
    for c in cov.classes:
        assert are_isomorphic(reassemble(c.rep), unmark(cov.base_rep))
    assert covering_report(cov, rng=random.Random(1)).ok


def test_cut_covering_counts_root_internal_edges_separately():
    # root piece with one of its own pairs kept: only two legs get cut
    root = Diagram((Vertex("symmetric", "PHI4", (0, 1, 2, 3),
                           special=True),), frozenset({(0, 1)}))
    marked = mark_root(root)
    psi = Diagram(marked.vertices, frozenset({(0, 1), (2, 3)}),
                  root_pairs=marked.root_pairs)
    cov = cut_covering(psi)
    assert cov.degree == 2
    assert covering_report(cov, rng=random.Random(2)).ok
    for c in cov.classes:
        assert are_isomorphic(reassemble(c.rep), unmark(psi))
        phi_t, _ = c.rep
        assert phi_t.base.bare_pairs  # the root-root edge leaves a bare edge


def test_cut_covering_over_rooted_enumeration():
    rng = random.Random(3)
    table = quartic_table()
    root = symmetric_star("PHI4", 4, special=True)
    classes = enumerate_closed(table, max_degree=8, root=root)
    assert classes
    for cls in classes:
        cov = cut_covering(cls.rep)
        assert cov.degree == 24
        assert covering_report(cov, rng=rng).ok, cls.rep
        for c in cov.classes:
            assert are_isomorphic(reassemble(c.rep), unmark(cls.rep))


def test_cut_covering_requires_marked_closed_input():
    with pytest.raises(CoveringError):
        cut_covering(symmetric_star("phi4", 4))
    with pytest.raises(CoveringError):
        cut_covering(figure_eight())


# -- colouring the edges ---------------------------------------------------------

def test_colouring_covering_figure_eight_two_colours():
    cov = colouring_covering(figure_eight(), 2)
    assert cov.degree == 4 and cov.base_aut == 8
    by_count = sorted((c.count, c.aut) for c in cov.classes)
    assert by_count == [(1, 8), (1, 8), (2, 4)]
    assert covering_report(cov, rng=random.Random(4)).ok


def test_colouring_covering_theta_two_colours():
    cov = colouring_covering(theta(), 2)
    assert cov.degree == 8 and cov.base_aut == 12
    by_count = sorted((c.count, c.aut) for c in cov.classes)
    assert by_count == [(1, 12), (1, 12), (3, 4), (3, 4)]
    assert covering_report(cov, rng=random.Random(5)).ok


def test_colouring_covering_identities_random():
    rng = random.Random(6)
    seen = 0
    while seen < 8:
        d = random_diagram(rng, max_vertices=3, closed=True)
        if not d.is_closed or len(d.pairs) > 5:
            continue
        n = rng.randint(1, 3)
        rep = covering_report(colouring_covering(d, n), rng=rng)
        assert rep.ok, (d, n, rep)
        seen += 1


def test_colouring_covering_guards():
    with pytest.raises(CoveringError):
        colouring_covering(symmetric_star("phi4", 4), 2)
    with pytest.raises(CoveringError):
        colouring_covering(figure_eight(), 0)


def test_colouring_fubini_with_amplitudes():
    # push-forward of the coloured amplitude is the plain amplitude, so the
    # Fubini identity ties the two groupoid integrals together exactly
    table = standard_table(("symmetric", "s3", 3))
    dim = 2
    rng = random.Random(7)
    raw = np.empty((dim,) * 3, dtype=object)
    for idx in np.ndindex(*raw.shape):
        raw[idx] = F(rng.randint(-2, 3))
    sym = raw + raw.transpose(0, 2, 1) + raw.transpose(1, 0, 2) \
        + raw.transpose(1, 2, 0) + raw.transpose(2, 0, 1) \
        + raw.transpose(2, 1, 0)
    eye = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    a = AlgebraSpec(dim, eye, table, {"s3": sym})
    d = theta("s3")
    cov = colouring_covering(d, dim)
    phi = [amplitude_coloured(c.rep, a) for c in cov.classes]
    rep = covering_report(cov, phi=phi, psi=amplitude(d, a))
    assert rep.ok
    pushed = sum(v * c.count for v, c in zip(phi, cov.classes))
    assert pushed == amplitude(d, a)


def test_cut_covering_aut_identity_matches_canonical():
    # spot check that class data really came from the marked diagram's group
    cov = cut_covering(rooted_figure_eight())
    assert canonical_code(cov.base_rep).aut_order == cov.base_aut

import itertools
import json
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcalc.algebra import (
    AlgebraError, AlgebraSpec, amplitude, amplitude_coloured,
    expectation_value, load_algebra, leg_polynomial, interaction_terms,
)
from fdcalc.colours import standard_table
from fdcalc.diagram import (
    Diagram, EMPTY, TypedDiagram, Vertex, bare_edge, connected_components,
    coupon_star, cyclic_star, expand_colourings, mark_root, relabel_typed,
    symmetric_star,
)
from fdcalc.poly import Poly
from fdcalc.prop import (
    DiagramError, braiding, closures, compose, identity, tensor,
)
from fdcalc.series import partition_series, rooted_series
from util import (
    figure_eight, quartic_table, random_diagram, random_relabelling,
    random_typed, theta,
)

EYE2 = [[F(1), F(0)], [F(0), F(1)]]


def ones_tensor(dim, valence):
    return np.full((dim,) * valence, F(1), dtype=object)


def ones_algebra(table, dim=1, pairing=None):
    if pairing is None:
        pairing = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    tensors = {e.name: ones_tensor(dim, e.valence) for e in table.ordinary()}
    return AlgebraSpec(dim, pairing, table, tensors)


def symmetrised(raw, entry):
    """Sum of ``raw`` over the slot group of the entry's kind."""
    n = entry.valence
    if entry.kind == "symmetric":
        return sum(raw.transpose(p) for p in itertools.permutations(range(n)))
    if entry.kind == "cyclic":
        rots = [tuple(range(r, n)) + tuple(range(r)) for r in range(n)]
        return sum(raw.transpose(p) for p in rots)
    return raw


def rand_tensor(rng, dim, entry):
    raw = np.empty((dim,) * entry.valence, dtype=object)
    for idx in np.ndindex(*raw.shape):
        raw[idx] = F(rng.randint(-2, 3))
    return symmetrised(raw, entry)


def rand_fractions(rng, dim, n):
    raw = np.empty((dim,) * n, dtype=object)
    for idx in np.ndindex(*raw.shape):
        raw[idx] = F(rng.randint(-3, 3), rng.randint(1, 4))
    return raw


RAND_TABLE = standard_table(
    ("symmetric", "s3", 3), ("symmetric", "s4", 4),
    ("cyclic", "c3", 3), ("coupon", "k21", (2, 1)))


def rand_algebra(rng, dim=2):
    tensors = {e.name: rand_tensor(rng, dim, e) for e in RAND_TABLE.ordinary()}
    return AlgebraSpec(dim, [[F(2), F(1)], [F(1), F(1)]], RAND_TABLE, tensors)


# -- amplitudes of elementary shapes ------------------------------------------

def test_wire_is_identity():
    a = ones_algebra(quartic_table(), dim=2, pairing=[[F(2), F(1)], [F(1), F(1)]])
    assert np.array_equal(amplitude(identity(1), a), a.eye)


def test_bare_edge_as_two_outputs_is_copairing():
    a = ones_algebra(quartic_table(), dim=2, pairing=[[F(2), F(0)], [F(0), F(1)]])
    cup = TypedDiagram(bare_edge(), (), (0, 1))
    assert np.array_equal(amplitude(cup, a), a.copairing)
    assert a.copairing[0, 0] == F(1, 2)


def test_bare_edge_as_two_inputs_is_pairing():
    a = ones_algebra(quartic_table(), dim=2, pairing=[[F(2), F(1)], [F(1), F(1)]])
    cap = TypedDiagram(bare_edge(), (0, 1), ())
    assert np.array_equal(amplitude(cap, a), a.pairing)


def test_braiding_is_swap():
    a = ones_algebra(quartic_table(), dim=2)
    sw = amplitude(braiding(1, 1), a)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        assert sw[i, j, k, l] == F(int(i == l and j == k))


def test_figure_eight_scalar():
    table = quartic_table()
    s = F(7)
    a = AlgebraSpec(1, [[F(1)]], table, {"phi4": np.full((1,) * 4, s, dtype=object)})
    assert amplitude(figure_eight(), a) == s
    # the special partner shares the tensor, so the amplitude agrees
    assert amplitude(figure_eight(special=True), a) == s


def test_empty_diagram_amplitude_is_one():
    a = ones_algebra(quartic_table())
    assert amplitude(EMPTY, a) == 1


def test_open_untyped_diagram_rejected():
    a = ones_algebra(quartic_table())
    with pytest.raises(AlgebraError):
        amplitude(symmetric_star("phi4", 4), a)


# -- contraction against a brute-force sum ------------------------------------

def brute_force_amplitude(t: TypedDiagram, a: AlgebraSpec):
    """The amplitude as a sum over every index assignment of the vertex
    half-edges and the numbered endpoints, one product of entries each.

    Every pair of ends carries the copairing, the identity or the pairing
    by how many of its ends are upper; coupon outputs and numbered inputs
    are upper.
    """
    d = t.base
    upper_halves = {h for v in d.vertices if v.kind == "coupon"
                    for h in v.slots[v.n_in:]}
    role = {h: ("in", k) for k, h in enumerate(t.ins)}
    role.update({h: ("out", k) for k, h in enumerate(t.outs)})

    def upper(x):
        return x in upper_halves if isinstance(x, int) else x[0] == "in"

    ends = [(role[h1], role[h2]) if (h1, h2) in d.bare_pairs else (h1, h2)
            for h1, h2 in d.pairs]
    ends += [(h, role[h]) for h in d.legs if h not in d.free_halves]
    mats = (a.copairing, a.eye, a.pairing)
    factors = [(a.tensor_for(v.colour), v.slots) for v in d.vertices]
    factors += [(mats[upper(x) + upper(y)], (x, y)) for x, y in ends]
    ext = [("in", k) for k in range(t.src)] + \
          [("out", k) for k in range(t.tgt)]
    variables = sorted(h for v in d.vertices for h in v.slots) + ext
    sums: dict[tuple, object] = {}
    for values in itertools.product(range(a.dim), repeat=len(variables)):
        at = dict(zip(variables, values))
        term = a.one()
        for arr, names in factors:
            term *= arr[tuple(at[x] for x in names)]
            if not term:
                break
        key = values[len(variables) - len(ext):]
        sums[key] = sums.get(key, 0) + term
    if not ext:
        return sums[()]
    out = np.empty((a.dim,) * len(ext), dtype=object)
    for key, value in sums.items():
        out[key] = value
    return out


def frac_algebra(rng, dim=2):
    """Exact algebra whose pairing, copairing and tensors all carry
    denominators, so the integer scaling is exercised."""
    tensors = {e.name: symmetrised(rand_fractions(rng, dim, e.valence), e)
               for e in RAND_TABLE.ordinary()}
    pairing = [[F(2, 3), F(1, 2)], [F(1, 2), F(3)]]
    return AlgebraSpec(dim, pairing, RAND_TABLE, tensors)


CUP = TypedDiagram(bare_edge(), (), (0, 1))
CAP = TypedDiagram(bare_edge(), (0, 1), ())
ORACLE_VARIABLES = 12


def oracle_case(rng) -> TypedDiagram:
    """A random typed diagram, sometimes closed, sometimes beside a wire."""
    if rng.random() < 0.25:
        d = random_diagram(rng, closed=True)
        t = TypedDiagram(d, (), d.legs)
    else:
        t = random_typed(rng)
    if rng.random() < 0.3:
        extra = rng.choice([identity(1), CUP, CAP])
        t = tensor(t, extra) if rng.random() < 0.5 else tensor(extra, t)
    return t


def _features(t: TypedDiagram) -> set[str]:
    d = t.base
    out = set()
    if any(d.vertex_of(h1) is not None and d.vertex_of(h1) == d.vertex_of(h2)
           for h1, h2 in d.pairs):
        out.add("self-loop")
    if d.bare_pairs:
        out.add("bare edge")
    if any(v.kind == "coupon" for v in d.vertices):
        out.add("coupon")
    if len(connected_components(d)) > 1:
        out.add("disconnected")
    if not t.ins and not t.outs:
        out.add("closed")
    return out


def _same(x, y) -> bool:
    return np.array_equal(np.asarray(x, dtype=object),
                          np.asarray(y, dtype=object))


def test_amplitude_matches_brute_force_sum():
    rng = random.Random(41)
    a = frac_algebra(rng)
    seen = set()
    done = 0
    while done < 60:
        t = oracle_case(rng)
        if sum(v.valence for v in t.base.vertices) + t.src + t.tgt \
                > ORACLE_VARIABLES:
            continue
        got = amplitude(t, a)
        assert _same(got, brute_force_amplitude(t, a))
        if not t.ins and not t.outs:
            assert isinstance(got, F)
        seen |= _features(t)
        done += 1
    assert seen == {"self-loop", "bare edge", "coupon", "disconnected",
                    "closed"}


RELABEL_ALGEBRA = frac_algebra(random.Random(43))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_amplitude_invariant_under_relabelling(rng):
    # Relabelling reorders the edge operands, so the planner's ties break
    # differently; the amplitude must not notice.
    t = oracle_case(rng)
    moved = relabel_typed(t, random_relabelling(t.base, rng))
    assert _same(amplitude(moved, RELABEL_ALGEBRA),
                 amplitude(t, RELABEL_ALGEBRA))


def test_float_algebra_close_to_exact():
    rng = random.Random(47)
    a = frac_algebra(rng)
    tensors = {name: arr.astype(float) for name, arr in a.tensors.items()}
    b = AlgebraSpec(a.dim, a.pairing.astype(float), a.table, tensors)
    assert not b.exact
    for _ in range(40):
        t = oracle_case(rng)
        exact = np.asarray(amplitude(t, a), dtype=object).astype(float)
        approx = np.asarray(amplitude(t, b), dtype=float)
        assert np.allclose(approx, exact, rtol=1e-9, atol=1e-12)


# -- construction guards -------------------------------------------------------

def test_unknown_colour_and_missing_tensor():
    table = quartic_table()
    a = AlgebraSpec(1, [[F(1)]], table, {})
    with pytest.raises(AlgebraError):
        amplitude(figure_eight(), a)
    with pytest.raises(AlgebraError):
        a.tensor_for("nonsense")


def test_pairing_must_be_symmetric_and_invertible():
    table = quartic_table()
    tensors = {"phi4": ones_tensor(2, 4)}
    with pytest.raises(AlgebraError):
        AlgebraSpec(2, [[F(1), F(1)], [F(0), F(1)]], table, tensors)
    with pytest.raises(AlgebraError):
        AlgebraSpec(2, [[F(1), F(1)], [F(1), F(1)]], table, tensors)


def test_exact_pairing_that_needs_a_row_exchange():
    # The swap is its own inverse; eliminating it exchanges the two rows.
    swap = [[F(0), F(1)], [F(1), F(0)]]
    a = AlgebraSpec(2, swap, quartic_table(), {"phi4": ones_tensor(2, 4)})
    assert a.exact
    assert a.copairing.shape == (2, 2)
    assert a.copairing.tolist() == swap
    assert all(type(x) is F for x in a.copairing.flat)
    with pytest.raises(AlgebraError, match="pairing matrix is singular"):
        AlgebraSpec(2, [[F(0), F(0)], [F(0), F(0)]], quartic_table(),
                    {"phi4": ones_tensor(2, 4)})


def test_exact_arrays_are_built_from_the_entries():
    # An exact algebra computes on integer forms; the arrays it hands out
    # are object arrays of Fractions, built once, equal to what it was given.
    rng = random.Random(19)
    tensors = {e.name: symmetrised(rand_fractions(rng, 2, e.valence), e)
               for e in RAND_TABLE.ordinary()}
    pairing = [[F(2, 3), F(1, 2)], [F(1, 2), F(3)]]
    a = AlgebraSpec(2, pairing, RAND_TABLE, tensors)
    assert a.pairing.tolist() == pairing and a.pairing is a.pairing
    assert a.pairing_rows() == pairing
    assert (a.pairing.dot(a.copairing) == a.eye).all()
    assert a.tensors.keys() == tensors.keys()
    for name, arr in tensors.items():
        assert a.tensors[name].shape == arr.shape
        assert np.array_equal(a.tensors[name], arr)
        assert a.tensor_for(name) is a.tensors[name]
    for arr in (a.pairing, a.copairing, a.eye, *a.tensors.values()):
        assert arr.dtype == object and all(type(x) is F for x in arr.flat)
    assert amplitude(CUP, a).dtype == object


def test_nested_and_flat_entries_agree():
    rng = random.Random(29)
    entry = RAND_TABLE["s4"]
    arr = rand_tensor(rng, 2, entry)
    for data in (arr, arr.tolist(), list(arr.flat), list(arr)):
        a = AlgebraSpec(2, EYE2, RAND_TABLE, {"s4": data})
        assert np.array_equal(a.tensors["s4"], arr)
    with pytest.raises(AlgebraError, match=r"shape \(2, 8\)"):
        AlgebraSpec(2, EYE2, RAND_TABLE, {"s4": arr.reshape(2, 8)})


def test_tensor_invariance_checked():
    table = standard_table(("cyclic", "c3", 3))
    bad = np.zeros((2,) * 3, dtype=object)
    bad[0, 0, 1] = F(1)  # rotating moves the entry
    with pytest.raises(AlgebraError):
        AlgebraSpec(2, EYE2, table, {"c3": bad})
    tsym = standard_table(("symmetric", "s2", 2))
    bad2 = np.array([[F(0), F(1)], [F(0), F(0)]], dtype=object)
    with pytest.raises(AlgebraError):
        AlgebraSpec(2, EYE2, tsym, {"s2": bad2})


def _invariant(arr, perm):
    return bool(np.all(arr == arr.transpose(perm)))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_symmetric_check_needs_both_generators(n):
    rng = random.Random(n)
    table = standard_table(("symmetric", "s", n))
    raw = rand_fractions(rng, 2, n)
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    # invariant under the n-cycle, not under a transposition
    cyc = sum(raw.transpose(cycle[r:] + cycle[:r]) for r in range(n))
    assert _invariant(cyc, cycle) and not _invariant(cyc, swap)
    with pytest.raises(AlgebraError, match="permutation invariant"):
        AlgebraSpec(2, EYE2, table, {"s": cyc})
    # invariant under a transposition, not under the n-cycle
    two = raw + raw.transpose(swap)
    assert _invariant(two, swap) and not _invariant(two, cycle)
    with pytest.raises(AlgebraError, match="permutation invariant"):
        AlgebraSpec(2, EYE2, table, {"s": two})


def test_cyclic_check_rejects_reflection_only():
    rng = random.Random(4)
    table = standard_table(("cyclic", "c4", 4))
    raw = rand_fractions(rng, 2, 4)
    reflection, rotation = (0, 3, 2, 1), (1, 2, 3, 0)
    refl = raw + raw.transpose(reflection)
    assert _invariant(refl, reflection) and not _invariant(refl, rotation)
    with pytest.raises(AlgebraError, match="rotation invariant"):
        AlgebraSpec(2, EYE2, table, {"c4": refl})


def test_symmetric_valence_six_accepted():
    table = standard_table(("symmetric", "s6", 6))
    sym = np.empty((2,) * 6, dtype=object)
    for idx in np.ndindex(*sym.shape):
        sym[idx] = F(1 + sum(idx), 1 + idx.count(0))
    a = AlgebraSpec(2, EYE2, table, {"s6": sym})
    assert "s6" in a.tensors


def test_tensors_only_on_ordinary_colours():
    table = quartic_table()
    with pytest.raises(AlgebraError):
        AlgebraSpec(1, [[F(1)]], table, {"PHI4": ones_tensor(1, 4)})


# -- PROP functoriality --------------------------------------------------------

def pad_to(t, src, _rng):
    if t.src < src:
        return tensor(t, identity(src - t.src))
    return t


def test_amplitude_functorial_under_compose():
    rng = random.Random(7)
    a = rand_algebra(rng)
    done = 0
    while done < 200:
        f = random_typed(rng)
        g = random_typed(rng)
        if g.src < f.tgt:
            g = tensor(g, identity(f.tgt - g.src))
        elif f.tgt < g.src:
            f = tensor(f, identity(g.src - f.tgt))
        try:
            both = compose(g, f)
        except DiagramError:
            continue  # closed a vertexless circle; outside the calculus
        ampf = np.asarray(amplitude(f, a))
        ampg = np.asarray(amplitude(g, a))
        expected = np.tensordot(
            ampf, ampg,
            axes=([f.src + i for i in range(f.tgt)], list(range(g.src))))
        assert np.array_equal(np.asarray(amplitude(both, a)), expected)
        done += 1


def test_amplitude_functorial_under_tensor():
    rng = random.Random(11)
    a = rand_algebra(rng)
    for _ in range(30):
        f = random_typed(rng)
        g = random_typed(rng)
        prod = tensor(f, g)
        ampf = np.asarray(amplitude(f, a))
        ampg = np.asarray(amplitude(g, a))
        outer = np.multiply.outer(ampf, ampg)
        # outer axes: f.in f.out g.in g.out -> want f.in g.in f.out g.out
        perm = (list(range(f.src))
                + [f.src + f.tgt + i for i in range(g.src)]
                + [f.src + i for i in range(f.tgt)]
                + [f.src + f.tgt + g.src + i for i in range(g.tgt)])
        assert np.array_equal(np.asarray(amplitude(prod, a)),
                              outer.transpose(perm) if perm else outer)


def test_braiding_involution_amplitude():
    rng = random.Random(3)
    a = rand_algebra(rng)
    both = compose(braiding(1, 1), braiding(1, 1))
    assert np.array_equal(np.asarray(amplitude(both, a)),
                          np.asarray(amplitude(identity(2), a)))


# -- polynomials ---------------------------------------------------------------

def test_polynomial_examples():
    table = quartic_table()
    a = ones_algebra(table)
    assert leg_polynomial(EMPTY, a) == Poly.constant(1, F(1))
    assert leg_polynomial(symmetric_star("phi4", 4), a) == Poly(1, {(4,): F(1)})
    tc = standard_table(("coupon", "k12", (1, 2)))
    ac = ones_algebra(tc)
    assert leg_polynomial(coupon_star("k12", 1, 2), ac) == Poly(1, {(3,): F(1)})


def test_polynomial_ignores_leg_numbering():
    rng = random.Random(23)
    a = rand_algebra(rng)
    chain = Diagram((Vertex("symmetric", "s3", (0, 1, 2)),
                     Vertex("symmetric", "s3", (3, 4, 5))),
                    frozenset({(2, 3)}))
    for d in (symmetric_star("s4", 4), cyclic_star("c3", 3),
              coupon_star("k21", 2, 1), chain):
        legs = tuple(d.legs)
        ref = None
        for perm in itertools.permutations(legs):
            amp = np.asarray(amplitude(TypedDiagram(d, perm, ()), a))
            poly = {}
            for idx in itertools.product(range(a.dim), repeat=len(legs)):
                if amp[idx]:
                    e = tuple(idx.count(i) for i in range(a.dim))
                    poly[e] = poly.get(e, 0) + amp[idx]
            if ref is None:
                ref = poly
            assert poly == ref


def test_potential_weights():
    a = ones_algebra(quartic_table())
    ((key, p),) = interaction_terms(a)
    assert key.name == "phi4" and key.grade == 4
    assert p == Poly(1, {(4,): F(1, 24)})

    ac = ones_algebra(standard_table(("cyclic", "psi3", 3)))
    ((_, pc),) = interaction_terms(ac)
    assert pc == Poly(1, {(3,): F(1, 3)})

    at = ones_algebra(standard_table(("coupon", "t22", (2, 2))))
    ((_, pt),) = interaction_terms(at)
    assert pt == Poly(1, {(4,): F(1)})


# -- expectation values ---------------------------------------------------------

def test_expectation_of_special_four_star():
    a = ones_algebra(quartic_table())
    e = expectation_value(symmetric_star("PHI4", 4, special=True), a)
    assert e.coefficient(()) == F(1, 8)
    assert e.coeffs == {(): F(1, 8)}


def test_expectation_odd_legs_vanishes():
    a = ones_algebra(quartic_table())
    e = expectation_value(symmetric_star("PHI4", 3, special=True), a)
    assert e.coeffs == {}


def _expectation_by_classes(d, a):
    """The constant term as once summed: one term per class that
    ``closures`` finds for the marked piece, amplitude over |Aut|."""
    return sum((F(amplitude(rep, a)) / aut
                for rep, _, aut in closures(mark_root(d))), F(0))


def float_algebra(rng):
    exact = rand_algebra(rng)
    return AlgebraSpec(2, [[2.0, 0.5], [0.5, 1.0]], RAND_TABLE,
                       {name: arr.astype(float)
                        for name, arr in exact.tensors.items()})


@pytest.mark.parametrize("make", [rand_algebra, frac_algebra, float_algebra])
def test_expectation_sums_orbits_as_classes(make):
    rng = random.Random(1441)
    a = make(rng)
    seen = 0
    while seen < 200:
        d = random_diagram(rng)
        if len(d.legs) % 2 or len(d.legs) > 10:
            continue
        e = expectation_value(d, a)
        assert e.coefficient(()) == _expectation_by_classes(d, a), d
        seen += 1


def test_expectation_of_empty_is_partition_series():
    table = quartic_table()
    a = ones_algebra(table)
    assert expectation_value(EMPTY, a).coefficient(()) == 1
    z = expectation_value(EMPTY, a, with_potential=True, max_degree=8)
    assert z == partition_series(table, 8)


def test_expectation_with_potential_matches_counting_series():
    table = quartic_table()
    a = ones_algebra(table)
    root = symmetric_star("PHI4", 4, special=True)
    got = expectation_value(root, a, with_potential=True, max_degree=8)
    assert got == rooted_series(table, root, 8)


def test_expectation_linear_in_the_polynomial():
    # A symmetric 4-star and a coupon (2,2)-star share P(v) = v^4 at N=1 up
    # to the 1/|Aut| weight, so their expectations differ by exactly 24.
    table = standard_table(("symmetric", "q4", 4), ("coupon", "t22", (2, 2)))
    a = ones_algebra(table)
    sym_root = symmetric_star("Q4", 4, special=True)
    cou_root = coupon_star("T22", 2, 2, special=True)
    es = expectation_value(sym_root, a, with_potential=True, max_degree=6)
    ec = expectation_value(cou_root, a, with_potential=True, max_degree=6)
    assert ec == 24 * es


# -- edge colourings -------------------------------------------------------------

def test_loop_colourings():
    table = standard_table(("symmetric", "o2", 2))
    a = AlgebraSpec(2, EYE2, table, {"o2": np.array(EYE2, dtype=object)})
    loop = Diagram((Vertex("symmetric", "o2", (0, 1)),), frozenset({(0, 1)}))
    assert amplitude(loop, a) == 2
    cs = expand_colourings(loop, 2)
    assert len(cs) == 2
    assert [amplitude_coloured(c, a) for c in cs] == [1, 1]


def test_colouring_sum_matches_uncoloured():
    rng = random.Random(5)
    tables = [standard_table(("symmetric", "s4", 4)),
              standard_table(("symmetric", "s3", 3)),
              standard_table(("cyclic", "c4", 4)),
              standard_table(("coupon", "t11", (1, 1)))]
    diagrams = [figure_eight("s4"),
                theta("s3"),
                Diagram((Vertex("cyclic", "c4", (0, 1, 2, 3)),),
                        frozenset({(0, 2), (1, 3)})),
                # an input-input edge and an output-output edge
                Diagram((Vertex("coupon", "t11", (0, 1), n_in=1),
                         Vertex("coupon", "t11", (2, 3), n_in=1)),
                        frozenset({(0, 2), (1, 3)}))]
    for dim in (1, 2, 3):
        eye = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
        for table, d in zip(tables, diagrams):
            entry = table.ordinary()[0]
            a = AlgebraSpec(dim, eye, table,
                            {entry.name: rand_tensor(rng, dim, entry)})
            target = amplitude(d, a)
            cols = expand_colourings(d, dim)
            assert len(cols) == dim ** len(d.pairs)
            assert sum(amplitude_coloured(c, a) for c in cols) == target


def test_colourings_refuse_skew_pairing():
    table = standard_table(("symmetric", "o2", 2))
    a = AlgebraSpec(2, [[F(2), F(0)], [F(0), F(1)]], table,
                    {"o2": np.array(EYE2, dtype=object)})
    loop = Diagram((Vertex("symmetric", "o2", (0, 1)),), frozenset({(0, 1)}))
    with pytest.raises(AlgebraError):
        amplitude_coloured(expand_colourings(loop, 2)[0], a)


def test_orthonormalized_preserves_closed_amplitudes():
    rng = random.Random(9)
    a = rand_algebra(rng)
    assert not a.is_orthonormal
    b = a.orthonormalized()
    assert b.is_orthonormal and not b.exact
    for d in (figure_eight("s4"), theta("s3")):
        va, vb = float(amplitude(d, a)), amplitude(d, b)
        assert abs(va - vb) <= 1e-9 * max(1.0, abs(va))
    # and once orthonormal, the colouring expansion applies
    d = theta("s3")
    total = sum(amplitude_coloured(c, b) for c in expand_colourings(d, b.dim))
    ref = amplitude(d, b)
    assert abs(total - ref) <= 1e-9 * max(1.0, abs(ref))


# -- file format ------------------------------------------------------------------

def algebra_doc():
    return {
        "dim": 1,
        "colours": [{"name": "phi4", "kind": "sym", "valence": 4,
                     "bold": "PHI4"}],
        "pairing": ["1"],
        "tensors": {"phi4": ["1"]},
    }


def test_load_algebra_exact_mode():
    a = load_algebra(json.dumps(algebra_doc()))
    assert a.exact and a.dim == 1
    assert expectation_value(symmetric_star("PHI4", 4, special=True), a
                             ).coefficient(()) == F(1, 8)


def test_load_algebra_upper_case_colour_gets_suffixed_partner():
    doc = algebra_doc()
    doc["colours"] = [{"name": "G", "kind": "sym", "valence": 4}]
    doc["tensors"] = {"G": ["1"]}
    a = load_algebra(doc)
    assert a.table["G"].bold == "G_S" and a.table["G_S"].special
    assert load_algebra(algebra_doc() | {"colours": [
        {"name": "phi4", "kind": "sym", "valence": 4}]}
        ).table["phi4"].bold == "PHI4"


def test_load_algebra_float_mode_and_flags():
    doc = algebra_doc()
    doc["pairing"] = [1.0]
    doc["tensors"] = {"phi4": [1.0]}
    a = load_algebra(doc)
    assert not a.exact
    doc["orthonormalize"] = True
    assert load_algebra(doc).is_orthonormal


# Documents that are not objects, objects with a missing field or a field
# of the wrong type, and entries that are no finite number: a zero
# denominator, a NaN, a literal that JSON reads as infinity and an integer
# beyond the doubles.
MALFORMED = ["[]", "3", "null", '"dim"'] + [
    json.dumps(algebra_doc()).replace('["1"]}', f"[{big}]}}")
    for big in ("1e400", 10 ** 400)] + [
    lambda doc: doc["colours"][0].pop("valence"),
    lambda doc: doc["colours"][0].pop("name"),
    lambda doc: doc["colours"][0].update(kind="coupon", inputs=2),
    lambda doc: doc["colours"].__setitem__(0, "phi4"),
    lambda doc: doc["colours"].__setitem__(0, ["phi4", "sym", 4]),
    lambda doc: doc.__setitem__("colours", 4),
    lambda doc: doc.__setitem__("tensors", ["1"]),
    lambda doc: doc.__setitem__("tensors", {"phi4": 1}),
    lambda doc: doc.__setitem__("pairing", None),
    lambda doc: doc.__setitem__("dim", None),
    lambda doc: doc.__setitem__("dim", -1),
    lambda doc: doc.__setitem__("pairing", ["1", "0", "0"]),
    lambda doc: doc.__setitem__("pairing", ["1/0"]),
    lambda doc: doc["tensors"].__setitem__("phi4", ["2/0"]),
    lambda doc: doc.__setitem__("pairing", [float("nan")]),
    lambda doc: doc["tensors"].__setitem__("phi4", [float("nan")]),
    lambda doc: doc["tensors"].__setitem__("phi4", [float("inf")]),
]


def test_load_algebra_errors():
    doc = algebra_doc()
    del doc["pairing"]
    with pytest.raises(AlgebraError):
        load_algebra(doc)
    doc = algebra_doc()
    doc["colours"][0]["kind"] = "weird"
    with pytest.raises(AlgebraError):
        load_algebra(doc)
    doc = algebra_doc()
    doc["tensors"] = {"PHI4": ["1"]}
    with pytest.raises(AlgebraError):
        load_algebra(doc)
    for case in MALFORMED:
        if isinstance(case, str):
            text = case
        else:
            doc = algebra_doc()
            case(doc)
            text = json.dumps(doc)
        with pytest.raises(AlgebraError):
            load_algebra(text)

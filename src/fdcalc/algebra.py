"""Evaluation of diagrams in a concrete tensor model.

An algebra assigns the coordinate space R^N to every wire, a symmetric
nondegenerate pairing matrix to edge formation, and one dense tensor to each
ordinary colour; the special partner of a colour shares its tensor (that is
the whole point of the partnership).  Cyclic and symmetric tensors consume
all of their slots, so every slot index is a lower index; coupon tensors map
their input slots to their output slots, so output indices are upper.

The amplitude of a typed diagram is the multilinear map obtained by
contracting vertex tensors along edges.  An edge joining two lower slots
inserts the copairing (the inverse matrix), one joining two upper slots
inserts the pairing, and a mixed edge composes directly.  Legs convert in
the same way so that input axes end up lower and output axes upper.  With
rational entries everything is exact; float entries switch the whole
algebra to double precision.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .colours import (
    KIND_OF_SHORT, KIND_SHORT, ColourEntry, ColourTable, ColourTableError,
    partner_name,
)
from .diagram import (
    Diagram, DiagramError, EdgeColouring, TypedDiagram, mark_root, star_for,
)
from .generate import closure_orbits, enumerate_closed
from .iso import aut_order
from .poly import Poly, invert_exact, is_exact
from .series import (
    DEFAULT_DEGREE, MultiSeries, VariableKey, groupoid_integral, variable_for,
)

SYMMETRY_TOL = 1e-10
COND_LIMIT = 1e12


class AlgebraError(ValueError):
    pass


def _as_tensor(data, shape: tuple[int, ...], exact: bool) -> np.ndarray:
    arr = np.asarray(data, dtype=object)
    if arr.shape != shape:
        if arr.ndim == 1 and arr.size == int(np.prod(shape, dtype=object)):
            arr = arr.reshape(shape)
        else:
            raise AlgebraError(
                f"tensor has shape {arr.shape}, expected {shape}")
    if exact:
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(*shape):
            out[idx] = Fraction(arr[idx])
        return out
    return arr.astype(float)


def _tensors_equal(a: np.ndarray, b: np.ndarray, exact: bool) -> bool:
    if exact:
        return bool(np.all(a == b))
    return float(np.max(np.abs(a - b), initial=0.0)) <= SYMMETRY_TOL


def _rotations(n: int):
    """The one rotation that generates the cyclic group on n slots."""
    return [tuple(range(1, n)) + (0,)] if n > 1 else []


def _permutations(n: int):
    """A transposition plus the n-cycle, which generate the symmetric group
    on n slots (for n = 2 the two coincide)."""
    if n < 2:
        return []
    return [(1, 0) + tuple(range(2, n))] + (_rotations(n) if n > 2 else [])


_over = np.frompyfunc(Fraction, 2, 1)
_scaled_numerator = np.frompyfunc(
    lambda x, den: x.numerator * (den // x.denominator), 2, 1)


def _integer_form(arr: np.ndarray, exact: bool) -> tuple[np.ndarray, int]:
    """An exact array as integer numerators over one common denominator;
    a float array passes through over 1."""
    if not exact:
        return arr, 1
    den = math.lcm(*(x.denominator for x in arr.flat))
    return _scaled_numerator(arr, den), den


# -- the algebra --------------------------------------------------------------

class AlgebraSpec:
    """Pairing plus one tensor per ordinary colour, exact or floating.

    ``tensors`` maps ordinary colour names to arrays (or flat row-major
    lists) of shape ``(dim,) * valence``; coupon axes run inputs first, then
    outputs, matching slot order.  The mode is inferred: when the pairing
    and all tensor entries are ints or Fractions the algebra computes
    exactly, otherwise in doubles.  Cyclic and symmetric tensors must carry
    the invariance their kind promises; this is checked at construction on
    generators of the group: the one rotation, or a transposition plus the
    rotation.  Exactly, that is the whole group; in doubles each generator
    is held to ``SYMMETRY_TOL``, and longer words may drift a little more.
    """

    def __init__(self, dim: int, pairing, table: ColourTable, tensors: dict):
        if dim < 1:
            raise AlgebraError("dim must be positive")
        self.dim = dim
        self.table = table

        flat = list(np.asarray(pairing, dtype=object).flat)
        for t in tensors.values():
            flat.extend(np.asarray(t, dtype=object).flat)
        self.exact = all(is_exact(x) for x in flat)

        self.pairing = _as_tensor(pairing, (dim, dim), self.exact)
        if not _tensors_equal(self.pairing, self.pairing.T, self.exact):
            raise AlgebraError("pairing matrix must be symmetric")
        if self.exact:
            inverse, _ = invert_exact(self.pairing.tolist())
            if inverse is None:
                raise AlgebraError("pairing matrix is singular")
            self.copairing = np.array(inverse, dtype=object)
            self.eye = np.array([[Fraction(int(i == j)) for j in range(dim)]
                                 for i in range(dim)], dtype=object)
        else:
            if np.linalg.cond(self.pairing) > COND_LIMIT:
                raise AlgebraError("pairing matrix is ill conditioned")
            self.copairing = np.linalg.inv(self.pairing)
            self.eye = np.eye(dim)

        self.tensors: dict[str, np.ndarray] = {}
        self._ordinary_of = {e.bold: e.name for e in table.ordinary()}
        for name, data in tensors.items():
            entry = table[name]
            if entry.special:
                raise AlgebraError(
                    f"tensors attach to ordinary colours, not {name!r}")
            arr = _as_tensor(data, (dim,) * entry.valence, self.exact)
            if entry.kind == "cyclic":
                for perm in _rotations(entry.valence):
                    if not _tensors_equal(arr, arr.transpose(perm), self.exact):
                        raise AlgebraError(
                            f"tensor {name!r} is not rotation invariant")
            elif entry.kind == "symmetric":
                for perm in _permutations(entry.valence):
                    if not _tensors_equal(arr, arr.transpose(perm), self.exact):
                        raise AlgebraError(
                            f"tensor {name!r} is not permutation invariant")
            self.tensors[name] = arr

        # Integer forms of the spec's own arrays, the only operands
        # `_contract` sees, keyed by id; the arrays live as long as the spec.
        self._forms = {
            id(arr): _integer_form(arr, self.exact)
            for arr in (self.pairing, self.copairing, self.eye,
                        *self.tensors.values())}

    def tensor_for(self, colour: str) -> np.ndarray:
        """The tensor of a colour; special colours borrow their partner's."""
        try:
            entry = self.table[colour]
        except ColourTableError as exc:
            raise AlgebraError(str(exc)) from None
        name = self._ordinary_of.get(colour, entry.name) if entry.special \
            else entry.name
        try:
            return self.tensors[name]
        except KeyError:
            raise AlgebraError(f"no tensor loaded for colour {colour!r}") from None

    @property
    def is_orthonormal(self) -> bool:
        return _tensors_equal(self.pairing, self.eye, self.exact)

    def orthonormalized(self) -> "AlgebraSpec":
        """Equivalent algebra in a basis where the pairing is the identity.

        Uses the lower-triangular square root B of the copairing, so the new
        basis vectors are B's columns; lower tensor axes contract with B and
        coupon output axes with its transposed inverse.  The result is a
        floating-point algebra (the factorization leaves the rationals).
        """
        g = self.pairing.astype(float)
        b = np.linalg.cholesky(np.linalg.inv(g))
        b_up = np.linalg.inv(b).T

        def convert(arr, entry):
            arr = arr.astype(float)
            n_up = 0 if entry.kind != "coupon" else entry.arity[1]
            val = entry.valence
            for ax in range(val):
                mat = b_up if ax >= val - n_up else b
                arr = np.moveaxis(np.tensordot(arr, mat, axes=([ax], [0])),
                                  -1, ax)
            return arr

        tensors = {name: convert(arr, self.table[name])
                   for name, arr in self.tensors.items()}
        return AlgebraSpec(self.dim, np.eye(self.dim), self.table, tensors)

    def one(self):
        return Fraction(1) if self.exact else 1.0


# -- amplitude engine ---------------------------------------------------------

def _upper_halves(d: Diagram) -> frozenset[int]:
    return frozenset(h for v in d.vertices if v.kind == "coupon"
                     for h in v.outs)


def _edge_operand(a: AlgebraSpec, up1: bool, up2: bool) -> np.ndarray:
    """The matrix joining two ends, given whether each end is upper.

    The pairing joins two upper ends, the copairing joins two lower ends,
    and the identity joins anything else.  A coupon output slot is an upper
    end, and so is an input endpoint, so that an input axis comes out lower
    and an output axis upper.
    """
    if up1 and up2:
        return a.pairing
    if up1 or up2:
        return a.eye
    return a.copairing


def _contract(ops: list[tuple[np.ndarray, list]], ext: list, a: AlgebraSpec):
    """Contract doubled labels away along a greedy pairwise plan.

    Every doubled label names an axis of two different operands.  While
    two operands share labels, the pair whose contraction has the fewest
    entries (ties to the lowest operand indices) is contracted over all the
    labels it shares in one step; outer products join what is left.  Exact
    operands enter as integer numerators, and the product of their
    denominators is divided out once at the end, so exact and float mode
    share the contraction.
    """
    counts = Counter(L for _, labs in ops for L in labs if isinstance(L, int))
    for lab in sorted(counts):
        if counts[lab] != 2:
            raise AlgebraError(f"label {lab} appears {counts[lab]} times")

    scale = 1
    work = {}  # operand id -> (array, labels); a merged pair keeps the lower id
    for k, (arr, labs) in enumerate(ops):
        ints, den = a._forms[id(arr)]
        scale *= den
        work[k] = (ints, list(labs))
    owners: dict[int, list[int]] = {}
    extent: dict[int, int] = {}
    for k, (arr, labs) in work.items():
        for L, n in zip(labs, arr.shape):
            if isinstance(L, int):
                owners.setdefault(L, []).append(k)
                extent[L] = n

    while owners:
        # the product of the shared extents of each pair of operands
        shared_size: dict[tuple[int, int], int] = {}
        for L, (i, j) in owners.items():
            shared_size[i, j] = shared_size.get((i, j), 1) * extent[L]
        i, j = min(shared_size, key=lambda p: (
            work[p[0]][0].size * work[p[1]][0].size // shared_size[p] ** 2,
            p))
        (x, lx), (y, ly) = work[i], work.pop(j)
        shared = [L for L in lx if L in ly]
        arr = np.asarray(np.tensordot(
            x, y, axes=([lx.index(L) for L in shared],
                        [ly.index(L) for L in shared])), dtype=x.dtype)
        work[i] = (arr, [L for L in lx + ly if L not in shared])
        for L in shared:
            del owners[L]
        for L in ly:
            if L in owners:
                owners[L] = sorted(i if k == j else k for k in owners[L])

    result, labels = None, []
    for arr, labs in work.values():
        result = arr if result is None else np.asarray(
            np.multiply.outer(result, arr), dtype=arr.dtype)
        labels += labs
    if result is None:
        return a.one()
    if result.ndim == 0:
        value = result.item()
        return Fraction(value, scale) if a.exact else value
    if a.exact:
        result = _over(result, scale)
    perm = [labels.index(L) for L in ext]
    return result.transpose(perm)


def amplitude(t: TypedDiagram | Diagram, a: AlgebraSpec):
    """The multilinear map of a typed diagram, as a dense array.

    Axes run through the numbered inputs and then the numbered outputs; a
    closed diagram yields a plain scalar.  Every colour must have a tensor
    in ``a``.  A bare Diagram is accepted when closed.
    """
    if isinstance(t, Diagram):
        if not t.is_closed:
            raise AlgebraError("open diagrams need numbered endpoints")
        t = TypedDiagram(t, (), ())
    d = t.base
    upper = _upper_halves(d)
    role = {h: ("in", k) for k, h in enumerate(t.ins)}
    role.update({h: ("out", k) for k, h in enumerate(t.outs)})

    ops: list[tuple[np.ndarray, list]] = []
    for v in d.vertices:
        ops.append((a.tensor_for(v.colour), list(v.slots)))
    for h1, h2 in sorted(d.pairs - d.bare_pairs):
        ops.append((_edge_operand(a, h1 in upper, h2 in upper), [h1, h2]))
    for h in d.legs:
        if h in d.free_halves:
            continue
        ops.append((_edge_operand(a, h in upper, role[h][0] == "in"),
                    [h, role[h]]))
    for f1, f2 in sorted(d.bare_pairs):
        r1, r2 = role[f1], role[f2]
        ops.append((_edge_operand(a, r1[0] == "in", r2[0] == "in"), [r1, r2]))

    ext = [("in", k) for k in range(t.src)] + \
          [("out", k) for k in range(t.tgt)]
    return _contract(ops, ext, a)


def leg_polynomial(d: Diagram, a: AlgebraSpec) -> Poly:
    """The polynomial v -> amplitude of ``d`` with every leg fed v.

    Independent of the order the legs are numbered in, since all of them
    receive the same vector.
    """
    legs = tuple(d.legs)
    amp = amplitude(TypedDiagram(d, legs, ()), a)
    if not legs:
        return Poly.constant(a.dim, amp)
    terms: dict[tuple[int, ...], object] = {}
    for idx in itertools.product(range(a.dim), repeat=len(legs)):
        c = amp[idx]
        if not c:
            continue
        e = tuple(idx.count(i) for i in range(a.dim))
        terms[e] = terms.get(e, 0) + c
    return Poly(a.dim, terms)


def interaction_terms(a: AlgebraSpec) -> tuple[tuple[VariableKey, Poly], ...]:
    """Interaction terms: one (variable, star polynomial / |Aut star|) per
    ordinary colour of ``a``'s table.  The star's own automorphisms supply
    the weight, which lands on 1/n! for symmetric, 1/n for cyclic and 1 for
    coupon colours.
    """
    out = []
    for entry in sorted(a.table.ordinary(), key=lambda e: e.name):
        star = star_for(entry)
        p = leg_polynomial(star, a) * Fraction(1, aut_order(star))
        out.append((variable_for(a.table, entry.name), p))
    return tuple(out)


def expectation_value(g: Diagram, a: AlgebraSpec, *,
                      with_potential: bool = False,
                      max_degree: int = DEFAULT_DEGREE) -> MultiSeries:
    """Sum of closed-diagram amplitudes around ``g``, weighted by 1/|Aut|.

    Without the potential the sum runs over the closures of ``g`` alone and
    the series is constant; with it, over all closed diagrams of bounded
    degree containing ``g`` as the marked piece.  The closures of the marked
    piece are one per orbit of its automorphisms, and each orbit is a class:
    an isomorphism of two closures keeps the marked piece, so it restricts
    to an automorphism of it.  An odd number of legs leaves nothing to sum
    in the constant case, so the result is 0 rather than an error.  A
    negative ``max_degree`` raises :class:`DiagramError` either way, and so
    does a piece that :func:`fdcalc.generate.closure_orbits` refuses.
    """
    if max_degree < 0:
        raise DiagramError("max_degree must be nonnegative")
    if with_potential:
        classes = enumerate_closed(a.table, max_degree=max_degree, root=g)
        return groupoid_integral(classes, a.table, max_degree,
                                 weight=lambda rep: amplitude(rep, a))
    total = Fraction(0)
    for rep, _ in closure_orbits(mark_root(g)):
        total += Fraction(amplitude(rep, a)) / aut_order(rep)
    return MultiSeries.constant(total, max_degree)


# -- edge colourings ----------------------------------------------------------

def amplitude_coloured(c: EdgeColouring, a: AlgebraSpec):
    """Amplitude with each coloured edge replaced by the projection onto its
    basis line.  Only meaningful over an orthonormal pairing; summing over
    all colourings then recovers the plain amplitude.

    Over an orthonormal pairing every edge operand is the identity, so both
    ends of each edge sit at the edge's colour, no index is left to sum,
    and the value is the product of one entry of each vertex tensor.
    """
    if not a.is_orthonormal:
        raise AlgebraError("edge colourings need an orthonormalized algebra")
    if not c.base.is_closed:
        raise AlgebraError("open diagrams need numbered endpoints")
    colour = {h: k for p, k in c.eta for h in p}
    value = a.one()
    for v in c.base.vertices:
        value = value * a.tensor_for(v.colour)[tuple(colour[h]
                                                     for h in v.slots)]
    return value if a.exact else float(value)


# -- file format --------------------------------------------------------------

def _parse_number(x):
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, bool):
        raise AlgebraError("booleans are not numbers")
    return float(x)


def load_algebra(src: str | dict) -> AlgebraSpec:
    """Read an algebra from its JSON document (text or parsed).

    Fields: ``dim``; ``colours`` (name, kind, valence or inputs/outputs,
    bold partner name); ``pairing`` and per-colour ``tensors`` as row-major
    flat arrays whose entries are numbers or exact "p/q" strings; optional
    ``orthonormalize`` flag.  All-string entries select the exact mode.  A
    colour without ``bold`` gets the partner :func:`partner_name` gives.
    """
    data = json.loads(src) if isinstance(src, str) else src
    try:
        dim = int(data["dim"])
        colours = data["colours"]
        pairing = [_parse_number(x) for x in data["pairing"]]
        raw_tensors = data["tensors"]
        entries = []
        for c in colours:
            kind = KIND_OF_SHORT.get(c.get("kind"), c.get("kind"))
            if kind not in KIND_SHORT:
                raise AlgebraError(f"unknown colour kind {c.get('kind')!r}")
            if kind == "coupon":
                arity = (int(c["inputs"]), int(c["outputs"]))
            else:
                arity = int(c["valence"])
            bold = c.get("bold", partner_name(c["name"]))
            entries.append(ColourEntry(bold, kind, arity, special=True))
            entries.append(ColourEntry(c["name"], kind, arity, bold=bold))
        table = ColourTable(entries)
        tensors = {name: [_parse_number(x) for x in flat]
                   for name, flat in raw_tensors.items()}
    except KeyError as exc:
        raise AlgebraError(f"algebra file lacks field {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise AlgebraError(f"malformed algebra file: {exc}") from None
    except ColourTableError as exc:
        raise AlgebraError(str(exc)) from None

    spec = AlgebraSpec(dim, pairing, table, tensors)
    if data.get("orthonormalize"):
        spec = spec.orthonormalized()
    return spec

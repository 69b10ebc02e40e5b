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
the same way so that input axes end up lower and output axes upper.

With rational entries everything is exact and runs on ``fractions`` alone:
each operand is a flat row-major tuple of integer numerators over one
common denominator, and the contraction sums products of Python ints.
Float entries switch the whole algebra to double precision, computed by
numpy.  numpy is imported only for float algebras and for the public names
that hand out arrays: the ``pairing``, ``copairing``, ``eye`` and
``tensors`` of an exact algebra are built as object arrays when first read,
and so is the amplitude of an open diagram.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import mul

from .colours import (
    KIND_OF_SHORT, KIND_SHORT, ColourEntry, ColourTable, ColourTableError,
    partner_name,
)
from .diagram import (
    Diagram, DiagramError, EdgeColouring, TypedDiagram, mark_root, star_for,
)
from .generate import closure_orbits, enumerate_closed
from .iso import aut_order
from .poly import Poly, integer_form, invert_exact, is_exact
from .series import (
    DEFAULT_DEGREE, MultiSeries, VariableKey, groupoid_integral, variable_for,
)

SYMMETRY_TOL = 1e-10
COND_LIMIT = 1e12


class AlgebraError(ValueError):
    pass


# -- flat tensors -------------------------------------------------------------
#
# A tensor with ``dim`` values per axis is a flat sequence of its entries in
# row-major order.

def _entries(data) -> tuple[tuple[int, ...], list]:
    """The shape and the row-major entries of nested lists, read the way
    numpy reads them; an array, at any depth, is read through its
    ``tolist``."""
    shape, level = [], [data]
    while True:
        level = [x.tolist() if hasattr(x, "tolist") else x for x in level]
        if not (all(isinstance(x, (list, tuple)) for x in level)
                and len({len(x) for x in level}) == 1):
            return tuple(shape), level
        shape.append(len(level[0]))
        level = [y for x in level for y in x]


def _as_tensor(entries, shape: tuple[int, ...], exact: bool) -> list:
    """The entries that :func:`_entries` read, checked against ``shape``
    (a flat list of the right length passes) and converted to Fractions or
    floats."""
    got, flat = entries
    if got != shape and not (len(got) == 1 and len(flat) == math.prod(shape)):
        raise AlgebraError(f"tensor has shape {got}, expected {shape}")
    return [Fraction(x) if exact else float(x) for x in flat]


def _transposed(vals, dim: int, perm) -> list:
    """The entries of a tensor after numpy's ``transpose(perm)``: axis k of
    the result is axis ``perm[k]`` of ``vals``."""
    if all(k == p for k, p in enumerate(perm)):
        return vals
    offsets = [0]
    for axis in perm:
        step = dim ** (len(perm) - 1 - axis)
        offsets = [o + i * step for o in offsets for i in range(dim)]
    return [vals[o] for o in offsets]


def _equal(x, y, exact: bool) -> bool:
    """Entrywise equality, exact or to ``SYMMETRY_TOL``; a NaN is unequal
    to everything."""
    if exact:
        return all(u == v for u, v in zip(x, y))
    return all(abs(u - v) <= SYMMETRY_TOL for u, v in zip(x, y))


def _rotations(n: int):
    """The one rotation that generates the cyclic group on n slots."""
    return [tuple(range(1, n)) + (0,)] if n > 1 else []


def _permutations(n: int):
    """A transposition plus the n-cycle, which generate the symmetric group
    on n slots (for n = 2 the two coincide)."""
    if n < 2:
        return []
    return [(1, 0) + tuple(range(2, n))] + (_rotations(n) if n > 2 else [])


# -- the algebra --------------------------------------------------------------

class AlgebraSpec:
    """Pairing plus one tensor per ordinary colour, exact or floating.

    ``tensors`` maps ordinary colour names to arrays (or nested or flat
    row-major lists) of shape ``(dim,) * valence``; coupon axes run inputs
    first, then outputs, matching slot order.  The mode is inferred: when
    the pairing and all tensor entries are ints or Fractions the algebra
    computes exactly, otherwise in doubles.  Cyclic and symmetric tensors
    must carry the invariance their kind promises; this is checked at
    construction on generators of the group: the one rotation, or a
    transposition plus the rotation.  Exactly, that is the whole group; in
    doubles each generator is held to ``SYMMETRY_TOL``, and longer words may
    drift a little more.

    An exact algebra keeps every operand in its integer form and builds the
    numpy arrays ``pairing``, ``copairing``, ``eye`` and ``tensors`` only
    when they are read; a float algebra holds them from the start.
    """

    def __init__(self, dim: int, pairing, table: ColourTable, tensors: dict):
        if dim < 1:
            raise AlgebraError("dim must be positive")
        self.dim = dim
        self.table = table

        pairing = _entries(pairing)
        raw = {name: _entries(data) for name, data in tensors.items()}
        self.exact = all(is_exact(x) for _, flat in (pairing, *raw.values())
                         for x in flat)

        flat = _as_tensor(pairing, (dim, dim), self.exact)
        if not _equal(flat, _transposed(flat, dim, (1, 0)), self.exact):
            raise AlgebraError("pairing matrix must be symmetric")
        rows = [flat[i * dim:(i + 1) * dim] for i in range(dim)]
        # The operands `_contract` sees: integer forms when exact, float
        # arrays otherwise.
        if self.exact:
            inverse, _ = invert_exact(rows)
            if inverse is None:
                raise AlgebraError("pairing matrix is singular")
            self._pairing, self._copairing, self._eye = map(integer_form, (
                flat, [x for row in inverse for x in row],
                [Fraction(int(i == j)) for i in range(dim)
                 for j in range(dim)]))
        else:
            import numpy as np
            self._pairing = np.array(rows, dtype=float)
            if np.linalg.cond(self._pairing) > COND_LIMIT:
                raise AlgebraError("pairing matrix is ill conditioned")
            self._copairing = np.linalg.inv(self._pairing)
            self._eye = np.eye(dim)

        self._ordinary_of = {e.bold: e.name for e in table.ordinary()}
        self._tensors = {}
        for name, data in raw.items():
            entry = table[name]
            if entry.special:
                raise AlgebraError(
                    f"tensors attach to ordinary colours, not {name!r}")
            shape = (dim,) * entry.valence
            flat = _as_tensor(data, shape, self.exact)
            if entry.kind == "cyclic":
                for perm in _rotations(entry.valence):
                    if not _equal(flat, _transposed(flat, dim, perm),
                                  self.exact):
                        raise AlgebraError(
                            f"tensor {name!r} is not rotation invariant")
            elif entry.kind == "symmetric":
                for perm in _permutations(entry.valence):
                    if not _equal(flat, _transposed(flat, dim, perm),
                                  self.exact):
                        raise AlgebraError(
                            f"tensor {name!r} is not permutation invariant")
            self._tensors[name] = (
                integer_form(flat) if self.exact
                else np.array(flat, dtype=float).reshape(shape))

    def _array(self, form, rank: int):
        """The public array of an operand: a float one is its own array, an
        exact one becomes an object array of Fractions."""
        if not self.exact:
            return form
        import numpy as np
        ints, den = form
        return np.array([Fraction(n, den) for n in ints],
                        dtype=object).reshape((self.dim,) * rank)

    @cached_property
    def pairing(self):
        return self._array(self._pairing, 2)

    @cached_property
    def copairing(self):
        return self._array(self._copairing, 2)

    @cached_property
    def eye(self):
        return self._array(self._eye, 2)

    @cached_property
    def tensors(self) -> dict:
        return {name: self._array(form, self.table[name].valence)
                for name, form in self._tensors.items()}

    def pairing_rows(self) -> list[list]:
        """The pairing as nested lists of Fractions or floats, without
        building its array."""
        if not self.exact:
            return self._pairing.tolist()
        ints, den = self._pairing
        return [[Fraction(n, den) for n in ints[i:i + self.dim]]
                for i in range(0, len(ints), self.dim)]

    def _tensor_name(self, colour: str) -> str:
        """The ordinary colour whose tensor ``colour`` carries; special
        colours borrow their partner's."""
        try:
            entry = self.table[colour]
        except ColourTableError as exc:
            raise AlgebraError(str(exc)) from None
        name = self._ordinary_of.get(colour, entry.name) if entry.special \
            else entry.name
        if name not in self._tensors:
            raise AlgebraError(f"no tensor loaded for colour {colour!r}")
        return name

    def tensor_for(self, colour: str):
        """The tensor of a colour; special colours borrow their partner's."""
        return self.tensors[self._tensor_name(colour)]

    def _entry(self, colour: str, idx: tuple[int, ...]):
        """One entry of the tensor of a colour."""
        form = self._tensors[self._tensor_name(colour)]
        if not self.exact:
            return form[idx]
        ints, den = form
        offset = 0
        for i in idx:
            offset = offset * self.dim + i
        return Fraction(ints[offset], den)

    @property
    def is_orthonormal(self) -> bool:
        if self.exact:
            return self._pairing == self._eye
        return _equal(self._pairing.flat, self._eye.flat, False)

    def orthonormalized(self) -> "AlgebraSpec":
        """Equivalent algebra in a basis where the pairing is the identity.

        Uses the lower-triangular square root B of the copairing, so the new
        basis vectors are B's columns; lower tensor axes contract with B and
        coupon output axes with its transposed inverse.  The result is a
        floating-point algebra (the factorization leaves the rationals).
        """
        import numpy as np
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


def _edge_operand(a: AlgebraSpec, up1: bool, up2: bool):
    """The matrix joining two ends, given whether each end is upper.

    The pairing joins two upper ends, the copairing joins two lower ends,
    and the identity joins anything else.  A coupon output slot is an upper
    end, and so is an input endpoint, so that an input axis comes out lower
    and an output axis upper.
    """
    if up1 and up2:
        return a._pairing
    if up1 or up2:
        return a._eye
    return a._copairing


def _dot_exact(x, lx, y, ly, shared, dim):
    """Tensordot of flat integer tensors over the ``shared`` labels; the
    result's axes are the other labels of ``x``, then those of ``y``."""
    free_x = [L for L in lx if L not in shared]
    free_y = [L for L in ly if L not in shared]
    xs = _transposed(x, dim, [lx.index(L) for L in free_x + shared])
    ys = _transposed(y, dim, [ly.index(L) for L in free_y + shared])
    n = dim ** len(shared)
    rows = [xs[k:k + n] for k in range(0, len(xs), n)]
    cols = [ys[k:k + n] for k in range(0, len(ys), n)]
    return [sum(map(mul, r, c)) for r in rows for c in cols], free_x + free_y


def _outer_exact(x, y):
    return [u * v for u in x for v in y]


def _dot_float(x, lx, y, ly, shared, dim):
    import numpy as np
    arr = np.asarray(np.tensordot(
        x, y, axes=([lx.index(L) for L in shared],
                    [ly.index(L) for L in shared])), dtype=x.dtype)
    return arr, [L for L in lx + ly if L not in shared]


def _outer_float(x, y):
    import numpy as np
    return np.asarray(np.multiply.outer(x, y), dtype=y.dtype)


def _contract(ops: list[tuple[object, list]], ext: list,
              a: AlgebraSpec) -> list:
    """Contract doubled labels away along a greedy pairwise plan.

    Every doubled label names an axis of two different operands.  While
    two operands share labels, the pair whose contraction has the fewest
    entries (ties to the lowest operand indices) is contracted over all the
    labels it shares in one step; outer products join what is left.  Exact
    operands enter as integer numerators, contracted in Python ints, and
    the product of their denominators is divided out once at the end;
    float operands are contracted by numpy.  Returns the entries of the
    result over the labels ``ext``, in row-major order.
    """
    counts = Counter(L for _, labs in ops for L in labs if isinstance(L, int))
    for lab in sorted(counts):
        if counts[lab] != 2:
            raise AlgebraError(f"label {lab} appears {counts[lab]} times")

    dim = a.dim
    dot, outer = ((_dot_exact, _outer_exact) if a.exact
                  else (_dot_float, _outer_float))
    scale = 1
    # operand id -> (entries, labels); a merged pair keeps the lower id
    work = {}
    for k, (form, labs) in enumerate(ops):
        if a.exact:
            form, den = form
            scale *= den
        work[k] = (form, list(labs))
    owners: dict[int, list[int]] = {}
    for k, (_, labs) in work.items():
        for L in labs:
            if isinstance(L, int):
                owners.setdefault(L, []).append(k)

    while owners:
        # the number of labels each pair of operands shares
        shared_count = Counter(tuple(pair) for pair in owners.values())
        i, j = min(shared_count, key=lambda p: (
            dim ** (len(work[p[0]][1]) + len(work[p[1]][1])
                    - 2 * shared_count[p]), p))
        (x, lx), (y, ly) = work[i], work.pop(j)
        shared = [L for L in lx if L in ly]
        work[i] = dot(x, lx, y, ly, shared, dim)
        for L in shared:
            del owners[L]
        for L in ly:
            if L in owners:
                owners[L] = sorted(i if k == j else k for k in owners[L])

    result, labels = None, []
    for x, labs in work.values():
        result = x if result is None else outer(result, x)
        labels += labs
    if result is None:
        return [a.one()]
    perm = [labels.index(L) for L in ext]
    if a.exact:
        return [Fraction(n, scale) for n in _transposed(result, dim, perm)]
    if result.ndim == 0:
        return [result.item()]
    return list(result.transpose(perm).flat)


def _operands(t: TypedDiagram, a: AlgebraSpec) -> tuple[list, list]:
    """The operands of a typed diagram's contraction, each with the labels
    of its axes, and the labels of the result's axes."""
    d = t.base
    upper = _upper_halves(d)
    role = {h: ("in", k) for k, h in enumerate(t.ins)}
    role.update({h: ("out", k) for k, h in enumerate(t.outs)})

    ops: list[tuple[object, list]] = []
    for v in d.vertices:
        ops.append((a._tensors[a._tensor_name(v.colour)], list(v.slots)))
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
    return ops, ext


def amplitude(t: TypedDiagram | Diagram, a: AlgebraSpec):
    """The multilinear map of a typed diagram, as a dense numpy array.

    Axes run through the numbered inputs and then the numbered outputs; a
    closed diagram yields a plain scalar, and needs no numpy when ``a`` is
    exact.  Every colour must have a tensor in ``a``.  A bare Diagram is
    accepted when closed.
    """
    if isinstance(t, Diagram):
        if not t.is_closed:
            raise AlgebraError("open diagrams need numbered endpoints")
        t = TypedDiagram(t, (), ())
    ops, ext = _operands(t, a)
    entries = _contract(ops, ext, a)
    if not ext:
        return entries[0]
    import numpy as np
    return np.array(entries, dtype=object if a.exact else float).reshape(
        (a.dim,) * len(ext))


def leg_polynomial(d: Diagram, a: AlgebraSpec) -> Poly:
    """The polynomial v -> amplitude of ``d`` with every leg fed v.

    Independent of the order the legs are numbered in, since all of them
    receive the same vector.
    """
    legs = tuple(d.legs)
    entries = _contract(*_operands(TypedDiagram(d, legs, ()), a), a)
    if not legs:
        return Poly.constant(a.dim, entries[0])
    terms: dict[tuple[int, ...], object] = {}
    for idx, c in zip(itertools.product(range(a.dim), repeat=len(legs)),
                      entries):
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
        value = value * a._entry(v.colour, tuple(colour[h] for h in v.slots))
    return value if a.exact else float(value)


# -- file format --------------------------------------------------------------

def _parse_number(x):
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise AlgebraError(f"entry {x!r} divides by zero") from None
    if isinstance(x, bool):
        raise AlgebraError("booleans are not numbers")
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise AlgebraError(f"entries must be finite, not {value}")
    return value


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

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

Every operand has one form in both modes: its row-major entries over a
denominator.  Rational entries are integer numerators over their least
common denominator, and float entries a flat float64 array over 1.  The
mode is decided only where numbers are made, where the pairing is
inverted, in the pairwise dot (products of Python ints, or numpy's
``tensordot``) and in the final scaling, so an exact algebra runs on
``fractions`` alone.  numpy is imported only for float algebras and for the
public names that hand out arrays: the ``pairing``, ``copairing``, ``eye``
and ``tensors`` are built when first read, in both modes, and so is the
amplitude of an open diagram.
"""
from __future__ import annotations

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
    Diagram, DiagramError, EdgeColouring, TypedDiagram, degree, mark_root,
    star_for,
)
from .generate import closure_orbits, star_bases
from .iso import automorphism_generators
from .poly import (
    SYMMETRY_TOL, Poly, exponent_vectors, has_shape, integer_form,
    invert_exact, is_exact, row_major,
)
from .series import (
    DEFAULT_DEGREE, MultiSeries, VariableKey, diagram_monomial, variable_for,
)

COND_LIMIT = 1e12


class AlgebraError(ValueError):
    pass


# -- flat tensors -------------------------------------------------------------
#
# A tensor with ``dim`` values per axis is a flat sequence of its entries in
# row-major order.

def _as_tensor(read, shape: tuple[int, ...]) -> list:
    """The entries that :func:`fdcalc.poly.row_major` read, checked against
    ``shape``."""
    if not has_shape(read, shape):
        raise AlgebraError(f"tensor has shape {read[0]}, expected {shape}")
    return read[1]


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


def _equal(x: list, y: list, exact: bool) -> bool:
    """Entrywise equality of two lists, exact or to ``SYMMETRY_TOL``; a NaN
    is unequal to everything."""
    if exact:
        return x == y
    return all(abs(u - v) <= SYMMETRY_TOL for u, v in zip(x, y))


# -- the algebra --------------------------------------------------------------

class AlgebraSpec:
    """Pairing plus one tensor per ordinary colour, exact or floating.

    ``tensors`` maps ordinary colour names to arrays (or nested or flat
    row-major lists) of shape ``(dim,) * valence``; coupon axes run inputs
    first, then outputs, matching slot order.  The mode is inferred: when
    the pairing and all tensor entries are ints or Fractions the algebra
    computes exactly, otherwise in doubles.  Cyclic and symmetric tensors
    must carry the invariance their kind promises.  One canonical search of
    each colour's star, :func:`fdcalc.iso.automorphism_generators`, gives
    |Aut star|, which :func:`interaction_terms` divides by, and generators
    of that group: the one rotation of a cyclic star, the n - 1 adjacent
    transpositions of a symmetric n-star, none for a coupon.  Each tensor is
    checked against every generator at construction.  Exactly, that is the
    whole group, compared on the tensor's integer numerators; in doubles
    each generator is held to ``SYMMETRY_TOL``, and longer words may drift
    a little more.

    Every entry is converted once, into its operand form: its row-major
    entries over a denominator, 1 for floats.  The pairing is checked and
    inverted from that form, and the numpy arrays ``pairing``,
    ``copairing``, ``eye`` and ``tensors`` are built only when they are
    read.
    """

    def __init__(self, dim: int, pairing, table: ColourTable, tensors: dict):
        if dim < 1:
            raise AlgebraError("dim must be positive")
        self.dim = dim
        self.table = table

        pairing = row_major(pairing)
        raw = {name: row_major(data) for name, data in tensors.items()}
        self.exact = all(is_exact(x) for _, flat in (pairing, *raw.values())
                         for x in flat)

        self._pairing = self._form(_as_tensor(pairing, (dim, dim)))
        flat, den = list(self._pairing[0]), self._pairing[1]
        if not _equal(flat, _transposed(flat, dim, (1, 0)), self.exact):
            raise AlgebraError("pairing matrix must be symmetric")
        rows = [flat[i * dim:(i + 1) * dim] for i in range(dim)]
        if self.exact:
            # The pairing is its numerators over den, so its inverse is
            # den times theirs.
            inverse, _ = invert_exact(rows)
            if inverse is None:
                raise AlgebraError("pairing matrix is singular")
            inverse = [x * den for row in inverse for x in row]
        else:
            import numpy as np
            if np.linalg.cond(rows) > COND_LIMIT:
                raise AlgebraError("pairing matrix is ill conditioned")
            inverse = np.linalg.inv(rows).ravel()
        self._copairing, self._eye = map(self._form, (
            inverse, [int(i == j) for i in range(dim) for j in range(dim)]))

        self._ordinary_of = {e.bold: e.name for e in table.ordinary()}
        self._tensors, self._aut = {}, {}
        for name, data in raw.items():
            entry = table[name]
            if entry.special:
                raise AlgebraError(
                    f"tensors attach to ordinary colours, not {name!r}")
            form = self._form(_as_tensor(data, (dim,) * entry.valence))
            vals = list(form[0])
            self._aut[name], generators = automorphism_generators(
                star_for(entry))
            # A star's slots are the half-edges 0..n-1 in slot order, so a
            # generator read in that order permutes the tensor's axes.
            for g in generators:
                image = _transposed(vals, dim, [g[h] for h in sorted(g)])
                if not _equal(vals, image, self.exact):
                    word = ("rotation" if entry.kind == "cyclic"
                            else "permutation")
                    raise AlgebraError(
                        f"tensor {name!r} is not {word} invariant")
            self._tensors[name] = form

    def _form(self, flat) -> tuple:
        """An operand from its row-major entries: integer numerators over
        their least denominator when exact, a float64 array over 1
        otherwise."""
        if self.exact:
            return integer_form(flat)
        import numpy as np
        return np.array(flat, dtype=float), 1

    def _number(self, n, den):
        """One entry of an operand, numerator ``n`` over ``den``."""
        return Fraction(n, den) if self.exact else float(n)

    def _array(self, form, rank: int):
        """The public array of an operand: floats, or an object array of
        Fractions when exact."""
        import numpy as np
        nums, den = form
        return np.array([self._number(n, den) for n in nums]).reshape(
            (self.dim,) * rank)

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
        nums, den = self._pairing
        return [[self._number(n, den) for n in nums[i:i + self.dim]]
                for i in range(0, len(nums), self.dim)]

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
        nums, den = self._tensors[self._tensor_name(colour)]
        offset = 0
        for i in idx:
            offset = offset * self.dim + i
        return self._number(nums[offset], den)

    @property
    def is_orthonormal(self) -> bool:
        (p, p_den), (e, e_den) = self._pairing, self._eye
        return p_den == e_den and _equal(p, e, self.exact)

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
        return self._number(1, 1)


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
    """Tensordot of flat integer tensors over the ``shared`` labels, an
    outer product when none is shared; the result's axes are the other
    labels of ``x``, then those of ``y``."""
    free_x = [L for L in lx if L not in shared]
    free_y = [L for L in ly if L not in shared]
    xs = _transposed(x, dim, [lx.index(L) for L in free_x + shared])
    ys = _transposed(y, dim, [ly.index(L) for L in free_y + shared])
    n = dim ** len(shared)
    rows = [xs[k:k + n] for k in range(0, len(xs), n)]
    cols = [ys[k:k + n] for k in range(0, len(ys), n)]
    return [sum(map(mul, r, c)) for r in rows for c in cols], free_x + free_y


def _dot_float(x, lx, y, ly, shared, dim):
    import numpy as np
    arr = np.tensordot(
        x.reshape((dim,) * len(lx)), y.reshape((dim,) * len(ly)),
        axes=([lx.index(L) for L in shared], [ly.index(L) for L in shared]))
    return arr.ravel(), [L for L in lx + ly if L not in shared]


def _contract(ops: list[tuple[object, list]], ext: list,
              a: AlgebraSpec) -> list:
    """Contract doubled labels away along a greedy pairwise plan.

    Every doubled label names an axis of two different operands.  While
    two operands share labels, the pair whose contraction has the fewest
    entries (ties to the lowest operand indices) is contracted over all the
    labels it shares in one step; outer products join what is left.  Each
    operand enters as its entries over a denominator: exact numerators are
    contracted in Python ints and float entries by numpy, and the product
    of the denominators is divided out once at the end.  Returns the
    entries of the result over the labels ``ext``, in row-major order.
    """
    dim = a.dim
    dot = _dot_exact if a.exact else _dot_float
    scale = 1
    # operand id -> (entries, labels); a merged pair keeps the lower id
    work = {}
    for k, ((form, den), labs) in enumerate(ops):
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

    if not work:
        return [a.one()]
    (result, labels), *rest = work.values()
    for x, labs in rest:
        result, labels = dot(result, labels, x, labs, [], dim)
    entries = _transposed(result, dim, [labels.index(L) for L in ext])
    if a.exact:
        return [Fraction(n, scale) for n in entries]
    # A closed float amplitude is a Python float, an open one's entries
    # numpy floats.
    return list(entries) if ext else [result.item()]


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
    terms: dict[tuple[int, ...], object] = {}
    for e, c in zip(exponent_vectors(a.dim, len(legs)), entries):
        if c:
            terms[e] = terms.get(e, 0) + c
    return Poly(a.dim, terms)


def interaction_terms(a: AlgebraSpec) -> tuple[tuple[VariableKey, Poly], ...]:
    """Interaction terms: one (variable, star polynomial / |Aut star|) per
    ordinary colour of ``a``'s table.  The star's own automorphisms supply
    the weight, which lands on 1/n! for symmetric, 1/n for cyclic and 1 for
    coupon colours; |Aut star| is the one ``a`` found when it was built.
    """
    out = []
    for entry in sorted(a.table.ordinary(), key=lambda e: e.name):
        star = star_for(entry)
        p = leg_polynomial(star, a) * Fraction(1, a._aut[entry.name])
        out.append((variable_for(a.table, entry.name), p))
    return tuple(out)


def expectation_value(g: Diagram, a: AlgebraSpec, *,
                      with_potential: bool = False,
                      max_degree: int = DEFAULT_DEGREE) -> MultiSeries:
    """Sum of closed-diagram amplitudes around ``g``, weighted by 1/|Aut|.

    The sum runs over the closures of each base: the marked ``g`` plus each
    multiset of stars within ``max_degree`` with the potential, or ``g``
    alone, into the constant term, without it.  An isomorphism of two
    closures keeps the marked piece, so each orbit of Aut(base) on the leg
    pairings is a class and weighs its pairings over |Aut base|.
    :func:`fdcalc.generate.star_bases` hands out that order and the
    group's generators from one search on ``g`` and one per colour, so no
    base is searched.  An odd leg count gives 0.  A negative
    ``max_degree`` raises :class:`DiagramError`, and so does an input that
    either size rule of :mod:`fdcalc.generate` refuses, before any closure
    is walked or amplitude taken.
    """
    if max_degree < 0:
        raise DiagramError("max_degree must be nonnegative")
    piece = mark_root(g)
    budget = max_degree - degree(piece) if with_potential else 0
    acc = {}
    for _, base, order, generators in star_bases(piece, a.table, budget):
        total = sum(Fraction(amplitude(rep, a)) * ways
                    for rep, ways in closure_orbits(base, generators))
        if total:
            m = diagram_monomial(base, a.table) if with_potential else ()
            acc[m] = total / order
    return MultiSeries(acc, max_degree)


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
    return value


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


def _integer(x, field: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise AlgebraError(f"{field} must be an integer, not {x!r}")
    return x


def _numbers(x, field: str) -> list:
    if not isinstance(x, list):
        raise AlgebraError(f"{field} must be a list, not {x!r}")
    return [_parse_number(y) for y in x]


def load_algebra(src: str | dict) -> AlgebraSpec:
    """Read an algebra from its JSON document (text or parsed).

    Fields: ``dim``; ``colours`` (name, kind, valence or inputs/outputs,
    bold partner name); ``pairing`` and per-colour ``tensors`` as row-major
    flat arrays whose entries are numbers or exact "p/q" strings; optional
    ``orthonormalize`` flag.  All-string entries select the exact mode.  A
    colour without ``bold`` gets the partner :func:`partner_name` gives.
    Every listed colour needs a tensor.  ``dim``, valences, inputs and
    outputs are JSON integers, the pairing and each tensor are JSON lists,
    and ``orthonormalize`` is a JSON boolean; anything else raises
    :class:`AlgebraError` naming the field.
    """
    data = json.loads(src) if isinstance(src, str) else src
    try:
        dim = _integer(data["dim"], "dim")
        colours = data["colours"]
        pairing = _numbers(data["pairing"], "pairing")
        raw_tensors = data["tensors"]
        entries = []
        for c in colours:
            kind = KIND_OF_SHORT.get(c.get("kind"), c.get("kind"))
            if kind not in KIND_SHORT:
                raise AlgebraError(f"unknown colour kind {c.get('kind')!r}")
            if kind == "coupon":
                arity = (_integer(c["inputs"], "inputs"),
                         _integer(c["outputs"], "outputs"))
            else:
                arity = _integer(c["valence"], "valence")
            bold = c.get("bold", partner_name(c["name"]))
            entries.append(ColourEntry(bold, kind, arity, special=True))
            entries.append(ColourEntry(c["name"], kind, arity, bold=bold))
        table = ColourTable(entries)
        tensors = {name: _numbers(flat, f"tensor {name!r}")
                   for name, flat in raw_tensors.items()}
        for c in colours:
            if c["name"] not in tensors:
                raise AlgebraError(f"colour {c['name']!r} has no tensor")
        orthonormalize = data.get("orthonormalize", False)
        if not isinstance(orthonormalize, bool):
            raise AlgebraError("orthonormalize must be a boolean, not"
                               f" {orthonormalize!r}")
    except KeyError as exc:
        raise AlgebraError(f"algebra file lacks field {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise AlgebraError(f"malformed algebra file: {exc}") from None
    except ColourTableError as exc:
        raise AlgebraError(str(exc)) from None

    spec = AlgebraSpec(dim, pairing, table, tensors)
    return spec.orthonormalized() if orthonormalize else spec

"""Exact truncated power series over the rationals, and groupoid sums.

A series is stored as monomial -> Fraction with a weighted truncation
degree: every variable carries a positive integer grade, a monomial weighs
the grade-weighted sum of its exponents, and a series with ``max_degree D``
is exact on all monomials of weight at most D and silent above.  Binary
operations truncate to the smaller of the two bounds; differentiating by a
variable of grade g costs g degrees of precision.

``exp``, ``log`` and series division (``reciprocal`` is 1 / Z) solve one
recurrence in weight order (:func:`_by_weight`).  With W the weight operator
(W m = weight(m) m), 1 the empty monomial and each Σ over ab = m with a ≠ 1:
- exp, as W E = E·WF: weight(m) E_m = Σ (WF)_a E_b, with E_1 = 1;
- log, as W L = WZ / Z: weight(m) L_m = weight(m) Z_m − Σ Z_a (WL)_b;
- A / Z: Z_1 Q_m = A_m − Σ Z_a Q_b.

Diagram sums are push-forwards and enumerate no class: each star multiset
contributes its monomial (a factor per ordinary vertex, graded by valence)
times the groupoid cardinality that :func:`fdcalc.generate.push_forward`
counts, (L-1)!! matchings of its L legs over the order of the stars' and
the root's symmetry group.  The partition series ``Z`` is that sum, the
free energy is ``log Z``, the rooted series sums diagrams around a marked
piece, and the reduced one is the rooted one over ``Z``.  No closure is
formed, so only the walk rule of :mod:`fdcalc.generate` applies: past a
star budget of ``MAX_CLOSURE_LEGS`` the walk stops after
``MAX_STAR_MULTISETS`` multisets, before any ``log``.  The census stays the
oracle: :func:`groupoid_integral` sums 1/|Aut| over the
classes of ``enumerate_closed`` and gives the same series.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .colours import ColourTable
from .diagram import Diagram, DiagramError
from .generate import DiagramClass, push_forward

DEFAULT_DEGREE = 12

Monomial = tuple  # tuple of (VariableKey, positive exponent), sorted


class VariableKey(namedtuple("VariableKey", "name grade")):
    """A formal variable with the grade its exponents weigh in at; keys
    order by (name, grade)."""

    __slots__ = ()

    def __new__(cls, name: str, grade: int = 1):
        if grade < 1:
            raise ValueError(f"variable {name!r} needs a positive grade")
        return super().__new__(cls, name, grade)


def _mono_weight(m: Monomial) -> int:
    return sum(e * k.grade for k, e in m)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    acc: dict[VariableKey, int] = dict(a)
    for k, e in b:
        acc[k] = acc.get(k, 0) + e
    return tuple(sorted(acc.items()))


class MultiSeries:
    """Immutable by convention; all operations return fresh values."""

    __slots__ = ("coeffs", "max_degree")

    def __init__(self, coeffs: dict, max_degree: int):
        self.max_degree = int(max_degree)
        clean = {}
        for m, c in coeffs.items():
            c = Fraction(c)
            if c and _mono_weight(m) <= self.max_degree:
                clean[m] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, max_degree: int) -> "MultiSeries":
        return cls({}, max_degree)

    @classmethod
    def constant(cls, c, max_degree: int) -> "MultiSeries":
        return cls({(): Fraction(c)}, max_degree)

    @classmethod
    def variable(cls, key: VariableKey, max_degree: int) -> "MultiSeries":
        return cls({((key, 1),): Fraction(1)}, max_degree)

    # -- ring structure ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MultiSeries)
                and self.max_degree == other.max_degree
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        acc = dict(self.coeffs)
        for m, c in other.coeffs.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return MultiSeries(acc, min(self.max_degree, other.max_degree))

    __radd__ = __add__

    def __neg__(self):
        return MultiSeries({m: -c for m, c in self.coeffs.items()},
                           self.max_degree)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiSeries({m: c * other for m, c in self.coeffs.items()},
                               self.max_degree)
        bound = min(self.max_degree, other.max_degree)
        acc: dict[Monomial, Fraction] = {}
        right = [(mb, cb, _mono_weight(mb))
                 for mb, cb in other.coeffs.items()]
        for ma, ca in self.coeffs.items():
            wa = _mono_weight(ma)
            for mb, cb, wb in right:
                if wa + wb > bound:
                    continue
                m = _mono_mul(ma, mb)
                acc[m] = acc.get(m, 0) + ca * cb
        return MultiSeries(acc, bound)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiSeries({m: c / Fraction(other)
                                for m, c in self.coeffs.items()},
                               self.max_degree)
        z1 = other.coefficient(())
        if not z1:
            raise ValueError("cannot invert a series without constant term")
        return _by_weight(self.coeffs, other.coeffs, lambda w, c: c,
                          lambda w, v: (v / z1,) * 2,
                          min(self.max_degree, other.max_degree))

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        acc = MultiSeries.constant(1, self.max_degree)
        for _ in range(n):
            acc = acc * self
        return acc

    def _coerce(self, other) -> "MultiSeries":
        if isinstance(other, MultiSeries):
            return other
        return MultiSeries.constant(other, self.max_degree)

    # -- queries ---------------------------------------------------------

    def coefficient(self, m: Monomial = ()) -> Fraction:
        return self.coeffs.get(tuple(sorted(m)), Fraction(0))

    def truncate(self, max_degree: int) -> "MultiSeries":
        if max_degree > self.max_degree:
            raise ValueError("cannot raise a truncation bound")
        return MultiSeries(self.coeffs, max_degree)

    @property
    def valuation(self) -> int:
        return min((_mono_weight(m) for m in self.coeffs),
                   default=self.max_degree + 1)

    # -- transcendental operations ----------------------------------------

    def exp(self) -> "MultiSeries":
        """exp F, F = self: weight(m) E_m = Σ (WF)_a E_b, with E_1 = 1."""
        if self.coefficient(()):
            raise ValueError("exp needs a vanishing constant term")
        return _by_weight({(): Fraction(1)}, self.coeffs, lambda w, c: -w * c,
                          lambda w, v: (v / (w or 1),) * 2, self.max_degree)

    def log(self) -> "MultiSeries":
        """log Z, Z = self: weight(m) L_m = weight(m) Z_m − Σ Z_a (WL)_b."""
        if self.coefficient(()) != 1:
            raise ValueError("log needs constant term 1")
        return _by_weight({m: _mono_weight(m) * c
                           for m, c in self.coeffs.items() if m}, self.coeffs,
                          lambda w, c: c, lambda w, v: (v / w, v),
                          self.max_degree)

    def reciprocal(self) -> "MultiSeries":
        """1 / Z, Z = self: Z_1 R_m = [m = 1] − Σ Z_a R_b."""
        return MultiSeries.constant(1, self.max_degree) / self

    def derivative(self, key: VariableKey) -> "MultiSeries":
        acc: dict[Monomial, Fraction] = {}
        for m, c in self.coeffs.items():
            d = dict(m)
            e = d.get(key, 0)
            if not e:
                continue
            if e == 1:
                del d[key]
            else:
                d[key] = e - 1
            acc[tuple(sorted(d.items()))] = c * e
        return MultiSeries(acc, self.max_degree - key.grade)

    def __str__(self):
        if not self.coeffs:
            return f"0 (+O^{self.max_degree + 1})"
        bits = []
        for m, c in sorted_terms(self):
            mono = name_monomial(m)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits) + f" (+O^{self.max_degree + 1})"

    __repr__ = __str__


def _by_weight(seed: dict, coeffs: dict, scale, finish,
               bound: int) -> MultiSeries:
    """Solve for a series in ascending weight.

    A monomial's row starts at its ``seed`` value.  When its weight comes
    up, ``finish(w, v)`` turns its value v into the coefficient and a push;
    the push times ``scale(wa, c)``, for each nonconstant term c of
    ``coeffs`` at weight wa, is taken off the row of the product.  This
    costs about one product of the result with ``coeffs``.  Weights of
    ``seed`` serve ``coeffs`` too: log seeds its multiplier's monomials."""
    weight = {m: _mono_weight(m) for m in seed}
    z = sorted(((wa := weight.get(a) or _mono_weight(a), a, scale(wa, c))
                for a, c in coeffs.items() if a), key=lambda t: t[0])
    rows: dict[int, dict[Monomial, Fraction]] = {}
    for m, v in seed.items():
        rows.setdefault(weight[m], {})[m] = v
    out = {}
    while rows:
        w = min(rows)
        for b, v in rows.pop(w).items():
            if not v:
                continue
            out[b], v = finish(w, v)
            for wa, a, c in z:
                if w + wa > bound:
                    break
                row = rows.setdefault(w + wa, {})
                m = _mono_mul(a, b)
                row[m] = row.get(m, 0) - c * v
    return MultiSeries(out, bound)


def name_monomial(m: Monomial) -> str:
    """Short text form: ``name`` factors with ``^e`` exponents, joined by
    ``*``; the empty monomial prints as the empty string."""
    return "*".join(f"{k.name}^{e}" if e > 1 else k.name for k, e in m)


def format_monomial(m: Monomial) -> str:
    """Stable text form: ``x[colour,grade]`` factors with ``^e`` exponents,
    joined by ``*``; the empty monomial prints as ``1``."""
    if not m:
        return "1"
    return "*".join(f"x[{k.name},{k.grade}]" + (f"^{e}" if e > 1 else "")
                    for k, e in m)


def sorted_terms(s: MultiSeries) -> list[tuple[Monomial, Fraction]]:
    """Nonzero terms in (weight, variables) order."""
    return sorted(s.coeffs.items(), key=lambda kv: (_mono_weight(kv[0]), kv[0]))


# -- groupoid sums over diagram classes -------------------------------------

def variable_for(table: ColourTable, colour: str) -> VariableKey:
    entry = table[colour]
    if entry.special:
        raise DiagramError(f"special colour {colour!r} carries no coupling")
    return VariableKey(entry.name, entry.valence)


def diagram_monomial(d: Diagram, table: ColourTable) -> Monomial:
    counts: dict[VariableKey, int] = {}
    for v in d.vertices:
        if v.special:
            continue
        key = variable_for(table, v.colour)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def groupoid_integral(classes: list[DiagramClass], table: ColourTable,
                      max_degree: int) -> MultiSeries:
    """Sum of monomial(class)/|Aut| over the given census classes."""
    acc: dict[Monomial, Fraction] = {}
    for c in classes:
        m = diagram_monomial(c.rep, table)
        acc[m] = acc.get(m, Fraction(0)) + Fraction(1, c.aut)
    return MultiSeries(acc, max_degree)


def _push_forward_series(table: ColourTable, max_degree: int,
                         root: Diagram | None = None) -> MultiSeries:
    """``Z``, or the rooted series around ``root``: one term per star
    multiset, weighted by :func:`fdcalc.generate.push_forward`."""
    terms = list(push_forward(table, max_degree=max_degree, root=root))
    head = () if root is None else diagram_monomial(root, table)
    return MultiSeries({_mono_mul(head, tuple((variable_for(table, e.name), n)
                                              for e, n in stars)): w
                        for stars, w in terms}, max_degree)


def partition_series(table: ColourTable,
                     max_degree: int = DEFAULT_DEGREE) -> MultiSeries:
    """Closed-diagram generating series; constant term 1 for the empty one."""
    return _push_forward_series(table, max_degree)


def free_energy_series(table: ColourTable,
                       max_degree: int = DEFAULT_DEGREE) -> MultiSeries:
    """Connected closed-diagram generating series, ``log Z``."""
    return partition_series(table, max_degree).log()


def rooted_series(table: ColourTable, root: Diagram,
                  max_degree: int = DEFAULT_DEGREE, *,
                  reduced: bool = False) -> MultiSeries:
    """Generating series of closed diagrams containing the marked ``root``.

    The grading counts ordinary vertices only, so a special root contributes
    no variables.  With ``reduced`` every component must touch the root: a
    closed diagram splits into the components that touch the root and a
    closed diagram that does not, so the reduced series is the full one
    over ``Z``.
    """
    full = _push_forward_series(table, max_degree, root)
    return full / partition_series(table, max_degree) if reduced else full

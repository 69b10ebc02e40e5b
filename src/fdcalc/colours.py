"""Colour tables: the vertex alphabet of a diagram theory.

A colour names one admissible internal-vertex decoration.  Three vertex
kinds exist, differing in how their slots may be permuted:

* ``coupon``   -- separate ordered input and output slot lists, no symmetry;
* ``cyclic``   -- one slot cycle, rotations only (no reflections);
* ``symmetric`` -- one slot set, arbitrary permutations.

Every colour is ordinary or special.  Each ordinary colour has exactly one
special partner of the same kind and arity (the ``bold`` partner map,
injective).  Ordinary vertices carry a formal variable and contribute their
valence to a diagram's degree; special vertices contribute nothing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Arity = int | tuple[int, int]

# The short kind names of the text formats, in both directions.
KIND_SHORT = {"symmetric": "sym", "cyclic": "cyc", "coupon": "coupon"}
KIND_OF_SHORT = {short: kind for kind, short in KIND_SHORT.items()}


class ColourTableError(ValueError):
    pass


@dataclass(frozen=True)
class ColourEntry:
    name: str
    kind: str  # "coupon" | "cyclic" | "symmetric"
    arity: Arity  # (m, n) for coupon, valence otherwise
    special: bool = False
    bold: str | None = None  # special partner, ordinary colours only

    @property
    def valence(self) -> int:
        if self.kind == "coupon":
            m, n = self.arity  # type: ignore[misc]
            return m + n
        return self.arity  # type: ignore[return-value]


class ColourTable:
    """Immutable registry of colour entries, indexed by name and by arity."""

    def __init__(self, entries: list[ColourEntry]):
        names: dict[str, ColourEntry] = {}
        for e in entries:
            if not _NAME.match(e.name):
                raise ColourTableError(f"bad colour name {e.name!r}")
            if e.name in names:
                raise ColourTableError(f"duplicate colour {e.name!r}")
            if e.kind not in KIND_SHORT:
                raise ColourTableError(f"unknown kind {e.kind!r}")
            if e.kind == "coupon":
                if not (isinstance(e.arity, tuple) and len(e.arity) == 2):
                    raise ColourTableError(f"{e.name}: coupon arity must be (m, n)")
                if min(e.arity) < 0 or e.valence < 1:
                    raise ColourTableError(f"{e.name}: coupon arity out of range")
            else:
                if not isinstance(e.arity, int) or e.arity < 1:
                    raise ColourTableError(f"{e.name}: valence must be a positive int")
            names[e.name] = e
        for e in entries:
            if e.special:
                if e.bold is not None:
                    raise ColourTableError(f"{e.name}: special colours have no bold partner")
                continue
            if e.bold is None:
                raise ColourTableError(f"{e.name}: ordinary colour needs a special partner")
            p = names.get(e.bold)
            if p is None or not p.special:
                raise ColourTableError(f"{e.name}: bold partner {e.bold!r} is not a special colour")
            if (p.kind, p.arity) != (e.kind, e.arity):
                raise ColourTableError(f"{e.name}: partner {e.bold!r} has different kind or arity")
        bolds = [e.bold for e in entries if not e.special]
        if len(bolds) != len(set(bolds)):
            raise ColourTableError("bold_of must be injective")
        self._entries = tuple(entries)
        self._by_name = names

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, name: str) -> ColourEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise ColourTableError(f"unknown colour {name!r}") from None

    def ordinary(self) -> tuple[ColourEntry, ...]:
        return tuple(e for e in self._entries if not e.special)


def partner_name(name: str) -> str:
    """The default name of an ordinary colour's special partner: the name
    upper-cased, or the name plus ``_S`` when upper-casing changes nothing."""
    upper = name.upper()
    return upper if upper != name else name + "_S"


def standard_table(*specs: tuple[str, str, Arity]) -> ColourTable:
    """Build a table from ``(kind, name, arity)`` triples of ordinary colours.

    Each ordinary colour gets an auto-registered special partner named by
    :func:`partner_name`.
    """
    entries: list[ColourEntry] = []
    for kind, name, arity in specs:
        partner = partner_name(name)
        entries.append(ColourEntry(partner, kind, arity, special=True))
        entries.append(ColourEntry(name, kind, arity, bold=partner))
    return ColourTable(entries)

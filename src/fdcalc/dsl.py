"""Text forms of diagrams and colour tables.

The diagram language is line-oriented and whitespace-insensitive: an
optional ``type (m,n)`` header, then statements

    vertex ID KIND COLOUR legs N;
    wire ID;
    edge REF - REF;
    in K = REF;
    out K = REF;

where KIND is ``sym``, ``cyc`` or ``coupon(m,n)``, REF is ``ID.slot`` with
1-based slots, and ``wire`` introduces a vertex-free edge whose two ends
are REF slots 1 and 2.  Cyclic slot order is the written order; coupon
slots list the m inputs first.  With a header every end must be wired or
numbered and the in/out indices must fill 1..m and 1..n; without one the
unused ends are the diagram's legs and in/out statements are rejected.
``#`` starts a comment.  Names are ``[A-Za-z_][A-Za-z0-9_]*`` and numbers
are ASCII digits; any other character outside a comment or whitespace is
refused as a stray character at its line and column.

Colour tables are one colour per line: kind, valence, name,
``ordinary``/``special``, and the bold partner's name (``-`` for special
colours).  Valences and coupon arities are ASCII digits too.
"""

import re
import sys

from .colours import (
    KIND_OF_SHORT, KIND_SHORT, ColourEntry, ColourTable, ColourTableError,
)
from .diagram import DiagramError, TypedDiagram, Vertex, build_diagram

# Three groups: what is skipped, a token, and a stray character.
_TOKEN = re.compile(
    r"(#[^\n]*|\s+)|([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[().,=;-])|(.)")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Cursor:
    """The tokens of a text as ``(text, line, column)`` tuples, ending in a
    ``None`` token at the end of the text, and a position among them."""

    def __init__(self, text: str):
        self.tokens = []
        line, start = 1, 0
        for m in _TOKEN.finditer(text):
            skip, token, stray = m.groups()
            column = m.start() - start + 1
            if stray is not None:
                raise ParseError(f"stray character {stray!r}", line, column)
            if token is not None:
                self.tokens.append((token, line, column))
            elif "\n" in skip:
                line += skip.count("\n")
                start = m.start() + skip.rfind("\n") + 1
        lines = text.splitlines() or [""]
        self.end = (len(lines), len(lines[-1]) + 1)
        self.tokens.append((None, *self.end))
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0]

    def where(self) -> tuple[int, int]:
        return self.tokens[self.pos][1:]

    def fail(self, message: str):
        raise ParseError(message, *self.where())

    def take(self, what: str, test=None) -> str:
        """The next token, when it is ``what`` or passes ``test``.  Otherwise
        fail with ``expected 'what'``, or ``expected what`` when ``what``
        names the test."""
        text = self.peek()
        if text is None or not (test(text) if test else text == what):
            self.fail(f"expected {what}" if test else f"expected {what!r}")
        self.pos += 1
        return text

    def nat(self) -> int:
        return int(self.take("a number", str.isdigit))

    def ident(self, what: str) -> str:
        return self.take(what, str.isidentifier)

    def arity(self) -> tuple[int, int]:
        """``(m,n)``, in a ``type`` header or a ``coupon`` kind."""
        self.take("(")
        m = self.nat()
        self.take(",")
        n = self.nat()
        self.take(")")
        return m, n


def _parse_ref(c: _Cursor):
    where = c.where()
    name = c.ident("a vertex or wire name")
    c.take(".")
    slot = c.nat()
    return name, slot, where


def parse_diagram(text: str, table: ColourTable | None = None):
    """Parse DSL text into a Diagram, or a TypedDiagram when typed.

    With ``table``, colours are validated against it and special colours
    mark their vertices; without one every vertex is ordinary.
    """
    c = _Cursor(text)
    header = None
    if c.peek() == "type":
        c.take("type")
        header = c.arity()

    # Half-edges are numbered in statement order, and ``ends`` holds the
    # range of each vertex and wire.  Slot tuples are built only once the
    # whole text has parsed, so a later error is reported before a long
    # ``legs`` count is spent.
    ends: dict[str, range] = {}
    vertices: dict[str, tuple] = {}
    edges: list[tuple] = []
    ins: dict[int, tuple] = {}
    outs: dict[int, tuple] = {}
    base = 0

    while c.peek() is not None:
        stmt = c.peek()
        where = c.where()
        if stmt in ("vertex", "wire"):
            c.take(stmt)
            name = c.ident(f"a {stmt} name")
            if name in ends:
                raise ParseError(f"name {name!r} already used", *where)
            valence = 2
            if stmt == "vertex":
                kind_tok = c.ident("a vertex kind")
                if kind_tok not in KIND_OF_SHORT:
                    raise ParseError(f"unknown kind {kind_tok!r}", *where)
                kind = KIND_OF_SHORT[kind_tok]
                n_in = None
                if kind == "coupon":
                    n_in, n_out = c.arity()
                colour = c.ident("a colour name")
                c.take("legs")
                valence = c.nat()
                if kind == "coupon" and valence != n_in + n_out:
                    raise ParseError("coupon arity does not match legs",
                                     *where)
                if valence < 1:
                    raise ParseError("a vertex needs at least one leg", *where)
                if valence > sys.maxsize:
                    raise ParseError("too many legs to number", *where)
                vertices[name] = (kind, colour, n_in)
            c.take(";")
            ends[name] = range(base, base + valence)
            base += valence
        elif stmt == "edge":
            c.take("edge")
            a = _parse_ref(c)
            c.take("-")
            b = _parse_ref(c)
            c.take(";")
            edges.append((a, b))
        elif stmt in ("in", "out"):
            c.take(stmt)
            k = c.nat()
            c.take("=")
            ref = _parse_ref(c)
            c.take(";")
            book = ins if stmt == "in" else outs
            if k in book:
                raise ParseError(f"duplicate {stmt} index {k}", *where)
            book[k] = ref
        else:
            c.fail("expected a statement")

    used: set[int] = set()

    def resolve(ref, slots_only=False):
        name, slot, where = ref
        if name not in ends:
            raise ParseError(f"unknown vertex or wire {name!r}", *where)
        if slots_only and name not in vertices:
            raise ParseError("edges join vertex slots; route wires"
                             " through in/out", *where)
        if not 1 <= slot <= len(ends[name]):
            raise ParseError("slot out of range", *where)
        h = ends[name][slot - 1]
        if h in used:
            raise ParseError(f"{name}.{slot} is already connected", *where)
        used.add(h)
        return h

    matching: dict[int, int] = {}
    for a, b in edges:
        ha = resolve(a, slots_only=True)
        hb = resolve(b, slots_only=True)
        matching[ha] = hb
        matching[hb] = ha
    in_map = {k: resolve(ref) for k, ref in sorted(ins.items())}
    out_map = {k: resolve(ref) for k, ref in sorted(outs.items())}

    try:
        d = build_diagram(
            [Vertex(kind, colour, tuple(ends[name]), n_in)
             for name, (kind, colour, n_in) in vertices.items()],
            matching, table,
            [tuple(span) for name, span in ends.items()
             if name not in vertices])
    except (DiagramError, ColourTableError) as exc:
        raise ParseError(str(exc), *c.end) from exc

    if header is None:
        if ins or outs:
            where = min(list(ins.values()) + list(outs.values()),
                        key=lambda r: r[2])[2]
            raise ParseError("in/out statements need a type header", *where)
        return d

    m, n = header
    # Counting the statements first builds no range longer than the file.
    if len(in_map) != m or sorted(in_map) != list(range(1, m + 1)):
        raise ParseError(f"inputs must fill 1..{m}", *c.end)
    if len(out_map) != n or sorted(out_map) != list(range(1, n + 1)):
        raise ParseError(f"outputs must fill 1..{n}", *c.end)
    unused = [h for h in d.legs if h not in used]
    if unused:
        raise ParseError("typed diagrams may not leave ends loose", *c.end)
    return TypedDiagram(d, tuple(in_map[k] for k in range(1, m + 1)),
                        tuple(out_map[k] for k in range(1, n + 1)))


def serialize_diagram(d) -> str:
    """Render a diagram back into the DSL.  Reparsing yields an isomorphic
    diagram; root marks have no textual form and are rejected."""
    typed = isinstance(d, TypedDiagram)
    base = d.base if typed else d
    if any(v.root for v in base.vertices) or base.root_pairs:
        raise DiagramError("root marks have no textual form")
    lines = []
    if typed:
        lines.append(f"type ({len(d.ins)},{len(d.outs)})")
    names: dict[int, tuple[str, int]] = {}
    for i, v in enumerate(base.vertices):
        name = f"v{i + 1}"
        kind = KIND_SHORT[v.kind]
        if v.kind == "coupon":
            kind += f"({v.n_in},{v.valence - v.n_in})"
        lines.append(f"vertex {name} {kind} {v.colour} legs {v.valence};")
        for k, h in enumerate(v.slots, 1):
            names[h] = (name, k)
    for j, (a, b) in enumerate(sorted(base.bare_pairs), 1):
        name = f"w{j}"
        lines.append(f"wire {name};")
        names[a] = (name, 1)
        names[b] = (name, 2)

    def ref(h):
        name, slot = names[h]
        return f"{name}.{slot}"

    for a, b in sorted(base.pairs - base.bare_pairs):
        lines.append(f"edge {ref(a)} - {ref(b)};")
    if typed:
        for k, h in enumerate(d.ins, 1):
            lines.append(f"in {k} = {ref(h)};")
        for k, h in enumerate(d.outs, 1):
            lines.append(f"out {k} = {ref(h)};")
    return "\n".join(lines) + ("\n" if lines else "")


# -- colour table files ----------------------------------------------------------

def parse_table(text: str) -> ColourTable:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ParseError("expected: kind valence name"
                             " ordinary|special bold-partner", lineno, 1)
        kind_tok, valence_tok, name, role, bold = fields
        m = re.fullmatch(r"coupon\(([0-9]+),([0-9]+)\)", kind_tok)
        if m:
            arity: int | tuple = (int(m.group(1)), int(m.group(2)))
            kind = "coupon"
        elif kind_tok in ("sym", "cyc"):
            arity = None
            kind = KIND_OF_SHORT[kind_tok]
        else:
            raise ParseError(f"unknown kind {kind_tok!r}", lineno, 1)
        if not re.fullmatch("[0-9]+", valence_tok):
            raise ParseError("valence must be a number", lineno, 1)
        valence = int(valence_tok)
        if kind == "coupon":
            if sum(arity) != valence:
                raise ParseError("coupon arity does not match valence",
                                 lineno, 1)
        else:
            arity = valence
        if role not in ("ordinary", "special"):
            raise ParseError("role must be ordinary or special", lineno, 1)
        special = role == "special"
        if special != (bold == "-"):
            raise ParseError("ordinary colours name their bold partner,"
                             " special ones write -", lineno, 1)
        entries.append(ColourEntry(name, kind, arity, special=special,
                                   bold=None if special else bold))
    try:
        return ColourTable(entries)
    except ValueError as exc:
        raise ParseError(str(exc), len(text.splitlines()) + 1, 1) from exc


def format_table(table: ColourTable) -> str:
    lines = []
    for e in table:
        kind = KIND_SHORT[e.kind]
        if e.kind == "coupon":
            kind += f"({e.arity[0]},{e.arity[1]})"
        role = "special" if e.special else "ordinary"
        lines.append(f"{kind} {e.valence} {e.name} {role} {e.bold or '-'}")
    return "\n".join(lines) + ("\n" if lines else "")

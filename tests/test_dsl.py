"""Diagram language and colour-table file round-trips."""

import random
from functools import partial

import pytest
from hypothesis import given, settings

from fdcalc.colours import ColourTable
from fdcalc.diagram import (Diagram, DiagramError, TypedDiagram, Vertex,
                            bare_edge, mark_root)
from fdcalc.dsl import (ParseError, format_table, parse_diagram, parse_table,
                        serialize_diagram)
from fdcalc.generate import enumerate_closed
from fdcalc.iso import are_isomorphic, canonical_code

from test_iso_properties import diagrams
from util import (coupon_table, cubic_table, cyclic_table, figure_eight,
                  mixed_table, quartic_table, theta)


def test_figure_eight_text():
    d = parse_diagram("vertex a sym phi4 legs 4;"
                      " edge a.1 - a.2; edge a.3 - a.4;")
    assert are_isomorphic(d, figure_eight())


def test_theta_text_multiline():
    d = parse_diagram("""
        # two sunset vertices
        vertex a sym phi3 legs 3;
        vertex b sym phi3 legs 3;
        edge a.1 - b.1;
        edge a.2 - b.2;
        edge a.3 - b.3;
    """)
    assert are_isomorphic(d, theta())
    assert canonical_code(d).aut_order == 12


def test_special_flag_comes_from_table():
    text = "vertex a sym PHI4 legs 4; edge a.1 - a.2; edge a.3 - a.4;"
    plain = parse_diagram(text)
    assert not plain.vertices[0].special
    flagged = parse_diagram(text, quartic_table())
    assert flagged.vertices[0].special
    assert are_isomorphic(flagged, figure_eight("PHI4", special=True))


def test_wire_builds_bare_edge_source():
    d = parse_diagram("""
        type (0,2)
        wire w;
        out 1 = w.1;
        out 2 = w.2;
    """)
    assert isinstance(d, TypedDiagram)
    assert d.base.bare_pairs == bare_edge().pairs
    assert canonical_code(d) == canonical_code(
        TypedDiagram(bare_edge(), (), (0, 1)))


def test_typed_star_with_split_roles():
    d = parse_diagram("""
        type (1,3)
        vertex a sym phi4 legs 4;
        in 1 = a.1;
        out 1 = a.2;
        out 2 = a.3;
        out 3 = a.4;
    """)
    assert d.src == 1 and d.tgt == 3
    assert are_isomorphic(d.base, parse_diagram("vertex a sym phi4 legs 4;"))


def test_cyclic_slot_order_is_the_written_order():
    adjacent = parse_diagram("vertex c cyc c4 legs 4;"
                             " edge c.1 - c.2; edge c.3 - c.4;")
    crossing = parse_diagram("vertex c cyc c4 legs 4;"
                             " edge c.1 - c.3; edge c.2 - c.4;")
    assert not are_isomorphic(adjacent, crossing)
    for d in (adjacent, crossing):
        again = parse_diagram(serialize_diagram(d))
        assert are_isomorphic(d, again)


def _unmarked(d: Diagram) -> Diagram:
    """``d`` without root marks, which the text cannot hold, and without
    special flags, which come from a colour table when parsing."""
    return Diagram(tuple(Vertex(v.kind, v.colour, v.slots, v.n_in)
                         for v in d.vertices), d.pairs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(diagrams(valences=(1, 4)).map(_unmarked))
def test_serialize_parse_round_trip(d):
    assert parse_diagram(serialize_diagram(d)) == d


def test_coupon_inputs_come_first():
    d = parse_diagram("vertex k coupon(2,1) t21 legs 3;")
    v = d.vertices[0]
    assert v.kind == "coupon" and v.n_in == 2
    assert len(v.ins) == 2 and len(v.outs) == 1


def test_empty_source():
    assert parse_diagram("") == Diagram()
    assert parse_diagram("  # nothing here\n") == Diagram()
    assert serialize_diagram(Diagram()) == ""


@pytest.mark.parametrize("text, fragment", [
    ("vertex a sym phi4 legs 4; edge a.1 - a.9;", "slot out of range"),
    ("edge a.1 - a.2;", "unknown vertex or wire"),
    ("vertex a sym phi4 legs 4; edge a.1 - a.2; edge a.2 - a.3;",
     "already connected"),
    ("vertex a sym phi4 legs 4; vertex a sym phi4 legs 4;", "already used"),
    ("vertex a sym x legs 2; in 1 = a.1;", "type header"),
    ("type (1,1) vertex a sym x legs 2; in 1 = a.1; in 1 = a.2;",
     "duplicate in index"),
    ("type (0,2) vertex a sym x legs 2; out 1 = a.1;", "fill 1..2"),
    ("type (0,1) vertex a sym x legs 2; out 1 = a.1;", "loose"),
    ("wire w; vertex a sym x legs 2; edge w.1 - a.1;", "through in/out"),
    ("vertex a spin x legs 2;", "unknown kind"),
    ("vertex a coupon(2,2) x legs 3;", "does not match legs"),
    ("vertex a sym x legs 0;", "at least one leg"),
    ("vertex a sym x legs 2", "expected ';'"),
    ("vertex a sym x legs two;", "expected a number"),
    ("hedgehog;", "expected a statement"),
    ("vertex a sym x legs 2; @", "stray character"),
    ("vertex a sym x legs 2; edge a.1 - a.1;", "already connected"),
    ("type 1,0) wire w;", "expected '('"),
    ("vertex 9 sym x legs 2;", "expected a vertex name"),
    ("vertex", "expected a vertex name"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert fragment in str(err.value)


def test_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_diagram("vertex a sym phi4 legs 4;\nedge a.1 - a.9;")
    assert err.value.line == 2
    assert str(err.value).startswith("line 2, column 12:")


def test_table_mismatch_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown colour"):
        parse_diagram("vertex a sym nope legs 4;", quartic_table())
    with pytest.raises(ParseError, match="not usable"):
        parse_diagram("vertex a sym phi4 legs 3;"
                      " edge a.1 - a.2;", quartic_table())


def test_serialize_rejects_root_marks():
    with pytest.raises(DiagramError, match="root marks"):
        serialize_diagram(mark_root(figure_eight()))


ALL_TABLES = [quartic_table(), cubic_table(), mixed_table(), cyclic_table(),
              coupon_table()]


@pytest.mark.parametrize("table", ALL_TABLES,
                         ids=lambda t: "+".join(sorted(e.name for e in t)))
def test_round_trip_on_enumerated_closed_diagrams(table):
    for cls in enumerate_closed(table, max_degree=8):
        text = serialize_diagram(cls.rep)
        again = parse_diagram(text, table)
        assert are_isomorphic(again, cls.rep)
        assert canonical_code(again).aut_order == cls.aut
        assert serialize_diagram(again) == text


def test_typed_round_trip():
    d = parse_diagram("""
        type (2,4)
        vertex k coupon(2,2) t22 legs 4;
        vertex a sym phi4 legs 4;
        wire w;
        edge k.3 - a.1; edge k.4 - a.2;
        in 1 = k.1; in 2 = k.2;
        out 1 = a.3; out 2 = a.4; out 3 = w.1; out 4 = w.2;
    """)
    text = serialize_diagram(d)
    truncated = "\n".join(line for line in text.splitlines()
                          if not line.startswith("out 4"))
    with pytest.raises(ParseError, match="fill"):
        parse_diagram(truncated)
    assert canonical_code(parse_diagram(text)) == canonical_code(d)


def test_table_files_round_trip():
    for table in ALL_TABLES:
        text = format_table(table)
        again = parse_table(text)
        assert list(again) == list(table)
    commented = "# potential colours\nsym 4 phi4 ordinary PHI4\n\n" \
                "sym 4 PHI4 special -\n"
    assert isinstance(parse_table(commented), ColourTable)


@pytest.mark.parametrize("line, fragment", [
    ("sym 4 phi4 ordinary", "expected: kind"),
    ("spin 4 phi4 ordinary PHI4", "unknown kind"),
    ("sym four phi4 ordinary PHI4", "valence must be a number"),
    ("coupon(2,2) 3 t ordinary T", "does not match valence"),
    ("sym 4 phi4 maybe PHI4", "role must be ordinary or special"),
    ("sym 4 phi4 ordinary -", "bold partner"),
    ("sym 4 PHI4 special X", "bold partner"),
    ("sym 4 phi4 ordinary PHI4\nsym 4 PHI4 special -\n"
     "sym 4 phi4 ordinary PHI4", "duplicate colour"),
])
def test_table_file_errors(line, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_table(line)


def test_non_ascii_characters_are_refused_at_their_position():
    # A superscript, an Arabic-Indic and a fullwidth digit, and a letter.
    for text, column in [("vertex a sym x legs \u00b2;", 21),
                         ("vertex a sym x legs \u0663;", 21),
                         ("vertex a sym x legs 2\uff19;", 22),
                         ("vertex \u00e9 sym x legs 2;", 8)]:
        with pytest.raises(ParseError, match=f"^line 1, column {column}: "
                                             "stray character"):
            parse_diagram(text)
    for line in ["sym \u0663 phi3 ordinary PHI3",
                 "sym 4\u00b2 phi4 ordinary PHI4"]:
        with pytest.raises(ParseError, match="valence must be a number"):
            parse_table(line)
    with pytest.raises(ParseError, match="unknown kind"):
        parse_table("coupon(2,\u0662) 4 t22 ordinary T22")


# Tokens and characters that mutate a valid text: ASCII tokens and
# separators, and characters that pass str.isdigit or str.isidentifier
# without being ASCII.
FUZZ_PIECES = ["vertex", "wire", "edge", "in", "out", "type", "legs", "sym",
               "cyc", "coupon", "special", "(", ")", ",", ".", "=", ";", "-",
               "#", "\n", " ", "\t", "0", "1", "9", "12", "a", "_", "@",
               "\u00b2", "\u0663", "\uff19", "\u00e9"]


def _mutated(text, rng):
    """``text`` after one to three random insertions, deletions or
    replacements of a piece."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        piece = rng.choice(FUZZ_PIECES)
        text = rng.choice([text[:i] + piece + text[i:],
                           text[:i] + text[i + len(piece):],
                           text[:i] + piece + text[i + 1:]])
    return text


def test_parsers_raise_only_parse_errors_with_positions():
    rng = random.Random(28)
    typed = ("type (2,4)\nvertex k coupon(2,2) t22 legs 4;\n"
             "vertex a sym phi4 legs 4;\nwire w;\n"
             "edge k.3 - a.1; edge k.4 - a.2;\nin 1 = k.1; in 2 = k.2;\n"
             "out 1 = a.3; out 2 = a.4; out 3 = w.1; out 4 = w.2;\n")
    diagrams = [(None, typed)] + [
        (table, serialize_diagram(cls.rep)) for table in ALL_TABLES
        for cls in enumerate_closed(table, max_degree=6)]
    tables = [format_table(t) for t in ALL_TABLES]
    cases = [(parse_diagram, "vertex a sym x legs \u00b2;"),
             (parse_table, "sym 4\u00b2 phi4 ordinary PHI4")]
    for _ in range(3000):
        table, text = rng.choice(diagrams)
        cases.append((partial(parse_diagram, table=rng.choice([None, table])),
                      _mutated(text, rng)))
        cases.append((parse_table, _mutated(rng.choice(tables), rng)))
    for parse, text in cases:
        try:
            parse(text)
        except ParseError as err:
            assert err.line >= 1 and err.column >= 1
            assert str(err).startswith(
                f"line {err.line}, column {err.column}: ")
        except Exception as exc:
            pytest.fail(f"{text!r} raised {exc!r}")

"""End-to-end runs of the command line interface."""

import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fdcalc import generate
from fdcalc.cli import main
from fdcalc.diagram import DiagramError, symmetric_star
from fdcalc.dsl import format_table, parse_diagram
from fdcalc.generate import enumerate_closed
from fdcalc.iso import automorphism_generators, canonical_code
from fdcalc.series import (MultiSeries, format_monomial, partition_series,
                           sorted_terms)

from test_series import census_series, orbit_count_z
from util import (coupon_table, cubic_table, cyclic_table, low_valence_table,
                  mixed_table, quartic_table, run_python)

THETA_SRC = """
vertex a sym phi3 legs 3;
vertex b sym phi3 legs 3;
edge a.1 - b.1;
edge a.2 - b.2;
edge a.3 - b.3;
"""

STAR4_SRC = "vertex a sym PHI4 legs 4;\n"

# Three (2,2) coupons, two of them joined: 10 legs, 799 closure classes.
COUPONS_SRC = """
vertex a coupon(2,2) t22 legs 4;
vertex b coupon(2,2) t22 legs 4;
vertex c coupon(2,2) t22 legs 4;
edge a.3 - b.1;
"""

IDPAIR_SRC = """
type (1,1)
wire w;
in 1 = w.1;
out 1 = w.2;
"""

QUARTIC_ALG = json.dumps({
    "dim": 1,
    "colours": [{"name": "phi4", "kind": "sym", "valence": 4}],
    "pairing": ["1"],
    "tensors": {"phi4": ["1"]},
})

# An exact quartic algebra whose pairing is not the identity.
EXACT_ALG = json.dumps({
    "dim": 2,
    "colours": [{"name": "phi4", "kind": "sym", "valence": 4}],
    "pairing": ["2", "1", "1", "3"],
    "tensors": {"phi4": ["1", "0", "0", "1/3", "0", "1/3", "1/3", "0",
                         "0", "1/3", "1/3", "0", "1/3", "0", "0", "2"]},
})

# A float algebra, and an exact one that "orthonormalize" turns into floats.
FLOAT_ALG = json.dumps({
    "dim": 2,
    "colours": [{"name": "phi4", "kind": "sym", "valence": 4}],
    "pairing": [2.0, 0.5, 0.5, 1.0],
    "tensors": {"phi4": [1.5, -0.25, -0.25, 0.75, -0.25, 0.75, 0.75, 0.125,
                         -0.25, 0.75, 0.75, 0.125, 0.75, 0.125, 0.125, -1.0]},
})

ORTHO_ALG = json.dumps({
    "dim": 2,
    "colours": [{"name": "phi3", "kind": "sym", "valence": 3},
                {"name": "phi4", "kind": "sym", "valence": 4}],
    "pairing": ["2", "1", "1", "3"],
    "tensors": {"phi3": ["1", "1/2", "1/2", "-1", "1/2", "-1", "-1", "2"],
                "phi4": ["1", "0", "0", "1/3", "0", "1/3", "1/3", "0",
                         "0", "1/3", "1/3", "0", "1/3", "0", "0", "2"]},
    "orthonormalize": True,
})


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("theta.fd", THETA_SRC), ("star4.fd", STAR4_SRC),
                       ("idpair.fd", IDPAIR_SRC),
                       ("coupons.fd", COUPONS_SRC),
                       ("quartic.tbl", format_table(quartic_table())),
                       ("cyclic.tbl", format_table(cyclic_table())),
                       ("coupon.tbl", format_table(coupon_table())),
                       ("quartic.alg", QUARTIC_ALG), ("exact.alg", EXACT_ALG),
                       ("float.alg", FLOAT_ALG), ("ortho.alg", ORTHO_ALG)):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_aut_theta(files):
    rc, out, _ = run(["aut", files["theta.fd"]])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "aut\t12"
    assert lines[1].startswith("code\t")


def test_aut_json(files):
    rc, out, _ = run(["aut", files["theta.fd"], "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["aut"] == 12


def test_enumerate_quartic_to_degree_four(files):
    rc, out, _ = run(["enumerate", "--table", files["quartic.tbl"],
                      "--max-degree", "4"])
    assert rc == 0
    rows = out.splitlines()
    assert len(rows) == 2
    assert rows[0].split("\t") == ["0", "1", "1", ""]
    degree, aut, mono, text = rows[1].split("\t")
    assert (degree, aut, mono) == ("4", "8", "x[phi4,4]")
    assert "vertex v1 sym phi4 legs 4;" in text


def test_partition_series_output(files):
    rc, out, _ = run(["partition", "--table", files["quartic.tbl"],
                      "--max-degree", "12"])
    assert rc == 0
    assert out.splitlines() == ["1\t1", "x[phi4,4]\t1/8",
                                "x[phi4,4]^2\t35/384",
                                "x[phi4,4]^3\t385/3072"]


def test_free_energy_output(files):
    rc, out, _ = run(["free-energy", "--table", files["quartic.tbl"],
                      "--max-degree", "12"])
    assert rc == 0
    assert out.splitlines() == ["x[phi4,4]\t1/8", "x[phi4,4]^2\t1/12",
                                "x[phi4,4]^3\t11/96"]


def test_partition_algebra_mode_matches_table_mode(files):
    _, table_out, _ = run(["partition", "--table", files["quartic.tbl"],
                           "--max-degree", "12"])
    _, alg_out, _ = run(["partition", "--algebra", files["quartic.alg"],
                         "--max-degree", "12"])
    assert table_out == alg_out
    _, f_out, _ = run(["free-energy", "--algebra", files["quartic.alg"],
                       "--max-degree", "12"])
    assert "x[phi4,4]^2\t1/12" in f_out.splitlines()


def test_expect_rooted_star(files):
    rc, out, _ = run(["expect", files["star4.fd"], "--algebra",
                      files["quartic.alg"], "--potential",
                      "--max-degree", "8"])
    assert rc == 0
    assert out.splitlines() == ["1\t1/8", "x[phi4,4]\t35/192",
                                "x[phi4,4]^2\t385/1024"]


def test_closures_of_a_star(files):
    rc, out, _ = run(["closures", files["star4.fd"], "--table",
                      files["quartic.tbl"]])
    assert rc == 0
    rows = out.splitlines()
    assert len(rows) == 1
    mult, aut, text = rows[0].split("\t")
    assert (mult, aut) == ("3", "8")
    assert canonical_code(parse_diagram(text, quartic_table())).aut_order == 8


def test_compose_and_tensor(files):
    rc, out, _ = run(["compose", files["idpair.fd"], files["idpair.fd"]])
    assert rc == 0
    d = parse_diagram(out)
    assert d.src == 1 and d.tgt == 1
    rc, out, _ = run(["tensor", files["idpair.fd"], files["idpair.fd"]])
    assert rc == 0
    d = parse_diagram(out)
    assert d.src == 2 and d.tgt == 2


def test_verify_commands_pass(files):
    for argv in (["verify", "expfz", "--table", files["quartic.tbl"],
                  "--max-degree", "8"],
                 ["verify", "frt", "--algebra", files["quartic.alg"],
                  "--root", files["star4.fd"], "--potential",
                  "--max-degree", "8"],
                 ["verify", "wick"],
                 ["verify", "fubini"]):
        rc, out, _ = run(argv)
        assert rc == 0, argv
        assert out.splitlines()[-1] == "PASS"


def test_verify_expfz_shows_vanishing_difference(files):
    _, out, _ = run(["verify", "expfz", "--table", files["quartic.tbl"],
                     "--max-degree", "8"])
    assert "exp(F) - Z\t0" in out.splitlines()
    _, js, _ = run(["verify", "expfz", "--table", files["quartic.tbl"],
                    "--max-degree", "8", "--format", "json"])
    data = json.loads(js)
    assert data["ok"] is True and data["name"] == "expfz"


def test_verify_expfz_runs_the_census(files, monkeypatch):
    # F comes from the census and Z from the orbit count, so a census that
    # loses a class shows as a nonzero difference.
    def one_short(*args, **kwargs):
        return enumerate_closed(*args, **kwargs)[:-1]

    monkeypatch.setattr(generate, "enumerate_closed", one_short)
    rc, out, _ = run(["verify", "expfz", "--table", files["quartic.tbl"],
                      "--max-degree", "8"])
    assert rc == 1
    assert out.splitlines()[-1] == "FAIL"
    assert "exp(F) - Z\t0" not in out.splitlines()


def _series_out(s: MultiSeries) -> str:
    return "".join(f"{format_monomial(m)}\t{c}\n" for m, c in sorted_terms(s))


@pytest.mark.parametrize("command,of_z", [("partition", lambda z: z),
                                          ("free-energy", MultiSeries.log)],
                         ids=["partition", "free-energy"])
def test_table_series_need_no_census(files, command, of_z):
    # The orbit count builds Z without enumerating, past the census's
    # degree bound of 16.  The child's timeout guards against a hang; the
    # in-process computation is what is timed.
    for degree in (17, 40):
        done = run_python("-m", "fdcalc.cli", command, "--table",
                          files["quartic.tbl"], "--max-degree", str(degree))
        want = of_z(orbit_count_z(quartic_table(), degree))
        assert (done.returncode, done.stderr) == (0, ""), degree
        assert done.stdout == _series_out(want)
    start = time.perf_counter()
    of_z(partition_series(quartic_table(), 40))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("command", ["partition", "free-energy"])
def test_table_series_refuse_fast(files, command):
    done = run_python("-m", "fdcalc.cli", command, "--table",
                      files["quartic.tbl"], "--max-degree", str(10 ** 6))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and "100 star" in done.stderr
    start = time.perf_counter()
    with pytest.raises(ValueError, match="100 star"):
        partition_series(quartic_table(), 10 ** 6)
    assert time.perf_counter() - start < 1
    done = run_python("-m", "fdcalc.cli", command, "--table",
                      files["quartic.tbl"], "--max-degree", "-1")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: max_degree must be nonnegative\n"


def test_table_series_keep_every_census_degree(tmp_path):
    # Colours of valence 1-4 walk more star multisets at degree 11 than the
    # bound past degree 16 allows; the census accepts the degree, and so do
    # the table series and both sides of verify expfz.
    table = low_valence_table()
    path = tmp_path / "low.tbl"
    path.write_text(format_table(table))
    for command, census in (
            ("partition", census_series(table, 11)),
            ("free-energy", census_series(table, 11, connected=True))):
        assert run([command, "--table", str(path), "--max-degree", "11"]) == (
            0, _series_out(census), "")
    rc, out, err = run(["verify", "expfz", "--table", str(path),
                        "--max-degree", "11"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("check", ["wick", "taylor", "fubini", "expfz",
                                   "frt"])
def test_verify_json_parses(files, check):
    """Every check prints its verdict as JSON; a numpy scalar anywhere in
    it would not serialise."""
    inputs = {"expfz": ["--table", files["quartic.tbl"], "--max-degree", "4"],
              "frt": ["--algebra", files["quartic.alg"], "--max-degree", "4"]}
    rc, out, _ = run(["verify", check, *inputs.get(check, ()),
                      "--format", "json"])
    data = json.loads(out)
    assert rc == 0 and data["ok"] is True


def test_error_exits(files, tmp_path):
    bad = tmp_path / "bad.fd"
    bad.write_text("vertex a sym phi4 legs 4; edge a.1 - a.9;")
    rc, out, err = run(["aut", str(bad)])
    assert rc == 2 and not out
    assert "slot out of range" in err

    rc, _, err = run(["compose", files["theta.fd"], files["theta.fd"]])
    assert rc == 2 and "type header" in err

    rc, _, err = run(["partition", "--table", files["quartic.tbl"],
                      "--algebra", files["quartic.alg"],
                      "--max-degree", "4"])
    assert rc == 2 and "exactly one" in err

    rc, _, err = run(["aut", str(tmp_path / "missing.fd")])
    assert rc == 2 and "missing.fd" in err

    star18 = tmp_path / "star18.fd"
    star18.write_text("vertex a sym x legs 18;")
    rc, out, err = run(["closures", str(star18)])
    assert rc == 2 and not out
    assert err.startswith("error: ") and "at most 16 legs" in err

    no_valence = tmp_path / "no_valence.alg"
    no_valence.write_text(json.dumps({
        "dim": 1, "colours": [{"name": "phi4", "kind": "sym"}],
        "pairing": ["1"], "tensors": {"phi4": ["1"]}}))
    rc, out, err = run(["partition", "--algebra", str(no_valence),
                        "--max-degree", "4"])
    assert rc == 2 and not out
    assert err.startswith("error: ") and "valence" in err
    assert "Traceback" not in err

    no_tensor = json.loads(QUARTIC_ALG)["colours"] + [
        {"name": "phi3", "kind": "sym", "valence": 3}]
    for doc, message in (({"pairing": ["1", "0", "0"]}, "shape (3,)"),
                         ({"dim": -1}, "dim must be positive"),
                         ({"colours": no_tensor},
                          "colour 'phi3' has no tensor")):
        bad_alg = tmp_path / "bad.alg"
        bad_alg.write_text(json.dumps(json.loads(QUARTIC_ALG) | doc))
        rc, out, err = run(["partition", "--algebra", str(bad_alg),
                            "--max-degree", "4"])
        assert rc == 2 and not out
        assert err.startswith("error: ") and message in err

    for argv in (["verify", "frt", "--algebra", files["quartic.alg"],
                  "--max-degree", "-1"],
                 ["expect", files["star4.fd"], "--algebra",
                  files["quartic.alg"], "--max-degree", "-2"]):
        rc, out, err = run(argv)
        assert rc == 2 and not out, argv
        assert err == "error: max_degree must be nonnegative\n", argv


def test_fractional_fields_and_string_arrays_exit_two(tmp_path):
    # int() would read 1.7 as 1 and 4.9 as 4, and "1" would be read one
    # character at a time.
    bad = tmp_path / "bad.alg"
    bad.write_text(json.dumps({
        "dim": 1.7, "colours": [{"name": "phi4", "kind": "sym",
                                 "valence": 4.9}],
        "pairing": "1", "tensors": {"phi4": "1"}}))
    assert run(["free-energy", "--algebra", str(bad), "--max-degree", "8"]
               ) == (2, "", "error: dim must be an integer, not 1.7\n")


def test_legs_past_any_index_exit_two(tmp_path):
    huge = tmp_path / "huge.fd"
    huge.write_text(f"vertex a sym phi4 legs {10 ** 30};\n")
    assert run(["aut", str(huge)]) == (
        2, "", "error: line 1, column 1: too many legs to number\n")


HUGE = 10 ** 30


@pytest.mark.parametrize("text,stderr", [
    (f"type ({HUGE},0)\nwire w;\nin 1 = w.1;\nin 2 = w.2;\n",
     f"error: line 4, column 12: inputs must fill 1..{HUGE}\n"),
    (f"type (0,{HUGE})\nwire w;\nout 1 = w.1;\nout 2 = w.2;\n",
     f"error: line 4, column 13: outputs must fill 1..{HUGE}\n"),
], ids=["inputs", "outputs"])
def test_type_header_past_its_statements_exits_two(tmp_path, text, stderr):
    typed = tmp_path / "typed.fd"
    typed.write_text(text)
    assert run(["aut", str(typed)]) == (2, "", stderr)


# Colour-table refusals a table file reaches, each with its message.
BAD_TABLES = {
    "bad name": ("sym 4 9phi ordinary PHI\nsym 4 PHI special -\n",
                 "bad colour name '9phi'"),
    "coupon arity range": (
        "coupon(0,0) 0 t ordinary T\ncoupon(0,0) 0 T special -\n",
        "t: coupon arity out of range"),
    "valence": ("sym 0 phi ordinary PHI\nsym 0 PHI special -\n",
                "phi: valence must be a positive int"),
    "partner not special": (
        "sym 4 phi ordinary psi\nsym 4 psi ordinary PSI\n"
        "sym 4 PSI special -\n",
        "phi: bold partner 'psi' is not a special colour"),
    "partner kind": ("sym 4 phi ordinary PHI\ncyc 4 PHI special -\n",
                     "phi: partner 'PHI' has different kind or arity"),
    "shared partner": (
        "sym 4 phi ordinary PHI\nsym 4 psi ordinary PHI\n"
        "sym 4 PHI special -\n", "bold_of must be injective"),
}


@pytest.mark.parametrize("text,message", BAD_TABLES.values(), ids=BAD_TABLES)
def test_colour_table_refusals_exit_two(tmp_path, text, message):
    table = tmp_path / "bad.tbl"
    table.write_text(text)
    line = len(text.splitlines()) + 1
    assert run(["partition", "--table", str(table), "--max-degree", "4"]) == (
        2, "", f"error: line {line}, column 1: {message}\n")


# Algebra files refused after their fields parse, each with its message.
BAD_ALGEBRAS = {
    "ill conditioned": ({"pairing": [1.0, 0.0, 0.0, 1e-13],
                         "tensors": {"phi4": [1.0] * 16}},
                        "pairing matrix is ill conditioned"),
    "boolean": ({"pairing": [True, 0, 0, 1]}, "booleans are not numbers"),
    "colour table": ({"colours": [{"name": "phi4", "kind": "sym",
                                   "valence": 4, "bold": "1x"}]},
                     "bad colour name '1x'"),
    "orthonormalize": ({"orthonormalize": "false"},
                       "orthonormalize must be a boolean, not 'false'"),
}


@pytest.mark.parametrize("doc,message", BAD_ALGEBRAS.values(),
                         ids=BAD_ALGEBRAS)
def test_algebra_refusals_exit_two(tmp_path, doc, message):
    alg = tmp_path / "bad.alg"
    alg.write_text(json.dumps({
        "dim": 2, "colours": [{"name": "phi4", "kind": "sym", "valence": 4}],
        "pairing": ["1", "0", "0", "1"], "tensors": {"phi4": ["1"] * 16}}
        | doc))
    assert run(["partition", "--algebra", str(alg), "--max-degree", "4"]) == (
        2, "", f"error: {message}\n")


def test_running_out_of_memory_exits_two(files, monkeypatch):
    def exhaust(path, table):
        raise MemoryError

    monkeypatch.setattr("fdcalc.cli._load_diagram", exhaust)
    assert run(["aut", files["theta.fd"]]) == (
        2, "", "error: out of memory\n")


def test_algebra_sums_keep_the_closing_rule(files):
    star, alg = files["star4.fd"], files["quartic.alg"]
    # At 17 every even multiset of quartic stars fits 16 legs.
    at_16 = run(["partition", "--algebra", alg, "--max-degree", "16"])
    assert at_16[0] == 0
    assert run(["partition", "--algebra", alg, "--max-degree", "17"]) == at_16
    # Five stars carry 20 legs, and so do the star's 4 with four more.
    for argv in (["partition", "--algebra", alg, "--max-degree", "20"],
                 ["expect", star, "--algebra", alg, "--potential",
                  "--max-degree", "17"]):
        assert run(argv) == (
            2, "", "error: closures take at most 16 legs, not 20\n"), argv
    # Without the potential only the piece is closed, at any degree.
    rc, out, err = run(["expect", star, "--algebra", alg, "--max-degree",
                        "17"])
    assert (rc, out, err) == (0, "1\t1/8\n", "")


def _quartic_alg(dim: int) -> str:
    """An exact quartic algebra of the given dim whose tensor is all ones."""
    return json.dumps({
        "dim": dim,
        "colours": [{"name": "phi4", "kind": "sym", "valence": 4}],
        "pairing": [str(int(i == j)) for i in range(dim)
                    for j in range(dim)],
        "tensors": {"phi4": ["1"] * dim ** 4},
    })


FAIL_FAST = [
    pytest.param(lambda: enumerate_closed(coupon_table(), max_degree=20),
                 id="coupon-census-20"),
    pytest.param(lambda: enumerate_closed(quartic_table(), max_degree=10 ** 6),
                 id="quartic-census-1e6"),
    pytest.param(lambda: enumerate_closed(low_valence_table(), max_degree=17),
                 id="low-valence-census-17"),
    pytest.param(lambda: enumerate_closed(
        quartic_table(), max_degree=10 ** 6,
        root=symmetric_star("PHI3", 3, special=True)),
        id="special-3-leg-root-1e6"),
    pytest.param(["partition", "--algebra", "quartic5.alg",
                  "--max-degree", "20"], id="partition-algebra-20"),
]


@pytest.mark.parametrize("refused", FAIL_FAST)
def test_size_rules_refuse_before_any_closure(tmp_path, monkeypatch,
                                              refused):
    # A lazy check would walk the bases below the refused one first: the
    # coupon census at degree 16 alone takes over half a minute.
    searches = []

    def counted(*args, **kwargs):
        searches.append(args)
        return automorphism_generators(*args, **kwargs)

    monkeypatch.setattr(generate, "automorphism_generators", counted)
    (tmp_path / "quartic5.alg").write_text(_quartic_alg(5))
    start = time.perf_counter()
    if callable(refused):
        with pytest.raises(DiagramError):
            refused()
    else:
        argv = [str(tmp_path / a) if a.endswith(".alg") else a
                for a in refused]
        assert run(argv) == (
            2, "", "error: closures take at most 16 legs, not 20\n")
    assert time.perf_counter() - start < 1
    assert searches == []


@pytest.mark.parametrize("root", [
    "vertex a sym phi4 legs 4; edge a.1 - a.2; edge a.3 - a.4;\n",
    "vertex a sym phi4 legs 4; vertex b sym phi4 legs 4;\n"
    + "".join(f"edge a.{i} - b.{i};\n" for i in range(1, 5)),
], ids=["figure-eight", "banded-pair"])
def test_verify_frt_reaches_past_degree_sixteen(tmp_path, root):
    # The root's own vertices carry 4 or 8 of the 20 degrees, so every
    # even base fits 16 legs.
    (tmp_path / "root.fd").write_text(root)
    (tmp_path / "exact.alg").write_text(EXACT_ALG)
    rc, out, err = run(["verify", "frt", "--algebra",
                        str(tmp_path / "exact.alg"), "--potential", "--root",
                        str(tmp_path / "root.fd"), "--max-degree", "20"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "PASS"


def test_upper_case_colour_loads(files, tmp_path):
    alg = tmp_path / "up.alg"
    alg.write_text(json.dumps({
        "dim": 1, "colours": [{"name": "G", "kind": "sym", "valence": 4}],
        "pairing": ["1"], "tensors": {"G": ["1"]}}))
    rc, out, err = run(["partition", "--algebra", str(alg),
                        "--max-degree", "8"])
    assert (rc, err) == (0, "")
    assert out == "1\t1\nx[G,4]\t1/8\nx[G,4]^2\t35/384\n"


def test_reruns_are_byte_identical(files):
    for argv in (["enumerate", "--table", files["quartic.tbl"],
                  "--max-degree", "8"],
                 ["partition", "--algebra", files["quartic.alg"],
                  "--max-degree", "12", "--format", "json"],
                 ["verify", "wick"],
                 ["verify", "fubini", "--format", "json"],
                 ["closures", files["star4.fd"]]):
        assert run(argv) == run(argv), argv


TABLE_MAKERS = [quartic_table, cubic_table, mixed_table, cyclic_table,
                coupon_table]


@pytest.mark.parametrize("maker", TABLE_MAKERS, ids=lambda f: f.__name__)
def test_enumerate_rows_round_trip(maker, tmp_path):
    table = maker()
    tbl = tmp_path / "t.tbl"
    tbl.write_text(format_table(table))
    rc, out, _ = run(["enumerate", "--table", str(tbl), "--max-degree", "8"])
    assert rc == 0
    classes = enumerate_closed(table, max_degree=8)
    rows = out.splitlines()
    assert len(rows) == len(classes)
    for row, cls in zip(rows, classes):
        degree, aut, _, text = row.split("\t")
        code = canonical_code(parse_diagram(text, table))
        assert code.code == cls.key
        assert (int(degree), int(aut)) == (cls.degree, code.aut_order)


def test_enumerate_rooted_uses_placeholder(files):
    rc, out, _ = run(["enumerate", "--table", files["quartic.tbl"],
                      "--max-degree", "8", "--root", files["star4.fd"],
                      "--reduced"])
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows and all(r[3] == "-" for r in rows)
    degrees = [r[0] for r in rows]
    assert degrees[:3] == ["0", "4", "4"]
    assert set(degrees[3:]) == {"8"}


# Each command, and whether it computes with the numeric layer and so loads
# numpy.  File arguments name entries of the ``files`` fixture.
NUMPY_USE = [
    (["aut", "theta.fd"], False),
    (["compose", "idpair.fd", "idpair.fd"], False),
    (["closures", "star4.fd", "--table", "quartic.tbl"], False),
    (["enumerate", "--table", "quartic.tbl", "--max-degree", "8"], False),
    (["partition", "--table", "quartic.tbl", "--max-degree", "8"], False),
    (["free-energy", "--table", "quartic.tbl", "--max-degree", "8"], False),
    (["verify", "expfz", "--table", "quartic.tbl", "--max-degree", "8"],
     False),
    (["verify", "fubini"], False),
    (["partition", "--algebra", "quartic.alg", "--max-degree", "8"], False),
    (["free-energy", "--algebra", "quartic.alg", "--max-degree", "8"], False),
    (["expect", "star4.fd", "--algebra", "quartic.alg"], False),
    (["expect", "star4.fd", "--algebra", "quartic.alg", "--potential",
      "--max-degree", "8"], False),
    (["verify", "frt", "--algebra", "quartic.alg"], False),
    (["verify", "frt", "--algebra", "quartic.alg", "--potential", "--root",
      "star4.fd", "--max-degree", "8"], False),
    (["verify", "taylor"], False),
    (["partition", "--algebra", "float.alg", "--max-degree", "8"], True),
    (["partition", "--algebra", "ortho.alg", "--max-degree", "8"], True),
    (["verify", "wick"], True),
]


@pytest.mark.parametrize("argv,numpy", NUMPY_USE,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else str(v))
def test_only_numeric_commands_load_numpy(files, argv, numpy):
    argv = [files.get(a, a) for a in argv]
    code = ("import sys\n"
            "from fdcalc.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "assert 'dataclasses' not in sys.modules\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            "sys.exit(rc)\n")
    done = run_python("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == str(numpy)


# Each command and what it loads past what every command loads (``cli``
# and the colour, diagram and file-format modules): the fdcalc modules by
# their bare names, and ``json``.  No other fdcalc module loads, and no
# command loads ``dataclasses``.
EVERY_COMMAND = {"cli", "colours", "diagram", "dsl"}
CENSUS = {"generate", "iso", "series"}
NUMERIC = CENSUS | {"algebra", "gaussian", "json", "poly", "verify"}
MODULE_USE = [
    (["aut", "theta.fd"], {"iso"}),
    (["aut", "theta.fd", "--format", "json"], {"iso", "json"}),
    (["compose", "idpair.fd", "idpair.fd"], {"generate", "iso", "prop"}),
    (["closures", "star4.fd", "--table", "quartic.tbl"],
     {"generate", "iso", "prop"}),
    (["enumerate", "--table", "quartic.tbl", "--max-degree", "8"], CENSUS),
    (["partition", "--table", "quartic.tbl", "--max-degree", "8"], CENSUS),
    (["free-energy", "--table", "quartic.tbl", "--max-degree", "8"], CENSUS),
    (["verify", "expfz", "--table", "quartic.tbl", "--max-degree", "8"],
     CENSUS | {"poly", "verify"}),
    (["verify", "fubini"],
     {"coverings", "generate", "iso", "poly", "prop", "verify"}),
    (["partition", "--algebra", "quartic.alg", "--max-degree", "8"],
     CENSUS | {"algebra", "json", "poly"}),
    (["verify", "wick"], {"gaussian", "poly", "verify"}),
    (["verify", "frt", "--algebra", "quartic.alg"], NUMERIC),
    (["verify", "taylor"], NUMERIC),
]


@pytest.mark.parametrize("argv,loaded", MODULE_USE,
                         ids=[" ".join(argv) for argv, _ in MODULE_USE])
def test_each_command_loads_only_its_modules(files, argv, loaded):
    argv = [files.get(a, a) for a in argv]
    code = ("import sys\n"
            "from fdcalc.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "assert 'dataclasses' not in sys.modules\n"
            "print(*sorted(m.removeprefix('fdcalc.') for m in sys.modules\n"
            "              if m.startswith('fdcalc.') or m == 'json'),\n"
            "      file=sys.stderr)\n"
            "sys.exit(rc)\n")
    done = run_python("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1].split() == sorted(
        EVERY_COMMAND | loaded)


# Commands whose work passes through sets and dicts of diagrams, colours
# and variables, which iterate in hash order, and string hashes change
# with ``PYTHONHASHSEED``.
RERUNS = {
    "enumerate --table": ["enumerate", "--table", "cyclic.tbl",
                          "--max-degree", "12", "--connected"],
    "enumerate coupon --connected": ["enumerate", "--table", "coupon.tbl",
                                     "--max-degree", "8", "--connected"],
    "enumerate quartic --reduced --root": [
        "enumerate", "--table", "quartic.tbl", "--max-degree", "8",
        "--reduced", "--root", "star4.fd"],
    "closures coupons.fd": ["closures", "coupons.fd", "--table",
                            "coupon.tbl"],
    "free-energy --algebra": ["free-energy", "--algebra", "exact.alg",
                              "--max-degree", "12"],
    "verify fubini": ["verify", "fubini"],
}


@pytest.mark.parametrize("argv", RERUNS.values(), ids=RERUNS)
def test_reruns_print_the_same_bytes(files, argv, monkeypatch):
    argv = [files.get(a, a) for a in argv]
    outs = []
    for seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        done = run_python("-m", "fdcalc.cli", *argv)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]


# The argv before ``--help`` of each screen in ``cli_help.txt``.
HELP_SCREENS = [[], ["aut"], ["compose"], ["tensor"], ["closures"],
                ["enumerate"], ["partition"], ["free-energy"], ["expect"],
                ["verify"], ["verify", "wick"], ["verify", "frt"],
                ["verify", "expfz"], ["verify", "fubini"],
                ["verify", "taylor"]]


def _pinned_help() -> dict[str, str]:
    """``cli_help.txt``: each screen at 80 columns, under a line
    ``$ fdcalc <argv> --help``."""
    parts = re.split(r"^\$ fdcalc (.*)\n",
                     (Path(__file__).parent / "cli_help.txt").read_text(),
                     flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def _parse_exit(argv, monkeypatch) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of an argv that argparse ends, at a
    fixed terminal width."""
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(SystemExit) as stop:
        main(argv)
    return stop.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", HELP_SCREENS,
                         ids=lambda v: " ".join(v) or "fdcalc")
def test_help_is_pinned(argv, monkeypatch):
    argv = [*argv, "--help"]
    pinned = _pinned_help()[" ".join(argv)]
    assert _parse_exit(argv, monkeypatch) == (0, pinned, "")


PARSE_ERRORS = [
    (["partition", "--table", "quartic.tbl"],
     "usage: fdcalc partition [-h] [--format {tsv,json}] [--table TABLE]\n"
     "                        [--algebra ALGEBRA] --max-degree MAX_DEGREE\n"
     "fdcalc partition: error: the following arguments are required:"
     " --max-degree\n"),
    (["nope"],
     "usage: fdcalc [-h]\n"
     "              {aut,compose,tensor,closures,enumerate,partition,"
     "free-energy,expect,verify}\n"
     "              ...\n"
     "fdcalc: error: argument command: invalid choice: 'nope' (choose from"
     " 'aut', 'compose', 'tensor', 'closures', 'enumerate', 'partition',"
     " 'free-energy', 'expect', 'verify')\n"),
    (["verify"],
     "usage: fdcalc verify [-h] {wick,frt,expfz,fubini,taylor} ...\n"
     "fdcalc verify: error: the following arguments are required: check\n"),
    (["aut", "theta.fd", "--format", "xml"],
     "usage: fdcalc aut [-h] [--format {tsv,json}] [--table TABLE] file\n"
     "fdcalc aut: error: argument --format: invalid choice: 'xml'"
     " (choose from 'tsv', 'json')\n"),
    (["closures", "theta.fd", "--bogus"],
     "usage: fdcalc [-h]\n"
     "              {aut,compose,tensor,closures,enumerate,partition,"
     "free-energy,expect,verify}\n"
     "              ...\n"
     "fdcalc: error: unrecognized arguments: --bogus\n"),
]


@pytest.mark.parametrize("argv,stderr", PARSE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in PARSE_ERRORS])
def test_parse_errors_are_pinned(files, argv, stderr, monkeypatch):
    argv = [files.get(a, a) for a in argv]
    assert _parse_exit(argv, monkeypatch) == (2, "", stderr)


CYCLIC_ALG = json.dumps({
    "dim": 1,
    "colours": [{"name": "psi3", "kind": "cyc", "valence": 3}],
    "pairing": ["1"],
    "tensors": {"psi3": ["1"]},
})

# Six special cyclic stars: 18 legs, each its own multigraph node, and
# degree 0, so a census rooted there has every star multiset to close.
SIX_PSI3_SRC = "".join(f"vertex v{i} cyc PSI3 legs 3;\n" for i in range(6))


@pytest.mark.parametrize("argv", [
    ["closures", "six_psi3.fd", "--table", "cyclic.tbl"],
    ["enumerate", "--table", "cyclic.tbl", "--max-degree", "0",
     "--root", "six_psi3.fd"],
    ["expect", "six_psi3.fd", "--algebra", "cyclic.alg", "--potential",
     "--max-degree", "0"],
    ["verify", "frt", "--algebra", "cyclic.alg", "--potential",
     "--root", "six_psi3.fd", "--max-degree", "0"],
], ids=lambda v: v[0] if v[0] != "verify" else "verify frt")
def test_every_closing_refuses_eighteen_legs(tmp_path, argv):
    # In a child interpreter, so that a hang fails at run_python's timeout.
    for name, text in (("six_psi3.fd", SIX_PSI3_SRC),
                       ("cyclic.tbl", format_table(cyclic_table())),
                       ("cyclic.alg", CYCLIC_ALG)):
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if (tmp_path / a).exists() else a
            for a in argv]
    done = run_python("-m", "fdcalc.cli", *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: closures take at most 16 legs, not 18\n"


# The stdout of float algebras, pinned byte for byte: every coefficient is
# the exact value of a double, so a changed bit anywhere in the float
# contraction, the pairing inverse or the orthonormal basis shows here.
GOLDEN = [
    (["partition", "--algebra", "float.alg", "--max-degree", "8"],
     "1\t1\n"
     "x[phi4,4]\t7352815718155909/144115188075855872\n"
     "x[phi4,4]^2\t2974739159116790803/13835058055282163712\n"),
    (["free-energy", "--algebra", "float.alg", "--max-degree", "8"],
     "x[phi4,4]\t7352815718155909/144115188075855872\n"
     "x[phi4,4]^2\t26631876640090121551201191117847733"
     "/124615124604835863084731911901282304\n"),
    (["expect", "star4.fd", "--algebra", "float.alg"],
     "1\t7352815718155909/144115188075855872\n"),
    (["expect", "star4.fd", "--algebra", "float.alg", "--potential",
      "--max-degree", "8"],
     "1\t7352815718155909/144115188075855872\n"
     "x[phi4,4]\t2974739159116790803/6917529027641081856\n"
     "x[phi4,4]^2\t17397748081060763263/55340232221128654848\n"),
    (["verify", "frt", "--algebra", "float.alg", "--potential",
      "--max-degree", "8"],
     "1\t1\t1\n"
     "phi4\t7352815718155909/144115188075855872"
     "\t919101964769489/18014398509481984\n"
     "phi4^2\t2974739159116790803/13835058055282163712"
     "\t7746716560199975/36028797018963968\n"
     "max deviation\t403/13835058055282163712\n"
     "PASS\n"),
    (["verify", "frt", "--algebra", "float.alg", "--potential", "--root",
      "star4.fd", "--max-degree", "8"],
     "1\t7352815718155909/144115188075855872"
     "\t919101964769489/18014398509481984\n"
     "phi4\t2974739159116790803/6917529027641081856"
     "\t7746716560199975/18014398509481984\n"
     "phi4^2\t17397748081060763263/55340232221128654848"
     "\t1415832363367577/4503599627370496\n"
     "max deviation\t22913/55340232221128654848\n"
     "PASS\n"),
    (["partition", "--algebra", "ortho.alg", "--max-degree", "8"],
     "1\t1\n"
     "x[phi4,4]\t8046431334235289/72057594037927936\n"
     "x[phi3,3]^2\t16513198633691833/72057594037927936\n"
     "x[phi4,4]^2\t80956706901612097/1729382256910270464\n"),
    (["free-energy", "--algebra", "ortho.alg", "--max-degree", "8"],
     "x[phi4,4]\t8046431334235289/72057594037927936\n"
     "x[phi3,3]^2\t16513198633691833/72057594037927936\n"
     "x[phi4,4]^2\t1264151208491280327951390739219885"
     "/31153781151208965771182977975320576\n"),
    (["expect", "star4.fd", "--algebra", "ortho.alg"],
     "1\t8046431334235289/72057594037927936\n"),
    (["expect", "star4.fd", "--algebra", "ortho.alg", "--potential",
      "--max-degree", "8"],
     "1\t8046431334235289/72057594037927936\n"
     "x[phi4,4]\t80956706901612097/864691128455135232\n"
     "x[phi3,3]^2\t613870653208115147/1729382256910270464\n"
     "x[phi4,4]^2\t254074836385754073/2305843009213693952\n"),
    (["verify", "frt", "--algebra", "ortho.alg", "--potential",
      "--max-degree", "8"],
     "1\t1\t1\n"
     "phi3^2\t16513198633691833/72057594037927936"
     "\t2064149829211479/9007199254740992\n"
     "phi4\t8046431334235289/72057594037927936"
     "\t1005803916779411/9007199254740992\n"
     "phi4^2\t80956706901612097/1729382256910270464"
     "\t6746392241801007/144115188075855872\n"
     "max deviation\t1/72057594037927936\n"
     "PASS\n"),
    (["verify", "frt", "--algebra", "ortho.alg", "--potential", "--root",
      "star4.fd", "--max-degree", "8"],
     "1\t8046431334235289/72057594037927936"
     "\t1005803916779411/9007199254740992\n"
     "phi3^2\t613870653208115147/1729382256910270464"
     "\t3197242985458933/9007199254740992\n"
     "phi4\t80956706901612097/864691128455135232"
     "\t6746392241801007/72057594037927936\n"
     "phi4^2\t254074836385754073/2305843009213693952"
     "\t1984959659263703/18014398509481984\n"
     "max deviation\t89/2305843009213693952\n"
     "PASS\n"),
]


@pytest.mark.parametrize("argv,stdout", GOLDEN,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else "")
def test_float_algebra_output_is_pinned(files, argv, stdout):
    assert run([files.get(a, a) for a in argv]) == (0, stdout, "")


# Entries that parse but are no finite number: a zero denominator, a NaN,
# and a literal beyond the doubles, which JSON reads as infinity.
BAD_ENTRIES = [
    (QUARTIC_ALG.replace('"tensors": {"phi4": ["1"]}',
                         '"tensors": {"phi4": ["1/0"]}'), "divides by zero"),
    (QUARTIC_ALG.replace('"pairing": ["1"]', '"pairing": [NaN]'),
     "must be finite, not nan"),
    (QUARTIC_ALG.replace('"tensors": {"phi4": ["1"]}',
                         '"tensors": {"phi4": [1e400]}'),
     "must be finite, not inf"),
]


@pytest.mark.parametrize("text,message", BAD_ENTRIES,
                         ids=["zero-denominator", "nan", "1e400"])
@pytest.mark.parametrize("argv", [
    ["partition", "--algebra", "bad.alg", "--max-degree", "4"],
    ["expect", "star4.fd", "--algebra", "bad.alg"],
], ids=lambda v: v[0])
def test_non_finite_entries_exit_two(files, tmp_path, text, message, argv):
    (tmp_path / "bad.alg").write_text(text)
    files = files | {"bad.alg": str(tmp_path / "bad.alg")}
    rc, out, err = run([files.get(a, a) for a in argv])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err

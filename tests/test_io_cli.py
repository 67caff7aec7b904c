"""The .alg text format and the command-line front end."""

import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bihomlie
from bihomlie.alg_io import (
    FORMAT_VERSION,
    ParseError,
    jsonable,
    parse_algebra,
    parse_linear_map,
    parse_multiplier,
    serialize_algebra,
)
from bihomlie import alg_io, cli, cohomology, constructions
from bihomlie.algebra import (
    MAX_DIM,
    MAX_SCALAR_DIGITS,
    check_lie_axioms,
    read_scalar,
    to_fraction,
)
from bihomlie.admissibility import SUBGROUPS, check_g_associative
from bihomlie.cli import run_cli
from bihomlie.cohomology import Cochain
from bihomlie.constructions import (
    CORPUS_NAMES,
    build_osp12,
    corpus,
    zero_algebra,
)
from bihomlie.derivations import HomEndo
from bihomlie.grading import parse_group
from bihomlie.linalg import Matrix, vec
from bihomlie.multipliers import (
    MissingEntryError,
    MultiplierTable,
    multiplier_from_omega,
    sigma_twist,
)

F = Fraction

DATA_FILES = (
    "zero_3.alg",
    "osp12_classical.alg",
    "osp12_twist_2_3.alg",
    "mat2_assoc.alg",
    "z2z2_colour.alg",
)


def data_path(name):
    return str(resources.files("bihomlie").joinpath("data", name))


MINIMAL = """\
version 1
[group]
Z2
[bicharacter]
e1 e1 -1
[basis]
x 0
f 1
[product]
f f -> 2 x
[kind]
lie
"""


# -- parsing ------------------------------------------------------------------


def test_minimal_file_parses():
    a = parse_algebra(MINIMAL)
    assert a.dim == 2 and a.kind == "lie"
    assert a.product[1][1] == (F(2), F(0))
    assert a.alpha == Matrix.identity(2)  # defaulted
    assert a.eps.eval((1,), (1,)) == -1


def test_comments_and_blank_lines_are_ignored():
    noisy = MINIMAL.replace(
        "[product]", "# a comment\n\n[product]  # trailing"
    )
    assert parse_algebra(noisy) == parse_algebra(MINIMAL)


def test_unstated_products_vanish():
    a = parse_algebra(MINIMAL)
    assert not any(a.product[0][0])
    assert not any(a.product[0][1])


@pytest.mark.parametrize("name", DATA_FILES)
def test_shipped_files_are_canonical_fixpoints(name):
    with open(data_path(name), encoding="utf-8") as fh:
        text = fh.read()
    a = parse_algebra(text)
    canon = serialize_algebra(a)
    assert parse_algebra(canon) == a
    assert serialize_algebra(parse_algebra(canon)) == canon


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_members_round_trip(name):
    a = corpus(name)
    assert parse_algebra(serialize_algebra(a)) == a


def test_version_header_required():
    with pytest.raises(ParseError, match="version 1"):
        parse_algebra("[group]\nZ2\n")
    assert FORMAT_VERSION == 1


def test_error_carries_the_line_number():
    bad = MINIMAL.replace("f f -> 2 x", "f f -> 2 q")
    with pytest.raises(ParseError, match="line 10: unknown basis vector 'q'"):
        parse_algebra(bad)
    try:
        parse_algebra(bad)
    except ParseError as e:
        assert e.line == 10


def test_section_structure_errors():
    with pytest.raises(ParseError, match="empty input"):
        parse_algebra("# nothing here\n")
    with pytest.raises(ParseError, match=r"unknown section \[brackets\]"):
        parse_algebra("version 1\n[brackets]\n")
    with pytest.raises(ParseError, match=r"duplicate section \[basis\]"):
        parse_algebra(MINIMAL + "[basis]\n")
    with pytest.raises(ParseError, match="content before any section"):
        parse_algebra("version 1\nZ2\n")
    with pytest.raises(ParseError, match=r"missing \[group\]"):
        parse_algebra("version 1\n[basis]\nx 0\n")
    with pytest.raises(ParseError, match="exactly one line"):
        parse_algebra("version 1\n[group]\nZ2\nZ2\n[basis]\nx 0\n")
    with pytest.raises(ParseError, match=r"missing or empty \[basis\]"):
        parse_algebra("version 1\n[group]\nZ2\n")


def test_basis_line_errors():
    with pytest.raises(ParseError, match="would be ambiguous"):
        parse_algebra("version 1\n[group]\nZ2\n[basis]\n2 0\n")
    with pytest.raises(ParseError, match="duplicate basis name"):
        parse_algebra("version 1\n[group]\nZ2\n[basis]\nx 0\nx 1\n")
    with pytest.raises(ParseError, match="expected 1 degree components"):
        parse_algebra("version 1\n[group]\nZ2\n[basis]\nx 0 0\n")


def test_bicharacter_errors():
    head = "version 1\n[group]\nZ2\n[bicharacter]\n"
    with pytest.raises(ParseError, match="expected 'ei ej value'"):
        parse_algebra(head + "e1 -1\n")
    with pytest.raises(ParseError, match="bad generator 'x1'"):
        parse_algebra(head + "x1 e1 -1\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_algebra(head + "e1 e2 -1\n")
    with pytest.raises(ParseError, match="must be 1 or -1"):
        parse_algebra(head + "e1 e1 2\n")
    # skew-inconsistent generator values are caught globally
    with pytest.raises(ParseError, match="invalid bicharacter"):
        parse_algebra(
            "version 1\n[group]\nZ x Z\n[bicharacter]\ne1 e2 -1\n"
            "[basis]\nx 0 0\n"
        )


def test_product_line_errors():
    with pytest.raises(ParseError, match="needs '->'"):
        parse_algebra(MINIMAL.replace("f f -> 2 x", "f f 2 x"))
    with pytest.raises(ParseError, match="name two vectors"):
        parse_algebra(MINIMAL.replace("f f -> 2 x", "f -> 2 x"))
    with pytest.raises(ParseError, match="duplicate product line"):
        parse_algebra(MINIMAL.replace("f f -> 2 x", "f f -> x\nf f -> 2 x"))
    with pytest.raises(ParseError, match="bad coefficient"):
        parse_algebra(MINIMAL.replace("2 x", "two x"))
    with pytest.raises(ParseError, match="bad term"):
        parse_algebra(MINIMAL.replace("2 x", "2 x x"))


def test_evenness_is_validated_with_a_readable_witness():
    bad = MINIMAL.replace("f f -> 2 x", "f f -> 2 f")
    with pytest.raises(
        ParseError, match="not even: component f has degree 1, expected 0"
    ):
        parse_algebra(bad)
    odd_map = MINIMAL + "[alpha]\nx -> f\n"
    with pytest.raises(ParseError, match=r"\[alpha\] is not even: sends x"):
        parse_algebra(odd_map)
    # two off-block entries, at (f, x) and (x, f): the row-major first,
    # (x, f), is named
    with pytest.raises(ParseError) as caught:
        parse_algebra(MINIMAL + "[beta]\nx -> f\nf -> x\n")
    assert str(caught.value) == (
        "[beta] is not even: sends f (degree 1) into x (degree 0)"
    )


def test_map_section_errors():
    with pytest.raises(ParseError, match="needs '->'"):
        parse_algebra(MINIMAL + "[alpha]\nx x\n")
    with pytest.raises(ParseError, match="single basis vector"):
        parse_algebra(MINIMAL + "[alpha]\nx f -> x\n")
    with pytest.raises(ParseError, match=r"duplicate \[alpha\] line"):
        parse_algebra(MINIMAL + "[alpha]\nx -> x\nx -> 2 x\n")


def test_kind_errors():
    with pytest.raises(ParseError, match="unknown kind"):
        parse_algebra(MINIMAL.replace("lie", "group"))
    with pytest.raises(ParseError, match="one line"):
        parse_algebra(MINIMAL + "associative\n")


def test_parse_linear_map_defaults_to_identity():
    basis = parse_algebra(MINIMAL).basis
    m = parse_linear_map("x -> 3 x\n", basis)
    assert m.column(0) == (F(3), F(0))
    assert m.column(1) == (F(0), F(1))


def test_parse_multiplier_side_file():
    g = parse_group("Z2")
    t = parse_multiplier("0 0 2\n0 1 1/2\n1 0 1/2\n1 1 18\n", g)
    assert t.value((1,), (1,)) == 18
    with pytest.raises(ParseError, match="expected 'g h value'"):
        parse_multiplier("0 0\n", g)
    with pytest.raises(ParseError, match="bad value"):
        parse_multiplier("0 0 x\n", g)
    with pytest.raises(ParseError, match="duplicate entry"):
        parse_multiplier("0 0 1\n0 0 2\n", g)
    with pytest.raises(ParseError, match="multiplier value 0"):
        parse_multiplier("0 0 0\n", g)


@pytest.mark.parametrize("text", ["2\n", "  2\n", "2"])
def test_a_one_token_line_is_the_entry_of_the_trivial_group(text):
    # over a group of rank 0 both degrees are the empty token, as the
    # twist tests write them
    t = parse_multiplier(text, parse_group("0"))
    assert t.entries == {((), ()): F(2)}
    assert t.value((), ()) == 2


def test_the_trivial_group_keeps_its_multiplier_refusals():
    g = parse_group("0")
    # an empty file parses, but names no entry
    with pytest.raises(MissingEntryError, match=re.escape(
        "multiplier has no entry for (, )"
    )):
        parse_multiplier("", g).value((), ())
    # three tokens name degrees of rank 1
    with pytest.raises(ParseError, match="expected 0 coordinates, got 1"):
        parse_multiplier("0 0 2\n", g)
    with pytest.raises(ParseError, match="expected 'g h value'"):
        parse_multiplier("1 2\n", g)
    with pytest.raises(ParseError, match="duplicate entry"):
        parse_multiplier("2\n3\n", g)
    with pytest.raises(ParseError, match="multiplier value 0"):
        parse_multiplier("0\n", g)
    # a group of positive rank still needs both degrees
    with pytest.raises(ParseError, match="expected 'g h value'"):
        parse_multiplier("2\n", parse_group("Z2"))


def test_jsonable_rewrites_fractions_and_tuples():
    out = jsonable({"a": F(4, 3), "b": (F(1), [F(-2, 5)])})
    assert out == {"a": "4/3", "b": ["1", ["-2/5"]]}
    json.dumps(out)  # must be serializable as-is


# -- the command line ----------------------------------------------------------


def test_check_passes_on_shipped_lie_files(capsys):
    code = run_cli(["check", data_path("osp12_classical.alg")])
    out = capsys.readouterr().out
    assert code == 0
    assert "lie suite" in out and "PASS" in out
    assert "ok    bihom_jacobi" in out


def test_check_fails_with_witness_on_a_broken_table(tmp_path, capsys):
    with open(data_path("osp12_twist_2_3.alg"), encoding="utf-8") as fh:
        text = fh.read()
    broken = tmp_path / "broken.alg"
    broken.write_text(text.replace("F F -> 1/3 Y", "F F -> 4/3 Y"))
    code = run_cli(["check", str(broken)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  bihom_jacobi" in out
    assert "defect" in out


def test_check_suite_can_be_forced(capsys):
    code = run_cli(
        ["check", data_path("mat2_assoc.alg"), "--axioms", "lie"]
    )
    assert code == 1  # the matrix product is no bracket
    assert "FAIL" in capsys.readouterr().out


def test_check_report_json(tmp_path, capsys):
    report = tmp_path / "out.json"
    code = run_cli(
        ["check", data_path("zero_3.alg"), "--report", str(report)]
    )
    capsys.readouterr()
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["version"] == 1
    assert doc["command"] == "check"
    assert doc["payload"]["suite"] == "lie"
    assert doc["payload"]["passed"] is True
    assert any(
        item["name"] == "bihom_skewsymmetry"
        for item in doc["payload"]["items"]
    )


def test_garbage_input_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("this is not an algebra\n")
    assert run_cli(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli(["check", str(tmp_path / "absent.alg")]) == 2
    capsys.readouterr()


def test_a_directory_as_input_is_a_usage_error(tmp_path, capsys):
    assert run_cli(["check", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_directory_as_report_path_is_a_usage_error(tmp_path, capsys):
    code = run_cli(
        ["check", data_path("zero_3.alg"), "--report", str(tmp_path)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["nope", "zero_1_0", "zero_ 3", "zero_+3", "zero_03", "zero_\u0663"]
)
def test_an_unknown_example_name_is_reported_unquoted(name, capsys):
    assert run_cli(["example", name]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: unknown corpus algebra {name!r}\n"
    assert out.out == ""


def test_usage_errors_exit_2(capsys):
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_the_parser_is_built_once_and_each_call_parses_afresh(capsys):
    parser = cli._parser()
    assert cli._parser() is parser
    path = data_path("osp12_twist_2_3.alg")
    strict = parser.parse_args(
        ["derivations", path, "--kind", "centroid", "--strict"]
    )
    plain = parser.parse_args(["derivations", path, "--kind", "der"])
    assert (strict.kind, strict.strict) == ("centroid", True)
    assert (plain.kind, plain.strict, plain.degree) == ("der", False, None)
    assert plain.func is cli._cmd_derivations
    # a usage error leaves the shared parser fit for the next call
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["check", path]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name", DATA_FILES)
def test_roundtrip_subcommand(name, capsys):
    assert run_cli(["roundtrip", data_path(name)]) == 0
    assert "round-trip OK" in capsys.readouterr().out


def test_example_subcommand(tmp_path, capsys):
    assert run_cli(["example", "--list"]) == 0
    out = capsys.readouterr().out
    for name in CORPUS_NAMES:
        assert name in out
    target = tmp_path / "osp.alg"
    assert run_cli(["example", "osp12_classical", "-o", str(target)]) == 0
    assert parse_algebra(target.read_text()) == corpus("osp12_classical")
    assert run_cli(["example"]) == 2
    assert run_cli(["example", "no_such_algebra"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name, shipped", zip(CORPUS_NAMES, DATA_FILES))
def test_example_writes_the_shipped_file_byte_for_byte(name, shipped, tmp_path):
    target = tmp_path / "out.alg"
    assert run_cli(["example", name, "-o", str(target)]) == 0
    with open(data_path(shipped), "rb") as fh:
        assert target.read_bytes() == fh.read()


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "osp12_classical", "-o", "x.alg"],
        ["roundtrip", data_path("osp12_classical.alg")],
    ],
)
def test_the_commands_that_write_no_report_refuse_report(
    argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert run_cli([*argv, "--report", "r.json"]) == 2
    assert "unrecognized arguments: --report r.json" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_twist_subcommand_builds_the_scaled_algebra(tmp_path, capsys):
    a2 = tmp_path / "a2.map"
    b2 = tmp_path / "b2.map"
    # the two scaling morphisms with t = 2 and t = 3
    for path, t in ((a2, F(2)), (b2, F(3))):
        path.write_text(
            f"X -> {t ** 2} X\nY -> {1 / t ** 2} Y\n"
            f"F -> {1 / t} F\nG -> {t} G\n"
        )
    out = tmp_path / "twisted.alg"
    code = run_cli(
        [
            "twist",
            data_path("osp12_classical.alg"),
            str(a2),
            str(b2),
            "-o",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert parse_algebra(out.read_text()) == build_osp12(2, 3)


def test_twist_missing_side_file(tmp_path, capsys):
    code = run_cli(
        [
            "twist",
            data_path("osp12_classical.alg"),
            str(tmp_path / "none.map"),
            str(tmp_path / "none.map"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_sigma_twist_subcommand(tmp_path, capsys):
    sigma = tmp_path / "sigma.mult"
    sigma.write_text("0 0 1/2\n0 1 1/2\n1 0 1/2\n1 1 18\n")
    out = tmp_path / "twisted.alg"
    code = run_cli(
        [
            "sigma-twist",
            data_path("osp12_classical.alg"),
            str(sigma),
            "-o",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    a = corpus("osp12_classical")
    table = multiplier_from_omega(
        a.basis.group, {(0,): F(2), (1,): F(1, 3)}, [(0,), (1,)]
    )
    assert parse_algebra(out.read_text()) == sigma_twist(a, table)


def test_sigma_twist_rejects_asymmetric_tables(tmp_path, capsys):
    sigma = tmp_path / "sigma.mult"
    sigma.write_text("0 0 1\n0 1 2\n1 0 3\n1 1 1\n")
    code = run_cli(
        ["sigma-twist", data_path("osp12_classical.alg"), str(sigma)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "multiplier validation failed" in out


def test_delta_twist_subcommand_flips_the_bicharacter(tmp_path, capsys):
    lines = []
    for g in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for h in ((0, 0), (0, 1), (1, 0), (1, 1)):
            v = (-1) ** (g[1] * h[0])
            lines.append(f"{g[0]},{g[1]} {h[0]},{h[1]} {v}")
    delta = tmp_path / "delta.mult"
    delta.write_text("\n".join(lines) + "\n")
    out = tmp_path / "flipped.alg"
    code = run_cli(
        [
            "delta-twist",
            data_path("z2z2_colour.alg"),
            str(delta),
            "-o",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    flipped = parse_algebra(out.read_text())
    assert flipped.eps.gen_values == ((1, 1), (1, 1))


def test_admissible_subcommand(capsys):
    assert run_cli(["admissible", data_path("mat2_assoc.alg")]) == 0
    out = capsys.readouterr().out
    for g in ("G1", "G2", "G3", "G4", "G5", "G6"):
        assert f"{g}: PASS" in out
    # a bracket is nowhere near associative
    assert (
        run_cli(
            [
                "admissible",
                data_path("osp12_classical.alg"),
                "--group",
                "G1",
            ]
        )
        == 1
    )
    assert "G1: FAIL" in capsys.readouterr().out


def test_cohomology_subcommand(tmp_path, capsys):
    report = tmp_path / "coh.json"
    code = run_cli(
        [
            "cohomology",
            data_path("zero_3.alg"),
            "--n",
            "0",
            "--r",
            "0",
            "--s",
            "0",
            "--l",
            "0",
            "--report",
            str(report),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "dim C=3 Z=3 B=0 H=3" in out
    doc = json.loads(report.read_text())
    assert doc["command"] == "cohomology"
    assert doc["payload"][0]["dim_h"] == 3


def test_cohomology_output_and_report_are_pinned(tmp_path, capsys):
    report = tmp_path / "coh.json"
    path = data_path("osp12_classical.alg")
    code = run_cli(["cohomology", path, "--n", "2", "--report", str(report)])
    assert code == 0
    assert capsys.readouterr().out == (
        "degree 0: dim C=30 Z=10 B=10 H=0\n"
        "degree 1: dim C=30 Z=10 B=10 H=0\n"
    )
    dims = {
        "dim_coboundaries": 10,
        "dim_cochains": 30,
        "dim_cocycles": 10,
        "dim_h": 0,
        "n": 2,
        "r": 1,
    }
    assert json.loads(report.read_text()) == {
        "command": "cohomology",
        "payload": [{"degree": [0], **dims}, {"degree": [1], **dims}],
        "version": 1,
    }


def test_cohomology_has_no_prefactor_option(capsys):
    # the coboundary has one sign convention, so the option is refused
    # by the parser, before any algebra is read
    path = data_path("osp12_classical.alg")
    argv = ["cohomology", path, "--n", "2", "--prefactor", "full"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --prefactor full" in captured.err
    assert "Traceback" not in captured.err


def test_cohomology_bad_degree(capsys):
    code = run_cli(
        [
            "cohomology",
            data_path("osp12_classical.alg"),
            "--n",
            "1",
            "--degree",
            "banana",
        ]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra", [[], ["--degree", "0"]], ids=["all_degrees", "one_degree"]
)
def test_cohomology_negative_arity_exits_2(tmp_path, capsys, extra):
    # without --degree no degree is realized at arity -1, so the check
    # must come before the degree loop rather than from cohomology_dims
    report = tmp_path / "coh.json"
    argv = ["cohomology", data_path("osp12_classical.alg"), "--n", "-1"]
    code = run_cli(argv + extra + ["--report", str(report)])
    captured = capsys.readouterr()
    assert code == 2
    assert "cochain arity must be nonnegative" in captured.err
    assert captured.out == ""
    assert not report.exists()


def test_derivations_subcommand(capsys):
    code = run_cli(
        ["derivations", data_path("osp12_classical.alg"), "--kind", "der"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "degree 0: dim 3" in out
    assert "degree 1: dim 2" in out
    assert "total: 5" in out


def test_derivations_single_degree_and_strict(capsys):
    code = run_cli(
        [
            "derivations",
            data_path("osp12_classical.alg"),
            "--kind",
            "centroid",
            "--degree",
            "0",
            "--strict",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("degree") == 1
    assert "total: 1" in out


@pytest.mark.parametrize("kind", ["der", "qder", "gder"])
def test_strict_with_a_kind_that_takes_none_is_a_usage_error(kind, capsys):
    path = data_path("osp12_classical.alg")
    code = run_cli(["derivations", path, "--kind", kind, "--strict"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == (
        "error: --strict applies only to --kind centroid|qcentroid\n"
    )
    assert out.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["derivations", "--kind", "der", "--k", "1000000000"],
        ["derivations", "--kind", "der", "--l", "-1000000000"],
        ["cohomology", "--n", "1", "--s", "1000000000"],
        ["cohomology", "--n", "1", "--l", "1000000000"],
        ["cohomology", "--n", "1", "--r", "1000000000"],
    ],
    ids=["der_k", "der_l", "coh_s", "coh_l", "coh_r"],
)
def test_a_huge_exponent_exits_2_at_once(argv, capsys, monkeypatch):
    def no_power(*args):
        raise AssertionError("a structure map was raised to a power")

    monkeypatch.setattr(Matrix, "power", no_power)
    code = run_cli(argv[:1] + [data_path("osp12_twist_2_3.alg")] + argv[1:])
    out = capsys.readouterr()
    assert code == 2
    assert f"exceeds {cli.MAX_EXPONENT}" in out.err
    assert out.out == ""


def test_the_exponent_bound_is_inclusive():
    bound = str(cli.MAX_EXPONENT)
    argv = ["derivations", "x.alg", "--kind", "der"]
    args = cli._parser().parse_args(argv + ["--k", bound, "--l", "-" + bound])
    assert (args.k, args.l) == (cli.MAX_EXPONENT, -cli.MAX_EXPONENT)


def test_a_huge_arity_exits_2_before_any_tuple_is_built(capsys, monkeypatch):
    # the arity bound is inclusive and checked before any canonical tuple
    # is built
    built = []

    def spy(a, n):
        built.append(n)
        return []

    monkeypatch.setattr(cohomology, "canonical_index_tuples", spy)
    path = data_path("osp12_classical.alg")
    for n in (cli.MAX_ARITY + 1, 1000, 10**9):
        assert run_cli(["cohomology", path, "--n", str(n)]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: cochain arity {n} exceeds {cli.MAX_ARITY}\n"
        assert out.out == ""
    assert built == []
    # an in-bound run enumerates the arities H^n reads, and no other
    assert run_cli(["cohomology", path, "--n", str(cli.MAX_ARITY)]) == 0
    n = cli.MAX_ARITY
    assert sorted(built) == [n - 1, n, n + 1]


@pytest.mark.parametrize("name, n", [("zero_40", 6), ("zero_100", 16)])
def test_a_cochain_space_over_the_slot_budget_exits_2_before_any_tuple(
    name, n, tmp_path, capsys, monkeypatch
):
    # zero_n has one degree and eps = +1, so its canonical n-tuples are
    # the n-subsets of the basis, each with dim V slots; the refusal comes
    # from their count, before any tuple is enumerated
    built = []
    monkeypatch.setattr(
        cohomology, "canonical_index_tuples", lambda a, n: built.append(n)
    )
    path = str(tmp_path / f"{name}.alg")
    assert run_cli(["example", name, "-o", path]) == 0
    capsys.readouterr()
    dim = int(name[5:])
    start = time.perf_counter()
    assert run_cli(["cohomology", path, "--n", str(n)]) == 2
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert out.err == (
        f"error: the {n}-cochains of degree () have {comb(dim, n) * dim} "
        f"slots, more than the limit of {cohomology.MAX_SLOTS}\n"
    )
    assert out.out == ""
    assert built == []
    assert elapsed < 1


def test_the_dimension_bound_refuses_larger_algebras(monkeypatch, capsys):
    assert run_cli(["example", f"zero_{MAX_DIM + 1}"]) == 2
    assert f"1 <= n <= {MAX_DIM}" in capsys.readouterr().err
    with pytest.raises(ParseError, match=f"more than {MAX_DIM}"):
        parse_algebra(
            "version 1\n[group]\nZ2\n[basis]\n"
            + "".join(f"e{i} 0\n" for i in range(MAX_DIM + 1))
        )
    # the bound itself is accepted, by the parser and by corpus alike
    monkeypatch.setattr(alg_io, "MAX_DIM", 3)
    monkeypatch.setattr(constructions, "MAX_DIM", 3)
    assert parse_algebra(MINIMAL.replace("f 1\n", "f 1\ng 1\n")).dim == 3
    with pytest.raises(ParseError, match="more than 3"):
        parse_algebra(MINIMAL.replace("f 1\n", "f 1\ng 1\nh 1\n"))
    assert corpus("zero_3").dim == 3
    with pytest.raises(KeyError, match="1 <= n <= 3"):
        corpus("zero_4")


def _outcome_in_child(call, timeout=30):
    """Run call() in a forked child process; return what it raised
    ("ParseError: ...") or the int it returned, with the seconds it took.
    A call that runs past the timeout fails the test instead of hanging it."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        start = time.perf_counter()
        try:
            out = call()
        except Exception as e:
            out = f"{type(e).__name__}: {e}"
        else:
            out = out if type(out) is int else f"returned {type(out).__name__}"
        send.send((out, time.perf_counter() - start))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        if not recv.poll(timeout):
            pytest.fail(f"no outcome within {timeout} s")
        return recv.recv()
    finally:
        proc.kill()
        proc.join()


def _sigma_twist(tok, tmp_path):
    path = tmp_path / "sigma.mult"
    path.write_text(f"0 0 {tok}\n", encoding="utf-8")
    return run_cli(
        ["sigma-twist", data_path("osp12_classical.alg"), str(path)]
    )


# Every place a written scalar is read, with the outcome a refusal gives.
SCALAR_SITES = {
    "product": (
        lambda tok, _: parse_algebra(MINIMAL.replace("2 x", f"{tok} x")),
        "ParseError: line 10:",
    ),
    "alpha": (
        lambda tok, _: parse_algebra(MINIMAL + f"[alpha]\nx -> {tok} x\n"),
        "ParseError: line 14:",
    ),
    "beta": (
        lambda tok, _: parse_algebra(MINIMAL + f"[beta]\nf -> {tok} f\n"),
        "ParseError: line 14:",
    ),
    "side file": (
        lambda tok, _: parse_linear_map(
            f"x -> x\nf -> {tok} f\n", parse_algebra(MINIMAL).basis
        ),
        "ParseError: line 2:",
    ),
    "basis name": (
        lambda tok, _: parse_algebra(
            f"version 1\n[group]\nZ2\n[basis]\n{tok} 0\n"
        ),
        "ParseError: line 5: basis name",
    ),
    "multiplier": (
        lambda tok, _: parse_multiplier(f"0 0 {tok}\n", parse_group("Z2")),
        "ParseError: line 1:",
    ),
    "corpus": (
        lambda tok, _: corpus(f"osp12_twist({tok},3)"),
        "KeyError: \"unknown corpus algebra",
    ),
    "example": (
        lambda tok, _: run_cli(["example", f"osp12_twist(2,{tok})"]),
        2,
    ),
    "sigma-twist": (_sigma_twist, 2),
    # library constructors that take a scalar as a string
    "build_osp12": (
        lambda tok, _: build_osp12(tok, 3),
        "ValueError: scalar has more than",
    ),
    "multiplier table": (
        lambda tok, _: MultiplierTable(parse_group("Z2"), {((0,), (0,)): tok}),
        "ValueError: scalar has more than",
    ),
    "omega": (
        lambda tok, _: multiplier_from_omega(
            parse_group("Z2"), {(0,): tok, (1,): 1}, [(0,), (1,)]
        ),
        "ValueError: scalar has more than",
    ),
    # the public Fraction entry points of linalg, cohomology, derivations
    "Matrix": (
        lambda tok, _: Matrix([[1, tok]]),
        "ValueError: scalar has more than",
    ),
    "Matrix.diagonal": (
        lambda tok, _: Matrix.diagonal([1, tok]),
        "ValueError: scalar has more than",
    ),
    "Matrix.scale": (
        lambda tok, _: Matrix.identity(2).scale(tok),
        "ValueError: scalar has more than",
    ),
    "vec": (lambda tok, _: vec([0, tok]), "ValueError: scalar has more than"),
    "Cochain": (
        lambda tok, _: Cochain(1, (0,), {(0,): [tok, 0]}, 2),
        "ValueError: scalar has more than",
    ),
    "Cochain.scale": (
        lambda tok, _: Cochain(1, (0,), {(0,): [1, 0]}, 2).scale(tok),
        "ValueError: scalar has more than",
    ),
    "HomEndo.scale": (
        lambda tok, _: HomEndo(Matrix.identity(2), (0,)).scale(tok),
        "ValueError: scalar has more than",
    ),
}

OVERSIZED = {
    "huge exponent": "1e999999999",
    "tiny exponent": "1.5e-999999999",
    "5000 digits": "7" * 5000,
}


@pytest.mark.parametrize("token", OVERSIZED.values(), ids=OVERSIZED)
@pytest.mark.parametrize("site", SCALAR_SITES)
def test_an_oversized_scalar_is_refused_at_once(site, token, tmp_path):
    call, refusal = SCALAR_SITES[site]
    out, seconds = _outcome_in_child(lambda: call(token, tmp_path))
    if isinstance(refusal, int):
        assert out == refusal
    else:
        assert out.startswith(refusal)
    assert seconds < 1


def test_the_g_sums_of_a_zero_product_finish_at_once(tmp_path):
    # no associator term reaches a triple of zero_40, so no G-sum scans the
    # 64,000 triples; the G6 scan once took 48 s on it
    z = zero_algebra(40)

    def every_group():
        return sum(not check_g_associative(z, g).passed for g in SUBGROUPS)

    assert _outcome_in_child(every_group, timeout=5)[0] == 0
    path = tmp_path / "zero_40.alg"
    assert run_cli(["example", "zero_40", "-o", str(path)]) == 0
    argv = ["admissible", str(path), "--group", "all"]
    assert _outcome_in_child(lambda: run_cli(argv), timeout=5)[0] == 0


def test_the_scalar_bound_is_inclusive():
    n = MAX_SCALAR_DIGITS
    assert read_scalar("9" * n) == 10**n - 1
    assert read_scalar(f"1e{n}") == 10**n
    assert read_scalar(f"-2.5e-{n}") == F(-25, 10 ** (n + 1))
    for tok in ("9" * (n + 1), f"1e-{n + 1}", f"1.5e+{n + 1}"):
        with pytest.raises(ValueError, match=f"more than {n} digits or an"):
            read_scalar(tok)
    # a zero denominator writes no scalar, as for Fraction
    assert read_scalar("1/0") is None
    with pytest.raises(ParseError, match="line 10: bad coefficient '1/0'"):
        parse_algebra(MINIMAL.replace("2 x", "1/0 x"))


def test_an_entry_too_large_to_write_is_named(capsys):
    # the parameter is inside the bound, but the bracket squares it, and
    # a product entry of 6001 digits is more than the reader takes
    assert run_cli(["example", "osp12_twist(1e3000,3)"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: [product] X H: the coefficient of X has more than "
        f"{MAX_SCALAR_DIGITS} digits, more than a .alg scalar may have\n"
    )


BIG_DEFECT = """\
version 1
[group]
0
[basis]
x
y
[product]
x x -> 1e3000 y
x y -> 1e3000 x
[kind]
lie
"""


def test_a_defect_too_large_to_write_is_named(tmp_path, capsys):
    # every scalar is inside the bound, but the Jacobi defect at (x, x, x)
    # has a coefficient of 6001 digits
    path = tmp_path / "big.alg"
    path.write_text(BIG_DEFECT, encoding="utf-8")
    refusal = (
        "the defect at (x, x, x): the coefficient of x has more than "
        f"{MAX_SCALAR_DIGITS} digits, more than a .alg scalar may have"
    )
    for extra in ([], ["--report", str(tmp_path / "r.json")]):
        assert run_cli(["check", str(path), *extra]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: {refusal}\n"
        assert "set_int_max_str_digits" not in out.err
    with pytest.raises(ValueError) as caught:
        check_lie_axioms(parse_algebra(BIG_DEFECT))
    assert str(caught.value) == refusal


def test_a_multiplier_defect_too_large_to_write_is_named(tmp_path, capsys):
    # sigma(0, 1) = 10^4000 is inside the bound; the cyclic-invariance
    # defect at degrees (0, 0, 1) has 8,000 digits
    path = tmp_path / "sigma.mult"
    path.write_text("0 0 1\n0 1 1e4000\n1 0 1\n1 1 1\n", encoding="utf-8")
    args = ["sigma-twist", data_path("osp12_classical.alg"), str(path)]
    assert run_cli(args) == 2
    out = capsys.readouterr()
    assert out.err == (
        "error: the defect at degrees (0); (0); (1) has more than "
        f"{MAX_SCALAR_DIGITS} digits, more than a .alg scalar may have\n"
    )
    assert "set_int_max_str_digits" not in out.err


def test_a_report_value_too_large_to_write_is_named():
    big = F(10**MAX_SCALAR_DIGITS + 1, 3)
    with pytest.raises(ValueError) as caught:
        jsonable({"items": [{"defect": (F(1), big)}]})
    assert str(caught.value) == (
        "report value payload.items[0].defect[1] has more than "
        f"{MAX_SCALAR_DIGITS} digits, more than a .alg scalar may have"
    )
    # the bound counts the digits of both parts, inclusive, as the reader
    # counts them
    edge = 10 ** (MAX_SCALAR_DIGITS - 1) - 1
    assert jsonable([F(edge, 7)]) == [f"{edge}/7"]
    assert read_scalar(f"{edge}/7") == F(edge, 7)


def test_the_written_bound_is_the_read_bound():
    n = MAX_SCALAR_DIGITS
    a = corpus("osp12_classical")
    # every part written under the interpreter's limit, 4,902 digits in all
    big = F(10**2500 + 1, 10**2400 + 7)
    too_big = a.with_product(
        a.product, alpha=Matrix.diagonal([1, 1, 1, big, 1])
    )
    with pytest.raises(ValueError, match=r"^\[alpha\] F: the coefficient "):
        serialize_algebra(too_big)
    # n digits are written, and read back
    edge = a.with_product(
        a.product, beta=Matrix.diagonal([1, 10**n - 1, 1, 1, 1])
    )
    assert parse_algebra(serialize_algebra(edge)) == edge


@pytest.mark.parametrize(
    "tok", ["3", " -2/6 ", "1.5e2", "\t7_0\n", "x", "1/0", "", "1e", "٣"]
)
def test_string_scalars_read_as_fraction_reads_them(tok):
    # to_fraction, as the library constructors call it, against Fraction
    try:
        want = Fraction(tok)
    except (ValueError, ZeroDivisionError) as e:
        with pytest.raises(type(e)):
            to_fraction(tok)
        with pytest.raises(type(e)):
            build_osp12(tok, 3)
    else:
        assert to_fraction(tok) == want and type(to_fraction(tok)) is Fraction
        if want:
            assert build_osp12(tok, 3) == build_osp12(want, 3)
            table = MultiplierTable(parse_group("Z2"), {((0,), (0,)): tok})
            assert table.value((0,), (0,)) == want


def _fraction_reader(tok):
    """The reader the parser had before the bound: Fraction itself."""
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return None


@given(st.text(alphabet="0123456789_./eE+-x", max_size=12))
@settings(max_examples=500, deadline=None)
def test_read_scalar_agrees_with_fraction(tok):
    try:
        mine = read_scalar(tok)
    except ValueError:
        return  # over the bound, which Fraction does not have
    assert mine == _fraction_reader(tok)


@pytest.mark.parametrize("name", DATA_FILES)
def test_shipped_files_read_as_fraction_reads_them(name, monkeypatch):
    with open(data_path(name), encoding="utf-8") as fh:
        text = fh.read()
    a = parse_algebra(text)
    monkeypatch.setattr(alg_io, "read_scalar", _fraction_reader)
    b = parse_algebra(text)
    assert a == b
    assert serialize_algebra(a) == serialize_algebra(b)


@pytest.mark.skipif(
    shutil.which("bihomlie") is None,
    reason="no 'bihomlie' executable on PATH; install the package with "
    "'pip install -e .' to run this test",
)
def test_console_script_is_installed():
    proc = subprocess.run(
        ["bihomlie", "example", "--list"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "osp12_classical" in proc.stdout


def test_console_script_entry_point_runs():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"bihomlie": "bihomlie.cli:main"}
    module, func = scripts["bihomlie"].split(":")
    # what the generated console wrapper does, in a fresh interpreter that
    # imports the same bihomlie package as this test
    src = os.path.dirname(os.path.dirname(os.path.abspath(bihomlie.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {func}; sys.exit({func}())",
            "example",
            "--list",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert "osp12_classical" in proc.stdout


def test_cohomology_names_the_failing_axiom_of_a_broken_input(
    tmp_path, capsys
):
    # [X, Y] = 2 H breaks BiHom-Jacobi at (X, Y, F), where the complex
    # fails first its d∘d check; the command blames the input
    with open(data_path("osp12_classical.alg"), encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("X Y -> H\n", "X Y -> 2 H\n")
    text = text.replace("Y X -> -1 H\n", "Y X -> -2 H\n")
    path = tmp_path / "broken.alg"
    path.write_text(text, encoding="utf-8")
    for n in ("1", "2", "3"):
        assert run_cli(["cohomology", str(path), "--n", n]) == 2
        out = capsys.readouterr()
        assert out.err == (
            "error: cohomology needs a BiHom-Lie colour algebra, and this "
            "one fails bihom_jacobi at (X, Y, F): defect 1 F\n"
        )
    assert run_cli(["check", str(path)]) == 1
    assert "at X, Y, F: defect 1 F" in capsys.readouterr().out


def test_cohomology_runs_the_axiom_check_only_when_the_complex_fails(
    monkeypatch, capsys
):
    checks = []
    monkeypatch.setattr(cli, "check_lie_axioms", checks.append)
    assert run_cli(["cohomology", data_path("osp12_twist_2_3.alg"), "--n", "2"]) == 0
    assert checks == []


def test_a_complex_failure_on_a_passing_algebra_keeps_its_own_error(
    monkeypatch, capsys
):
    def broken(*args):
        raise RuntimeError("the complex broke")

    monkeypatch.setattr(cli, "cohomology_dims", broken)
    assert run_cli(["cohomology", data_path("osp12_classical.alg"), "--n", "1"]) == 2
    assert capsys.readouterr().err == "error: the complex broke\n"

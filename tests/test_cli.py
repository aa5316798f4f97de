import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lowrank
from lowrank import GF, cli
from lowrank.classify import CensusReport, verify_main_theorem
from lowrank.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_quad_disc(capsys):
    payload = run_json(
        capsys, "quad", "disc", '{"ring": {"kind": "Z"}, "t": "1", "n": "1"}'
    )
    assert payload == {"ring": {"kind": "Z"}, "discriminant": "-3"}


def test_quad_iso_over_z(capsys):
    payload = run_json(
        capsys,
        "quad",
        "iso",
        '{"ring": {"kind": "Z"}, "A": {"t": "0", "n": "-1"}, "B": {"t": "2", "n": "0"}}',
    )
    assert payload["isomorphic"] is True
    assert payload["map"]["images"] is not None
    payload = run_json(
        capsys,
        "quad",
        "iso",
        '{"ring": {"kind": "Z"}, "A": {"t": "0", "n": "0"}, "B": {"t": "0", "n": "-1"}}',
    )
    assert payload == {"isomorphic": False, "map": None}


def test_quad_iso_over_field(capsys):
    payload = run_json(
        capsys,
        "quad",
        "iso",
        '{"ring": {"kind": "Fp", "p": 5}, "A": {"t": "1", "n": "1"}, "B": {"t": "0", "n": "2"}}',
    )
    assert payload["isomorphic"] is True


def test_quad_iso_over_large_field(capsys):
    # p = 10^9 + 7: the square root comes from Tonelli-Shanks, not a scan
    ring = '{"kind": "Fp", "p": 1000000007}'
    start = time.perf_counter()
    payload = run_json(
        capsys,
        "quad",
        "iso",
        f'{{"ring": {ring}, "A": {{"t": "0", "n": "-4"}}, "B": {{"t": "0", "n": "-1"}}}}',
    )
    assert payload["isomorphic"] is True
    assert payload["map"]["images"][1] == ["0", "2"]
    payload = run_json(
        capsys,
        "quad",
        "iso",
        f'{{"ring": {ring}, "A": {{"t": "0", "n": "1"}}, "B": {{"t": "0", "n": "-1"}}}}',
    )
    assert payload["isomorphic"] is False
    assert time.perf_counter() - start < 1.0


def test_quad_artin_schreier(capsys):
    base = '{"ring": {"kind": "Fp", "p": 2}, "t": "1", "n": "%s"}'
    assert run_json(capsys, "quad", "artin-schreier", base % "1") == {
        "separable": True,
        "class": "1",
    }
    assert run_json(capsys, "quad", "artin-schreier", base % "0") == {
        "separable": True,
        "class": "0",
    }
    payload = run_json(
        capsys,
        "quad",
        "artin-schreier",
        '{"ring": {"kind": "Fp", "p": 2}, "t": "0", "n": "1"}',
    )
    assert payload == {"separable": False, "class": None}


def test_quad_split_product_feeds_assoc(capsys):
    split = run_json(
        capsys,
        "quad",
        "split",
        '{"ring": {"kind": "Fp", "p": 3}, "t": "1", "n": "0"}',
    )
    assert set(split) == {"forward", "inverse", "product"}
    # the split target is itself a structure table the CLI can consume
    assoc = run_json(capsys, "alg", "assoc", json.dumps(split["product"]))
    assert assoc == {"associative": True, "witness": None}


CUBIC_EXC = '{"b": "1", "c": "0", "m": "0", "n": "1", "y": "0", "z": "0"}'
CUBIC_COMM = '{"b": "1", "c": "1", "m": "0", "n": "0", "y": "1", "z": "1"}'
RING_Z = '{"kind": "Z"}'


def test_cubic_build_and_roundtrips(capsys):
    alg = run_json(capsys, "cubic", "build", CUBIC_COMM, "--ring", RING_Z)
    assert alg["rank"] == 3
    assert alg["table"][1][1] == ["-1", "1", "1"]
    assoc = run_json(capsys, "alg", "assoc", json.dumps(alg))
    assert assoc["associative"] is True
    # a commutative table other than the nilproduct has no standard involution
    found = run_json(capsys, "inv", "find", json.dumps(alg))
    assert found == {"found": False}


def test_cubic_involution_roundtrip(capsys):
    alg = run_json(capsys, "cubic", "build", CUBIC_EXC, "--ring", RING_Z)
    found = run_json(capsys, "inv", "find", json.dumps(alg))
    assert found["found"] is True
    verdict = run_json(capsys, "inv", "verify", json.dumps(found))
    assert verdict["involution"] is True
    assert verdict["standard"] is True
    assert verdict["failure"] is None
    # with an "element" key added, the same payload is trace-norm input
    found["element"] = ["1", "2", "3"]
    norm = run_json(capsys, "inv", "trace-norm", json.dumps(found))
    assert norm["certificate"] == "x^2 - t x + n = 0"


def test_cubic_verify(capsys):
    bad = '{"b": "0", "c": "0", "m": "1", "n": "1", "y": "0", "z": "1"}'
    payload = run_json(capsys, "cubic", "verify", bad, "--ring", RING_Z)
    assert payload == {"valid": False, "violations": ["bm = mn", "n^2 = bn"]}
    payload = run_json(capsys, "cubic", "verify", CUBIC_COMM, "--ring", RING_Z)
    assert payload == {"valid": True, "case": "commutative"}
    payload = run_json(capsys, "cubic", "verify", CUBIC_EXC, "--ring", RING_Z)
    assert payload == {"valid": True, "case": "exceptional"}


def test_cubic_involution_images(capsys):
    payload = run_json(capsys, "cubic", "involution", CUBIC_EXC, "--ring", RING_Z)
    assert payload["images"] == [
        ["1", "0", "0"],
        ["1", "-1", "0"],
        ["0", "0", "-1"],
    ]


def test_cubic_witness(capsys):
    payload = run_json(capsys, "cubic", "witness", CUBIC_EXC, "--ring", RING_Z)
    assert payload == {
        "ideal_generators": [["1", "-1", "0"], ["0", "0", "1"]],
        "functional": ["1", "0"],
    }


def test_cubic_matrix_rep(capsys):
    payload = run_json(capsys, "cubic", "matrix-rep", CUBIC_EXC, "--ring", RING_Z)
    assert payload["I"] == [["0", "0", "0"], ["1", "1", "0"], ["0", "0", "0"]]
    assert payload["J"] == [["0", "0", "0"], ["0", "0", "0"], ["1", "1", "0"]]
    assert payload["identities"] == "verified"


def test_cubic_form_to_disc(capsys):
    form = run_json(capsys, "cubic", "form", CUBIC_COMM, "--ring", RING_Z)
    assert form == {"a": "-1", "b": "1", "c": "-1", "d": "1"}
    disc = run_json(capsys, "form", "disc", json.dumps(form), "--ring", RING_Z)
    assert disc == {"discriminant": "-16"}


def test_form_act(capsys):
    payload = run_json(
        capsys,
        "form",
        "act",
        '{"g": [["0", "1"], ["1", "0"]],'
        ' "form": {"a": "1", "b": "2", "c": "3", "d": "4"}}',
        "--ring",
        '{"kind": "Q"}',
    )
    assert payload == {"a": "-4", "b": "-3", "c": "-2", "d": "-1"}
    form = '"form": {"a": "1", "b": "2", "c": "3", "d": "4"}'
    for g in ('["0", "1"]', '[["0", "1"], ["1"]]', '[["0", "1"], ["1", "0"], []]'):
        code, out, err = run_cli(
            capsys, "form", "act", "{" + f'"g": {g}, {form}' + "}", "--ring", RING_Z
        )
        assert code == 2 and out == ""
        assert "'g' must be a list" in json.loads(err)["error"]["message"]


def test_inv_trace_norm(capsys):
    inv = run_json(capsys, "cubic", "involution", CUBIC_EXC, "--ring", RING_Z)
    inv["element"] = ["1", "1", "1"]
    payload = run_json(capsys, "inv", "trace-norm", json.dumps(inv))
    assert payload == {
        "trace": "3",
        "norm": "2",
        "certificate": "x^2 - t x + n = 0",
    }


def test_alg_charpoly(capsys):
    alg = run_json(capsys, "cubic", "build", CUBIC_EXC, "--ring", RING_Z)
    alg["element"] = ["0", "1", "0"]
    payload = run_json(capsys, "alg", "charpoly", json.dumps(alg))
    assert payload == {
        "char_poly": ["0", "0", "-1", "1"],
        "order": "constant term first",
    }


def test_alg_degree(capsys):
    alg = run_json(capsys, "cubic", "build", CUBIC_EXC, "--ring", '{"kind": "Fp", "p": 2}')
    payload = run_json(capsys, "alg", "degree", json.dumps(alg))
    assert payload == {"degree": 2}


def test_census_cubic(capsys):
    payload = run_json(capsys, "census", "cubic", "--p", "2")
    assert payload["valid"] == 19
    assert payload["cases"] == {
        "commutative": 15,
        "exceptional": 3,
        "nilproduct": 1,
    }
    assert payload["theorem_holds"] is True
    code, out, err = run_cli(
        capsys, "census", "cubic", "--p", "2", "--format", "table"
    )
    assert code == 0
    assert "theorem=holds" in out


def census_table_oracle(report):
    """The plain-text census table built line by line through str() on
    RingElements; the oracle for the template writer."""
    lines = ["tuple (b,c,m,n,y,z)  case         involution"]
    for coeffs, case, has_inv in report.rows:
        tup = ",".join(str(v) for v in coeffs.as_tuple())
        lines.append(f"({tup})  {case.value:<12} {'yes' if has_inv else 'no'}")
    counts = report.case_counts()
    lines.append(
        f"total={report.total} valid={report.valid} "
        + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        + f" theorem={'holds' if report.theorem_holds() else 'FAILS'}"
    )
    return "\n".join(lines)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_census_cubic_report_bytes(capsys, p):
    # p = 11 writes values of one and two digits
    report = verify_main_theorem(GF(p))
    payload = report.to_json()
    # p <= 5 lists class representatives, p >= 7 reports null
    assert (payload["class_representatives"] is None) == (p >= 7)
    code, out, err = run_cli(capsys, "census", "cubic", "--p", str(p))
    assert code == 0, err
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    table = census_table_oracle(report)
    assert report.to_table() == table
    code, out, err = run_cli(capsys, "census", "cubic", "--p", str(p), "--format", "table")
    assert code == 0, err
    assert out == table + "\n"


def test_census_report_writers_without_rows():
    report = CensusReport(GF(5), 0, [], b"", [], None)
    out = io.StringIO()
    report.write_json(out)
    assert out.getvalue() == json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    assert report.to_table() == census_table_oracle(report)


def test_census_quad(capsys):
    payload = run_json(capsys, "census", "quad", "--p", "5")
    assert payload["class_count"] == 3
    assert payload["square_class_count"] == 3
    assert payload["partitions_agree"] is True


def test_census_exceptional(capsys):
    payload = run_json(capsys, "census", "exceptional", "--p", "3")
    assert payload["count"] == 2
    sizes = sorted(len(cls) for cls in payload["classes"])
    assert sizes == [1, 8]


def test_probe_mn(capsys):
    assert run_json(capsys, "probe", "mn", "--p", "3", "--n", "2")["all_passed"]
    assert run_json(capsys, "probe", "mn", "--p", "2", "--n", "3")["all_passed"]


def test_probe_degree_product(capsys):
    rank_one_f3 = '{"ring": {"kind": "Fp", "p": 3}, "rank": 1, "table": [[["1"]]]}'
    payload = run_json(
        capsys,
        "probe",
        "degree-product",
        '{"A": %s, "B": %s}' % (rank_one_f3, rank_one_f3),
    )
    assert payload["degree_left"] == 1
    assert payload["degree_right"] == 1
    assert payload["degree_product"] == 2
    assert payload["additive"] is True
    assert payload["witness"] is not None


def test_deterministic_output(capsys):
    first = run_cli(capsys, "census", "cubic", "--p", "2")
    second = run_cli(capsys, "census", "cubic", "--p", "2")
    assert first == second


def test_file_input(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    path.write_text(CUBIC_COMM, encoding="utf-8")
    payload = run_json(capsys, "cubic", "verify", str(path), "--ring", RING_Z)
    assert payload["valid"] is True


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO('{"ring": {"kind": "Z"}, "t": "0", "n": "-2"}')
    )
    payload = run_json(capsys, "quad", "disc", "-")
    assert payload["discriminant"] == "8"


def test_exit_code_lowrank_error(capsys):
    bad = '{"b": "0", "c": "0", "m": "1", "n": "1", "y": "0", "z": "1"}'
    code, out, err = run_cli(capsys, "cubic", "build", bad, "--ring", RING_Z)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "RelationViolation"
    assert payload["error"]["violations"] == ["bm = mn", "n^2 = bn"]


def test_exit_code_guard(capsys):
    code, out, err = run_cli(capsys, "census", "cubic", "--p", "17")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "GuardExceeded"
    code, out, err = run_cli(capsys, "census", "quad", "--p", "2")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "UnsupportedRing"


def test_quadratic_census_guard(capsys, monkeypatch):
    """census quad counts its p^2 algebras against the guard before it
    builds any: p = 17 answers, p = 127 is refused by default, and
    LOWRANK_GUARD=100 refuses p = 11 (README, Guards)."""
    monkeypatch.delenv("LOWRANK_GUARD", raising=False)
    payload = run_json(capsys, "census", "quad", "--p", "17")
    assert [len(cls) for cls in payload["classes"]] == [17, 136, 136]

    def refuse(*args):
        raise AssertionError("an algebra was built before the guard")

    monkeypatch.setattr(lowrank.classify, "QuadraticAlgebra", refuse)
    code, out, err = run_cli(capsys, "census", "quad", "--p", "127")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "GuardExceeded",
        "message": "quadratic census needs 16129 steps, over the limit of 15625; "
        "set LOWRANK_GUARD to override (unsafe)",
    }
    monkeypatch.setenv("LOWRANK_GUARD", "100")
    code, out, err = run_cli(capsys, "census", "quad", "--p", "11")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["message"].startswith(
        "quadratic census needs 121 steps, over the limit of 100;"
    )


def test_exit_code_input_error(capsys):
    code, out, err = run_cli(capsys, "quad", "disc", '{"broken": ')
    assert code == 2
    assert "malformed JSON" in json.loads(err)["error"]["message"]

    code, out, err = run_cli(capsys, "quad", "disc", "/no/such/file.json")
    assert code == 2
    assert "cannot read input file" in json.loads(err)["error"]["message"]

    code, out, err = run_cli(capsys, "cubic", "build", CUBIC_COMM)
    assert code == 2
    assert "needs --ring" in json.loads(err)["error"]["message"]

    code, out, err = run_cli(
        capsys, "quad", "iso", '{"ring": {"kind": "Z"}, "A": {"t": "0", "n": "0"}}'
    )
    assert code == 2

    code, out, err = run_cli(
        capsys, "quad", "disc", '{"ring": {"kind": "Q"}, "t": "1e400000", "n": "0"}'
    )
    assert code == 2
    assert "cannot parse '1e400000'" in json.loads(err)["error"]["message"]

    code, out, err = run_cli(
        capsys,
        "quad",
        "disc",
        '{"ring": {"kind": "Fp", "p": 318665857834031151167461}, "t": "1", "n": "0"}',
    )
    assert code == 2
    assert "too large" in json.loads(err)["error"]["message"]


RANK2_Z = {
    "ring": {"kind": "Z"},
    "rank": 2,
    "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
}


@pytest.mark.parametrize(
    "group, cmd, changes",
    [
        ("alg", "assoc", {"rank": 1, "table": [[5]]}),
        ("alg", "assoc", {"table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1"]]]}),
        ("alg", "charpoly", {"element": ["1", "2", "3"]}),
        ("inv", "verify", {"images": [["1", "0"], ["0", "-1"], ["0", "0"]]}),
        ("inv", "verify", {"images": [["1", "0"], ["-1"]]}),
    ],
    ids=["cell-not-a-list", "short-cell", "long-element", "extra-image", "short-image"],
)
def test_shape_errors_exit_2(capsys, group, cmd, changes):
    code, out, err = run_cli(capsys, group, cmd, json.dumps({**RANK2_Z, **changes}))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "InputError"


COEFFS_Z = {"b": "1", "c": "0", "m": "0", "n": "0", "y": "0", "z": "0"}
FORM_Z = {"a": "1", "b": "0", "c": "-1", "d": "0"}
QUAD_Z = {"ring": {"kind": "Z"}, "t": "1", "n": "1"}
INV_Z = {**RANK2_Z, "images": [["1", "0"], ["0", "-1"]]}
ELEMENT = {"element": ["1", "2"]}


DEEP = "[" * 100000
LONG_LITERAL = "1" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (["alg", "assoc", '{"table": ' + DEEP], "malformed JSON: maximum recursion depth"),
        (["cubic", "build", CUBIC_COMM, "--ring", DEEP], "malformed --ring JSON: maximum recursion"),
        (
            ["alg", "assoc", '{"ring": {"kind": "Z"}, "rank": ' + LONG_LITERAL + ', "table": []}'],
            "malformed JSON: Exceeds the limit",
        ),
        (
            ["cubic", "build", CUBIC_COMM, "--ring", '{"kind": "Fp", "p": ' + LONG_LITERAL + "}"],
            "malformed --ring JSON: Exceeds the limit",
        ),
    ],
    ids=["deep-payload", "deep-ring", "long-rank", "long-p"],
)
def test_undecodable_json_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "InputError"
    assert error["message"].startswith(message)


def test_input_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"ring": {"kind": "Z"}, "t": "1", "n": "1", "é": 0}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "quad", "disc", str(path))
    assert (code, out) == (2, "")
    message = json.loads(err)["error"]["message"]
    assert message.startswith(f"cannot read input file {str(path)!r}: 'utf-8' codec")


@pytest.mark.parametrize(
    "argv",
    [
        ["quad", "disc", json.dumps({**QUAD_Z, "t": "9" * 3000})],
        ["cubic", "build", json.dumps({**COEFFS_Z, "c": "7" * 4000, "z": "7" * 4000}), "--ring", RING_Z],
        ["alg", "charpoly", json.dumps({**RANK2_Z, "element": ["9" * 3000, "1"]})],
    ],
    ids=["quad-disc", "cubic-build", "alg-charpoly"],
)
def test_a_result_too_long_to_print_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("the result is too long to print: Exceeds the limit")


def test_other_value_errors_are_not_refusals(monkeypatch, capsys):
    def broken(args):
        raise ValueError("a bug")

    monkeypatch.setitem(cli._COMMANDS["quad"][1], "disc", (broken, ("input",)))
    with pytest.raises(ValueError, match="a bug"):
        main(["quad", "disc", "{}"])


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        (
            ["cubic", "build", "--ring", '{"kind": "Z"}'],
            without(COEFFS_Z, "z"),
            "cubic coefficients need keys 'b', 'c', 'm', 'n', 'y', 'z'",
        ),
        (
            ["form", "disc", "--ring", '{"kind": "Z"}'],
            without(FORM_Z, "d"),
            "form needs keys 'a', 'b', 'c', 'd'",
        ),
        (
            ["quad", "disc"],
            without(QUAD_Z, "n"),
            "quadratic algebra needs keys 'ring', 't', 'n'",
        ),
        (
            ["quad", "disc"],
            without(QUAD_Z, "ring"),
            "quadratic algebra needs keys 'ring', 't', 'n'",
        ),
        (
            # the keys are checked before the ring is read
            ["quad", "disc"],
            without({**QUAD_Z, "ring": {"kind": "R"}}, "t"),
            "quadratic algebra needs keys 'ring', 't', 'n'",
        ),
        (
            ["quad", "iso"],
            {"ring": {"kind": "Z"}, "A": {"t": "0"}, "B": {"t": "0", "n": "1"}},
            "entry 'A' needs keys 't' and 'n'",
        ),
        (
            ["quad", "iso"],
            {"ring": {"kind": "Z"}, "A": {"t": "0", "n": "1"}, "B": {"n": "1"}},
            "entry 'B' needs keys 't' and 'n'",
        ),
        (
            ["alg", "assoc"],
            without(RANK2_Z, "table"),
            "algebra object lacks keys ['table']",
        ),
        (
            ["alg", "charpoly"],
            RANK2_Z,
            "charpoly needs an 'element' key",
        ),
        (
            ["inv", "verify"],
            RANK2_Z,
            "involution object lacks an 'images' key",
        ),
        (
            ["inv", "trace-norm"],
            INV_Z,
            "trace-norm needs an 'element' key",
        ),
        # every field present, and keys the object does not take
        (
            ["cubic", "build", "--ring", '{"kind": "Z"}'],
            {**COEFFS_Z, "a": "0"},
            "cubic coefficients need keys 'b', 'c', 'm', 'n', 'y', 'z'; "
            "unknown keys ['a']",
        ),
        (
            ["form", "disc", "--ring", '{"kind": "Z"}'],
            {**FORM_Z, "dd": "5"},
            "form needs keys 'a', 'b', 'c', 'd'; unknown keys ['dd']",
        ),
        (
            ["quad", "disc"],
            {**QUAD_Z, "N": "7"},
            "quadratic algebra needs keys 'ring', 't', 'n'; unknown keys ['N']",
        ),
        (
            ["quad", "iso"],
            {"ring": {"kind": "Z"}, "A": {"t": "1", "n": "-2"},
             "B": {"t": "3", "n": "0", "s": "1", "N": "2"}},
            "entry 'B' needs keys 't' and 'n'; unknown keys ['N', 's']",
        ),
        # keys a command's input object does not take
        (
            ["quad", "iso"],
            {"ring": {"kind": "Z"}, "A": {"t": "1", "n": "-2"},
             "B": {"t": "3", "n": "0"}, "C": {}},
            "expected keys 'ring', 'A', 'B'; unknown keys ['C']",
        ),
        (
            ["form", "act", "--ring", '{"kind": "Z"}'],
            {"g": [["1", "0"], ["0", "1"]], "form": FORM_Z, "h": 1},
            "expected keys 'g' (2x2 matrix) and 'form'; unknown keys ['h']",
        ),
        (
            ["probe", "degree-product"],
            {"A": RANK2_Z, "B": RANK2_Z, "C": RANK2_Z, "b": 1},
            "expected keys 'A' and 'B' holding algebras; unknown keys ['C', 'b']",
        ),
        (
            ["probe", "degree-product"],
            {"A": RANK2_Z, "B": {**RANK2_Z, "images": []}},
            "entry 'B' needs keys 'ring', 'rank', 'table'; unknown keys ['images']",
        ),
        (
            ["alg", "assoc"],
            {**RANK2_Z, "bogus": 1},
            "algebra needs keys 'ring', 'rank', 'table'; unknown keys ['bogus']",
        ),
        (
            ["alg", "degree"],
            {**RANK2_Z, **ELEMENT},
            "algebra needs keys 'ring', 'rank', 'table'; unknown keys ['element']",
        ),
        (
            ["alg", "charpoly"],
            {**RANK2_Z, **ELEMENT, "images": []},
            "charpoly needs keys 'ring', 'rank', 'table', 'element'; "
            "unknown keys ['images']",
        ),
        (
            ["inv", "find"],
            {**RANK2_Z, "bogus": 1},
            "algebra needs keys 'ring', 'rank', 'table'; unknown keys ['bogus']",
        ),
        (
            ["inv", "verify"],
            {**INV_Z, **ELEMENT},
            "involution needs keys 'ring', 'rank', 'table', 'images'; "
            "unknown keys ['element']",
        ),
        (
            # the "found" flag of what inv find prints is let through
            ["inv", "verify"],
            {**INV_Z, "found": True, "x": "1"},
            "involution needs keys 'ring', 'rank', 'table', 'images'; "
            "unknown keys ['x']",
        ),
        (
            ["inv", "trace-norm"],
            {**INV_Z, **ELEMENT, "found": True, "x": "1"},
            "trace-norm needs keys 'ring', 'rank', 'table', 'images', 'element'; "
            "unknown keys ['x']",
        ),
        (
            # an algebra has no "found" flag to let through
            ["alg", "charpoly"],
            {**RANK2_Z, **ELEMENT, "found": True},
            "charpoly needs keys 'ring', 'rank', 'table', 'element'; "
            "unknown keys ['found']",
        ),
    ],
    ids=[
        "cubic-build", "form-disc", "quad-disc", "quad-disc-ring",
        "quad-disc-bad-ring", "quad-iso-A", "quad-iso-B", "alg-assoc",
        "alg-charpoly", "inv-verify", "inv-trace-norm",
        "cubic-build-stray", "form-disc-stray", "quad-disc-stray",
        "quad-iso-B-stray", "quad-iso-stray", "form-act-stray",
        "probe-degree-product-stray", "probe-degree-product-B-stray",
        "alg-assoc-stray", "alg-degree-stray", "alg-charpoly-stray",
        "inv-find-stray", "inv-verify-stray", "inv-verify-found-stray",
        "inv-trace-norm-stray", "alg-charpoly-found",
    ],
)
def test_missing_field_messages(capsys, argv, payload, message):
    code, out, err = run_cli(capsys, argv[0], argv[1], json.dumps(payload), *argv[2:])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"type": "InputError", "message": message}


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as info:
        main(["quad", "no-such-command", "{}"])
    assert info.value.code == 2


def child_env():
    """The environment of a child that imports the same lowrank as this
    test, wherever it was found."""
    src = str(Path(lowrank.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def run_module(*argv):
    """Run python -m lowrank.cli in a child (see child_env)."""
    return subprocess.run(
        [sys.executable, "-m", "lowrank.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_module_invocation():
    proc = run_module("census", "exceptional", "--p", "2")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count"] == 2


def test_closed_stdout_exits_1_without_traceback():
    # the p = 7 report (441 KB) is far larger than a pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "lowrank.cli", "census", "cubic", "--p", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err


def test_a_request_builds_only_the_parsers_it_names(monkeypatch, capsys):
    built = []
    added = []
    init = argparse.ArgumentParser.__init__
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # the arguments come from the fragments built at import: a request
    # adds none, the help action included
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting_add)
    # an option's value follows a space or an equals sign
    assert run_json(capsys, "census", "cubic", "--p=2")["valid"] == 19
    assert built == ["lowrank census cubic"]
    built.clear()
    assert run_json(capsys, "cubic", "build", json.dumps(COEFFS_Z), "--ring", RING_Z)["rank"] == 3
    assert built == ["lowrank cubic build"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["census", "cubic", "--help"])
    assert built == ["lowrank census cubic"]
    built.clear()
    assert added == []
    for argv, _, _ in NO_COMMAND:
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert built == []


# words that give each argument a value it parses, by argument name
VALID_ARGUMENTS = {
    "input": [json.dumps(COEFFS_Z)],
    "--ring": ["--ring", RING_Z],
    "--p": ["--p", "3"],
    "--n": ["--n", "2"],
    "--format": ["--format", "table"],
}

ACTION_FIELDS = ("dest", "option_strings", "default", "type", "choices", "required", "nargs", "help")


def action_fields(fragment):
    return [
        (type(action), *(getattr(action, field) for field in ACTION_FIELDS))
        for action in fragment._actions
    ]


def test_shared_fragments_stay_as_built(capsys):
    # every request of every command reuses the same fragments; running a
    # command line that parses, a --help and a usage error of each must
    # leave each fragment's actions and defaults as a fresh build of it
    for group, (_, commands) in cli._COMMANDS.items():
        for cmd, (_, names) in commands.items():
            argv = [group, cmd] + [word for name in names for word in VALID_ARGUMENTS[name]]
            main(argv)
            for extra in (["--help"], ["--no-such-option"]):
                with pytest.raises(SystemExit):
                    main(argv + extra)
    capsys.readouterr()
    fragments = [(cli._HELP, cli._fragment())]
    fragments += [(cli._FRAGMENTS[name], cli._fragment(name)) for name in cli._ARGUMENTS]
    for shared, fresh in fragments:
        assert action_fields(shared) == action_fields(fresh)
        assert shared._defaults == fresh._defaults
        assert "handler" not in shared._defaults


def old_parser(group, cmd):
    """A command's parser built as before fragments: add_argument for the
    help action and for each argument, on every request."""
    parser = cli._Parser(prog=f"lowrank {group} {cmd}", allow_abbrev=False)
    for name in cli._COMMANDS[group][1][cmd][1]:
        parser.add_argument(name, **cli._ARGUMENTS[name])
    return parser


@pytest.mark.parametrize(
    "group, cmd", [(group, cmd) for group, (_, commands) in cli._COMMANDS.items() for cmd in commands]
)
def test_help_and_usage_match_the_parser_built_argument_by_argument(group, cmd):
    parser, reference = cli.build_parser([group, cmd]), old_parser(group, cmd)
    assert parser.format_help() == reference.format_help()
    assert parser.format_usage() == reference.format_usage()


GROUPS = "(choose from 'quad', 'cubic', 'form', 'inv', 'alg', 'census', 'probe')"
CUBIC_COMMANDS = "(choose from 'build', 'verify', 'involution', 'witness', 'matrix-rep', 'form')"

# argv that names no command: (argv, exit status, start of the help text
# on stdout or the error message on stderr)
NO_COMMAND = [
    ([], 2, "lowrank: the following arguments are required: group"),
    (["-h"], 0, "usage: lowrank {quad,cubic,form,inv,alg,census,probe} ..."),
    (["--help", "cubic"], 0, "usage: lowrank {quad,cubic,form,inv,alg,census,probe} ..."),
    (["no-such-group"], 2, f"lowrank: argument group: invalid choice: 'no-such-group' {GROUPS}"),
    (["cubic"], 2, "lowrank cubic: the following arguments are required: cmd"),
    (["cubic", "--help"], 0, "usage: lowrank cubic {build,verify,involution,witness,matrix-rep,form} ..."),
    (["cubic", "nope"], 2, f"lowrank cubic: argument cmd: invalid choice: 'nope' {CUBIC_COMMANDS}"),
    (["build", "cubic", "x"], 2, f"lowrank: argument group: invalid choice: 'build' {GROUPS}"),
    (["--", "cubic"], 2, f"lowrank: argument group: invalid choice: '--' {GROUPS}"),
]


@pytest.mark.parametrize(
    "argv, code, text",
    NO_COMMAND,
    ids=["empty", "h", "help-first", "no-such-group", "group", "group-help", "no-such-command",
         "command-first", "dashes"],
)
def test_argv_that_names_no_command(capsys, argv, code, text):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.startswith(text + "\n\n") and captured.err == ""
    else:
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"type": "InputError", "message": text}}


CUBIC_VERIFY = ["cubic", "verify", json.dumps(COEFFS_Z)]


# option names are exact and integers are ASCII digits
@pytest.mark.parametrize(
    "argv, message",
    [
        (CUBIC_VERIFY + ["--ri", RING_Z], f"lowrank: unrecognized arguments: --ri {RING_Z}"),
        (["census", "cubic", "--p", "3", "--fo", "table"], "lowrank: unrecognized arguments: --fo table"),
        (["census", "exceptional", "--p", "1_1"],
         "lowrank census exceptional: argument --p: invalid int value: '1_1'"),
        (["census", "exceptional", "--p", "\u0663"],
         "lowrank census exceptional: argument --p: invalid int value: '\u0663'"),
        (["probe", "mn", "--p", "3", "--n", "\uff13"],
         "lowrank probe mn: argument --n: invalid int value: '\uff13'"),
        (["census", "quad", "--p", "1" * 5000],
         "lowrank census quad: argument --p: invalid int value: '" + "1" * 5000 + "'"),
    ],
    ids=["ri", "fo", "underscore", "arabic-indic", "fullwidth", "5000-digits"],
)
def test_the_grammar_takes_exact_names_and_ascii_integers(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"type": "InputError", "message": message}}


def test_consecutive_calls_keep_no_state(capsys):
    code, out, _ = run_cli(capsys, "census", "cubic", "--p", "3", "--format", "table")
    assert code == 0 and "theorem=holds" in out
    with pytest.raises(SystemExit):
        main(["census", "cubic", "--p", "x"])
    capsys.readouterr()
    code, out, err = run_cli(capsys, "census", "cubic", "--p", "3")
    assert code == 0, err
    fresh = run_module("census", "cubic", "--p", "3")
    assert fresh.returncode == 0, fresh.stderr
    assert out == fresh.stdout


USAGE_ERRORS = [
    (["census", "cubic", "--p", "x"], "invalid int value: 'x'"),
    (["census", "cubic"], "the following arguments are required: --p"),
    (["no-such-group"], "invalid choice: 'no-such-group'"),
    ([], "the following arguments are required: group"),
    (["cubic", "build", "{}", "extra"], "lowrank: unrecognized arguments: extra"),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=["bad-int", "no-p", "group", "empty", "extra-word"]
)
def test_usage_errors_are_json(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "InputError"
    assert message in error["message"]
    proc = run_module(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == captured.err


def test_help_is_text(capsys):
    with pytest.raises(SystemExit) as info:
        main(["census", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: lowrank census")


def test_readme_shows_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    missing = [
        f"{group} {cmd}"
        for group, (_, commands) in cli._COMMANDS.items()
        for cmd in commands
        if not re.search(rf"^lowrank {group} {cmd}(?: |$)", readme, re.MULTILINE)
    ]
    assert missing == [], "README has no `lowrank <group> <command>` line for these"


def test_readme_grammar_names_the_argument_table_options():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^A command line is .*?(?=\n\n)", readme, re.MULTILINE | re.DOTALL).group()
    named = set(re.findall(r"`(--[a-z]+)", paragraph))
    assert named == {name for name in cli._ARGUMENTS if name.startswith("--")}

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lowrank
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


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as info:
        main(["quad", "no-such-command", "{}"])
    assert info.value.code == 2


def test_module_invocation():
    # the child imports the same lowrank as this test, wherever it was found
    src = str(Path(lowrank.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "lowrank.cli", "census", "exceptional", "--p", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count"] == 2

"""Fuzz the command line from the README's examples.

Each example's JSON payload and --ring are mutated (keys dropped and
added, values swapped for other JSON types, long digit strings, deep
nesting and long integer literals), and every run must end in exit 0, 1
or 2 with a JSON error object on stderr for 1 and 2, never a traceback.
Moduli are drawn only from small primes, so every enumeration the guards
allow stays fast.
"""

import contextlib
import io
import json
import re
import shlex
import time
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lowrank import cli  # noqa: E402

README = Path(__file__).resolve().parent.parent / "README.md"
SMALL_PRIMES = ("2", "3", "5", "7")
PER_CALL_SECONDS = 5

# Stand-ins for JSON text that json.dumps cannot write: 50000-deep
# nesting and a 5000-digit integer literal (past Python's digit limit).
DEEP = "@deep@"
LONG_LITERAL = "@long@"
RAW_TEXT = {
    json.dumps(DEEP): "[" * 50000 + "]" * 50000,
    json.dumps(LONG_LITERAL): "1" * 5000,
}

KEYS = ("ring", "rank", "table", "images", "element", "found", "kind", "p",
        "t", "n", "A", "B", "g", "form", "a", "b", "c", "d", "m", "y", "z", "bogus")
VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 1, 2, 1.5, "", "x", "-3", "2/7", "1/0",
                     [], {}, ["1"], {"kind": "Z"}, {"kind": "Q"}, DEEP, LONG_LITERAL]),
    st.sampled_from(SMALL_PRIMES).map(int),
    st.builds(dict, kind=st.just("Fp"), p=st.sampled_from(SMALL_PRIMES).map(int)),
    st.integers(3000, 4300).map(lambda n: "9" * n),
)


def readme_examples():
    """argv of every `lowrank ...` line in the README, one per line."""
    text = README.read_text(encoding="utf-8")
    return [shlex.split(line)[1:] for line in re.findall(r"^lowrank .*$", text, re.MULTILINE)]


# test_cli.test_readme_shows_every_command keeps one example per command
EXAMPLES = readme_examples()


def mutate(draw, value):
    """value with one change somewhere inside it.  Half the changes go
    inside, so that more of them reach the leaves."""
    how = draw(st.sampled_from(("replace", "drop", "add", "inside", "inside", "inside")))
    if how == "replace" or not value or not isinstance(value, (dict, list)):
        return draw(VALUES)
    if isinstance(value, dict):
        value = dict(value)
        key = draw(st.sampled_from(sorted(value)))
        if how == "drop":
            del value[key]
        elif how == "add":
            value[draw(st.sampled_from(KEYS))] = draw(VALUES)
        else:
            value[key] = mutate(draw, value[key])
        return value
    value = list(value)
    at = draw(st.integers(0, len(value) - 1))
    if how == "drop":
        del value[at]
    elif how == "add":
        value.insert(at, draw(VALUES))
    else:
        value[at] = mutate(draw, value[at])
    return value


def mutated_text(draw, text):
    value = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        value = mutate(draw, value)
    out = json.dumps(value)
    for stand_in, raw in RAW_TEXT.items():
        out = out.replace(stand_in, raw)
    return out


def mutated_argv(draw, argv):
    out = []
    for word in argv:
        if word.startswith("{"):
            word = mutated_text(draw, word)
        elif out and out[-1] == "--p":
            word = draw(st.sampled_from(SMALL_PRIMES + ("0", "x", "1" * 5000)))
        out.append(word)
    return out


def run(argv):
    """(exit status, stdout, stderr) of main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_readme_examples_end_in_json(data):
    argv = mutated_argv(data.draw, data.draw(st.sampled_from(EXAMPLES)))
    start = time.perf_counter()
    code, out, err = run(argv)  # a traceback raises here and fails the test
    assert time.perf_counter() - start < PER_CALL_SECONDS, argv
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2), (code, argv)
        error = json.loads(err)["error"]
        assert {"type", "message"} <= set(error)

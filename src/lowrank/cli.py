"""Command line driver.

Inputs are JSON: inline (first non-space character '{'), a file path,
or '-' for standard input.  Ring elements travel as decimal strings
("-3", "2/7"), ring specs as {"kind": "Z"}, {"kind": "Q"}, or
{"kind": "Fp", "p": 5}.  Output is canonical JSON, the bytes of
json.dumps(payload, indent=2, sort_keys=True), written by
rings._canonical_json (_emit, _emit_error), so identical inputs
produce identical bytes; census commands can render a plain-text table
instead with --format table.  Element strings are decoded straight to
raw values (RingSpec._parse_value) for the constructors to check.

Exit status: 0 on success, 1 on a domain error (violated relations,
non-units, guard limits) or a result too long to print, 2 on malformed
input, including a bad command line and JSON that does not decode;
either error puts a JSON error object on stderr.  --help prints
text and exits 0.  The console script (entry) exits 1 with no traceback
when the reader closes stdout early.

_COMMANDS lists every group and command with the names of the
command's arguments, and _ARGUMENTS gives each argument's argparse
keywords once; each argument is built once, at import, in a parser of
its own (_FRAGMENTS).  A command line that names a group and one of its
commands is parsed by one argparse parser made for that request from
those fragments; any other command line is answered from _COMMANDS
without one: help text, or a usage error (see build_parser).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import SquareMatrix, StructureConstants, algebra_degree, left_char_poly, read_elements
from .classify import (
    degree_product_check,
    exceptional_classes,
    mn_degree_probes,
    quadratic_census,
    verify_main_theorem,
)
from .cubic import (
    BinaryCubicForm,
    CubicCoefficients,
    build_algebra,
    classify_case,
    exceptional_witness,
    form_from_commutative,
    gl2_act,
    matrix_rep,
    standard_involution_exceptional,
)
from .errors import _INTEGER, InputError, LowrankError, RelationViolation
from .involutions import (
    Involution,
    check_involution,
    find_standard_involution,
    quadratic_certificate,
)
from .quadratic import (
    QuadraticAlgebra,
    artin_schreier_class,
    is_isomorphic_2unit,
    is_isomorphic_over_z,
    is_separable,
    split_idempotent,
)
from .rings import RingSpec, _canonical_json, _check_keys


def _decode(text: str, what: str):
    """The JSON value of text.  Every way it can fail to decode (bad
    syntax, an integer literal past Python's digit limit, nesting deeper
    than the recursion limit) is an InputError that starts with what."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"{what}: {exc}")


def _load_json(arg: str):
    if arg.lstrip().startswith("{"):
        return _decode(arg, "malformed JSON")
    try:
        if arg == "-":
            text = sys.stdin.read()
        else:
            with open(arg, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input file {arg!r}: {exc}")
    return _decode(text, "malformed JSON")


def _ring_from_args(args) -> RingSpec:
    if args.ring is None:
        raise InputError("this command needs --ring")
    return RingSpec.from_json(_decode(args.ring, "malformed --ring JSON"))


def _emit(payload) -> None:
    print(_canonical_json(payload))


def _emit_error(error: dict) -> None:
    print(_canonical_json({"error": error}), file=sys.stderr)


def _parse_vector(alg, raw, what):
    return alg.element(read_elements(alg.spec, raw, (alg.rank, what)))


def _only_algebra_keys(obj, what, *keys):
    """Refuse the keys of obj beyond an algebra's 'ring', 'rank' and
    'table' and keys, once the readers have found every one of them.
    An involution ('images' in keys) may keep the "found" flag that
    inv find prints with it, so that output reads back."""
    keys = ("ring", "rank", "table") + keys
    if "images" in keys:
        obj = {k: v for k, v in obj.items() if k != "found"}
    _check_keys(obj, keys, f"{what} needs keys " + ", ".join(map(repr, keys)))


def _algebra_input(args):
    """The algebra of the command's input, an object with no other keys."""
    obj = _load_json(args.input)
    alg = StructureConstants.from_json(obj)
    _only_algebra_keys(obj, "algebra")
    return alg


# -- quad ---------------------------------------------------------------------


def _cmd_quad_disc(args):
    alg = QuadraticAlgebra.from_json(_load_json(args.input))
    _emit(
        {
            "ring": alg.spec.to_json(),
            "discriminant": str(alg.discriminant().representative),
        }
    )


def _quad_pair(obj):
    _check_keys(obj, ("ring", "A", "B"), "expected keys 'ring', 'A', 'B'")
    spec = RingSpec.from_json(obj["ring"])
    a, b = (
        QuadraticAlgebra._from_fields(spec, obj[key], f"entry {key!r} needs keys 't' and 'n'")
        for key in ("A", "B")
    )
    return spec, a, b


def _cmd_quad_iso(args):
    spec, a, b = _quad_pair(_load_json(args.input))
    if spec.kind == "Z":
        ok, witness = is_isomorphic_over_z(a, b)
    else:
        ok, witness = is_isomorphic_2unit(a, b)
    _emit(
        {
            "isomorphic": ok,
            "map": None if witness is None else witness.to_json(),
        }
    )


def _cmd_quad_artin_schreier(args):
    alg = QuadraticAlgebra.from_json(_load_json(args.input))
    separable = is_separable(alg)
    _emit(
        {
            "separable": separable,
            "class": str(artin_schreier_class(alg).representative)
            if separable
            else None,
        }
    )


def _cmd_quad_split(args):
    alg = QuadraticAlgebra.from_json(_load_json(args.input))
    fwd, back = split_idempotent(alg)
    _emit(
        {
            "forward": fwd.to_json(),
            "inverse": back.to_json(),
            "product": fwd.target.to_json(),
        }
    )


# -- cubic --------------------------------------------------------------------


def _cubic_coeffs(args) -> CubicCoefficients:
    spec = _ring_from_args(args)
    return CubicCoefficients.from_json(spec, _load_json(args.input))


def _cmd_cubic_build(args):
    _emit(build_algebra(_cubic_coeffs(args)).to_json())


def _cmd_cubic_verify(args):
    try:
        coeffs = _cubic_coeffs(args)
    except RelationViolation as exc:
        _emit({"valid": False, "violations": exc.violations})
        return
    _emit({"valid": True, "case": classify_case(coeffs).value})


def _cmd_cubic_involution(args):
    inv = standard_involution_exceptional(_cubic_coeffs(args))
    _emit(inv.to_json())


def _cmd_cubic_witness(args):
    witness = exceptional_witness(_cubic_coeffs(args))
    _emit(witness.to_json())


def _cmd_cubic_matrix_rep(args):
    mat_i, mat_j = matrix_rep(_cubic_coeffs(args))
    _emit({"I": mat_i.to_json(), "J": mat_j.to_json(), "identities": "verified"})


def _cmd_cubic_form(args):
    _emit(form_from_commutative(_cubic_coeffs(args)).to_json())


# -- form ---------------------------------------------------------------------


def _cmd_form_disc(args):
    spec = _ring_from_args(args)
    form = BinaryCubicForm.from_json(spec, _load_json(args.input))
    _emit({"discriminant": str(form.discriminant())})


def _cmd_form_act(args):
    spec = _ring_from_args(args)
    obj = _load_json(args.input)
    _check_keys(obj, ("g", "form"), "expected keys 'g' (2x2 matrix) and 'form'")
    g = SquareMatrix(spec, read_elements(spec, obj["g"], (2, "'g'"), (2, "row of 'g'")))
    form = BinaryCubicForm.from_json(spec, obj["form"])
    _emit(gl2_act(g, form).to_json())


# -- inv ----------------------------------------------------------------------


def _cmd_inv_verify(args):
    obj = _load_json(args.input)
    inv = Involution.from_json(obj)
    _only_algebra_keys(obj, "involution", "images")
    ok, failure, standard, witness = check_involution(inv)
    _emit(
        {
            "involution": ok,
            "failure": failure,
            "standard": standard,
            "witness": None
            if witness is None
            else [str(c) for c in witness._values],
        }
    )


def _cmd_inv_find(args):
    alg = _algebra_input(args)
    found = find_standard_involution(alg)
    if found is None:
        _emit({"found": False})
    else:
        out = found.to_json()
        out["found"] = True
        _emit(out)


def _cmd_inv_trace_norm(args):
    obj = _load_json(args.input)
    inv = Involution.from_json(obj)
    if "element" not in obj:
        raise InputError("trace-norm needs an 'element' key")
    _only_algebra_keys(obj, "trace-norm", "images", "element")
    x = _parse_vector(inv.algebra, obj["element"], "element")
    t, n = quadratic_certificate(inv, x)
    _emit({"trace": str(t), "norm": str(n), "certificate": "x^2 - t x + n = 0"})


# -- alg ----------------------------------------------------------------------


def _cmd_alg_assoc(args):
    alg = _algebra_input(args)
    ok, witness = alg.verify_associativity()
    _emit(
        {
            "associative": ok,
            "witness": None if witness is None else list(witness),
        }
    )


def _cmd_alg_degree(args):
    alg = _algebra_input(args)
    _emit({"degree": algebra_degree(alg)})


def _cmd_alg_charpoly(args):
    obj = _load_json(args.input)
    alg = StructureConstants.from_json(obj)
    if "element" not in obj:
        raise InputError("charpoly needs an 'element' key")
    _only_algebra_keys(obj, "charpoly", "element")
    x = _parse_vector(alg, obj["element"], "element")
    poly = left_char_poly(x)
    _emit({"char_poly": poly.to_strings(), "order": "constant term first"})


# -- census / probe -----------------------------------------------------------


def _census_spec(args) -> RingSpec:
    return RingSpec("Fp", args.p)


def _cmd_census_cubic(args):
    report = verify_main_theorem(_census_spec(args))
    if args.format == "table":
        report.write_table(sys.stdout)
    else:
        report.write_json(sys.stdout)


def _cmd_census_quad(args):
    report = quadratic_census(_census_spec(args))
    if args.format == "table":
        print(report.to_table())
    else:
        _emit(report.to_json())


def _cmd_census_exceptional(args):
    spec = _census_spec(args)
    classes = exceptional_classes(spec)
    _emit(
        {
            "ring": spec.to_json(),
            "count": len(classes),
            "classes": [
                [[str(v) for v in coeffs._values] for coeffs in cls]
                for cls in classes
            ],
        }
    )


def _cmd_probe_mn(args):
    report = mn_degree_probes(_census_spec(args), args.n)
    _emit(report.to_json())


def _cmd_probe_degree_product(args):
    obj = _load_json(args.input)
    _check_keys(obj, ("A", "B"), "expected keys 'A' and 'B' holding algebras")
    a, b = (StructureConstants.from_json(obj[key]) for key in ("A", "B"))
    for key in ("A", "B"):
        _only_algebra_keys(obj[key], f"entry {key!r}")
    _emit(degree_product_check(a, b).to_json())


# -- wiring -------------------------------------------------------------------


def _integer(text):
    """The value of --p or --n: an integer in README's grammar, the ASCII
    digits of errors._INTEGER, so '1_1' and non-ASCII digits are refused
    as well as digit strings longer than int() converts.  The refusal is
    worded as argparse words it for type=int."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# argument name -> its argparse keywords, given to add_argument once,
# when _FRAGMENTS is built
_ARGUMENTS = {
    "input": {"help": "inline JSON, a file path, or - for standard input"},
    "--ring": {"help": 'ring spec JSON, e.g. {"kind":"Z"}'},
    "--p": {"type": _integer, "required": True, "help": "field size (prime)"},
    "--n": {"type": _integer, "required": True, "choices": (2, 3)},
    "--format": {"choices": ("json", "table"), "default": "json"},
}


def _fragment(name=None):
    """A parser that holds only the argument name of _ARGUMENTS or, with
    no name, only argparse's -h/--help.  A request's parser takes
    fragments as parents, which shares their actions and copies no
    keywords (see build_parser)."""
    fragment = argparse.ArgumentParser(prog="lowrank", add_help=name is None, allow_abbrev=False)
    if name is not None:
        fragment.add_argument(name, **_ARGUMENTS[name])
    return fragment


_HELP = _fragment()
_FRAGMENTS = {name: _fragment(name) for name in _ARGUMENTS}

# group -> (help, {command: (handler, names of the command's arguments)})
_COMMANDS = {
    "quad": ("rank-2 algebras", {
        "disc": (_cmd_quad_disc, ("input",)),
        "iso": (_cmd_quad_iso, ("input",)),
        "artin-schreier": (_cmd_quad_artin_schreier, ("input",)),
        "split": (_cmd_quad_split, ("input",)),
    }),
    "cubic": ("rank-3 tables", {
        "build": (_cmd_cubic_build, ("input", "--ring")),
        "verify": (_cmd_cubic_verify, ("input", "--ring")),
        "involution": (_cmd_cubic_involution, ("input", "--ring")),
        "witness": (_cmd_cubic_witness, ("input", "--ring")),
        "matrix-rep": (_cmd_cubic_matrix_rep, ("input", "--ring")),
        "form": (_cmd_cubic_form, ("input", "--ring")),
    }),
    "form": ("binary cubic forms", {
        "disc": (_cmd_form_disc, ("input", "--ring")),
        "act": (_cmd_form_act, ("input", "--ring")),
    }),
    "inv": ("involutions", {
        "verify": (_cmd_inv_verify, ("input",)),
        "find": (_cmd_inv_find, ("input",)),
        "trace-norm": (_cmd_inv_trace_norm, ("input",)),
    }),
    "alg": ("structure-constant algebras", {
        "assoc": (_cmd_alg_assoc, ("input",)),
        "degree": (_cmd_alg_degree, ("input",)),
        "charpoly": (_cmd_alg_charpoly, ("input",)),
    }),
    "census": ("exhaustive small-field surveys", {
        "cubic": (_cmd_census_cubic, ("--p", "--format")),
        "quad": (_cmd_census_quad, ("--p", "--format")),
        "exceptional": (_cmd_census_exceptional, ("--p",)),
    }),
    "probe": ("degree and matrix-algebra probes", {
        "mn": (_cmd_probe_mn, ("--p", "--n")),
        "degree-product": (_cmd_probe_degree_product, ("input",)),
    }),
}


def _usage_error(prog, message):
    """A usage error is an input error: a JSON error object on stderr and
    exit status 2."""
    _emit_error({"type": "InputError", "message": f"{prog}: {message}"})
    sys.exit(2)


class _Parser(argparse.ArgumentParser):
    """One command's parser.  Its usage errors are input errors (see
    _usage_error).  parse_args takes the whole argv, the group and the
    command included, and reports the words it leaves over as lowrank's
    error."""

    def error(self, message):
        _usage_error(self.prog, message)

    def parse_args(self, args, namespace=None):
        namespace, extras = self.parse_known_args(args[2:], namespace)
        if extras:
            _usage_error("lowrank", "unrecognized arguments: " + " ".join(extras))
        return namespace


def _answer_without_command(argv):
    """Answer an argv that names no command from _COMMANDS alone.  The
    word where the group (or, after a group, the command) belongs decides:
    -h or --help prints the groups (or the group's commands) and exits 0;
    no word or any other word is a usage error."""
    if argv and argv[0] in _COMMANDS:
        prog, dest, word = f"lowrank {argv[0]}", "cmd", argv[1:2]
        about, choices = _COMMANDS[argv[0]]
        about += f"\n\n`{prog} <command> --help` lists a command's arguments"
    else:
        prog, dest, word, choices = "lowrank", "group", argv[:1], _COMMANDS
        width = max(map(len, _COMMANDS))
        about = "exact computations with free algebras of rank 2 and 3\n\ngroups:" + "".join(
            f"\n  {group:<{width}}  {text}" for group, (text, _) in _COMMANDS.items()
        )
    if not word:
        _usage_error(prog, f"the following arguments are required: {dest}")
    if word[0] in ("-h", "--help"):
        print(f"usage: {prog} {{{','.join(choices)}}} ...\n\n{about}")
        sys.exit(0)
    listed = ", ".join(map(repr, choices))
    _usage_error(prog, f"argument {dest}: invalid choice: {word[0]!r} (choose from {listed})")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of the command that argv names by its first two words,
    with -h/--help and the arguments its _COMMANDS row names, and option
    names matched exactly.  Its parents are _HELP and the _FRAGMENTS of
    those names, so it shares their actions, built once at import, and a
    request adds none.  argparse points each shared action's container
    at the latest parser that took it, which nothing reads under the
    default conflict_handler.  Any other argv builds no parser: it is
    answered here (see _answer_without_command), which exits."""
    argv = [] if argv is None else list(argv)
    commands = _COMMANDS[argv[0]][1] if argv and argv[0] in _COMMANDS else {}
    if len(argv) < 2 or argv[1] not in commands:
        _answer_without_command(argv)
    handler, names = commands[argv[1]]
    parser = _Parser(
        prog=f"lowrank {argv[0]} {argv[1]}",
        parents=[_HELP] + [_FRAGMENTS[name] for name in names],
        add_help=False,
        allow_abbrev=False,
    )
    parser.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # two calls, not one: perfbench's tracer times both, wrapping
    # build_parser and the parse_args of the parser it returns
    args = build_parser(argv).parse_args(argv)
    try:
        args.handler(args)
    except LowrankError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        violations = getattr(exc, "violations", None)
        if violations is not None:
            error["violations"] = violations
        _emit_error(error)
        return 1
    except InputError as exc:
        _emit_error({"type": "InputError", "message": str(exc)})
        return 2
    except ValueError as exc:
        # a result with more digits than str() converts (the limit of
        # sys.get_int_max_str_digits) is refused; any other is a bug
        if not str(exc).startswith("Exceeds the limit ("):
            raise
        _emit_error({"type": "ValueError", "message": f"the result is too long to print: {exc}"})
        return 1
    return 0


def entry() -> None:
    """The console script: main() on sys.argv.  A reader that closes
    stdout early (`lowrank census cubic --p 7 | head -1`) ends the run
    with exit status 1 and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at shutdown; point it at devnull so
        # that flush does not raise too (the SIGPIPE note in the signal
        # module's documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()

"""Command line driver.

Inputs are JSON: inline (first non-space character '{'), a file path,
or '-' for standard input.  Ring elements travel as decimal strings
("-3", "2/7"), ring specs as {"kind": "Z"}, {"kind": "Q"}, or
{"kind": "Fp", "p": 5}.  Output is canonical JSON (sorted keys, two
space indent) so identical inputs produce identical bytes; census
commands can render a plain-text table instead with --format table.

Exit status: 0 on success, 1 on a domain error (violated relations,
non-units, guard limits) or a result too long to print, 2 on malformed
input, including a bad command line and JSON that does not decode;
either error puts a JSON error object on stderr.  --help prints
text and exits 0.  The console script (entry) exits 1 with no traceback
when the reader closes stdout early.

A command line that names a group and one of its commands is parsed by
that command's parser alone, so a request does not pay for the whole
command tree; any other command line gets the full tree (see
build_parser).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import SquareMatrix, StructureConstants, algebra_degree, left_regular_rep, read_elements
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
from .errors import InputError, LowrankError, RelationViolation
from .involutions import (
    Involution,
    find_standard_involution,
    quadratic_certificate,
    verify_involution,
    verify_standard,
)
from .quadratic import (
    QuadraticAlgebra,
    artin_schreier_class,
    is_isomorphic_2unit,
    is_isomorphic_over_z,
    is_separable,
    split_idempotent,
)
from .rings import RingSpec, _check_keys


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
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_error(error: dict) -> None:
    print(json.dumps({"error": error}, indent=2, sort_keys=True), file=sys.stderr)


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
    ok, failure = verify_involution(inv)
    standard, witness = (False, None)
    if ok:
        standard, witness = verify_standard(inv)
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
    poly = left_regular_rep(x).char_poly()
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


def _add_input(parser, with_ring=False):
    parser.add_argument(
        "input", help="inline JSON, a file path, or - for standard input"
    )
    if with_ring:
        parser.add_argument("--ring", help='ring spec JSON, e.g. {"kind":"Z"}')


def _add_input_ring(parser):
    _add_input(parser, with_ring=True)


def _add_field(parser):
    parser.add_argument("--p", type=int, required=True, help="field size (prime)")


def _add_field_format(parser):
    _add_field(parser)
    parser.add_argument(
        "--format", choices=("json", "table"), default="json"
    )


def _add_probe_mn(parser):
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--n", type=int, required=True, choices=(2, 3))


# group -> (help, {command: (handler, adds the command's arguments)})
_COMMANDS = {
    "quad": ("rank-2 algebras", {
        "disc": (_cmd_quad_disc, _add_input),
        "iso": (_cmd_quad_iso, _add_input),
        "artin-schreier": (_cmd_quad_artin_schreier, _add_input),
        "split": (_cmd_quad_split, _add_input),
    }),
    "cubic": ("rank-3 tables", {
        "build": (_cmd_cubic_build, _add_input_ring),
        "verify": (_cmd_cubic_verify, _add_input_ring),
        "involution": (_cmd_cubic_involution, _add_input_ring),
        "witness": (_cmd_cubic_witness, _add_input_ring),
        "matrix-rep": (_cmd_cubic_matrix_rep, _add_input_ring),
        "form": (_cmd_cubic_form, _add_input_ring),
    }),
    "form": ("binary cubic forms", {
        "disc": (_cmd_form_disc, _add_input_ring),
        "act": (_cmd_form_act, _add_input_ring),
    }),
    "inv": ("involutions", {
        "verify": (_cmd_inv_verify, _add_input),
        "find": (_cmd_inv_find, _add_input),
        "trace-norm": (_cmd_inv_trace_norm, _add_input),
    }),
    "alg": ("structure-constant algebras", {
        "assoc": (_cmd_alg_assoc, _add_input),
        "degree": (_cmd_alg_degree, _add_input),
        "charpoly": (_cmd_alg_charpoly, _add_input),
    }),
    "census": ("exhaustive small-field surveys", {
        "cubic": (_cmd_census_cubic, _add_field_format),
        "quad": (_cmd_census_quad, _add_field_format),
        "exceptional": (_cmd_census_exceptional, _add_field),
    }),
    "probe": ("degree and matrix-algebra probes", {
        "mn": (_cmd_probe_mn, _add_probe_mn),
        "degree-product": (_cmd_probe_degree_product, _add_input),
    }),
}


def _usage_error(prog, message):
    """A usage error is an input error: a JSON error object on stderr and
    exit status 2."""
    _emit_error({"type": "InputError", "message": f"{prog}: {message}"})
    sys.exit(2)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (see
    _usage_error).  Subparsers inherit it."""

    def error(self, message):
        _usage_error(self.prog, message)


class _CommandParser(_Parser):
    """One command's parser standing in for the full tree on an argv that
    starts with the command's group and name.  The full tree hands the
    words after those two to this same parser and reports the words it
    leaves over as the top level's error, so parse_args takes the whole
    argv and does the same."""

    def parse_args(self, args, namespace=None):
        group, cmd, *rest = args
        namespace, extras = self.parse_known_args(rest, namespace)
        if extras:
            _usage_error("lowrank", "unrecognized arguments: " + " ".join(extras))
        namespace.group, namespace.cmd = group, cmd
        return namespace


def _with_command(parser, handler, add_arguments):
    """Add a command's arguments and handler to parser; return parser."""
    add_arguments(parser)
    parser.set_defaults(handler=handler)
    return parser


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The lowrank argument parser.

    When argv starts with a group and one of its commands, the result
    is that command's parser alone (_CommandParser), one argparse parser
    instead of 31.  Any other argv, and argv None, gets the full tree:
    the top level, every group and every command.  A usage error prints
    no usage line (see _Parser), so parsing argv, its errors and its
    help are those of the full tree, which stays the oracle the tests
    compare against.
    """
    argv = [] if argv is None else list(argv)
    commands = _COMMANDS[argv[0]][1] if argv and argv[0] in _COMMANDS else {}
    if len(argv) > 1 and argv[1] in commands:
        parser = _CommandParser(prog=f"lowrank {argv[0]} {argv[1]}")
        return _with_command(parser, *commands[argv[1]])
    parser = _Parser(
        prog="lowrank",
        description="exact computations with free algebras of rank 2 and 3",
    )
    top = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in _COMMANDS.items():
        cmds = top.add_parser(group, help=group_help).add_subparsers(dest="cmd", required=True)
        for name, command in commands.items():
            _with_command(cmds.add_parser(name), *command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
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

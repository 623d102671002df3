"""Command-line entry point.

One subcommand per operation; JSON reports by default (``--format text`` for
a human rendering with no stability guarantee).  All state flows through
argv: no configuration files, no environment variables, no timestamps, so
identical invocations produce byte-identical output.

Exit codes: 0 success, 1 invalid input (every violation listed), 2 budget or
flag errors.
"""

import argparse
import functools
import json
import sys

from .errors import (
    BudgetExceededError,
    DegeneratePairingError,
    InputFormatError,
    InvalidCurveError,
)
from .extpan.cocycles import Cocycle, class_of, parse_class_spec
from .extpan.groups import parse_group_spec
from .extpan.variegated import check_budget, torsor_report
from .graphs import curve_from_dict, cycle_basis, validate
from .pairing import (
    component_group,
    int_matrix_to_dict,
    pairing_matrix,
    pairing_matrix_to_dict,
    specialize,
)
from .realizations import (
    hodge_table,
    hodge_table_to_dict,
    operator_to_dict,
    picard_lefschetz,
    torsion_dims,
    torsion_dims_to_dict,
    weight_dims,
)
from .selftest import run_selftest


class FlagError(Exception):
    """A flag value failed validation (exit code 2)."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputFormatError("cannot read file %r: %s" % (path, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise InputFormatError("file %r: not UTF-8 text: %s" % (path, exc))
    try:
        return json.loads(text)
    except RecursionError:
        raise InputFormatError("file %r: malformed JSON: nested too deeply" % path)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal longer than the interpreter's
        # int string-conversion limit.
        raise InputFormatError("file %r: malformed JSON: %s" % (path, exc))


def _load_curve(path):
    return curve_from_dict(_load_json(path), source=path)


def _parse_weights(text):
    """Syntactic validation of --weights; arity is checked against the curve."""
    if text is None:
        return None
    try:
        weights = [int(part) for part in text.split(",")]
    except ValueError:
        raise FlagError("--weights must be a comma-separated list of integers")
    if any(w < 1 for w in weights):
        raise FlagError("--weights entries must all be >= 1")
    return weights


def _resolve_weights(weights, base_rank):
    if weights is None:
        return [1] * base_rank
    if len(weights) != base_rank:
        raise FlagError(
            "--weights needs one entry per base generator (%d), got %d"
            % (base_rank, len(weights))
        )
    return weights


def _specialized(curve, weights):
    basis = cycle_basis(curve)
    pm = pairing_matrix(curve, basis)
    return specialize(pm, _resolve_weights(weights, curve.base_rank))


def _load_class_spec(spec, source, target, flag):
    """--e/--f value: 'split', 'nonsplit', or a cocycle-table JSON file,
    which is validated and reduced to its class."""
    if spec in ("split", "nonsplit"):
        try:
            return parse_class_spec(spec, source, target)
        except ValueError as exc:
            raise FlagError("%s: %s" % (flag, exc))
    data = _load_json(spec)
    if not isinstance(data, dict) or set(data) != {"source", "target", "table"}:
        raise InputFormatError(
            "%s (%s): needs exactly keys 'source', 'target', 'table'" % (flag, spec)
        )
    if not isinstance(data["source"], list) or not isinstance(data["target"], list):
        raise InputFormatError(
            "%s (%s): 'source' and 'target' must be arrays of cyclic orders" % (flag, spec)
        )
    declared_src = tuple(data["source"])
    declared_tgt = tuple(data["target"])
    if declared_src != source.factors or declared_tgt != target.factors:
        raise InputFormatError(
            "%s (%s): declares groups %r -> %r but the command uses %r -> %r"
            % (flag, spec, list(declared_src), list(declared_tgt),
               list(source.factors), list(target.factors))
        )
    tindex = target.ops().index
    qn = source.order
    table = data["table"]
    if (
        not isinstance(table, list)
        or len(table) != qn
        or any(not isinstance(row, list) or len(row) != qn for row in table)
    ):
        raise InputFormatError("%s (%s): table must be %d x %d" % (flag, spec, qn, qn))
    try:
        matrix = tuple(
            tuple(tindex[tuple(v)] for v in row) for row in table
        )
    except (KeyError, TypeError):
        raise InputFormatError(
            "%s (%s): table entries must be coordinate lists of target elements"
            % (flag, spec)
        )
    try:
        return class_of(Cocycle(source, target, matrix))
    except ValueError as exc:
        raise InputFormatError("%s (%s): %s" % (flag, spec, exc))


# ---------------------------------------------------------------------------
# Text renderers (human-readable; no stability guarantee).

def _text_matrix(rows):
    if not rows:
        return ["(empty 0 x 0 matrix)"]
    width = max(len(str(x)) for row in rows for x in row)
    return [" ".join(str(x).rjust(width) for x in row) for row in rows]


def _render_text(command, report):
    lines = []
    if command == "validate":
        if report["violations"]:
            lines = report["violations"]
        else:
            lines = ["valid"]
    elif command == "pairing":
        lines.append("h = %d, base_rank = %d" % (report["h"], report["base_rank"]))
        for row in report["entries"]:
            lines.append("  ".join(str(tuple(v)) for v in row))
    elif command in ("specialize", "pl"):
        if command == "pl":
            lines.append(
                "h = %d, a = %d, winding = %d, modulus = %d"
                % (report["h"], report["a"], report["w"], report["modulus"])
            )
            lines.extend(_text_matrix(report["matrix"]))
        else:
            lines.extend(_text_matrix(report["entries"]))
    elif command == "compgroup":
        if report["divisors"]:
            lines.append(" + ".join("Z/%d" % d for d in report["divisors"]))
        else:
            lines.append("trivial")
    elif command == "hodge":
        for key in ("gr_-1", "gr_0", "gr_1"):
            lines.append("%s: F0 = %d, F1 = %d" % (key, report[key][0], report[key][1]))
    elif command == "torsion":
        lines.append(
            "mod %d ranks: gr_-1 = %d, gr_0 = %d, gr_1 = %d"
            % (report["modulus"], report["gr_-1"], report["gr_0"], report["gr_1"])
        )
    elif command == "extpan":
        for key, value in report.items():
            lines.append("%s: %s" % (key, value))
    elif command == "selftest":
        for prop in report["properties"]:
            lines.append(
                "%s %s (cases=%d)"
                % ("PASS" if prop["passed"] else "FAIL", prop["name"], prop["cases"])
            )
        lines.append("all_passed: %s" % report["all_passed"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands.

def _cmd_validate(args):
    curve = _load_curve(args.curve)
    violations = validate(curve)
    return {"violations": violations}, (1 if violations else 0)


def _cmd_pairing(args):
    curve = _load_curve(args.curve)
    return pairing_matrix_to_dict(pairing_matrix(curve, cycle_basis(curve))), 0


def _cmd_specialize(args):
    weights = _parse_weights(args.weights)
    curve = _load_curve(args.curve)
    return int_matrix_to_dict(_specialized(curve, weights)), 0


def _cmd_pl(args):
    if args.mod != 0 and args.mod < 2:
        raise FlagError("--mod must be 0 (integers) or >= 2")
    weights = _parse_weights(args.weights)
    curve = _load_curve(args.curve)
    spec = _specialized(curve, weights)
    op = picard_lefschetz(spec, a=weight_dims(curve).a, w=args.winding, modulus=args.mod)
    return operator_to_dict(op), 0


def _cmd_hodge(args):
    curve = _load_curve(args.curve)
    return hodge_table_to_dict(hodge_table(curve)), 0


def _cmd_torsion(args):
    if args.mod < 2:
        raise FlagError("--mod must be >= 2 for torsion ranks")
    curve = _load_curve(args.curve)
    return torsion_dims_to_dict(args.mod, torsion_dims(curve, args.mod)), 0


def _cmd_compgroup(args):
    weights = _parse_weights(args.weights)
    curve = _load_curve(args.curve)
    return {"divisors": component_group(_specialized(curve, weights))}, 0


def _cmd_extpan(args):
    groups = {}
    for flag, spec in (("--p", args.p), ("--q", args.q), ("--r", args.r)):
        try:
            groups[flag] = parse_group_spec(spec)
        except InputFormatError as exc:
            raise FlagError("%s: %s" % (flag, exc))
    p, q, r = groups["--p"], groups["--q"], groups["--r"]
    # Before any table is built: the tables grow with the square of the orders.
    check_budget(p, q, r)
    e_class = _load_class_spec(args.e, q, r, "--e")
    f_class = _load_class_spec(args.f, r, p, "--f")
    return torsor_report(e_class, f_class).to_dict(), 0


def _cmd_selftest(args):
    if args.count < 1:
        raise FlagError("--count must be >= 1")
    report = run_selftest(args.seed, args.count)
    return report, (0 if report["all_passed"] else 1)


@functools.cache
def build_parser():
    """The argument parser, built once per process: building the nine
    subparsers costs more than most commands take to run."""
    parser = argparse.ArgumentParser(
        prog="monopair",
        description="Monodromy pairings of dual graphs and variegated extensions "
        "of finite abelian groups, in exact arithmetic.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, curve=False):
        cmd = sub.add_parser(name, help=helptext, allow_abbrev=False)
        cmd.set_defaults(fn=fn)
        if curve:
            cmd.add_argument("curve", help="curve JSON file")
        cmd.add_argument(
            "--format", choices=("json", "text"), default="json", help="report format"
        )
        return cmd

    add("validate", _cmd_validate, "list curve invariant violations", curve=True)
    add("pairing", _cmd_pairing, "symbolic pairing matrix of the cycle basis", curve=True)

    cmd = add("specialize", _cmd_specialize, "integer pairing matrix at weights", curve=True)
    cmd.add_argument("--weights", help="comma-separated weights, one per generator")

    cmd = add("pl", _cmd_pl, "unipotent monodromy operator", curve=True)
    cmd.add_argument("--weights", help="comma-separated weights, one per generator")
    cmd.add_argument("--winding", type=int, default=1, help="loop winding number")
    cmd.add_argument("--mod", type=int, default=0, help="0 for integers, else n >= 2")

    add("hodge", _cmd_hodge, "weight-by-filtration dimension table", curve=True)

    cmd = add("torsion", _cmd_torsion, "graded ranks of the n-torsion", curve=True)
    cmd.add_argument("--mod", type=int, required=True, help="torsion level n >= 2")

    cmd = add("compgroup", _cmd_compgroup, "component group elementary divisors", curve=True)
    cmd.add_argument("--weights", help="comma-separated weights, one per generator")

    cmd = add("extpan", _cmd_extpan, "torsor report for variegated extensions")
    cmd.add_argument("--p", required=True, help="bottom group factors, e.g. 2,4")
    cmd.add_argument("--q", required=True, help="top group factors")
    cmd.add_argument("--r", required=True, help="middle group factors")
    cmd.add_argument("--e", default="split", help="split | nonsplit | cocycle JSON file")
    cmd.add_argument("--f", default="split", help="split | nonsplit | cocycle JSON file")

    cmd = add("selftest", _cmd_selftest, "seeded property suites")
    cmd.add_argument("--seed", type=int, default=0, help="random seed")
    cmd.add_argument("--count", type=int, default=200, help="random instances per suite")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.fn(args)
    except FlagError as exc:
        print("flag error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print("budget error: %s" % exc, file=sys.stderr)
        return 2
    except InvalidCurveError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 1
    except (InputFormatError, DegeneratePairingError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.format == "text":
        sys.stdout.write(_render_text(args.command, report))
    else:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Grammar:

    monobound bound|enclose|abel (--weights FILE | --uniform N) --fn SPEC
    monobound refine             (--weights FILE | --uniform N) --fn SPEC [--depth D]
    monobound transform-check    --density SPEC --fn SPEC [--tol X]
    monobound majorize           --x FILE --y FILE
    monobound karamata           --x FILE --y FILE --fn SPEC
    monobound catalog

and ``--json`` anywhere; ``--tol`` is the residual tolerance (default 1e-8),
and any option a command does not read is a parse error.  Every integral of
g is its closed form (for ``table:``, the trapezoid sum), and ``strict`` is
whether g is not constant: for a continuous monotone g the constant
functions are the only equality case.  A SPEC is ``name[:args]``: one table
per family (``_FUNCTIONS``, ``_DENSITIES``, ``_CONVEX``) gives each name its
constructor and argument form, and the one parser, the ``--help`` usage and
the spec errors all come from it.  karamata's ``--fn`` is ``square``,
``expt``, ``abs:c=C`` or a function spec of a convex member or table
(``log``, ``trig`` and ``power`` with k > 1 exit 2).  Input files are CSV
(numbers separated by commas, spaces or newlines; one ``x,y`` knot per line)
or a JSON array of numbers or of [x, y] pairs.  Every number is read by
``float``, so JSON booleans and strings are refused.

Exit codes: 0 success, 1 parse error (also an unreadable or undecodable file,
a ``--tol`` that is not positive and finite, or a ``--depth`` below 1), 2
domain error (bad weights, non-monotone or non-convex function, failed
precondition, a partition over ``partitions.MAX_INTERVALS``, a quadrature sum
that overflows: any ``MonoboundError``), 3 mathematical-invariant
violation.  Code 3 signals a bug in the math, never bad input, so CI can tell
the two apart; anything else ends in a traceback.
``bounds`` decides the bound-family invariants: ``bound`` checks that the
Abel route agrees with T_n, the sign of the gap and the gap bound;
``enclose`` checks those and that [lower, upper] holds the integral;
``abel`` checks the agreement and, for decreasing g, that no term is
negative; ``refine`` checks that no bisection lowers T_n.  Results go to
standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import functions, transform
from .bounds import (
    BoundReport,
    _abel_route,
    abel_violations,
    bound_report,
    refinement_chain,
    refinement_violations,
    riemann_sum_left,
)
from .errors import MonoboundError
from .functions import MonotoneFunction, require_monotone
from .jsonio import format_float, render_json
from .majorization import is_majorized, karamata_check
from .partitions import WeightVector, cumulative, from_weights, uniform_weights

DEFAULT_DEPTH = 3

#: Rows shown by the catalog command.
CATALOG_SPECS = (
    "power:k=1",
    "power:k=2",
    "power:k=3",
    "exp:lambda=0.5",
    "exp:lambda=1",
    "exp:lambda=2",
    "log",
    "recip",
    "trig",
    "const:c=1",
    "linear:m=-1,b=1",
)


class CliParseError(Exception):
    """Unusable command line, spec string, or input file (exit code 1)."""


# ---------------------------------------------------------------------------
# input files and spec strings


def _read_numbers(path: str, pairs: bool = False) -> list:
    """The numbers in a file, flat (vectors, weights) or with ``pairs`` in rows of two (knots)."""
    try:
        stripped = Path(path).read_text(encoding="utf-8").strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    if not stripped:
        raise CliParseError(f"{path}: no {'knots' if pairs else 'numbers'} found")
    if stripped.startswith("["):
        try:
            data = json.loads(stripped, parse_int=float)
        except json.JSONDecodeError as exc:
            raise CliParseError(f"{path}: invalid JSON: {exc}") from exc
        if pairs and not all(isinstance(r, list) and len(r) == 2 and _floats(r) for r in data):
            raise CliParseError(f"{path}: expected a JSON array of [x, y] pairs")
        if not pairs and not (data and _floats(data)):
            raise CliParseError(f"{path}: expected a {'' if data else 'non-empty '}JSON array of numbers")
        return data
    out: list = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        parts = line.replace(",", " ").split()
        where = f"{path}:{lineno}" if pairs else path
        if pairs and len(parts) != 2 and line.strip():
            raise CliParseError(f"{where}: expected two columns, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise CliParseError(f"{where}: {exc}") from exc
        if not pairs:
            out.extend(values)
        elif values:
            out.append(values)
    return out


def _floats(values: list) -> bool:
    return all(isinstance(v, float) for v in values)  # parse_int=float: every JSON number is a float


#: Argument forms of a spec besides ``key=value`` parameters, which a tuple
#: of keys stands for (the empty tuple: no arguments).
_KNOTS = "@file.csv"
_COEFFICIENTS = "c0,c1,..."

#: Each spec name with its constructor and argument form, in ``--help`` order.
_FUNCTIONS = {
    "power": (functions.power_complement, ("k",)),
    "exp": (functions.exponential, ("lambda",)),
    "log": (functions.logarithmic, ()),
    "recip": (functions.reciprocal, ()),
    "trig": (functions.trigonometric, ()),
    "const": (functions.constant, ("c",)),
    "linear": (functions.linear, ("m", "b")),
    "table": (functions.tabulated, _KNOTS),
}
_DENSITIES = {
    "uniform": (transform.uniform_density, ()),
    "poly": (transform.polynomial_density, _COEFFICIENTS),
    "tri": (transform.triangular_density, ("peak",)),
    "table": (transform.tabulated_density, _KNOTS),
}
_CONVEX = {
    "square": (lambda: ((lambda t: t * t), "t^2"), ()),
    "expt": (lambda: (math.exp, "exp(t)"), ()),
    "abs": (lambda c: ((lambda t: abs(t - c)), f"|t - {c:g}|"), ("c",)),
}


def _usage(table: dict) -> str:
    """The grammar of a spec family, as in ``power:k=K | log | table:@file.csv``."""
    forms = {
        name: form if isinstance(form, str) else ",".join(f"{k}={k[0].upper()}" for k in form)
        for name, (_, form) in table.items()
    }
    return " | ".join(f"{name}:{args}" if args else name for name, args in forms.items())


def _parse_spec(spec: str, table: dict, family: str):
    """Look up ``name`` of ``spec`` = ``name[:args]`` in ``table``; call its constructor on ``args``."""
    name, _, args = spec.strip().partition(":")
    if name not in table:
        raise CliParseError(f"unknown {family} spec {spec!r}; expected {_usage(table)}")
    make, form = table[name]
    if form == _KNOTS:
        if not args.startswith("@") or len(args) == 1:
            raise CliParseError(f"{name!r} spec needs a file, e.g. {name}:@knots.csv")
        return make(_read_numbers(args[1:], pairs=True))
    if form == _COEFFICIENTS:
        if not args:
            raise CliParseError(f"{name!r} spec needs coefficients, e.g. {name}:0,2")
        try:
            coefficients = [float(t) for t in args.split(",")]
        except ValueError as exc:
            raise CliParseError(f"{name!r} spec coefficients: {exc}") from exc
        return make(coefficients)
    if not form:
        if args:
            raise CliParseError(f"{name!r} spec takes no parameters, got {args!r}")
        return make()
    if not args:
        raise CliParseError(f"{name!r} spec needs parameters: {', '.join(form)} (e.g. {name}:{form[0]}=...)")
    values: dict[str, float] = {}
    for part in args.split(","):
        key, eq, raw = part.partition("=")
        key = key.strip()
        if not eq or key not in form:
            raise CliParseError(f"bad parameter {part!r} in {name!r} spec")
        if key in values:
            raise CliParseError(f"duplicate parameter {key!r} in {name!r} spec")
        try:
            values[key] = float(raw)
        except ValueError as exc:
            raise CliParseError(f"parameter {key!r} in {name!r} spec: {exc}") from exc
    missing = [k for k in form if k not in values]
    if missing:
        raise CliParseError(f"{name!r} spec is missing: {', '.join(missing)}")
    return make(*(values[k] for k in form))


def parse_fn_spec(spec: str) -> MonotoneFunction:
    """Catalog function from a spec string; see module docstring for the grammar."""
    return _parse_spec(spec, _FUNCTIONS, "function")


def parse_density_spec(spec: str) -> transform.Density:
    """Density from a spec string; see module docstring for the grammar."""
    return _parse_spec(spec, _DENSITIES, "density")


def parse_convex_spec(spec: str) -> tuple[Callable[[float], float], str]:
    """Convex test function (callable, label) for the karamata command; a
    name ``_CONVEX`` does not hold is read as a function spec."""
    name = spec.strip().partition(":")[0]
    if name in _CONVEX:
        return _parse_spec(spec, _CONVEX, "convex")
    if name not in _FUNCTIONS:
        usage = f"{_usage(_CONVEX)} | any function spec"
        raise CliParseError(f"unknown convex spec {spec!r}; expected {usage}")
    g = parse_fn_spec(spec)
    return g, g.formula


# ---------------------------------------------------------------------------
# commands; each returns (payload, invariant problems, text summary), and
# every bound-family problem comes from a check in ``bounds``

_CmdResult = tuple[object, list[str], str | None]


def _require(value: str | None, flag: str) -> str:
    if value is None:
        raise CliParseError(f"this command requires {flag}")
    return value


def _weights_from(args: argparse.Namespace) -> WeightVector:
    if (args.weights is None) == (args.uniform is None):
        raise CliParseError("exactly one of --weights FILE and --uniform N is required")
    if args.uniform is not None:
        return uniform_weights(args.uniform)
    return from_weights(_read_numbers(args.weights))


def cmd_bound(args: argparse.Namespace) -> _CmdResult:
    g = parse_fn_spec(_require(args.fn, "--fn"))
    report = bound_report(g, cumulative(_weights_from(args)))
    return report.to_dict(), report.invariant_violations(), None


def cmd_enclose(args: argparse.Namespace) -> _CmdResult:
    g = parse_fn_spec(_require(args.fn, "--fn"))
    p = cumulative(_weights_from(args))
    require_monotone(g, "enclose")
    report = bound_report(g, p)
    left = riemann_sum_left(g, p)
    lower, upper, contains = report.enclosure(left)
    payload = {
        "lower": lower,
        "upper": upper,
        "integral": report.integral,
        "integral_source": report.integral_source,
        "width": upper - lower,
        "contains_integral": contains,
    }
    return payload, report.invariant_violations(left), None


def cmd_abel(args: argparse.Namespace) -> _CmdResult:
    g = parse_fn_spec(_require(args.fn, "--fn"))
    p = cumulative(_weights_from(args))
    t_n, value, terms = _abel_route(g, p)
    payload = {
        "abel_value": value,
        "t_n": t_n,
        "difference": value - t_n,
        "n": p.n,
        "terms": terms,
    }
    return payload, abel_violations(g.direction, t_n, value, terms), None


def cmd_transform_check(args: argparse.Namespace) -> _CmdResult:
    f = parse_density_spec(_require(args.density, "--density"))
    g = parse_fn_spec(_require(args.fn, "--fn"))
    report = transform.pit_identity_check(f, g, tol=args.tol)
    problems = [] if report.passed else [
        f"residual {report.residual!r} exceeds tolerance {report.tol!r}"
    ]
    return report.to_dict(), problems, None


_RELATION_SUMMARY = {
    "x_majorized_by_y": "x ≺ y (x is majorized by y)",
    "y_majorized_by_x": "y ≺ x (y is majorized by x)",
    "both": "x ≺ y and y ≺ x (permutations of each other)",
    "incomparable": "x and y are incomparable",
    "total_mismatch": "totals differ; majorization does not apply",
}


def cmd_majorize(args: argparse.Namespace) -> _CmdResult:
    x = _read_numbers(_require(args.x, "--x"))
    y = _read_numbers(_require(args.y, "--y"))
    verdict = is_majorized(x, y)
    return verdict.to_dict(), [], _RELATION_SUMMARY[verdict.relation]


def cmd_karamata(args: argparse.Namespace) -> _CmdResult:
    x = _read_numbers(_require(args.x, "--x"))
    y = _read_numbers(_require(args.y, "--y"))
    g, label = parse_convex_spec(_require(args.fn, "--fn"))
    report = karamata_check(g, x, y)
    payload = {
        "g": label,
        "sum_x": report.sum_x,
        "sum_y": report.sum_y,
        "margin": report.margin,
        "pass": report.holds,
    }
    problems = [] if report.holds else [
        f"margin {report.margin!r} is negative for majorized inputs"
    ]
    return payload, problems, None


def cmd_refine(args: argparse.Namespace) -> _CmdResult:
    g = parse_fn_spec(_require(args.fn, "--fn"))
    p = cumulative(_weights_from(args))
    values = refinement_chain(g, p, args.depth)
    integral = g.closed_form_integral
    rows = [
        {"n": p.n * 2**k, "t_n": v, "gap": integral - v}
        for k, v in enumerate(values)
    ]
    payload = {"integral": integral, "integral_source": BoundReport.integral_source, "rows": rows}
    return payload, refinement_violations(values), None


def cmd_catalog(args: argparse.Namespace) -> _CmdResult:
    rows = []
    for spec in CATALOG_SPECS:
        g = parse_fn_spec(spec)
        rows.append(
            {
                "spec": spec,
                "formula": g.formula,
                "direction": g.direction,
                "integral": g.closed_form_integral,
            }
        )
    return {"rows": rows}, [], None


_PARTITION = ("weights", "uniform", "fn")

#: Each command with its help line and the options it reads, in the order
#: ``--help`` lists them; every command also takes ``--json``.
_COMMANDS = {
    "bound": (cmd_bound, "full bound report for weights and a function", _PARTITION),
    "enclose": (cmd_enclose, "two-sided enclosure of the integral", _PARTITION),
    "abel": (cmd_abel, "discrete integration-by-parts cross-check", _PARTITION),
    "transform-check": (
        cmd_transform_check, "substitution identity residual for a density", ("density", "fn", "tol")
    ),
    "majorize": (cmd_majorize, "majorization relation between two vectors", ("x", "y")),
    "karamata": (cmd_karamata, "convex-sum inequality on a majorized pair", ("x", "y", "fn")),
    "refine": (cmd_refine, "bound sequence under repeated bisection", (*_PARTITION, "depth")),
    "catalog": (cmd_catalog, "list catalog functions and their integrals", ()),
}


# ---------------------------------------------------------------------------
# argument parsing and rendering


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() owns the exit-code contract
    def error(self, message: str) -> None:
        raise CliParseError(message)


def _checked(convert: Callable[[str], float], valid: Callable[[float], bool], requirement: str):
    """An argparse type: ``convert`` the text, then refuse values that are not ``valid``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value!r}")
        return value

    return parse


_tolerance = _checked(float, lambda t: 0.0 < t < math.inf, "positive and finite")
_depth = _checked(int, lambda d: d >= 1, ">= 1")

#: ``add_argument`` keywords of each option a command may read.
_OPTIONS = {
    "weights": {"metavar": "FILE", "help": "weight file: CSV or JSON array"},
    "uniform": {"type": int, "metavar": "N", "help": "use N equal weights 1/N"},
    "fn": {"metavar": "SPEC", "help": f"function spec: {_usage(_FUNCTIONS)}"},
    "density": {"metavar": "SPEC", "help": f"density spec: {_usage(_DENSITIES)}"},
    "x": {"metavar": "FILE", "help": "left vector"},
    "y": {"metavar": "FILE", "help": "right vector"},
    "tol": {"type": _tolerance, "default": 1e-8, "metavar": "X", "help": "residual tolerance (default 1e-8)"},
    "depth": {"type": _depth, "default": DEFAULT_DEPTH, "metavar": "D", "help": "bisection depth"},
}


def build_parser() -> _Parser:
    parser = _Parser(prog="monobound", description="Riemann-sum bounds for monotone functions on [0, 1]")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True
    for name, (run, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    return parser


def _fmt_scalar(value) -> str:
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _table_lines(rows: list[dict]) -> list[str]:
    headers = list(rows[0].keys())
    cells = [[_fmt_scalar(row[h]) for h in headers] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
    return lines


def render_text(payload) -> str:
    """Human-readable rendering with the same numeric formatting as JSON."""
    lines: list[str] = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.extend(_table_lines(value))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{key} = [{', '.join(_fmt_scalar(v) for v in value)}]")
        else:
            lines.append(f"{key} = {_fmt_scalar(value)}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, problems, summary = args.run(args)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MonoboundError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"invariant violation: {problem}", file=sys.stderr)
    if args.json:
        print(render_json(payload))
    else:
        if summary is not None:
            print(summary)
        print(render_text(payload))
    return 3 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

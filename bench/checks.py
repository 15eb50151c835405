"""Correctness gate applied to every op of every workload.

Each check returns a list of ``(layer, message)`` problems; an empty list
means the outputs are right.  An op with any problem counts as failed in
``error_rate``: it is never retried, skipped or re-seeded.

The T_n reference is a plain numpy computation on the same input array,
``a = arr / arr.sum()``, ``S = cumsum(a)``, ``T = dot(a, g(S))``, and the
library's ``t_n`` must match it within the a priori rounding bound of
:func:`tn_tolerance`.
"""

from __future__ import annotations

import json
import math

import numpy as np
from monobound.bounds import DEFAULT_QUAD_TOL, IDENTITY_TOL
from monobound.functions import INCREASING

#: Unit roundoff of IEEE-754 binary64.
UNIT_ROUNDOFF = 2.0**-53

#: Keys each CLI command prints with ``--json`` (today's stdout contract).
CLI_KEYS = {
    "bound": {"t_n", "integral", "integral_source", "gap", "gap_bound", "strict", "abel_value", "n"},
    "enclose": {"lower", "upper", "integral", "integral_source", "width", "contains_integral"},
    "abel": {"abel_value", "t_n", "difference", "n", "terms"},
    "transform-check": {"lhs", "rhs", "residual", "tol", "pass"},
    "majorize": {"relation", "prefix_margins"},
    "karamata": {"g", "sum_x", "sum_y", "margin", "pass"},
    "refine": {"integral", "integral_source", "rows"},
    "catalog": {"rows"},
}

#: Relations that are correct for a pair made by ``generate_majorized_pair``.
MAJORIZED_RELATIONS = {"x_majorized_by_y", "both"}


def lipschitz(g) -> float:
    """max |g'| on [0, 1] for the catalog kinds; inf when g' is unbounded."""
    params = dict(g.params)
    if g.kind == "power_complement":
        return params["k"] if params["k"] >= 1.0 else math.inf
    if g.kind == "exponential":
        return params["lambda"]
    if g.kind in ("logarithmic", "reciprocal"):
        return 1.0
    if g.kind == "trigonometric":
        return math.pi / 2.0
    if g.kind == "constant":
        return 0.0
    if g.kind == "linear":
        return abs(params["m"])
    if g.kind == "tabulated":
        xs = np.array((0.0, *g.kinks, 1.0))
        return float(np.max(np.abs(np.diff(g.values(xs)) / np.diff(xs))))
    return math.inf


def numpy_tn(g, arr: np.ndarray) -> float:
    """Reference T_n: plain single-threaded cumsum plus a dot product."""
    a = arr / arr.sum()
    s = np.minimum(np.cumsum(a), 1.0)
    return float(np.dot(a, g.values(s)))


def tn_tolerance(g, n: int) -> float:
    """A priori bound on |t_n(library) - numpy_tn| for n weights.

    With u the unit roundoff, L = max |g'| and M = max(|g(0)|, |g(1)|):

    * the breakpoints differ by at most delta = (n + 64) u: numpy's
      recursive cumsum is off by at most (i - 1) u S_i, the library's
      compensated totals by a few ulps, and the two normalisations by
      (log2 n + 2) u per weight;
    * moving every breakpoint by delta moves sum a_i g(S_i) by at most
      L delta, and by Abel summation the library's widths S_i - S_{i-1}
      differ from a_i by at most delta (|g(1)| + |g(0) - g(1)|) <= 3 M delta;
    * the dot product, the compensated sum and the evaluations of g add at
      most (n + 2) u M.

    The sum (L + 4M + 1)(n + 64) u is doubled for safety.  At n = 10^6 it
    is about 2e-9, far below the 1e-6-sized error of summing at the wrong
    endpoints.
    """
    ends = g.values(np.array([0.0, 1.0]))
    m = max(abs(float(ends[0])), abs(float(ends[1])))
    return 2.0 * (lipschitz(g) + 4.0 * m + 1.0) * (n + 64) * UNIT_ROUNDOFF


def check_tn(g, arr: np.ndarray, t_n: float, reference: float) -> list[tuple[str, str]]:
    tol = tn_tolerance(g, len(arr))
    if abs(t_n - reference) <= tol:
        return []
    return [("bounds", f"t_n {t_n!r} is {abs(t_n - reference):.3g} from numpy's {reference!r} (bound {tol:.3g})")]


def check_enclosure(direction: str, right: float, left: float, integral: float,
                    tol: float = DEFAULT_QUAD_TOL) -> list[tuple[str, str]]:
    """The right and left sums bracket the integral, with ``cmd_enclose``'s slack."""
    lower, upper = (left, right) if direction == INCREASING else (right, left)
    slack = IDENTITY_TOL * max(1.0, abs(integral)) + tol
    if lower - slack <= integral <= upper + slack:
        return []
    return [("bounds", f"integral {integral!r} escapes [{lower!r}, {upper!r}]")]


def check_report(g, arr: np.ndarray, report, left: float, text: str,
                 reference: float) -> list[tuple[str, str]]:
    """Gate for one from_weights -> cumulative -> bound_report -> left sum -> render."""
    problems = [("bounds", msg) for msg in report.invariant_violations()]
    if report.n != len(arr):
        problems.append(("partitions", f"partition has {report.n} intervals, expected {len(arr)}"))
    problems += check_enclosure(g.direction, report.t_n, left, report.integral)
    problems += check_tn(g, arr, report.t_n, reference)
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [("jsonio", f"rendered report is not JSON: {exc}")]
    if parsed != report.to_dict():
        problems.append(("jsonio", "rendered report does not read back as the report"))
    return problems


def check_chain(g, arr: np.ndarray, values: list[float], depth: int,
                reference: float) -> list[tuple[str, str]]:
    """Refinement never lowers T_n (decreasing g) and stays under the integral."""
    problems = []
    if len(values) != depth + 1:
        problems.append(("bounds", f"chain has {len(values)} levels, expected {depth + 1}"))
    for prev, nxt in zip(values, values[1:]):
        if nxt < prev - IDENTITY_TOL:
            problems.append(("bounds", f"refinement decreased the sum: {prev!r} -> {nxt!r}"))
    integral = g.closed_form_integral
    if integral is not None and values[-1] > integral + IDENTITY_TOL * max(1.0, abs(integral)):
        problems.append(("bounds", f"refined sum {values[-1]!r} exceeds the integral {integral!r}"))
    return problems + check_tn(g, arr, values[0], reference)


def check_cli_payload(command: str, payload, expect: dict) -> list[tuple[str, str]]:
    """Keys and values of one ``--json`` CLI result.

    ``expect`` may hold ``g`` and ``arr`` (the function and weights given to
    the child, for the T_n reference), ``depth`` for refine and ``rows`` for
    catalog.
    """
    if not isinstance(payload, dict):
        return [("cli", f"{command}: output is not a JSON object")]
    missing = CLI_KEYS[command] - payload.keys()
    if missing:
        return [("cli", f"{command}: missing keys {sorted(missing)}")]
    g, arr = expect.get("g"), expect.get("arr")
    if command == "bound":
        return check_tn(g, arr, payload["t_n"], numpy_tn(g, arr))
    if command == "enclose":
        ok = payload["contains_integral"] is True and payload["lower"] <= payload["upper"]
        return [] if ok else [("bounds", f"enclose: {payload!r}")]
    if command == "abel":
        problems = check_tn(g, arr, payload["t_n"], numpy_tn(g, arr))
        if abs(payload["difference"]) > IDENTITY_TOL * max(1.0, abs(payload["t_n"])):
            problems.append(("bounds", f"abel: difference {payload['difference']!r}"))
        if len(payload["terms"]) != len(arr) - 1:
            problems.append(("bounds", f"abel: {len(payload['terms'])} terms for n = {len(arr)}"))
        return problems
    if command == "transform-check":
        return [] if payload["pass"] is True else [("transform", f"transform-check: {payload!r}")]
    if command == "majorize":
        ok = payload["relation"] in MAJORIZED_RELATIONS
        return [] if ok else [("majorization", f"majorize: relation {payload['relation']!r}")]
    if command == "karamata":
        return [] if payload["pass"] is True else [("majorization", f"karamata: {payload!r}")]
    if command == "refine":
        values = [row["t_n"] for row in payload["rows"]]
        return check_chain(g, arr, values, expect["depth"], numpy_tn(g, arr))
    if len(payload["rows"]) != expect["rows"]:
        return [("cli", f"catalog: {len(payload['rows'])} rows, expected {expect['rows']}")]
    return []

"""Acceptance gate: ten numbered criteria, one test and one verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` to see a pass/fail line per
criterion; each test also prints ``PASS criterion N: ...`` (visible with -s
or on failure).  Tolerances are fixed here and must not be loosened: they
are part of the contract being certified.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from monobound.bounds import (
    abel_sum,
    bound_report,
    gap_bound,
    riemann_sum_left,
    riemann_sum_right,
)
from monobound.cli import main
from monobound.functions import (
    constant,
    exponential,
    linear,
    logarithmic,
    power_complement,
    quadrature_integral,
    reciprocal,
    trigonometric,
)
from monobound.majorization import generate_majorized_pair, is_majorized, karamata_check
from monobound.partitions import CumulativePartition, cumulative, from_weights, uniform_weights
from monobound.transform import pit_identity_check, polynomial_density, triangular_density, tabulated_density, uniform_density

CORPUS_SEED = 20260815
CORPUS_SIZE = 10_000

STRICT_CATALOG = [
    power_complement(2),
    exponential(1.0),
    logarithmic(),
    reciprocal(),
    trigonometric(),
]


def _verdict(num: int, description: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    """10,000 random normalized weight vectors, n uniform in 1..64."""
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        n = int(rng.integers(1, 65))
        raw = 1.0 - rng.random(n)  # strictly positive draws in (0, 1]
        out.append(cumulative(from_weights(raw.tolist(), normalize=True)))
    return out


def test_criterion_01_worked_example():
    g = power_complement(2)
    p = cumulative(from_weights([0.2, 0.3, 0.5]))
    t_n = riemann_sum_right(g, p)
    best = min(
        _timed(lambda: riemann_sum_right(g, p)) for _ in range(25)
    )
    ok = abs(t_n - 0.417) <= 1e-12 and t_n < 2.0 / 3.0 and best < 1e-3
    assert _verdict(
        1, f"weights (0.2, 0.3, 0.5) with 1 - x^2 give T_n = 0.417 < 2/3 in {best * 1e6:.1f} us", ok
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_catalog_closed_forms():
    cases = [(power_complement(k), k / (k + 1.0)) for k in (1, 2, 3, 10)]
    cases += [(exponential(lam), (1.0 - math.exp(-lam)) / lam) for lam in (0.5, 1.0, 2.0)]
    cases += [
        (logarithmic(), 2.0 * math.log(2.0) - 1.0),
        (reciprocal(), math.log(2.0)),
        (trigonometric(), 2.0 / math.pi),
    ]
    closed_ok = all(abs(g.closed_form_integral - want) <= 1e-12 for g, want in cases)
    quad_ok = all(
        abs(quadrature_integral(g, 1e-10) - g.closed_form_integral) <= 1e-9
        for g, _ in cases
    )
    ok = closed_ok and quad_ok
    assert _verdict(
        2, "catalog integrals match closed forms within 1e-12 and quadrature within 1e-9", ok
    )


def test_criterion_03_theorem_property_suite(corpus):
    integrals = [g.closed_form_integral for g in STRICT_CATALOG]
    start = time.perf_counter()
    overshoot = -math.inf
    min_gap = math.inf
    for p in corpus:
        for g, integral in zip(STRICT_CATALOG, integrals):
            t_n = riemann_sum_right(g, p)
            overshoot = max(overshoot, t_n - integral)
            if p.n >= 2:
                min_gap = min(min_gap, integral - t_n)
    elapsed = time.perf_counter() - start
    ok = overshoot <= 1e-12 and min_gap > 1e-9 and elapsed < 10.0
    assert _verdict(
        3,
        f"50,000 bound checks: max overshoot {overshoot:.2e}, min gap {min_gap:.2e}, {elapsed:.2f} s",
        ok,
    )


def test_criterion_04_abel_equivalence(corpus):
    worst = 0.0
    for p in corpus:
        for g in STRICT_CATALOG:
            t_n = riemann_sum_right(g, p)
            rel = abs(abel_sum(g, p) - t_n) / max(1.0, abs(t_n))
            worst = max(worst, rel)
    adversarial = cumulative(from_weights([1.0 - 1e-8, 1e-8]))
    for g in STRICT_CATALOG:
        t_n = riemann_sum_right(g, adversarial)
        rel = abs(abel_sum(g, adversarial) - t_n) / max(1.0, abs(t_n))
        worst = max(worst, rel)
    ok = worst <= 1e-12
    assert _verdict(4, f"Abel route agrees with the direct sum, worst residual {worst:.2e}", ok)


def test_criterion_05_enclosure_and_gap_bound(corpus):
    ok = True
    for p in corpus:
        for g in STRICT_CATALOG:
            integral = g.closed_form_integral
            right = riemann_sum_right(g, p)
            left = riemann_sum_left(g, p)
            if not (right <= integral <= left):
                ok = False
                break
            if integral - right > gap_bound(g, p) + 1e-12:
                ok = False
                break
        if not ok:
            break
    assert _verdict(
        5, "right sum <= integral <= left sum and gap <= (g(0)-g(1))*mesh on the corpus", ok
    )


def test_criterion_06_refinement_monotonicity():
    rng = np.random.default_rng(606)
    worst = math.inf
    for trial in range(1_000):
        n = int(rng.integers(1, 17))
        raw = 1.0 - rng.random(n)
        p = cumulative(from_weights(raw.tolist(), normalize=True))
        g = STRICT_CATALOG[trial % len(STRICT_CATALOG)]
        index = int(rng.integers(1, p.n + 1))
        lo, hi = p.breakpoints[index - 1], p.breakpoints[index]
        point = lo + (hi - lo) * rng.uniform(0.2, 0.8)
        refined = CumulativePartition(sorted(p.breakpoints + (point,)))
        worst = min(worst, riemann_sum_right(g, refined) - riemann_sum_right(g, p))
    ok = worst >= -1e-12
    assert _verdict(
        6, f"1,000 single-point refinements never lower the sum (worst delta {worst:.2e})", ok
    )


def test_criterion_07_pit_identity():
    densities = [
        uniform_density(),
        polynomial_density([0.0, 2.0]),
        polynomial_density([0.5, 1.0]),
        triangular_density(0.5),
        tabulated_density([(0.0, 0.5), (0.25, 1.8), (0.6, 1.2), (1.0, 0.1)]),
    ]
    fns = STRICT_CATALOG + [constant(1.0), linear(-1.0, 1.0)]
    worst = 0.0
    grid_ok = True
    for f in densities:
        for g in fns:
            report = pit_identity_check(f, g, tol=1e-8)
            worst = max(worst, report.residual)
            grid_ok = grid_ok and report.passed
    f_linear = polynomial_density([0.0, 2.0])
    rng = np.random.default_rng(7)
    rhs_ok = True
    for _ in range(25):
        k = 10.0 ** rng.uniform(-1.0, 1.0)
        report = pit_identity_check(f_linear, power_complement(k), tol=1e-8)
        rhs_ok = rhs_ok and abs(report.rhs - k / (k + 1.0)) <= 1e-10 and report.passed
    ok = grid_ok and rhs_ok
    assert _verdict(
        7,
        f"substitution identity holds for every density x function pair (worst residual {worst:.2e})",
        ok,
    )


def test_criterion_08_karamata_suite():
    convex = [lambda t: t * t, math.exp, lambda t: abs(t - 0.5)]
    rng = np.random.default_rng(99)
    worst_margin = math.inf
    majorized_ok = True
    for seed in range(1_000):
        n = int(rng.integers(2, 65))
        transfers = int(rng.integers(0, 201))
        x, y = generate_majorized_pair(n, transfers, seed=seed)
        if is_majorized(x, y).relation not in ("x_majorized_by_y", "both"):
            majorized_ok = False
            break
        for g in convex:
            worst_margin = min(worst_margin, karamata_check(g, x, y).margin)
    ok = majorized_ok and worst_margin >= -1e-12
    assert _verdict(
        8,
        f"1,000 generated pairs are majorized; convex margins >= {worst_margin:.2e}",
        ok,
    )


def test_criterion_09_equality_audit(corpus):
    g_const = constant(1.0)
    const_ok = all(
        abs(1.0 - riemann_sum_right(g_const, p)) <= 1e-14 for p in corpus
    )
    linear_ok = True
    for m, b in ((-1.0, 1.0), (-0.7, 0.9)):
        g = linear(m, b)
        for n in (1, 2, 3, 4, 8, 16, 33, 64):
            p = cumulative(uniform_weights(n))
            gap = bound_report(g, p).gap
            brute = g.closed_form_integral - math.fsum(
                (1.0 / n) * g((i + 1) / n) for i in range(n)
            )
            want = float(Fraction(str(-m)) / (2 * n))
            if abs(gap - want) > 1e-12 or abs(brute - want) > 1e-12:
                linear_ok = False
    ok = const_ok and linear_ok
    assert _verdict(
        9,
        "constant g gives gap <= 1e-14; uniform-linear gap equals |m|/(2n) within 1e-12",
        ok,
    )


def test_criterion_10_cli_contract(tmp_path, capsys):
    worked = tmp_path / "weights.csv"
    worked.write_text("0.2,0.3,0.5\n")
    one = tmp_path / "one.csv"
    one.write_text("1.0\n")

    code1 = main(["bound", "--weights", str(worked), "--fn", "power:k=2", "--json"])
    out1 = json.loads(capsys.readouterr().out)
    ref1 = bound_report(power_complement(2), cumulative(from_weights([0.2, 0.3, 0.5])))
    ex1 = (
        code1 == 0
        and out1["t_n"] == ref1.t_n
        and out1["integral"] == ref1.integral
        and abs(out1["t_n"] - 0.417) <= 1e-12
        and out1["strict"] is True
    )

    code2 = main(["bound", "--weights", str(one), "--fn", "const:c=7", "--json"])
    out2 = json.loads(capsys.readouterr().out)
    ex2 = (
        code2 == 0
        and out2["t_n"] == 7.0
        and out2["integral"] == 7.0
        and out2["gap"] == 0.0
    )

    code3 = main(["bound", "--uniform", "10", "--fn", "recip", "--json"])
    out3 = json.loads(capsys.readouterr().out)
    ref3 = bound_report(reciprocal(), cumulative(uniform_weights(10)))
    brute = math.fsum(0.1 / (1.0 + (i + 1) / 10.0) for i in range(10))
    ex3 = (
        code3 == 0
        and out3["integral"] == math.log(2.0)
        and out3["t_n"] == ref3.t_n
        and abs(out3["t_n"] - brute) <= 1e-12
        and out3["t_n"] < out3["integral"]
    )

    ok = ex1 and ex2 and ex3
    assert _verdict(
        10, "three worked CLI runs exit 0 and their JSON round-trips bit-exactly", ok
    )

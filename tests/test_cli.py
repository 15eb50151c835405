import dataclasses
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monobound import bounds, cli, majorization, transform
from monobound.bounds import bound_report, refinement_chain, riemann_sum_right
from monobound.cli import build_parser, main
from monobound.functions import power_complement
from monobound.majorization import BOTH, MajorizationVerdict
from monobound.partitions import cumulative, from_weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def worked_weights(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("0.2,0.3,0.5\n")
    return str(path)


@pytest.fixture
def single_weight(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("1.0\n")
    return str(path)


def write_vector(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestBound:
    def test_worked_example_json_round_trip(self, capsys, worked_weights):
        code, out, _ = run(capsys, "bound", "--weights", worked_weights, "--fn", "power:k=2", "--json")
        assert code == 0
        got = json.loads(out)
        expected = bound_report(power_complement(2), cumulative(from_weights([0.2, 0.3, 0.5])))
        # 17 significant digits means the round trip is bit-exact
        assert got["t_n"] == expected.t_n
        assert got["integral"] == expected.integral
        assert got["gap"] == expected.gap
        assert got["gap_bound"] == expected.gap_bound
        assert got["abel_value"] == expected.abel_value
        assert got["t_n"] == pytest.approx(0.417, abs=1e-12)
        assert got["integral"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert got["integral_source"] == "closed_form"
        assert got["strict"] is True
        assert got["n"] == 3

    def test_json_key_order(self, capsys, worked_weights):
        code, out, _ = run(capsys, "bound", "--weights", worked_weights, "--fn", "recip", "--json")
        assert code == 0
        assert list(json.loads(out).keys()) == [
            "t_n", "integral", "integral_source", "gap", "gap_bound",
            "strict", "abel_value", "n",
        ]

    def test_uniform_linear_gap_is_exact(self, capsys):
        code, out, _ = run(capsys, "bound", "--uniform", "4", "--fn", "linear:m=-1,b=1", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["t_n"] == 0.375
        assert got["gap"] == 0.125
        assert got["strict"] is True

    def test_text_and_json_agree(self, capsys, worked_weights):
        _, json_out, _ = run(capsys, "bound", "--weights", worked_weights, "--fn", "exp:lambda=1", "--json")
        _, text_out, _ = run(capsys, "bound", "--weights", worked_weights, "--fn", "exp:lambda=1")
        got = json.loads(json_out)
        lines = dict(line.split(" = ", 1) for line in text_out.strip().splitlines())
        assert float(lines["t_n"]) == got["t_n"]
        assert float(lines["integral"]) == got["integral"]
        assert lines["strict"] == "true"

    @pytest.mark.parametrize("n, spec", [("3", "power:k=1e-9"), ("7", "linear:m=-1e-300,b=1e-300")])
    def test_strict_whatever_the_scale_of_g(self, capsys, n, spec):
        # gaps of about a half and a seventh of integrals of 1e-9 and 5e-301
        code, out, _ = run(capsys, "bound", "--uniform", n, "--fn", spec)
        assert code == 0 and "strict = true" in out.splitlines()

    def test_json_vector_file(self, capsys, tmp_path):
        path = write_vector(tmp_path, "w.json", "[0.25, 0.25, 0.5]")
        code, out, _ = run(capsys, "bound", "--weights", path, "--fn", "recip", "--json")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_tabulated_function_uses_closed_form(self, capsys, tmp_path):
        knots = write_vector(tmp_path, "knots.csv", "0,1\n0.5,0.5\n1,0\n")
        code, out, _ = run(capsys, "bound", "--uniform", "4", "--fn", f"table:@{knots}", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["integral_source"] == "closed_form"
        assert got["integral"] == 0.5


    def test_tiny_exponential_rate_is_not_an_invariant_violation(self, capsys):
        code, out, err = run(capsys, "bound", "--uniform", "10", "--fn", "exp:lambda=1e-9", "--json")
        assert code == 0, err
        got = json.loads(out)
        assert got["gap"] >= 0.0
        assert got["gap"] <= got["gap_bound"] + 1e-12

    @pytest.mark.parametrize("command", ["bound", "enclose"])
    def test_rounding_at_large_scale_is_not_an_invariant_violation(self, capsys, command):
        # g is near 1e12, whose ulp (1.2e-4) is larger than the gap bound
        # (1.2e-7), so the computed gap may exceed the bound by an ulp of g
        code, _, err = run(capsys, command, "--uniform", "1000", "--fn", "linear:m=-1e-4,b=1e12")
        assert (code, err) == (0, "")


class TestEnclose:
    def test_decreasing_bracket(self, capsys, worked_weights):
        code, out, _ = run(capsys, "enclose", "--weights", worked_weights, "--fn", "power:k=2", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["lower"] == pytest.approx(0.417, abs=1e-12)
        assert got["upper"] == pytest.approx(0.863, abs=1e-12)
        assert got["contains_integral"] is True
        assert got["width"] == pytest.approx(got["upper"] - got["lower"], abs=1e-15)

    def test_increasing_function_flips_the_roles(self, capsys):
        code, out, _ = run(capsys, "enclose", "--uniform", "4", "--fn", "linear:m=1,b=0", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["lower"] == 0.375
        assert got["upper"] == 0.625
        assert got["lower"] <= got["integral"] <= got["upper"]

    def test_non_monotone_table_is_a_domain_error(self, capsys, tmp_path):
        bump = write_vector(tmp_path, "bump.csv", "0,0\n0.5,1\n1,0\n")
        code, _, err = run(capsys, "enclose", "--uniform", "4", "--fn", f"table:@{bump}")
        assert code == 2
        assert "domain error" in err


class TestAbel:
    def test_worked_example(self, capsys, worked_weights):
        code, out, _ = run(capsys, "abel", "--weights", worked_weights, "--fn", "power:k=2", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["terms"] == pytest.approx([0.042, 0.375], abs=1e-15)
        assert got["abel_value"] == pytest.approx(0.417, abs=1e-12)
        assert abs(got["difference"]) <= 1e-12
        assert got["n"] == 3

    def test_single_interval_has_no_terms(self, capsys, single_weight):
        code, out, _ = run(capsys, "abel", "--weights", single_weight, "--fn", "trig", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["terms"] == []
        assert got["abel_value"] == got["t_n"]

    def test_g_is_evaluated_once_at_each_breakpoint(self, capsys):
        g = power_complement(2)
        points = []
        counted = dataclasses.replace(g, _fn=lambda x: points.append(np.size(x)) or g._fn(x))
        with mock.patch.object(cli, "parse_fn_spec", lambda spec: counted):
            code, out, _ = run(capsys, "abel", "--uniform", "7", "--fn", "power:k=2", "--json")
        assert code == 0
        assert sum(points) == 7
        assert len(json.loads(out)["terms"]) == 6

    @pytest.mark.parametrize("fn", ["linear:m=-2e6,b=1001000", "linear:m=-2e6,b=1000999.9"])
    @pytest.mark.parametrize("command", ["bound", "enclose", "abel"])
    def test_t_n_cancelling_to_near_zero_is_no_violation(self, capsys, command, fn):
        # T_n is ~1e-12 or -0.1, g reaches 1e6: the routes differ by rounding at ulp(1e6)
        code, _, err = run(capsys, command, "--uniform", "1000", "--fn", fn, "--json")
        assert (code, err) == (0, "")


SCALES = (1e6, -1e6, 1e20, -1e20, 1e300, -1e300)
#: Function specs with g's scale, max |g| on [0, 1].
SCALED_FNS = (
    [(f"const:c={s!r}", abs(s)) for s in (*SCALES, 0.0, 5e-324)]
    + [(f"linear:m={-s!r},b={s!r}", abs(s)) for s in SCALES]
)


class TestTransformCheck:
    def test_uniform_density_recovers_plain_integral(self, capsys):
        code, out, _ = run(capsys, "transform-check", "--density", "uniform", "--fn", "trig", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["rhs"] == pytest.approx(0.6366197724, abs=1e-8)
        assert got["lhs"] == pytest.approx(got["rhs"], abs=1e-8)
        assert got["pass"] is True

    def test_linear_density_with_power_function(self, capsys):
        code, out, _ = run(capsys, "transform-check", "--density", "poly:0,2", "--fn", "power:k=2", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["rhs"] == 2.0 / 3.0
        assert got["lhs"] == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_triangular_density_with_constant(self, capsys):
        code, out, _ = run(capsys, "transform-check", "--density", "tri:peak=0.5", "--fn", "const:c=1", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["rhs"] == 1.0
        assert got["pass"] is True

    def test_tabulated_density_route(self, capsys, tmp_path):
        knots = write_vector(tmp_path, "dens.csv", "0,0.5\n0.25,1.8\n0.6,1.2\n1,0.1\n")
        code, out, _ = run(capsys, "transform-check", "--density", f"table:@{knots}", "--fn", "recip", "--json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_wire_keys(self, capsys):
        _, out, _ = run(capsys, "transform-check", "--density", "uniform", "--fn", "recip", "--json")
        assert list(json.loads(out).keys()) == ["lhs", "rhs", "residual", "tol", "pass"]

    @pytest.mark.parametrize("density", ["uniform", "tri:peak=0.3", "poly:0.5,1"])
    @pytest.mark.parametrize("fn, scale", SCALED_FNS, ids=[fn for fn, _ in SCALED_FNS])
    def test_the_bound_scales_with_g(self, capsys, density, fn, scale):
        # 1e-8 absolute was out of the quadrature's reach from |g| ~ 5e5 up
        code, out, err = run(capsys, "transform-check", "--density", density, "--fn", fn, "--json")
        assert (code, err) == (0, "")
        got = json.loads(out)
        assert got["pass"] is True and got["tol"] == 1e-8 * max(scale, 2.0**-1022)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_a_left_side_off_by_a_millionth_is_caught(self, capsys, scale):
        # 50 % off at scale 1e-20 passed against an absolute 1e-8
        quadrature = transform.batched_quadrature

        def planted(*args, **kwargs):
            result = quadrature(*args, **kwargs)
            return dataclasses.replace(result, value=result.value * (1.0 + 1e-6))

        fn = f"linear:m={-scale!r},b={scale!r}"
        with mock.patch.object(transform, "batched_quadrature", planted):
            code, out, err = run(capsys, "transform-check", "--density", "tri:peak=0.3", "--fn", fn, "--json")
        got = json.loads(out)
        assert code == 3 and got["pass"] is False
        assert err == f"invariant violation: residual {got['residual']!r} exceeds tolerance {got['tol']!r}\n"


class TestMajorize:
    def test_strict_pair(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "0.5,0.5\n")
        y = write_vector(tmp_path, "y.csv", "1,0\n")
        code, out, _ = run(capsys, "majorize", "--x", x, "--y", y, "--json")
        assert code == 0
        got = json.loads(out)
        assert list(got.keys()) == ["relation", "prefix_margins"]
        assert got["relation"] == "x_majorized_by_y"
        assert got["prefix_margins"] == [0.5, 0.0]

    def test_text_summary_line(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "0.5,0.5\n")
        y = write_vector(tmp_path, "y.csv", "1,0\n")
        code, out, _ = run(capsys, "majorize", "--x", x, "--y", y)
        assert code == 0
        assert "x ≺ y" in out.splitlines()[0]
        assert "relation = x_majorized_by_y" in out

    def test_total_mismatch_is_a_verdict_not_an_error(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "1,1\n")
        y = write_vector(tmp_path, "y.csv", "1,0\n")
        code, out, _ = run(capsys, "majorize", "--x", x, "--y", y, "--json")
        assert code == 0
        assert json.loads(out)["relation"] == "total_mismatch"

    def test_length_mismatch_is_a_domain_error(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "1\n")
        y = write_vector(tmp_path, "y.csv", "0.5,0.5\n")
        code, _, err = run(capsys, "majorize", "--x", x, "--y", y)
        assert code == 2
        assert "domain error" in err

    def test_a_margin_of_1e_13_is_not_a_permutation(self, capsys, tmp_path):
        # y < x holds exactly and x < y fails by 1e-13, hundreds of times the
        # slack rho = ROUNDING_SLACK * (sum |x_i| + sum |y_i|) = 1.8e-15
        x = write_vector(tmp_path, "x.csv", "1,0\n")
        y = write_vector(tmp_path, "y.csv", "0.9999999999999,1e-13\n")
        code, out, err = run(capsys, "majorize", "--x", x, "--y", y)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "y ≺ x (y is majorized by x)"

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_overflowing_prefix_sums_are_a_domain_error(self, capsys, tmp_path, fmt):
        x = write_vector(tmp_path, "x.csv", "1e308\n1e308\n")
        code, out, err = run(capsys, "majorize", "--x", x, "--y", x, *fmt)
        assert code == 2
        assert out == ""
        assert err == "domain error: a sum of x or y is not finite in float64; rescale the inputs\n"


class TestKaramata:
    def test_square_margin(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "0.5,0.5\n")
        y = write_vector(tmp_path, "y.csv", "1,0\n")
        code, out, _ = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "square", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["g"] == "t^2"
        assert got["sum_x"] == 0.5
        assert got["sum_y"] == 1.0
        assert got["margin"] == 0.5
        assert got["pass"] is True

    def test_abs_spec(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "0.5,0.5\n")
        y = write_vector(tmp_path, "y.csv", "1,0\n")
        code, out, _ = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "abs:c=0.5", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["sum_x"] == 0.0
        assert got["sum_y"] == 1.0
        assert got["margin"] == 1.0

    def test_concave_catalog_function_rejected(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "0.5,0.5\n")
        y = write_vector(tmp_path, "y.csv", "1,0\n")
        code, _, err = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "power:k=2")
        assert code == 2
        assert "domain error" in err

    def test_concavity_under_the_probe_slack_is_not_a_violation(self, capsys, tmp_path):
        # cos(pi t/2) states that it is concave, so even on a hull 1e-4 wide,
        # where its margin is -4.36e-9, it is refused as input, not reported
        x = write_vector(tmp_path, "x.csv", "0.5,0.5\n")
        y = write_vector(tmp_path, "y.csv", "0.49995,0.50005\n")
        code, out, err = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "trig")
        assert (code, out) == (2, "")
        assert err == (
            "domain error: karamata_check requires a convex function; "
            "g lies above its chord at the middle of the points x = (0.0, 0.5, 1.0)\n"
        )

    @pytest.mark.parametrize(
        "spec, x_text, y_text",
        [("square", "1000000.0000000005,-5e-10\n", "1000000,0\n"), ("expt", "700.0000000000003,-3e-13\n", "700,0\n")],
        ids=["square", "expt"],
    )
    def test_prefix_margins_dipping_within_the_slack_pass(self, capsys, tmp_path, spec, x_text, y_text):
        # majorize calls each pair "both", though the first prefix margin is
        # negative by about a quarter of the slack rho = ROUNDING_SLACK *
        # (sum |x_i| + sum |y_i|); Abel summation bounds the negative margin this costs
        x, y = write_vector(tmp_path, "x.csv", x_text), write_vector(tmp_path, "y.csv", y_text)
        code, out, err = run(capsys, "karamata", "--x", x, "--y", y, "--fn", spec, "--json")
        assert (code, err) == (0, "")
        got = json.loads(out)
        assert got["margin"] < 0.0 and got["pass"] is True

    def test_convex_table_that_is_not_monotone(self, capsys, tmp_path):
        knots = write_vector(tmp_path, "v.csv", "0,1\n0.5,0\n1,1\n")
        x, y = write_vector(tmp_path, "x.csv", "0.5,0.5\n"), write_vector(tmp_path, "y.csv", "1,0\n")
        code, out, err = run(capsys, "karamata", "--x", x, "--y", y, "--fn", f"table:@{knots}", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["margin"] == 2.0

    def test_exp_on_an_unevenly_rounded_grid_is_convex(self, capsys, tmp_path):
        # entries a few ulps apart where exp' is about 3e19: expt is convex as
        # stated, and the margin is far above the rounding of the sums
        x = write_vector(tmp_path, "x.csv", "44.94016331641795,44.94016331641795\n")
        y = write_vector(tmp_path, "y.csv", "44.94016296968159,44.940163663154316\n")
        code, out, err = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "expt", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["pass"] is True

    def test_square_near_1e8_is_convex(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "100000000.25,100000000.25\n")
        y = write_vector(tmp_path, "y.csv", "100000000.5,100000000\n")
        code, out, _ = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "square", "--json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_overflowing_prefix_sums_are_a_domain_error(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "1e308\n1e308\n")
        code, _, err = run(capsys, "karamata", "--x", x, "--y", x, "--fn", "square")
        assert code == 2
        assert err == "domain error: a sum of x or y is not finite in float64; rescale the inputs\n"

    def test_unmajorized_inputs_rejected(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "1,0\n")
        y = write_vector(tmp_path, "y.csv", "0.5,0.5\n")
        code, _, err = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "square")
        assert code == 2
        assert "domain error" in err

    # generate_majorized_pair(5, 1, 1) shifted by 1e9: sum t^2 is near 5e18,
    # whose ulp is 1024, and the margin rounds to -1024
    SHIFTED_X = "1000000000.5118216,1000000000.9504637,1000000000.3087579,1000000000.7840512,1000000000.3118315\n"
    SHIFTED_Y = "1000000000.5118216,1000000000.9504637,1000000000.1441596,1000000000.9486494,1000000000.3118315\n"

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_rounding_at_large_scale_passes(self, capsys, tmp_path, fmt):
        x = write_vector(tmp_path, "x.csv", self.SHIFTED_X)
        y = write_vector(tmp_path, "y.csv", self.SHIFTED_Y)
        code, out, err = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "square", *fmt)
        assert (code, err) == (0, "")
        if fmt:
            got = json.loads(out)
            assert got["margin"] == -1024.0
            assert got["pass"] is True
        else:
            assert "margin = -1024.0\npass = true" in out

    def test_planted_reversal_still_exits_3(self, capsys, tmp_path):
        # a majorization check that waved through the reversed pair: the
        # margin is about -2e6, far beyond the rounding of sums near 4e18
        x = write_vector(tmp_path, "x.csv", "1000001000,999999000\n")
        y = write_vector(tmp_path, "y.csv", "1000000000,1000000000\n")
        with mock.patch.object(majorization, "is_majorized", return_value=MajorizationVerdict(BOTH, ())):
            code, out, err = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "square", "--json")
        assert code == 3
        assert json.loads(out)["pass"] is False
        assert err.startswith("invariant violation: margin -1999872.0 is negative")

    @pytest.mark.parametrize(
        "spec, text", [("expt", "1000,1000\n"), ("square", "1e200,1e200\n")], ids=["overflow", "inf"]
    )
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_non_finite_g_is_a_domain_error(self, capsys, tmp_path, spec, text, fmt):
        x = write_vector(tmp_path, "x.csv", text)
        code, out, err = run(capsys, "karamata", "--x", x, "--y", x, "--fn", spec, *fmt)
        assert (code, out) == (2, "")
        assert err == "domain error: g on x is not finite in float64; rescale the inputs\n"


class TestRefine:
    def test_bisection_chain_from_trivial_partition(self, capsys, single_weight):
        code, out, _ = run(
            capsys, "refine", "--weights", single_weight, "--fn", "power:k=2",
            "--depth", "3", "--json",
        )
        assert code == 0
        got = json.loads(out)
        assert got["integral"] == 2.0 / 3.0
        assert got["integral_source"] == "closed_form"
        assert [row["n"] for row in got["rows"]] == [1, 2, 4, 8]
        assert [row["t_n"] for row in got["rows"]] == [0.0, 0.375, 0.53125, 0.6015625]
        for row in got["rows"]:
            assert row["gap"] == got["integral"] - row["t_n"]

    def test_depth_one_starts_at_the_given_partition(self, capsys, worked_weights):
        code, out, _ = run(capsys, "refine", "--weights", worked_weights, "--fn", "power:k=2", "--depth", "1", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 2
        assert rows[0]["n"] == 3
        assert rows[0]["t_n"] == pytest.approx(0.417, abs=1e-12)
        assert rows[1]["t_n"] >= rows[0]["t_n"]

    def test_constant_function_rows_are_flat(self, capsys, single_weight):
        code, out, _ = run(capsys, "refine", "--weights", single_weight, "--fn", "const:c=2", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(row["t_n"] == 2.0 for row in rows)
        assert all(row["gap"] == 0.0 for row in rows)

    def test_text_output_is_a_table(self, capsys, single_weight):
        code, out, _ = run(capsys, "refine", "--weights", single_weight, "--fn", "recip")
        assert code == 0
        lines = out.strip().splitlines()
        header = [h for h in lines if h.startswith("n ")]
        assert header and "t_n" in header[0] and "gap" in header[0]

    def test_depth_zero_is_a_parse_error(self, capsys, single_weight):
        code, _, err = run(capsys, "refine", "--weights", single_weight, "--fn", "recip", "--depth", "0")
        assert code == 1
        assert "error" in err

    def test_depth_is_checked_before_the_weights_are_read(self, capsys):
        code, _, err = run(capsys, "refine", "--weights", "/nonexistent.csv", "--fn", "recip", "--depth", "0")
        assert (code, err) == (1, "error: argument --depth: must be >= 1, got 0\n")

    def test_depth_that_is_not_an_int(self, capsys):
        code, _, err = run(capsys, "refine", "--weights", "/nonexistent.csv", "--fn", "recip", "--depth", "two")
        assert (code, err) == (1, "error: argument --depth: invalid int value: 'two'\n")


#: Decreasing g crossing zero at 1/2, of scale 1e6 and 1e20.
LARGE_ZERO_CROSSING = ["linear:m=-2e6,b=1e6", "linear:m=-2e20,b=1e20"]


class TestPlantedBugs:
    """A wrong sum planted in the library makes the bound-family commands exit 3.

    Each test names the invariant violation it expects, so deleting the
    check that catches its bug makes it fail.
    """

    G = power_complement(2)

    @pytest.fixture
    def right_sum_at_left_endpoints(self):
        # bound_report's T_n and Abel value taken at S_0..S_(n-1): the left
        # sum, which the Abel route agrees with but which exceeds the integral
        weighted_sum, abel_value = bounds._weighted_sum, bounds._abel_value

        def at_left(route):
            return lambda bps, vals: route(bps, self.G.values(bps[:-1]))

        with (
            mock.patch.object(bounds, "_weighted_sum", at_left(weighted_sum)),
            mock.patch.object(bounds, "_abel_value", at_left(abel_value)),
        ):
            yield

    @pytest.fixture
    def dropped_abel_term(self):
        # the Abel value without its first term S_1 * (g(S_1) - g(S_2))
        abel_value = bounds._abel_value

        def dropped(bps, vals):
            return abel_value(bps, vals) - float(bps[1] * (vals[0] - vals[1]))

        with mock.patch.object(bounds, "_abel_value", dropped):
            yield

    @pytest.mark.usefixtures("right_sum_at_left_endpoints")
    def test_bound_with_right_sum_at_left_endpoints(self, capsys, worked_weights):
        code, out, err = run(capsys, "bound", "--weights", worked_weights, "--fn", "power:k=2", "--json")
        assert code == 3
        assert json.loads(out)["t_n"] == pytest.approx(0.863, abs=1e-12)
        assert err.startswith("invariant violation: discrete sum 0.863")
        assert "exceeds the integral 0.6666666666666666\n" in err

    @pytest.mark.usefixtures("right_sum_at_left_endpoints")
    def test_enclose_with_right_sum_at_left_endpoints(self, capsys, worked_weights):
        code, out, err = run(capsys, "enclose", "--weights", worked_weights, "--fn", "power:k=2", "--json")
        assert code == 3
        assert json.loads(out)["contains_integral"] is False
        assert "exceeds the integral" in err
        assert "escapes the enclosure" in err

    def test_enclose_with_left_sum_at_right_endpoints(self, capsys, worked_weights):
        with mock.patch.object(cli, "riemann_sum_left", riemann_sum_right):
            code, out, err = run(capsys, "enclose", "--weights", worked_weights, "--fn", "power:k=2", "--json")
        assert code == 3
        got = json.loads(out)
        assert got["lower"] == got["upper"]
        assert got["contains_integral"] is False
        assert err == (
            "invariant violation: integral 0.6666666666666666 escapes the enclosure "
            f"[{got['lower']!r}, {got['upper']!r}]\n"
        )

    def test_bound_with_gap_bound_too_small(self, capsys, worked_weights):
        with mock.patch.object(bounds, "_gap_bound", lambda *args: 0.0):
            code, out, err = run(capsys, "bound", "--weights", worked_weights, "--fn", "power:k=2", "--json")
        assert code == 3
        assert json.loads(out)["gap_bound"] == 0.0
        assert err.startswith("invariant violation: gap 0.249") and err.endswith(" exceeds its bound 0.0\n")

    @pytest.mark.usefixtures("dropped_abel_term")
    @pytest.mark.parametrize("command", ["bound", "abel"])
    def test_dropped_abel_term(self, capsys, worked_weights, command):
        code, out, err = run(capsys, command, "--weights", worked_weights, "--fn", "power:k=2", "--json")
        assert code == 3
        got = json.loads(out)
        assert got["abel_value"] == pytest.approx(0.375, abs=1e-12)
        assert err == (
            f"invariant violation: Abel route {got['abel_value']!r} disagrees with direct sum {got['t_n']!r}\n"
        )

    @pytest.mark.usefixtures("dropped_abel_term")
    @pytest.mark.parametrize("fn", LARGE_ZERO_CROSSING)
    @pytest.mark.parametrize("command", ["bound", "abel"])
    def test_dropped_abel_term_at_large_scale(self, capsys, worked_weights, command, fn):
        code, out, err = run(capsys, command, "--weights", worked_weights, "--fn", fn, "--json")
        assert code == 3
        got = json.loads(out)
        assert err == (
            f"invariant violation: Abel route {got['abel_value']!r} disagrees with direct sum {got['t_n']!r}\n"
        )

    @staticmethod
    def negated(g, p):
        t_n, value, terms, scale = bounds._abel_route(g, p)
        return t_n, value, [-t for t in terms], scale

    def test_abel_with_a_negated_term(self, capsys, worked_weights):
        with mock.patch.object(cli, "_abel_route", self.negated):
            code, _, err = run(capsys, "abel", "--weights", worked_weights, "--fn", "power:k=2", "--json")
        assert code == 3
        assert err.startswith("invariant violation: negative Abel term -0.375")

    @pytest.mark.parametrize("fn", LARGE_ZERO_CROSSING)
    def test_abel_with_a_negated_term_at_large_scale(self, capsys, worked_weights, fn):
        with mock.patch.object(cli, "_abel_route", self.negated):
            code, out, err = run(capsys, "abel", "--weights", worked_weights, "--fn", fn, "--json")
        assert code == 3
        terms = json.loads(out)["terms"]
        assert err == f"invariant violation: negative Abel term {min(terms)!r} for a decreasing function\n"

    def test_refine_with_a_decreasing_chain(self, capsys, worked_weights):
        with mock.patch.object(cli, "refinement_chain", lambda g, p, depth: refinement_chain(g, p, depth)[::-1]):
            code, out, err = run(
                capsys, "refine", "--weights", worked_weights, "--fn", "power:k=2", "--depth", "1", "--json"
            )
        assert code == 3
        rows = json.loads(out)["rows"]
        assert err == (
            f"invariant violation: refinement decreased the sum: {rows[0]['t_n']!r} -> {rows[1]['t_n']!r}\n"
        )


class TestInputBudget:
    """Oversized inputs exit 2 before anything large is allocated."""

    def run_traced(self, capsys, *argv):
        tracemalloc.start()
        try:
            result = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        return result

    def test_huge_uniform(self, capsys):
        code, out, err = self.run_traced(capsys, "bound", "--uniform", str(10**12), "--fn", "recip")
        assert code == 2
        assert out == ""
        assert "1000000000000 intervals" in err and "134217728" in err

    def test_abel_past_its_term_budget(self, capsys):
        n = cli.ABEL_MAX_TERMS + 1
        code, out, err = self.run_traced(capsys, "abel", "--uniform", str(n), "--fn", "recip", "--json")
        assert (code, out) == (2, "")
        assert err == f"domain error: a partition of {n} intervals exceeds abel's term budget of {n - 1} intervals\n"

    def test_abel_weights_file_past_its_term_budget_evaluates_no_g(self, capsys, worked_weights):
        g = dataclasses.replace(power_complement(2), _fn=lambda x: pytest.fail("g evaluated"))
        with mock.patch.object(cli, "ABEL_MAX_TERMS", 2), mock.patch.object(cli, "parse_fn_spec", lambda spec: g):
            code, out, err = run(capsys, "abel", "--weights", worked_weights, "--fn", "power:k=2")
        assert (code, out) == (2, "")
        assert err == "domain error: a partition of 3 intervals exceeds abel's term budget of 2 intervals\n"

    def test_deep_refine(self, capsys, tmp_path):
        weights = write_vector(tmp_path, "ten.csv", "0.1\n" * 10)
        code, out, err = self.run_traced(
            capsys, "refine", "--weights", weights, "--fn", "recip", "--depth", "60"
        )
        assert code == 2
        assert out == ""
        assert "10 x 2^60 intervals" in err and "134217728" in err


class TestCatalog:
    def test_rows_and_closed_forms(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        by_spec = {row["spec"]: row for row in rows}
        assert len(rows) == 11
        assert by_spec["recip"]["integral"] == math.log(2.0)
        assert by_spec["trig"]["integral"] == 2.0 / math.pi
        assert by_spec["power:k=2"]["integral"] == 2.0 / 3.0
        assert by_spec["const:c=1"]["direction"] == "constant"
        assert all(row["direction"] in ("decreasing", "constant") for row in rows)

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "spec" in out.splitlines()[0]
        assert "power:k=2" in out


class TestExitCodes:
    def test_missing_fn_flag(self, capsys):
        code, _, err = run(capsys, "bound", "--uniform", "4")
        assert code == 1
        assert "--fn" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_fn_spec(self, capsys):
        assert run(capsys, "bound", "--uniform", "4", "--fn", "sine")[0] == 1

    def test_missing_weights_file(self, capsys):
        assert run(capsys, "bound", "--weights", "/nonexistent.csv", "--fn", "recip")[0] == 1

    def test_weights_and_uniform_together(self, capsys, worked_weights):
        code, _, _ = run(capsys, "bound", "--weights", worked_weights, "--uniform", "4", "--fn", "recip")
        assert code == 1

    def test_neither_weights_nor_uniform(self, capsys):
        assert run(capsys, "bound", "--fn", "recip")[0] == 1

    def test_negative_weight_is_a_domain_error(self, capsys, tmp_path):
        bad = write_vector(tmp_path, "bad.csv", "0.5,-0.1,0.6\n")
        code, _, err = run(capsys, "bound", "--weights", bad, "--fn", "recip")
        assert code == 2
        assert "domain error" in err

    def test_unnormalized_weights_are_a_domain_error(self, capsys, tmp_path):
        bad = write_vector(tmp_path, "bad.csv", "2,3,5\n")
        assert run(capsys, "bound", "--weights", bad, "--fn", "recip")[0] == 2

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_overflowing_weight_sum_is_a_domain_error(self, capsys, tmp_path, fmt):
        weights = write_vector(tmp_path, "w.csv", "1e308\n1e308\n")
        code, out, err = run(capsys, "bound", "--weights", weights, "--fn", "recip", *fmt)
        assert (code, out) == (2, "")
        assert err == "domain error: the sum of the weights is not finite in float64; rescale the inputs\n"

    @pytest.mark.parametrize("command", ["bound", "enclose", "abel", "refine"])
    def test_weight_below_resolution_is_accepted(self, capsys, tmp_path, command):
        # S_1 = S_2 = S_3 = S_4 = 1.0: three cells of zero width
        weights = write_vector(tmp_path, "w.csv", "1.0,1e-17,1e-17,1e-17\n")
        code, out, err = run(capsys, command, "--weights", weights, "--fn", "recip")
        assert (code, err) == (0, "") and out

    def test_bad_function_parameter_is_a_domain_error(self, capsys):
        assert run(capsys, "bound", "--uniform", "4", "--fn", "power:k=-2")[0] == 2

    def test_malformed_spec_parameter_is_a_parse_error(self, capsys):
        assert run(capsys, "bound", "--uniform", "4", "--fn", "power:k=two")[0] == 1

    def test_stray_value_error_is_not_a_domain_error(self, capsys):
        # input faults raise MonoboundError; any other ValueError is a bug and propagates
        def broken(*args, **kwargs):
            raise ValueError("planted")

        with mock.patch.object(cli, "bound_report", broken), pytest.raises(ValueError, match="planted"):
            main(["bound", "--uniform", "4", "--fn", "recip"])
        assert capsys.readouterr() == ("", "")

    def test_errors_print_nothing_to_stdout(self, capsys):
        code, out, err = run(capsys, "bound", "--uniform", "4", "--fn", "sine")
        assert code == 1 and out == "" and err != ""


FN_USAGE = "power:k=K | exp:lambda=L | log | recip | trig | const:c=C | linear:m=M,b=B | table:@file.csv"
SPEC_ERRORS = [
    ("fn", "sine", f"unknown function spec 'sine'; expected {FN_USAGE}"),
    ("fn", "power", "'power' spec needs parameters: k (e.g. power:k=...)"),
    ("fn", "linear:m=1", "'linear' spec is missing: b"),
    ("fn", "power:k=1,k=2", "duplicate parameter 'k' in 'power' spec"),
    ("fn", "power:j=1", "bad parameter 'j=1' in 'power' spec"),
    ("fn", "power:k=two", "parameter 'k' in 'power' spec: could not convert string to float: 'two'"),
    ("fn", "log:1", "'log' spec takes no parameters, got '1'"),
    ("fn", "table:knots.csv", "'table' spec needs a file, e.g. table:@knots.csv"),
    ("density", "gauss",
     "unknown density spec 'gauss'; expected uniform | poly:c0,c1,... | tri:peak=P | table:@file.csv"),
    ("density", "poly", "'poly' spec needs coefficients, e.g. poly:0,2"),
    ("density", "poly:0,x", "'poly' spec coefficients: could not convert string to float: 'x'"),
    ("density", "tri:peak", "bad parameter 'peak' in 'tri' spec"),
    ("density", "uniform:1", "'uniform' spec takes no parameters, got '1'"),
    ("density", "table:@", "'table' spec needs a file, e.g. table:@knots.csv"),
    ("convex", "nope", "unknown convex spec 'nope'; expected square | expt | abs:c=C | any function spec"),
    ("convex", "power:k=x", "parameter 'k' in 'power' spec: could not convert string to float: 'x'"),
    ("convex", "abs", "'abs' spec needs parameters: c (e.g. abs:c=...)"),
    ("convex", "square:2", "'square' spec takes no parameters, got '2'"),
]


class TestSpecGrammar:
    """Every argument form of every spec family, and its error message, from one table per family."""

    @staticmethod
    def argv(family, spec, tmp_path):
        if family == "fn":
            return ["bound", "--uniform", "4", "--fn", spec]
        if family == "density":
            return ["transform-check", "--density", spec, "--fn", "recip"]
        x = write_vector(tmp_path, "x.csv", "0.5,0.5\n")
        return ["karamata", "--x", x, "--y", x, "--fn", spec]

    @pytest.mark.parametrize("family, spec, message", SPEC_ERRORS, ids=[f"{f}-{s}" for f, s, _ in SPEC_ERRORS])
    def test_malformed_spec_is_a_parse_error(self, capsys, tmp_path, family, spec, message):
        code, out, err = run(capsys, *self.argv(family, spec, tmp_path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("family, spec", [
        ("fn", "linear:b=1,m=-1"), ("fn", "linear: m=-1 , b=1"), ("fn", " recip "), ("density", "poly:0,2"),
        ("density", "tri:peak=0.5"), ("convex", "expt"), ("convex", "abs:c=0.5"), ("convex", "linear:m=1,b=0"),
    ])
    def test_well_formed_spec_runs(self, capsys, tmp_path, family, spec):
        code, _, err = run(capsys, *self.argv(family, spec, tmp_path))
        assert (code, err) == (0, "")

    def test_convex_spec_passes_a_function_spec_error_through(self, capsys, tmp_path):
        # only a name in neither table is an unknown convex spec
        missing = tmp_path / "missing.csv"
        code, out, err = run(capsys, *self.argv("convex", f"table:@{missing}", tmp_path))
        assert (code, out) == (1, "") and err.startswith(f"error: cannot read {missing}: ")
        code, out, err = run(capsys, *self.argv("convex", "power:k=-1", tmp_path))
        assert (code, out, err) == (2, "", "domain error: k must be a positive real, got -1.0\n")

    def test_parameters_reach_the_constructor_in_table_order(self):
        assert cli.parse_fn_spec("linear:b=1,m=-2").params == (("m", -2.0), ("b", 1.0))
        assert cli.parse_convex_spec("abs:c=0.25")[1] == "|t - 0.25|"


class TestInputFiles:
    """Weights, vectors and knot tables go through one reader with one number rule."""

    READERS = {
        "weights": ["bound", "--weights", "{f}", "--fn", "recip"],
        "vector": ["majorize", "--x", "{f}", "--y", "{f}"],
        "fn-table": ["bound", "--uniform", "3", "--fn", "table:@{f}"],
        "density-table": ["transform-check", "--density", "table:@{f}", "--fn", "recip"],
    }

    def run_on(self, capsys, tmp_path, reader, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        argv = [arg.replace("{f}", str(path)) for arg in self.READERS[reader]]
        return (*run(capsys, *argv), str(path))

    @pytest.mark.parametrize("reader", READERS)
    def test_undecodable_file_is_a_parse_error(self, capsys, tmp_path, reader):
        code, out, err, path = self.run_on(capsys, tmp_path, reader, b"\xff0,1\n1,0\n")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("reader", ["fn-table", "density-table"])
    @pytest.mark.parametrize("text", ['[[0, true], ["1", 0]]', "[[0, 1], [1, null]]", "[[0, 1], [1, 0, 2]]"])
    def test_knot_table_json_holds_only_number_pairs(self, capsys, tmp_path, reader, text):
        code, out, err, path = self.run_on(capsys, tmp_path, reader, text.encode())
        assert (code, out, err) == (1, "", f"error: {path}: expected a JSON array of [x, y] pairs\n")

    @pytest.mark.parametrize("reader", ["weights", "vector"])
    @pytest.mark.parametrize("text", ["[true, 0.5]", '["0.5", 0.5]', "[null]", "[[0.5, 0.5]]"])
    def test_vector_json_holds_only_numbers(self, capsys, tmp_path, reader, text):
        code, out, err, path = self.run_on(capsys, tmp_path, reader, text.encode())
        assert (code, out, err) == (1, "", f"error: {path}: expected a JSON array of numbers\n")

    def test_json_integers_are_numbers(self, capsys, tmp_path):
        code, out, _, _ = self.run_on(capsys, tmp_path, "fn-table", b"[[0, 1], [1, 0]]")
        assert code == 0
        assert "integral = 0.5\n" in out

    def test_json_integer_beyond_float_range_is_a_domain_error(self, capsys, tmp_path):
        code, out, err, _ = self.run_on(capsys, tmp_path, "weights", b"[1" + b"0" * 400 + b"]")
        assert (code, out) == (2, "")
        assert err == "domain error: weight a_1 is inf; weights must be positive finite numbers\n"

    @pytest.mark.parametrize("reader", ["weights", "vector"])
    def test_bad_number_names_the_file(self, capsys, tmp_path, reader):
        code, out, err, path = self.run_on(capsys, tmp_path, reader, b"0.5,\n0.25 abc\n0.25\n")
        assert (code, out, err) == (1, "", f"error: {path}: could not convert string to float: 'abc'\n")

    @pytest.mark.parametrize("reader", ["fn-table", "density-table"])
    @pytest.mark.parametrize(
        "text, message",
        [
            (b"0,1\n\n1,abc\n", "3: could not convert string to float: 'abc'"),
            (b"0,1\n1,0,2\n", "2: expected two columns, got 3"),
            (b"0,1\n,,\n1,0\n", "2: expected two columns, got 0"),
        ],
    )
    def test_bad_knot_names_the_line(self, capsys, tmp_path, reader, text, message):
        code, out, err, path = self.run_on(capsys, tmp_path, reader, text)
        assert (code, out, err) == (1, "", f"error: {path}:{message}\n")

    @staticmethod
    def per_line_numbers(text):
        """The numbers of a flat file read one line at a time, as the reader once did."""
        out = []
        for line in text.strip().splitlines():
            out.extend(float(t) for t in line.replace(",", " ").split())
        return out

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats().map(repr),
                    st.integers(-(10**30), 10**30).map(str),
                    st.sampled_from(["inf", "-Infinity", "+1e5", "1_0", ".5", "abc", "0x1", "1e", "--1"]),
                ),
                st.lists(
                    st.sampled_from([",", " ", "\t", "\r", "\r\n", "\n", "\v", "\f", "\x1c", "\x1d",
                                     "\x1e", "\x1f", "\x85", "\u2028", "\u2029", "\xa0"]),
                    min_size=1,
                    max_size=4,
                ).map("".join),
            ),
            min_size=1,
            max_size=30,
        ),
        st.text(st.sampled_from(" \n,\t"), max_size=3),
    )
    def test_one_split_reads_what_the_per_line_reader_read(self, tmp_path_factory, tokens, lead):
        text = lead + "".join(token + sep for token, sep in tokens)
        path = tmp_path_factory.getbasetemp() / "flat.csv"
        path.write_text(text, encoding="utf-8")
        try:
            expected = [repr(v) for v in self.per_line_numbers(path.read_text(encoding="utf-8"))]
        except ValueError as exc:
            with pytest.raises(cli.CliParseError, match=f"^{re.escape(f'{path}: {exc}')}$"):
                cli._read_numbers(str(path))
        else:
            assert [repr(v) for v in cli._read_numbers(str(path))] == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_density_table_near_the_float_limit_is_renormalized(self, capsys, tmp_path):
        code, out, err, _ = self.run_on(capsys, tmp_path, "density-table", b"0,1e308\n1,1e308\n")
        assert (code, err) == (0, "")
        assert "pass = true\n" in out


class TestHugeTable:
    """Knots near 1e308: the closed form stays finite, quadrature refuses."""

    @pytest.fixture
    def big(self, tmp_path):
        return write_vector(tmp_path, "big.csv", "0,1e308\n1,1e308\n")

    @pytest.mark.parametrize("command", ["bound", "enclose", "refine"])
    def test_bound_family_uses_the_closed_form(self, capsys, big, command):
        code, out, err = run(capsys, command, "--uniform", "3", "--fn", f"table:@{big}", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["integral"] == 1e308

    def test_transform_check_is_a_domain_error(self, capsys, big):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "transform-check", "--density", "uniform", "--fn", f"table:@{big}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == "domain error: a quadrature sum of the integrand is not finite in float64; rescale the inputs\n"
        assert peak < 8 * 2**20


class TestNonFiniteTable:
    """Knots whose slopes overflow, so np.interp gives inf between them.

    The bound family refuses them with a domain error, and no
    floating-point warning is raised on the way (warnings are errors here).
    """

    TABLES = {
        "steep": "0,1e308\n1,-1e308\n",  # decreasing; -inf strictly between the knots
        "vee": "0,1e308\n0.5,-1e308\n1,1e308\n",  # falls and rises; -inf, then +inf
        # finite slope where the breakpoints of --uniform 3 lie, but g(0) - g(1) overflows
        "kink": "0,1e308\n0.01,0\n1,-1e308\n",
    }
    RIEMANN = "the Riemann sum of g is not finite"

    CASES = [
        ("steep", "bound", RIEMANN),
        ("steep", "enclose", RIEMANN),
        ("steep", "abel", RIEMANN),
        ("steep", "refine", RIEMANN),
        ("vee", "bound", "bound_report requires a monotone function; direction changes"),
        ("vee", "enclose", "enclose requires a monotone function; direction changes"),
        ("vee", "abel", RIEMANN),
        ("vee", "refine", "refinement_chain requires a monotone function; direction changes"),
        ("kink", "bound", "the gap or its bound is not finite"),
        ("kink", "enclose", "the gap or its bound is not finite"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("table, command, message", CASES, ids=[f"{t}-{c}" for t, c, _ in CASES])
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_is_a_domain_error(self, capsys, tmp_path, table, command, message, fmt):
        knots = write_vector(tmp_path, "knots.csv", self.TABLES[table])
        code, out, err = run(capsys, command, "--uniform", "3", "--fn", f"table:@{knots}", *fmt)
        assert (code, out) == (2, "")
        assert err.startswith(f"domain error: {message}")

    @pytest.mark.parametrize("table", ["steep", "vee"])
    def test_under_python_warnings_as_errors(self, tmp_path, table):
        knots = write_vector(tmp_path, "knots.csv", self.TABLES[table])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "monobound", "bound", "--uniform", "3", "--fn", f"table:@{knots}"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("domain error: ")


EXTREMES = ["1e308", "-1e308", "1.7e308", "-1.7e308", "5e-324", "0", "1"]
EXTREME_FNS = [f"linear:m={m},b={b}" for m in EXTREMES for b in EXTREMES] + [
    "power:k=5e-324", "power:k=1.7e308", "exp:lambda=5e-324", "exp:lambda=1.7e308",
    "const:c=1.7e308", "const:c=-1.7e308", "const:c=5e-324",
]
EXTREME_RUNS = [
    (command, "--uniform", "3", "--fn", fn) for command in ("bound", "enclose", "abel", "refine") for fn in EXTREME_FNS
] + [
    ("transform-check", "--density", density, "--fn", fn)
    for density in ("uniform", "tri:peak=0", "tri:peak=1", "poly:1e308,1e308,1e308")
    for fn in [*EXTREME_FNS, "trig"]
]


class TestExtremeInputs:
    """Values of g, and sums of them, at the ends of float64.

    Every run succeeds or is a domain error with exactly one line on
    stderr: no traceback, exit 3 or floating-point warning (warnings are
    errors here) on the way.  transform-check's bound scales with g, so
    its quadrature never falls short of it (ToleranceNotReached).
    """

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", EXTREME_RUNS, ids=" ".join)
    def test_succeeds_or_is_one_domain_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("domain error: ") and err.count("\n") == 1
        else:
            assert err == ""
        if argv[0] == "transform-check":
            assert not err.startswith("domain error: quadrature reached estimated error")


#: The options each command reads; every command also takes --json.
ACCEPTED = {
    "bound": {"weights", "uniform", "fn"},
    "enclose": {"weights", "uniform", "fn"},
    "abel": {"weights", "uniform", "fn"},
    "transform-check": {"density", "fn"},
    "majorize": {"x", "y"},
    "karamata": {"x", "y", "fn"},
    "refine": {"weights", "uniform", "fn", "depth"},
    "catalog": set(),
}
VALUES = {"weights": "w.csv", "uniform": "3", "fn": "recip", "density": "uniform",
          "x": "x.csv", "y": "y.csv", "tol": "1e-9", "depth": "2"}
FOREIGN = [(c, o) for c in ACCEPTED for o in VALUES if o not in ACCEPTED[c]]


def argv_setting(command, option):
    """A valid command line of ``command`` that sets ``option``: a value for each
    option the command requires, with ``--weights`` in place of ``--uniform``
    when ``option`` is weights, and ``option`` appended when it is not there
    (last, so that a foreign option ends the command line)."""
    options = [o for o in sorted(ACCEPTED[command]) if o not in ("weights", "depth")]
    if option == "weights" and "uniform" in options:
        options[options.index("uniform")] = option
    elif option not in options:
        options.append(option)
    return [command, *(token for o in options for token in (f"--{o}", VALUES[o]))]


class TestOptionSets:
    @pytest.mark.parametrize("command", ACCEPTED)
    def test_options_a_command_reads_are_parsed(self, command):
        for option in ACCEPTED[command]:
            args = build_parser().parse_args([*argv_setting(command, option), "--json"])
            assert args.json is True and getattr(args, option) is not None

    @pytest.mark.parametrize("command, option", FOREIGN, ids=[f"{c}--{o}" for c, o in FOREIGN])
    def test_options_a_command_ignores_are_refused(self, capsys, command, option):
        code, out, err = run(capsys, *argv_setting(command, option))
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: --{option} {VALUES[option]}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--uniform", "4"], "the following arguments are required: --fn"),
            (["bound", "--fn", "recip"], "one of the arguments --weights --uniform is required"),
            (
                ["bound", "--weights", "w.csv", "--uniform", "4", "--fn", "recip"],
                "argument --uniform: not allowed with argument --weights",
            ),
            (["majorize"], "the following arguments are required: --x, --y"),
        ],
        ids=" ".join,
    )
    def test_parser_names_a_missing_or_excluded_option(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, usage",
        [
            ("bound", "monobound bound [-h] (--weights FILE | --uniform N) --fn SPEC [--json]"),
            ("refine", "monobound refine [-h] (--weights FILE | --uniform N) --fn SPEC [--depth D] [--json]"),
        ],
    )
    def test_help_usage_is_the_grammar(self, capsys, command, usage):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        first_paragraph = capsys.readouterr().out.split("\n\n")[0]
        assert " ".join(first_paragraph.split()) == f"usage: {usage}"  # wrapped to the terminal's width


def grammar(text):
    """{command: the --options its grammar line names} from lines ``monobound A|B ...``."""
    out = {}
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["monobound"] and len(words) > 1:
            for command in words[1].split("|"):
                out[command] = set(re.findall(r"--([a-z]+)", line))
    return out


class TestGrammar:
    @pytest.mark.parametrize(
        "text", [(Path(__file__).parents[1] / "README.md").read_text(), cli.__doc__], ids=["README.md", "cli.py"]
    )
    def test_grammar_names_the_options_each_command_reads(self, text):
        assert grammar(text) == {name: set(options) for name, (_, _, options) in cli._COMMANDS.items()}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "monobound", "bound", "--uniform", "4", "--fn", "trig", "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        got = json.loads(proc.stdout)
        assert got["integral"] == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert got["gap"] > 0

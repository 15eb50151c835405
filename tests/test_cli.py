import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from monobound.bounds import bound_report
from monobound.cli import main
from monobound.functions import power_complement
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

    def test_json_vector_file(self, capsys, tmp_path):
        path = write_vector(tmp_path, "w.json", "[0.25, 0.25, 0.5]")
        code, out, _ = run(capsys, "bound", "--weights", path, "--fn", "recip", "--json")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_tabulated_function_uses_quadrature(self, capsys, tmp_path):
        knots = write_vector(tmp_path, "knots.csv", "0,1\n0.5,0.5\n1,0\n")
        code, out, _ = run(capsys, "bound", "--uniform", "4", "--fn", f"table:@{knots}", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["integral_source"] == "quadrature"
        assert got["integral"] == pytest.approx(0.5, abs=1e-9)


    def test_tiny_exponential_rate_is_not_an_invariant_violation(self, capsys):
        code, out, err = run(capsys, "bound", "--uniform", "10", "--fn", "exp:lambda=1e-9", "--json")
        assert code == 0, err
        got = json.loads(out)
        assert got["gap"] >= 0.0
        assert got["gap"] <= got["gap_bound"] + 1e-12


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

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_overflowing_prefix_sums_are_a_domain_error(self, capsys, tmp_path, fmt):
        x = write_vector(tmp_path, "x.csv", "1e308\n1e308\n")
        code, out, err = run(capsys, "majorize", "--x", x, "--y", x, *fmt)
        assert code == 2
        assert out == ""
        assert err == "domain error: prefix sums of x and y overflow float64; rescale the inputs\n"


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
        assert "overflow" in err

    def test_unmajorized_inputs_rejected(self, capsys, tmp_path):
        x = write_vector(tmp_path, "x.csv", "1,0\n")
        y = write_vector(tmp_path, "y.csv", "0.5,0.5\n")
        code, _, err = run(capsys, "karamata", "--x", x, "--y", y, "--fn", "square")
        assert code == 2
        assert "domain error" in err


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

    def test_negative_tol(self, capsys):
        assert run(capsys, "bound", "--uniform", "4", "--fn", "recip", "--tol", "-3")[0] == 1

    def test_zero_tol(self, capsys):
        assert run(capsys, "bound", "--uniform", "4", "--fn", "recip", "--tol", "0")[0] == 1

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol(self, capsys, tol):
        assert run(capsys, "enclose", "--uniform", "4", "--fn", "recip", "--tol", tol)[0] == 1

    def test_negative_weight_is_a_domain_error(self, capsys, tmp_path):
        bad = write_vector(tmp_path, "bad.csv", "0.5,-0.1,0.6\n")
        code, _, err = run(capsys, "bound", "--weights", bad, "--fn", "recip")
        assert code == 2
        assert "domain error" in err

    def test_unnormalized_weights_are_a_domain_error(self, capsys, tmp_path):
        bad = write_vector(tmp_path, "bad.csv", "2,3,5\n")
        assert run(capsys, "bound", "--weights", bad, "--fn", "recip")[0] == 2

    def test_weight_below_resolution_is_a_domain_error(self, capsys, tmp_path):
        weights = write_vector(tmp_path, "w.csv", "1.0,1e-17,1e-17,1e-17\n")
        code, _, err = run(capsys, "bound", "--weights", weights, "--fn", "recip")
        assert code == 2
        assert "domain error" in err and "a_2 = 1e-17" in err

    def test_bad_function_parameter_is_a_domain_error(self, capsys):
        assert run(capsys, "bound", "--uniform", "4", "--fn", "power:k=-2")[0] == 2

    def test_malformed_spec_parameter_is_a_parse_error(self, capsys):
        assert run(capsys, "bound", "--uniform", "4", "--fn", "power:k=two")[0] == 1

    def test_errors_print_nothing_to_stdout(self, capsys):
        code, out, err = run(capsys, "bound", "--uniform", "4", "--fn", "sine")
        assert code == 1 and out == "" and err != ""


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

import io
import json
import time

import pytest

from riccati_galois import cli, exprparse, kovacic, scalars
from riccati_galois.poly import InexactDivision, Poly
from riccati_galois.reports import SCHEMA, Report, render_text, to_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_case1_rho(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--rho", "x^2-1", "--no-timing", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == SCHEMA
        assert data["verdict"]["case"] == 1
        assert data["verdict"]["liouvillian"] is True
        assert data["artifacts"]["omega"] == "-x"

    def test_case4_rho(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--rho", "x", "--no-timing", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == {"case": 4, "liouvillian": False}
        assert data["artifacts"] == {}

    @pytest.mark.parametrize(
        "rho", ["1/(x^2 - 2^80)", "1/((x - 2^60)*(x^2 - 3))"]
    )
    def test_large_constant_term(self, capsys, rho):
        # the poles come from no divisor of a coefficient: a search over
        # the divisors of 2^80 would not end
        start = time.perf_counter()
        code, out, _ = run(capsys, "solve", "--rho", rho, "--no-timing", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["verdict"] == {"case": 4, "liouvillian": False}

    def test_second_order_input(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "--b1",
            "1/x",
            "--b0",
            "(x^2-1/4)/x^2",
            "--no-timing",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["case"] == 1

    def test_riccati_input(self, capsys):
        # v' = 1 - v^2 reduces to rho = 1
        code, out, _ = run(
            capsys,
            "solve",
            "--a0",
            "1",
            "--a1",
            "0",
            "--a2",
            "-1",
            "--no-timing",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["case"] == 1

    def test_param_binding(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "--rho",
            "1/4 - k/x + (4*m^2-1)/(4*x^2)",
            "--param",
            "k=1",
            "--param",
            "m=1/2",
            "--no-timing",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["case"] == 1

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x^2-1"))
        code, out, _ = run(
            capsys, "solve", "--rho", "-", "--no-timing", "--json"
        )
        assert code == 0
        assert json.loads(out)["verdict"]["case"] == 1

    def test_incomplete_input(self, capsys):
        code, _, err = run(capsys, "solve", "--b1", "1/x", "--no-timing")
        assert code == 2
        assert "b0" in err


class TestExitCodes:
    def test_syntax_error(self, capsys):
        code, out, err = run(capsys, "solve", "--rho", "x +", "--no-timing")
        assert code == 2
        assert out == ""
        assert "syntax" in err

    def test_exponent_above_bound(self, capsys):
        rho = "(x + 1/3)^%d / (x - 1)" % (exprparse.MAX_EXPONENT + 1)
        code, out, err = run(capsys, "solve", "--rho", rho, "--no-timing")
        assert code == 2
        assert out == ""
        assert "position 9" in err

    def test_power_size_above_bound(self, capsys):
        rho = "((2^1000)^1000)^1000"
        code, out, err = run(capsys, "solve", "--rho", rho, "--no-timing")
        assert code == 2
        assert out == ""
        assert "position 15" in err

    @pytest.mark.parametrize("rho", ["1/(x-x)", "(x-x)^-1", "0^-1", "1/sqrt(0)"])
    def test_division_by_zero_in_solve(self, capsys, rho):
        code, out, err = run(capsys, "solve", "--rho", rho, "--no-timing")
        assert code == 2
        assert out == ""
        assert "division by zero" in err

    def test_division_by_zero_in_param(self, capsys):
        code, out, err = run(
            capsys, "solve", "--rho", "1/x", "--param", "a=1/(1-1)", "--no-timing"
        )
        assert code == 2
        assert out == ""
        assert "division by zero (at position 1)" in err

    def test_division_by_zero_in_criteria(self, capsys):
        code, out, err = run(
            capsys,
            "criteria",
            "kimura",
            "--l",
            "1/(1-1)",
            "--m",
            "1",
            "--n",
            "1",
            "--no-timing",
        )
        assert code == 2
        assert out == ""
        assert "division by zero" in err

    def test_division_by_zero_in_darboux(self, capsys):
        code, out, err = run(capsys, "darboux", "x; 1/(y-y)", "--no-timing")
        assert code == 2
        assert out == ""
        assert "division by zero (at position 4)" in err

    def test_unsupported_tower(self, capsys):
        code, _, err = run(
            capsys,
            "solve",
            "--rho",
            "1/(x-sqrt(1+sqrt(1+sqrt(2))))",
            "--tower-depth",
            "1",
            "--no-timing",
        )
        assert code == 3
        assert "unsupported" in err

    def test_negative_tower_depth_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--rho", "x^2-1", "--tower-depth", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tower depth must be non-negative" in captured.err

    def test_tower_depth_is_restored(self, capsys, monkeypatch):
        monkeypatch.setattr(scalars, "_max_tower_depth", 2)
        code, _, _ = run(
            capsys, "solve", "--rho", "x^2-1", "--tower-depth", "0", "--no-timing"
        )
        assert code == 0
        assert scalars.get_max_tower_depth() == 2
        # also after a run that fails on the depth
        code, _, _ = run(
            capsys,
            "solve",
            "--rho",
            "1/(x^2-2)",
            "--tower-depth",
            "0",
            "--no-timing",
        )
        assert code == 3
        assert scalars.get_max_tower_depth() == 2

    def test_unsupported_degenerate(self, capsys):
        code, _, err = run(
            capsys,
            "apply",
            "s1",
            "--param",
            "eps=1",
            "--param",
            "lam=0",
            "--param",
            "b20=1",
            "--param",
            "b11=2",
            "--param",
            "b02=1",
            "--no-timing",
        )
        assert code == 3

    def test_verification_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(kovacic, "verify_case1", lambda *a: False)
        code, out, err = run(capsys, "solve", "--rho", "x^2-1", "--no-timing")
        assert code == 4
        assert out == ""
        assert "verification" in err

    @pytest.mark.parametrize(
        "rho",
        [
            "1/x - 3/(16*x^2)",  # Case 2
            "(-2/9*x^2 + 3/16*x - 3/16)/(x^4 - 2*x^3 + x^2)",  # Case 3
        ],
    )
    def test_algebraic_verification_failure(self, capsys, monkeypatch, rho):
        # a failed certificate check is a fault, not a reason to go on
        # searching (which would end in Case 4)
        monkeypatch.setattr(
            kovacic, "verify_algebraic_riccati", lambda *a: False
        )
        code, out, err = run(capsys, "solve", "--rho", rho, "--no-timing")
        assert code == 4
        assert out == ""
        assert "verification" in err

    @pytest.mark.parametrize("rho", ["x^\u00b2", "x^\u0663"])
    def test_non_ascii_digit_is_a_syntax_error(self, capsys, rho):
        # a superscript two and an Arabic-Indic three are not numbers
        code, out, err = run(capsys, "solve", "--rho", rho, "--no-timing")
        assert code == 2
        assert out == ""
        assert "syntax error" in err

    def test_internal_fault_is_not_unsupported(self, capsys, monkeypatch):
        # a division that leaves a remainder is a broken invariant of the
        # kernel, although InexactDivision is a ValueError
        def broken(self, other):
            raise InexactDivision("division is not exact")

        monkeypatch.setattr(Poly, "exact_div", broken)
        code, out, err = run(
            capsys, "solve", "--rho", "1/(x^2-1)^2", "--no-timing"
        )
        assert code == 4
        assert out == ""
        assert "internal fault" in err and "unsupported" not in err

    def test_calls_do_not_share_options(self, capsys):
        # the parser is built once per process; each call still sees
        # only its own options
        argv = ["solve", "--rho", "1/4 - k/x", "--no-timing"]
        code, out, _ = run(capsys, *argv, "--param", "k=1", "--json")
        assert code == 0
        assert json.loads(out)["input"]["rho"] == "(1/4*x - 1)/(x)"
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "k" in err
        code, out, _ = run(capsys, *argv, "--param", "k=2")
        assert code == 0
        assert out.startswith(SCHEMA + " solve\n")
        assert "rho = (1/4*x - 2)/(x)" in out
        assert cli.build_parser() is cli.build_parser()

    def test_missing_param(self, capsys):
        code, _, err = run(capsys, "apply", "s1", "--no-timing")
        assert code == 2
        assert "eps" in err

    def test_bad_param_syntax(self, capsys):
        code, _, _ = run(
            capsys, "solve", "--rho", "x", "--param", "k", "--no-timing"
        )
        assert code == 2


class TestCriteria:
    def test_bessel(self, capsys):
        code, out, _ = run(
            capsys, "criteria", "bessel", "--n", "1/2", "--no-timing", "--json"
        )
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "integrable"

    def test_kimura(self, capsys):
        code, out, _ = run(
            capsys,
            "criteria",
            "kimura",
            "--l",
            "1/2",
            "--m",
            "1/2",
            "--n",
            "1/5",
            "--no-timing",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "integrable"

    def test_whittaker(self, capsys):
        code, out, _ = run(
            capsys,
            "criteria",
            "whittaker",
            "--kappa",
            "1",
            "--mu",
            "1/2",
            "--no-timing",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "integrable"

    def test_biconfluent(self, capsys):
        code, out, _ = run(
            capsys,
            "criteria",
            "biconfluent-heun",
            "--d0",
            "1",
            "--d1",
            "5",
            "--d2",
            "3",
            "--d3",
            "-10",
            "--no-timing",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "integrable"

    def test_lame_half_integer(self, capsys):
        code, out, _ = run(
            capsys,
            "criteria",
            "lame",
            "--n",
            "3/2",
            "--b",
            "1",
            "--g2",
            "4",
            "--g3",
            "0",
            "--no-timing",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["label"] == "(ii)"

    def test_missing_flag(self, capsys):
        code, _, _ = run(capsys, "criteria", "bessel", "--no-timing")
        assert code == 2


class TestDarboux:
    def test_two_curves_integrating_factor(self, capsys):
        code, out, _ = run(
            capsys,
            "darboux",
            "1; 1 - w^2",
            "--curve",
            "w-1",
            "--curve",
            "w+1",
            "--no-timing",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["combination"] == "integrating_factor"
        assert data["artifacts"]["exponents"] == ["-1", "-1"]

    def test_non_invariant_curve_reported(self, capsys):
        code, out, _ = run(
            capsys,
            "darboux",
            "1; 1 - w^2",
            "--curve",
            "x",
            "--no-timing",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["artifacts"]["curve_0_cofactor"] == "not invariant"
        assert data["verdict"]["invariant_curves"] == 0

    def test_empty_curve_list(self, capsys):
        code, out, _ = run(
            capsys, "darboux", "1; 1 - w^2", "--no-timing", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["combination"] == "none"
        assert data["artifacts"]["divergence"] == "-2*w"


class TestApply:
    def test_s1(self, capsys):
        code, out, _ = run(
            capsys,
            "apply",
            "s1",
            "--param",
            "eps=5",
            "--param",
            "lam=0",
            "--param",
            "b20=0",
            "--param",
            "b11=1",
            "--param",
            "b02=0",
            "--no-timing",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["status"] == "integrable"
        assert data["verdict"]["condition_a1"] is True
        assert data["artifacts"]["kappa"] == "1/2"

    def test_s2(self, capsys):
        code, out, _ = run(
            capsys,
            "apply",
            "s2",
            "--param",
            "eps=1",
            "--param",
            "lam=0",
            "--param",
            "b20=1",
            "--param",
            "b11=0",
            "--param",
            "b02=1",
            "--no-timing",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["classification"] == "Bernoulli"

    def test_lienard1(self, capsys):
        code, out, _ = run(
            capsys,
            "apply",
            "lienard1",
            "--param",
            "a=0",
            "--param",
            "b=1",
            "--param",
            "c=1",
            "--param",
            "m=1",
            "--param",
            "k=1",
            "--no-timing",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["status"] == "integrable"
        assert data["verdict"]["clause"] == 1
        assert data["artifacts"]["nu_roots"] == ["0", "-1"]

    def test_abel(self, capsys):
        code, out, _ = run(
            capsys,
            "apply",
            "abel",
            "--param",
            "a=0",
            "--param",
            "b=0",
            "--param",
            "c=0",
            "--param",
            "alpha=-1/4",
            "--param",
            "beta=0",
            "--param",
            "gamma=1",
            "--no-timing",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["status"] == "integrable"
        assert data["artifacts"]["deltas"] == ["2", "0", "0", "0"]

    def test_examples(self, capsys):
        code, out, _ = run(
            capsys, "apply", "examples", "--no-timing", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["dihedral-2"] == 2
        assert data["verdict"]["tetrahedral"] == 3
        assert data["artifacts"]["tetrahedral_first_integral"] == "rational"


class TestOutputContract:
    ARGS = (
        "solve",
        "--rho",
        "1/4 - 1/x + 0/4*x",
        "--no-timing",
        "--json",
    )

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_text_is_function_of_json(self, capsys):
        _, json_out, _ = run(capsys, *self.ARGS)
        _, text_out, _ = run(capsys, *self.ARGS[:-1])
        assert render_text(json.loads(json_out)) == text_out

    def test_timing_included_by_default(self, capsys):
        code, out, _ = run(capsys, "solve", "--rho", "x^2-1", "--json")
        assert code == 0
        assert "timing" in json.loads(out)

    def test_report_roundtrip(self):
        report = Report("solve")
        report.set_input("rho", "x")
        report.add_trace("step")
        report.set_verdict(case=4, liouvillian=False)
        data = report.finish()
        assert json.loads(to_json(data)) == data
        text = render_text(data)
        assert "case = 4" in text
        assert "liouvillian = false" in text

"""Command-line interface: output format, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from linperm import binomial, cli, ffield
from linperm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines(out):
    return dict(line.split(": ", 1) for line in out.strip().splitlines())


class TestField:
    def test_canonical_modulus(self, capsys):
        code, out, _ = run(capsys, "field", "--p", "3", "--e", "1", "--n", "2")
        assert code == 0
        assert lines(out) == {"modulus": "10", "order": "9"}

    def test_json(self, capsys):
        code, out, _ = run(capsys, "field", "--p", "2", "--e", "1", "--n", "3",
                           "--json")
        assert code == 0
        assert json.loads(out) == {"modulus": 11, "order": 8}

    def test_large_prime_without_irreducible_binomials(self, capsys):
        # x^4 + c is reducible for every c when p = 3 (mod 4); the scan
        # skips those p candidates and stops at x^4 + x + 1
        p = 1000003
        code, out, _ = run(capsys, "field", "--p", str(p), "--e", "1", "--n", "4")
        assert code == 0
        assert lines(out) == {"modulus": str(p**4 + p + 1), "order": str(p**4)}

    def test_bad_parameters_exit_nonzero(self, capsys):
        code, _, err = run(capsys, "field", "--p", "4", "--e", "1", "--n", "2")
        assert code == 1
        assert "prime" in err


class TestCheck:
    def test_permutation_case(self, capsys):
        code, out, _ = run(capsys, "check", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "1", "--a", "4")
        assert code == 0
        assert lines(out) == {"permutation": "true", "norm": "2"}

    def test_non_permutation_case(self, capsys):
        code, out, _ = run(capsys, "check", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "1", "--a", "3")
        assert code == 0
        assert lines(out) == {"permutation": "false", "norm": "1"}

    def test_out_of_range_a(self, capsys):
        code, _, err = run(capsys, "check", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "1", "--a", "9")
        assert code == 1 and "a=9" in err

    def test_out_of_range_r(self, capsys):
        code, _, err = run(capsys, "check", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "2", "--a", "4")
        assert code == 1 and "r=2" in err


class TestInvert:
    @pytest.mark.parametrize("method", ["closed", "dickson", "special"])
    def test_worked_inverse(self, capsys, method):
        code, out, _ = run(capsys, "invert", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "1", "--a", "4", "--method", method)
        assert code == 0
        assert lines(out) == {"coeffs": "7,2"}

    def test_json_coefficients(self, capsys):
        code, out, _ = run(capsys, "invert", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "1", "--a", "4", "--json")
        assert code == 0
        assert json.loads(out) == {"coeffs": [7, 2]}

    @pytest.mark.parametrize("method", ["closed", "dickson", "special"])
    def test_non_permutation_reports_criterion_value(self, capsys, method):
        code, _, err = run(capsys, "invert", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "1", "--a", "3", "--method", method)
        assert code == 1
        assert "not a permutation" in err
        assert "N(a)" in err and "1" in err

    def test_non_permutation_is_one_line_for_every_method(self, capsys):
        for method in ("closed", "dickson", "special"):
            code, out, err = run(capsys, "invert", "--p", "3", "--e", "1",
                                 "--n", "2", "--r", "1", "--a", "3",
                                 "--method", method)
            assert code == 1 and out == ""
            assert err == "error: not a permutation: (-1)^(n/d) * N(a) = 1\n"

    def test_no_special_form(self, capsys):
        code, out, err = run(capsys, "invert", "--p", "2", "--e", "1",
                             "--n", "6", "--r", "2", "--a", "1",
                             "--method", "special")
        assert code == 1 and out == ""
        assert err == "error: r=2, n=6 fits none of the special forms\n"

    def test_methods_agree_everywhere(self, capsys):
        for a in range(9):
            results = {}
            for method in ("closed", "dickson"):
                code, out, _ = run(capsys, "invert", "--p", "3", "--e", "1",
                                   "--n", "2", "--r", "1", "--a", str(a),
                                   "--method", method)
                results[method] = (code, out)
            assert results["closed"] == results["dickson"]


class TestLift:
    def test_worked_case(self, capsys, f729):
        code, out, _ = run(capsys, "lift", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "1", "--a", "4", "--t", "3")
        assert code == 0
        got = lines(out)
        assert got["big_order"] == "729"
        coeffs = [int(v) for v in got["coeffs"].split(",")]
        assert len(coeffs) == 2 and coeffs[1] == 1
        # slot 0 carries the embedded coefficient, a root-consistent value
        from linperm import embed_subfield, field_ctx
        expected = embed_subfield(field_ctx(3, 1, 2).from_int(4), f729)
        assert coeffs[0] == expected.to_int()

    def test_non_coprime_t(self, capsys):
        code, _, err = run(capsys, "lift", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "1", "--a", "4", "--t", "2")
        assert code == 1 and "coprime" in err

    def test_zero_t_names_t(self, capsys):
        code, out, err = run(capsys, "lift", "--p", "3", "--e", "1", "--n", "2",
                             "--r", "1", "--a", "4", "--t", "0")
        assert code == 1 and out == ""
        assert err.strip() == "error: t=0 must be a positive integer"

    def test_bad_t_is_rejected_before_the_big_field(self, capsys, monkeypatch):
        # GF(3^200) would be built first, at a cost growing with t
        built = []
        real = cli.field_ctx

        def field_ctx(p, e, n):
            built.append((p, e, n))
            return real(p, e, n)

        monkeypatch.setattr(cli, "field_ctx", field_ctx)
        code, _, err = run(capsys, "lift", "--p", "3", "--e", "1", "--n", "2",
                           "--r", "1", "--a", "4", "--t", "100")
        assert code == 1 and "coprime" in err
        assert built == [(3, 1, 2)]

    def test_degree_above_the_bound_is_one_error_line(self, capsys):
        # t = 999 asks for GF(3^1998), whose modulus search would not end
        code, out, err = run(capsys, "lift", "--p", "3", "--e", "1", "--n", "2",
                             "--r", "1", "--a", "4", "--t", "999")
        assert code == 1 and out == ""
        assert err == "error: degree m=1998 exceeds the bound 128\n"


class TestVerify:
    def test_clean_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "27",
                           "--primes", "2,3")
        assert code == 0
        got = lines(out)
        assert got["failures"] == "0"
        assert int(got["cases"]) > 0

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "16",
                           "--primes", "2", "--json")
        assert code == 0
        got = json.loads(out)
        assert set(got) == {"cases", "permutation_cases", "cofactor_checks",
                            "lift_checks", "failures", "timings", "counts"}
        assert got["failures"] == []
        assert got["cases"] > 0
        assert set(got["timings"]) == {"criterion", "cofactors", "inverse",
                                       "agreement", "lift"}
        assert all(v >= 0 for v in got["timings"].values())
        assert set(got["counts"]) == {"eliminations", "tables",
                                      "direct_evaluations"}
        # every lift up to order 16 has t = 1 and reuses its case's table,
        # and inverses are checked pointwise on it: one table per case
        assert got["counts"]["tables"] == got["cases"]

    def test_json_failures_are_records(self, capsys, monkeypatch):
        def broken(small, big):
            raise AssertionError("injected")

        monkeypatch.setattr(ffield, "_embedding_powers", broken)
        code, out, _ = run(capsys, "verify", "--max-order", "9",
                           "--primes", "3", "--json")
        assert code == 1
        got = json.loads(out)
        assert got["failures"]
        for failure in got["failures"]:
            assert set(failure) == {"p", "e", "n", "r", "a", "t", "check",
                                    "detail"}
            assert (failure["p"], failure["n"], failure["t"]) == (3, 2, 1)
            assert failure["check"] == "lift"
            assert "injected" in failure["detail"]

    def test_bad_prime_list(self, capsys):
        for primes in ("2,x", "4", "2,1"):
            code, _, err = run(capsys, "verify", "--max-order", "16",
                               "--primes", primes)
            assert code == 1
            assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("primes", ["x", "3,x"])
    def test_non_integer_prime_names_the_flag(self, capsys, primes):
        code, out, err = run(capsys, "verify", "--max-order", "9",
                             "--primes", primes)
        assert code == 1 and out == ""
        assert err == "error: --primes: 'x' is not an integer\n"

    def test_empty_prime_tokens_are_skipped(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "9",
                           "--primes", "3,,3")
        assert code == 0
        assert lines(out)["cases"] == "9"

    def test_cap_enforced(self, capsys):
        code, _, err = run(capsys, "verify", "--max-order", "2000000")
        assert code == 1 and "max_field_order" in err

    @pytest.mark.parametrize("argv", [
        ["--max-order", "729", "--primes", ","],
        ["--max-order", "3"],
    ])
    def test_empty_grid_is_an_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: nothing to verify")


class TestBench:
    def test_small_run_agrees(self, capsys):
        code, out, _ = run(capsys, "bench", "--p", "3", "--e", "1", "--n", "4",
                           "--r", "1", "--trials", "2")
        assert code == 0
        got = lines(out)
        assert got["agree"] == "true"
        assert int(got["closed_ns"]) > 0 and int(got["dickson_ns"]) > 0

    def test_closed_form_time_includes_its_norm(self, monkeypatch):
        # the sampler's criterion computes N(a) on its own spec; the timed
        # closed form gets a fresh spec and computes N(a) itself
        real = binomial.inverse_binomial
        cached = []

        def inverse(spec):
            cached.append("norm" in vars(spec))
            return real(spec)

        monkeypatch.setattr(binomial, "inverse_binomial", inverse)
        _, _, agree = cli.run_bench(3, 1, 4, 1, 3)
        assert agree
        assert cached == [False] * 3

    def test_zero_trials_is_empty(self, capsys):
        code, out, _ = run(capsys, "bench", "--p", "3", "--e", "1", "--n", "2",
                           "--trials", "0")
        assert code == 0
        assert out.strip() == ""

    def test_zero_trials_json_is_an_empty_object(self, capsys):
        code, out, _ = run(capsys, "bench", "--p", "3", "--e", "1", "--n", "2",
                           "--trials", "0", "--json")
        assert code == 0
        assert json.loads(out) == {}

    def test_run_bench_needs_a_positive_trial_count(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            cli.run_bench(3, 1, 2, 1, 0)

    def test_negative_trials(self, capsys):
        code, out, err = run(capsys, "bench", "--p", "3", "--e", "1", "--n", "2",
                             "--trials", "-1")
        assert code == 1 and out == ""
        assert err == "error: trials must be nonnegative\n"

    def test_zero_trials_still_checks_r(self, capsys):
        for trials in ("0", "1"):
            code, out, err = run(capsys, "bench", "--p", "3", "--e", "1",
                                 "--n", "4", "--r", "9", "--trials", trials)
            assert code == 1
            assert out == ""
            assert err.strip() == "error: r=9 outside [1, 3]"

    def test_sampling_failure_is_reported(self, capsys):
        # q = 2, gcd(r, n) = 1: only a = 0 permutes, and the fixed seed's
        # draws miss it within the draw budget
        code, _, err = run(capsys, "bench", "--p", "2", "--e", "1", "--n", "9",
                           "--r", "1", "--trials", "1")
        assert code == 1
        assert "no permutation binomial found in 200 draws" in err


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--p", "3"])
        assert info.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "linperm", "field", "--p", "3", "--e", "1",
             "--n", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["modulus: 10", "order: 9"]

    def test_other_errors_are_not_caught(self, monkeypatch):
        # only CliError and ValueError become an error: line
        def broken(spec):
            raise AssertionError("broken invariant")
        monkeypatch.setattr(binomial, "is_permutation_binomial", broken)
        with pytest.raises(AssertionError, match="broken invariant"):
            main(["check", "--p", "3", "--e", "1", "--n", "2", "--r", "1",
                  "--a", "4"])

    def test_output_is_deterministic(self, capsys):
        argv = ["lift", "--p", "3", "--e", "1", "--n", "2", "--r", "1",
                "--a", "4", "--t", "3"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

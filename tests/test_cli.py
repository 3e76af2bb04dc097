import json
import subprocess
import sys
from pathlib import Path

import pytest

import zal
from zal.cli import main


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "zal", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestTheoremB:
    def test_gamma2_json(self):
        code, out, _ = run_cli(["theoremB", "--group", "gamma2", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["b"] == "5/3"
        assert payload["results"]["c"] == "-8/3"
        assert payload["pass_fail"]["anchor"] is True
        assert payload["error_bounds"]["b"] == "exact-rational"

    def test_gamma0_23_exponents_without_lvalue(self):
        code, out, _ = run_cli(["theoremB", "--group", "gamma0", "--p", "23", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["numeric_prediction"] is None
        assert payload["results"]["c"] == "-32/3"  # -4*24/9

    def test_level11_bound_covers_the_l_value_error(self, capsys):
        from zal.modforms import newform_sym2
        assert main(["theoremB", "--group", "gamma0", "--p", "11", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        val = payload["results"]["numeric_prediction"]
        sym = newform_sym2(11)
        assert payload["error_bounds"]["numeric_prediction"] >= abs(val) * sym.est_error / sym.value

    @pytest.mark.parametrize("p", ["13", "17"])
    def test_off_hypothesis_level_is_a_usage_error(self, p, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theoremB", "--group", "gamma0", "--p", p])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() and f"gamma0({p})" in err

    @pytest.mark.parametrize("group", [["gamma2"], ["gamma0", "--p", "11"]])
    def test_ledger_assembled_once(self, group, monkeypatch, capsys):
        from zal import arakelov
        calls = []
        assemble = arakelov.assemble_log_zprime
        monkeypatch.setattr(arakelov, "assemble_log_zprime",
                            lambda spec: calls.append(spec) or assemble(spec))
        assert main(["theoremB", "--group", *group, "--json"]) == 0
        assert len(calls) == 1

    def test_determinism(self):
        _, out1, _ = run_cli(["theoremB", "--group", "gamma1", "--json"])
        _, out2, _ = run_cli(["theoremB", "--group", "gamma1", "--json"])
        assert out1 == out2


class TestSpectrum:
    def test_empty_spectrum_header_exit0(self):
        code, out, _ = run_cli(["spectrum", "--group", "gamma0", "--max-trace", "2"])
        assert code == 0
        assert out.startswith("trace,length,multiplicity\n")

    def test_csv_out(self, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run_cli(["spectrum", "--group", "full",
                                "--max-trace", "6", "--out", str(path)])
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "trace,length,multiplicity"
        assert len(lines) == 5  # traces 3..6
        assert len(lines[1].split(",")[1]) >= 17

    def test_determinism_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["spectrum", "--group", "gamma2", "--max-trace", "10", "--out", str(a)])
        run_cli(["spectrum", "--group", "gamma2", "--max-trace", "10", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("group", ["full", "gamma2"])
    def test_level_for_levelless_group_rejected(self, group):
        code, out, err = run_cli(["spectrum", "--group", group, "--p", "13",
                                  "--max-trace", "8"])
        assert code == 2 and out == ""
        assert f"{group} takes no level" in err and "usage" in err.lower()


class TestMisc:
    def test_unknown_flag_usage(self):
        code, _, err = run_cli(["spectrum", "--nope"])
        assert code != 0
        assert "usage" in err.lower()

    def test_cli_and_verify_import_load_no_numpy(self):
        # the checks that need numpy import modforms or degeneration themselves
        src = str(Path(zal.__file__).parents[1])
        code = ("import sys, zal.cli, zal.verify; "
                "sys.exit(any(m in sys.modules for m in ('numpy', 'scipy')))")
        assert subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                              timeout=60).returncode == 0

    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code != 0

    def test_specfun_check_inprocess(self, capsys):
        assert main(["specfun", "check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_specfun_check_passes_at_a_loose_tolerance(self, capsys):
        # the identity residual, about 6e-8 here, is held to 3 * tol
        assert main(["specfun", "check", "--tol", "1e-6"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_selberg_inprocess(self, capsys):
        assert main(["selberg", "--s", "2.0", "--max-trace", "30", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "heuristic" in payload["caveats"][0]
        assert payload["results"]["zeta"] > 0

    def test_degenerate_inprocess(self, capsys):
        assert main(["degenerate", "--g", "1", "--n", "2", "--t", "1e-4"]) == 0

    def test_constants_inprocess(self, capsys):
        assert main(["constants", "check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass_fail"]["taut_relations"] is True


class TestDomainErrors:
    @pytest.mark.parametrize("argv,message", [
        (["specfun", "check", "--tol", "0"], "abs_tol must be positive"),
        (["specfun", "check", "--tol", "-1"], "abs_tol must be positive"),
        (["specfun", "check", "--tol", "1e-20"], "--tol 1e-20: zeta'(-1) routes disagree"),
        (["specfun", "check", "--tol", "5e-324"], "--tol 5e-324: complex-step tolerance"),
        (["specfun", "check", "--tol", "1e-300"], "--tol 1e-300: Euler-Maclaurin cutoff"),
        (["specfun", "check", "--tol", "inf"], "abs_tol must be positive and finite"),
        (["selberg", "--s", "1.0", "--max-trace", "20"], "need s > 1"),
        (["selberg", "--s", "nan", "--max-trace", "20"], "need s > 1"),
        (["selberg", "--s", "inf", "--max-trace", "20"], "need s > 1"),
        (["degenerate", "--g", "0", "--n", "1", "--t", "2"], "unstable base type"),
        (["degenerate", "--g", "0", "--n", "20", "--t", "2"], "need 0 < |t| < 1"),
        (["degenerate", "--g", "0", "--n", "20", "--t", "1e-4"], "model capped at n <= 16"),
        (["lvalue", "--coeffs-out", "{tmp}/coeffs.csv", "--coeffs-n", "0"],
         "--coeffs-n 0: need at least one coefficient"),
    ], ids=["specfun-tol-0", "specfun-tol-negative", "specfun-tol-unreachable",
            "specfun-tol-underflows", "specfun-tol-beyond-work-limit", "specfun-tol-inf",
            "selberg-s-1", "selberg-s-nan", "selberg-s-inf",
            "degenerate-unstable", "degenerate-t-2", "degenerate-n-20",
            "lvalue-coeffs-n-0"])
    def test_is_a_usage_error(self, argv, message, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() and message in err and "Traceback" not in err
        assert not (tmp_path / "coeffs.csv").exists()

    def test_bare_value_errors_propagate(self, monkeypatch):
        from zal import degeneration

        def broken(*args, **kwargs):
            raise ValueError("matrix does not look like a star-graph operator")

        monkeypatch.setattr(degeneration, "degeneration_consistency", broken)
        with pytest.raises(ValueError, match="star-graph operator"):
            main(["degenerate", "--g", "1", "--n", "2", "--t", "1e-4"])


class TestLvalue:
    def test_tolerance_below_every_hypothesis_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lvalue", "--tol", "1e-8"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() and "--tol 1e-08" in err

    def test_tolerance_above_several_hypotheses_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lvalue", "--tol", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() and "found 10 hypotheses below 1.0" in err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_tolerance_outside_its_domain_is_refused_before_the_search(self, tol, capsys):
        import time

        import zal.modforms  # noqa: F401  (the import is not what is timed)
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["lvalue", "--tol", tol])
        assert time.perf_counter() - t0 < 0.2
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() and "need 0 < tol < inf" in err

    def test_other_arithmetic_errors_propagate(self, monkeypatch):
        from zal import modforms

        def fold_failure(*args, **kwargs):
            raise ArithmeticError("fold identity failed its spot check")

        monkeypatch.setattr(modforms, "sym2_L_value", fold_failure)
        with pytest.raises(ArithmeticError, match="fold identity"):
            main(["lvalue"])

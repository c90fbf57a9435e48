import argparse
import json
import re

import numpy as np
import pytest

from helpers import double_integrator_mpc
from soclqc import cli, verify
from soclqc.cli import BENCH_HEADER, main
from soclqc.lqc import AmbiguitySpec, build_compact_cost, scalar_benchmark_spec
from soclqc.problemfile import ProblemFileError, save_problem
from soclqc.slemma import check_psd


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def lqc_file(tmp_path):
    path = tmp_path / "lqc.json"
    save_problem(path, scalar_benchmark_spec(1), AmbiguitySpec([[1.0]], [0.0]))
    return str(path)


@pytest.fixture
def mpc_file(tmp_path):
    path = tmp_path / "mpc.json"
    save_problem(path, double_integrator_mpc())
    return str(path)


def test_parser_built_once_and_commands_looked_up_per_call(monkeypatch):
    # a wrapper installed on the module after the first call (the benchmark
    # tracer's) must still see the command, without a new parser
    calls = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(("verify", args.result)) or 0)
    assert main(["verify", "p.json", "r.json"]) == 0

    def no_new_parser(*args, **kwargs):
        raise AssertionError("parser built again")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_new_parser)
    monkeypatch.setattr(cli, "cmd_solve", lambda args: calls.append(("solve", args.x0)) or 0)
    assert main(["solve", "p.json", "--mode", "robust", "--x0", "-1,2"]) == 0
    assert calls == [("verify", "r.json"), ("solve", "-1,2")]


class TestSolve:
    def test_robust_benchmark(self, lqc_file, tmp_path, capsys):
        out = str(tmp_path / "res.json")
        code = main(["solve", lqc_file, "--mode", "robust", "--x0", "-1",
                     "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Optimal" in printed
        result = read_json(out)
        assert abs(result["objective"] - 0.601) <= 1e-6
        assert abs(result["u"][0] - 0.4) <= 1e-6

    def test_regret_mode_nonnegative(self, lqc_file, capsys):
        code = main(["solve", lqc_file, "--mode", "regret", "--x0", "-1"])
        assert code == 0
        out = capsys.readouterr().out
        value = float([l for l in out.splitlines() if l.startswith("objective")][0].split()[1])
        assert value >= -1e-8

    def test_dr_modes(self, lqc_file, capsys):
        assert main(["solve", lqc_file, "--mode", "dr", "--x0", "-1"]) == 0
        assert main(["solve", lqc_file, "--mode", "dr-regret", "--x0", "-1"]) == 0

    def test_mpc_mode(self, mpc_file, tmp_path, capsys):
        out = str(tmp_path / "res.json")
        code = main(["solve", mpc_file, "--mode", "mpc", "--x0", "2,0.5",
                     "--out", out])
        assert code == 0
        result = read_json(out)
        assert result["status"] == "Optimal"
        assert len(result["states"]) == 9

    def test_negative_first_entry_space_separated(self, mpc_file, tmp_path, capsys):
        out = str(tmp_path / "res.json")
        code = main(["solve", mpc_file, "--mode", "mpc", "--x0", "-1,0.5",
                     "--out", out])
        assert code == 0
        assert read_json(out)["x0"] == [-1.0, 0.5]

    def test_non_optimal_prints_reason(self, lqc_file, capsys):
        code = main(["solve", lqc_file, "--mode", "robust", "--x0", "-1",
                     "--max-iters", "1"])
        assert code == 1
        assert "reason      iteration limit" in capsys.readouterr().out

    def test_malformed_dims_exit_two(self, tmp_path, capsys):
        tree = json.loads(open_render())
        tree["B"][0]["data"] = [1.0, 2.0, 3.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tree))
        code = main(["solve", str(bad), "--mode", "robust", "--x0", "-1"])
        assert code == 2
        assert "B[0]" in capsys.readouterr().err

    def test_empty_state_dimension_exit_two(self, tmp_path, capsys):
        # a file whose matrices have no state rows once ended in a traceback
        tree = json.loads(open_render())
        empty = {"rows": 0, "cols": 0, "data": []}
        tree.update(A=[empty], Q=[empty], q=[[]], B=[{"rows": 0, "cols": 1, "data": []}],
                    C=[{"rows": 0, "cols": 1, "data": []}])
        bad = tmp_path / "no-state.json"
        bad.write_text(json.dumps(tree))
        assert main(["solve", str(bad), "--mode", "robust", "--x0", ""]) == 2
        assert "state dimension n_x" in capsys.readouterr().err

    def test_mode_kind_mismatch_exit_two(self, mpc_file, capsys):
        assert main(["solve", mpc_file, "--mode", "robust", "--x0", "0,0"]) == 2

    def test_dr_mode_without_ambiguity_exit_two(self, tmp_path, capsys):
        path = tmp_path / "no-amb.json"
        save_problem(path, scalar_benchmark_spec(1))
        for mode in ("dr", "dr-regret"):
            assert main(["solve", str(path), "--mode", mode, "--x0", "-1"]) == 2
            assert f"mode {mode!r}" in capsys.readouterr().err

    def test_bad_x0_exit_two(self, lqc_file, capsys):
        assert main(["solve", lqc_file, "--mode", "robust", "--x0", "1,2"]) == 2

    def test_out_in_missing_directory_exit_two(self, lqc_file, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert main(["solve", lqc_file, "--mode", "robust", "--x0", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "r.json" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("args, named", [
        (["--x0", "nan"], "--x0"),
        (["--x0", "inf"], "--x0"),
        (["--x0", "-inf"], "--x0"),
        (["--x0", "1,a"], "--x0: expected comma-separated numbers"),
        (["--x0", "0.5", "--max-iters", "0"], "--max-iters"),
        (["--x0", "0.5", "--max-iters", "-3"], "--max-iters"),
    ], ids=["x0-nan", "x0-inf", "x0-minus-inf", "x0-not-a-number", "max-iters-0",
            "max-iters-negative"])
    def test_bad_numeric_argument_exit_two(self, args, named, tmp_path, capsys, monkeypatch):
        path = tmp_path / "lqc3.json"
        save_problem(path, scalar_benchmark_spec(3))
        monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solver was called"))
        assert main(["solve", str(path), "--mode", "robust", *args]) == 2
        assert named in capsys.readouterr().err


def open_render():
    from soclqc.problemfile import render_lqc

    return render_lqc(scalar_benchmark_spec(1))


class TestVerify:
    def make_result(self, lqc_file, tmp_path, mode="robust"):
        out = str(tmp_path / f"res-{mode}.json")
        assert main(["solve", lqc_file, "--mode", mode, "--x0", "-1",
                     "--out", out]) == 0
        return out

    def test_valid_result_passes(self, lqc_file, tmp_path, capsys):
        out = self.make_result(lqc_file, tmp_path)
        assert main(["verify", lqc_file, out]) == 0
        printed = capsys.readouterr().out
        assert "verification passed" in printed
        assert "FAIL" not in printed

    def test_all_lqc_modes_verify(self, lqc_file, tmp_path, capsys):
        for mode in ("regret", "dr", "dr-regret"):
            out = self.make_result(lqc_file, tmp_path, mode)
            assert main(["verify", lqc_file, out]) == 0

    def test_psd_lines_report_the_scaled_smallest_eigenvalue(self, lqc_file, tmp_path, capsys):
        out = self.make_result(lqc_file, tmp_path)
        capsys.readouterr()
        assert main(["verify", lqc_file, out]) == 0
        psd = [l for l in capsys.readouterr().out.splitlines() if "PSD" in l]
        assert len(psd) == 2 and all("(tol 1.0e-06)" in l for l in psd)
        # residual -lambda_min / (1 + ||M||_F); the verdict is check_psd's
        for lam_min in (-1e-3, -2.6e-6, -2.4e-6, 0.0, 1e-3):
            M = np.diag([1.0, 2.0, lam_min])
            check = verify._psd("m", M)
            assert check.residual == -lam_min / (1.0 + np.linalg.norm(M))
            assert check.ok == check_psd(M, 1e-6) == (check.residual <= check.tol)

    def test_mpc_result_verifies(self, mpc_file, tmp_path, capsys):
        out = str(tmp_path / "res.json")
        assert main(["solve", mpc_file, "--mode", "mpc", "--x0", "2,0.5",
                     "--out", out]) == 0
        assert main(["verify", mpc_file, out]) == 0

    def test_input_violation_fails(self, lqc_file, tmp_path, capsys):
        out = self.make_result(lqc_file, tmp_path)
        res = read_json(out)
        res["u"] = [0.45]
        bad = tmp_path / "bad_u.json"
        bad.write_text(json.dumps(res))
        assert main(["verify", lqc_file, str(bad)]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_negated_multiplier_fails(self, lqc_file, tmp_path, capsys):
        out = self.make_result(lqc_file, tmp_path)
        res = read_json(out)
        res["lam"] = -res["lam"]
        bad = tmp_path / "bad_lam.json"
        bad.write_text(json.dumps(res))
        assert main(["verify", lqc_file, str(bad)]) == 3

    @pytest.mark.parametrize("edit, failing", [
        (lambda res: {**res, "radius": -res["radius"]}, "terminal radius nonnegative"),
        (lambda res: {**res, "objective": res["objective"] - 5.0}, "objective consistency"),
    ], ids=["negated-radius", "lowered-objective"])
    def test_mpc_radius_sign_and_objective_are_checked(self, edit, failing, mpc_file,
                                                       tmp_path, capsys):
        # every other MPC check is even in the radius or ignores the objective
        out = tmp_path / "res.json"
        assert main(["solve", mpc_file, "--mode", "mpc", "--x0", "2,0.5",
                     "--out", str(out)]) == 0
        out.write_text(json.dumps(edit(json.loads(out.read_text()))))
        capsys.readouterr()
        assert main(["verify", mpc_file, str(out)]) == 3
        failed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[FAIL]")]
        assert len(failed) == 1 and failing in failed[0]

    @pytest.mark.parametrize("mode, malform, named", [
        ("robust", lambda res: [], "JSON object"),
        ("robust", lambda res: 3, "JSON object"),
        ("robust", lambda res: {**res, "lam": [1, 2]}, "'lam'"),
        ("mpc", lambda res: {**res, "radius": [1, 2]}, "'radius'"),
        ("robust", lambda res: {**res, "x0": None}, "'x0'"),
        ("mpc", lambda res: {**res, "states": res["states"][:2]}, "'states'"),
        # strings and booleans are not numbers, as in a problem file
        ("robust", lambda res: {**res, "lam": str(res["lam"])}, "'lam'"),
        ("robust", lambda res: {**res, "u": [str(v) for v in res["u"]]}, "'u'"),
        ("robust", lambda res: {**res, "lam": True}, "'lam'"),
        ("robust", lambda res: {**res, "x0": [True]}, "'x0'"),
    ], ids=["list", "number", "lam-vector", "radius-vector", "x0-null", "states-two-rows",
            "lam-string", "u-strings", "lam-true", "x0-true"])
    def test_malformed_result_exits_two(self, mode, malform, named, lqc_file, mpc_file,
                                        tmp_path, capsys):
        problem, x0 = (mpc_file, "2,0.5") if mode == "mpc" else (lqc_file, "-1")
        out = tmp_path / "res.json"
        assert main(["solve", problem, "--mode", mode, "--x0", x0, "--out", str(out)]) == 0
        out.write_text(json.dumps(malform(json.loads(out.read_text()))))
        capsys.readouterr()
        assert main(["verify", problem, str(out)]) == 2
        assert named in capsys.readouterr().err


class TestBench:
    def test_csv_schema_and_sizes(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--N", "2,4,6", "--reps", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == BENCH_HEADER
        assert len(lines) == 4
        for line, n in zip(lines[1:], (2, 4, 6)):
            cells = line.split(",")
            assert int(cells[0]) == n
            assert int(cells[5]) == n          # one hyperbolic block per dim
            assert int(cells[6]) == 2 * n + 1  # certificate matrix size
            assert np.isfinite(float(cells[4]))

    def test_non_time_columns_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["bench", "--N", "3,5", "--reps", "1", "--out", str(a)]) == 0
        assert main(["bench", "--N", "3,5", "--reps", "3", "--out", str(b)]) == 0

        def strip_times(path):
            rows = []
            for line in path.read_text().strip().splitlines()[1:]:
                cells = line.split(",")
                rows.append((cells[0], cells[3], cells[4], cells[5], cells[6]))
            return rows

        assert strip_times(a) == strip_times(b)

    def test_out_in_missing_directory_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--N", "2", "--reps", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bench.csv" in err

    def test_bad_horizon_list(self, capsys):
        assert main(["bench", "--N", "0,5", "--reps", "1"]) == 2
        assert main(["bench", "--N", "abc", "--reps", "1"]) == 2
        assert main(["bench", "--N", "5", "--reps", "0"]) == 2


@pytest.mark.parametrize("call, message", [
    (lambda s: verify.worst_case(build_compact_cost(s, [0.5]), "minimax", np.zeros(3)),
     "unknown worst-case kernel 'minimax'"),
    (lambda s: verify.verify_result(s, None, {"mode": "robust"}), "result file missing field 'x0'"),
    (lambda s: verify.verify_result(s, None, {"mode": 3}), "result field 'mode': expected a string"),
], ids=["kernel", "missing-field", "mode-not-a-string"])
def test_verify_rejects_malformed_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(scalar_benchmark_spec(3))


@pytest.mark.parametrize("mode", ["robust", "regret", "dr", "dr-regret", "mpc"])
def test_verify_rejects_a_spec_of_the_other_kind(mode):
    # the kind comes from the spec's type; an MpcSpec under an LQC mode once
    # failed with an AttributeError inside the LQC checks
    need = "mpc" if mode == "mpc" else "lqc"
    spec = scalar_benchmark_spec(3) if mode == "mpc" else double_integrator_mpc()
    with pytest.raises(ProblemFileError, match=f"^mode '{mode}' requires an {need} problem file$"):
        verify.verify_result(spec, None, {"mode": mode, "x0": [5.0, 0.5], "u": [0.0]})

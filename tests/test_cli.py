import functools
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from l1svm import checks, cli, sweeps
from l1svm.model import TrainingSet, load_classifier, load_training_set, save_training_set


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN = Path(__file__).parent / "golden"


def gen_args(out, d=12, s=3, m=8, r=1.5, seed=4):
    return ["generate", "--d", str(d), "--s", str(s), "--m", str(m),
            "--r", str(r), "--seed", str(seed), "--out", str(out)]


class TestGenerate:
    def test_writes_training_csv(self, tmp_path, capsys):
        out = tmp_path / "train.csv"
        code, text, _ = run(gen_args(out), capsys)
        assert code == 0
        assert "wrote 8 x 12 training set" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "i,y," + ",".join(f"x_{j}" for j in range(1, 13))
        assert len(lines) == 9
        T = load_training_set(out)
        assert (T.m, T.d) == (8, 12)
        assert set(np.unique(T.y)) <= {-1.0, 1.0}

    def test_deterministic_for_seed(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(gen_args(p1), capsys)
        run(gen_args(p2), capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_classifier_out(self, tmp_path, capsys):
        out = tmp_path / "train.csv"
        cls = tmp_path / "cls.csv"
        code, _, _ = run(gen_args(out) + ["--classifier-out", str(cls)], capsys)
        assert code == 0
        a = load_classifier(cls, 12)
        assert np.count_nonzero(a) == 3
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_matches_byte_goldens(self, tmp_path, capsys):
        # CRLF line ends, %.17g values and both headers, as recorded in tests/golden/
        out, cls = tmp_path / "train.csv", tmp_path / "cls.csv"
        code, _, _ = run(gen_args(out, d=6, s=2, m=4, r=1.5, seed=3)
                         + ["--classifier-out", str(cls)], capsys)
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "train_tiny.csv").read_bytes()
        assert cls.read_bytes() == (GOLDEN / "classifier_tiny.csv").read_bytes()

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        code, _, err = run(gen_args(tmp_path / "x.csv", s=0), capsys)
        assert code == 2
        assert err.startswith("error:")


class TestSolve:
    @pytest.fixture()
    def data(self, tmp_path, capsys):
        path = tmp_path / "train.csv"
        run(gen_args(path, d=10, s=2, m=12, r=2.0), capsys)
        return path

    @pytest.mark.parametrize("method", ["l1", "l1l2", "onebit"])
    def test_solves_and_reports(self, data, tmp_path, capsys, method):
        out = tmp_path / "w.csv"
        code, text, _ = run(["solve", "--method", method, "--data", str(data),
                             "--R", "1.4", "--out", str(out)], capsys)
        assert code == 0
        assert "objective   :" in text
        assert "converged   :" in text
        w = load_classifier(out, 10)
        assert np.abs(w).sum() <= 1.4 + 1e-8

    def test_radius_below_one_exit_2(self, data, capsys):
        code, _, err = run(["solve", "--method", "l1", "--data", str(data),
                            "--R", "0.5"], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("R", ["nan", "inf", "0.5"])
    @pytest.mark.parametrize("method", ["l1", "l1l2", "onebit"])
    def test_radius_not_finite_or_below_one_exit_2(self, data, capsys, method, R):
        code, out, err = run(["solve", "--method", method, "--data", str(data), "--R", R], capsys)
        assert (code, out, err) == (2, "", f"error: R must be >= 1 and finite, got {R}\n")

    def test_unknown_method_exit_2(self, data, capsys):
        code, _, _ = run(["solve", "--method", "ridge", "--data", str(data),
                          "--R", "1.4"], capsys)
        assert code == 2

    def test_onebit_rejects_zero_max_iters(self, data, capsys):
        # every method goes through one table call, so the config is validated for all
        code, _, err = run(["solve", "--method", "onebit", "--data", str(data),
                            "--R", "1.4", "--max-iters", "0"], capsys)
        assert (code, err) == (2, "error: max_iters must be >= 1\n")

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(["solve", "--method", "l1",
                            "--data", str(tmp_path / "none.csv"), "--R", "1.4"], capsys)
        assert code == 2
        assert "error:" in err


    @staticmethod
    def huge_data(tmp_path, scale):
        rng = np.random.default_rng(7)
        X = scale * rng.standard_normal((20, 10))
        y = np.where(rng.uniform(size=20) < 0.5, -1.0, 1.0)
        path = tmp_path / "huge.csv"
        save_training_set(TrainingSet(X=X, y=y), path)
        return path

    @pytest.mark.parametrize("method", ["l1", "l1l2"])
    def test_overflowing_step_exit_1(self, tmp_path, capsys, method):
        path = self.huge_data(tmp_path, 1e260)
        code, _, err = run(["solve", "--method", method, "--data", str(path),
                            "--R", "1e100"], capsys)
        assert code == 1
        assert err == ("runtime error: subgradient step overflowed: the data's scale "
                       "times the l1 radius R exceeds floating point range\n")

    @pytest.mark.parametrize("y_head, code, err", [
        ((1.0,), 0, ""),
        ((1.0, 1.0, -1.0), 1, "runtime error: hinge objective overflowed: the data's scale "
                              "times the l1 radius R exceeds floating point range\n"),
    ])
    def test_overflowing_margins_print_no_warning(self, tmp_path, capsys, y_head, code, err):
        # x_{i,2} = 1, and x_{i,1} = 1e300 on the rows y_head labels; y = +1, -1, ... on the
        # rest.  A huge row labeled -1 makes its margin, and the objective, +inf
        X = np.zeros((1000, 3))
        X[:, 1] = 1.0
        X[:len(y_head), 0] = 1e300
        y = np.where(np.arange(1000) % 2 == 0, 1.0, -1.0)
        y[:len(y_head)] = y_head
        path = tmp_path / "huge.csv"
        save_training_set(TrainingSet(X=X, y=y), path)
        got, _, got_err = run(["solve", "--method", "l1", "--data", str(path), "--R", "1e10"],
                              capsys)
        assert (got, got_err) == (code, err)

    @pytest.mark.parametrize("method, err", [
        ("l1", "subgradient step overflowed: the data's scale times the l1 radius R"),
        ("l1l2", "subgradient step overflowed: the data's scale times the l1 radius R"),
        ("onebit", "labeled sample sum overflowed: the data's scale"),
    ], ids=["l1", "l1l2", "onebit"])
    def test_overflowing_sum_exit_1(self, tmp_path, capsys, method, err):
        # x_{1,1} = x_{2,1} = 1e308 on two rows labeled +1: sum_i y_i x_i overflows
        X = np.zeros((4, 3))
        X[:, 1] = 1.0
        X[:2, 0] = 1e308
        path = tmp_path / "huge.csv"
        save_training_set(TrainingSet(X=X, y=np.array([1.0, 1.0, -1.0, 1.0])), path)
        code, _, text = run(["solve", "--method", method, "--data", str(path), "--R", "2"],
                            capsys)
        assert code == 1
        assert text == f"runtime error: {err} exceeds floating point range\n"

    @pytest.mark.parametrize("method", ["l1", "l1l2", "onebit"])
    def test_huge_scale_data_solves(self, tmp_path, capsys, method):
        path = self.huge_data(tmp_path, 1e200)
        out = tmp_path / "w.csv"
        code, _, err = run(["solve", "--method", method, "--data", str(path),
                            "--R", "1", "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        w = load_classifier(out, 10)
        assert np.abs(w).sum() <= 1.0 + 1e-12
        if method == "onebit":
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("text", ["", "i,y,x_1,x_2\n"])
    def test_empty_training_csv_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        code, _, err = run(["solve", "--method", "l1", "--data", str(path), "--R", "1.4"], capsys)
        assert code == 2
        assert err.strip() == "error: empty training CSV"

    @pytest.mark.parametrize("method", ["l1", "l1l2", "onebit"])
    def test_no_coordinate_columns_exit_2(self, tmp_path, capsys, method):
        path = tmp_path / "no_x.csv"
        path.write_text("i,y\n1,1\n2,-1\n")
        code, out, err = run(["solve", "--method", method, "--data", str(path), "--R", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: training set has no coordinates: need d >= 1 columns x_1, ..., x_d\n"

    @pytest.mark.parametrize("text,message", [
        ("i,y,x_1,x_2\n1,1,0.5,0.2\n2,-1,nan,0.1\n",
         "error: non-finite value nan in X at row 2, column x_1"),
        ("i,y,x_1,x_2\n1,1,0.5,-inf\n",
         "error: non-finite value -inf in X at row 1, column x_2"),
        ("i,y,x_1,x_2\n1,1,0.5,0.2\n2,-1,0.1\n",
         "error: training CSV data row 2 has 3 columns, expected 4"),
    ], ids=["nan", "inf", "ragged"])
    def test_malformed_training_csv_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, _, err = run(["solve", "--method", "l1", "--data", str(path), "--R", "1.4"], capsys)
        assert code == 2
        assert err.strip() == message


class TestSweepCommand:
    def test_tiny_r_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, text, _ = run(["sweep", "--kind", "r", "--trials", "2", "--d", "30",
                             "--grid", "0.5:1:0.5", "--max-iters", "40",
                             "--out", str(out)], capsys)
        assert code == 0
        assert "wrote 8 sweep rows" in text  # 2 grid x 2 m x 2 methods
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sweep_value,method,")
        assert len(lines) == 9

    def test_method_aliases_dedup(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, text, _ = run(["sweep", "--kind", "r", "--trials", "1", "--d", "30",
                             "--grid", "0.5", "--max-iters", "20",
                             "--methods", "l1", "l1_svm", "--out", str(out)], capsys)
        assert code == 0
        assert "wrote 2 sweep rows" in text  # 1 grid x 2 m x 1 method after dedup

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_bounds_overlay_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        bounds = tmp_path / "bounds.csv"
        code, text, _ = run(["sweep", "--kind", "m", "--trials", "1", "--d", "25",
                             "--grid", "4,8", "--max-iters", "20",
                             "--methods", "onebit",
                             "--out", str(out), "--bounds-out", str(bounds)], capsys)
        assert code == 0
        blines = bounds.read_text().splitlines()
        assert blines[0].startswith("d,s,R,r,m,eps,u,")
        # 2 sweep points x default 3 eps values
        assert len(blines) == 7

    @pytest.mark.parametrize("kind, flag, value, option", [
        ("m", "--r", "0.5", "r"), ("r", "--r", "0.5", "r"), ("d", "--d", "100", "d")])
    def test_option_unused_by_kind_exit_2(self, tmp_path, capsys, kind, flag, value, option):
        out = tmp_path / "s.csv"
        code, _, err = run(["sweep", "--kind", kind, "--trials", "1", "--grid", "40",
                            flag, value, "--out", str(out)], capsys)
        assert code == 2
        assert f"sweep kind '{kind}' does not use option(s) {option}" in err
        assert not out.exists()

    def test_zero_trials_exit_2(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--kind", "r", "--trials", "0", "--d", "30",
                            "--out", str(tmp_path / "s.csv")], capsys)
        assert (code, err) == (2, "error: trials must be a whole number >= 1, got 0\n")

    def test_bad_grid_exit_2(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--kind", "r", "--grid", "1:0.5:-0.1",
                            "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv, err", [
        (["--kind", "m", "--grid", "inf"], "grid value must be positive and finite, got inf"),
        (["--kind", "d", "--grid", "inf"], "grid value must be positive and finite, got inf"),
        (["--kind", "r", "--grid", "inf", "--d", "30"],
         "grid value must be positive and finite, got inf"),
        (["--kind", "r", "--grid", "0:inf:1", "--d", "30"],
         "grid value must be positive and finite, got 0.0"),
        (["--kind", "d", "--grid", "100", "--r", "inf"], "r must be positive and finite, got inf"),
        (["--kind", "r", "--grid", "1e308", "--d", "30"],
         "r must be positive, finite and small enough for r * x to be finite, got 1e+308"),
    ])
    def test_non_finite_or_overflowing_scale_exit_2(self, tmp_path, capfd, argv, err):
        # capfd: a warning printed by a sweep worker process would reach fd 2, not sys.stderr
        out = tmp_path / "s.csv"
        code, _, text = run(["sweep", *argv, "--trials", "1", "--out", str(out)], capfd)
        assert code == 2
        assert text == f"error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid, err", [
        ("0.3", "grid value 0.3 rounds to m = 0, below 1"),
        ("1.2,1.4", "grid values 1.2 and 1.4 both round to m = 1"),
    ], ids=["below-one", "collapsed"])
    def test_grid_value_rounding_away_exit_2(self, tmp_path, capsys, grid, err):
        out = tmp_path / "s.csv"
        code, _, text = run(["sweep", "--kind", "m", "--grid", grid, "--out", str(out)], capsys)
        assert code == 2
        assert text == f"error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1:2", "1:2:0.5:1"])
    def test_range_without_three_parts_exit_2(self, tmp_path, capsys, grid):
        out = tmp_path / "s.csv"
        code, _, err = run(["sweep", "--kind", "r", "--grid", grid, "--out", str(out)], capsys)
        assert code == 2
        assert err == f"error: grid range '{grid}' must be a:b:step\n"
        assert not out.exists()


class TestTheoryCommand:
    ARGS = ["theory", "--d", "1000", "--r", "25", "--R", "2.2360679774997896",
            "--m", "400", "--eps", "0.1", "--u", "0.5"]

    def test_prints_labeled_bounds(self, capsys):
        code, text, _ = run(self.ARGS, capsys)
        assert code == 0
        for label in ("deviation bound (total)", "deviation failure probability",
                      "ratio error bound", "error bound failure weight",
                      "squared error bound", "sample size required"):
            assert label in text
        assert "d = 1000" in text

    def test_csv_out(self, tmp_path, capsys):
        path = tmp_path / "bounds.csv"
        code, _, _ = run(self.ARGS + ["--out", str(path)], capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == ("d,s,R,r,m,eps,u,thm1_total,thm1_fail_prob,"
                            "thm3_bound,thm3_prob,thm8_bound,m_required")
        assert len(lines) == 2

    def test_invalid_dimension_exit_2(self, capsys):
        code, _, _ = run(["theory", "--d", "1", "--r", "25", "--R", "2.0",
                          "--m", "400"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--r", "--R"])
    def test_non_finite_scale_or_radius_exit_2(self, capsys, flag):
        args = {"--d": "1000", "--r": "1", "--R": "2", "--m": "100", flag: "inf"}
        code, _, err = run(["theory", *(x for kv in args.items() for x in kv)], capsys)
        assert code == 2
        assert err == f"error: {flag[2:]} must be positive and finite, got inf\n"

    def test_non_finite_sharpening_exit_2(self, capsys):
        code, _, err = run(["theory", "--d", "1000", "--r", "30", "--R", "2", "--m", "100",
                            "--t", "inf"], capsys)
        assert code == 2
        assert err == "error: t must be nonnegative and finite, got inf\n"

    @pytest.mark.parametrize("args", [["--s", "0"], ["--s", "-3"], ["--s", "5000", "--d", "1000"]],
                             ids=["zero", "negative", "above-d"])
    def test_sparsity_outside_dimension_exit_2(self, capsys, args):
        given = dict(zip(args[::2], args[1::2]))
        code, text, err = run(self.ARGS + args, capsys)
        assert code == 2
        assert text == ""
        assert err == f"error: sparsity s must be in 1..d = 1000, got {given['--s']}\n"

    def test_hypothesis_warnings_one_line_each(self, capsys):
        code, text, err = run(["theory", "--d", "1000", "--r", "0.5", "--R", "2",
                               "--m", "400"], capsys)
        assert code == 0
        assert "sample size required" in text
        assert err == (
            "warning: scale r is below the validity threshold 2 sqrt(2 pi)/(1 - 2 eps)\n"
            "warning: scale r is below the validity threshold sqrt(2 pi)/(0.57 - pi eps)\n")


class TestCheckCommand:
    def test_constants_suite_passes(self, capsys):
        code, text, _ = run(["check", "--suite", "constants"], capsys)
        assert code == 0
        assert "ok  " in text
        assert "FAIL" not in text

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run(["check", "--suite", "nope"], capsys)
        assert code == 2

    def test_failing_suite_exit_2(self, capsys, monkeypatch):
        from l1svm.checks import CheckResult
        monkeypatch.setattr(cli, "run_suite",
                            lambda name: [CheckResult("x", False, "forced")])
        code, text, _ = run(["check", "--suite", "constants"], capsys)
        assert code == 2
        assert "FAIL x" in text

    @pytest.mark.parametrize("n,message", [
        (999, "need at least 1000 samples"),
        (1500.5, "n_samples must be a whole number, got 1500.5"),
    ], ids=["below_floor", "fractional"])
    def test_sample_count_error_exit_2(self, capsys, monkeypatch, n, message):
        # the lemma7 estimates run on threads of this process: the pool stays unused
        def refuse(workers):
            raise AssertionError("lemma7 started the process pool")
        monkeypatch.setattr(sweeps, "_executor", refuse)
        monkeypatch.setattr(checks, "_workers", lambda: 2)
        monkeypatch.setitem(checks.SUITES, "lemma7",
                            functools.partial(checks.lemma7_suite, n_tuples=2, n_samples=n))
        children = sorted(p.pid for p in multiprocessing.active_children())
        code, text, err = run(["check", "--suite", "lemma7"], capsys)
        assert (code, text, err) == (2, "", f"error: {message}\n")
        assert sorted(p.pid for p in multiprocessing.active_children()) == children

    def test_runtime_failure_exit_1(self, capsys, monkeypatch):
        def boom(name):
            raise RuntimeError("backend gone")
        monkeypatch.setattr(cli, "run_suite", boom)
        code, _, err = run(["check", "--suite", "constants"], capsys)
        assert code == 1
        assert "runtime error:" in err


class TestParseGrid:
    def test_range_form(self):
        assert cli._parse_grid("0.05:0.2:0.05", "r") == (0.05, 0.1, 0.15, 0.2)

    def test_range_covers_endpoint_despite_float_drift(self):
        grid = cli._parse_grid("0.05:1.5:0.05", "r")
        assert len(grid) == 30
        assert grid[-1] == 1.5

    def test_integer_kinds_round(self):
        assert cli._parse_grid("50:200:50", "m") == (50, 100, 150, 200)
        assert cli._parse_grid("100,300", "d") == (100, 300)

    def test_comma_form_floats(self):
        assert cli._parse_grid("0.3,0.7", "r") == (0.3, 0.7)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            cli._parse_grid("1:2:0", "r")

    @pytest.mark.parametrize("kind", ["r", "m"])
    def test_step_that_does_not_advance_exits_2(self, capsys, tmp_path, kind):
        # the step vanishes next to 1.0, so an unchecked range appends 1.0 until memory runs out
        def stuck(signum, frame):
            raise AssertionError("the grid range did not return")
        previous = signal.signal(signal.SIGALRM, stuck)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            code, text, err = run(["sweep", "--kind", kind, "--grid", "1:2:1e-17",
                                   "--out", str(tmp_path / "rows.csv")], capsys)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert (code, text, err) == (
            2, "", "error: grid step 1e-17 does not advance the grid past 1.0\n")
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("text", ["inf", "1,nan", "1:inf:1", "1:2:inf", "-inf:2:1"])
    def test_non_finite_rejected_before_expansion(self, text):
        with pytest.raises(ValueError, match="^grid value must be positive and finite, got "):
            cli._parse_grid(text, "m")


class TestTopLevel:
    def test_no_command_exit_2(self, capsys):
        assert cli.main([]) == 2

    def test_help_exit_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "sparse classifier recovery" in capsys.readouterr().out

    def test_entry_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["l1svm", "--help"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0


def test_import_leaves_out_scipy():
    # nor the process pool's modules, which only a sweep imports
    code = ("import sys, l1svm, l1svm.cli; print('scipy.integrate' in sys.modules, [k for k in "
            "sys.modules if k.startswith(('scipy', 'multiprocessing', 'concurrent'))])")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout == "False []\n"


def test_solve_and_projections_check_leave_out_scipy(tmp_path, capsys):
    # each solve method and the projections suite, in one fresh process, load only numpy
    data = tmp_path / "train.csv"
    assert run(gen_args(data, d=10, s=2, m=12, r=2.0), capsys)[0] == 0
    code = ("import sys\nfrom l1svm import cli\n"
            "for method in ('l1', 'l1l2', 'onebit'):\n"
            f"    assert cli.main(['solve', '--method', method, '--data', {str(data)!r}, "
            "'--R', '1.4']) == 0\n"
            "assert cli.main(['check', '--suite', 'projections']) == 0\n"
            "print([k for k in sys.modules if k.startswith('scipy')])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.splitlines()[-1] == "[]"

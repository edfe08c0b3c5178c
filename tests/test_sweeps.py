import csv
import dataclasses
import math
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from l1svm import sweeps
from l1svm.model import RngSeed, generate_training_set
from l1svm.solvers import SolverConfig
from l1svm.sweeps import (
    SWEEP_HEADER,
    SweepSpec,
    benchmark_classifier,
    default_d_sweep_spec,
    default_m_sweep_spec,
    default_r_sweep_spec,
    emit_bound_overlay,
    enumerate_sweep_points,
    run_sweep,
    write_sweep_rows,
)


def tiny_r_spec(**over):
    fixed = {"d": 30, "m_values": (6,), "max_iters": 60}
    fixed.update(over.pop("fixed", {}))
    kw = {"kind": "r", "grid": (0.5, 1.0), "trials": 3, "seed": RngSeed(9), "fixed": fixed}
    kw.update(over)
    return SweepSpec(**kw)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SweepSpec(kind="q", grid=(1.0,), trials=1)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(kind="r", grid=(), trials=1)
        with pytest.raises(ValueError):
            SweepSpec(kind="r", grid=(1.0, 0.5), trials=1)
        with pytest.raises(ValueError):
            SweepSpec(kind="r", grid=(-1.0, 0.5), trials=1)

    @pytest.mark.parametrize("kind", ["r", "m", "d"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_grid_value_rejected(self, kind, bad):
        with pytest.raises(ValueError, match=f"^grid value must be positive and finite, got {bad}$"):
            SweepSpec(kind=kind, grid=(100, bad), trials=1)

    @pytest.mark.parametrize("kind, key", [("m", "r_fixed"), ("d", "r")])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
    def test_non_finite_scale_rejected(self, kind, key, bad):
        with pytest.raises(ValueError, match=f"^{key} must be positive and finite, got {bad}$"):
            SweepSpec(kind=kind, grid=(100,), trials=1, fixed={key: bad})

    def test_bad_trials_and_methods(self):
        with pytest.raises(ValueError):
            SweepSpec(kind="r", grid=(1.0,), trials=0)
        with pytest.raises(ValueError):
            SweepSpec(kind="r", grid=(1.0,), trials=1, methods=("ridge",))
        with pytest.raises(ValueError):
            SweepSpec(kind="r", grid=(1.0,), trials=1, methods=())

    @pytest.mark.parametrize("kind, key", [
        ("r", "r_fixed"), ("r", "s"), ("r", "r"), ("m", "r"), ("m", "m_values"),
        ("m", "m_multipliers"), ("d", "d"), ("d", "r_fixed"), ("d", "m_values"),
        ("d", "max_iter")])
    def test_option_unused_by_kind_rejected(self, kind, key):
        msg = f"sweep kind '{kind}' does not use option\\(s\\) {key}$"
        with pytest.raises(ValueError, match=msg):
            SweepSpec(kind=kind, grid=(40,), trials=1, fixed={key: 1})

    @pytest.mark.parametrize("kind, keys", [
        ("r", ("d", "m_values", "max_iters")), ("m", ("d", "r_fixed", "max_iters")),
        ("d", ("s", "m_multipliers", "r", "max_iters"))])
    def test_options_used_by_kind_accepted(self, kind, keys):
        spec = SweepSpec(kind=kind, grid=(40,), trials=1, fixed=dict.fromkeys(keys, 1))
        assert set(spec.fixed) == set(keys)

    def test_unset_options_take_the_kind_defaults(self):
        assert dict(SweepSpec(kind="r", grid=(1.0,), trials=1).fixed) == {
            "d": 1000, "m_values": (200, 400), "max_iters": 5000}
        assert dict(SweepSpec(kind="m", grid=(40,), trials=1, fixed={"d": 30}).fixed) == {
            "d": 30, "r_fixed": 0.75, "max_iters": 5000}
        assert dict(SweepSpec(kind="d", grid=(40,), trials=1).fixed) == {
            "s": 5, "m_multipliers": (10, 20, 40), "r": None, "max_iters": 5000}

    def test_fixed_is_read_only(self):
        spec = tiny_r_spec()
        with pytest.raises(TypeError):
            spec.fixed["r_fixed"] = 0.5
        assert "r_fixed" not in spec.fixed
        with pytest.raises(ValueError, match="does not use option\\(s\\) r_fixed$"):
            dataclasses.replace(spec, fixed={**spec.fixed, "r_fixed": 0.5})

    @pytest.mark.parametrize("kind, method", [("r", "l1_svm"), ("m", "l1l2_svm")])
    def test_repeated_method_rejected(self, kind, method):
        with pytest.raises(ValueError, match=f"^method '{method}' is repeated$"):
            SweepSpec(kind=kind, grid=(40,), trials=1, methods=(method, "one_bit_cs", method))

    def test_seed_with_a_stream_rejected(self):
        with pytest.raises(ValueError, match="^sweep seed must have stream 0, got stream 5: "):
            tiny_r_spec(seed=RngSeed(7, 5))
        assert tiny_r_spec(seed=RngSeed(7, 0)).seed == RngSeed(7)

    @pytest.mark.parametrize("kind, grid, fixed, msg", [
        ("m", (20.7,), {}, "m grid value must be a whole number >= 1, got 20.7"),
        ("m", (20.2, 20.6), {}, "m grid value must be a whole number >= 1, got 20.2"),
        ("m", (0.5,), {}, "m grid value must be a whole number >= 1, got 0.5"),
        ("d", (100, 150.5), {}, "d grid value must be a whole number >= 1, got 150.5"),
        ("m", (20,), {"d": 30.7}, "d must be a whole number >= 1, got 30.7"),
        ("r", (0.5,), {"m_values": (20, 20.9)}, "m_values must be a whole number >= 1, got 20.9"),
        ("r", (0.5,), {"m_values": (0,)}, "m_values must be a whole number >= 1, got 0"),
        ("d", (100,), {"s": 2.9}, "s must be a whole number >= 1, got 2.9"),
        ("d", (100,), {"s": 0}, "s must be a whole number >= 1, got 0"),
        ("r", (0.5,), {"max_iters": 60.9}, "max_iters must be a whole number >= 1, got 60.9"),
    ])
    def test_fractional_count_rejected(self, kind, grid, fixed, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            SweepSpec(kind=kind, grid=grid, trials=1, fixed=fixed)

    @pytest.mark.parametrize("mults, msg", [
        ((0.1,), "m_multipliers value 0.1 gives m = round\\(0.1 log d\\) < 1 at d=30"),
        ((10, -1), "m_multipliers must be positive and finite, got -1"),
        ((math.inf,), "m_multipliers must be positive and finite, got inf"),
        ((math.nan,), "m_multipliers must be positive and finite, got nan"),
    ])
    def test_bad_m_multiplier_rejected(self, mults, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            SweepSpec(kind="d", grid=(30, 100), trials=1, fixed={"m_multipliers": mults})

    def test_m_multiplier_checked_at_the_smallest_d(self):
        # round(0.3 log 30) = 1, round(0.3 log 20) = 1, round(0.3 log 5) = 0
        assert [c.m for c in sweeps._cells(SweepSpec(
            kind="d", grid=(20, 30), trials=1, fixed={"s": 2, "m_multipliers": (0.3,)}))] == [1, 1]
        with pytest.raises(ValueError, match="at d=5$"):
            SweepSpec(kind="d", grid=(5, 30), trials=1, fixed={"s": 2, "m_multipliers": (0.3,)})

    def test_whole_float_counts_accepted(self):
        spec = SweepSpec(kind="m", grid=(20.0, 30), trials=1, fixed={"d": 30.0})
        assert [c.m for c in sweeps._cells(spec)] == [20, 20, 30, 30]

    @pytest.mark.parametrize("bad", [0, 1.5, math.nan, math.inf])
    def test_non_whole_trials_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^trials must be a whole number >= 1, got {bad}$"):
            SweepSpec(kind="r", grid=(1.0,), trials=bad)

    def test_whole_float_trials_stored_as_int(self, tmp_path):
        spec = tiny_r_spec(grid=(0.5,), trials=3.0)
        assert spec.trials == 3 and type(spec.trials) is int
        rows = run_sweep(spec)
        assert rows == run_sweep(tiny_r_spec(grid=(0.5,)))
        write_sweep_rows(rows, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text().splitlines()[1].split(",")[10] == "3"

    def test_bare_number_is_a_one_value_tuple(self):
        spec = tiny_r_spec(grid=(0.5,), fixed={"m_values": 20})
        assert spec.fixed["m_values"] == (20,)
        assert run_sweep(spec) == run_sweep(tiny_r_spec(grid=(0.5,), fixed={"m_values": (20,)}))
        spec = SweepSpec(kind="d", grid=(30,), trials=1, fixed={"s": 2, "m_multipliers": 10})
        assert spec.fixed["m_multipliers"] == (10,)
        assert sweeps._cells(spec) == sweeps._cells(dataclasses.replace(
            spec, fixed={"s": 2, "m_multipliers": (10,)}))

    def test_fixed_is_copied(self):
        fixed = {"d": 30, "m_values": (6,)}
        spec = SweepSpec(kind="r", grid=(0.5,), trials=1, fixed=fixed)
        fixed["r_fixed"] = 0.5
        assert "r_fixed" not in spec.fixed


class TestBenchmarkClassifier:
    def test_scaled_support_below_full_size(self):
        b = benchmark_classifier(300)
        assert b.s == 5
        assert b.support.tolist() == [3, 42, 70, 108, 234]
        assert np.linalg.norm(b.a) == pytest.approx(1.0, abs=1e-12)

    def test_full_size_matches_fixed_classifier(self):
        for d in (781, 1000):
            assert benchmark_classifier(d).support.tolist() == [10, 140, 234, 360, 780]

    def test_too_small_dimension(self):
        with pytest.raises(ValueError):
            benchmark_classifier(5)


class TestRSweep:
    def test_row_layout(self):
        rows = run_sweep(tiny_r_spec())
        assert [(row.sweep_value, row.method) for row in rows] == [
            (0.5, "l1_svm"), (0.5, "l1l2_svm"), (1.0, "l1_svm"), (1.0, "l1l2_svm")]
        b = benchmark_classifier(30)
        for row in rows:
            assert (row.m, row.d, row.s) == (6, 30, 5)
            assert row.R == pytest.approx(b.l1_norm)
            assert row.trials_used == 3

    def test_mean_matches_trial_values(self):
        for row in run_sweep(tiny_r_spec()):
            assert len(row.trial_l2_errors) == 3
            assert row.mean_l2_error == pytest.approx(
                float(np.mean(row.trial_l2_errors)), abs=1e-15)
            expect_se = float(np.std(row.trial_l2_errors, ddof=1) / math.sqrt(3))
            assert row.std_error == pytest.approx(expect_se, abs=1e-15)

    def test_deterministic_given_seed(self):
        assert run_sweep(tiny_r_spec()) == run_sweep(tiny_r_spec())


class TestMSweep:
    def tiny(self, **over):
        kw = {"kind": "m", "grid": (4, 8), "trials": 2, "seed": RngSeed(9),
              "fixed": {"d": 25, "r_fixed": 0.6, "max_iters": 50},
              "methods": ("l1_svm", "l1l2_svm", "one_bit_cs")}
        kw.update(over)
        return SweepSpec(**kw)

    def test_four_series_per_sample_count(self):
        rows = run_sweep(self.tiny())
        assert len(rows) == 8
        at4 = [(row.method, row.r) for row in rows if row.m == 4]
        assert at4 == [("l1_svm", 0.6), ("l1_svm", 2.0 / 30.0),
                       ("l1l2_svm", 2.0 / 30.0), ("one_bit_cs", 2.0 / 30.0)]

    def test_sign_baseline_needs_no_iterations(self):
        rows = run_sweep(self.tiny())
        assert all(row.mean_solver_iters == 0.0
                   for row in rows if row.method == "one_bit_cs")

    def test_method_subset_prunes_series(self):
        rows = run_sweep(self.tiny(methods=("one_bit_cs",)))
        assert [row.method for row in rows] == ["one_bit_cs", "one_bit_cs"]


class TestSharedTrainingSet:
    """Each trial draws one training set per (m, r) and solves every method of the cell on it."""

    @staticmethod
    def drawn_in_process(monkeypatch) -> list:
        """The (m, r) of every training set drawn, in the order the tasks run."""
        monkeypatch.setattr(sweeps, "cpu_count", lambda: 1)
        drawn = []

        def counting(a, m, r, gen):
            drawn.append((m, r))
            return generate_training_set(a, m, r, gen)

        monkeypatch.setattr(sweeps, "generate_training_set", counting)
        return drawn

    @pytest.mark.parametrize("kind, draws", [("m", 8), ("r", 6)])
    def test_one_draw_per_training_set_and_trial(self, monkeypatch, kind, draws):
        drawn = self.drawn_in_process(monkeypatch)
        # m: per sample count one set at r_fixed and one at sqrt(m)/30 for the other three
        # series, 2 trials; r: one set per scale with both methods solved on it, 3 trials
        spec = TestMSweep().tiny() if kind == "m" else tiny_r_spec()
        rows = run_sweep(spec)
        assert len(drawn) == draws
        assert len(set(drawn)) * spec.trials == draws
        assert len(rows) * spec.trials == 2 * draws

    def test_largest_sample_count_runs_first(self, monkeypatch):
        drawn = self.drawn_in_process(monkeypatch)
        rows = run_sweep(TestMSweep().tiny())
        assert [m for m, _ in drawn] == [8] * 4 + [4] * 4
        assert [row.m for row in rows] == [4] * 4 + [8] * 4

    def test_trial_returns_the_norm_once_and_a_record_per_method(self, monkeypatch):
        monkeypatch.setattr(sweeps, "cpu_count", lambda: 1)
        spec = tiny_r_spec(grid=(0.5,), trials=1)
        cell = sweeps._cells(spec)[0]
        norm, solves = sweeps._trial(cell, spec.seed.base, 0, SolverConfig(max_iters=60))
        assert norm == cell.a.l1_norm
        assert list(solves) == list(cell.methods) == ["l1_svm", "l1l2_svm"]
        for solve, row in zip(solves.values(), run_sweep(spec)):
            assert [f.name for f in dataclasses.fields(solve)] == [
                "l2_error", "ratio_error", "iterations"]
            assert (row.mean_l2_error, row.mean_ratio_error, row.mean_solver_iters) == (
                solve.l2_error, solve.ratio_error, solve.iterations)


class TestDSweep:
    def tiny(self, **fixed):
        cfg = {"s": 3, "m_multipliers": (10,), "max_iters": 60}
        cfg.update(fixed)
        return SweepSpec(kind="d", grid=(40, 60), trials=3, seed=RngSeed(9),
                         fixed=cfg, methods=("l1_svm",))

    def test_sample_count_scales_with_log_dimension(self):
        rows = run_sweep(self.tiny())
        assert [row.m for row in rows] == [round(10 * math.log(40)), round(10 * math.log(60))]
        assert [row.r for row in rows] == [math.sqrt(row.m) / 30.0 for row in rows]

    def test_classifier_redrawn_per_trial(self):
        # fresh draws make trial errors distinct, and R reports the average norm
        for row in run_sweep(self.tiny()):
            assert row.std_error > 0.0
            assert abs(row.R - math.sqrt(3)) > 1e-6

    def test_scale_override(self):
        rows = run_sweep(self.tiny(r=0.8))
        assert all(row.r == 0.8 for row in rows)

    def test_dimension_below_sparsity(self):
        spec = SweepSpec(kind="d", grid=(2, 40), trials=1, fixed={"s": 3})
        with pytest.raises(ValueError):
            run_sweep(spec)


class TestDefaultSpecs:
    def test_r_defaults(self):
        spec = default_r_sweep_spec()
        assert spec.grid[0] == 0.05 and spec.grid[-1] == 1.5 and len(spec.grid) == 30
        assert spec.fixed["d"] == 1000 and spec.fixed["m_values"] == (200, 400)
        assert spec.methods == ("l1_svm", "l1l2_svm")

    def test_m_defaults(self):
        spec = default_m_sweep_spec()
        assert spec.grid == tuple(range(50, 801, 50))
        assert spec.fixed["r_fixed"] == 0.75
        assert spec.methods == ("l1_svm", "l1l2_svm", "one_bit_cs")

    def test_d_defaults(self):
        spec = default_d_sweep_spec()
        assert spec.grid == (100, 200, 500, 1000, 2000, 3000)
        assert spec.fixed["m_multipliers"] == (10, 20, 40)

    def test_fixed_overrides(self):
        spec = default_r_sweep_spec(trials=3, d=200, m_values=(50,))
        assert spec.trials == 3
        assert spec.fixed["d"] == 200 and spec.fixed["m_values"] == (50,)


class TestSweepPoints:
    def test_unique_points_and_slack(self):
        pts = enumerate_sweep_points(tiny_r_spec())
        assert len(pts) == 2
        for p in pts:
            u = p["r"] * p["R"] * math.sqrt(2 * math.log(2 * p["d"])) / math.sqrt(p["m"])
            assert p["u"] == pytest.approx(u, abs=1e-15)

    def test_random_classifier_points_use_sparsity_radius(self):
        spec = SweepSpec(kind="d", grid=(40, 60), trials=1,
                         fixed={"s": 3, "m_multipliers": (10,)})
        for p in enumerate_sweep_points(spec):
            assert p["R"] == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_overlay_has_one_report_per_point_and_eps(self, tmp_path):
        spec = tiny_r_spec()
        path = tmp_path / "bounds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reps = emit_bound_overlay(spec, eps_grid=(0.05, 0.1), path=path)
        assert len(reps) == 4
        lines = path.read_text().splitlines()
        assert lines[0].startswith("d,s,R,r,m,eps,u,")
        assert len(lines) == 5

    @pytest.mark.parametrize("factory", [default_r_sweep_spec, default_m_sweep_spec,
                                         default_d_sweep_spec])
    def test_required_sample_sizes_dwarf_experimental_budgets(self, factory):
        spec = factory()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reps = emit_bound_overlay(spec, eps_grid=(0.1,))
        max_m = max(p["m"] for p in enumerate_sweep_points(spec))
        assert min(rep.sample_size_required for rep in reps) > max_m


class TestCsvOutput:
    def test_header_and_rows(self, tmp_path):
        rows = run_sweep(tiny_r_spec())
        path = tmp_path / "sweep.csv"
        write_sweep_rows(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == len(rows) + 1
        cells = lines[1].split(",")
        assert float(cells[0]) == rows[0].sweep_value
        assert cells[1] == rows[0].method
        assert int(cells[2]) == rows[0].m
        assert float(cells[7]) == pytest.approx(rows[0].mean_l2_error, rel=1e-9)
        assert int(cells[10]) == rows[0].trials_used

    def test_byte_identical_rewrites(self, tmp_path):
        rows = run_sweep(tiny_r_spec())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_rows(rows, p1)
        write_sweep_rows(run_sweep(tiny_r_spec()), p2)
        assert p1.read_bytes() == p2.read_bytes()


GOLDEN = Path(__file__).parent / "golden"
# the tiny specs above; the d one has two multipliers and two methods, so that
# the per-(d, multiplier) stream ids and the per-trial R average are pinned too
GOLDEN_SPECS = {
    "r": tiny_r_spec(),
    "m": TestMSweep().tiny(),
    "d": SweepSpec(kind="d", grid=(40, 60), trials=3, seed=RngSeed(9),
                   fixed={"s": 3, "m_multipliers": (10, 20), "max_iters": 60},
                   methods=("l1_svm", "l1l2_svm")),
}


def _assert_csv_matches_golden(path, name, exact):
    got = path.read_text().splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(csv.DictReader(got), csv.DictReader(want)):
        for col, value in want_row.items():
            if col in exact:
                assert got_row[col] == value, (col, want_row)
            else:
                assert float(got_row[col]) == pytest.approx(float(value), rel=1e-9, abs=1e-9), \
                    (col, want_row)


class TestGoldenOutput:
    """Row order, stream ids and values pinned to recorded text."""

    @pytest.mark.parametrize("kind", ["r", "m", "d"])
    def test_sweep_rows(self, kind, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_rows(run_sweep(GOLDEN_SPECS[kind]), path)
        _assert_csv_matches_golden(path, f"sweep_{kind}.csv", exact=(
            "sweep_value", "method", "m", "r", "d", "s", "R", "trials", "mean_iters"))

    def test_bound_overlay(self, tmp_path):
        path = tmp_path / "bounds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            emit_bound_overlay(GOLDEN_SPECS["m"], path=path)
        _assert_csv_matches_golden(path, "bounds_m.csv", exact=(
            "d", "s", "R", "r", "m", "eps", "u", "m_required"))


class TestWorkerPool:
    """Trials run on one spawned worker per CPU; `cpu_count` is patched to pick the path."""

    @pytest.fixture
    def workers(self, monkeypatch):
        return lambda n: monkeypatch.setattr(sweeps, "cpu_count", lambda: n)

    @pytest.mark.parametrize("kind", ["r", "m", "d"])
    def test_rows_identical_in_process_and_pooled(self, kind, workers, pool_workers, tmp_path):
        environ = dict(os.environ)
        workers(1)
        one = run_sweep(GOLDEN_SPECS[kind])
        workers(2)
        two = run_sweep(GOLDEN_SPECS[kind])
        assert two == one
        pool_workers()
        assert dict(os.environ) == environ  # the one-thread BLAS settings are undone
        write_sweep_rows(two, tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (GOLDEN / f"sweep_{kind}.csv").read_bytes()

    def test_workers_run_one_blas_thread(self, workers):
        workers(2)
        names = [(name,) for name in sweeps._BLAS_THREADS]
        assert sweeps._map(os.getenv, names) == ["1"] * len(names)

    def test_consecutive_calls_share_one_pool(self, workers, pool_workers):
        workers(2)
        sweeps._map(os.getpid, [()] * 4)
        first = pool_workers()
        assert set(sweeps._map(os.getpid, [()] * 4)) <= set(first)
        assert pool_workers() == first

    def test_pool_keeps_the_size_of_its_first_call(self, workers, pool_workers):
        # only a dead worker replaces the pool; a later CPU count does not resize it
        workers(2)
        sweeps._map(os.getpid, [()] * 2)
        two = pool_workers()
        workers(3)
        assert set(sweeps._map(os.getpid, [()] * 3)) <= set(two)
        assert pool_workers() == two and sweeps._pool[1]._max_workers == 2

    def test_worker_exception_keeps_its_type(self, workers, pool_workers):
        workers(2)
        good = sweeps._cells(tiny_r_spec())[0]
        cfg = SolverConfig()
        tasks = [(dataclasses.replace(good, m=0), 9, 0, cfg), (good, 9, 0, cfg)]
        with pytest.raises(ValueError, match="need m >= 1"):
            sweeps._map(sweeps._trial, tasks)
        pool_workers()

    def test_worker_warning_obeys_caller_filters(self, workers, pool_workers):
        workers(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="raised in a worker"):
                sweeps._map(warnings.warn, [("raised in a worker", RuntimeWarning)] * 2)
        pool_workers()

    def test_each_call_brings_its_own_warning_filters(self, workers):
        workers(2)
        tasks = [("raised in a worker", RuntimeWarning)] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="raised in a worker"):
                sweeps._map(warnings.warn, tasks)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert sweeps._map(warnings.warn, tasks) == [None, None]

    def test_dead_worker_breaks_only_its_call(self, workers, pool_workers):
        workers(2)
        sweeps._map(os.getpid, [()] * 2)
        before = pool_workers()
        with pytest.raises(BrokenProcessPool):
            sweeps._map(os._exit, [(1,)] * 2)
        assert sweeps._map(math.sqrt, [(4.0,), (9.0,)]) == [2.0, 3.0]
        assert not set(pool_workers()) & set(before)  # a fresh pool

    def test_failed_call_cancels_its_queued_tasks(self, workers):
        workers(2)
        sweeps._map(os.getpid, [()] * 2)  # the pool is up before the clock starts
        start = time.monotonic()
        with pytest.raises(ValueError, match="sleep length must be non-negative"):
            sweeps._map(time.sleep, [(-1,)] + [(0.5,)] * 20)
        assert sweeps._map(math.sqrt, [(4.0,), (9.0,)]) == [2.0, 3.0]
        # the 20 sleeps take 5 s on two workers; only those already sent may run
        assert time.monotonic() - start < 5.0

    def test_workers_exit_with_the_interpreter(self):
        # a script that makes a pooled call and exits without closing anything
        code = ("import multiprocessing, os\n"
                "from l1svm import sweeps\n"
                "sweeps.cpu_count = lambda: 2\n"
                "sweeps._map(os.getpid, [()] * 4)\n"
                "print(*sorted(p.pid for p in multiprocessing.active_children()))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert (out.returncode, out.stderr) == (0, "")
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_pool_held_past_module_cleanup_exits_quietly(self):
        # sys holds sweeps past the point where finalization clears concurrent.futures'
        # globals; a pool collected only then prints an ignored AttributeError
        code = ("import sys\n"
                "from l1svm import sweeps\n"
                "sys.held_module = sweeps\n"
                "sweeps.cpu_count = lambda: 2\n"
                "print(sweeps._map(abs, [(-1,), (-2,)]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert (out.returncode, out.stdout, out.stderr) == (0, "[1, 2]\n", "")

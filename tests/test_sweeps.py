import csv
import dataclasses
import math
import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from l1svm import sweeps
from l1svm.model import RngSeed
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
    """Trials run on one spawned worker per CPU; `_workers` is patched to pick the path."""

    @pytest.fixture
    def workers(self, monkeypatch):
        return lambda n: monkeypatch.setattr(sweeps, "_workers", lambda: n)

    @pytest.mark.parametrize("kind", ["r", "m", "d"])
    def test_rows_identical_in_process_and_pooled(self, kind, workers, tmp_path):
        environ = dict(os.environ)
        workers(1)
        one = run_sweep(GOLDEN_SPECS[kind])
        workers(2)
        two = run_sweep(GOLDEN_SPECS[kind])
        assert two == one
        assert multiprocessing.active_children() == []
        assert dict(os.environ) == environ  # the one-thread BLAS settings are undone
        write_sweep_rows(two, tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (GOLDEN / f"sweep_{kind}.csv").read_bytes()

    def test_workers_run_one_blas_thread(self, workers):
        workers(2)
        names = [(name,) for name in sweeps._BLAS_THREADS]
        assert sweeps._map(os.getenv, names) == ["1"] * len(names)

    def test_worker_exception_keeps_its_type(self, workers):
        workers(2)
        good = sweeps._cells(tiny_r_spec())[0]
        cfg = SolverConfig()
        tasks = [(dataclasses.replace(good, m=0), 9, 0, cfg), (good, 9, 0, cfg)]
        with pytest.raises(ValueError, match="need m >= 1"):
            sweeps._map(sweeps._trial, tasks)
        assert multiprocessing.active_children() == []

    def test_worker_warning_obeys_caller_filters(self, workers):
        workers(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="raised in a worker"):
                sweeps._map(warnings.warn, [("raised in a worker", RuntimeWarning)] * 2)
        assert multiprocessing.active_children() == []

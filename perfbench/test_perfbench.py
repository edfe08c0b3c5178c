"""Tests for the benchmark's own pieces: spans, statistics, output checks, layer metrics.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import statistics
import sys
import types

import pytest

import layers
import verify
from spans import Span, Tracer, merge, nesting_violations, self_times
from stats import median, percentile, quartile_spread


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 4.0, 0),  # overlaps a: covered time is [1, 4]
        Span("c", 6.0, 7.0, 0),
        Span("grandchild", 6.2, 6.8, 3),  # counts against c, not against root
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert got[1] == pytest.approx(2.0)
    assert got[3] == pytest.approx(1.0 - 0.6)
    assert got[4] == pytest.approx(0.6)


def test_nesting_violations_flags_children_longer_than_their_parent():
    ok = [Span("p", 0.0, 5.0, -1), Span("c", 1.0, 2.0, 0), Span("c", 2.0, 4.0, 0)]
    assert nesting_violations(ok) == []
    bad = [Span("p", 0.0, 1.0, -1), Span("c", 0.0, 0.8, 0), Span("c", 0.1, 0.9, 0)]
    assert len(nesting_violations(bad)) == 1


def test_merge_rebases_parents():
    merged = merge([[Span("a", 0, 1, -1), Span("b", 0, 1, 0)],
                    [Span("c", 0, 1, -1), Span("d", 0, 1, 0)]])
    assert [sp.parent for sp in merged] == [-1, 0, -1, 2]


def test_median_quartiles_and_percentiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0, 6.0, 9.0, 8.0]
    assert median(values) == 5.5
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert quartile_spread([2.0]) == 0.0
    assert percentile(values, 50) == 5.5
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([], 90) == 0.0 and median([]) == 0.0


def test_classifier_check_accepts_feasible_and_rejects_nan_or_infeasible():
    R = 2.0
    assert verify.check_classifier([0.6, -0.8, 0.0], R, l2_capped=True) is None
    assert verify.check_classifier([1.5, 0.5], R, l2_capped=False) is None
    assert "non-finite" in verify.check_classifier([0.1, math.nan], R, l2_capped=False)
    assert "||w_hat||_1" in verify.check_classifier([1.5, 0.6], R, l2_capped=False)
    assert "||w_hat||_2" in verify.check_classifier([1.5, 0.5], R, l2_capped=True)
    assert "zero" in verify.check_classifier([0.0, 0.0], R, l2_capped=False)


def test_sweep_row_and_lemma7_checks():
    row = {"sweep_value": 200, "method": "l1_svm", "trials": 3, "mean_l2_error": 0.3}
    assert verify.check_sweep_rows([row] * 4, 4, 3) is None
    assert "expected 4" in verify.check_sweep_rows([row] * 3, 4, 3)
    assert "mean_l2_error" in verify.check_sweep_rows([{**row, "mean_l2_error": math.nan}], 1, 3)
    assert verify.check_lemma7(0, "ok   expected loss: 50/50\n") is None
    assert verify.check_lemma7(2, "FAIL expected loss: 40/50\n") is not None
    assert verify.check_lemma7(0, "FAIL expected loss: 40/50\n") is not None


def test_direction_error_of_sparse_vectors():
    a = {1: 0.6, 5: 0.8}
    assert verify.l2_direction_error(a, {1: 1.2, 5: 1.6}) == pytest.approx(0.0)
    assert verify.l2_direction_error(a, {2: 3.0}) == pytest.approx(math.sqrt(2.0))


@pytest.fixture
def fake_package():
    """fakepkg.inner.outer() calls inner() through its module globals; fakepkg.user
    re-exports outer and keeps it in a dict, as `from .x import f` and SUITES do."""
    pkg = types.ModuleType("fakepkg")
    inner_mod = types.ModuleType("fakepkg.inner")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) + inner(x)\n", inner_mod.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.outer = inner_mod.outer
    user.TABLE = {"outer": inner_mod.outer}
    mods = {"fakepkg": pkg, "fakepkg.inner": inner_mod, "fakepkg.user": user}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        sys.modules.pop(name, None)


def test_tracer_wraps_every_reference_and_records_parents(fake_package):
    user, inner_mod = fake_package["fakepkg.user"], fake_package["fakepkg.inner"]
    original = inner_mod.outer
    tracer = Tracer()
    tracer.install("fakepkg", {"inner.outer": None,
                               "inner.inner": lambda args, kwargs, res: {"x": args[0]},
                               "inner.gone": None})
    assert user.outer(1) == 4 and user.TABLE["outer"](2) == 6
    names = [sp.name for sp in tracer.spans]
    assert names == ["inner.outer", "inner.inner", "inner.inner"] * 2
    assert [sp.parent for sp in tracer.spans[:3]] == [-1, 0, 0]
    assert tracer.spans[4].attrs == {"x": 2}
    assert nesting_violations(tracer.spans) == []
    tracer.uninstall()
    assert user.outer is original and user.TABLE["outer"] is original


def test_layer_metrics_report_every_metric_and_zero_for_absent_layers():
    out = layers.layer_metrics([], {})
    assert set(out) == set(layers.PER_LAYER)
    assert all(v == 0 for v in out.values())


def test_layer_metrics_from_synthetic_solve_and_projection_spans():
    spans = [
        Span("solvers.solve_l1_l2_svm", 0.0, 1.0, -1,
             {"m": 10, "d": 20, "iterations": 2, "converged": True}),
        Span("geometry.project_l1_l2", 0.1, 0.4, 0),
        Span("geometry.project_l1", 0.1, 0.2, 1),
        Span("geometry.project_l1", 0.2, 0.3, 1),
        Span("geometry.project_l1", 0.3, 0.4, 1),
        Span("geometry.project_l1_l2", 0.5, 0.6, 0),
        Span("geometry.project_l1", 0.5, 0.6, 5),
    ]
    out = layers.layer_metrics(spans, {"import_s": [0.5, 0.7, 0.9], "overhead_s": 0.25})
    assert out["geometry.l1l2_inner_rounds"] == pytest.approx(1.0)  # (2 + 0) / 2
    assert out["geometry.project_l1.calls"] == 4
    assert out["solvers.self_s"] == pytest.approx(0.6)
    assert out["solvers.iterations"] == 2
    assert out["solvers.us_per_iter"] == pytest.approx(0.5e6)
    assert out["solvers.window_stop_ratio"] == 1.0
    assert out["solvers.matvec_flops"] == 4 * 10 * 20 * 2
    assert out["solvers.matvec_bytes"] == 16 * 10 * 20 * 2
    assert out["solvers.l1l2_svm.solve_ms_p50"] == pytest.approx(1000.0)
    assert out["cli.import_s"] == 0.7 and out["trace.overhead_s"] == 0.25

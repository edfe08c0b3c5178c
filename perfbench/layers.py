"""What the traced run wraps, and the per-layer metrics computed from its spans.

The layers are the l1svm modules: cli, model, geometry, solvers, sweeps,
theory and checks.  Every metric in `PER_LAYER` is always reported; a layer
the workload does not reach, or a function that no longer exists, reads 0.
"""

from __future__ import annotations

import os

from spans import Span, self_times
from stats import median, percentile

SOLVE_SPANS = {
    "solvers.solve_l1_svm": "l1_svm",
    "solvers.solve_l1_l2_svm": "l1l2_svm",
    "solvers.solve_one_bit_cs": "one_bit_cs",
}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else (args[pos] if len(args) > pos else None)


def _file_bytes(pos: int, name: str):
    def note(args, kwargs, result):
        path = _arg(args, kwargs, pos, name)
        return {"bytes": os.path.getsize(path)} if path is not None else None
    return note


def _solve_note(args, kwargs, result):
    T = _arg(args, kwargs, 0, "T")
    m, d = T.X.shape
    return {"m": int(m), "d": int(d), "iterations": int(result.iterations),
            "converged": bool(result.converged)}


# "module.attribute" -> note function adding attributes to the span (or None)
TARGETS = {
    "cli.main": None,
    "model.generate_training_set": None,
    "model.save_training_set": _file_bytes(1, "path"),
    "model.load_training_set": _file_bytes(0, "path"),
    "geometry.project_l1": None,
    "geometry.project_l1_l2": None,
    "geometry.max_linear_l1_l2": None,
    "solvers.solve_l1_svm": _solve_note,
    "solvers.solve_l1_l2_svm": _solve_note,
    "solvers.solve_one_bit_cs": _solve_note,
    "solvers.recovery_error": None,
    "sweeps.run_sweep": lambda args, kwargs, rows: {"rows": len(rows)},
    "theory.expected_fa_w": None,
    "theory.monte_carlo_fa": lambda args, kwargs, res: {
        "samples": int(_arg(args, kwargs, 1, "n_samples"))},
    "checks.lemma7_suite": None,
}

# name -> unit, in report order
PER_LAYER = {
    "cli.import_s": "s",
    "cli.generate_s": "s",
    "cli.solve_s": "s",
    "cli.check_s": "s",
    "model.save_training_set_s": "s",
    "model.load_training_set_s": "s",
    "model.csv_mb_per_s": "MB/s",
    "model.generate_training_set_s": "s",
    "geometry.project_l1_l2.calls": "count",
    "geometry.project_l1_l2.s": "s",
    "geometry.l1l2_inner_rounds": "count",
    "geometry.project_l1.calls": "count",
    "geometry.project_l1.s": "s",
    "geometry.max_linear_l1_l2.calls": "count",
    "geometry.max_linear_l1_l2.s": "s",
    "solvers.self_s": "s",
    "solvers.iterations": "count",
    "solvers.us_per_iter": "us",
    "solvers.window_stop_ratio": "1",
    **{f"solvers.{meth}.solve_ms_{p}": "ms"
       for meth in SOLVE_SPANS.values() for p in ("p50", "p90")},
    "solvers.matvec_flops": "flop",
    "solvers.matvec_bytes": "B",
    "sweeps.self_s": "s",
    "sweeps.cells": "count",
    "theory.expected_fa_w.calls": "count",
    "theory.expected_fa_w.s": "s",
    "theory.monte_carlo_fa.samples": "count",
    "theory.monte_carlo_fa.s": "s",
    "checks.lemma7_suite_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# labelled in the report: derived from array shapes, not measured
COMPUTED = {"solvers.matvec_flops", "solvers.matvec_bytes"}


def layer_metrics(spans: list[Span], process: dict) -> dict:
    """Per-layer values from the traced run's spans plus process-level timings.

    `process` carries what spans cannot see: `import_s` (list of in-process
    import times), `generate_s`/`solve_s`/`check_s` (CLI process wall times),
    and `overhead_s` (traced minus untraced wall time).
    """
    by_name: dict[str, list[int]] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(i)
    selfs = self_times(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((spans[i].attrs or {}).get(key, 0) for i in by_name.get(name, ()))

    out = {name: 0.0 for name in PER_LAYER}
    out["cli.import_s"] = median(process.get("import_s", ()))
    for cmd in ("generate", "solve", "check"):
        out[f"cli.{cmd}_s"] = float(process.get(f"{cmd}_s", 0.0))

    save_s, load_s = total("model.save_training_set"), total("model.load_training_set")
    csv_bytes = attr_sum("model.save_training_set", "bytes") + \
        attr_sum("model.load_training_set", "bytes")
    out["model.save_training_set_s"] = save_s
    out["model.load_training_set_s"] = load_s
    out["model.csv_mb_per_s"] = csv_bytes / 1e6 / (save_s + load_s) if save_s + load_s else 0.0
    out["model.generate_training_set_s"] = total("model.generate_training_set")

    for fn in ("project_l1_l2", "project_l1", "max_linear_l1_l2"):
        out[f"geometry.{fn}.calls"] = calls(f"geometry.{fn}")
        out[f"geometry.{fn}.s"] = total(f"geometry.{fn}")
    # Dykstra rounds: inner project_l1 calls beyond the first, which is the
    # single-ball candidate every projection tries before iterating
    inner: dict[int, int] = {}
    l1l2 = set(by_name.get("geometry.project_l1_l2", ()))
    for i in by_name.get("geometry.project_l1", ()):
        if spans[i].parent in l1l2:
            inner[spans[i].parent] = inner.get(spans[i].parent, 0) + 1
    if l1l2:
        out["geometry.l1l2_inner_rounds"] = sum(max(n - 1, 0) for n in inner.values()) / len(l1l2)

    iters = flops = solve_s = window = iterative = 0
    for name, method in SOLVE_SPANS.items():
        idx = by_name.get(name, ())
        out["solvers.self_s"] += sum(selfs[i] for i in idx)
        ms = [spans[i].duration * 1e3 for i in idx]
        out[f"solvers.{method}.solve_ms_p50"] = percentile(ms, 50)
        out[f"solvers.{method}.solve_ms_p90"] = percentile(ms, 90)
        for i in idx:
            a = spans[i].attrs or {}
            if a.get("iterations", 0) > 0:
                iterative += 1
                iters += a["iterations"]
                flops += 4 * a["m"] * a["d"] * a["iterations"]
                solve_s += spans[i].duration
                window += bool(a["converged"])
    out["solvers.iterations"] = iters
    out["solvers.us_per_iter"] = solve_s / iters * 1e6 if iters else 0.0
    out["solvers.window_stop_ratio"] = window / iterative if iterative else 0.0
    out["solvers.matvec_flops"] = flops
    out["solvers.matvec_bytes"] = 4 * flops  # 16 m d bytes per iteration

    out["sweeps.self_s"] = sum(selfs[i] for i in by_name.get("sweeps.run_sweep", ()))
    out["sweeps.cells"] = attr_sum("sweeps.run_sweep", "rows")
    out["theory.expected_fa_w.calls"] = calls("theory.expected_fa_w")
    out["theory.expected_fa_w.s"] = total("theory.expected_fa_w")
    out["theory.monte_carlo_fa.samples"] = attr_sum("theory.monte_carlo_fa", "samples")
    out["theory.monte_carlo_fa.s"] = total("theory.monte_carlo_fa")
    out["checks.lemma7_suite_s"] = total("checks.lemma7_suite")
    out["trace.overhead_s"] = float(process.get("overhead_s", 0.0))
    out["trace.spans"] = len(spans)
    return out

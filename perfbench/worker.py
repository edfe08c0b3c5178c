"""Workload process.  Run by `run.py`, never imported by it.

    worker.py probe --workload W   set up as a workload process does, print
                                   `ready <time.monotonic()>`, then a machine
                                   fingerprint
    worker.py run --workload W --seed N --seconds S --trace 0|1 --out FILE
                                   set up, then run a sweep workload in process

Set-up is `import l1svm` plus, for the sweeps, a small warm-up solve per
method, so that a cold start is not charged to the timed section.
`run.py` times set-up from the spawn to the ready line's clock reading.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

T_IMPORT = time.perf_counter()
import l1svm  # noqa: E402  (timed: import cost is part of set-up)
import l1svm.cli  # noqa: E402,F401
IMPORT_S = time.perf_counter() - T_IMPORT

import dataclasses  # noqa: E402

from l1svm import RngSeed, solvers, sweeps  # noqa: E402

import verify  # noqa: E402
from layers import TARGETS  # noqa: E402
from spans import Tracer, dump, rebind  # noqa: E402
from stats import median  # noqa: E402

# d=1000 and the default four m-sweep series on a subset of the default grid
SWEEP_M_GRID = (200, 500, 800)
SWEEP_M_TRIALS = 11
# large r keeps the hinge active: hundreds of iterations, few Dykstra rounds
SWEEP_R_GRID = (1.5, 3.0, 6.0)
SWEEP_R_M = 400
SWEEP_R_TRIALS = 16

# sweep_m: l1 at fixed r, then l1, l1l2 and one-bit at sqrt(m)/30; sweep_r_high: two methods
EXPECTED_ROWS = {"sweep_m": len(SWEEP_M_GRID) * 4, "sweep_r_high": len(SWEEP_R_GRID) * 2}
L2_CAPPED = {"solve_l1_svm": False, "solve_l1_l2_svm": True, "solve_one_bit_cs": True}


def sweep_spec(workload: str, seed: int) -> sweeps.SweepSpec:
    if workload == "sweep_m":
        spec = sweeps.default_m_sweep_spec(trials=SWEEP_M_TRIALS, seed=RngSeed(seed))
        return dataclasses.replace(spec, grid=SWEEP_M_GRID)
    if workload == "sweep_r_high":
        spec = sweeps.default_r_sweep_spec(trials=SWEEP_R_TRIALS, seed=RngSeed(seed),
                                           m_values=(SWEEP_R_M,))
        return dataclasses.replace(spec, grid=SWEEP_R_GRID, methods=("l1_svm", "l1l2_svm"))
    raise ValueError(f"not a sweep workload: {workload}")


def warm_up() -> None:
    """Solve a small instance with each method, before any timed section."""
    a = sweeps.benchmark_classifier(1000)
    T = l1svm.generate_training_set(a, 100, 1.0, RngSeed(0))
    cfg = solvers.SolverConfig(max_iters=50)
    solvers.solve_l1_svm(T, a.l1_norm, cfg)
    solvers.solve_l1_l2_svm(T, a.l1_norm, cfg)
    solvers.solve_one_bit_cs(T, a.l1_norm)


class SolveChecker:
    """Wraps the three solvers wherever l1svm refers to them, to check each w_hat."""

    def __init__(self):
        self.solves = 0
        self.failures: list[str] = []

    def install(self) -> None:
        for name, capped in L2_CAPPED.items():
            fn = getattr(solvers, name)

            def checked(T, R, *rest, _fn=fn, _capped=capped, _name=name, **kw):
                res = _fn(T, R, *rest, **kw)
                self.solves += 1
                err = verify.check_classifier(res.w_hat.tolist(), R, _capped)
                if err:
                    self.failures.append(f"{_name}: {err}")
                return res

            rebind("l1svm", fn, checked)


def rows_as_dicts(rows) -> list[dict]:
    return [{"sweep_value": r.sweep_value, "method": r.method, "m": r.m, "r": r.r,
             "trials": r.trials_used, "mean_l2_error": r.mean_l2_error,
             "trial_l2_errors": list(r.trial_l2_errors), "mean_iters": r.mean_solver_iters}
            for r in rows]


def timed_sweep(spec):
    t0 = time.perf_counter()
    rows = sweeps.run_sweep(spec)
    return time.perf_counter() - t0, rows_as_dicts(rows)


def run(args) -> dict:
    spec = sweep_spec(args.workload, args.seed)
    checker = SolveChecker()
    checker.install()
    walls, first = [], None
    sweep_failures = []

    def record(wall, rows, traced=False):
        nonlocal first
        if not traced:
            walls.append(wall)
        err = verify.check_sweep_rows(rows, EXPECTED_ROWS[args.workload], spec.trials)
        if err is None and first is not None and \
                [r["trial_l2_errors"] for r in rows] != [r["trial_l2_errors"] for r in first]:
            err = "a repeated sweep with the same seed gave different errors"
        if err:
            sweep_failures.append(err)
        first = first or rows

    out = {"import_s": IMPORT_S}
    start = time.perf_counter()
    record(*timed_sweep(spec))
    if args.trace:
        # untraced, traced, untraced: the bracket cancels a steady drift in machine speed
        tracer = Tracer()
        tracer.install("l1svm", TARGETS)
        traced_wall, rows = timed_sweep(spec)
        tracer.uninstall()
        record(traced_wall, rows, traced=True)
        record(*timed_sweep(spec))
        out["overhead_s"] = traced_wall - sum(walls) / len(walls)
        dump(tracer.spans, args.spans)
    else:
        while time.perf_counter() - start + median(walls) <= args.seconds:
            record(*timed_sweep(spec))
    out.update(walls=walls, rows=first, solves=checker.solves,
               sweeps=len(walls) + args.trace,
               failures=checker.failures + sweep_failures)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("probe", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    if args.workload != "cli_roundtrip":
        warm_up()  # every CLI command pays its own start-up, as users do
    if args.mode == "probe":
        print(f"ready {time.monotonic()!r}", flush=True)
        import machine
        print(json.dumps({"import_s": IMPORT_S, "machine": machine.fingerprint()}))
        return 0
    result = run(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment harness: seeded error sweeps over r, m and d, plus bound overlays.

Each sweep fixes everything except one quantity, runs `trials` independent
instances per grid point and reports mean recovery errors.  In the r and m
sweeps trial t always draws from the stream (seed.base, t), so different grid
points of one sweep see the same noise realizations and paired comparisons are
meaningful; the spec's seed must therefore have stream 0.  The d sweep draws a
fresh classifier per trial and offsets its streams per (d, multiplier) pair.
Methods that share a sample count and a scale are solved on one training set
per trial, the set each would draw alone.

There is one task per training set and trial.  It returns the classifier's l1
norm once and one named record per method solved on the set; a row averages
its method's records field by field.  Tasks are independent, so `run_sweep`
solves them, last grid point first, on one spawned worker process per CPU the
caller may run on, each with one BLAS thread.  The workers start with the
first sweep, serve every later sweep of the process, and exit with the
interpreter.  A caller restricted to one CPU runs them in process.  No other
module starts a process.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import threading
import types
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .model import RngSeed, SparseClassifier, benchmark_classifier, generate_training_set, \
    make_random_classifier, write_csv
from .solvers import SOLVERS, SolverConfig, recovery_error
from .theory import BoundReport, bound_report, write_bound_reports

__all__ = [
    "METHODS",
    "SweepSpec",
    "SweepRow",
    "benchmark_classifier",
    "default_r_sweep_spec",
    "default_m_sweep_spec",
    "default_d_sweep_spec",
    "run_sweep",
    "enumerate_sweep_points",
    "emit_bound_overlay",
    "write_sweep_rows",
    "SWEEP_HEADER",
]

METHODS = tuple(SOLVERS)

# the `fixed` options each sweep kind reads, with their defaults; any other key is
# rejected.  The d sweep's r of None means r = sqrt(m)/30 at each sample count.
_OPTIONS = {
    "r": {"d": 1000, "m_values": (200, 400), "max_iters": SolverConfig.max_iters},
    "m": {"d": 1000, "r_fixed": 0.75, "max_iters": SolverConfig.max_iters},
    "d": {"s": 5, "m_multipliers": (10, 20, 40), "r": None, "max_iters": SolverConfig.max_iters},
}


@dataclass(frozen=True)
class SweepSpec:
    kind: str  # "r", "m" or "d"
    grid: tuple
    trials: int
    fixed: Mapping = field(default_factory=dict)
    seed: RngSeed = RngSeed(0)
    methods: tuple = ("l1_svm", "l1l2_svm")

    def __post_init__(self):
        if self.kind not in _OPTIONS:
            raise ValueError("kind must be 'r', 'm' or 'd'")
        grid = tuple(self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "methods", tuple(self.methods))
        if len(grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        bad = set(self.methods) - set(METHODS)
        if bad or not self.methods:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        for i, method in enumerate(self.methods):
            if method in self.methods[:i]:
                raise ValueError(f"method {method!r} is repeated")
        if self.seed.stream:
            raise ValueError(f"sweep seed must have stream 0, got stream {self.seed.stream}: "
                             "each trial draws from its own stream")
        options = _OPTIONS[self.kind]
        unused = sorted(set(self.fixed) - set(options))
        if unused:
            raise ValueError(f"sweep kind {self.kind!r} does not use option(s) {', '.join(unused)}")
        fixed = {**options, **self.fixed}
        for key in {"m_values", "m_multipliers"} & set(fixed):  # a bare number is a 1-tuple
            fixed[key] = tuple(fixed[key]) if np.ndim(fixed[key]) else (fixed[key],)
        scales = [("grid value", v) for v in grid]
        scales += [(key, fixed[key]) for key in ("r", "r_fixed") if fixed.get(key) is not None]
        mults = fixed.get("m_multipliers", ())
        scales += [("m_multipliers", v) for v in mults]
        for name, v in scales:
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        # counts are used as given, so a fractional one is refused rather than truncated
        counts = [("trials", self.trials)] + [(f"{self.kind} grid value", v) for v in grid
                                              if self.kind != "r"]
        counts += [(key, v) for key in ("d", "s", "m_values", "max_iters") if key in fixed
                   for v in np.ravel(fixed[key])]
        for name, v in counts:
            if not (1 <= v < math.inf and v == int(v)):
                raise ValueError(f"{name} must be a whole number >= 1, got {v}")
        for mult in mults:  # m = round(mult log d) grows with d, so the first d is the test
            if round(mult * math.log(grid[0])) < 1:
                raise ValueError(f"m_multipliers value {mult} gives m = round({mult} log d) < 1 "
                                 f"at d={grid[0]}")
        object.__setattr__(self, "trials", int(self.trials))
        # every option filled in, and read-only, so that no key can join after the checks above
        object.__setattr__(self, "fixed", types.MappingProxyType(fixed))


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    method: str
    m: int
    r: float
    d: int
    s: int
    R: float
    mean_l2_error: float
    mean_ratio_error: float
    std_error: float  # standard error of the mean l2 error
    trials_used: int
    mean_solver_iters: float
    trial_l2_errors: tuple = ()  # per-trial values backing the mean, not serialized


def default_r_sweep_spec(trials: int = 20, seed: RngSeed = RngSeed(0), **fixed) -> SweepSpec:
    """Error versus data scale r, fixed benchmark classifier, one series per m."""
    grid = tuple(round(0.05 * k, 10) for k in range(1, 31))
    return SweepSpec(kind="r", grid=grid, trials=trials, fixed=fixed, seed=seed,
                     methods=("l1_svm", "l1l2_svm"))


def default_m_sweep_spec(trials: int = 40, seed: RngSeed = RngSeed(0), **fixed) -> SweepSpec:
    """Error versus sample count m.

    Four series: the l1 solver at fixed r, the l1 solver at r = sqrt(m)/30,
    the intersected solver at r = sqrt(m)/30, and the sign-measurement
    baseline (whose maximizer does not depend on r at all).
    """
    return SweepSpec(kind="m", grid=tuple(range(50, 801, 50)), trials=trials, fixed=fixed,
                     seed=seed, methods=("l1_svm", "l1l2_svm", "one_bit_cs"))


def default_d_sweep_spec(trials: int = 60, seed: RngSeed = RngSeed(0), **fixed) -> SweepSpec:
    """Error versus dimension d at m = multiplier * log(d), fresh random classifier per trial."""
    return SweepSpec(kind="d", grid=(100, 200, 500, 1000, 2000, 3000), trials=trials,
                     fixed=fixed, seed=seed, methods=("l1_svm",))


@dataclass(frozen=True)
class _Cell:
    """One training set per trial of a sweep, and the methods solved on it: one row each."""

    sweep_value: float
    m: int
    r: float
    d: int
    s: int
    a: SparseClassifier | None  # None: a fresh random classifier per trial
    stream: int  # trial t draws from RngSeed(spec.seed.base, stream + t)
    methods: tuple


def _cells(spec: SweepSpec) -> list[_Cell]:
    """Every cell of a sweep in row order; the one place each kind's grid is worked out."""
    fixed = spec.fixed
    methods = spec.methods
    if spec.kind == "d":
        s = int(fixed["s"])
        mults = tuple(fixed["m_multipliers"])
        cells = []
        for di, d in enumerate(spec.grid):
            d = int(d)
            if d < s:
                raise ValueError(f"d={d} smaller than sparsity {s}")
            for mi, mult in enumerate(mults):
                m = round(mult * math.log(d))
                r = float(fixed["r"]) if fixed["r"] is not None else math.sqrt(m) / 30.0
                stream = spec.trials * (mi + len(mults) * di)
                cells.append(_Cell(float(d), m, r, d, s, None, stream, methods))
        return cells
    a = benchmark_classifier(int(fixed["d"]))
    if spec.kind == "r":
        return [_Cell(float(r), int(m), float(r), a.d, a.s, a, 0, methods)
                for r in spec.grid for m in fixed["m_values"]]
    # the l1 solver at r_fixed, then every method at r = sqrt(m)/30 on one shared set
    r_fixed = float(fixed["r_fixed"])
    cells = []
    for m in spec.grid:
        m = int(m)
        for r, series in ((r_fixed, ("l1_svm",)), (math.sqrt(m) / 30.0, METHODS)):
            ms = tuple(method for method in series if method in methods)
            if ms:
                cells.append(_Cell(float(m), m, r, a.d, a.s, a, 0, ms))
    return cells


@dataclass(frozen=True)
class _Solve:
    """One method's solve on one trial's training set: what its row averages."""

    l2_error: float
    ratio_error: float
    iterations: int


def _trial(cell: _Cell, base: int, trial: int, cfg: SolverConfig) -> tuple[float, dict]:
    """Solve and score each method of a cell on one trial's training set.

    Returns the classifier's ||a||_1 and a `_Solve` record per method, keyed by method.
    """
    gen = RngSeed(base, cell.stream + trial).generator()
    a = make_random_classifier(cell.d, cell.s, gen) if cell.a is None else cell.a
    T = generate_training_set(a, cell.m, cell.r, gen)
    solves = {}
    for method in cell.methods:
        res = SOLVERS[method](T, a.l1_norm, cfg)
        err = recovery_error(a, res)
        solves[method] = _Solve(err.l2_error, err.ratio_error, res.iterations)
    return a.l1_norm, solves


def _workers() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the thread-count variables of OpenBLAS, OpenMP and MKL, read once as numpy loads
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread():
    """Set every BLAS thread count to 1 in os.environ, for the processes started inside."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREADS}
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _call(filters: list, fn, *args):
    """fn(*args) under the caller's warning filters, which a spawned worker does not inherit."""
    if warnings.filters != filters:  # reset only on a change, so "default" still shows once
        warnings.resetwarnings()
        warnings.filters.extend(filters)
    return fn(*args)


# this process's pool, as (pid, executor); started by the first pooled `_map`
_pool = None
_pool_lock = threading.Lock()


def _executor(workers: int):
    """The process's pool: the cached one, or a new one of `workers` spawned workers."""
    global _pool
    # imported here: they cost about 20 ms, which callers that never sweep need not pay
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():  # a forked child leaves its parent's alone
            if _pool is None:
                atexit.register(_shutdown)  # registering twice is harmless
            _pool = (os.getpid(), ProcessPoolExecutor(workers, mp_context=get_context("spawn")))
        return _pool[1]


def _shutdown(pool=None) -> None:
    """Shut `pool` down, or at exit this process's pool, and forget it if it is the cached one.

    `_map` passes a broken pool, so that the next call starts afresh once its workers are
    reaped.  The exit hook passes none: it runs before finalization clears the modules the
    pool's cleanup reads, else a module still holding `sweeps` keeps the executor alive until
    then, and its collection prints an ignored AttributeError.
    """
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] == os.getpid() and pool in (None, _pool[1]):
            pool, _pool = _pool[1], None
    if pool is not None:
        pool.shutdown()


def _map(fn, tasks: list) -> list:
    """[fn(*task) for task in tasks], in order; on one worker per CPU when there are several.

    It serves the sweep trials.  Workers are spawned, not forked, and each
    runs one BLAS thread: two processes that each start BLAS's default thread
    count oversubscribe the CPUs and are no faster than one.  The process has
    one pool, sized by its first pooled call; it serves every later call and
    exits with the interpreter, which joins it.  It is started afresh only in
    a forked child, or after a worker died (the call that saw it raises
    `BrokenProcessPool`).  Each task runs under the warning filters the
    caller has at this call.  A task's exception reaches the caller with its
    own type, once the call's tasks that have not started are cancelled.
    """
    workers = _workers()
    if min(workers, len(tasks)) < 2:
        return [fn(*task) for task in tasks]
    from concurrent.futures.process import BrokenProcessPool

    pool = _executor(workers)
    filters = list(warnings.filters)  # the tasks are pickled later, on the pool's thread
    futures = []
    try:
        with _one_blas_thread():  # a worker starts inside the submit that needs it
            for task in tasks:
                futures.append(pool.submit(_call, filters, fn, *task))
        return [future.result() for future in futures]
    except BrokenProcessPool:
        _shutdown(pool)
        raise
    finally:
        for future in futures:
            future.cancel()  # a no-op on the tasks that have started or finished


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Run `spec.trials` trials in every cell of the sweep; one row per cell.

    For a random classifier the R column reports the trial average of ||a||_1.
    Run from a script, the call needs the `if __name__ == "__main__":` guard,
    because the worker processes import the script's main module.
    """
    cfg = SolverConfig(max_iters=int(spec.fixed["max_iters"]))
    cells = _cells(spec)
    n = spec.trials
    tasks = [(c, spec.seed.base, t, cfg) for c in cells for t in range(n)]
    # m and d grids rise, and a task's work with them: submitted largest first, the
    # pool ends on short tasks instead of leaving one worker idle behind a long one
    results = _map(_trial, tasks[::-1])[::-1]
    rows = []
    for i, c in enumerate(cells):
        norms, trials = zip(*results[i * n:(i + 1) * n])
        R = c.a.l1_norm if c.a is not None else float(np.mean(norms))
        for method in c.methods:
            solves = [by_method[method] for by_method in trials]
            errs = np.array([solve.l2_error for solve in solves])
            rows.append(SweepRow(
                sweep_value=c.sweep_value, method=method, m=c.m, r=c.r, d=c.d, s=c.s, R=R,
                mean_l2_error=float(errs.mean()),
                mean_ratio_error=float(np.mean([solve.ratio_error for solve in solves])),
                std_error=float(errs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
                trials_used=n,
                mean_solver_iters=float(np.mean([solve.iterations for solve in solves])),
                trial_l2_errors=tuple(errs),
            ))
    return rows


def enumerate_sweep_points(spec: SweepSpec) -> list[dict]:
    """Unique (d, s, R, r, m) tuples a sweep visits, with a default slack u.

    For randomly drawn classifiers R is taken as sqrt(s), the radius that
    always contains them.  The slack defaults to u = r R sqrt(2 log 2d)/sqrt(m),
    matching the scale of the deterministic deviation term.
    """
    points = {}
    for c in _cells(spec):
        R = math.sqrt(c.s) if c.a is None else c.a.l1_norm
        u = c.r * R * math.sqrt(2.0 * math.log(2.0 * c.d)) / math.sqrt(c.m)
        points.setdefault((c.d, c.s, round(R, 12), round(c.r, 12), c.m),
                          {"d": c.d, "s": c.s, "R": float(R), "r": c.r, "m": c.m, "u": float(u)})
    return list(points.values())


def emit_bound_overlay(spec: SweepSpec, eps_grid=(0.05, 0.1, 0.15), path=None) -> list[BoundReport]:
    """Bound values at every sweep point, one report per (point, eps) pair, at t = 1."""
    reports = [
        bound_report(p["d"], p["s"], p["R"], p["r"], p["m"], float(eps), p["u"])
        for p in enumerate_sweep_points(spec)
        for eps in eps_grid
    ]
    if path is not None:
        write_bound_reports(reports, path)
    return reports


SWEEP_HEADER = ("sweep_value,method,m,r,d,s,R,mean_l2_error,mean_ratio_error,"
                "std_error,trials,mean_iters")
_SWEEP_LINE = "%.10g,%s,%s,%.10g,%s,%s,%.10g,%.10g,%.10g,%.10g,%s,%.10g"


def write_sweep_rows(rows, path) -> None:
    write_csv(path, SWEEP_HEADER, (_SWEEP_LINE % (
        row.sweep_value, row.method, row.m, row.r, row.d, row.s, row.R, row.mean_l2_error,
        row.mean_ratio_error, row.std_error, row.trials_used, row.mean_solver_iters,
    ) for row in rows), "\n")

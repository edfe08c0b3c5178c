"""Experiment harness: seeded error sweeps over r, m and d, plus bound overlays.

Each sweep fixes everything except one quantity, runs `trials` independent
instances per grid point and reports mean recovery errors.  Trial t always
draws from the stream (seed.base, t), so different grid points of one sweep
see the same noise realizations and paired comparisons are meaningful.
"""

from __future__ import annotations

import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .model import RngSeed, SparseClassifier, benchmark_classifier, generate_training_set, \
    make_random_classifier
from .solvers import SolverConfig, recovery_error, solve_l1_l2_svm, solve_l1_svm, \
    solve_one_bit_cs
from .theory import BoundReport, _fmt, bound_report, write_bound_reports

__all__ = [
    "METHODS",
    "SweepSpec",
    "SweepRow",
    "benchmark_classifier",
    "default_r_sweep_spec",
    "default_m_sweep_spec",
    "default_d_sweep_spec",
    "run_r_sweep",
    "run_m_sweep",
    "run_d_sweep",
    "run_sweep",
    "enumerate_sweep_points",
    "emit_bound_overlay",
    "write_sweep_rows",
    "SWEEP_HEADER",
]

METHODS = ("l1_svm", "l1l2_svm", "one_bit_cs")

# the `fixed` options each sweep kind reads; any other key is rejected
_FIXED_KEYS = {
    "r": ("d", "m_values", "max_iters"),
    "m": ("d", "r_fixed", "max_iters"),
    "d": ("s", "m_multipliers", "r", "max_iters"),
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
        if self.kind not in ("r", "m", "d"):
            raise ValueError("kind must be 'r', 'm' or 'd'")
        grid = tuple(self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "methods", tuple(self.methods))
        # read-only, so that no key can join after the per-kind check below
        object.__setattr__(self, "fixed", types.MappingProxyType(dict(self.fixed)))
        if len(grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if min(grid) <= 0:
            raise ValueError("grid values must be positive")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        bad = set(self.methods) - set(METHODS)
        if bad or not self.methods:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        unused = sorted(set(self.fixed) - set(_FIXED_KEYS[self.kind]))
        if unused:
            raise ValueError(f"sweep kind {self.kind!r} does not use option(s) {', '.join(unused)}")


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
    grid = tuple(round(0.05 * k, 10) for k in range(1, 31))
    cfg = {"d": 1000, "m_values": (200, 400)}
    cfg.update(fixed)
    return SweepSpec(kind="r", grid=grid, trials=trials, fixed=cfg, seed=seed,
                     methods=("l1_svm", "l1l2_svm"))


def default_m_sweep_spec(trials: int = 40, seed: RngSeed = RngSeed(0), **fixed) -> SweepSpec:
    grid = tuple(range(50, 801, 50))
    cfg = {"d": 1000, "r_fixed": 0.75}
    cfg.update(fixed)
    return SweepSpec(kind="m", grid=grid, trials=trials, fixed=cfg, seed=seed,
                     methods=("l1_svm", "l1l2_svm", "one_bit_cs"))


def default_d_sweep_spec(trials: int = 60, seed: RngSeed = RngSeed(0), **fixed) -> SweepSpec:
    cfg = {"s": 5, "m_multipliers": (10, 20, 40)}
    cfg.update(fixed)
    return SweepSpec(kind="d", grid=(100, 200, 500, 1000, 2000, 3000), trials=trials,
                     fixed=cfg, seed=seed, methods=("l1_svm",))


# module-level, so that wrapping a solver function also wraps the sweeps' calls to it;
# the sign baseline is closed form and takes no solver config
_SOLVERS = {"l1_svm": solve_l1_svm, "l1l2_svm": solve_l1_l2_svm,
            "one_bit_cs": lambda T, R, cfg: solve_one_bit_cs(T, R)}


@dataclass(frozen=True)
class _Cell:
    """One grid point x series of a sweep: one output row."""

    sweep_value: float
    method: str
    m: int
    r: float
    d: int
    s: int
    a: SparseClassifier | None  # None: a fresh random classifier per trial
    stream: int  # trial t draws from RngSeed(spec.seed.base, stream + t)


def _cells(spec: SweepSpec) -> list[_Cell]:
    """Every cell of a sweep in row order; the one place each kind's grid is worked out."""
    fixed = spec.fixed
    if spec.kind == "d":
        s = int(fixed.get("s", 5))
        mults = tuple(fixed.get("m_multipliers", (10, 20, 40)))
        cells = []
        for di, d in enumerate(spec.grid):
            d = int(d)
            if d < s:
                raise ValueError(f"d={d} smaller than sparsity {s}")
            for mi, mult in enumerate(mults):
                m = round(mult * math.log(d))
                r = float(fixed["r"]) if fixed.get("r") is not None else math.sqrt(m) / 30.0
                stream = spec.trials * (mi + len(mults) * di)
                cells += [_Cell(float(d), method, m, r, d, s, None, stream)
                          for method in spec.methods]
        return cells
    a = benchmark_classifier(int(fixed.get("d", 1000)))
    if spec.kind == "r":
        return [_Cell(float(r), method, int(m), float(r), a.d, a.s, a, 0)
                for r in spec.grid for m in fixed.get("m_values", (200, 400))
                for method in spec.methods]
    r_fixed = float(fixed.get("r_fixed", 0.75))
    cells = []
    for m in spec.grid:
        m = int(m)
        series = [("l1_svm", r_fixed), ("l1_svm", math.sqrt(m) / 30.0),
                  ("l1l2_svm", math.sqrt(m) / 30.0), ("one_bit_cs", math.sqrt(m) / 30.0)]
        cells += [_Cell(float(m), method, m, r, a.d, a.s, a, 0)
                  for method, r in series if method in spec.methods]
    return cells


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Run `spec.trials` trials in every cell of the sweep; one row per cell.

    For a random classifier the R column reports the trial average of ||a||_1.
    """
    cfg = SolverConfig(max_iters=int(spec.fixed.get("max_iters", 5000)))
    rows = []
    for c in _cells(spec):
        errors, ratios, iters, norms = [], [], [], []
        for trial in range(spec.trials):
            gen = RngSeed(spec.seed.base, c.stream + trial).generator()
            a = make_random_classifier(c.d, c.s, gen) if c.a is None else c.a
            # unnamed, so that each m x d training set is freed before the next is drawn
            res = _SOLVERS[c.method](generate_training_set(a, c.m, c.r, gen), a.l1_norm, cfg)
            err = recovery_error(a, res)
            errors.append(err.l2_error)
            ratios.append(err.ratio_error)
            iters.append(res.iterations)
            norms.append(a.l1_norm)
        errs = np.asarray(errors)
        n = errs.size
        rows.append(SweepRow(
            sweep_value=c.sweep_value, method=c.method, m=c.m, r=c.r, d=c.d, s=c.s,
            R=c.a.l1_norm if c.a is not None else float(np.mean(norms)),
            mean_l2_error=float(errs.mean()), mean_ratio_error=float(np.mean(ratios)),
            std_error=float(errs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            trials_used=n, mean_solver_iters=float(np.mean(iters)), trial_l2_errors=tuple(errs),
        ))
    return rows


def run_r_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Error versus data scale r, fixed benchmark classifier, one series per m."""
    if spec.kind != "r":
        raise ValueError("spec.kind must be 'r'")
    return run_sweep(spec)


def run_m_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Error versus sample count m.

    Four series: the l1 solver at fixed r, the l1 solver at r = sqrt(m)/30,
    the intersected solver at r = sqrt(m)/30, and the sign-measurement
    baseline (whose maximizer does not depend on r at all).
    """
    if spec.kind != "m":
        raise ValueError("spec.kind must be 'm'")
    return run_sweep(spec)


def run_d_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Error versus dimension d at m = multiplier * log(d), fresh random classifier per trial.

    The R column reports the trial average of ||a||_1 since the classifier is
    redrawn each time.
    """
    if spec.kind != "d":
        raise ValueError("spec.kind must be 'd'")
    return run_sweep(spec)


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


def emit_bound_overlay(spec: SweepSpec, eps_grid=(0.05, 0.1, 0.15), t: float = 1.0,
                       path=None) -> list[BoundReport]:
    """Bound values at every sweep point, one report per (point, eps) pair."""
    reports = [
        bound_report(p["d"], p["s"], p["R"], p["r"], p["m"], float(eps), p["u"], t=t)
        for p in enumerate_sweep_points(spec)
        for eps in eps_grid
    ]
    if path is not None:
        write_bound_reports(reports, path)
    return reports


SWEEP_HEADER = ("sweep_value,method,m,r,d,s,R,mean_l2_error,mean_ratio_error,"
                "std_error,trials,mean_iters")


def write_sweep_rows(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in rows:
            fh.write(",".join([
                _fmt(row.sweep_value), row.method, str(row.m), _fmt(row.r), str(row.d),
                str(row.s), _fmt(row.R), _fmt(row.mean_l2_error),
                _fmt(row.mean_ratio_error), _fmt(row.std_error), str(row.trials_used),
                _fmt(row.mean_solver_iters),
            ]) + "\n")

"""Cross-check suites behind the `check` command.

Each suite pits closed-form routines against an independent oracle and
returns one CheckResult per comparison family: the expected hinge losses
against Monte Carlo, the projections and the linear maximizer against the
exact face-enumeration oracles, and the bound formulas against hand-derived
identities.

The lemma7 Monte Carlo estimates run on threads of the calling process, one
per CPU, through `_thread_map`; the other suites run in the caller's thread.
No suite starts a child process, so a script may call any of them unguarded.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import ConstraintSet, max_linear_l1_l2, project_l1_l2
from .model import RngSeed, as_generator
from .oracles import face_max_linear, face_project
from .sweeps import _workers
from .theory import (OverlapCoords, _mc_buffers, _monte_carlo, _sample_count, expected_fa_a,
                     expected_fa_w, gaussian_max_norm_bounds, hinge_gaussian_integral,
                     proof_constant_057, thm1_bound, thm2_lower_bound, thm3_sample_size,
                     thm8_bound)

__all__ = [
    "CheckResult",
    "sample_overlap_tuples",
    "lemma7_suite",
    "thm2_suite",
    "projections_suite",
    "constants_suite",
    "SUITES",
    "run_suite",
]

_SEED = RngSeed(314159)  # every suite draws from this seed


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def sample_overlap_tuples(n: int, seed: RngSeed = _SEED) -> list[OverlapCoords]:
    """Random (c, c_prime, r) with c^2 + c_prime^2 <= 1, c_prime bounded away from 0."""
    rng = as_generator(seed)
    out = []
    while len(out) < n:
        c = float(rng.uniform(-1.0, 1.0))
        cp = float(rng.uniform(0.0, 1.0))
        if c * c + cp * cp > 1.0 or cp < 1e-3:
            continue
        r = float(np.exp(rng.uniform(np.log(0.2), np.log(4.0))))
        out.append(OverlapCoords(c=c, c_prime=cp, r=r))
    return out


def _thread_map(fn, items) -> list:
    """[fn(item) for item in items] in order, on one thread per CPU of the process.

    On one CPU they run in the caller's thread.  lemma7_suite, its one caller, spends its
    time in numpy calls that release the GIL.  An exception reaches the caller unchanged.
    """
    threads = min(_workers(), len(items))
    if threads < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


def lemma7_suite(n_tuples: int = 50, n_samples: int = 1_000_000) -> list[CheckResult]:
    """Closed-form expectation vs Monte Carlo, 3-standard-error agreement.

    It passes when all but 3 of the n_tuples estimates agree, and at least one does.
    """
    if n_tuples < 1:
        raise ValueError(f"need at least 1 tuple, got n_tuples = {n_tuples}")
    tuples = sample_overlap_tuples(n_tuples)
    n = _sample_count(n_samples)
    local = threading.local()  # one set of sample buffers per thread, made on its first estimate

    def estimate(i: int) -> tuple[float, float]:
        # each estimate draws from its own stream, so the threads change no bit of it
        if not hasattr(local, "buffers"):
            local.buffers = _mc_buffers(n)
        return _monte_carlo(tuples[i], n, as_generator(RngSeed(_SEED.base, i + 1)),
                            *local.buffers)

    estimates = _thread_map(estimate, range(n_tuples))
    # the buffers freed, the caller's thread's too: expected_fa_w loads scipy.special (about
    # 24 MB), which then does not add to them at the peak RSS
    del local
    hits = 0
    worst = 0.0
    for o, (mean, se) in zip(tuples, estimates):
        z = abs(mean - expected_fa_w(o)) / se
        worst = max(worst, z)
        if z <= 3.0:
            hits += 1
    need = max(n_tuples - 3, 1)
    return [CheckResult(
        name="expected loss closed form vs monte carlo",
        passed=hits >= need,
        detail=f"{hits}/{n_tuples} tuples within 3 SE (need >= {need}), worst z = {worst:.2f}",
    )]


def thm2_suite(n_tuples: int = 50) -> list[CheckResult]:
    """The loss-gap lower bound never exceeds the actual expected gap."""
    if n_tuples < 1:
        raise ValueError(f"need at least 1 tuple, got n_tuples = {n_tuples}")
    tuples = sample_overlap_tuples(n_tuples)
    good = 0
    worst = -np.inf
    for o in tuples:
        gap = expected_fa_w(o) - expected_fa_a(o.r)
        slack = gap - thm2_lower_bound(o)
        worst = max(worst, -slack)
        if slack >= -1e-8:
            good += 1
    return [CheckResult(
        name="loss-gap lower bound soundness",
        passed=good == n_tuples,
        detail=f"{good}/{n_tuples} tuples sound, worst violation = {max(worst, 0.0):.2e}",
    )]


def projections_suite(n_inputs: int = 20) -> list[CheckResult]:
    if n_inputs < 1:
        raise ValueError(f"need at least 1 input, got n_inputs = {n_inputs}")
    rng = as_generator(_SEED)
    results = []

    for kind in ("l1", "l1l2"):
        worst_pt = 0.0
        worst_d2 = 0.0
        for i in range(n_inputs):
            v = rng.standard_normal(2 + i % 2) * 2.0
            R = float(rng.uniform(1.0, 2.0))
            w, w_ref = ConstraintSet(kind, R).project(v), face_project(v, R, kind)
            worst_pt = max(worst_pt, float(np.linalg.norm(w - w_ref)))
            worst_d2 = max(worst_d2, abs(float(((w - v) ** 2).sum() - ((w_ref - v) ** 2).sum())))
        results.append(CheckResult(
            name=f"project_{kind} vs face oracle",
            passed=worst_pt <= 2e-3 and worst_d2 <= 1e-6,
            detail=f"worst point gap {worst_pt:.2e} (<= 2e-3), "
                   f"worst sq-dist gap {worst_d2:.2e} (<= 1e-6)",
        ))

    # variational inequality: <v - P(v), z - P(v)> <= 0 for feasible z
    worst_vi = -np.inf
    for _ in range(10):
        d = 6
        v = rng.standard_normal(d) * 3.0
        R = float(rng.uniform(1.0, 2.5))
        w = project_l1_l2(v, R)
        for _ in range(100):
            z = rng.standard_normal(d)
            z = z / max(np.abs(z).sum() / R, np.linalg.norm(z), 1.0)
            worst_vi = max(worst_vi, float((v - w) @ (z - w)))
    results.append(CheckResult(
        name="intersection projection variational inequality",
        passed=worst_vi <= 1e-8,
        detail=f"max <v-P(v), z-P(v)> = {worst_vi:.2e} (<= 1e-8)",
    ))

    # linear maximizer dominance and the d=2 face oracle
    worst_dom = -np.inf
    worst_face = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 8))
        g = rng.standard_normal(d)
        R = float(rng.uniform(1.0, 2.0))
        w = max_linear_l1_l2(g, R)
        for _ in range(100):
            z = rng.standard_normal(d)
            z = z / max(np.abs(z).sum() / R, np.linalg.norm(z), 1.0)
            worst_dom = max(worst_dom, float(g @ z - g @ w))
    for _ in range(10):
        g = rng.standard_normal(2)
        R = float(rng.uniform(1.0, 1.4))
        w = max_linear_l1_l2(g, R)
        w_ref = face_max_linear(g, R)
        worst_face = max(worst_face, float(np.linalg.norm(w - w_ref)))
    results.append(CheckResult(
        name="linear maximizer dominance",
        passed=worst_dom <= 1e-8,
        detail=f"max <g, z> - <g, w*> = {worst_dom:.2e} (<= 1e-8)",
    ))
    results.append(CheckResult(
        name="linear maximizer vs face oracle",
        passed=worst_face <= 1e-4,
        detail=f"worst point gap {worst_face:.2e} (<= 1e-4)",
    ))
    return results


def constants_suite() -> list[CheckResult]:
    results = []
    cval = proof_constant_057()
    results.append(CheckResult(
        name="hinge integral constant",
        passed=0.57 <= cval <= 0.60,
        detail=f"value {cval:.6f} in [0.57, 0.60]",
    ))

    zs = (0.5, 1.0, 2.0, 4.0)
    gvals = [hinge_gaussian_integral(z) for z in zs]
    mono = all(a > b for a, b in zip(gvals, gvals[1:]))
    nonneg = all(v >= 0.0 for v in gvals)
    results.append(CheckResult(
        name="hinge integral monotone and nonnegative",
        passed=mono and nonneg,
        detail=f"values on z={zs}: " + ", ".join(f"{v:.4f}" for v in gvals),
    ))

    b1 = thm1_bound(d=1000, m=400, r=1.0, R=2.05, u=0.5)
    b4 = thm1_bound(d=1000, m=1600, r=1.0, R=2.05, u=0.5)
    halves = abs((b4.total - 0.5) - 0.5 * (b1.total - 0.5)) <= 1e-12
    results.append(CheckResult(
        name="deviation bound 1/sqrt(m) scaling",
        passed=halves,
        detail=f"total(m)={b1.total:.6f}, total(4m)={b4.total:.6f}",
    ))

    m1 = thm3_sample_size(eps=0.1, r=25.0, R=math.sqrt(5), d=1000)
    m2 = thm3_sample_size(eps=0.05, r=25.0, R=math.sqrt(5), d=1000)
    growth = m2 / m1
    results.append(CheckResult(
        name="sample size eps^-2 scaling",
        passed=abs(growth - 4.0) < 1e-6,
        detail=f"m(eps/2)/m(eps) = {growth:.8f}",
    ))

    b = thm8_bound(0.2, 100.0)
    asym = math.sqrt(math.pi / 2.0) * 0.2 * 2.0 * 100.0
    results.append(CheckResult(
        name="intersected bound large-r asymptote",
        passed=abs(b / asym - 1.0) < 0.01,
        detail=f"bound/asymptote = {b / asym:.6f}",
    ))

    lo, hi = gaussian_max_norm_bounds(1000)
    results.append(CheckResult(
        name="max-norm sandwich endpoints",
        passed=abs(lo - 0.65706522) < 1e-6 and abs(hi - 3.89894921) < 1e-6,
        detail=f"d=1000 bounds [{lo:.6f}, {hi:.6f}]",
    ))
    return results


SUITES = {
    "lemma7": lemma7_suite,
    "thm2": thm2_suite,
    "projections": projections_suite,
    "constants": constants_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()

"""Constrained hinge-loss minimizers and recovery-error metrics.

Each solver works over one `geometry.ConstraintSet`, built once per solve:
the l1 ball, or its intersection with the unit l2 ball.  Both SVM variants
run the same projected subgradient scheme and differ only in their set, whose
`project` they call; the sign-measurement baseline needs no iteration at all
because its objective is linear.

The subgradient loop keeps the hinge gradient as a sum over the active rows
(margin > 0) and updates it by the rows whose sign changed.  At large data
scale r the step overshoots and the active set swings back and forth with
period two: each set is far from the last one but near the one two steps
back, so the loop keeps both sums and updates from the nearer set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConstraintSet, max_linear_l1_l2
from .model import SparseClassifier, TrainingSet

__all__ = [
    "SOLVERS",
    "SolverConfig",
    "SolverResult",
    "RecoveryError",
    "solve_l1_svm",
    "solve_l1_l2_svm",
    "solve_one_bit_cs",
    "recovery_error",
]


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class SolverResult:
    w_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    objective_kind: str = "hinge"  # "linear" for the sign-measurement baseline


@dataclass(frozen=True)
class RecoveryError:
    l2_error: float  # ||a - w/||w||_2||_2
    ratio_error: float  # l2_error / <a, w/||w||_2>, +inf when that cosine is not positive


# the solve stops once the best objective has improved by less than _TOL
# over the last _WINDOW iterations
_TOL = 1e-8
_WINDOW = 100
# iterations between full recomputations of the incremental hinge gradient,
# so that rounding in its row updates cannot accumulate
_REFRESH = 64
_OVERFLOW = "overflowed: the data's scale times the l1 radius R exceeds floating point range"
_SCALE_OVERFLOW = "overflowed: the data's scale exceeds floating point range"


def _update_gradient(pairs, X, XF, y, new, k):
    """Return ((sum_{new_i} y_i x_i, new), newer pair), given the last two pairs.

    `pairs` is ((g, active), (g_old, active_old)), newest first, each g the
    sum over its own active set.  The new sum is updated from whichever set
    is nearer to `new`, by the rows whose sign differs from it (O(d flips)); a
    tie goes to the newer pair.  At large r, where the set swings with period
    two, the older set is the nearer one.  The result is written over g_old's buffer,
    so the two pairs never share one.  On every _REFRESH-th iteration the sum
    is recomputed in full and both pairs restart from it, so that neither
    chain of every-other-iteration updates carries its rounding past it.
    """
    (g1, a1), (g0, a0) = pairs
    if k % _REFRESH == 0:
        g = XF.T @ (y * new)
        np.copyto(g0, g)
        return (g, new), (g0, new)
    ch, base = (new != a1).nonzero()[0], g1
    if ch.size:
        ch0 = (new != a0).nonzero()[0]
        if ch0.size < ch.size:
            ch, base = ch0, g0
        np.add(base, X[ch].T @ np.where(new[ch], y[ch], -y[ch]), out=g0)
    else:
        np.copyto(g0, g1)
    return (g0, new), (g1, a1)


def _projected_subgradient(T: TrainingSet, C: ConstraintSet, max_iters: int) -> SolverResult:
    """Projected subgradient descent onto C, steps eta_k = R / sqrt(k); returns the best iterate.

    Iterates stay sparse, so margins are computed from the iterate's support
    (O(m nnz)), and the unnormalized hinge gradient g = sum_{margin_i > 0} y_i x_i
    is updated from the rows whose margin changed sign (O(d flips)).  At large
    r the step overshoots and the active set swings back and forth with period
    two: it differs from the last iteration's in many rows but from the one
    two steps back in few.  So the last two (g, active) pairs are kept, and g
    is updated from the nearer one.
    """
    m, d = T.X.shape
    X, y, R = T.X, T.y, C.R
    XF = np.asfortranarray(X)  # contiguous columns for the support gather; X keeps rows
    w = np.zeros(d)
    active = np.ones(m, dtype=bool)  # every margin is 1 at w = 0
    best_w = w
    best_f = np.inf
    best_hist = []
    converged = False
    g = XF.T @ y
    pairs = (g, active), (g.copy(), active)
    for k in range(1, max_iters + 1):
        S = w.nonzero()[0]
        margins = 1.0 - y * (XF[:, S] @ w[S])
        f = float(np.add.reduce(np.maximum(margins, 0.0)) / m)  # np.mean's steps and bits
        if not math.isfinite(f):
            raise FloatingPointError(f"hinge objective {_OVERFLOW}")
        if f < best_f:
            best_f = f
            best_w = w  # no iterate is written in place
        best_hist.append(best_f)
        if k > _WINDOW and best_hist[-_WINDOW - 1] - best_f < _TOL:
            converged = True
            break
        # rows sitting exactly on the hinge kink contribute zero
        pairs = _update_gradient(pairs, X, XF, y, margins > 0.0, k)
        g = pairs[0][0]
        z = w + (R / math.sqrt(k)) * (g / m)  # the projection rejects a non-finite z
        try:
            w = C.project(z)
        except ValueError as exc:  # R was checked, so only z can be at fault
            raise FloatingPointError(f"subgradient step {_OVERFLOW}") from exc
    return SolverResult(w_hat=best_w, objective=best_f, iterations=k, converged=converged)


def _linear_maximizer(T: TrainingSet, C: ConstraintSet, max_iters: int) -> SolverResult:
    """The sign baseline's closed form: w maximizes the linear objective <X^T y, w>."""
    g = T.X.T @ T.y
    if not g.any():
        raise ValueError("labeled sample sum is zero: maximizer undefined")
    if not np.isfinite(g).all():
        raise FloatingPointError(f"labeled sample sum {_SCALE_OVERFLOW}")
    w = max_linear_l1_l2(g, C.R)
    return SolverResult(w, float(g @ w), iterations=0, converged=True, objective_kind="linear")


def _solve(T: TrainingSet, C: ConstraintSet, cfg: SolverConfig | None, find):
    """Check cfg, find w in C with `find(T, C, max_iters)` and check the result."""
    cfg = SolverConfig() if cfg is None else cfg
    if not isinstance(cfg, SolverConfig):
        raise TypeError("cfg must be a SolverConfig")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow and inf - inf are checked
        res = find(T, C, cfg.max_iters)
    if not C.contains(res.w_hat):
        raise RuntimeError("solver produced an infeasible point")
    if not math.isfinite(res.objective):  # <g, w> can overflow where g and w do not
        raise FloatingPointError(f"{res.objective_kind} objective {_SCALE_OVERFLOW}")
    return res


def solve_l1_svm(T: TrainingSet, R: float, cfg: SolverConfig | None = None) -> SolverResult:
    """Minimize the averaged hinge loss over {||w||_1 <= R}."""
    return _solve(T, ConstraintSet("l1", R), cfg, _projected_subgradient)


def solve_l1_l2_svm(T: TrainingSet, R: float, cfg: SolverConfig | None = None) -> SolverResult:
    """Minimize the averaged hinge loss over {||w||_1 <= R, ||w||_2 <= 1}."""
    return _solve(T, ConstraintSet("l1l2", R), cfg, _projected_subgradient)


def solve_one_bit_cs(T: TrainingSet, R: float, cfg: SolverConfig | None = None) -> SolverResult:
    """Maximize sum_i y_i <x_i, w> over {||w||_1 <= R, ||w||_2 <= 1}, in closed form.

    The result stores the linear objective <g, w>, not the hinge loss; the
    objective_kind flag says so.  The config is checked but sets nothing.
    """
    return _solve(T, ConstraintSet("l1l2", R), cfg, _linear_maximizer)


SOLVERS = {"l1_svm": solve_l1_svm, "l1l2_svm": solve_l1_l2_svm, "one_bit_cs": solve_one_bit_cs}


def recovery_error(a, result) -> RecoveryError:
    """Directional recovery metrics between the true classifier and an estimate."""
    vec = a.a if isinstance(a, SparseClassifier) else np.asarray(a, dtype=float)
    w = result.w_hat if isinstance(result, SolverResult) else np.asarray(result, dtype=float)
    norm_w = np.linalg.norm(w)
    if norm_w == 0.0:
        raise ValueError("zero estimate: direction undefined")
    u = w / norm_w
    cosine = float(np.clip(vec @ u, -1.0, 1.0))
    l2_error = float(np.linalg.norm(vec - u))
    ratio = l2_error / cosine if cosine > 0.0 else float("inf")
    return RecoveryError(l2_error=l2_error, ratio_error=ratio)

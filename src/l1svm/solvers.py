"""Constrained hinge-loss minimizers and recovery-error metrics.

Both SVM variants run the same projected subgradient scheme and differ only
in the projection; the sign-measurement baseline needs no iteration at all
because its objective is linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import max_linear_l1_l2, project_l1, project_l1_l2
from .model import ConstraintSet, SparseClassifier, TrainingSet

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
# the gradient is recomputed in full when more than m/_FLIPS rows change sign:
# a row update that large is not reliably cheaper than the dense product (at
# d=1000 on a 2-vCPU Xeon they cross at 0.42 m for m=400 and 0.18 m for m=800)
_FLIPS = 4
_OVERFLOW = "overflowed: the data's scale times the l1 radius R exceeds floating point range"


def _update_gradient(g, X, XF, y, active, new, k):
    """Return sum_{new_i} y_i x_i, given g = sum_{active_i} y_i x_i (updated in place).

    The rows whose sign changed are added or removed, in O(d flips); on every
    _REFRESH-th iteration, or when many rows changed, the sum is recomputed.
    """
    ch = np.flatnonzero(new != active)
    if k % _REFRESH == 0 or _FLIPS * ch.size > y.size:
        return XF.T @ (y * new)
    if ch.size:
        g += X[ch].T @ np.where(new[ch], y[ch], -y[ch])
    return g


def _projected_subgradient(T: TrainingSet, R: float, max_iters: int, project):
    """Projected subgradient descent with steps eta_k = R / sqrt(k); returns the best iterate.

    Iterates stay sparse, so margins are computed from the iterate's support
    (O(m nnz)), and the unnormalized hinge gradient g = sum_{margin_i > 0} y_i x_i
    is updated from the rows whose margin changed sign (O(d flips)).
    """
    m, d = T.X.shape
    X, y = T.X, T.y
    XF = np.asfortranarray(X)  # contiguous columns for the support gather; X keeps rows
    w = np.zeros(d)
    active = np.ones(m, dtype=bool)  # every margin is 1 at w = 0
    g = XF.T @ y
    best_w = w
    best_f = np.inf
    best_hist = []
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        S = np.flatnonzero(w)
        margins = 1.0 - y * (XF[:, S] @ w[S])
        f = float(np.mean(np.maximum(margins, 0.0)))
        if not np.isfinite(f):
            raise FloatingPointError(f"hinge objective {_OVERFLOW}")
        if f < best_f:
            best_f = f
            best_w = w.copy()
        best_hist.append(best_f)
        if k > _WINDOW and best_hist[-_WINDOW - 1] - best_f < _TOL:
            converged = True
            break
        # rows sitting exactly on the hinge kink contribute zero
        new = margins > 0.0
        g = _update_gradient(g, X, XF, y, active, new, k)
        active = new
        with np.errstate(over="ignore"):  # an overflow is reported just below, as an error
            z = w + (R / np.sqrt(k)) * (g / m)
            finite = np.isfinite(np.abs(z).sum())  # no non-finite entry or l1 norm
        if not finite:
            raise FloatingPointError(f"subgradient step {_OVERFLOW}")
        w = project(z, R)
    return best_w, best_f, k, converged


def _solve(T: TrainingSet, R: float, cfg: SolverConfig | None, kind: str, project):
    """Check the inputs, run the projected subgradient solve and check its feasibility."""
    cfg = SolverConfig() if cfg is None else cfg
    if not isinstance(cfg, SolverConfig):
        raise TypeError("cfg must be a SolverConfig")
    if R < 1.0:
        raise ValueError("need R >= 1")
    if T.m < 1:
        raise ValueError("empty training set")
    w_hat, f_hat, iters, converged = _projected_subgradient(T, R, cfg.max_iters, project)
    if not ConstraintSet(kind, R).contains(w_hat, tol=1e-8):
        raise RuntimeError("solver produced an infeasible point")
    return SolverResult(w_hat=w_hat, objective=f_hat, iterations=iters, converged=converged)


def solve_l1_svm(T: TrainingSet, R: float, cfg: SolverConfig | None = None) -> SolverResult:
    """Minimize the averaged hinge loss over {||w||_1 <= R}."""
    return _solve(T, R, cfg, "l1", project_l1)


def solve_l1_l2_svm(T: TrainingSet, R: float, cfg: SolverConfig | None = None) -> SolverResult:
    """Minimize the averaged hinge loss over {||w||_1 <= R, ||w||_2 <= 1}."""
    return _solve(T, R, cfg, "l1l2", project_l1_l2)


def solve_one_bit_cs(T: TrainingSet, R: float) -> SolverResult:
    """Maximize sum_i y_i <x_i, w> over {||w||_1 <= R, ||w||_2 <= 1}, in closed form.

    The result stores the linear objective <g, w>, not the hinge loss; the
    objective_kind flag says so.
    """
    if R < 1.0:
        raise ValueError("need R >= 1")
    g = T.X.T @ T.y
    if not g.any():
        raise ValueError("labeled sample sum is zero: maximizer undefined")
    w = max_linear_l1_l2(g, R)
    if not ConstraintSet("l1l2", R).contains(w, tol=1e-8):
        raise RuntimeError("solver produced an infeasible point")
    return SolverResult(w_hat=w, objective=float(g @ w), iterations=0, converged=True,
                        objective_kind="linear")


# method name -> solver(T, R, cfg), module-level so that wrapping a solver function also
# wraps the calls made through it; the closed-form sign baseline ignores the config
SOLVERS = {"l1_svm": solve_l1_svm, "l1l2_svm": solve_l1_l2_svm,
           "one_bit_cs": lambda T, R, cfg: solve_one_bit_cs(T, R)}


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

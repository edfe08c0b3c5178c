"""Euclidean projections and linear maximization over norm-ball constraint sets.

Two feasible sets appear throughout: the l1 ball {||w||_1 <= R} and its
intersection with the unit l2 ball.  Every routine here is a soft
thresholding of its input.  The l1 ball's level comes from a sorted scan.
Where both constraints of the intersection are tight, the projection and the
linear maximizer share one exact O(d log d) kernel: on sorted magnitudes the
level with l1/l2 ratio R lies on the interval found by a cumulative-sum scan
over the breakpoints, and there it is the root of one quadratic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "project_l1",
    "project_l2",
    "project_l1_l2",
    "max_linear_l1_l2",
]


def project_l1(v, R: float) -> np.ndarray:
    """Nearest point of the l1 ball of radius R, by sorted soft thresholding.

    Magnitudes and the level are measured down from the top magnitude, so R
    is not lost to rounding against the magnitudes themselves: the top entry
    always passes the scan, and the result keeps l1 norm R at any scale.
    """
    v = np.asarray(v, dtype=float)
    if not R > 0:
        raise ValueError("radius must be positive")
    mags = np.abs(v)
    total = mags.sum()
    if not np.isfinite(total):
        raise ValueError("vector must be finite, with a finite l1 norm")
    if total <= R:
        return v.copy()
    below = mags - mags.max()
    u = np.sort(below)[::-1]
    cs = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = idx[u > (cs - R) / idx][-1]
    return np.sign(v) * np.maximum(below - (cs[rho - 1] - R) / rho, 0.0)


def project_l2(v, radius: float = 1.0) -> np.ndarray:
    """Nearest point of the l2 ball: rescale iff outside."""
    v = np.asarray(v, dtype=float)
    if not radius > 0:
        raise ValueError("radius must be positive")
    n = np.linalg.norm(v)
    return v.copy() if n <= radius else v * (radius / n)


def _ratio_level(mags, R: float) -> float:
    """Level theta at which the soft-thresholded magnitudes (mags - theta)_+ have l1/l2 ratio R.

    The ratio is nonincreasing in theta, so at the breakpoints theta = u_{k+1}
    of the sorted magnitudes u it grows with the active count k; the first k
    whose ratio reaches R holds the level.  With the k largest entries active
    the ratio condition is one quadratic in theta, whose smaller root is
    mean - R sd / sqrt(k - R^2) over those entries.  Where they are all tied
    the ratio is sqrt(k) = R on the whole interval and its left end is taken.
    Past the last breakpoint every entry stays active, so theta may fall below
    0 there.  Needs sqrt(#entries tied at the top) <= R < sqrt(#entries).
    """
    u = np.sort(mags)[::-1]
    d = u.size
    k_idx = np.arange(1, d + 1)
    below = np.append(u[1:], 0.0)  # breakpoint theta = u_{k+1} for each active count k
    a1 = np.cumsum(u)
    l1 = a1 - k_idx * below
    l2sq = np.cumsum(u * u) - below * (2.0 * a1 - k_idx * below)
    k_top = int(np.count_nonzero(u == u[0]))
    reach = l1[k_top - 1:] ** 2 >= R * R * l2sq[k_top - 1:]
    reach[-1] = True  # the all-active interval runs on below 0
    k = k_top + int(np.argmax(reach))
    if k == k_top or k <= R * R:
        return float(below[k - 1])
    top = u[:k]
    theta = float(top.mean() - R * top.std() / np.sqrt(k - R * R))
    if k < d:
        theta = max(theta, float(u[k]))
    return min(theta, float(u[k - 1]))


def _normalized_soft(v, theta: float) -> np.ndarray:
    w = np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)
    return w / np.linalg.norm(w)


def project_l1_l2(v, R: float) -> np.ndarray:
    """Nearest point of {||w||_1 <= R} intersected with the unit l2 ball.

    If projecting onto one ball alone already lands inside the other, that
    point is the exact answer (it minimizes distance over a superset of the
    intersection while lying in it).  Otherwise both constraints are tight and
    the KKT conditions make the answer the soft thresholding of v, rescaled to
    unit l2 norm, at the level where its l1/l2 ratio is R.
    """
    v = np.asarray(v, dtype=float)
    if not R > 0:
        raise ValueError("radius must be positive")
    cand = project_l1(v, R)
    if np.linalg.norm(cand) <= 1.0 + 1e-15:
        return cand
    ball = project_l2(v)
    if np.abs(ball).sum() <= R + 1e-15:
        return ball
    return _normalized_soft(v, _ratio_level(np.abs(v), R))


def _tie_direction(k: int, R: float) -> np.ndarray:
    """Unit-norm weights for k magnitude-tied leaders, ||.||_1/||.||_2 = R < sqrt(k).

    In the limit of strictly sorted perturbations the weights are (p_j - x)_+
    with priorities p = (k, k-1, ..., 1), at the level x where their ratio is R.
    """
    if R * R >= k:
        return np.full(k, 1.0 / np.sqrt(k))
    p = np.arange(k, 0, -1, dtype=float)
    return _normalized_soft(p, _ratio_level(p, R))


def max_linear_l1_l2(g, R: float) -> np.ndarray:
    """Maximizer of <g, w> over {||w||_1 <= R, ||w||_2 <= 1}.

    The maximizer is a normalized soft thresholding of g: w ~ sign(g)(|g|-theta)_+
    with theta = 0 when g's l1/l2 ratio already fits inside R, else the
    unique theta making the ratio R.  Ties at the top magnitude are broken
    toward earlier indices, the limit of strictly sorted perturbations.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    if R < 1.0:
        raise ValueError("need R >= 1")
    top = np.abs(g).max()
    if top == 0.0:
        raise ValueError("zero vector: maximizer undefined")
    # the maximizer ignores positive scaling; a top magnitude of 1 keeps ||g||_2 finite
    g = g / top
    mags = np.abs(g)
    norm2 = np.linalg.norm(g)
    if mags.sum() <= R * norm2:
        return g / norm2
    ties = np.flatnonzero(mags == 1.0)
    if np.sqrt(ties.size) > R:
        # threshold lands inside the leading tie: weight only those entries
        w = np.zeros(g.size)
        w[ties] = np.sign(g[ties]) * _tie_direction(ties.size, R)
        return w
    return _normalized_soft(g, _ratio_level(mags, R))

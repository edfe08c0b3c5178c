"""Euclidean projections and linear maximization over norm-ball constraint sets.

Two feasible sets appear throughout: the l1 ball {||w||_1 <= R} and its
intersection with the unit l2 ball.  Every routine here is a soft
thresholding of its input.  Each projection sorts the magnitudes once.  Two
levels come from scans over the sorted magnitudes: the l1 ball's, and, where
both constraints of the intersection are tight, the one whose l1/l2 ratio is
R, which the projection and the linear maximizer share and which is then the
root of one second-degree equation.

The projected points keep few entries, so each scan first reads only the
leading _HEAD magnitudes, as Python floats, in the operations and order of the
cumulative-sum scan over all d; its results carry the same bits.  The vector
scan over all d takes over when the level lies past the head, and, for the l1
level, when rounding could make a later breakpoint pass.  project_l1_l2 then
takes its l1 candidate's l2 norm from those leading entries, and builds the
candidate for the exact test only when that norm is within 1e-12 of 1.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ConstraintSet

__all__ = [
    "project_l1",
    "project_l2",
    "project_l1_l2",
    "max_linear_l1_l2",
]


def _sorted_magnitudes(v, R: float):
    """v as floats, |v|, ||v||_1 and |v| sorted descending, after checking v and R."""
    v = np.asarray(v, dtype=float)
    if not R > 0:
        raise ValueError("radius must be positive")
    mags = np.abs(v)
    total = mags.sum()
    if not math.isfinite(total):
        raise ValueError("vector must be finite, with a finite l1 norm")
    return v, mags, total, np.sort(mags)[::-1]


# leading sorted magnitudes that the level scans read as Python floats; the
# projected points of the sweeps keep far fewer entries than this
_HEAD = 32
_U = 2.0 ** -53  # unit roundoff
_TINY = 2.0 ** -1074  # least subnormal


def _head_l1_level(u, R: float):
    """(rho, level) of _l1_level from the head of u, by its float operations in its order.

    _l1_level keeps the last active count k whose u_k - top passes (cs_k - R) / k.
    Exactly, the passing k are a prefix: the miss sum_{j<=k} (u_j - u_k) - R >= 0 only
    grows with k.  So this scan stops at its first miss, and returns only if the miss
    clears the rounding of the cumulative sums over all d entries, so that no later
    count can pass in floating point either.  Else, or if the level may lie past the
    head, it returns None.
    """
    head = u[:_HEAD].tolist()
    n, d = len(head), u.size
    top = head[0]
    if n < d and sum(head) - n * head[-1] < R:
        return None  # the head's last count passes, to rounding: the scan runs past it
    s = level = 0.0
    for k, x in enumerate(head, 1):
        b = x - top
        s += b
        q = (s - R) / k
        if not b > q:
            scale = top + R  # every |cs_j| <= d top; below 2**1000 nothing overflows
            clears = (s - R) - k * b >= 4.0 * (d + 2) ** 2 * _U * scale + d * _TINY
            return (k - 1, level) if clears and (d + 1) * scale < 2.0 ** 1000 else None
        level = q
    return (d, level) if n == d else None


def _l1_level(u, R: float):
    """(rho, level) of the l1 ball's soft thresholding by a cumulative-sum scan over all of u."""
    below = u - u[0]  # sort(|v|) - top is sort(|v| - top), as rounding is monotone
    idx = np.arange(1.0, u.size + 1.0)  # float counts: no int-to-float cast in the division
    q = np.cumsum(below)
    q -= R
    q /= idx  # (cs_k - R) / k, the level at each breakpoint
    rho = int(idx[below > q][-1])
    return rho, float(q[rho - 1])


def _l1_soft(v, mags, top, level: float) -> np.ndarray:
    """sign(v) ((|v| - top) - level)_+: the l1 candidate at a level measured down from the top."""
    return np.sign(v) * np.maximum((mags - top) - level, 0.0)


def project_l1(v, R: float) -> np.ndarray:
    """Nearest point of the l1 ball of radius R, by sorted soft thresholding.

    Magnitudes and the level are measured down from the top magnitude, so R
    is not lost to rounding against the magnitudes themselves: the top entry
    always passes the scan, and the result keeps l1 norm R at any scale.
    """
    v, mags, total, u = _sorted_magnitudes(v, R)
    if total <= R:
        return v.copy()
    _, level = _head_l1_level(u, R) or _l1_level(u, R)
    return _l1_soft(v, mags, u[0], level)


def project_l2(v) -> np.ndarray:
    """Nearest point of the unit l2 ball: rescale iff outside, with the norm taken at unit scale.

    That is v / 2**e for max|v_j| in [2**(e-1), 2**e): exact, and the norm stays finite.
    """
    v = np.asarray(v, dtype=float)
    e = math.frexp(np.abs(v).max(initial=0.0))[1]
    unit = np.ldexp(v, -e)
    n = np.linalg.norm(unit)
    return v.copy() if n <= np.ldexp(1.0, -e) else unit * (1.0 / n)


def _ratio_depth(mags, R: float) -> float:
    """Depth tau below the top magnitude at which (tau - (top - mags))_+ has l1/l2 ratio R.

    That is the soft thresholding (mags - theta)_+ at the level theta = top - tau,
    measured down from the top so that near-tied magnitudes keep their exact
    differences.  The ratio is nonincreasing in theta, so at the breakpoints
    theta = u_{k+1} of the sorted magnitudes u it grows with the active count k;
    the first k whose ratio reaches R holds the level.  The scan's l1 and squared
    l2 norms at the breakpoints are sums of nonnegative terms in the gaps
    delta_k = u_k - u_{k+1}, so they cannot cancel.  With the k largest entries
    active the ratio condition is one second-degree equation in tau, whose root is
    mean + R sd / sqrt(k - R^2) over their depths.  Where they are all tied the
    ratio is sqrt(k) = R on the whole interval and its breakpoint is taken.
    Past the last breakpoint every entry stays active, so tau may exceed the top
    there.  Needs sqrt(#entries tied at the top) <= R < sqrt(#entries).
    """
    return _sorted_depth(np.sort(mags)[::-1], R)


def _sorted_depth(u, R: float) -> float:
    """_ratio_depth for magnitudes u already sorted descending; the head scan finds the
    active count, and the scan over all of u only when the head does not hold it."""
    d = u.size
    k_top, k = _head_reach(u, R) or _reach(u, R)
    if k == k_top or k <= R * R:
        return float(u[0] - (u[k] if k < d else 0.0))
    t = u[0] - u[:k]  # depths of the active entries, exact near the top
    mean = np.add.reduce(t) / k  # numpy's mean and std, step for step, so with their bits
    dev = t - mean
    tau = float(mean + R * math.sqrt(np.add.reduce(dev * dev) / k) / math.sqrt(k - R * R))
    if k < d:
        tau = min(tau, float(u[0] - u[k]))
    return max(tau, float(t[-1]))


def _head_reach(u, R: float):
    """(k_top, k) of _reach from the head of u, by its float operations in its order; None
    if the head has no breakpoint at or past k_top whose ratio reaches R."""
    head = u[:_HEAD].tolist()
    n, d = len(head), u.size
    k_top = head.count(head[0])
    rr = R * R
    l1 = l2sq = 0.0
    for k in range(1, n if n < d else d + 1):  # past the head the next breakpoint is unknown
        gap = head[k - 1] - (head[k] if k < n else 0.0)
        kgap = k * gap
        l2sq += gap * (2.0 * l1 + kgap)
        l1 += kgap
        if k >= k_top and (l1 * l1 >= rr * l2sq or k == d):
            return k_top, k
    return None


def _reach(u, R: float):
    """(k_top, k): the count k_top of entries tied at the top, and the first active count
    k >= k_top whose breakpoint's ratio reaches R, by a cumulative-sum scan over all of u."""
    d = u.size
    below = np.concatenate((u[1:], [0.0]))  # breakpoint theta = u_{k+1}
    gap = u - below
    kgap = np.arange(1, d + 1) * gap
    l1 = np.cumsum(kgap)  # sum_{j<=k} (u_j - u_{k+1})
    l2sq = np.cumsum(gap * (2.0 * np.concatenate(([0.0], l1[:-1])) + kgap))  # sum of their squares
    k_top = int(np.count_nonzero(u == u[0]))
    reach = l1[k_top - 1:] ** 2 >= R * R * l2sq[k_top - 1:]
    reach[-1] = True  # the all-active interval runs on below 0
    return k_top, k_top + int(np.argmax(reach))


def _normalized_soft(v, tau: float) -> np.ndarray:
    """sign(v) (|v| - theta)_+ at unit l2 norm, for the level theta = max|v| - tau."""
    mags = np.abs(v)
    w = np.sign(v) * np.maximum(tau - (mags.max() - mags), 0.0)
    return w / np.linalg.norm(w)


def _ratio_fit(v, u, R: float) -> np.ndarray:
    """Unit vector nearest v's direction with l1/l2 ratio <= R, for u = sort(|v|) descending.

    v normalized if its ratio fits (slack 1e-15), else its normalized soft thresholding at
    ratio R.  Neither depends on scale, so both are found at project_l2's unit scale.
    """
    e = math.frexp(u[0])[1]
    unit = np.ldexp(v, -e)
    ball = unit * (1.0 / np.linalg.norm(unit))
    if np.abs(ball).sum() <= R + 1e-15:
        return ball
    # ldexp(u) stays sorted; it is taken on the ascending sort, as numpy's ldexp is several
    # times slower on the reversed view
    return _normalized_soft(unit, _sorted_depth(np.ldexp(u[::-1], -e)[::-1], R))


def project_l1_l2(v, R: float) -> np.ndarray:
    """Nearest point of {||w||_1 <= R} intersected with the unit l2 ball.

    If projecting onto one ball alone already lands inside the other, that
    point is the exact answer (it minimizes distance over a superset of the
    intersection while lying in it).  Otherwise both constraints are tight and
    the KKT conditions make the answer the soft thresholding of v, rescaled to
    unit l2 norm, at the level where its l1/l2 ratio is R.
    """
    v, mags, total, u = _sorted_magnitudes(v, R)
    if total <= R:
        cand = v.copy()
    else:
        head = _head_l1_level(u, R)
        rho, level = head or _l1_level(u, R)
        if head is not None:
            # the head scan leaves the candidate nonzero on its rho leading entries only, so
            # their l2 norm picks the branch, unless rounding could put it on either side of 1
            kept = u[:rho].tolist()
            norm = math.hypot(*[(x - kept[0]) - level for x in kept])
            if abs(norm - 1.0) > 1e-12:
                return _l1_soft(v, mags, u[0], level) if norm < 1.0 else _ratio_fit(v, u, R)
        cand = _l1_soft(v, mags, u[0], level)
    if math.sqrt(cand.dot(cand)) <= 1.0 + 1e-15:  # np.linalg.norm's steps and bits
        return cand
    # the l1 candidate shrinks v, so here ||v||_2 > 1 and the l2 projection normalizes v
    return _ratio_fit(v, u, R)


def _tie_direction(k: int, R: float) -> np.ndarray:
    """Unit-norm weights for k magnitude-tied leaders, ||.||_1/||.||_2 = R < sqrt(k).

    In the limit of strictly sorted perturbations the weights are (p_j - x)_+
    with priorities p = (k, k-1, ..., 1), at the level x where their ratio is R.
    """
    p = np.arange(k, 0, -1, dtype=float)
    return _normalized_soft(p, _sorted_depth(p, R))


def max_linear_l1_l2(g, R: float) -> np.ndarray:
    """Maximizer of <g, w> over {||w||_1 <= R, ||w||_2 <= 1}.

    The maximizer is a normalized soft thresholding of g: w ~ sign(g)(|g|-theta)_+
    with theta = 0 when g's l1/l2 ratio already fits inside R, else the
    unique theta making the ratio R, as in project_l1_l2.  Ties at the top
    magnitude are broken toward earlier indices, the limit of sorted perturbations.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    ConstraintSet("l1l2", R)  # the one check on R
    if not g.any():
        raise ValueError("zero vector: maximizer undefined")
    mags = np.abs(g)
    u = np.sort(mags)[::-1]
    ties = np.flatnonzero(mags == u[0])
    if np.sqrt(ties.size) > R:
        # threshold lands inside the leading tie: weight only those entries
        w = np.zeros(g.size)
        w[ties] = np.sign(g[ties]) * _tie_direction(ties.size, R)
        return w
    return _ratio_fit(g, u, R)

"""The two feasible sets, their Euclidean projections, and linear maximization over them.

Two feasible sets appear throughout: the l1 ball {||w||_1 <= R} and its
intersection with the unit l2 ball.  ConstraintSet names one of them and its
radius; it is the only place that pairs each set with its projection.  Every
routine here is a soft thresholding of its input.  Each projection sorts the
magnitudes once.  Two levels come from scans over the sorted magnitudes: the
l1 ball's, and, where both constraints of the intersection are tight, the one
whose l1/l2 ratio is R, which the projection and the linear maximizer share
and which is then the root of one second-degree equation.

Both scans run in Python floats, in the float operations and order of a
cumulative-sum scan over all d, so their results carry its bits, and first
read only the leading _HEAD magnitudes.  The ratio scan is that one scan: it
converts the rest of the magnitudes only if it runs past the head.  The l1
level keeps a numpy scan over all d, which takes over when the level lies past
the head, as most do at large r on supports of about 150 entries, where a
Python scan is slower, or when rounding could make a later breakpoint pass.
project_l1_l2 takes its l1 candidate's l2 norm from the leading entries, and
builds the candidate for the exact test only when that norm is within 1e-12 of 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstraintSet",
    "project_l1",
    "project_l2",
    "project_l1_l2",
    "max_linear_l1_l2",
]


@dataclass(frozen=True)
class ConstraintSet:
    """Feasible set: the l1 ball of radius R ("l1"), or its intersection with the unit l2
    ball ("l1l2")."""

    kind: str
    R: float

    def __post_init__(self):
        if self.kind not in ("l1", "l1l2"):
            raise ValueError("kind must be 'l1' or 'l1l2'")
        if not 1.0 <= self.R < np.inf:
            raise ValueError(f"R must be >= 1 and finite, got {self.R}")

    def contains(self, w) -> bool:
        """Membership up to an absolute slack of 1e-8 on each norm."""
        w = np.asarray(w, dtype=float)
        ok = np.abs(w).sum() <= self.R + 1e-8
        if self.kind == "l1l2":
            ok = ok and np.linalg.norm(w) <= 1.0 + 1e-8
        return bool(ok)

    def project(self, v) -> np.ndarray:
        """Nearest point of the set: project_l1 or project_l1_l2 at radius R."""
        # the module global is read at each call, so a wrapper bound in its place sees it
        return (project_l1 if self.kind == "l1" else project_l1_l2)(v, self.R)


def _sorted_magnitudes(v, R: float):
    """v as floats, |v|, ||v||_1 and |v| sorted descending, after checking v and R."""
    v = np.asarray(v, dtype=float)
    if not R > 0:
        raise ValueError("radius must be positive")
    mags = np.abs(v)
    u = np.sort(mags)[::-1]
    if u.size and float(u[0]) * u.size < 2.0 ** 1023:  # below d max|v|, it cannot overflow
        total = mags.sum()
    else:  # np.errstate costs about 1 us, so only a sum that may overflow runs under it
        with np.errstate(over="ignore"):  # an overflow is reported below
            total = mags.sum()
    if not math.isfinite(total):
        raise ValueError("vector must be finite, with a finite l1 norm")
    return v, mags, total, u


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


def _soft(v, mags, top, depth: float) -> np.ndarray:
    """sign(v) (depth - (top - |v|))_+: the soft thresholding of v at the level top - depth,
    measured down from the top magnitude so that near-tied magnitudes keep their differences."""
    return np.sign(v) * np.maximum(depth - (top - mags), 0.0)


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
    return _soft(v, mags, u[0], -level)


def project_l2(v) -> np.ndarray:
    """Nearest point of the unit l2 ball: rescale iff outside, with the norm taken at unit scale.

    That is v / 2**e for max|v_j| in [2**(e-1), 2**e): exact, and the norm stays finite.
    """
    v = np.asarray(v, dtype=float)
    top = np.abs(v).max(initial=0.0)
    if not math.isfinite(top):
        raise ValueError("vector must be finite")
    e = math.frexp(top)[1]
    unit = np.ldexp(v, -e)
    n = np.linalg.norm(unit)
    return v.copy() if n <= np.ldexp(1.0, -e) else unit * (1.0 / n)


def _sorted_depth(u, R: float) -> float:
    """Depth tau below u_1 where (tau - (u_1 - u))_+ has l1/l2 ratio R, for u sorted descending.

    That is the soft thresholding (u - theta)_+ at the level theta = u_1 - tau,
    measured down from the top so that near-tied magnitudes keep their exact
    differences.  The ratio is nonincreasing in theta, so at the breakpoints
    theta = u_{k+1} it grows with the active count k; the first k whose ratio
    reaches R holds the level.  The scan's l1 and squared l2 norms at the
    breakpoints are sums of nonnegative terms in the gaps delta_k = u_k - u_{k+1},
    so they cannot cancel.  With the k largest entries active the ratio condition
    is one second-degree equation in tau, whose root is
    mean + R sd / sqrt(k - R^2) over their depths.  Where they are all tied the
    ratio is sqrt(k) = R on the whole interval and its breakpoint is taken.
    Past the last breakpoint every entry stays active, so tau may exceed the top
    there.  Needs sqrt(#entries tied at the top) <= R < sqrt(#entries).

    One scan in Python floats finds k, by the float operations of cumulative sums over all
    of u in their order; it converts u past the leading _HEAD entries only if it runs past
    them.  While the active entries all tie at the top, l1 is 0 and the ratio test void.
    """
    d = u.size
    x = u[:_HEAD].tolist()
    n = len(x)
    rr = R * R
    l1 = l2sq = 0.0
    for k in range(1, d + 1):
        if k == n:
            x += u[n:].tolist() + [0.0]  # the all-active interval runs on below 0
        gap = x[k - 1] - x[k]  # at the breakpoint theta = u_{k+1}
        kgap = k * gap
        l2sq += gap * (2.0 * l1 + kgap)  # sum_{j<=k} (u_j - u_{k+1})^2
        l1 += kgap  # sum_{j<=k} (u_j - u_{k+1})
        if l1 > 0.0 and l1 * l1 >= rr * l2sq:
            break  # else k = d: the last interval holds the level
    if x[k - 1] == x[0] or k <= rr:  # tied active entries, or no root: take the breakpoint
        return x[0] - x[k]
    t = u[0] - u[:k]  # depths of the active entries, exact near the top
    mean = np.add.reduce(t) / k  # numpy's mean and std, step for step, so with their bits
    dev = t - mean
    tau = float(mean + R * math.sqrt(np.add.reduce(dev * dev) / k) / math.sqrt(k - rr))
    if k < d:
        tau = min(tau, x[0] - x[k])
    return max(tau, float(t[-1]))


def _ratio_soft(v, u, R: float) -> np.ndarray:
    """sign(v) (|v| - theta)_+ at unit l2 norm, at the level theta where its l1/l2 ratio is
    R, for u = sort(|v|) descending."""
    w = _soft(v, np.abs(v), u[0], _sorted_depth(u, R))
    return w / np.linalg.norm(w)


def _ratio_fit(v, u, R: float, l1: float = 0.0) -> np.ndarray:
    """Unit vector nearest v's direction with l1/l2 ratio <= R, for u = sort(|v|) descending.

    v normalized if its ratio fits (slack 1e-15), else its normalized soft thresholding at
    ratio R.  Neither depends on scale, so both are found at project_l2's unit scale.
    A caller that has l1 = ||v||_1 skips the ratio test where l1 / top > R^2 (1 + 1e-9):
    as ||v||_2^2 <= top ||v||_1, the ratio then exceeds R by about 5e-10 R, far more than
    the test's rounding, so the test would fail.
    """
    e = math.frexp(u[0])[1]
    unit = np.ldexp(v, -e)
    if not l1 / u[0] > R * R * (1.0 + 1e-9):
        ball = unit * (1.0 / np.linalg.norm(unit))
        if np.abs(ball).sum() <= R + 1e-15:
            return ball
    # ldexp(u) stays sorted; it is taken on the ascending sort, as numpy's ldexp is several
    # times slower on the reversed view
    return _ratio_soft(unit, np.ldexp(u[::-1], -e)[::-1], R)


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
                return _soft(v, mags, u[0], -level) if norm < 1.0 else _ratio_fit(v, u, R, total)
        cand = _soft(v, mags, u[0], -level)
    if math.sqrt(cand.dot(cand)) <= 1.0 + 1e-15:  # np.linalg.norm's steps and bits
        return cand
    # the l1 candidate shrinks v, so here ||v||_2 > 1 and the l2 projection normalizes v
    return _ratio_fit(v, u, R, total)


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
        # the level lands inside the leading tie: in the limit of sorted perturbations the
        # weights are (p_j - x)_+ on the priorities p = (k, ..., 1), at ratio R
        p = np.arange(ties.size, 0, -1, dtype=float)
        w = np.zeros(g.size)
        w[ties] = np.sign(g[ties]) * _ratio_soft(p, p, R)
        return w
    return _ratio_fit(g, u, R)

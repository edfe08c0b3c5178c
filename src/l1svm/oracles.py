"""Brute-force reference implementations.

Nothing here is fast or scales past d = 3; these exist so the projections
and the linear maximizer can be cross-checked against exhaustive search, both
in the test suite and through the `check` command.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "grid_project",
    "angle_max_linear",
]

_ANGLES = 628_319  # angle_max_linear's grid: a step of about 1e-5 radians
_CHUNK = 65_536  # rows per block of the boundary search, which bounds its temporaries
_DIRECTIONS: dict[int, np.ndarray] = {}  # grid_project's coarse directions, keyed by d
_LOCK = threading.Lock()  # the check suites call grid_project from several threads


def _orthobasis(u: np.ndarray) -> list[np.ndarray]:
    # orthonormal complement of a unit vector, d = 2 or 3
    e = np.zeros_like(u)
    e[int(np.argmin(np.abs(u)))] = 1.0
    b1 = e - (e @ u) * u
    b1 /= np.linalg.norm(b1)
    if u.size == 2:
        return [b1]
    return [b1, np.cross(u, b1)]


def _directions(d: int) -> np.ndarray:
    """The coarse grid of ray directions for d = 2 or 3, built once per process (read-only)."""
    with _LOCK:
        if d not in _DIRECTIONS:
            if d == 2:
                th = np.arange(0.0, 2.0 * np.pi, 1e-3)
                U = np.stack([np.cos(th), np.sin(th)], axis=1)
            else:
                n = 700_000  # Fibonacci sphere lattice, ~4e-3 rad spacing
                i = np.arange(n, dtype=float)
                z = 1.0 - (2.0 * i + 1.0) / n
                ang = i * (np.pi * (3.0 - np.sqrt(5.0)))
                rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
                U = np.stack([rho * np.cos(ang), rho * np.sin(ang), z], axis=1)
            U.flags.writeable = False
            _DIRECTIONS[d] = U
        return _DIRECTIONS[d]


def _nearest_boundary(U: np.ndarray, v: np.ndarray, R: float, kind: str):
    # boundary point along each ray u: u * min(R/||u||_1, 1/||u||_2), searched
    # in blocks of _CHUNK rows; the first minimum wins, as in one argmin
    best_dist = np.inf
    for lo in range(0, len(U), _CHUNK):
        Uc = U[lo:lo + _CHUNK]
        t = R / np.abs(Uc).sum(axis=1)
        if kind == "l1l2":
            t = np.minimum(t, 1.0 / np.sqrt((Uc * Uc).sum(axis=1)))
        B = Uc * t[:, None]
        dist = ((B - v) ** 2).sum(axis=1)
        i = int(np.argmin(dist))
        if dist[i] < best_dist:
            best_dist, best, u = dist[i], B[i].copy(), Uc[i]
    return best, u


def grid_project(v, R: float, kind: str = "l1") -> np.ndarray:
    """Nearest feasible point by dense grid search over boundary directions (d <= 3).

    An infeasible point always projects onto the boundary, which the gauge
    parametrizes exactly as u * min(R/||u||_1, 1/||u||_2) over ray directions
    u.  A volume grid cannot certify tight tolerances here (its best feasible
    point sits a first-order step off the boundary), but the direction grid
    samples the boundary itself, so the error is governed by the angular
    resolution alone.  Each level re-grids the tangent plane of the incumbent
    direction with a 10x finer step and a window wide enough to keep the true
    optimum, whose grid displacement stays proportional to the step.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    if d not in (2, 3):
        raise ValueError("grid oracle only supports d = 2 or 3")
    if kind not in ("l1", "l1l2"):
        raise ValueError("kind must be 'l1' or 'l1l2'")
    if not R > 0:
        raise ValueError("radius must be positive")
    if not np.isfinite(v).all():
        raise ValueError("grid oracle needs a finite point")
    if np.abs(v).sum() <= R and (kind == "l1" or float(v @ v) <= 1.0):
        return v.copy()
    if d == 2:
        spacing = 1e-3
        levels = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
    else:
        spacing = 8e-3
        levels = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 2e-9)
    best, u0 = _nearest_boundary(_directions(d), v, R, kind)
    for step in levels:
        basis = _orthobasis(u0 / np.linalg.norm(u0))
        offs = np.arange(-25.0 * spacing, 25.0 * spacing + step / 2, step)
        if d == 2:
            A = offs[:, None] * basis[0][None, :]
        else:
            g1, g2 = np.meshgrid(offs, offs, indexing="ij")
            A = g1.reshape(-1, 1) * basis[0] + g2.reshape(-1, 1) * basis[1]
        best, u0 = _nearest_boundary(u0[None, :] + A, v, R, kind)
        spacing = step
    return best


def angle_max_linear(g, R: float) -> np.ndarray:
    """Maximizer of <g, w> over the d = 2 constraint set, by angle grid.

    Every extreme point of the set sits on the unit circle when R >= 1, so a
    dense sweep of _ANGLES angles suffices.
    """
    g = np.asarray(g, dtype=float)
    if g.size != 2:
        raise ValueError("angle oracle is 2-D only")
    theta = np.arange(_ANGLES) * (2.0 * np.pi / _ANGLES)
    W = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    vals = W @ g
    vals[np.abs(W).sum(axis=1) > R] = -np.inf
    return W[int(np.argmax(vals))]

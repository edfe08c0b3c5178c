"""Exact reference implementations by face enumeration, for 2 <= d <= 6.

Every face of the l1 ball of radius R is a support J with signs s on it.  Its affine hull
is {w : s . w_J = R, w = 0 off J}, and there are 3^d - 1 of them.  The projection onto the
l1 ball, or onto its intersection with the unit l2 ball, is the point itself, the point
scaled to the unit sphere, or a point in the relative interior of one face: either the
point's projection onto that face's hull, or the nearer of the two points of the hull's
unit sphere along that projection.  The linear maximizer over the intersection is likewise
g / ||g|| or the point of one hull's unit sphere furthest along g.  So a short list of
candidates, each in closed form on one face, holds the answer, and the oracles return the
best feasible one.  Nothing here sorts or soft-thresholds, so the oracles share no code
with `geometry`, which the tests and the `check` command compare against them.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "face_project",
    "face_max_linear",
]


def _faces(x, R: float):
    """x as floats; each face's signs S (zero off J), the point c = (R/|J|) s of its hull
    nearest the origin, the squared radius 1 - R^2/|J| of the hull's unit sphere, and x's
    component in the hull's directions, x_J - (s . x_J / |J|) s."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not 2 <= x.size <= 6:
        raise ValueError(f"face oracles support d = 2..6, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("face oracles need a finite point")
    if not 0.0 < R < np.inf:
        raise ValueError(f"radius must be positive and finite, got {R}")
    S = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=x.size)))
    S = S[S.any(axis=1)]
    k = np.abs(S).sum(axis=1)
    U = S * S * x - ((S @ x) / k)[:, None] * S
    return x, S, (R / k)[:, None] * S, 1.0 - R * R / k, U


def _on_faces(S: np.ndarray, W: np.ndarray) -> np.ndarray:
    # a point of a face's hull lies on the face when no entry has the opposite sign of s;
    # its l1 norm is then s . w = R
    return (S * W >= 0.0).all(axis=1)


def face_project(v, R: float, kind: str = "l1") -> np.ndarray:
    """Nearest point of the l1 ball of radius R ("l1") or of its intersection with the
    unit l2 ball ("l1l2") to v, among the candidates of every face."""
    if kind not in ("l1", "l1l2"):
        raise ValueError("kind must be 'l1' or 'l1l2'")
    v, S, C, r2, U = _faces(v, R)
    if np.abs(v).sum() <= R and (kind == "l1" or float(v @ v) <= 1.0):
        return v.copy()
    P = C + U  # v's projection onto each hull
    keep = _on_faces(S, P)
    if kind == "l1":
        W = P[keep]
    else:
        # on a hull, the squared distance to v is ||v - P||^2 + ||P - w||^2, whose only local
        # minimum on the hull's sphere is the point along P - c
        n = np.linalg.norm(U, axis=1)
        ring = (r2 >= 0.0) & (n > 0.0)
        sphere = C[ring] + U[ring] * (np.sqrt(r2[ring]) / n[ring])[:, None]
        u = v / np.linalg.norm(v)
        W = np.concatenate([P[keep & ((P * P).sum(axis=1) <= 1.0)],
                            sphere[_on_faces(S[ring], sphere)],
                            u[None] if np.abs(u).sum() <= R else np.empty((0, v.size))])
    return W[int(np.argmin(((W - v) ** 2).sum(axis=1)))].copy()


def face_max_linear(g, R: float) -> np.ndarray:
    """Maximizer of <g, w> over the intersection of the l1 ball of radius R with the unit
    l2 ball, among g / ||g|| and each hull's unit-sphere point along g's in-hull direction.

    Where g has no in-hull component, or the sphere shrinks to the hull's point c (R <= 1,
    |J| = 1), the candidate is c, which then attains the face's value.
    """
    g, S, C, r2, U = _faces(g, R)
    if not g.any():
        raise ValueError("face_max_linear needs a nonzero g")
    n = np.linalg.norm(U, axis=1)
    rows = r2 >= 0.0
    step = np.divide(np.sqrt(r2[rows]), n[rows], out=np.zeros(int(rows.sum())),
                     where=n[rows] > 0.0)
    W = C[rows] + U[rows] * step[:, None]
    W = W[_on_faces(S[rows], W)]
    u = g / np.linalg.norm(g)
    if np.abs(u).sum() <= R:
        W = np.concatenate([W, u[None]])
    return W[int(np.argmax(W @ g))].copy()

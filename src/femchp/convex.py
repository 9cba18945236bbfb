"""Certified Euclidean projection onto closed convex target sets in R^m.

A target set is the convex hull of finitely many generators (optionally
including the origin).  Every set with m = 1 is an interval and is
projected by clipping; for m >= 2 an active-set nearest-point iteration
over affine subproblems advances all rows of a batch together.
``project`` takes a point or a batch of rows and certifies every row
against the variational inequality

    (x - Px) . (z - Px) <= tol   for all generators z,

with tol = 1e-10 * (1 + |x|^2).  A row that fails raises CertificateError.
The statistics stay process-wide: every certified row counts once and
the worst slack seen is kept, both read through ``certificate_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import NodalField

__all__ = [
    "ConvexSet",
    "finite_hull",
    "hull_with_origin",
    "project",
    "worst_distance",
    "boundary_hull",
    "is_extreme",
    "check_variational_inequality",
    "CertificateError",
    "certificate_stats",
    "reset_certificate_stats",
    "CERT_REL_TOL",
]

CERT_REL_TOL = 1e-10
# ``project`` works on blocks of rows whose (rows x generators) arrays
# hold at most this many entries, or on single rows
_BLOCK = 1 << 17


class CertificateError(AssertionError):
    """A projection result failed its variational inequality certificate."""


@dataclass
class CertificateStats:
    projections: int = 0
    worst_slack: float = -np.inf   # max over projections of (dot - tol)

    def record(self, slacks: np.ndarray):
        """Count one certified projection per entry of ``slacks``."""
        self.projections += len(slacks)
        if len(slacks):
            self.worst_slack = max(self.worst_slack, float(slacks.max()))


_STATS = CertificateStats()


def certificate_stats() -> CertificateStats:
    return _STATS


def reset_certificate_stats() -> CertificateStats:
    global _STATS
    _STATS = CertificateStats()
    return _STATS


@dataclass(frozen=True)
class ConvexSet:
    """Closed convex set: the hull of the rows of ``generators``."""

    m: int
    generators: np.ndarray


def finite_hull(points) -> ConvexSet:
    """Convex hull of finitely many points in R^m (m >= 1).

    Exactly repeated rows are dropped, keeping each first occurrence in
    input order; distinct rows are all kept, however close.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("hull needs at least one generator point")
    if not np.isfinite(points).all():
        raise ValueError("hull generators contain non-finite entries")
    _, first = np.unique(points, axis=0, return_index=True)
    points = points[np.sort(first)]
    points.flags.writeable = False
    return ConvexSet(m=points.shape[1], generators=points)


def hull_with_origin(points) -> ConvexSet:
    """Convex hull of the given points together with the origin."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return finite_hull(np.vstack([points, np.zeros((1, points.shape[1]))]))


def _affine_coefficients(G: np.ndarray, act: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per row of X, the coefficients of its nearest point in the affine
    hull of the generators ``act`` names (-1 marks a free slot, which gets 0).

    Coefficients sum to one but may be negative.  The pseudo-inverse
    (rcond 1e-13) keeps affinely dependent active sets stable.
    """
    rows = np.arange(len(act))
    occ = act >= 0
    ref = occ.argmax(axis=1)
    P = G[act]
    p0 = P[rows, ref]
    Q = np.where(occ[:, :, None], P - p0[:, None], 0.0)
    rhs = Q @ (X - p0)[:, :, None]
    nu = (np.linalg.pinv(Q @ Q.transpose(0, 2, 1), rcond=1e-13) @ rhs)[:, :, 0]
    nu[rows, ref] = 1.0 - nu.sum(axis=1)
    return nu


def _project_hull(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Active-set nearest point iteration over the hull of the rows of G,
    run for all rows of X (k, m) together.

    Each row keeps at most m + 2 active generators and their convex
    weights; a row whose slots are full stops.
    """
    k, m = X.shape
    act = np.full((k, m + 2), -1)
    act[:, 0] = ((G - X[:, None]) ** 2).sum(axis=2).argmin(axis=1)
    lam = (act >= 0).astype(float)
    Y = G[act[:, 0]]
    tol = 1e-14 * (1.0 + np.einsum("ij,ij->i", X, X))
    rows = np.arange(k)
    for _ in range(20 * len(G) + 200):
        D = X[rows] - Y[rows]
        gap = D @ G.T
        gap -= np.einsum("ij,ij->i", Y[rows], D)[:, None]
        j = gap.argmax(axis=1)
        a = act[rows]
        go = ((gap.max(axis=1) > tol[rows])
              & (a != j[:, None]).all(axis=1) & (a < 0).any(axis=1))
        rows, j, a = rows[go], j[go], a[go]
        if not len(rows):
            break
        a[np.arange(len(rows)), (a < 0).argmax(axis=1)] = j
        w = lam[rows]
        # restore feasibility of the affine minimiser over the active set
        todo = np.arange(len(rows))
        for _ in range(2 * len(G) + 50):
            mu = _affine_coefficients(G, a[todo], X[rows[todo]])
            ok = (mu >= -1e-12).all(axis=1)
            v = np.clip(mu[ok], 0.0, None)
            w[todo[ok]] = v / v.sum(axis=1, keepdims=True)
            todo, mu = todo[~ok], mu[~ok]
            if not len(todo):
                break
            occ = a[todo] >= 0
            v = w[todo]
            shrink = v - mu
            ratio = np.divide(v, shrink, out=np.full_like(v, np.inf),
                              where=occ & (shrink > 1e-300))
            v += np.minimum(1.0, ratio.min(axis=1))[:, None] * (mu - v)
            keep = occ & (v > 1e-14)
            # numerical stall: drop the smallest coefficient
            stall = np.flatnonzero((keep == occ).all(axis=1))
            keep[stall, np.where(occ, v, np.inf)[stall].argmin(axis=1)] = False
            v = np.where(keep, v, 0.0)
            w[todo] = v / v.sum(axis=1, keepdims=True)
            a[todo] = np.where(keep, a[todo], -1)
        act[rows], lam[rows] = a, w
        Y[rows] = np.einsum("rs,rsk->rk", w, G[a])
    return Y


def check_variational_inequality(K: ConvexSet, x, Px):
    """Worst generator slack max_z (x - Px).(z - Px), per row.

    Takes a point (m,) and returns a float, or a batch (k, m) and returns
    shape (k,).  A row is certified when its slack is <= tol(x).
    """
    x = np.asarray(x, dtype=float)
    P = np.atleast_2d(np.asarray(Px, dtype=float))
    D = np.atleast_2d(x) - P
    gaps = D @ K.generators.T
    gaps -= np.einsum("ij,ij->i", D, P)[:, None]
    worst = gaps.max(axis=1)
    return worst if x.ndim == 2 else float(worst[0])


def project(K: ConvexSet, x) -> np.ndarray:
    """Euclidean projection onto K of a point (m,) or of each row of (k, m).

    Returns an array of the same shape.  Every row is certified before
    returning; a row that fails its certificate raises CertificateError.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != K.m:
        raise ValueError(f"points of shape {x.shape} given, set lives in R^{K.m}")
    if not np.isfinite(x).all():
        raise ValueError("cannot project a non-finite point")

    X = x.reshape(-1, K.m)
    G = K.generators
    P = np.empty_like(X)
    tol = CERT_REL_TOL * (1.0 + np.einsum("ij,ij->i", X, X))
    slack = np.empty(len(X))
    step = max(1, _BLOCK // len(G))
    for s in range(0, len(X), step):
        b = slice(s, s + step)
        if K.m == 1:
            P[b] = np.clip(X[b], G.min(), G.max())
        else:
            P[b] = _project_hull(G, X[b])
        slack[b] = check_variational_inequality(K, X[b], P[b]) - tol[b]
    _STATS.record(slack)
    if (slack > 0.0).any():
        i = int(np.argmax(slack))
        raise CertificateError(
            f"projection certificate failed for row {i}: slack "
            f"{slack[i] + tol[i]:.3e} exceeds {tol[i]:.3e}"
        )
    return P.reshape(x.shape)


# benchmarks/tracer.py wraps these two names and the benchmark's
# per-layer metric list still names them, so they stay as aliases of
# ``project`` until the benchmark traces ``project`` itself; nothing in
# the package calls them
project_point = project_field = project


def worst_distance(K: ConvexSet, x) -> tuple:
    """Largest distance from a row of ``x`` to K, and the first row at it.

    ``x`` is a batch (k, m) or one point.  Returns (0.0, None) when every
    row lies in K, and when there are no rows.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = np.linalg.norm(x - project(K, x), axis=1)
    if not d.size or d.max() <= 0.0:
        return 0.0, None
    i = int(np.argmax(d))
    return float(d[i]), i


def boundary_hull(field: NodalField, include_origin: bool = False) -> ConvexSet:
    """Convex hull of the field's boundary vertex values."""
    bvals = field.values[field.mesh.boundary_nodes]
    if include_origin:
        return hull_with_origin(bvals)
    return finite_hull(bvals)


def is_extreme(points, index: int, tol: float) -> bool:
    """Whether points[index] is an extreme point of the hull of all points.

    True exactly when the point stays at distance > tol from the hull of the
    other points (points within tol of it are ignored as duplicates).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not 0 <= index < len(points):
        raise IndexError(f"index {index} out of range [0, {len(points)})")
    p = points[index]
    dist = np.linalg.norm(points - p, axis=1)
    others = points[(dist > tol) & (np.arange(len(points)) != index)]
    if len(others) == 0:
        return True
    d, _ = worst_distance(finite_hull(others), p)
    return d > tol

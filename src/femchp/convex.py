"""Certified Euclidean projection onto closed convex target sets in R^m.

A target set is the convex hull of finitely many generators (optionally
including the origin).  Every set with m = 1 is an interval and is
projected by clipping; for m >= 2 an active-set nearest-point iteration
over affine subproblems advances all rows of a batch together.
``project`` takes a point or a batch of rows and certifies every row
against the variational inequality

    (x - Px) . (z - Px) <= tol   for all generators z,

with tol = 1e-10 * (1 + |x|^2).  A row that fails raises CertificateError.
``is_extreme`` runs the same block loop and certificate with a per-row
generator mask.  The statistics stay process-wide: every certified row
counts once and the worst slack seen is kept, both read through
``certificate_stats``.
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
# the block loop of ``project`` and ``is_extreme`` works on blocks of rows
# whose (rows x generators) arrays hold at most this many entries, or on
# single rows
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
    (rcond 1e-13) of the edge matrix itself, not of its normal matrix, keeps
    affinely dependent active sets stable without squaring the conditioning
    of nearly repeated generators; one step of iterative refinement against
    the residual in R^m keeps exact solutions exact on thin simplices.
    """
    rows = np.arange(len(act))
    occ = act >= 0
    ref = occ.argmax(axis=1)
    P = G[act]
    p0 = P[rows, ref]
    Qt = np.where(occ[:, :, None], P - p0[:, None], 0.0).transpose(0, 2, 1)
    M = np.linalg.pinv(Qt, rcond=1e-13)
    d = (X - p0)[:, :, None]
    nu = M @ d
    nu = (nu + M @ (d - Qt @ nu))[:, :, 0]
    nu[rows, ref] = 1.0 - nu.sum(axis=1)
    return nu


def _project_hull(G: np.ndarray, X: np.ndarray, off=None) -> np.ndarray:
    """Active-set nearest point iteration over the hull of the rows of G,
    run for all rows of X (k, m) together.

    Row r sees only the generators where ``off[r]`` is False (all of them
    when ``off`` is None) and must see at least one.  Each row keeps at
    most m + 2 active generators and their convex weights.  A row stops
    when its slots are full, or when the generator it added was dropped
    again, which leaves its active set and weights as they were.
    """
    k, m = X.shape
    d2 = ((G - X[:, None]) ** 2).sum(axis=2)
    if off is not None:
        d2[off] = np.inf
    act = np.full((k, m + 2), -1)
    act[:, 0] = d2.argmin(axis=1)
    del d2
    lam = (act >= 0).astype(float)
    Y = G[act[:, 0]]
    tol = 1e-14 * (1.0 + np.einsum("ij,ij->i", X, X))
    rows = np.arange(k)
    for _ in range(20 * len(G) + 200):
        D = X[rows] - Y[rows]
        gap = D @ G.T
        gap -= np.einsum("ij,ij->i", Y[rows], D)[:, None]
        if off is not None:
            gap[off[rows]] = -np.inf
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
        back = (a == act[rows]).all(axis=1)
        act[rows], lam[rows] = a, w
        Y[rows] = np.einsum("rs,rsk->rk", w, G[a])
        rows = rows[~back]
    return Y


def _worst_gaps(G: np.ndarray, X: np.ndarray, P: np.ndarray, off=None) -> np.ndarray:
    """Per row, the max of (x - Px).(z - Px) over the generators z it sees."""
    D = X - P
    gaps = D @ G.T
    gaps -= np.einsum("ij,ij->i", D, P)[:, None]
    if off is not None:
        gaps[off] = -np.inf
    return gaps.max(axis=1)


def check_variational_inequality(K: ConvexSet, x, Px):
    """Worst generator slack max_z (x - Px).(z - Px), per row.

    Takes a point (m,) and returns a float, or a batch (k, m) and returns
    shape (k,).  A row is certified when its slack is <= tol(x).
    """
    x = np.asarray(x, dtype=float)
    P = np.atleast_2d(np.asarray(Px, dtype=float))
    worst = _worst_gaps(K.generators, np.atleast_2d(x), P)
    return worst if x.ndim == 2 else float(worst[0])


def _certified(G: np.ndarray, X: np.ndarray, tol=None) -> np.ndarray:
    """The one block loop behind ``project`` and ``is_extreme``.

    Projects each row of X (k, m) onto the hull of the rows of G,
    certifies it and counts it in the statistics, on blocks of at most
    ``_BLOCK`` row x generator entries.  With ``tol``, row r sees only the
    generators farther than tol from it; a row that sees none stays NaN
    and is neither projected nor counted.
    """
    P = np.full_like(X, np.nan)
    cert = CERT_REL_TOL * (1.0 + np.einsum("ij,ij->i", X, X))
    slack = np.full(len(X), -np.inf)
    step = max(1, _BLOCK // len(G))
    for s in range(0, len(X), step):
        r, off = slice(s, s + step), None
        if tol is not None:
            off = np.linalg.norm(G - X[r, None], axis=2) <= tol
            sees = ~off.all(axis=1)
            r, off = s + np.flatnonzero(sees), off[sees]
        if G.shape[1] == 1:
            g = G[:, 0] if off is None else np.where(off, np.nan, G[:, 0])
            P[r] = np.clip(X[r], np.nanmin(g, axis=-1, keepdims=True),
                           np.nanmax(g, axis=-1, keepdims=True))
        else:
            P[r] = _project_hull(G, X[r], off)
        slack[r] = _worst_gaps(G, X[r], P[r], off) - cert[r]
        _STATS.record(slack[r])
    if (slack > 0.0).any():
        i = int(np.argmax(slack))
        raise CertificateError(
            f"projection certificate failed for row {i}: slack "
            f"{slack[i] + cert[i]:.3e} exceeds {cert[i]:.3e}"
        )
    return P


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
    return _certified(K.generators, x.reshape(-1, K.m)).reshape(x.shape)


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


def is_extreme(points, index, tol: float):
    """Whether points[index] is an extreme point of the hull of all points.

    True exactly when the point stays at distance > tol from the hull of the
    other points (points within tol of it are ignored as duplicates).  An
    int ``index`` gives a bool, an array of indices a bool array.  All
    indices share one pass through ``project``'s block loop: each point is
    projected onto the hull of the generators of ``finite_hull(points)``
    farther than tol from it, and a point with none is extreme.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    index = np.asarray(index)
    bad = (index < 0) | (index >= len(points))
    if bad.any():
        raise IndexError(f"index {index[bad].flat[0]} out of range [0, {len(points)})")
    X = points[index.reshape(-1)]
    P = _certified(finite_hull(points).generators, X, tol)
    extreme = ~(np.linalg.norm(X - P, axis=1) <= tol)
    return bool(extreme[0]) if index.ndim == 0 else extreme

"""Certified Euclidean projection onto closed convex target sets in R^m.

A target set is the convex hull of finitely many generators (optionally
including the origin) or the scalar half-line (-inf, b].  Every set with
m = 1 is an interval and is projected by clipping; for m >= 2 an
active-set nearest-point iteration over affine subproblems projects one
row at a time.  ``project`` takes a point or a batch of rows and
certifies every row against the variational inequality

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
    "half_line",
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
# duplicate generators are collapsed below this relative spacing
_DEDUP_REL = 1e-14
# the certificate's (rows x generators) slack matrix is formed in blocks
# of at most this many entries
_VI_BLOCK = 1 << 20


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


def _dedup_points(points: np.ndarray) -> np.ndarray:
    """Rows of ``points`` in order, less any row within Chebyshev distance
    1e-14 * (1 + max |entry|) of a row kept before it."""
    scale = 1.0 + (np.abs(points).max() if points.size else 0.0)
    tol = _DEDUP_REL * scale
    kept = np.empty_like(points)
    n = 0
    for p in points:
        if n == 0 or np.abs(kept[:n] - p).max(axis=1).min() > tol:
            kept[n] = p
            n += 1
    return kept[:n]


@dataclass(frozen=True)
class ConvexSet:
    """Closed convex set: the hull of the rows of ``generators``.

    kind is 'hull' or 'half-line'; the half-line (-inf, b] has the two
    generators -inf and b.
    """

    kind: str
    m: int
    generators: np.ndarray
    includes_origin: bool = False


def finite_hull(points) -> ConvexSet:
    """Convex hull of finitely many points in R^m (m >= 1)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("hull needs at least one generator point")
    if not np.isfinite(points).all():
        raise ValueError("hull generators contain non-finite entries")
    points = _dedup_points(points)
    points.flags.writeable = False
    return ConvexSet(kind="hull", m=points.shape[1], generators=points)


def hull_with_origin(points) -> ConvexSet:
    """Convex hull of the given points together with the origin."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    points = np.vstack([points, np.zeros((1, points.shape[1]))])
    hull = finite_hull(points)
    return ConvexSet(kind="hull", m=hull.m, generators=hull.generators,
                     includes_origin=True)


def half_line(bound: float) -> ConvexSet:
    """The scalar half-line (-inf, bound]."""
    bound = float(bound)
    if not np.isfinite(bound):
        raise ValueError("half-line bound must be finite")
    generators = np.array([[-np.inf], [bound]])
    generators.flags.writeable = False
    return ConvexSet(kind="half-line", m=1, generators=generators)


def _affine_coefficients(P: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficients of the point of the affine hull of rows of P nearest x.

    Coefficients sum to one but may be negative.  Solved through least
    squares with rcond 1e-13 so affinely dependent active sets stay stable.
    """
    k = len(P)
    if k == 1:
        return np.ones(1)
    Q = P[1:] - P[0]
    rhs = Q @ (x - P[0])
    M = Q @ Q.T
    nu, *_ = np.linalg.lstsq(M, rhs, rcond=1e-13)
    mu = np.empty(k)
    mu[1:] = nu
    mu[0] = 1.0 - nu.sum()
    return mu


def _project_hull(points: np.ndarray, x: np.ndarray):
    """Active-set nearest point iteration over the hull of ``points``."""
    d2 = ((points - x) ** 2).sum(axis=1)
    active = [int(np.argmin(d2))]
    lam = np.ones(1)
    max_outer = 20 * len(points) + 200

    y = points[active[0]]
    for _ in range(max_outer):
        gap = (points - y) @ (x - y)
        j = int(np.argmax(gap))
        if gap[j] <= 1e-14 * (1.0 + x @ x) or j in active:
            break
        active.append(j)
        lam = np.append(lam, 0.0)

        # restore feasibility of the affine minimiser over the active set
        for _ in range(2 * len(points) + 50):
            mu = _affine_coefficients(points[active], x)
            if (mu >= -1e-12).all():
                lam = np.clip(mu, 0.0, None)
                s = lam.sum()
                lam = lam / s if s > 0 else np.ones(len(active)) / len(active)
                break
            shrink = lam - mu
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(shrink > 1e-300, lam / shrink, np.inf)
            alpha = min(1.0, float(ratio.min()))
            lam = lam + alpha * (mu - lam)
            keep = lam > 1e-14
            if keep.all():
                # numerical stall: drop the smallest coefficient
                keep[int(np.argmin(lam))] = False
            active = [a for a, k_ in zip(active, keep) if k_]
            lam = lam[keep]
            s = lam.sum()
            lam = lam / s if s > 0 else np.ones(len(active)) / len(active)
        y = lam @ points[active]
    return y


def check_variational_inequality(K: ConvexSet, x, Px):
    """Worst generator slack max_z (x - Px).(z - Px), per row.

    Takes a point (m,) and returns a float, or a batch (k, m) and returns
    shape (k,).  A row is certified when its slack is <= tol(x).  A row
    with x = Px has slack 0, also against an infinite generator.
    """
    x = np.asarray(x, dtype=float)
    P = np.atleast_2d(np.asarray(Px, dtype=float))
    D = np.atleast_2d(x) - P
    G = K.generators
    worst = np.empty(len(D))
    step = max(1, _VI_BLOCK // len(G))
    for s in range(0, len(D), step):
        d = D[s:s + step]
        with np.errstate(invalid="ignore"):
            gaps = d @ G.T - np.einsum("ij,ij->i", d, P[s:s + step])[:, None]
        worst[s:s + step] = np.where(np.isnan(gaps), 0.0, gaps).max(axis=1)
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
    if K.m == 1:
        P = np.clip(X, G.min(), G.max())
    else:
        P = np.array([_project_hull(G, row) for row in X]).reshape(X.shape)

    tol = CERT_REL_TOL * (1.0 + np.einsum("ij,ij->i", X, X))
    slack = check_variational_inequality(K, X, P) - tol
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

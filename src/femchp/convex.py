"""Certified Euclidean projection onto closed convex target sets in R^m.

A target set is the convex hull of finitely many generators (optionally
including the origin).  Every set with m = 1 is an interval and is
projected by clipping; for m >= 2 an active-set nearest-point iteration
over affine subproblems advances all rows of a batch together.  For
m = 2 and m = 3 ``project`` first reduces the generators to the vertices
of their polygon (Andrew's monotone chain) or polyhedron (Quickhull) and
locates each row in its fan triangulation from one vertex, built once per
call: a row inside starts the iteration from its simplex and ends it at
once, the others run it on the vertices alone.  The reduced hull is not
checked; flat, collinear and one-point sets, near-flat solids whose
Quickhull loses a facet's neighbour, empty fans and rows that fail their
certificate on the reduced hull run it on all the generators.
``project`` takes a point or a batch of rows and certifies every row,
against all the generators, by the variational inequality

    (x - Px) . (z - Px) <= tol   for all generators z,

with tol = 1e-10 * (max|z|^2 + |x|^2), and, for m >= 2, checks that Px is
the convex combination of generators its active-set weights claim, so Px
lies in the set.  A row that fails either check raises CertificateError.
``is_extreme`` runs the same block loop once on the hull's vertices and
once per value within tol of a vertex.  The statistics stay
process-wide: every certified row counts once and the worst slack seen
is kept, both read through ``certificate_stats``.
"""

from __future__ import annotations

import threading
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
    "CertificateError",
    "certificate_stats",
    "reset_certificate_stats",
]

_CERT_REL_TOL = 1e-10
# the block loop of ``project`` and ``is_extreme`` works on blocks of rows
# whose (rows x generators) arrays hold at most this many entries, or on
# single rows
_BLOCK = 1 << 17
# the reduced hull's eps, relative to max|G|: Quickhull drops the points
# within it of the hull, and the fan keeps only simplices whose apex lies
# more than it beneath their facet; the hull is never checked, since the
# certificate is the gate
_HULL_REL_TOL = 1e-12


class CertificateError(AssertionError):
    """A projection result failed its variational inequality certificate."""


@dataclass
class CertificateStats:
    projections: int = 0
    worst_slack: float = -np.inf   # max over projections of (dot - tol)

    def record(self, slacks: np.ndarray):
        """Count one certified projection per entry of ``slacks``."""
        with _STATS_LOCK:
            self.projections += len(slacks)
            if len(slacks):
                self.worst_slack = max(self.worst_slack, float(slacks.max()))


_STATS = CertificateStats()
# ``experiment`` checks theorems in worker threads, which all record here
_STATS_LOCK = threading.Lock()


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


def _project_hull(G: np.ndarray, X: np.ndarray, start=None):
    """Active-set nearest point iteration over the hull of the rows of G,
    run for all rows of X (k, m) together.

    ``start`` (act0, lam0), both (k, s), warm-starts a row from the
    generators act0[r] with the convex weights lam0[r] if that point
    already passes the gap test that ends a row; every other row starts
    from its nearest generator.  The gap test is relative to the data:
    1e-14 * (max|G|^2 + |x|^2).  Each row keeps at most m + 2 active
    generators and their convex weights.  A row stops when its slots are
    full, or when the generator it added was dropped again, which leaves
    its active set and weights as they were.  Returns (P, act, lam): the
    nearest points (k, m), the active generator indices (k, m + 2; -1
    marks a free slot) and their weights, 0 on free slots.
    """
    k, m = X.shape
    tol = 1e-14 * (np.einsum("ij,ij->i", G, G).max() + np.einsum("ij,ij->i", X, X))
    act = np.full((k, m + 2), -1)
    lam = np.zeros((k, m + 2))
    warm = np.zeros(k, dtype=bool)
    if start is not None:
        s = start[0].shape[1]
        act[:, :s], lam[:, :s] = start
        Y = np.einsum("rs,rsk->rk", lam, G[act])
        # a warm start stands only where it already passes the loop's gap
        # test: its active weights need not minimise over their affine hull
        warm = (act[:, 0] >= 0) & (_worst_gaps(G, X, Y) <= tol)
        if warm.all():
            return Y, act, lam
    rows = np.flatnonzero(~warm)
    d2 = ((G - X[rows, None]) ** 2).sum(axis=2)
    act[rows], lam[rows] = -1, 0.0
    act[rows, 0] = d2.argmin(axis=1)
    lam[rows, 0] = 1.0
    del d2
    Y = np.einsum("rs,rsk->rk", lam, G[act])
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
            v = np.where(a[todo[ok]] >= 0, np.clip(mu[ok], 0.0, None), 0.0)
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
    return Y, act, lam


def _polygon(G: np.ndarray):
    """Vertices of the convex polygon spanned by the rows of G (k, 2), by
    Andrew's monotone chain on Python floats.

    Points on an edge and repeated points are dropped.  Returns (v, ring):
    the vertex indices in ascending input order, and the positions in v
    that list the vertices counter-clockwise.
    """
    pts = G.tolist()
    order = sorted(range(len(pts)), key=pts.__getitem__)
    ring = []
    for seq in (order, order[::-1]):
        chain = []
        for i in seq:
            (cx, cy) = pts[i]
            while len(chain) >= 2:
                (ax, ay), (bx, by) = pts[chain[-2]], pts[chain[-1]]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0:
                    break
                chain.pop()
            chain.append(i)
        ring += chain[:-1]
    v = np.sort(ring)
    return v, np.searchsorted(v, ring)


def _polyhedron(G: np.ndarray):
    """Vertices and facets of the convex polyhedron spanned by the rows of
    G (k, 3), by Quickhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 1996) on
    Python floats, or None when the rows span no solid, or when rounding
    on a near-flat solid leaves a visible facet with no neighbour across
    one of its edges (the visible set is then not a disc).

    The first tetrahedron joins the lowest x, the point farthest from it,
    the one farthest from their line and the one farthest from their plane;
    one numpy pass drops the points inside it and gives each other point
    to the facet it lies farthest beyond.  Then the farthest point beyond
    a facet is inserted at a time: the facets it sees by more than eps =
    1e-12 * max|G| go, a fan from it over their horizon replaces
    them, and their outside points move to the first new facet they lie
    beyond, or go.  A point within eps of the hull when it is reached is
    dropped, and so is a repeated point; one inserted before the points
    that leave it on a flat face stays a vertex.  A set whose first
    tetrahedron has a height within eps spans no solid.  Returns (v, F):
    the vertex indices in ascending input order, and per facet the
    positions in v of its corners, counter-clockwise seen from outside.
    """
    k = len(G)
    eps = _HULL_REL_TOL * float(np.abs(G).max())
    i0 = int(G[:, 0].argmin())
    R = G - G[i0]
    d = np.einsum("ij,ij->i", R, R)
    i1 = int(d.argmax())
    if not d[i1] > eps * eps:
        return None
    ex, ey, ez = R[i1].tolist()
    c = R @ np.array([[0.0, -ez, ey], [ez, 0.0, -ex], [-ey, ex, 0.0]])   # R x R[i1]
    d2 = np.einsum("ij,ij->i", c, c)
    i2 = int(d2.argmax())
    if not d2[i2] > eps * eps * d[i1]:
        return None
    h = R @ c[i2]
    i3 = int(np.abs(h).argmax())
    if not abs(h[i3]) > eps * np.sqrt(d2[i2]):
        return None
    if h[i3] < 0.0:
        i1, i2 = i2, i1
    pts = G.tolist()
    corners, planes, edge = [], [], {}

    def add(a, b, c):
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = pts[a], pts[b], pts[c]
        ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        s = (nx * nx + ny * ny + nz * nz) ** -0.5
        nx, ny, nz = nx * s, ny * s, nz * s
        f = len(corners)
        corners.append((a, b, c))
        # the offset carries eps: a point lies beyond the facet when n.x > offset
        planes.append((nx, ny, nz, nx * ax + ny * ay + nz * az + eps))
        edge[a * k + b] = edge[b * k + c] = edge[c * k + a] = f
        return f

    for a, b, c in ((i0, i1, i2), (i0, i3, i1), (i1, i3, i2), (i2, i3, i0)):
        add(a, b, c)
    N = np.array(planes)
    D = G @ N[:, :3].T - N[:, 3]
    far = D.argmax(axis=1)
    beyond = D[np.arange(k), far] > 0.0
    outside = [[], [], [], []]
    for i, f in zip(np.flatnonzero(beyond).tolist(), far[beyond].tolist()):
        outside[f].append(i)
    # per facet: 0 while alive, -1 once gone, the step that last found it hidden
    mark = [0] * 4
    stack = [f for f in range(4) if outside[f]]
    step = 0
    while stack:
        f = stack.pop()
        if mark[f] < 0:
            continue
        step += 1
        nx, ny, nz, _ = planes[f]
        top = -np.inf
        for i in outside[f]:
            x, y, z = pts[i]
            q = nx * x + ny * y + nz * z
            if q > top:
                top, p = q, i
        px, py, pz = pts[p]
        mark[f] = -1
        visible, horizon = [f], []
        for g in visible:
            a, b, c = corners[g]
            for s, t in ((a, b), (b, c), (c, a)):
                n = edge.get(t * k + s)
                if n is None:
                    return None
                m = mark[n]
                if m < 0:
                    continue
                if m != step:
                    hx, hy, hz, ho = planes[n]
                    if hx * px + hy * py + hz * pz > ho:
                        mark[n] = -1
                        visible.append(n)
                        continue
                    mark[n] = step
                horizon.append((s, t))
        new = [add(s, t, p) for s, t in horizon]
        mark += [0] * len(new)
        fresh = [(planes[n], []) for n in new]
        outside += [o for _, o in fresh]
        for g in visible:
            for i in outside[g]:
                if i == p:
                    continue
                qx, qy, qz = pts[i]
                for (hx, hy, hz, ho), o in fresh:
                    if hx * qx + hy * qy + hz * qz > ho:
                        o.append(i)
                        break
        stack += [n for n, (_, o) in zip(new, fresh) if o]
    v, F = np.unique([c for c, m in zip(corners, mark) if m >= 0], return_inverse=True)
    return v, F.reshape(-1, 3)


def _fan(W: np.ndarray, F: np.ndarray):
    """The fan triangulation from W[0] of a hull with vertices W (n, m):
    W[0] joined to each facet of F, the facets that ``_reduced_hull`` finds
    W[0] more than eps beneath, so that every simplex has a volume well
    above rounding and an invertible edge matrix.  The fan of a wrong hull
    only gives wrong starts, which the certificate catches.  Returns
    (S, E, Inv): per simplex its vertex positions (0, a, ...) in W, its
    edge matrix (rows W[a] - W[0]) and the inverse.
    """
    E = W[F] - W[0]
    return np.column_stack([np.zeros_like(F[:, 0]), F]), E, np.linalg.inv(E)


def _locate(W: np.ndarray, fan, X: np.ndarray):
    """Per row of X (k, m), the simplex of the hull W's ``fan`` that holds
    it, and its barycentric weights.

    A row lies in the cone of the first simplex where its coordinates c in
    the edge basis are >= 0, and in the simplex if 1 - sum(c) >= 0 too.
    The weights get one step of iterative refinement against the residual,
    which keeps them accurate in thin simplices, and are clipped at 0 and
    renormalised.  Returns (simp, w), both (k, m + 1): the vertex
    positions in W and the weights, or -1 and zero weights for a row
    outside the hull.  Rounding can misplace a row near a face of the fan,
    so the weights are only a start that ``_project_hull`` tests.
    """
    S, E, Inv = fan
    R = X - W[0]
    # C[i, r, f] is row r's coordinate on edge i of simplex f: with the
    # edges first, the cone test reduces over contiguous (r, f) planes
    C = R @ Inv.transpose(2, 1, 0)
    cone = (C >= 0.0).all(axis=0)
    t = cone.argmax(axis=1)
    c = C[:, np.arange(len(X)), t].T
    found = (cone.any(axis=1) & (c.sum(axis=1) <= 1.0))[:, None]
    c += np.einsum("rj,rji->ri", R - np.einsum("ri,rij->rj", c, E[t]), Inv[t])
    w = np.clip(np.column_stack([1.0 - c.sum(axis=1), c]), 0.0, None)
    return np.where(found, S[t], -1), np.where(found, w / w.sum(axis=1, keepdims=True), 0.0)


def _reduced_hull(G: np.ndarray):
    """The vertices of the hull of the rows of G (k, m) and its fan, for
    m = 2 generators that span a polygon and m = 3 ones that span a solid;
    None for any other set, when ``_polyhedron`` gives up on a near-flat
    solid, and when the fan keeps no simplex (a thin one may have none).

    The facets are oriented outward: for m = 2 the counter-clockwise edges
    (ring[i], ring[i + 1]) of ``_polygon``, for m = 3 the triangles of
    ``_polyhedron``.  The hull is not checked against the generators: it
    only decides where ``_project_hull`` runs and where it starts, and the
    certificate in ``_certified`` reads every generator.  Returns (v, fan):
    the vertex indices in G and the ``_fan`` of G[v].
    """
    m = G.shape[1]
    if m == 2:
        v, ring = _polygon(G)
        if len(v) < 3:
            return None
        F = np.column_stack([ring, np.roll(ring, -1)])
        A = G[v[ring]]
        N = (np.roll(A, -1, axis=0) - A)[:, ::-1] * [1.0, -1.0]
    elif m == 3:
        hull = _polyhedron(G)
        if hull is None:
            return None
        v, F = hull
        A, B, C = (G[v[F[:, j]]] for j in range(3))
        U, V = B - A, C - A
        N = U[:, [1, 2, 0]] * V[:, [2, 0, 1]] - U[:, [2, 0, 1]] * V[:, [1, 2, 0]]
    else:
        return None
    margin = _HULL_REL_TOL * np.abs(G).max() * np.sqrt(np.einsum("ij,ij->i", N, N))
    # -N . (G[v[0]] - A) = N . (A - G[v[0]]) is the fan simplex's
    # determinant up to the rounding of N, which a sliver facet's normal can
    # carry past the margin; a facet through G[v[0]] is dropped by index
    low = N @ G[v[0]] - np.einsum("ij,ij->i", N, A) < -margin
    fan = _fan(G[v], F[(F != 0).all(axis=1) & low])
    return (v, fan) if len(fan[0]) else None


def _worst_gaps(G: np.ndarray, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Per row, the max of (x - Px).(z - Px) over the generators z."""
    D = X - P
    gaps = D @ G.T
    gaps -= np.einsum("ij,ij->i", D, P)[:, None]
    return gaps.max(axis=1)


def _members(G: np.ndarray, P: np.ndarray, act: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per row, whether the weights ``lam`` on the generators ``act`` are
    convex, sit only on occupied slots and reproduce P."""
    Y = np.einsum("rs,rsk->rk", lam, G[act])
    return ((lam >= 0.0).all(axis=1) & ((lam == 0.0) | (act >= 0)).all(axis=1)
            & (np.abs(lam.sum(axis=1) - 1.0) <= 1e-12)
            & (np.linalg.norm(Y - P, axis=1) <= 1e-12 * (1.0 + np.linalg.norm(P, axis=1))))


def _certified(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The one block loop behind ``project`` and ``is_extreme``.

    Projects each row of X (k, m) onto the hull of the rows of G,
    certifies it against every row of G and counts it in the statistics,
    on blocks of at most ``_BLOCK`` row x generator entries.  Rows with
    m = 1 are clipped to [min G, max G], so they are members by
    construction; the others must pass ``_members`` on the weights of
    ``_project_hull``, mapped back to G's rows.  The certificate is the
    only gate.  m = 2 generators that span a polygon and m = 3 ones that
    span a solid are reduced once to the vertices of their hull
    (``_reduced_hull``), and ``_project_hull`` runs on those, warm-started
    from the simplex and weights ``_locate`` finds in the hull's fan, which
    is built once per call; a row whose membership or certificate then
    fails starts again on all of G.  Any other set runs on all of G.
    """
    P = np.empty_like(X)
    cert = _CERT_REL_TOL * (np.einsum("ij,ij->i", G, G).max() + np.einsum("ij,ij->i", X, X))
    slack = np.empty(len(X))
    member = np.ones(len(X), dtype=bool)
    step = max(1, _BLOCK // len(G))
    v, fan = _reduced_hull(G) or (np.arange(len(G)), None)
    W = G[v]
    for s in range(0, len(X), step):
        r = slice(s, s + step)
        if G.shape[1] == 1:
            P[r] = np.clip(X[r], G.min(), G.max())
        else:
            start = None if fan is None else _locate(W, fan, X[r])
            P[r], act, lam = _project_hull(W, X[r], start)
            member[r] = _members(G, P[r], np.where(act >= 0, v[act], -1), lam)
        slack[r] = _worst_gaps(G, X[r], P[r]) - cert[r]
        if fan is not None:
            # the reduced hull is never checked: a wrong one, or a near-flat
            # solid whose rim some generators lie past, fails the rows it
            # misplaces here, and they start again on all of G
            redo = s + np.flatnonzero(~member[r] | (slack[r] > 0.0))
            if len(redo):
                P[redo], act, lam = _project_hull(G, X[redo])
                member[redo] = _members(G, P[redo], act, lam)
                slack[redo] = _worst_gaps(G, X[redo], P[redo]) - cert[redo]
        _STATS.record(slack[r])
    if not member.all():
        i = int(np.argmin(member))
        raise CertificateError(
            f"projection membership failed for row {i}: its weights do not make it "
            f"a convex combination of the generators"
        )
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


def boundary_hull(field: NodalField) -> ConvexSet:
    """Convex hull of the field's boundary vertex values."""
    return finite_hull(field.values[field.mesh.boundary_nodes])


def is_extreme(points, index, tol: float) -> np.ndarray:
    """Per entry of the index array, whether points[index] is an extreme
    point of the hull of all points.

    True exactly when the point stays at distance > tol from the hull of the
    other points (points within tol of it are ignored as duplicates).  A
    point farther than tol from every vertex of the hull (the interval's
    ends for m = 1, ``_reduced_hull``'s for m = 2 and 3, else every
    generator) lies in the hull of the points farther than tol from it, so
    all such points share one certified projection onto the vertices.  The
    others, and any that end more than tol from that hull, are each
    projected onto the hull of the generators farther than tol from them;
    one with none is extreme.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    index = np.asarray(index)
    bad = (index < 0) | (index >= len(points))
    if bad.any():
        raise IndexError(f"index {index[bad].flat[0]} out of range [0, {len(points)})")
    X = points[index]
    G = finite_hull(points).generators
    if G.shape[1] == 1:
        V = G[[G.argmin(), G.argmax()]]
    else:
        hull = _reduced_hull(G)
        V = G if hull is None else G[hull[0]]
    cand = np.zeros(len(X), dtype=bool)
    for w in V:
        cand |= np.linalg.norm(X - w, axis=1) <= tol
    sure = np.flatnonzero(~cand)
    cand[sure] = np.linalg.norm(X[sure] - _certified(V, X[sure]), axis=1) > tol
    extreme = np.zeros(len(X), dtype=bool)
    for i in np.flatnonzero(cand):
        far = np.linalg.norm(G - X[i], axis=1) > tol
        extreme[i] = not far.any() or np.linalg.norm(X[i] - _certified(G[far], X[i, None])) > tol
    return extreme

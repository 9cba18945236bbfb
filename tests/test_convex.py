import numpy as np
import pytest
from numpy.testing import assert_allclose

from femchp import convex
from femchp.convex import (
    CertificateError,
    _project_hull,
    boundary_hull,
    certificate_stats,
    check_variational_inequality,
    finite_hull,
    hull_with_origin,
    is_extreme,
    project,
    reset_certificate_stats,
    worst_distance,
)
from femchp.field import NodalField
from femchp.mesh import build_structured_mesh


def test_project_onto_segment():
    K = finite_hull(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert_allclose(project(K, [0.5, 1.0]), [0.5, 0.0], atol=1e-12)
    assert_allclose(project(K, [2.0, 1.0]), [1.0, 0.0], atol=1e-12)
    assert_allclose(project(K, [-3.0, 0.0]), [0.0, 0.0], atol=1e-12)
    assert_allclose(project(K, [0.25, 0.0]), [0.25, 0.0], atol=1e-12)


def test_project_onto_triangle():
    K = finite_hull(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    # foot of (2,2) on the hypotenuse x + y = 2
    assert_allclose(project(K, [2.0, 2.0]), [1.0, 1.0], atol=1e-12)
    assert_allclose(project(K, [0.5, 0.5]), [0.5, 0.5], atol=1e-12)
    assert_allclose(project(K, [-1.0, -1.0]), [0.0, 0.0], atol=1e-12)
    assert_allclose(project(K, [1.0, -5.0]), [1.0, 0.0], atol=1e-12)


def test_project_single_point_hull():
    K = finite_hull(np.array([[1.0, 2.0, 3.0]]))
    assert_allclose(project(K, [9.0, 9.0, 9.0]), [1.0, 2.0, 3.0], atol=1e-12)
    # constant data: every generator collapses onto one point
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        point = np.arange(1.0, m + 1.0)
        K = finite_hull(np.tile(point, (5, 1)))
        assert len(K.generators) == 1
        X = rng.normal(size=(6, m)) * 4.0
        assert_allclose(project(K, X), np.tile(point, (6, 1)), atol=1e-12)


def test_project_degenerate_duplicates_and_collinear():
    # collinear generators at m = 2, with duplicates
    K = finite_hull(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                              [0.5, 0.5], [1.0, 1.0]]))
    assert len(K.generators) == 3
    assert_allclose(project(K, [1.0, 0.0]), [0.5, 0.5], atol=1e-12)
    assert_allclose(project(K, [[3.0, 2.0], [-1.0, -2.0]]),
                    [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)
    # coplanar generators at m = 3: the unit square in the plane z = 1
    K = finite_hull(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                              [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
    X = np.array([[0.25, 0.5, 3.0], [2.0, 0.5, -1.0], [0.5, 0.5, 1.0]])
    assert_allclose(project(K, X), [[0.25, 0.5, 1.0], [1.0, 0.5, 1.0],
                                    [0.5, 0.5, 1.0]], atol=1e-12)


def test_interval():
    K = finite_hull(np.array([[3.0], [-1e6]]))
    assert K.m == 1
    assert_allclose(project(K, [5.0]), [3.0], atol=1e-15)
    assert_allclose(project(K, [2.0]), [2.0], atol=1e-15)
    assert_allclose(project(K, [-7.0]), [-7.0], atol=1e-15)
    assert_allclose(project(K, [-2e6]), [-1e6], atol=1e-15)
    assert worst_distance(K, [[3.0], [-1e6]]) == (0.0, None)
    assert worst_distance(K, [[3.0], [3.1], [3.1]]) == pytest.approx((0.1, 1))
    # an interval with lo == hi is one point
    P = finite_hull(np.array([[2.0], [2.0]]))
    assert_allclose(project(P, [[-1.0], [2.0], [5.0]]), [[2.0]] * 3, atol=0.0)


def test_hull_with_origin():
    K = hull_with_origin(np.array([[2.0], [3.0]]))
    assert_allclose(K.generators, [[2.0], [3.0], [0.0]], atol=0.0)
    assert_allclose(project(K, [-1.0]), [0.0], atol=1e-15)
    assert_allclose(project(K, [2.5]), [2.5], atol=1e-15)
    assert_allclose(project(K, [4.0]), [3.0], atol=1e-15)
    # plain hull of the same generators starts at 2
    P = finite_hull(np.array([[2.0], [3.0]]))
    assert_allclose(project(P, [0.0]), [2.0], atol=1e-15)


def test_contains():
    K = finite_hull(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    X = np.array([[0.5, 0.5], [1.0, 1.0], [1.001, 0.5]])
    d = np.linalg.norm(X - project(K, X), axis=1)
    assert_allclose(d, [0.0, 0.0, 0.001], atol=1e-12)
    assert worst_distance(K, X) == pytest.approx((0.001, 2))
    assert worst_distance(K, X[:2]) == (0.0, None)


def test_interval_clip_matches_active_set():
    rng = np.random.default_rng(9)
    for _ in range(50):
        gens = rng.normal(size=(int(rng.integers(1, 6)), 1)) * 3.0
        K = finite_hull(gens)
        X = rng.normal(size=(20, 1)) * 5.0
        ref = _project_hull(K.generators, X)
        assert_allclose(project(K, X), ref, rtol=0.0, atol=1e-14)


_LOCKSTEP_SETS = {
    "triangle": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]],
    "pentagon": [[np.cos(t), np.sin(t)] for t in np.linspace(0.0, 2.0 * np.pi, 6)[:-1]],
    "collinear2d": [[0.0, 0.0], [1.0, 2.0], [0.5, 1.0], [-1.0, -2.0]],
    "tetrahedron": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "cube": [[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)],
    "coplanar3d": [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0],
                   [0.5, 0.2, 1.0]],
    "collinear3d": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [3.0, 3.0, 3.0]],
}


@pytest.mark.parametrize("name", sorted(_LOCKSTEP_SETS))
def test_lockstep_batch_matches_rows_alone(name):
    G = np.array(_LOCKSTEP_SETS[name])
    m = G.shape[1]
    rng = np.random.default_rng(len(name))
    centroid = G.mean(axis=0)
    X = np.vstack([
        centroid,                                   # inside, or on a flat hull
        G[1],                                       # at a vertex
        0.5 * (G[0] + G[1]),                        # on an edge
        G[:m].mean(axis=0),                         # on a facet
        G[0] + 3.0 * (G[0] - centroid),             # beyond a vertex
        centroid + 1e3 * rng.normal(size=m),        # far outside
        centroid + 0.3 * rng.normal(size=(12, m)),  # a mix near the hull
    ])
    X = X[rng.permutation(len(X))]
    batch = _project_hull(G, X)
    alone = np.array([_project_hull(G, x[None])[0] for x in X])
    assert_allclose(batch, alone, rtol=0.0, atol=1e-13)
    reset_certificate_stats()
    assert_allclose(project(finite_hull(G), X), batch, rtol=0.0, atol=1e-13)
    assert certificate_stats().projections == len(X)
    assert certificate_stats().worst_slack <= 0.0


def test_blocks_match_one_block(monkeypatch):
    K = finite_hull(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 1.5]]))
    X = np.random.default_rng(4).normal(size=(40, 2)) * 3.0
    reset_certificate_stats()
    whole = project(K, X)
    monkeypatch.setattr(convex, "_BLOCK", 3 * len(K.generators))
    assert_allclose(project(K, X), whole, rtol=0.0, atol=1e-13)
    assert certificate_stats().projections == 2 * len(X)
    # a row failing in a later block is reported by its row in the batch
    inside = np.tile([0.5, 0.5], (12, 1))
    inside[7] = [5.0, 5.0]
    monkeypatch.setattr(convex, "_project_hull",
                        lambda G, X, off: np.where(X > 4.0, G[0], X))
    with pytest.raises(CertificateError, match="row 7:"):
        project(K, inside)
    assert certificate_stats().projections == 2 * len(X) + 12


def test_near_duplicate_generators_are_kept():
    one_ulp = np.nextafter(1.0, 2.0)
    K = finite_hull(np.array([[1.0, 0.0], [one_ulp, 0.0], [1.0, 1e-15],
                              [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]))
    assert_allclose(K.generators, [[1.0, 0.0], [one_ulp, 0.0], [1.0, 1e-15],
                                   [0.0, 1.0], [0.0, 0.0]], rtol=0.0, atol=0.0)
    K3 = finite_hull(np.array([[1.0, 0.0, 0.0], [one_ulp, 0.0, 0.0],
                               [1.0, 0.0, 1e-15], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert len(K3.generators) == 5
    rng = np.random.default_rng(8)
    reset_certificate_stats()
    for H in (K, K3):
        X = np.vstack([rng.normal(size=(30, H.m)) * 2.0,
                       H.generators[0] + 1e-3 * rng.normal(size=(10, H.m)),
                       np.eye(H.m)[0] * 2.0])
        P = project(H, X)
        assert_allclose(P[-1], np.eye(H.m)[0], rtol=0.0, atol=1e-15)
    assert certificate_stats().projections == 82
    assert certificate_stats().worst_slack <= 0.0


def test_is_extreme():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.5, 0.5], [0.5, 0.0]])
    for i in range(4):
        assert is_extreme(square, i, tol=1e-9)
    assert not is_extreme(square, 4, tol=1e-9)   # centroid
    assert not is_extreme(square, 5, tol=1e-9)   # edge midpoint


def _is_extreme_alone(points, index, tol):
    """One census node at a time: project points[index] onto the hull of
    the points farther than tol from it."""
    p = points[index]
    dist = np.linalg.norm(points - p, axis=1)
    others = points[(dist > tol) & (np.arange(len(points)) != index)]
    if len(others) == 0:
        return True
    d, _ = worst_distance(finite_hull(others), p)
    return d > tol


_TOL = 1e-9


def _census_case(name):
    rng = np.random.default_rng(len(name))
    if name.startswith("constant"):
        m = int(name[-1])
        return np.tile(np.arange(1.0, m + 1.0), (7, 1)), None
    if name == "circle":
        t = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
        return np.column_stack([np.cos(t), np.sin(t)]), None
    if name == "repeated-exactly":
        pts = rng.uniform(-1.0, 1.0, (12, 2))
        return np.vstack([pts, pts[[0, 3, 3, 7]]]), None
    if name == "repeated-within-tol":
        pts = rng.uniform(-1.0, 1.0, (12, 3))
        return np.vstack([pts, pts[:6] + 0.3 * _TOL * rng.normal(size=(6, 3)) / np.sqrt(3)]), None
    if name == "flat-m3":
        pts = rng.uniform(-1.0, 1.0, (15, 2))
        return np.column_stack([pts, pts @ [0.5, -2.0]]), None
    if name == "empty-index":
        return rng.uniform(-1.0, 1.0, (5, 2)), np.array([], dtype=int)
    if name == "right2d-1":
        mesh = build_structured_mesh("right2d", 1)
        return rng.uniform(-1.0, 1.0, (mesh.num_vertices, 2)), mesh.interior_nodes
    if name.startswith("near-repeated"):
        # a third of the points repeated 3 tol apart, which the tol mask
        # does not merge; the normal equations squared such a pair's edge
        # below the pseudo-inverse's cutoff, and the census raised
        seed = int(name[-4:])
        rng = np.random.default_rng(seed)
        m, n = 2 + seed % 2, 30 + seed % 40
        pts = rng.uniform(-1.0, 1.0, (n, m))
        return np.vstack([pts, pts[:n // 3] + 3.0 * _TOL * rng.standard_normal((n // 3, m))]), None
    m = int(name[-1])   # random-m<m>: a cloud plus points spread over its hull
    pts = rng.uniform(-1.0, 1.0, (25, m))
    return np.vstack([pts, 3.0 * rng.normal(size=(6, m))]), None


@pytest.mark.parametrize("name", [
    "constant-m1", "constant-m2", "constant-m3", "circle", "repeated-exactly",
    "repeated-within-tol", "flat-m3", "random-m1", "random-m2", "random-m3",
    "empty-index", "right2d-1", "near-repeated-1005", "near-repeated-1011",
    "near-repeated-1017"])
def test_census_matches_per_node_reference(name, monkeypatch):
    points, index = _census_case(name)
    if index is None:
        index = np.arange(len(points))
    expect = [_is_extreme_alone(points, int(i), _TOL) for i in index]
    reset_certificate_stats()
    got = is_extreme(points, index, _TOL)
    assert got.dtype == bool and got.shape == index.shape
    assert got.tolist() == expect
    if name.startswith(("constant", "circle")):
        assert got.all()
    # one certified projection per node that sees a point farther than tol
    dist = np.linalg.norm(points[index][:, None] - points, axis=2)
    seen = int((dist > _TOL).any(axis=1).sum())
    assert certificate_stats().projections == seen
    assert certificate_stats().worst_slack <= 0.0
    # one row per block gives the same census
    monkeypatch.setattr(convex, "_BLOCK", 1)
    assert is_extreme(points, index, _TOL).tolist() == expect
    for i, e in zip(index[:4], expect):
        assert is_extreme(points, int(i), _TOL) is e
    for bad in (len(points), -1):
        with pytest.raises(IndexError, match="out of range"):
            is_extreme(points, bad, _TOL)
        with pytest.raises(IndexError, match="out of range"):
            is_extreme(points, np.append(index, bad), _TOL)


def _normal_equations(G, act, X):
    """Affine coefficients from the normal equations alone, without
    refinement: on the input below this solve makes the iteration cycle."""
    rows = np.arange(len(act))
    occ = act >= 0
    ref = occ.argmax(axis=1)
    P = G[act]
    p0 = P[rows, ref]
    Q = np.where(occ[:, :, None], P - p0[:, None], 0.0)
    nu = (np.linalg.pinv(Q @ Q.transpose(0, 2, 1), rcond=1e-13)
          @ (Q @ (X - p0)[:, :, None]))[:, :, 0]
    nu[rows, ref] = 1.0 - nu.sum(axis=1)
    return nu


@pytest.mark.parametrize("solve", ["refined", "normal-equations"])
def test_a_dropped_generator_stops_the_row(solve, monkeypatch):
    rng = np.random.default_rng(58)
    pts = rng.uniform(-1.0, 1.0, (int(rng.integers(20, 120)), 2))
    K = finite_hull(np.delete(pts, 12, axis=0))
    inner = convex._affine_coefficients if solve == "refined" else _normal_equations
    calls = []

    def counted(G, act, X):
        calls.append(len(act))
        return inner(G, act, X)

    monkeypatch.setattr(convex, "_affine_coefficients", counted)
    d = np.linalg.norm(project(K, pts[12]) - pts[12])
    assert len(calls) <= 20
    assert d <= 1e-13


def test_thin_simplices_keep_their_accuracy():
    # a point strictly inside a thin triangle (barycentric 0.31 / 0.49 / 0.20)
    p = np.array([0.9988217002824133, 0.2020538074763143])
    T = finite_hull([[0.9983986365569166, 0.9072666791232531],
                     [0.9990067962371056, 0.1245616311317812],
                     [0.9990314186287432, -0.704814285925117]])
    assert np.linalg.norm(project(T, p) - p) <= 1e-15
    # the normal equations alone leave this node 6.1e-10 from its own
    # projection's certificate, and CertificateError follows
    points = np.random.default_rng(1).uniform(-1.0, 1.0, (4223, 2))
    assert is_extreme(points, 509, 1e-9) is False


def test_variational_inequality_measure():
    K = finite_hull(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    x = np.array([2.0, 2.0])
    good = check_variational_inequality(K, x, np.array([1.0, 1.0]))
    assert good <= 1e-12
    # an interior point pretending to be the projection violates the VI
    bad = check_variational_inequality(K, x, np.array([0.5, 0.5]))
    assert bad > 0.1
    # a batch gives one slack per row
    both = check_variational_inequality(K, np.array([x, x]), np.array([[1.0, 1.0], [0.5, 0.5]]))
    assert_allclose(both, [good, bad], atol=1e-15)
    # the interval [-1, 3]: a point left of its claimed projection is caught
    # by the generator -1, (1 - 3) * (-1 - 3) = 8; a point inside has slack 0
    H = finite_hull(np.array([[-1.0], [3.0]]))
    assert check_variational_inequality(H, [1.0], [3.0]) == 8.0
    assert check_variational_inequality(H, [1.0], [1.0]) == 0.0


def test_wrong_projection_raises(monkeypatch):
    K = finite_hull(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    monkeypatch.setattr(convex, "_project_hull",
                        lambda G, X, off: G[np.zeros(len(X), dtype=int)])
    with pytest.raises(CertificateError):
        project(K, np.array([[0.0, 0.0], [2.0, 2.0]]))


def test_certificate_stats_accumulate():
    reset_certificate_stats()
    K = finite_hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    rng = np.random.default_rng(2)
    for _ in range(50):
        project(K, rng.standard_normal(2) * 3.0)
    stats = certificate_stats()
    assert stats.projections == 50
    # a batch counts once per row, an empty batch not at all
    for k in (7, 0, 3):
        project(K, rng.standard_normal((k, 2)) * 3.0)
        project(finite_hull([[-1.0], [0.5]]), rng.standard_normal((k, 1)))
    assert stats.projections == 70
    assert stats.worst_slack <= 0.0
    reset_certificate_stats()
    assert certificate_stats().projections == 0


def test_project_field_and_boundary_hull(right2d_n2):
    vals = np.zeros((9, 1))
    vals[right2d_n2.boundary_nodes, 0] = np.linspace(1.0, 2.0, 8)
    vals[4, 0] = 5.0
    f = NodalField(right2d_n2, vals)
    K = boundary_hull(f)
    assert K.m == 1
    proj = f.with_values(project(K, f.values))
    assert_allclose(proj.values[4, 0], 2.0, atol=1e-12)
    assert_allclose(proj.values[right2d_n2.boundary_nodes],
                    vals[right2d_n2.boundary_nodes], atol=1e-12)
    K0 = boundary_hull(f, include_origin=True)
    assert_allclose(project(K0, [[0.0], [-1.0]]), [[0.0], [0.0]], atol=0.0)


def test_dimension_mismatch():
    K = finite_hull(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        project(K, [1.0, 2.0, 3.0])


def _sampled_distance(points, x, steps=2000):
    """Brute-force distance to hull(points) by dense barycentric sampling.

    Independent of the projection code: scans a barycentric grid over every
    segment and every triangle of the point set (their union covers the
    hull for planar point sets of this size).
    """
    pts = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    best = np.inf
    # try all triangles over the point set; degenerate ones contribute
    # their edges anyway via the segments below
    n = len(pts)
    t = np.linspace(0.0, 1.0, steps + 1)
    for i in range(n):
        for j in range(i + 1, n):
            seg = pts[i][None, :] + t[:, None] * (pts[j] - pts[i])[None, :]
            d = np.linalg.norm(seg - x[None, :], axis=1).min()
            best = min(best, float(d))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = pts[i], pts[j], pts[k]
                l1, l2 = np.meshgrid(t, t, indexing="ij")
                keep = l1 + l2 <= 1.0
                l1, l2 = l1[keep], l2[keep]
                grid = (np.outer(1.0 - l1 - l2, a) + np.outer(l1, b)
                        + np.outer(l2, c))
                d = np.linalg.norm(grid - x[None, :], axis=1).min()
                best = min(best, float(d))
    return best


def test_projection_against_dense_sampling():
    # hulls live in the unit square, query points sit at distance >= 2, so
    # the sampling error bound h^2 / (2 d) with h ~ 2e-3 stays below 1e-6
    rng = np.random.default_rng(14)
    queries = np.array([[3.5, 2.5], [-2.5, 3.0], [0.5, -2.5]])
    for trial in range(3):
        pts = rng.uniform(0.0, 1.0, size=(4, 2))
        K = finite_hull(pts)
        x = queries[trial]
        d_alg = float(np.linalg.norm(x - project(K, x)))
        d_samp = _sampled_distance(pts, x)
        assert d_alg <= d_samp + 1e-12
        assert abs(d_alg - d_samp) <= 1e-6, (trial, d_alg, d_samp)

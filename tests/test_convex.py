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
    half_line,
    hull_with_origin,
    is_extreme,
    project,
    reset_certificate_stats,
    worst_distance,
)
from femchp.field import NodalField


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


def test_half_line():
    K = half_line(3.0)
    assert K.kind == "half-line"
    assert K.m == 1
    assert_allclose(project(K, [5.0]), [3.0], atol=1e-15)
    assert_allclose(project(K, [2.0]), [2.0], atol=1e-15)
    assert_allclose(project(K, [-7.0]), [-7.0], atol=1e-15)
    assert worst_distance(K, [[3.0], [-1e6]]) == (0.0, None)
    assert worst_distance(K, [[3.0], [3.1], [3.1]]) == pytest.approx((0.1, 1))
    # an interval with lo == hi is one point
    P = finite_hull(np.array([[2.0], [2.0]]))
    assert_allclose(project(P, [[-1.0], [2.0], [5.0]]), [[2.0]] * 3, atol=0.0)


def test_hull_with_origin():
    K = hull_with_origin(np.array([[2.0], [3.0]]))
    assert K.includes_origin
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
        ref = np.array([_project_hull(K.generators, x) for x in X])
        assert_allclose(project(K, X), ref, rtol=0.0, atol=1e-14)


def test_is_extreme():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.5, 0.5], [0.5, 0.0]])
    for i in range(4):
        assert is_extreme(square, i, tol=1e-9)
    assert not is_extreme(square, 4, tol=1e-9)   # centroid
    assert not is_extreme(square, 5, tol=1e-9)   # edge midpoint


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
    # the half-line (-inf, 3]: a point left of its projection is caught by
    # the generator at -inf, a point inside has slack 0
    H = half_line(3.0)
    assert check_variational_inequality(H, [1.0], [3.0]) == np.inf
    assert check_variational_inequality(H, [1.0], [1.0]) == 0.0


def test_wrong_projection_raises(monkeypatch):
    K = finite_hull(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    monkeypatch.setattr(convex, "_project_hull", lambda pts, x: pts[0])
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
        project(half_line(0.5), rng.standard_normal((k, 1)))
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
    assert K0.includes_origin


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

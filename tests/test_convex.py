import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from femchp import convex
from femchp.convex import (
    CertificateError,
    _members,
    _project_hull,
    _worst_gaps,
    boundary_hull,
    certificate_stats,
    finite_hull,
    hull_with_origin,
    is_extreme,
    project,
    reset_certificate_stats,
    worst_distance,
)
from femchp.field import NodalField
from femchp.mesh import build_structured_mesh
from femchp.verify import verify_hull_with_zero


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
        ref = _project_hull(K.generators, X)[0]
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
    batch = _project_hull(G, X)[0]
    alone = np.array([_project_hull(G, x[None])[0][0] for x in X])
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
    # its weights are true: (0.5, 0.5) = 0.5 g0 + 0.25 g1 + 0.25 g2, and g0
    monkeypatch.setattr(convex, "_project_hull", lambda G, X: (
        np.where(X > 4.0, G[0], X), np.tile([0, 1, 2, -1], (len(X), 1)),
        np.where((X > 4.0).all(axis=1)[:, None], [1.0, 0.0, 0.0, 0.0],
                 [0.5, 0.25, 0.25, 0.0])))
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



def test_repeats_go_as_np_unique_finds_them():
    # integer-valued clouds with many repeats, some entries negated, so
    # that -0.0 and 0.0 both occur: they compare equal, and the first
    # occurrence is kept with its own sign
    rng = np.random.default_rng(17)
    for m in (1, 2, 3):
        for _ in range(30):
            pts = rng.integers(-2, 3, (int(rng.integers(1, 60)), m)).astype(float)
            pts[rng.random(pts.shape) < 0.3] *= -1.0
            _, first = np.unique(pts, axis=0, return_index=True)
            assert finite_hull(pts).generators.tobytes() == pts[np.sort(first)].tobytes()
    K = finite_hull([[-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [1.0, 0.0]])
    assert K.generators.tobytes() == np.array([[-0.0, 1.0], [1.0, -0.0]]).tobytes()

def test_polygon_keeps_the_corners():
    # the unit square's corners, listed counter-clockwise among its edge
    # midpoints and some interior points
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.25, 0.75],
                    [1.0, 0.5], [1.0, 1.0], [0.5, 1.0], [0.0, 1.0], [0.0, 0.5],
                    [0.9, 0.1]])
    v, ring = convex._polygon(pts)
    assert v.tolist() == [1, 3, 6, 8]
    assert v[ring].tolist() == [1, 3, 6, 8]
    # both fan triangles from (0, 0) turn counter-clockwise
    E = pts[v[ring]][1:] - pts[1]
    assert (E[:-1, 0] * E[1:, 1] - E[:-1, 1] * E[1:, 0]).tolist() == [1.0, 1.0]


# every fan triangle from this polygon's first vertex has positive area but
# one, whose area rounds to 0.0: its edge matrix is singular, though the
# facet normal's product gives it 8e-18, below the fan's margin
_ZERO_AREA_FAN = [[-0.6122836269743994, 0.2782100527778053],
                  [-0.17071131235775555, 0.0775679785126866],
                  [-0.17763023730512695, 0.08071180661778528],
                  [-0.5259402680158444, 0.23897727013493875],
                  [-0.2735405393146664, 0.12319323581853611]]

# a triangle that _polygon keeps whole, yet the determinant of its one fan
# triangle rounds to a value <= 0
_EMPTY_FAN = [[0.0008613646740562864, -1.5798269923315347],
              [0.41692231608258007, -0.5558897311862772],
              [0.23191761949486708, -1.0111912962135385]]


def _polygon_case(name):
    rng = np.random.default_rng(len(name))
    if name.startswith("random"):
        return rng.uniform(-1.0, 1.0, (int(name[7:]), 2))
    if name == "circle":
        t = np.linspace(0.0, 2.0 * np.pi, 65)[:-1]
        return 2.0 * np.column_stack([np.cos(t), np.sin(t)])
    if name == "collinear":
        return np.array([[0.0, 0.0], [1.0, 2.0], [0.5, 1.0], [-1.0, -2.0], [2.0, 4.0]])
    if name == "one-point":
        return np.array([[0.3, -0.2]])
    if name == "two-points":
        return np.array([[0.0, 0.0], [1.0, 1.0]])
    if name == "duplicates":
        square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
        return np.array(square + square[::2] + square[:1])
    if name == "near-duplicates":
        one_ulp = np.nextafter(1.0, 2.0)
        return np.array([[1.0, 0.0], [one_ulp, 0.0], [1.0, 1e-15], [0.0, 1.0],
                         [1.0, 0.0], [0.0, 0.0]])
    return np.array(_ZERO_AREA_FAN)


def _fan_of(G):
    """The hull vertices of G (m = 2 or 3), its facets and the fan that
    ``_reduced_hull`` builds."""
    if G.shape[1] == 2:
        v, ring = convex._polygon(G)
        F = np.column_stack([ring, np.roll(ring, -1)])
    else:
        v, F = convex._polyhedron(G)
    built = []
    with pytest.MonkeyPatch.context() as mp:
        _spy(mp, "_fan", built)
        convex._reduced_hull(G)
    return G[v], F, convex._fan(*built[0])


def _spy(monkeypatch, name, calls):
    """Wrap convex.<name> so that each call appends its arguments to calls."""
    real = getattr(convex, name)
    monkeypatch.setattr(convex, name, lambda *args: calls.append(args) or real(*args))


def _reduced_path_matches_the_plain_active_set(G, dedup, located, monkeypatch):
    # finite_hull drops exact repeats; a ConvexSet built directly keeps them
    m = G.shape[1]
    K = finite_hull(G) if dedup else convex.ConvexSet(m=m, generators=G)
    rng = np.random.default_rng(3)
    i, j = np.triu_indices(len(G), 1)
    X = np.vstack([
        G,                                          # at every generator
        0.5 * (G[i] + G[j]),                        # on edges and chords
        G.mean(axis=0) + 0.4 * rng.normal(size=(40, m)),
        G.mean(axis=0) + 1e3 * rng.normal(size=(5, m)),   # far outside
    ])
    calls = []
    _spy(monkeypatch, "_locate", calls)
    reset_certificate_stats()
    P = project(K, X)
    assert_allclose(P, _project_hull(K.generators, X)[0], rtol=0.0, atol=1e-13)
    assert certificate_stats().projections == len(X)
    assert certificate_stats().worst_slack <= 0.0
    # a set that spans no polygon or solid goes down the plain path on all
    # generators
    assert sum(len(args[2]) for args in calls) == (len(X) if located else 0)


_POLYGONS = ["random-3", "random-12", "random-80", "circle", "duplicates",
             "near-duplicates", "zero-area-fan"]
_NO_POLYGONS = ["collinear", "one-point", "two-points"]


@pytest.mark.parametrize("name", _POLYGONS + _NO_POLYGONS)
@pytest.mark.parametrize("dedup", [True, False], ids=["hull", "raw"])
def test_polygon_path_matches_the_plain_active_set(name, dedup, monkeypatch):
    _reduced_path_matches_the_plain_active_set(
        _polygon_case(name), dedup, name in _POLYGONS, monkeypatch)


def _rows_inside_need_no_affine_solve(m, monkeypatch):
    rng = np.random.default_rng(12)
    K = finite_hull(rng.uniform(-1.0, 1.0, (200, m)))
    # convex combinations of m + 1 generators at weights >= 0.1
    w = rng.dirichlet(np.ones(m + 1), 500) * (0.9 - 0.1 * m) + 0.1
    X = np.einsum("rs,rsk->rk", w, K.generators[rng.integers(0, 200, (500, m + 1))])
    calls = []
    _spy(monkeypatch, "_affine_coefficients", calls)
    # a located row is its own projection, bit for bit
    assert project(K, X).tobytes() == X.tobytes()
    assert calls == []
    project(K, X + 3.0 * np.eye(m)[0])
    assert calls


def test_rows_inside_the_polygon_need_no_affine_solve(monkeypatch):
    _rows_inside_need_no_affine_solve(2, monkeypatch)


def _a_wrong_location_is_mended(m, mutation, monkeypatch):
    # a located row is returned as itself on the word of its simplex and
    # weights, so a wrong claim of _locate fails _members and the row is
    # redone on all generators, never left at a wrong point
    rng = np.random.default_rng(21)
    K = finite_hull(rng.uniform(-1.0, 1.0, (40, m)))
    inner = 0.6 if m == 2 else 0.4
    X = np.vstack([rng.uniform(-inner, inner, (30, m)), 3.0 * rng.normal(size=(10, m))])
    ref = _project_hull(K.generators, X)[0]
    real = convex._locate
    calls = []

    def wrong(W, fan, X):
        simp, w = real(W, fan, X)
        calls.append(int((simp[:, 0] >= 0).sum()))
        if mutation in ("next-triangle", "another-tetrahedron"):
            # the fan simplex after the one it found
            S = fan[0]
            t = (simp[:, None] == S).all(axis=2).argmax(axis=1)
            simp = np.where(simp >= 0, S[(t + 1) % len(S)], -1)
        elif mutation == "all-on-one-vertex":
            simp = np.tile(np.arange(m + 1), (len(X), 1))
            w = np.tile(np.eye(m + 1)[0], (len(X), 1))
        elif mutation == "weights-reversed":
            w = w[:, ::-1]
        else:
            w = 1.5 * w
        return simp, w

    monkeypatch.setattr(convex, "_locate", wrong)
    assert_allclose(project(K, X), ref, rtol=0.0, atol=1e-13)
    assert calls and calls[0] > 0


@pytest.mark.parametrize("mutation", [
    "next-triangle", "all-on-one-vertex", "weights-reversed", "weights-sum-1.5"])
def test_a_wrong_location_is_mended(mutation, monkeypatch):
    _a_wrong_location_is_mended(2, mutation, monkeypatch)


@pytest.mark.parametrize("m", [2, 3])
def test_the_fan_is_built_once_per_call(m, monkeypatch):
    rng = np.random.default_rng(40 + m)
    K = finite_hull(rng.uniform(-1.0, 1.0, (30, m)))
    X = np.vstack([rng.uniform(-0.3, 0.3, (20, m)), 3.0 * rng.normal(size=(10, m))])
    ref = _project_hull(K.generators, X)[0]
    # _locate runs on blocks of 8 rows x fan simplices: four of them
    monkeypatch.setattr(convex, "_BLOCK", 8 * len(_fan_of(K.generators)[2][0]))
    built, located = [], []
    _spy(monkeypatch, "_fan", built)
    _spy(monkeypatch, "_locate", located)
    for _ in range(2):
        built.clear()
        located.clear()
        assert_allclose(project(K, X), ref, rtol=0.0, atol=1e-13)
        assert len(built) == 1
        assert [len(args[2]) for args in located] == [8, 8, 8, 6]



@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_certificate_reads_only_the_rows_that_move(m, monkeypatch):
    # a located row is its own projection and its gaps are exactly 0, so
    # the certificate reads G only for the rows _project_hull moved; an
    # interval's certificate reads its two ends
    rng = np.random.default_rng(60 + m)
    K = finite_hull(rng.uniform(-1.0, 1.0, (40, m)))
    X = np.vstack([rng.uniform(-0.3, 0.3, (30, m)), 3.0 + rng.uniform(0.0, 1.0, (10, m))])
    moved, read = [], []
    _spy(monkeypatch, "_project_hull", moved)
    _spy(monkeypatch, "_worst_gaps", read)
    P = project(K, X)
    if m == 1:
        assert moved == []
        ((ends, rows, _),) = read
        assert ends.tolist() == [[K.generators.min()], [K.generators.max()]]
        assert rows.tobytes() == X.tobytes()
    else:
        assert [args[1].tobytes() for args in read] == [args[1].tobytes() for args in moved]
        assert all(len(args[0]) == len(K.generators) for args in read)
        assert np.vstack([args[1] for args in read]).tobytes() == X[30:].tobytes()
        assert (P[:30] == X[:30]).all()

def test_a_thin_triangle_with_an_empty_fan_goes_down_the_plain_path(monkeypatch):
    G = np.array(_EMPTY_FAN)
    W, F, fan = _fan_of(G)
    assert len(W) == 3 and len(fan[0]) == 0
    built = []
    _spy(monkeypatch, "_fan", built)
    # the polygon is a triangle, so the fan is built, and then it is empty
    assert convex._reduced_hull(G) is None
    assert len(built) == 1
    rng = np.random.default_rng(6)
    X = np.vstack([G, G.mean(axis=0), G.mean(axis=0) + rng.normal(size=(20, 2))])
    K = finite_hull(G)
    assert_array_equal(project(K, X), _project_hull(K.generators, X)[0])


@pytest.mark.parametrize("m", [2, 3])
def test_fan_simplices_hold_the_rows_inside(m):
    # the fan from the first vertex of _ZERO_AREA_FAN meets one triangle of
    # zero area, and the one from the cube's first corner meets its faces
    # through that corner in tetrahedra of zero volume
    G = np.array(_ZERO_AREA_FAN if m == 2 else _polyhedron_case("cube"))
    W, F, fan = _fan_of(G)
    assert 0 < len(fan[0]) < (F != 0).all(axis=1).sum()
    rng = np.random.default_rng(2)
    if m == 2:
        # rows at the sliver's vertices can miss the cone test by rounding
        # and start cold; the path test covers them
        mid = G.mean(axis=0)
        inside = np.vstack([rng.dirichlet(np.ones(len(W)), 50) @ W, mid])
        normal = (W[1] - W[0])[::-1] * [1.0, -1.0]
        outside = np.vstack([mid + np.outer(rng.uniform(0.01, 1.0, 20), normal),
                             mid - np.outer(rng.uniform(0.01, 1.0, 20), normal),
                             2.0 * W[0] - mid, 2.0 * W[1] - mid])
    else:
        inside = np.vstack([rng.uniform(0.0, 1.0, (50, 3)), W, [[0.5, 0.5, 0.5]]])
        outside = np.vstack([rng.uniform(1.01, 2.0, (20, 3)), -rng.uniform(0.01, 1.0, (20, 3)),
                             [[0.5, 0.5, 1.5], [1.5, 0.5, 0.5]]])
    simp, w = convex._locate(W, fan, np.vstack([inside, outside]))
    assert (simp[:len(inside)] >= 0).all() and (simp[len(inside):] == -1).all()
    assert (w[len(inside):] == 0.0).all()
    t, w = simp[:len(inside)], w[:len(inside)]
    assert (t[:, 0] == 0).all() and (w >= 0.0).all()
    assert_allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert_allclose(np.einsum("rs,rsk->rk", w, W[t]), inside, rtol=0.0, atol=1e-15)
    # no row sits in a simplex of zero volume: the least nonzero one is
    # 4.9e-4 in the polygon's fan and 1/8 in the cube's
    least = 1e-4 if m == 2 else 0.1
    assert (np.linalg.det(W[t[:, 1:]] - W[t[:, :1]]) > least).all()


def test_polyhedron_keeps_the_corners():
    # the unit cube's corners among its face and edge midpoints: its faces
    # are split into coplanar facets, and the fan from vertex 0 meets the
    # faces through it in tetrahedra of zero volume
    G = np.array(_polyhedron_case("cube"))
    v, F = convex._polyhedron(G)
    corners = [[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)]
    assert all(c in G[v].tolist() for c in corners)
    # no face midpoint; an edge midpoint inserted before the corners that
    # make it flat may stay a vertex, on the boundary all the same
    assert (np.isin(G[v], [0.0, 1.0]).sum(axis=1) >= 2).all()
    # outward: the centre lies beneath every facet
    A, B, C = (G[v[F[:, j]]] for j in range(3))
    assert (np.einsum("ij,ij->i", np.cross(B - A, C - A), 0.5 - A) < 0.0).all()
    # closed: each directed edge once, and its reverse once
    edges = [(int(a), int(b)) for f in F for a, b in zip(f, np.roll(f, -1))]
    assert len(set(edges)) == 3 * len(F) and set(edges) == {(b, a) for a, b in edges}
    assert len(F) == 2 * len(v) - 4
    assert convex._reduced_hull(G) is not None


def _polyhedron_case(name):
    rng = np.random.default_rng(len(name))
    if name.startswith("random"):
        return rng.uniform(-1.0, 1.0, (int(name[7:]), 3))
    if name == "cube":
        # corners, face midpoints and edge midpoints of the unit cube
        return [[i, j, k] for i in (0.0, 0.5, 1.0) for j in (0.0, 0.5, 1.0)
                for k in (0.0, 0.5, 1.0) if [i, j, k].count(0.5) < 3]
    if name == "repeated-solid":
        tet = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
               [0.25, 0.25, 0.25]]
        return np.array(tet + tet[::2] + tet[:1])
    if name == "flat":
        return np.column_stack([rng.uniform(-1.0, 1.0, (12, 2)), np.full(12, 0.3)]) @ \
            np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if name == "collinear":
        return np.outer(rng.uniform(-1.0, 1.0, 6), [1.0, 2.0, -0.5]) + [0.1, 0.2, 0.3]
    if name == "one-point":
        return np.array([[0.3, -0.2, 0.1]])
    if name == "two-points":
        return np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    if name == "duplicates":
        # a triangle's corners, each repeated: many points, no solid
        tri = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        return np.array(tri * 3 + tri[:1])
    # the triangle again, with copies 1 ulp and 1e-15 off its plane
    one_ulp = np.nextafter(1.0, 2.0)
    return np.array([[1.0, 0.0, 0.0], [one_ulp, 0.0, 0.0], [1.0, 0.0, 1e-15],
                     [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


_SOLIDS = ["random-4", "random-12", "random-80", "cube", "repeated-solid"]
_NO_SOLIDS = ["flat", "collinear", "one-point", "two-points", "duplicates",
              "near-duplicates"]


@pytest.mark.parametrize("name", _SOLIDS + _NO_SOLIDS)
@pytest.mark.parametrize("dedup", [True, False], ids=["hull", "raw"])
def test_polyhedron_path_matches_the_plain_active_set(name, dedup, monkeypatch):
    _reduced_path_matches_the_plain_active_set(
        np.array(_polyhedron_case(name), dtype=float), dedup, name in _SOLIDS, monkeypatch)


def test_hull_with_the_origin_in_three_dimensions():
    # the origin is one generator of the hull that hull0 projects onto
    mesh = build_structured_mesh("kuhn3d", 2)
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 1.5, (mesh.num_vertices, 3))
    values[mesh.interior_nodes] = rng.uniform(-1.0, 1.5, (len(mesh.interior_nodes), 3))
    K = hull_with_origin(values[mesh.boundary_nodes])
    v, _ = convex._reduced_hull(K.generators)
    assert (K.generators[v] == 0.0).all(axis=1).any()
    X = np.vstack([values, -values, np.zeros((1, 3))])
    assert_allclose(project(K, X), _project_hull(K.generators, X)[0], rtol=0.0, atol=1e-13)
    rep = verify_hull_with_zero(mesh, NodalField(mesh, values))
    inner = values[mesh.interior_nodes]
    cold = np.linalg.norm(inner - _project_hull(K.generators, inner)[0], axis=1)
    assert rep.violation == pytest.approx(cold.max(), rel=0.0, abs=1e-13)
    assert rep.violation > rep.tol
    assert rep.worst_index == mesh.interior_nodes[cold.argmax()]


def test_rows_inside_the_polyhedron_need_no_affine_solve(monkeypatch):
    _rows_inside_need_no_affine_solve(3, monkeypatch)


@pytest.mark.parametrize("mutation", [
    "another-tetrahedron", "all-on-one-vertex", "weights-reversed", "weights-sum-1.5"])
def test_a_wrong_tetrahedron_is_mended(mutation, monkeypatch):
    _a_wrong_location_is_mended(3, mutation, monkeypatch)


def _torn(F):
    """The facets F of a polyhedron with those around its vertex at
    position 2 torn out: every generator still lies beneath every facet
    left, but the facets no longer close up."""
    return F[(F != 2).all(axis=1)]


@pytest.mark.parametrize("case", ["polygon-rebuilt", "polyhedron-rebuilt", "polyhedron-torn"])
def test_a_broken_reduced_hull_is_mended_by_the_certificate(case, monkeypatch):
    # the reduced hull is never checked against the generators; the rows a
    # broken one misplaces fail their certificate and start again on all G
    m = 2 if case.startswith("polygon") else 3
    rng = np.random.default_rng(30 + m)
    G = rng.uniform(-1.0, 1.0, (60, m))
    X = np.vstack([rng.uniform(-0.3, 0.3, (20, m)), 3.0 * rng.normal(size=(10, m)), G])
    name = "_polygon" if m == 2 else "_polyhedron"
    real = getattr(convex, name)
    v, F = real(G)
    if case.endswith("torn"):
        F = _torn(F)
    else:
        # the hull of the generators but one of its vertices
        keep = np.delete(np.arange(len(G)), v[2])
        v, F = real(G[keep])
        v = keep[v]
    monkeypatch.setattr(convex, name, lambda G: (v, F))
    assert convex._reduced_hull(G) is not None
    located, runs = [], []
    _spy(monkeypatch, "_locate", located)
    _spy(monkeypatch, "_project_hull", runs)
    reset_certificate_stats()
    P = project(finite_hull(G), X)
    assert located
    # a run on all of G redoes the rows a hull missing a vertex fails; the
    # torn hull keeps its vertices, so its rows only start cold
    redone = sum(len(args[1]) for args in runs if len(args[0]) == len(G))
    assert (redone > 0) == case.endswith("rebuilt")
    assert certificate_stats().projections == len(X)
    assert certificate_stats().worst_slack <= 0.0
    assert_allclose(P, _project_hull(G, X)[0], rtol=0.0, atol=1e-13)


def test_rows_a_near_flat_hull_fails_start_again_on_all_generators():
    # every generator lies within eps of every facet plane of this reduced
    # hull, yet past the rim of the near-flat solid some lie far outside it;
    # the rows that then fail their certificate start again on all of G
    rng = np.random.default_rng(3)
    G = rng.uniform(-1.0, 1.0, (17, 3)) * [1.0, 1.0, 1e-12]
    v, _ = convex._reduced_hull(G)
    assert np.linalg.norm(G - _project_hull(G[v], G)[0], axis=1).max() > 0.5
    X = np.vstack([G, 3.0 * rng.normal(size=(20, 3))])
    reset_certificate_stats()
    # the reduction may drop a generator within eps = 1e-12 * max|G| of its
    # planes
    assert_allclose(project(finite_hull(G), X), _project_hull(G, X)[0], rtol=0.0, atol=1e-11)
    assert certificate_stats().projections == len(X)
    assert certificate_stats().worst_slack <= 0.0


def _near_flat(seed, scale):
    """A random near-flat m = 3 set: 4 to 199 points uniform in [-1, 1]^3,
    z scaled by ``scale``; and the generator, for the points to project."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1.0, 1.0, (int(rng.integers(4, 200)), 3))
    G[:, 2] *= scale
    return G, rng


def test_a_near_flat_solid_quickhull_loses_runs_the_plain_path():
    # rounding leaves a facet this solid's Quickhull sees with no neighbour
    # across one edge; the horizon walk raised KeyError there, and project,
    # worst_distance and is_extreme with it
    G, rng = _near_flat(1237, 1e-11)
    assert len(G) == 192
    assert convex._polyhedron(G) is None and convex._reduced_hull(G) is None
    K = finite_hull(G)
    X = np.vstack([G, rng.uniform(-1.5, 1.5, (20, 3))])
    reset_certificate_stats()
    P = project(K, X)
    assert certificate_stats().projections == len(X)
    assert certificate_stats().worst_slack <= 0.0
    # no reduced hull: one block of rows on all generators, cold
    assert P.tobytes() == _project_hull(K.generators, X)[0].tobytes()
    assert worst_distance(K, G) == (0.0, None)
    d, i = worst_distance(K, X)
    assert i >= len(G) and d == np.linalg.norm(X - P, axis=1).max()
    index = np.arange(0, len(G), 8)
    assert is_extreme(G, index, _TOL).tolist() == [_is_extreme_alone(G, i, _TOL) for i in index]


def test_near_flat_solids_project_or_raise_a_certificate_error():
    # z scaled by 1e-9 ... 1e-13; seed 0 at 1e-11 is one of the sets whose
    # Quickhull raised KeyError.  A row that projects agrees with the plain
    # path; the tolerance is that of the certificate's gap test, not 1e-13:
    # on these sets both paths certify points up to about 3e-11 apart
    for seed in range(20):
        for scale in (1e-9, 1e-10, 1e-11, 1e-12, 1e-13):
            G, rng = _near_flat(seed, scale)
            X = np.vstack([G[:5], rng.uniform(-1.5, 1.5, (10, 3))])
            try:
                P = project(finite_hull(G), X)
            except CertificateError:
                continue
            assert_allclose(P, _project_hull(G, X)[0], rtol=0.0, atol=1e-10)


def test_is_extreme():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.5, 0.5], [0.5, 0.0]])
    # corners, then the centroid and an edge midpoint
    assert is_extreme(square, np.arange(6), tol=1e-9).tolist() == [True] * 4 + [False] * 2
    # tol 0 is a tolerance like any other
    assert is_extreme(square, np.arange(6), tol=0.0).tolist() == [True] * 4 + [False] * 2


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
    if name == "collinear-m2":
        t = rng.uniform(-1.0, 1.0, 14)
        return np.column_stack([t, 0.5 - 2.0 * t]), None
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
    "near-repeated-1017", "collinear-m2", "random-m4"])
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
        assert is_extreme(points, np.array([i]), _TOL).tolist() == [e]
    for bad in (len(points), -1):
        with pytest.raises(IndexError, match="out of range"):
            is_extreme(points, np.array([bad]), _TOL)
        with pytest.raises(IndexError, match="out of range"):
            is_extreme(points, np.append(index, bad), _TOL)



def _sweep_sets():
    """(name, points) for the conditioning sweep of ``project`` and the census."""
    rng = np.random.default_rng(2028)
    for k, gap in enumerate((1e-6, 1e-9, 1e-12, 1e-15, 0.0)):
        # m = 2 points within ``gap`` of a line, and one row exactly on it
        t = rng.uniform(-1.0, 1.0, 12 + k)
        off = gap * rng.standard_normal(len(t))
        yield f"near-collinear-{gap:g}", np.column_stack([t, 0.3 - 1.7 * t + off])
    for m in (2, 3):
        for f in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0):
            # a third of the points repeated f tol apart, along a random direction
            pts = rng.uniform(-1.0, 1.0, (15, m))
            u = rng.standard_normal((5, m))
            u *= f * _TOL / np.linalg.norm(u, axis=1, keepdims=True)
            yield f"repeated-{f:g}-tol-m{m}", np.vstack([pts, pts[:5] + u])
    for scale in (1e-6, 1e6):
        for m in (1, 2, 3):
            pts = rng.uniform(-1.0, 1.0, (20, m))
            yield f"scaled-{scale:g}-m{m}", scale * np.vstack([pts, 3.0 * rng.normal(size=(5, m))])
    for m in (1, 2, 3):
        for n in (1, 2):
            yield f"{n}-point-m{m}", rng.uniform(-1.0, 1.0, (n, m))


@pytest.mark.parametrize("name, points", list(_sweep_sets()),
                         ids=[name for name, _ in _sweep_sets()])
def test_ill_conditioned_sets_are_certified_and_census_matches(name, points):
    # every row of these sets passes its certificate (a row that did not
    # would raise CertificateError, never return), and agrees with the
    # plain active set on all generators
    scale = np.abs(points).max()
    X = np.vstack([points, scale * np.random.default_rng(7).uniform(-2.0, 2.0, (10, points.shape[1]))])
    K = finite_hull(points)
    reset_certificate_stats()
    P = project(K, X)
    assert certificate_stats().projections == len(X)
    assert certificate_stats().worst_slack <= 0.0
    if points.shape[1] > 1:
        assert_allclose(P, _project_hull(K.generators, X)[0], rtol=0.0, atol=1e-10 * scale)
    # a generator x passes the certificate at z = x only if
    # |x - Px|^2 <= 1e-10 (max|z|^2 + |x|^2)
    sq = np.einsum("ij,ij->i", points, points)
    assert (np.sum((points - P[:len(points)]) ** 2, axis=1) <= 1e-10 * (sq.max() + sq)).all()
    index = np.arange(len(points))
    expect = [_is_extreme_alone(points, i, _TOL) for i in index]
    assert is_extreme(points, index, _TOL).tolist() == expect



def _certified_on_every_generator(G, X):
    """The projection of ``_certified`` with every row certified against
    every generator in one block: the reference for the products it
    skips.  Returns (P, slack)."""
    m = G.shape[1]
    cert = convex._CERT_REL_TOL * (np.einsum("ij,ij->i", G, G).max()
                                   + np.einsum("ij,ij->i", X, X))
    P = np.clip(X, G.min(), G.max()) if m == 1 else X.copy()
    fan = None
    if m > 1:
        v, fan = convex._reduced_hull(G) or (np.arange(len(G)), None)
        act = np.full((len(X), m + 2), -1)
        lam = np.zeros(act.shape)
        if fan is not None:
            act[:, :m + 1], lam[:, :m + 1] = convex._locate(G[v], fan, X)
        out = np.flatnonzero(act[:, 0] < 0)
        P[out], act[out], lam[out] = _project_hull(G[v], X[out])
        member = _members(G, P, np.where(act >= 0, v[act], -1), lam)
    slack = _worst_gaps(G, X, P) - cert
    if fan is not None:
        redo = np.flatnonzero(~member | (slack > 0.0))
        P[redo] = _project_hull(G, X[redo])[0]
        slack[redo] = _worst_gaps(G, X[redo], P[redo]) - cert[redo]
    return P, slack


def _equivalence_cases():
    """(name, generators, rows) for the skipped-product equivalence."""
    rng = np.random.default_rng(2032)
    for m in (1, 2, 3):
        for n in (1, 2, 5, 40):
            G = rng.uniform(-1.0, 1.0, (n, m))
            w = rng.dirichlet(np.ones(n), 15)
            yield f"random-{n}-m{m}", G, np.vstack([
                G,                                      # on the generators
                w @ G,                                  # inside: x - Px = 0
                G.mean(axis=0) + rng.normal(size=(15, m)),
                3.0 * rng.normal(size=(5, m)),
            ])
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [2.0, -0.0], [-0.0, 3.0]])
    yield "signed-zeros-m1", np.array([[-0.0], [0.0], [1.0]]), np.vstack([zeros[:, :1], [[-2.0]]])
    yield "signed-zeros-m2", np.array([[0.0, -0.0], [1.0, 0.0], [-0.0, 1.0], [1.0, 1.0]]), zeros
    yield "signed-zeros-m3", np.array([[-0.0, 0.0, 0.0], [1.0, 0.0, -0.0], [0.0, 1.0, 0.0],
                                       [0.0, -0.0, 1.0]]), np.column_stack([zeros, -zeros[:, 0]])
    for name, points in _sweep_sets():
        scale = np.abs(points).max()
        yield name, points, np.vstack([points, scale * rng.uniform(-2.0, 2.0, (10, points.shape[1]))])


@pytest.mark.parametrize("name, G, X", list(_equivalence_cases()),
                         ids=[name for name, _, _ in _equivalence_cases()])
def test_skipped_products_leave_every_bit(name, G, X, monkeypatch):
    # a located row and an interval's inner generators add nothing to the
    # certificate: projections, per-row slacks and statistics are bitwise
    # those of the reference that reads every generator for every row; the
    # set is taken as given, repeats and signed zeros included
    K = convex.ConvexSet(m=G.shape[1], generators=G)
    P, slack = _certified_on_every_generator(G, X)
    recorded = []

    class Kept(convex.CertificateStats):
        def record(self, slacks):
            recorded.append(slacks.copy())
            super().record(slacks)

    stats = Kept()
    monkeypatch.setattr(convex, "_STATS", stats)
    assert project(K, X).tobytes() == P.tobytes()
    assert np.concatenate(recorded).tobytes() == slack.tobytes()
    assert stats.projections == len(X)
    assert repr(stats.worst_slack) == repr(float(slack.max()))

@pytest.mark.parametrize("name", ["circle", "random-m2", "random-m3"])
def test_a_census_hull_missing_a_vertex_matches_the_reference(name, monkeypatch):
    # without its first vertex the reduced hull no longer holds that value,
    # which ends farther than tol from it and goes on to the candidates
    points, _ = _census_case(name)
    index = np.arange(len(points))
    expect = [_is_extreme_alone(points, int(i), _TOL) for i in index]
    real = convex._reduced_hull

    def short(G):
        hull = real(G)
        sub = None if hull is None else real(G[hull[0][1:]])
        return None if sub is None else (hull[0][1:][sub[0]], sub[1])

    monkeypatch.setattr(convex, "_reduced_hull", short)
    assert is_extreme(points, index, _TOL).tolist() == expect


def test_a_census_on_a_torn_polyhedron_matches_the_reference(monkeypatch):
    # every hull the census builds has the facets around one vertex torn
    # out; the vertices stay right, and the rows the torn fan misses run the
    # active set on them
    points, _ = _census_case("random-m3")
    index = np.arange(len(points))
    expect = [_is_extreme_alone(points, int(i), _TOL) for i in index]
    real = convex._polyhedron

    def torn(G):
        hull = real(G)
        return None if hull is None else (hull[0], _torn(hull[1]))

    monkeypatch.setattr(convex, "_polyhedron", torn)
    assert is_extreme(points, index, _TOL).tolist() == expect


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
    # a census node of a random cloud: projected onto the values farther
    # than 1e-9 from it, the normal equations alone leave it 7.7e-10 from
    # itself and 6.1e-10 past its certificate's 3.0e-10
    points = np.random.default_rng(1).uniform(-1.0, 1.0, (4223, 2))
    x = points[509][None]
    G = finite_hull(points).generators
    G = G[np.linalg.norm(G - x, axis=1) > 1e-9]
    P, act, lam = _project_hull(G, x)
    cert = convex._CERT_REL_TOL * (np.einsum("ij,ij->i", G, G).max() + np.einsum("ij,ij->i", x, x))
    assert _worst_gaps(G, x, P) <= cert
    assert _members(G, P, act, lam).all()
    assert np.linalg.norm(P - x) <= 1e-13
    assert is_extreme(points, np.array([509]), 1e-9).tolist() == [False]


@pytest.mark.parametrize("path", ["reduced-hull", "plain"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_projection_is_scale_invariant(scale, m, path, monkeypatch):
    # the loop's gap test and the certificate scale with the data, so the
    # set and the points scaled together give the projection scaled
    if path == "plain":
        monkeypatch.setattr(convex, "_reduced_hull", lambda G: None)
    for seed in range(60):
        rng = np.random.default_rng(seed)
        G = rng.uniform(-1.0, 1.0, (int(rng.integers(m + 2, 40)), m))
        X = 2.0 * rng.normal(size=(20, m))
        assert (convex._reduced_hull(G) is None) == (path == "plain")
        ref = project(finite_hull(G), X)
        got = project(finite_hull(scale * G), scale * X) / scale
        assert_allclose(got, ref, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("scale", [1e-9, 1e-11])
def test_a_tiny_sphere_keeps_its_reduced_hull(scale):
    # the hull margin scales with the data: at eps = 1e-12 * (1 + max|G|)
    # 15 of these sets lost their reduced hull at radius 1e-9, and all 60
    # at radius 1e-11
    for seed in range(60):
        rng = np.random.default_rng(seed)
        U = rng.normal(size=(40, 3))
        G = scale * U / np.linalg.norm(U, axis=1, keepdims=True)
        hull = convex._reduced_hull(G)
        assert hull is not None and len(hull[0]) == len(G), seed
        X = scale * np.vstack([rng.uniform(-0.5, 0.5, (10, 3)), 2.0 * rng.normal(size=(10, 3))])
        reset_certificate_stats()
        P = project(finite_hull(G), X)
        assert certificate_stats().projections == len(X)
        assert certificate_stats().worst_slack <= 0.0
        assert_allclose(P, _project_hull(G, X)[0], rtol=0.0, atol=1e-13 * scale)


def test_variational_inequality_measure():
    G = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    x = np.array([[2.0, 2.0]])
    good = _worst_gaps(G, x, np.array([[1.0, 1.0]]))[0]
    assert good <= 1e-12
    # an interior point pretending to be the projection violates the VI
    bad = _worst_gaps(G, x, np.array([[0.5, 0.5]]))[0]
    assert bad > 0.1
    # a batch gives one slack per row
    both = _worst_gaps(G, np.vstack([x, x]), np.array([[1.0, 1.0], [0.5, 0.5]]))
    assert_allclose(both, [good, bad], atol=1e-15)
    # the interval [-1, 3]: a point left of its claimed projection is caught
    # by the generator -1, (1 - 3) * (-1 - 3) = 8; a point inside has slack 0
    H = np.array([[-1.0], [3.0]])
    assert _worst_gaps(H, np.array([[1.0]]), np.array([[3.0]]))[0] == 8.0
    assert _worst_gaps(H, np.array([[1.0]]), np.array([[1.0]]))[0] == 0.0


def test_wrong_projection_raises(monkeypatch):
    K = finite_hull(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    monkeypatch.setattr(convex, "_project_hull", lambda G, X: (
        G[np.zeros(len(X), dtype=int)], np.tile([0, -1, -1, -1], (len(X), 1)),
        np.tile([1.0, 0.0, 0.0, 0.0], (len(X), 1))))
    with pytest.raises(CertificateError):
        project(K, np.array([[0.0, 0.0], [2.0, 2.0]]))


def test_projection_left_unmoved_raises(monkeypatch):
    # the variational inequality alone holds trivially at Px = x; the
    # weights of the real projection no longer reproduce it
    K = finite_hull(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    real = convex._project_hull
    monkeypatch.setattr(convex, "_project_hull",
                        lambda G, X: (X,) + real(G, X)[1:])
    assert_allclose(project(K, [0.5, 0.5]), [0.5, 0.5], atol=0.0)
    with pytest.raises(CertificateError, match="membership failed for row 1:"):
        project(K, np.array([[0.5, 0.5], [3.0, 3.0]]))


@pytest.mark.parametrize("act, lam", [
    ([0, 1, 2, 3], [-0.5, 1.0, 0.5, 0.0]),     # a negative weight
    ([1, 3, -1, -1], [0.5, 0.5, 1e-16, 0.0]),  # weight on a free slot
    ([1, 3, 0, -1], [0.5, 0.5, 1e-11, 0.0]),   # weights summing to 1 + 1e-11
])
def test_bad_weights_raise(monkeypatch, act, lam):
    # (2, 1) is the true projection of (3, 1) onto the square and each
    # weight set reproduces it within 1e-15, yet none is a convex combination
    K = finite_hull(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]))
    monkeypatch.setattr(convex, "_project_hull", lambda G, X: (
        np.array([[2.0, 1.0]]), np.array([act]), np.array([lam])))
    with pytest.raises(CertificateError, match="membership failed for row 0:"):
        project(K, np.array([[3.0, 1.0]]))


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


def test_certificate_stats_lose_no_update_across_threads():
    # experiment's worker threads all record into the process-wide stats;
    # each thread records rising slacks, so an update lost between reading
    # and writing worst_slack would leave it below the largest one recorded
    workers, calls = 8, 3000

    def record_rising(stats, k):
        for i in range(calls):
            stats.record(np.array([float(i * workers + k), -1.0]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            stats = reset_certificate_stats()
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for fut in [pool.submit(record_rising, stats, k) for k in range(workers)]:
                    fut.result(timeout=60)
            assert stats.projections == 2 * workers * calls
            assert stats.worst_slack == float(calls * workers - 1)
    finally:
        sys.setswitchinterval(old)
        reset_certificate_stats()


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
    K0 = hull_with_origin(vals[right2d_n2.boundary_nodes])
    assert_allclose(project(K0, [[0.0], [-1.0]]), [[0.0], [0.0]], atol=0.0)


def test_dimension_mismatch():
    K = finite_hull(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        project(K, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("call, message", [
    (lambda: finite_hull(np.zeros((0, 2))), "hull needs at least one generator point"),
    (lambda: finite_hull(np.zeros((3, 0))), "hull generators need at least one coordinate"),
    (lambda: finite_hull([[0.0, np.nan], [1.0, 0.0]]),
     "hull generators contain non-finite entries"),
    (lambda: project(finite_hull([[0.0, 0.0], [1.0, 0.0]]), [np.inf, 0.0]),
     "cannot project a non-finite point"),
    (lambda: is_extreme(np.eye(3), 1, _TOL), "index must be a 1-D integer array"),
    (lambda: is_extreme(np.eye(3), np.array([[0, 1]]), _TOL), "index must be a 1-D integer array"),
    (lambda: is_extreme(np.eye(3), np.array([0.0, 1.0]), _TOL),
     "index must be a 1-D integer array"),
    (lambda: is_extreme(np.eye(3), np.array([True, False, True]), _TOL),
     "index must be a 1-D integer array"),
    (lambda: is_extreme(np.eye(3), np.arange(3), np.nan), "tol must be a finite number >= 0"),
    (lambda: is_extreme(np.eye(3), np.arange(3), -1.0), "tol must be a finite number >= 0"),
    (lambda: is_extreme(np.eye(3), np.arange(3), np.inf), "tol must be a finite number >= 0"),
    (lambda: finite_hull([0.0, 1.0]), re.escape("points must be a (k, m) array, got shape (2,)")),
    (lambda: hull_with_origin([0.0, 1.0]),
     re.escape("points must be a (k, m) array, got shape (2,)")),
    (lambda: is_extreme(np.array([0.0, 1.0]), np.arange(1), _TOL),
     re.escape("points must be a (k, m) array, got shape (2,)")),
], ids=["no-generators", "no-coordinates", "non-finite-generator", "non-finite-point",
        "scalar-index", "2-d-index", "float-index", "bool-index", "nan-tol", "negative-tol",
        "infinite-tol", "1-d-hull", "1-d-hull-with-origin", "1-d-extreme"])
def test_bad_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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

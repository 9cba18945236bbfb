import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from femchp.field import (
    BoundaryData,
    FieldFormatError,
    NodalField,
    eval_at_point,
    interpolate_boundary,
    load_field,
    save_field,
)
from femchp.mesh import build_structured_mesh


def affine_values(mesh, const, coeffs):
    const = np.atleast_1d(np.asarray(const, dtype=float))
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    return const[None, :] + mesh.vertices @ coeffs.T


def test_field_shape_checks(right2d_n2):
    with pytest.raises(ValueError):
        NodalField(right2d_n2, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        NodalField(right2d_n2, np.full((9, 1), np.nan))
    f = NodalField(right2d_n2, np.zeros(9))     # 1d input becomes (V, 1)
    assert f.values.shape == (9, 1)
    assert f.m == 1


def test_element_gradients_affine(right2d_n4):
    coeffs = np.array([[2.0, -1.0], [0.5, 3.0]])
    f = NodalField(right2d_n4, affine_values(right2d_n4, [1.0, -2.0], coeffs))
    grads = f.element_gradients()               # (E, n, m)
    for e in range(right2d_n4.num_elements):
        assert_allclose(grads[e], coeffs.T, atol=1e-12)


def test_gradient_on_element_hat(ref_triangle):
    f = NodalField(ref_triangle, np.array([0.0, 1.0, 0.0]))
    assert_allclose(f.element_gradients()[0], [[1.0], [0.0]], atol=1e-14)


def test_eval_at_point(ref_triangle):
    f = NodalField(ref_triangle, np.array([0.0, 1.0, 0.0]))
    assert_allclose(eval_at_point(f, [0.25, 0.25]), [0.25], atol=1e-14)
    assert_allclose(eval_at_point(f, [1.0, 0.0]), [1.0], atol=1e-14)
    with pytest.raises(ValueError):
        eval_at_point(f, [2.0, 2.0])
    with pytest.raises(ValueError):
        eval_at_point(f, [0.1, 0.1, 0.1])


def test_eval_matches_affine_everywhere(equilateral_n4):
    coeffs = np.array([[1.0, 2.0]])
    f = NodalField(equilateral_n4, affine_values(equilateral_n4, [0.5], coeffs))
    rng = np.random.default_rng(3)
    for _ in range(20):
        e = rng.integers(equilateral_n4.num_elements)
        lam = rng.dirichlet(np.ones(3))
        pt = lam @ equilateral_n4.vertices[equilateral_n4.elements[e]]
        expect = 0.5 + coeffs[0] @ pt
        assert_allclose(eval_at_point(f, pt), [expect], atol=1e-12)


def test_interpolate_boundary(right2d_n2):
    bc = BoundaryData.affine([1.0], [[2.0, 3.0]])
    f = interpolate_boundary(right2d_n2, bc, 1)
    expect = affine_values(right2d_n2, [1.0], [[2.0, 3.0]])
    assert_allclose(f.values[right2d_n2.boundary_nodes],
                    expect[right2d_n2.boundary_nodes], atol=1e-14)
    assert_array_equal(f.values[right2d_n2.interior_nodes], 0.0)


def test_boundary_affine_validation(right2d_n2):
    with pytest.raises(ValueError):
        BoundaryData.affine([1.0, 2.0], [[1.0, 0.0]])
    bc = BoundaryData.affine([1.0], [[1.0, 0.0, 0.0]])   # 3d coeffs on 2d mesh
    with pytest.raises(ValueError):
        bc.boundary_values(right2d_n2, 1)
    bc = BoundaryData.affine([1.0], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        bc.boundary_values(right2d_n2, 2)                # m mismatch


def test_boundary_sin_product(right2d_n2):
    vals = BoundaryData.sin_product().boundary_values(right2d_n2, 2)
    pts = right2d_n2.vertices[right2d_n2.boundary_nodes]
    for j in range(2):
        expect = np.prod(np.sin(np.pi * pts + (j + 1) / 2.0), axis=1)
        assert_allclose(vals[:, j], expect, atol=1e-14)


def test_boundary_abs_distance(right2d_n2):
    vals = BoundaryData.abs_distance().boundary_values(right2d_n2, 1)
    pts = right2d_n2.vertices[right2d_n2.boundary_nodes]
    assert_allclose(vals[:, 0],
                    np.linalg.norm(pts - 0.5, axis=1), atol=1e-14)
    vals = BoundaryData.abs_distance([0.0, 0.0]).boundary_values(right2d_n2, 1)
    assert_allclose(vals[:, 0], np.linalg.norm(pts, axis=1), atol=1e-14)


def test_boundary_random_deterministic(right2d_n2):
    a = BoundaryData.random_uniform(7, -1.0, 1.0).boundary_values(right2d_n2, 3)
    b = BoundaryData.random_uniform(7, -1.0, 1.0).boundary_values(right2d_n2, 3)
    c = BoundaryData.random_uniform(8, -1.0, 1.0).boundary_values(right2d_n2, 3)
    assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0
    assert a.min() >= -1.0 and a.max() <= 1.0
    with pytest.raises(ValueError):
        BoundaryData.random_uniform(1, 2.0, 2.0)


def test_boundary_nodal_missing_vertex(right2d_n2):
    vals = np.zeros((4, 1))   # covers vertices 0..3 but boundary goes to 8
    bc = BoundaryData.from_values(vals)
    with pytest.raises(ValueError):
        bc.boundary_values(right2d_n2, 1)


def test_save_load_roundtrip(tmp_path, right2d_n2):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((9, 3))
    f = NodalField(right2d_n2, vals)
    path = tmp_path / "f.txt"
    save_field(f, path)
    back, m = load_field(path)
    assert m == 3
    assert_array_equal(back, vals)


def test_load_field_diagnostics(tmp_path, right2d_n2):
    p = tmp_path / "f.txt"
    p.write_text("field 2 3\n0 0\n1 1\n")
    with pytest.raises(FieldFormatError):
        load_field(p)
    p.write_text("not a field\n")
    with pytest.raises(FieldFormatError):
        load_field(p)
    # vertex count must match the mesh when one is supplied
    p.write_text("field 1 3\n0\n1\n2\n")
    with pytest.raises((FieldFormatError, ValueError)):
        load_field(p, right2d_n2)

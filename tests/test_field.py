import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from femchp.field import (
    BoundaryData,
    FieldFormatError,
    NodalField,
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
    with pytest.raises(ValueError, match=re.escape("values must have shape (9, m), m >= 1, "
                                                   "got (9, 0)")):
        NodalField(right2d_n2, np.zeros((9, 0)))
    f = NodalField(right2d_n2, np.zeros(9))     # 1d input becomes (V, 1)
    assert f.values.shape == (9, 1)
    assert f.m == 1


def test_field_values_are_a_read_only_copy(right2d_n2):
    # a field's gradients are computed once and kept, so its values must not
    # change under them; the caller's array stays its own
    vals = np.arange(9.0)
    f = NodalField(right2d_n2, vals)
    G, t = f._norms
    with pytest.raises(ValueError, match="read-only"):
        f.values[4, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        G[0] += 1.0
    vals[4] = -1.0
    assert f.values[4, 0] == 4.0
    assert f._norms[0] is G
    assert_array_equal(G, f.element_gradients())
    assert_array_equal(t, np.linalg.norm(G, axis=(1, 2)))


def test_nodal_forces_are_computed_once_and_read_only(kuhn_n2):
    # the residual and the Hessian at one field read the same forces
    f = NodalField(kuhn_n2, np.random.default_rng(3).standard_normal((kuhn_n2.num_vertices, 2)))
    P = f._forces
    assert f._forces is P
    assert_array_equal(P, np.matmul(kuhn_n2.gradients, f.element_gradients()))
    with pytest.raises(ValueError, match="read-only"):
        P[0] += 1.0


@pytest.mark.parametrize("gen, m", [("crisscross2d", 2), ("kuhn3d", 3), ("obtuse2d", 1)])
def test_element_gradients_are_bitwise_the_fancy_index_product(gen, m):
    # the gather by ``take`` copies the same rows into the same layout
    mesh = build_structured_mesh(gen, 3)
    f = NodalField(mesh, np.random.default_rng(m).standard_normal((mesh.num_vertices, m)))
    ref = np.matmul(mesh.gradients.transpose(0, 2, 1), f.values[mesh.elements])
    G = f.element_gradients()
    assert G.shape == ref.shape and G.tobytes() == ref.tobytes()


def test_element_gradients_affine(right2d_n4):
    coeffs = np.array([[2.0, -1.0], [0.5, 3.0]])
    f = NodalField(right2d_n4, affine_values(right2d_n4, [1.0, -2.0], coeffs))
    grads = f.element_gradients()               # (E, n, m)
    for e in range(right2d_n4.num_elements):
        assert_allclose(grads[e], coeffs.T, atol=1e-12)


def test_gradient_on_element_hat(ref_triangle):
    f = NodalField(ref_triangle, np.array([0.0, 1.0, 0.0]))
    assert_allclose(f.element_gradients()[0], [[1.0], [0.0]], atol=1e-14)


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


@pytest.mark.parametrize("center", [[0.5], [0.5, 0.5, 0.5]])
def test_boundary_abs_distance_center_length(right2d_n2, center):
    # a wrong-length center is rejected, neither broadcast nor a numpy error
    bc = BoundaryData.abs_distance(center)
    with pytest.raises(ValueError, match=f"{len(center)} coordinates.*dimension 2"):
        bc.boundary_values(right2d_n2, 1)


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


def test_boundary_nodal_values_in_one_dimension(right2d_n2):
    # a 1-D value array is one component per vertex
    vals = np.arange(9.0)
    bc = BoundaryData.from_values(vals)
    nodes = right2d_n2.boundary_nodes
    assert_array_equal(bc.boundary_values(right2d_n2, 1), vals[nodes, None])
    f = interpolate_boundary(right2d_n2, bc, 1)
    assert_array_equal(f.values[nodes, 0], vals[nodes])


@pytest.mark.parametrize("bc, m, message", [
    (BoundaryData("polynomial"), 1, "unknown boundary data kind 'polynomial'"),
    (BoundaryData.sin_product(), 0, "m must be >= 1, got 0"),
    (BoundaryData.from_values(np.zeros((9, 1, 1))), 1, "boundary data produced shape (8, 1, 1)"),
    (BoundaryData.from_values(np.full(9, np.nan)), 1, "boundary data produced non-finite values"),
], ids=["unknown-kind", "m", "shape", "non-finite"])
def test_boundary_input_is_refused_with_its_message(right2d_n2, bc, m, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        interpolate_boundary(right2d_n2, bc, m)


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


@pytest.mark.parametrize("text, message", [
    ("", "empty field file"),
    ("not a field\n", "line 1: expected 'field <m> <V>', got 'not a field'"),
    ("field 2\n", "line 1: expected 'field <m> <V>', got 'field 2'"),
    ("field x 3\n", "line 1: bad counts in 'field x 3'"),
    ("field 0 3\n", "line 1: invalid sizes m=0, V=3"),
    ("field 1 -1\n", "line 1: invalid sizes m=1, V=-1"),
    ("field 2 3\n0 0\n1 1\n", "expected 3 value lines, found 2"),
    ("field 2 2\n0 0\n1 1\n2 2\n", "expected 2 value lines, found 3"),
    ("field 2 3\n0 0\n1\n2 2\n", "line 3: expected 2 values, got 1"),
    ("field 2 3\n0 0\n1 1 1\n2 2\n", "line 3: expected 2 values, got 3"),
    ("field 2 3\n0 y\n1 1\n2 2\n", "line 2: bad float in '0 y'"),
    ("field 1 3\n0\n1\n2\n", "field file has 3 vertices, mesh has 9"),
])
def test_load_field_messages(tmp_path, right2d_n2, text, message):
    p = tmp_path / "f.txt"
    p.write_text(text)
    with pytest.raises(FieldFormatError) as exc:
        load_field(p, right2d_n2)
    assert str(exc.value) == message

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from femchp.mesh import (
    ACUTE,
    GENERATORS,
    Mesh,
    MeshConformityError,
    MeshFormatError,
    NON_OBTUSE,
    OBTUSE,
    build_structured_mesh,
    classify_mesh,
    load_mesh,
    save_mesh,
)


def test_reference_triangle_geometry(ref_triangle):
    assert_allclose(ref_triangle.volumes[0], 0.5, rtol=0, atol=1e-15)
    assert_allclose(ref_triangle.gradients[0],
                    [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_reference_tet_geometry(ref_tet):
    assert_allclose(ref_tet.volumes[0], 1.0 / 6.0, rtol=0, atol=1e-15)
    assert_allclose(ref_tet.gradients[0],
                    [[-1.0, -1.0, -1.0],
                     [1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0]], atol=1e-14)


def test_basis_gradients_sum_to_zero(right2d_n4):
    # partition of unity: sum_i grad phi_i = 0 on every element
    assert_allclose(right2d_n4.gradients.sum(axis=1), 0.0, atol=1e-13)


def test_equilateral_gradient_dots():
    # side-1 equilateral triangle: |g|^2 = 4/3, pairwise dot = -2/3
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    mesh = Mesh(2, verts, np.array([[0, 1, 2]]))
    g = mesh.gradients[0]
    gram = g @ g.T
    assert_allclose(np.diag(gram), 4.0 / 3.0, atol=1e-13)
    off = gram[~np.eye(3, dtype=bool)]
    assert_allclose(off, -2.0 / 3.0, atol=1e-13)


def test_negative_orientation_is_fixed():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(2, verts, np.array([[0, 2, 1]]))   # clockwise on purpose
    assert mesh.volumes[0] > 0
    assert_allclose(mesh.volumes[0], 0.5, atol=1e-15)
    assert set(mesh.elements[0].tolist()) == {0, 1, 2}


def test_degenerate_element_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshConformityError):
        Mesh(2, verts, np.array([[0, 1, 2]]))


def test_face_shared_by_three_elements_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [0.0, -1.0], [1.0, 1.0]])
    elems = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(MeshConformityError):
        Mesh(2, verts, elems)


def test_orphan_vertex_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    with pytest.raises(MeshConformityError):
        Mesh(2, verts, np.array([[0, 1, 2]]))


def test_hanging_node_rejected():
    # v3 sits at the midpoint of edge (v0, v1) of the top triangle; the two
    # bottom triangles resolve it, the top one does not
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0],
                      [1.0, 0.0], [1.0, -1.0]])
    elems = np.array([[0, 1, 2], [0, 4, 3], [3, 4, 1]])
    with pytest.raises(MeshConformityError):
        Mesh(2, verts, elems)


def test_right2d_counts_and_structure():
    mesh = build_structured_mesh("right2d", 1)
    assert mesh.num_vertices == 4
    assert mesh.num_elements == 2
    assert_array_equal(mesh.elements, [[0, 1, 3], [0, 3, 2]])
    assert len(mesh.interior_nodes) == 0

    mesh = build_structured_mesh("right2d", 2)
    assert mesh.num_vertices == 9
    assert mesh.num_elements == 8
    assert_array_equal(mesh.interior_nodes, [4])
    assert_array_equal(mesh.boundary_nodes, [0, 1, 2, 3, 5, 6, 7, 8])
    assert_allclose(mesh.volumes.sum(), 1.0, atol=1e-14)


def test_crisscross_counts_and_center():
    mesh = build_structured_mesh("crisscross2d", 1)
    assert mesh.num_vertices == 5
    assert mesh.num_elements == 4
    assert_allclose(mesh.vertices[4], [0.5, 0.5], atol=1e-15)
    assert_allclose(mesh.volumes, 0.25, atol=1e-15)
    assert_array_equal(mesh.interior_nodes, [4])
    assert set(mesh.elements[(mesh.elements == 4).any(axis=1)].ravel()) == {0, 1, 2, 3, 4}
    assert_allclose(mesh.volumes.sum(), 1.0, atol=1e-14)


def test_equilateral_counts_and_area():
    # the two sharp rhombus corners are trimmed, so two grid vertices drop out
    for N in (2, 4):
        mesh = build_structured_mesh("equilateral2d", N)
        assert mesh.num_vertices == (N + 1) ** 2 - 2
        assert mesh.num_elements == 2 * N * N - 2
        assert_allclose(mesh.volumes.sum(),
                        np.sqrt(3.0) / 2.0 * (1.0 - 1.0 / N ** 2), atol=1e-13)
    assert len(build_structured_mesh("equilateral2d", 2).interior_nodes) == 1
    assert len(build_structured_mesh("equilateral2d", 4).interior_nodes) == 9


def test_kuhn3d_counts():
    mesh = build_structured_mesh("kuhn3d", 1)
    assert mesh.num_vertices == 8
    assert mesh.num_elements == 6
    assert_allclose(mesh.volumes, 1.0 / 6.0, atol=1e-15)
    mesh = build_structured_mesh("kuhn3d", 2)
    assert mesh.num_vertices == 27
    assert mesh.num_elements == 48
    assert_array_equal(mesh.interior_nodes, [13])
    assert_allclose(mesh.volumes.sum(), 1.0, atol=1e-13)


def test_obtuse2d_displaces_one_vertex():
    mesh = build_structured_mesh("obtuse2d", 2)
    base = build_structured_mesh("right2d", 2)
    # interior vertex nearest the center moves by (0.3 h, 0.1 h), h = 1/2
    assert_allclose(mesh.vertices[4], [0.65, 0.55], atol=1e-15)
    moved = np.abs(mesh.vertices - base.vertices).max(axis=1) > 0
    assert moved.sum() == 1


def test_classifications():
    assert classify_mesh(build_structured_mesh("right2d", 2)).mesh_class == NON_OBTUSE
    assert classify_mesh(build_structured_mesh("crisscross2d", 2)).mesh_class == NON_OBTUSE
    assert classify_mesh(build_structured_mesh("equilateral2d", 2)).mesh_class == ACUTE
    assert classify_mesh(build_structured_mesh("obtuse2d", 2)).mesh_class == OBTUSE
    assert classify_mesh(build_structured_mesh("kuhn3d", 2)).mesh_class == NON_OBTUSE


def test_angle_report_details():
    rep = classify_mesh(build_structured_mesh("right2d", 2))
    assert rep.is_non_obtuse and not rep.is_acute
    assert rep.worst_dot == 0.0
    assert not rep.every_element_touches_interior   # corner cells
    assert_allclose(rep.max_opposite_angle_sum, np.pi, atol=1e-12)

    rep = classify_mesh(build_structured_mesh("equilateral2d", 2))
    assert rep.is_acute
    assert rep.every_element_touches_interior
    assert_allclose(rep.max_opposite_angle_sum, 2.0 * np.pi / 3.0, atol=1e-12)

    rep = classify_mesh(build_structured_mesh("crisscross2d", 2))
    assert rep.every_element_touches_interior

    rep = classify_mesh(build_structured_mesh("obtuse2d", 2))
    assert not rep.is_non_obtuse
    assert rep.worst_dot > 0

    # the opposite-angle (Delaunay) measure is 2D only
    rep = classify_mesh(build_structured_mesh("kuhn3d", 2))
    assert rep.max_opposite_angle_sum is None
    assert not rep.every_element_touches_interior   # corner cells again


def test_generator_catalog_and_validation():
    assert set(GENERATORS) == {"right2d", "crisscross2d", "equilateral2d",
                               "obtuse2d", "kuhn3d"}
    with pytest.raises(ValueError):
        build_structured_mesh("right2d", 0)
    with pytest.raises(ValueError):
        build_structured_mesh("equilateral2d", 1)
    with pytest.raises(ValueError):
        build_structured_mesh("obtuse2d", 1)
    with pytest.raises(ValueError):
        build_structured_mesh("moebius", 3)


def test_save_load_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    mesh = build_structured_mesh("kuhn3d", 2)
    jitter = mesh.vertices + 1e-3 * rng.standard_normal(mesh.vertices.shape)
    mesh2 = Mesh(3, jitter, mesh.elements)
    path = tmp_path / "m.txt"
    save_mesh(mesh2, path)
    back = load_mesh(path)
    assert_array_equal(back.vertices, mesh2.vertices)   # %.17g is exact
    assert_array_equal(back.elements, mesh2.elements)
    assert back.dim == 3


def test_load_mesh_diagnostics(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("dim 2\nvertices 3\n0 0\n1 0\n")
    with pytest.raises(MeshFormatError) as exc:
        load_mesh(p)
    assert "line" in str(exc.value)

    p.write_text("dim 7\n")
    with pytest.raises(MeshFormatError):
        load_mesh(p)

    p.write_text("dim 2\nvertices 3\n0 0\n1 0\n0 1\nsimplices 1\n0 1 9\n")
    with pytest.raises((MeshFormatError, MeshConformityError)):
        load_mesh(p)


def test_vertex_index_out_of_range():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises((MeshConformityError, IndexError, ValueError)):
        Mesh(2, verts, np.array([[0, 1, 5]]))


def test_gradient_grams_match_gradients(equilateral_n4):
    grams = equilateral_n4.gradient_grams
    direct = np.einsum("ein,ejn->eij", equilateral_n4.gradients,
                       equilateral_n4.gradients)
    assert_allclose(grams, direct, atol=1e-14)

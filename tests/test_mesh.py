import copy
import itertools
import math
import re

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from numpy.testing import assert_allclose, assert_array_equal

from femchp import mesh as mesh_module
from femchp.energy import LumpedTerm, _newton_weights, mean_curvature, p_dirichlet
from femchp.field import BoundaryData, NodalField, interpolate_boundary
from femchp.mesh import (
    ACUTE,
    GENERATORS,
    Mesh,
    MeshConformityError,
    MeshFormatError,
    NON_OBTUSE,
    OBTUSE,
    _max_opposite_angle_sum,
    build_structured_mesh,
    classify_mesh,
    load_mesh,
    save_mesh,
)
from femchp.solver import assemble_hessian, minimize
from femchp.verify import beta_weights


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
    elems = np.array([[0, 2, 1]])                  # clockwise on purpose
    mesh = Mesh(2, verts, elems)
    assert mesh.volumes[0] > 0
    assert_allclose(mesh.volumes[0], 0.5, atol=1e-15)
    assert set(mesh.elements[0].tolist()) == {0, 1, 2}
    # the mesh reorients and freezes its own copies, not the caller's arrays
    assert_array_equal(elems, [[0, 2, 1]])
    assert verts.flags.writeable and elems.flags.writeable
    elems.flags.writeable = False
    assert Mesh(2, verts, elems).volumes[0] > 0


def _augmented_gradients(coords):
    """Gradients (E, n+1, n) of the hats of each element, from the inverse
    of its interpolation matrix A with rows (1, x_i): column j of inv(A)
    holds the affine coefficients of hat j, its constant first."""
    E, k, n = coords.shape
    A = np.empty((E, k, k))
    A[:, :, 0] = 1.0
    A[:, :, 1:] = coords
    return np.transpose(np.linalg.inv(A)[:, 1:, :], (0, 2, 1))


def _reference_geometry(dim, vertices, elements):
    """Element geometry from the augmented interpolation matrix: elements of
    negative signed volume swap their last two vertices and the determinant
    is taken again, diameters come from every ordered vertex pair.  Returns
    (elements, volumes, gradients), or the degenerate-element message."""
    n = dim
    vertices = np.asarray(vertices, dtype=float)
    elements = np.array(elements)
    coords = vertices[elements]
    flip = np.linalg.det(coords[:, 1:] - coords[:, :1]) < 0
    elements[flip, n - 1], elements[flip, n] = (elements[flip, n].copy(),
                                                elements[flip, n - 1].copy())
    coords = vertices[elements]
    vols = np.linalg.det(coords[:, 1:] - coords[:, :1]) / math.factorial(n)
    diff = coords[:, :, None, :] - coords[:, None, :, :]
    diams = np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(1, 2))
    bad = vols <= mesh_module._DEGENERACY_REL * diams ** n
    if bad.any():
        e = int(np.argmax(bad))
        return f"element {e} is degenerate (volume {vols[e]:.3e}, diameter {diams[e]:.3e})"
    return elements, vols, _augmented_gradients(coords)


def _geometry_cases():
    """(name, dim, vertices, elements): every generator, and jittered meshes
    with half their elements handed over in negative orientation."""
    rng = np.random.default_rng(11)
    for gen, (dim, _) in sorted(GENERATORS.items()):
        for n in ((1, 2, 5) if gen == "kuhn3d" else (2, 3, 8, 17)):
            mesh = build_structured_mesh(gen, n)
            yield f"{gen}:{n}", dim, mesh.vertices, mesh.elements
    for gen, n, amp in (("right2d", 9, 0.15), ("crisscross2d", 5, 0.1), ("kuhn3d", 4, 0.05)):
        mesh = build_structured_mesh(gen, n)
        verts = mesh.vertices + amp / n * rng.uniform(-1, 1, mesh.vertices.shape)
        elems = mesh.elements.copy()
        half = rng.permutation(len(elems))[:len(elems) // 2]
        elems[half, :2] = elems[half, 1::-1]
        yield f"jittered {gen}:{n}, half flipped", mesh.dim, verts, elems


def test_edge_matrix_geometry_matches_the_augmented_inverse():
    for name, dim, verts, elems in _geometry_cases():
        mesh = Mesh(dim, verts, elems)
        ref_elems, ref_vols, ref_grads = _reference_geometry(dim, verts, elems)
        assert_array_equal(mesh.elements, ref_elems, err_msg=name)
        assert_allclose(mesh.volumes, ref_vols, rtol=1e-13, atol=0, err_msg=name)
        scale = np.abs(ref_grads).max(axis=(1, 2))[:, None, None]
        assert (np.abs(mesh.gradients - ref_grads) <= 1e-13 * scale).all(), name
        assert_allclose(mesh.gradients.sum(axis=1), 0.0, atol=1e-13 * scale.max())


def test_degenerate_element_message():
    # slivers at half and at twice the degeneracy threshold, in either
    # orientation, after a valid element far away
    rel = mesh_module._DEGENERACY_REL
    tri, tet = np.array([[5.0, 5.0], [6.0, 5.0], [5.0, 6.0]]), np.array(TET) + 5.0
    # area t/2 against diameter 1; volume t/6 against diameter sqrt(2)
    for dim, far, flat, t_edge in (
            (2, tri, lambda t: [[0.0, 0.0], [1.0, 0.0], [0.5, t]], 2.0 * rel),
            (3, tet, lambda t: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                [0.3, 0.3, t]], 6.0 * rel * 2.0 ** 1.5)):
        k = dim + 1
        for factor in (0.5, 2.0):
            verts = np.vstack([far, flat(factor * t_edge)])
            for local in (np.arange(k), np.r_[1, 0, 2:k]):
                elems = np.array([np.arange(k), k + local])
                ref = _reference_geometry(dim, verts, elems)
                if factor < 1:
                    with pytest.raises(MeshConformityError) as exc:
                        Mesh(dim, verts, elems)
                    assert str(exc.value) == ref
                    assert str(exc.value).startswith("element 1 is degenerate (volume ")
                else:
                    mesh = Mesh(dim, verts[k:], elems[1:] - k)
                    assert_array_equal(mesh.elements, _reference_geometry(
                        dim, verts[k:], elems[1:] - k)[0])
                    assert_allclose(mesh.volumes, factor * t_edge / math.factorial(dim),
                                    rtol=1e-12)
    with pytest.raises(MeshConformityError) as exc:
        Mesh(2, [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14]], [[0, 2, 1]])
    assert str(exc.value) == "element 0 is degenerate (volume 5.000e-15, diameter 1.000e+00)"


def test_degenerate_element_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshConformityError):
        Mesh(2, verts, np.array([[0, 1, 2]]))


TET = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def test_face_shared_by_three_elements_rejected():
    cases = [
        (2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
         [[0, 1, 2], [0, 1, 3], [0, 1, 4]], "(0, 1)"),
        # two faces over-shared: the one whose third element comes first
        (2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0],
             [-1.0, 0.0], [-1.0, 1.0]],
         [[0, 2, 5], [0, 1, 2], [0, 2, 6], [0, 1, 3], [0, 2, 4], [0, 1, 4]],
         "(0, 2)"),
        (3, TET + [[0.0, 0.0, -1.0], [1.0, 1.0, 1.0]],
         [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]], "(0, 1, 2)"),
    ]
    for dim, verts, elems, face in cases:
        with pytest.raises(MeshConformityError) as exc:
            Mesh(dim, np.array(verts), np.array(elems))
        assert str(exc.value) == f"face {face} is shared by more than two elements"


def test_repeated_vertex_index_rejected():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cases = [(2, square, [[0, 1, 2], [3, 3, 1]], "element 1 repeats a vertex index: (3, 3, 1)"),
             (2, square, [[0, 1, 1]], "element 0 repeats a vertex index: (0, 1, 1)"),
             (3, np.array(TET), [[0, 1, 2, 2]],
              "element 0 repeats a vertex index: (0, 1, 2, 2)")]
    for dim, verts, elems, message in cases:
        with pytest.raises(MeshConformityError) as exc:
            Mesh(dim, verts, np.array(elems))
        assert str(exc.value) == message


def _pair_blocks(blocks):
    """The element-last (n+1, n+1, E) pair arrays, j <= l, of (E, n+1, m, n+1, m) blocks."""
    m = blocks.shape[-1]
    return [np.ascontiguousarray(blocks[:, :, j, :, l].transpose(1, 2, 0))
            for j, l in itertools.combinations_with_replacement(range(m), 2)]


@pytest.mark.parametrize("gen,n", [("right2d", 3), ("kuhn3d", 2)])
def test_assemble_matches_dense_scatter(gen, n):
    # random blocks, symmetric per element, and random nodal blocks against
    # a dense np.add.at sum
    mesh = build_structured_mesh(gen, n)
    rng = np.random.default_rng(5)
    k = mesh.dim + 1
    for m in (1, 2, 3):
        X = rng.standard_normal((mesh.num_elements, k * m, k * m))
        blocks = (X + X.transpose(0, 2, 1)).reshape(-1, k, m, k, m)
        for interior, nodes in ((True, mesh.interior_nodes),
                                (False, np.arange(mesh.num_vertices))):
            pos = np.full(mesh.num_vertices, -1)
            pos[nodes] = np.arange(len(nodes))
            dof = pos[mesh.elements][:, :, None] * m + np.arange(m)
            dof[pos[mesh.elements] < 0] = -1
            rows = np.broadcast_to(dof[:, :, :, None, None], blocks.shape)
            cols = np.broadcast_to(dof[:, None, None, :, :], blocks.shape)
            ok = (rows >= 0) & (cols >= 0)
            N = len(nodes) * m
            ref = np.zeros((N, N))
            np.add.at(ref, (rows[ok], cols[ok]), blocks[ok])
            A = mesh.assemble(_pair_blocks(blocks), interior=interior)
            assert A.format == "csc" and A.has_sorted_indices
            assert_allclose(A.toarray(), ref, rtol=1e-14, atol=1e-14)

            diagonal = rng.standard_normal((len(nodes), m, m))
            for z in range(len(nodes)):
                ref[z * m:(z + 1) * m, z * m:(z + 1) * m] += diagonal[z]
            A = mesh.assemble(_pair_blocks(blocks), diagonal, interior=interior)
            assert_allclose(A.toarray(), ref, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError, match="component pairs"):
        mesh.assemble(_pair_blocks(blocks)[:2])
    with pytest.raises(ValueError, match="element-last"):
        mesh.assemble([mesh.gradient_grams])


def _reference_assemble(mesh, blocks, diagonal=None, interior=True):
    """The element-major assembly: (E, n+1, m, n+1, m) blocks summed by one
    np.bincount over slots from one np.unique of all E (n+1)^2 m^2 keys."""
    m = blocks.shape[-1]
    nodes = mesh.interior_nodes if interior else np.arange(mesh.num_vertices)
    pos = np.full(mesh.num_vertices, -1)
    pos[nodes] = np.arange(len(nodes))
    dof = pos[mesh.elements][:, :, None] * m + np.arange(m)       # (E, n+1, m)
    dof[pos[mesh.elements] < 0] = -1
    rows, cols = dof[:, :, :, None, None], dof[:, None, None, :, :]
    N = len(nodes) * m
    keys = np.where((rows >= 0) & (cols >= 0), cols * N + rows, N * N)
    pattern, slots = np.unique(keys.ravel(), return_inverse=True)
    pattern = pattern[pattern < N * N]
    nnz = len(pattern)
    indptr = np.searchsorted(pattern, np.arange(N + 1) * N)
    A = scipy.sparse.csc_matrix((np.zeros(nnz), pattern % N, indptr), shape=(N, N))
    data = np.bincount(slots.ravel(), weights=blocks.ravel(), minlength=nnz + 1)[:nnz]
    if diagonal is not None:
        d = np.arange(N).reshape(-1, m)
        data[np.searchsorted(pattern, d[:, None, :] * N + d[:, :, None]).ravel()] \
            += diagonal.ravel()
    return scipy.sparse.csc_matrix((data, A.indices, A.indptr), shape=(N, N))


def _reference_hessian(model, field, lumped=None):
    """The Newton Hessian from element-major (E, n+1, m, n+1, m) blocks."""
    mesh, m = field.mesh, field.m
    coef = mesh.volumes * model.element_coeff(mesh.num_elements)
    a, b = _newton_weights(model, field._norms[1])
    Pf = np.matmul(mesh.gradients, field._norms[0]).reshape(mesh.num_elements, -1)
    loc = (coef * b)[:, None, None] * (Pf[:, :, None] * Pf[:, None, :])
    loc = loc.reshape(mesh.num_elements, mesh.dim + 1, m, mesh.dim + 1, m)
    for j in range(m):
        loc[:, :, j, :, j] += (coef * a)[:, None, None] * mesh.gradient_grams
    nodal = None
    if lumped is not None:
        q, w = lumped.q, lumped.weights[mesh.interior_nodes]
        v = field.values[mesh.interior_nodes]
        vn = np.linalg.norm(v, axis=1)
        pos = vn > 0.0
        f1 = np.where(pos, vn ** (q - 2.0), 1.0 if q == 2.0 else 0.0)
        f2 = np.zeros_like(vn)
        f2[pos] = (q - 2.0) * vn[pos] ** (q - 4.0)
        nodal = ((w * f1)[:, None, None] * np.eye(m)
                 + (w * f2)[:, None, None] * (v[:, :, None] * v[:, None, :]))
    return _reference_assemble(mesh, loc, nodal)


def _assert_same_csc(A, B):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(A, name), getattr(B, name)
        assert x.dtype == y.dtype, name
        assert_array_equal(x, y, strict=True)


@pytest.mark.parametrize("gen,n", [("right2d", 5), ("crisscross2d", 4),
                                   ("obtuse2d", 5), ("kuhn3d", 3)])
def test_assembly_is_bitwise_the_element_major_scatter(gen, n, monkeypatch):
    # each slot sums its element terms in element order on both paths, so
    # H, the harmonic start's K and B agree to the last bit: at p = 2 the
    # component couplings are stored zeros, at p = 3 and for mean curvature
    # they are not
    mesh = build_structured_mesh(gen, n)
    rng = np.random.default_rng(7)
    factors = []
    real_splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda K, **kw: factors.append(K) or real_splu(K, **kw))
    for m in (1, 2, 3):
        values = rng.standard_normal((mesh.num_vertices, m))
        field = NodalField(mesh, values)
        for model in (p_dirichlet(2.0), p_dirichlet(3.0), mean_curvature()):
            for lumped in (None, LumpedTerm.from_mesh(mesh, 3.0)):
                _assert_same_csc(assemble_hessian(model, field, lumped=lumped),
                                 _reference_hessian(model, field, lumped))
            B = _reference_assemble(mesh, (mesh.volumes * model.element_coeff(
                mesh.num_elements) * _newton_weights(model, field._norms[1])[0]
                )[:, None, None, None, None] * mesh.gradient_grams[:, :, None, :, None],
                interior=False)
            _assert_same_csc(beta_weights(mesh, field, model), B)
    coeff = rng.uniform(0.5, 2.0, mesh.num_elements)
    model = p_dirichlet(3.0, coeff=coeff)
    minimize(model, mesh, BoundaryData.random_uniform(3, -1.0, 1.0), m=2, max_iters=0)
    (K,) = factors
    coef = mesh.volumes * coeff
    _assert_same_csc(K, _reference_assemble(
        mesh, (coef[:, None, None] * mesh.gradient_grams)[:, :, None, :, None]))


def test_one_scalar_pattern_per_interior_flag(monkeypatch):
    # K, H at every m and B share the pattern of their interior flag: one
    # sort of the E (n+1)^2 element keys each, and the summation holds at
    # most E (n+1)^2 entries, not E (n+1)^2 m^2
    mesh = build_structured_mesh("kuhn3d", 3)
    k = mesh.dim + 1
    sorted_sizes = []
    real_argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: sorted_sizes.append(np.size(a))
                        or real_argsort(a, *args, **kw))
    model = p_dirichlet(3.0)
    minimize(model, mesh, BoundaryData.random_uniform(1, -1.0, 1.0), m=1, max_iters=0)
    assert sorted_sizes == [mesh.num_elements * k * k]
    for m in (1, 2, 3):
        field = NodalField(mesh, np.random.default_rng(m).standard_normal((mesh.num_vertices, m)))
        assemble_hessian(model, field, lumped=LumpedTerm.from_mesh(mesh, 3.0))
        beta_weights(mesh, field, model)
    assert sorted_sizes == [mesh.num_elements * k * k] * 2
    inner = (~mesh.is_boundary[mesh.elements]).sum(axis=1)
    for interior, kept in ((True, int((inner ** 2).sum())),
                           (False, mesh.num_elements * k * k)):
        summation = mesh._patterns[interior].summation
        assert summation.shape[1] == mesh.num_elements * k * k
        assert summation.nnz == kept


def test_orphan_vertex_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    with pytest.raises(MeshConformityError):
        Mesh(2, verts, np.array([[0, 1, 2]]))


def test_hanging_node_rejected():
    cases = [
        # v3 sits at the midpoint of edge (v0, v1) of the top triangle; the
        # two bottom triangles resolve it, the top one does not
        (2, [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, -1.0]],
         [[0, 1, 2], [0, 4, 3], [3, 4, 1]], 3),
        # v4 lies strictly inside the reference tet, element 0
        (3, TET + [[0.1, 0.1, 0.1], [1.0, 1.0, 1.0]],
         [[0, 1, 2, 3], [1, 2, 3, 5], [4, 1, 2, 5]], 4),
    ]
    for dim, verts, elems, vertex in cases:
        with pytest.raises(MeshConformityError) as exc:
            Mesh(dim, np.array(verts), np.array(elems))
        assert str(exc.value) == (f"vertex {vertex} lies inside element 0 without "
                                  "being one of its vertices (hanging node)")


def _box_scan_reference(mesh):
    """The O(E·V) scan: every vertex against every element's widened box,
    then the barycentric test.  Returns the message for the first hanging
    (element, vertex) pair, or None."""
    geo_tol = mesh_module._HANGING_REL * mesh.diameter
    coords = mesh.vertices[mesh.elements]
    lo = coords.min(axis=1) - geo_tol
    hi = coords.max(axis=1) + geo_tol
    x = mesh.vertices[None]
    e_idx, v_idx = np.nonzero(((x >= lo[:, None]) & (x <= hi[:, None])).all(axis=2))
    own = (mesh.elements[e_idx] == v_idx[:, None]).any(axis=1)
    e_idx, v_idx = e_idx[~own], v_idx[~own]
    # barycentrics from the interpolation system: sum lam_i (1, x_i) = (1, x)
    A = np.concatenate([np.ones((len(e_idx), 1, mesh.dim + 1)),
                        np.transpose(coords[e_idx], (0, 2, 1))], axis=1)
    b = np.concatenate([np.ones((len(e_idx), 1)), mesh.vertices[v_idx]], axis=1)
    lam = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    slack = geo_tol * np.linalg.norm(_augmented_gradients(coords), axis=2)[e_idx]
    hanging = np.flatnonzero((lam >= -slack).all(axis=1))
    if len(hanging) == 0:
        return None
    k = hanging[0]
    return (f"vertex {v_idx[k]} lies inside element {e_idx[k]} without "
            "being one of its vertices (hanging node)")


def _split(verts, elems, e, local, point):
    """Add ``point`` as a vertex and split element e there: one part per
    local vertex in ``local``, with that vertex replaced by the point.  The
    first part keeps index e, the others are appended."""
    verts = np.vstack([verts, point])
    parts = np.repeat(elems[e][None], len(local), axis=0)
    parts[np.arange(len(local)), local] = len(verts) - 1
    elems = np.vstack([elems, parts[1:]])
    elems[e] = parts[0]
    return verts, elems


def _hanging_cases():
    """(name, dim, vertices, elements, expected message or None)."""
    msg = "vertex {} lies inside element {} without being one of its vertices (hanging node)"
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    yield "one triangle", 2, tri, [[0, 1, 2]], None
    yield "one tet", 3, np.array(TET), [[0, 1, 2, 3]], None

    # right2d:4: cell (i, j) holds elements 2c = (v, v+1, v+6) and
    # 2c+1 = (v, v+6, v+5), with c = 4j + i and v = 5j + i.  The grid
    # cells are 1/4 wide from -1/8, so (0.375, 0.375) is a cell corner.
    base = build_structured_mesh("right2d", 4)
    v, e = base.vertices, base.elements
    yield ("on a diagonal edge, at a cell corner", 2,
           *_split(v, e, 11, [0, 1], [0.375, 0.375]), msg.format(25, 10))
    yield ("on an axis edge, on a cell boundary", 2,
           *_split(v, e, 10, [0, 1], [0.375, 0.25]), msg.format(25, 3))
    geo_tol = mesh_module._HANGING_REL * math.sqrt(2.0)
    normal = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    for s in (-2.0, -0.5, 0.5, 2.0):
        # s > 0 moves the vertex away from the element it hangs in
        yield (f"diagonal edge {s:+} tol", 2,
               *_split(v, e, 11, [0, 1], 0.375 + s * geo_tol * normal),
               msg.format(25, 10) if s < 1 else None)
        yield (f"axis edge {s:+} tol", 2,
               *_split(v, e, 10, [0, 1], [0.375, 0.25 + s * geo_tol]),
               msg.format(25, 3) if s < 1 else None)
    # strictly inside element 20, used by a dangling element outside the square
    yield ("strictly inside", 2, np.vstack([v, [[0.6, 0.55], [2.0, 0.0], [2.0, 1.0]]]),
           np.vstack([e, [[25, 26, 27]]]), msg.format(25, 20))
    # a vertex 10 tol beyond the apex of a sharp triangle is within tol of
    # both long sides' lines, but outside the widened box
    sharp = [[0.0, 0.0], [1.0, -0.005], [1.0, 0.005]]
    yield ("beyond a sharp apex", 2, sharp + [[-1e-11 * math.sqrt(5.0), 0.0],
                                              [-1.0, 0.5], [-1.0, -0.5]],
           [[0, 1, 2], [3, 4, 5]], None)
    # one large element far from many small ones: the cells widen until the
    # large box covers few rows
    small = build_structured_mesh("right2d", 8)
    yield ("one large element", 2, np.vstack([0.01 * small.vertices, tri + [1.0, 0.0]]),
           np.vstack([small.elements, [[81, 82, 83]]]), None)
    # vertex 25 hangs in element 31, vertex 26 in element 10: the element wins
    v2, e2 = _split(v, e, 30, [0, 2], [0.875, 0.875])
    yield ("two elements", 2, *_split(v2, e2, 11, [0, 1], [0.375, 0.375]),
           msg.format(26, 10))
    # three vertices hang in element 10 = (6, 7, 12); the grid meets 27
    # first, but the smallest one wins
    v3, e3 = _split(v, e, 3, [1, 2], [0.375, 0.25])
    v3, e3 = _split(v3, e3, 13, [0, 2], [0.5, 0.3125])
    v3, e3 = _split(v3, e3, 11, [0, 1], [0.28125, 0.28125])
    yield "one element, three vertices", 2, v3, e3, msg.format(25, 10)

    # kuhn3d:1: all six tets share the main diagonal (0, 7); tet 0 is
    # (0, 1, 3, 7) and its face (0, 3, 7) borders tet 2.  The grid cells
    # are 1 wide from -1/2, so the cube centre is a cell corner.
    base = build_structured_mesh("kuhn3d", 1)
    v, e = base.vertices, base.elements
    yield ("on an edge of six tets, at a cell corner", 3,
           *_split(v, e, 0, [0, 3], [0.5, 0.5, 0.5]), msg.format(8, 1))
    yield ("on a face", 3, *_split(v, e, 0, [0, 2, 3], [2 / 3, 2 / 3, 1 / 3]),
           msg.format(8, 2))
    yield ("strictly inside a tet", 3, TET + [[0.1, 0.1, 0.1], [1.0, 1.0, 1.0]],
           [[0, 1, 2, 3], [1, 2, 3, 5], [4, 1, 2, 5]], msg.format(4, 0))

    # graded meshes, where the small elements near the origin crowd one
    # grid cell; the last element is split on the diagonal of its square
    # (cube), from its first to its largest vertex, which only the elements
    # of that square (cube) share
    for gen, n, hang in (("right2d", 8, (81, 126)), ("kuhn3d", 3, (64, 156))):
        mesh = build_structured_mesh(gen, n)
        v, e = mesh.vertices ** 4, mesh.elements
        yield f"graded {gen}:{n}", mesh.dim, v, e, None
        local = [0, int(np.argmax(e[-1]))]
        yield (f"graded {gen}:{n}, split", mesh.dim,
               *_split(v, e, len(e) - 1, local, v[e[-1, local]].mean(axis=0)),
               msg.format(*hang))


@pytest.mark.parametrize("block", [None, 1, 8, 16])
def test_grid_scan_matches_the_box_scan(block, monkeypatch):
    # block 1 checks one element at a time; 8 and 16 hold two or four
    # elements of right2d (four candidates each) and one or two of kuhn3d
    if block is not None:
        monkeypatch.setattr(mesh_module, "_SCAN_BLOCK", block)
    scan = Mesh._scan_hanging_nodes
    for name, dim, verts, elems, expected in _hanging_cases():
        with monkeypatch.context() as mp:
            mp.setattr(Mesh, "_scan_hanging_nodes", lambda self: None)
            mesh = Mesh(dim, np.asarray(verts, dtype=float), np.asarray(elems))
        try:
            scan(mesh)
            got = None
        except MeshConformityError as exc:
            got = str(exc)
        assert got == _box_scan_reference(mesh), name
        assert got == expected, name


def _loop_generator(gen, n):
    """The structured meshes built one cell at a time, as a reference."""
    def at(i, j):
        return j * (n + 1) + i

    h = 1.0 / n
    cells = [(at(i, j), at(i + 1, j), at(i, j + 1), at(i + 1, j + 1))
             for j in range(n) for i in range(n)]
    xs = np.linspace(0.0, 1.0, n + 1)
    grid = [[x, y] for y in xs for x in xs]
    if gen == "right2d":
        return grid, [t for a, b, c, d in cells for t in ((a, b, d), (a, d, c))]
    if gen == "crisscross2d":
        centres = [[(i + 0.5) / n, (j + 0.5) / n] for j in range(n) for i in range(n)]
        tris = [t for k, (a, b, c, d) in enumerate(cells, start=(n + 1) ** 2)
                for t in ((a, b, k), (b, d, k), (d, c, k), (c, a, k))]
        return grid + centres, tris
    if gen == "equilateral2d":
        verts = [[(i + 0.5 * j) * h, j * math.sqrt(3.0) / 2.0 * h]
                 for j in range(n + 1) for i in range(n + 1)]
        tris = [t for a, b, c, d in cells for t in ((a, b, c), (b, d, c))][1:-1]
        used = sorted({v for t in tris for v in t})
        return [verts[v] for v in used], [[used.index(v) for v in t] for t in tris]
    if gen == "obtuse2d":
        interior = [j * (n + 1) + i for j in range(1, n) for i in range(1, n)]
        pts = np.array(grid)[interior]
        nearest = interior[int(np.argmin(((pts - 0.5) ** 2).sum(axis=1)))]
        grid[nearest] = [grid[nearest][0] + 0.3 * h, grid[nearest][1] + 0.1 * h]
        return grid, [t for a, b, c, d in cells for t in ((a, b, d), (a, d, c))]
    verts = [[x, y, z] for z in xs for y in xs for x in xs]
    tets = []
    for k, j, i in itertools.product(range(n), repeat=3):
        for perm in itertools.permutations(range(3)):
            cur = [i, j, k]
            tet = [(k * (n + 1) + j) * (n + 1) + i]
            for axis in perm:
                cur[axis] += 1
                tet.append((cur[2] * (n + 1) + cur[1]) * (n + 1) + cur[0])
            tets.append(tet)
    return verts, tets


@pytest.mark.parametrize("gen", ["right2d", "crisscross2d", "equilateral2d", "obtuse2d",
                                 "kuhn3d"])
def test_generators_match_the_cell_loops(gen):
    for n in (2, 3, 5):
        verts, elems = _loop_generator(gen, n)
        vertices, elements = GENERATORS[gen][1](n)
        assert_array_equal(vertices, np.array(verts))
        assert_array_equal(elements, np.array(elems))


@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_face_table_matches_unique_rows(gen):
    rng = np.random.default_rng(3)
    for n in ((1, 2, 3, 4) if gen == "kuhn3d" else (2, 3, 5, 8, 13)):
        mesh = build_structured_mesh(gen, n)
        # the same mesh with its elements and their vertices shuffled
        shuffled = Mesh(mesh.dim, mesh.vertices,
                        rng.permuted(rng.permutation(mesh.elements), axis=1))
        for m in (mesh, shuffled):
            k = m.dim + 1
            keep = [[j for j in range(k) if j != i] for i in range(k)]
            faces = np.sort(m.elements[:, keep], axis=2).reshape(-1, m.dim)
            table, ids, counts = np.unique(faces, axis=0, return_inverse=True,
                                           return_counts=True)
            ids = ids.reshape(m.elements.shape)
            assert_array_equal(m._face_ids, ids)
            assert_array_equal(m._face_counts, counts)
            boundary = np.unique(table[counts == 1])
            assert_array_equal(m.boundary_nodes, boundary)
            assert_array_equal(m.interior_nodes,
                               np.setdiff1d(np.arange(m.num_vertices), boundary))
            if m.dim == 2:
                ref = copy.copy(m)
                ref._face_ids, ref._face_counts = ids, counts
                assert classify_mesh(m).max_opposite_angle_sum == _max_opposite_angle_sum(ref)


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
    # the boundary nodes are exactly the vertices on the cube surface
    mesh = build_structured_mesh("kuhn3d", 3)
    surface = ((mesh.vertices == 0.0) | (mesh.vertices == 1.0)).any(axis=1)
    assert_array_equal(mesh.boundary_nodes, np.flatnonzero(surface))
    assert len(mesh.interior_nodes) == 8


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


@pytest.mark.parametrize("gen, res", [("kuhn3d", 4), ("crisscross2d", 6),
                                      ("equilateral2d", 6)])
def test_worst_pair_ignores_rounding_of_the_grams(gen, res):
    # the largest pairwise dots tie exactly on these meshes, so an argmax
    # would let the last digits of the Gram matrices pick the reported pair
    base = build_structured_mesh(gen, res)
    rep, g = classify_mesh(base), base.gradients
    rng = np.random.default_rng(0)
    einsum = np.einsum("ein,ekn->eik", g, g)
    for grams in [einsum] + [einsum * (1.0 + 4e-16 * rng.standard_normal(einsum.shape))
                             for _ in range(4)]:
        mesh = build_structured_mesh(gen, res)
        mesh._grams = grams
        other = classify_mesh(mesh)
        assert (other.worst_element, other.worst_pair) == (rep.worst_element, rep.worst_pair)
        assert other.mesh_class == rep.mesh_class
        assert other.worst_dot == pytest.approx(rep.worst_dot, rel=1e-12, abs=1e-12)


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

    # brute force: per edge, the angles opposite it in each element
    for gen, n in (("obtuse2d", 4), ("right2d", 3), ("right2d", 7), ("crisscross2d", 3),
                   ("crisscross2d", 6), ("equilateral2d", 3), ("equilateral2d", 7)):
        mesh = build_structured_mesh(gen, n)
        opposite = {}
        for elem in mesh.elements.tolist():
            for k in range(3):
                i, j = sorted(elem[:k] + elem[k + 1:])
                u = mesh.vertices[i] - mesh.vertices[elem[k]]
                v = mesh.vertices[j] - mesh.vertices[elem[k]]
                cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                opposite.setdefault((i, j), []).append(np.arccos(cos))
        ref = max(sum(a) for a in opposite.values() if len(a) == 2)
        # the displaced vertex breaks the Delaunay property
        assert (ref > np.pi + 1e-9) == (gen == "obtuse2d")
        assert_allclose(classify_mesh(mesh).max_opposite_angle_sum, ref,
                        rtol=0.0, atol=1e-15, err_msg=f"{gen}:{n}")

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


_GOOD_MESH = ["dim 2", "vertices 3", "0 0", "1 0", "0 1", "simplices 1", "0 1 2"]


def _edit(lines, i, row):
    """Lines with line i replaced by ``row``."""
    out = list(lines)
    out[i] = row
    return out


@pytest.mark.parametrize("lines, message", [
    ([], "empty mesh file"),
    (_edit(_GOOD_MESH, 0, "dimension 2"), "line 1: expected 'dim <n>', got 'dimension 2'"),
    (_edit(_GOOD_MESH, 0, "dim two"), "line 1: bad dimension 'two'"),
    (_edit(_GOOD_MESH, 0, "dim 7"), "line 1: dimension must be 2 or 3, got 7"),
    (_GOOD_MESH[:1], "unexpected end of file, expected 'vertices <count>'"),
    (_edit(_GOOD_MESH, 1, "points 3"), "line 2: expected 'vertices <count>', got 'points 3'"),
    (_edit(_GOOD_MESH, 1, "vertices 3.0"), "line 2: bad count '3.0'"),
    (_edit(_GOOD_MESH, 1, "vertices -1"), "line 2: negative count -1"),
    (_edit(_GOOD_MESH, 5, "simplices -2"), "line 6: negative count -2"),
    (_edit(_GOOD_MESH, 3, "1"), "line 4: expected 2 coordinates, got 1"),
    (_edit(_GOOD_MESH, 3, "1 0 0"), "line 4: expected 2 coordinates, got 3"),
    (_edit(_GOOD_MESH, 6, "0 1"), "line 7: expected 3 vertex indices, got 2"),
    (_edit(_GOOD_MESH, 2, "0 x"), "line 3: bad float in '0 x'"),
    (_edit(_GOOD_MESH, 6, "0 1 2.5"), "line 7: bad integer in '0 1 2.5'"),
    (_GOOD_MESH[:4], "expected 3 vertex lines, file ends early"),
    (_GOOD_MESH[:5], "unexpected end of file, expected 'simplices <count>'"),
    (_edit(_GOOD_MESH, 5, "simplices 2"), "expected 2 simplex lines, file ends early"),
    (_GOOD_MESH + ["3 4 5"], "line 8: trailing content after simplex block"),
])
def test_load_mesh_messages(tmp_path, lines, message):
    p = tmp_path / "bad.txt"
    p.write_text("".join(ln + "\n" for ln in lines))
    with pytest.raises(MeshFormatError) as exc:
        load_mesh(p)
    assert str(exc.value) == message


def test_assembled_matrices_do_not_alias_a_writable_pattern():
    # assembled matrices share the mesh's cached index arrays; an in-place
    # op on one must raise rather than change every later assembly
    mesh = build_structured_mesh("right2d", 4)
    fld = NodalField(mesh, np.random.default_rng(3).standard_normal((mesh.num_vertices, 2)))
    model = p_dirichlet(2.0)
    for build in (lambda: beta_weights(mesh, fld, model), lambda: assemble_hessian(model, fld)):
        first = build()
        ref = first.copy()
        assert (first.data == 0.0).any()       # right2d stores zero couplings
        with pytest.raises(ValueError):
            first.eliminate_zeros()
        again = build()
        for name in ("data", "indices", "indptr"):
            assert_array_equal(getattr(again, name), getattr(ref, name))


@pytest.mark.parametrize("gen,n", [("right2d", 4), ("kuhn3d", 2), ("obtuse2d", 4)])
def test_assembly_is_the_validated_constructor_on_a_shared_shell(gen, n):
    # ``Mesh.assemble`` copies its layout's shell instead of running the
    # csc_matrix constructor: it must give the matrix that constructor makes,
    # index dtype and sortedness included, and own its data
    mesh = build_structured_mesh(gen, n)
    rng = np.random.default_rng(11)
    k = mesh.dim + 1
    for m, interior in itertools.product((1, 2, 3), (True, False)):
        X = rng.standard_normal((mesh.num_elements, k * m, k * m))
        pairs = _pair_blocks((X + X.transpose(0, 2, 1)).reshape(-1, k, m, k, m))
        nodes = len(mesh.interior_nodes) if interior else mesh.num_vertices
        diagonal = rng.standard_normal((nodes, m, m))
        A, B = (mesh.assemble(pairs, diagonal, interior=interior) for _ in range(2))
        ref = scipy.sparse.csc_matrix((A.data.copy(), A.indices.astype(np.int64),
                                       A.indptr.astype(np.int64)), shape=A.shape)
        assert type(A) is type(ref) and A.shape == ref.shape == (nodes * m, nodes * m)
        _assert_same_csc(A, ref)
        assert A.has_sorted_indices and ref.has_sorted_indices
        assert A.indices is B.indices and A.indptr is B.indptr
        assert not (A.indices.flags.writeable or A.indptr.flags.writeable)
        assert A.data.flags.writeable and not np.shares_memory(A.data, B.data)


def test_assemble_rejects_a_misshaped_diagonal():
    # a size-1 array must not broadcast into every nodal block; right2d:4
    # has 9 interior nodes and 25 vertices
    mesh = build_structured_mesh("right2d", 4)
    for m in (1, 2):
        pairs = _pair_blocks(np.zeros((mesh.num_elements, 3, m, 3, m)))
        for interior, nodes, other in ((True, 9, 25), (False, 25, 9)):
            right = (nodes, m, m)
            A = mesh.assemble(pairs, np.full(right, 5.0), interior)
            assert_array_equal(A.diagonal(), 5.0)
            for shape in [(1, 1, 1), (nodes,), (nodes * m * m,), (nodes, m), (nodes + 1, m, m),
                          (other, m, m), (nodes, m + 1, m + 1), (1, nodes, m, m)]:
                message = f"diagonal has shape {shape}, not the nodal block shape {right}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    mesh.assemble(pairs, np.full(shape, 5.0), interior)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_diagonal_is_bitwise_the_sparse_diagonal(index_dtype):
    # Hessians with lumped nodal blocks at m = 1..3, and the p = 3 Hessian at
    # the zero-interior start on right2d:4, whose centre row is exactly zero
    mesh = build_structured_mesh("right2d", 4)
    rng = np.random.default_rng(2)
    lumped = LumpedTerm.from_mesh(mesh, 3.0)
    hessians = [assemble_hessian(mean_curvature(), NodalField(
        mesh, rng.standard_normal((mesh.num_vertices, m))), lumped=lumped) for m in (1, 2, 3)]
    start = interpolate_boundary(mesh, BoundaryData.random_uniform(3, -1.0, 1.0), 1)
    hessians.append(assemble_hessian(p_dirichlet(3.0), start))
    assert (hessians[-1].diagonal() == 0.0).any()
    for H in hessians:
        indptr, indices = H.indptr.astype(index_dtype), H.indices.astype(index_dtype)
        d = mesh_module._csr_diagonal(indptr, indices, H.data)
        assert d.dtype == np.float64 and d.tobytes() == H.diagonal().tobytes()


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_matvec_is_bitwise_the_sparse_product(index_dtype):
    # the helper calls scipy's private kernel; the floors CI job runs this at
    # the oldest scipy admitted, so a kernel moved or changed there shows here
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.3)
    dense[[0, 7, 8, 39]] = 0.0                        # empty rows, first and last too
    A = scipy.sparse.csr_matrix(dense)
    A.indptr, A.indices = A.indptr.astype(index_dtype), A.indices.astype(index_dtype)
    x = rng.standard_normal(60)[::2]                  # not contiguous
    assert not x.flags.c_contiguous
    y = mesh_module._csr_matvec(A.indptr, A.indices, A.data, x)
    assert y.dtype == np.float64 and y.shape == (40,)
    assert y.tobytes() == (A @ x).tobytes()
    assert not y[[0, 7, 8, 39]].any()
    assert A.indptr.dtype == A.indices.dtype == index_dtype
    # into a used slice of a larger buffer: the old entries are overwritten,
    # not added to, and the neighbours are left alone
    buf = np.full(50, 3.0)
    out = mesh_module._csr_matvec(A.indptr, A.indices, A.data, x, out=buf[5:45])
    assert out.base is buf and out.tobytes() == y.tobytes()
    assert (buf[:5] == 3.0).all() and (buf[45:] == 3.0).all()

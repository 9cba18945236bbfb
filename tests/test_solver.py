import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from numpy.testing import assert_allclose, assert_array_equal

from femchp.energy import (
    EnergyModel,
    LumpedTerm,
    SourceTerm,
    _newton_weights,
    _safe_a,
    energy_value,
    mean_curvature,
    orlicz,
    p_dirichlet,
    residual,
)
from femchp.field import BoundaryData, NodalField, interpolate_boundary
from femchp import mesh as mesh_module
from femchp.mesh import GENERATORS, Mesh, build_structured_mesh
import femchp.solver as solver_module
from femchp.solver import (
    LineSearchError,
    _backtrack,
    _pcg,
    assemble_hessian,
    minimize,
    solve_quadratic_oracle,
)
from femchp.verify import beta_weights, verify_chp

ALL_MODELS = [p_dirichlet(1.5), p_dirichlet(2.0), p_dirichlet(3.0),
              p_dirichlet(10.0), mean_curvature(),
              orlicz("log-cosh"), orlicz("power-log")]


def test_hessian_p2_is_stiffness(right2d_n2):
    f = NodalField(right2d_n2, np.zeros(9))
    H = assemble_hessian(p_dirichlet(2.0), f).toarray()
    assert_allclose(H, [[4.0]], atol=1e-13)


def test_hessian_symmetry_and_fd(right2d_n2):
    rng = np.random.default_rng(4)
    lum = LumpedTerm.from_mesh(right2d_n2, 4.0)
    h = 1e-6
    for model in (p_dirichlet(3.0), mean_curvature(), orlicz("log-cosh")):
        for lumped in (None, lum):
            m = 2
            vals = rng.standard_normal((9, m)) + 1.5
            f = NodalField(right2d_n2, vals)
            H = assemble_hessian(model, f, lumped=lumped).toarray()
            N = len(right2d_n2.interior_nodes) * m
            assert H.shape == (N, N)
            assert_allclose(H, H.T, atol=1e-12)
            for col in range(N):
                i = right2d_n2.interior_nodes[col // m]
                j = col % m
                vp = vals.copy(); vp[i, j] += h
                vm = vals.copy(); vm[i, j] -= h
                fd = (residual(model, NodalField(right2d_n2, vp), lumped=lumped)
                      - residual(model, NodalField(right2d_n2, vm), lumped=lumped)
                      ) / (2 * h)
                assert_allclose(H[:, col], fd.reshape(-1), rtol=2e-5, atol=2e-6)


def _reference_kernels(model, field, source=None, lumped=None):
    """Element gradients, energy, residual and dense interior Hessian in the
    einsum / np.add.at form, assembled without ``Mesh.assemble``."""
    mesh, m, n = field.mesh, field.m, field.mesh.dim
    V = mesh.num_vertices
    coef = mesh.volumes * model.element_coeff(mesh.num_elements)
    G = np.einsum("ein,eim->enm", mesh.gradients, field.values[mesh.elements])
    t = np.sqrt(np.einsum("enm,enm->e", G, G))
    P = np.einsum("enm,ein->eim", G, mesh.gradients)
    energy = float(np.sum(coef * model.F(t)))
    r = np.zeros((V, m))
    np.add.at(r, mesh.elements.ravel(),
              ((coef * _safe_a(model, t))[:, None, None] * P).reshape(-1, m))

    # a(t) policy derived here from a0, apart from energy._newton_weights
    te = np.maximum(t, 1e-8 * (1.0 + t.max())) if np.isinf(model.a0) else t
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(te > 0.0, model.a(te), model.a0)
        b = np.where(te > 0.0, (model.F_tt(te) - a) / te ** 2, 0.0)
    S = np.einsum("ein,ekn->eik", mesh.gradients, mesh.gradients)
    eye = np.eye(m)
    loc = ((coef * a)[:, None, None, None, None] * S[:, :, None, :, None]
           * eye[None, None, :, None, :]
           + (coef * b)[:, None, None, None, None] * P[:, :, :, None, None]
           * P[:, None, None, :, :]).reshape(len(G), (n + 1) * m, (n + 1) * m)
    dof = (mesh.elements[:, :, None] * m + np.arange(m)).reshape(len(G), -1)
    H = np.zeros((V * m, V * m))
    np.add.at(H, (dof[:, :, None], dof[:, None, :]), loc)

    if source is not None:
        energy -= float(np.sum(source.values * mesh.volumes
                               * field.values[mesh.elements, 0].mean(axis=1)))
        np.add.at(r[:, 0], mesh.elements.ravel(),
                  np.repeat(-source.values * mesh.volumes / (n + 1), n + 1))
    if lumped is not None:
        q, w, v = lumped.q, lumped.weights, field.values
        vn = np.linalg.norm(v, axis=1)
        energy += float(np.sum(w * vn ** q)) / q
        pos = vn > 0.0
        r += (w * np.where(pos, vn ** (q - 2.0), 0.0))[:, None] * v
        for z in np.flatnonzero(pos):
            blk = w[z] * (vn[z] ** (q - 2.0) * eye
                          + (q - 2.0) * vn[z] ** (q - 4.0) * np.outer(v[z], v[z]))
            H[z * m:(z + 1) * m, z * m:(z + 1) * m] += blk

    idx = (mesh.interior_nodes[:, None] * m + np.arange(m)).ravel()
    return G, energy, r[mesh.interior_nodes], H[np.ix_(idx, idx)]


def _close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.abs(new - ref).max(initial=0.0) <= 1e-13 * np.abs(ref).max(initial=0.0)


def _kernel_cases(gen, m):
    """(model, field, source, lumped) cases on a small ``gen`` mesh: the
    zero-interior start, which leaves elements with an exactly zero
    gradient, and a generic field, with the a(t) clamp, element
    coefficients, a lumped term and, for m = 1, a source."""
    mesh = build_structured_mesh(gen, 3 if gen == "kuhn3d" else 4)
    rng = np.random.default_rng(m)
    bc = BoundaryData.random_uniform(m, -1.0, 1.0)
    zero_interior = interpolate_boundary(mesh, bc, m)
    generic = NodalField(mesh, rng.uniform(-1.0, 1.0, (mesh.num_vertices, m)))
    coeff = rng.uniform(0.5, 2.0, mesh.num_elements)
    cases = [
        (p_dirichlet(1.5), zero_interior, None, None),      # the a(t) clamp
        (p_dirichlet(3.0, coeff=coeff), zero_interior, None, None),
        (p_dirichlet(3.0), generic, None, LumpedTerm.from_mesh(mesh, 3.0)),
        (mean_curvature(), generic, None, None),
    ]
    if m == 1:
        source = SourceTerm(rng.uniform(-1.0, 1.0, mesh.num_elements))
        cases.append((p_dirichlet(1.5), generic, source, None))
    assert (np.abs(zero_interior.element_gradients()).max(axis=(1, 2)) == 0.0).any()
    return cases


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_kernels_match_the_einsum_reference(gen, m):
    for model, fld, source, lumped in _kernel_cases(gen, m):
        G, E, r, H = _reference_kernels(model, fld, source, lumped)
        _close(fld.element_gradients(), G)
        _close(energy_value(model, fld, source=source, lumped=lumped), E)
        _close(residual(model, fld, source=source, lumped=lumped), r)
        Hn = assemble_hessian(model, fld, lumped=lumped).toarray()
        _close(Hn, H)
        _close(Hn, Hn.T)


def _residual_reference(model, field, source, lumped):
    """``residual`` with fancy-index gathers, its scatter keys built on the
    call and a(t) evaluated through the t > 0 mask on every element."""
    mesh, m = field.mesh, field.m
    G = np.matmul(mesh.gradients.transpose(0, 2, 1), field.values[mesh.elements])
    t = np.sqrt(np.einsum("enm,enm->e", G, G))
    pos = t > 0.0
    av = np.zeros_like(t)
    av[pos] = model.a(t[pos])
    coef = mesh.volumes * model.element_coeff(mesh.num_elements) * av
    forces = (coef[:, None, None] * np.matmul(mesh.gradients, G)).ravel()
    keys = (mesh.elements[:, :, None] * m + np.arange(m)).ravel()
    if source is not None:
        keys = np.concatenate([keys, mesh.elements.ravel()])
        forces = np.concatenate([forces, np.repeat(-source.values * mesh.volumes / (mesh.dim + 1),
                                                   mesh.dim + 1)])
    r = np.bincount(keys, weights=forces, minlength=mesh.num_vertices * m).reshape(-1, m)
    if lumped is not None:
        vnorm = np.linalg.norm(field.values, axis=1)
        fac = np.where(vnorm > 0.0, vnorm ** (lumped.q - 2.0), 0.0)
        r += (lumped.weights * fac)[:, None] * field.values
    return r[mesh.interior_nodes]


def _newton_weights_reference(model, t):
    """``energy._newton_weights`` through the t > 0 mask on every element."""
    if np.isinf(model.a0):
        t = np.maximum(t, 1e-8 * (1.0 + float(t.max(initial=0.0))))
    pos = t > 0.0
    a = np.full_like(t, model.a0)
    a[pos] = model.a(t[pos])
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(pos, (model.F_tt(t) - a) / t ** 2, 0.0)
    return a, b


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_residual_and_weights_are_bitwise_the_masked_fancy_index_form(gen, m):
    # the gathers by ``take``, the cached scatter keys and the unmasked a(t)
    # where every t > 0 change the cost of a Newton step, not one bit of it
    for model, fld, source, lumped in _kernel_cases(gen, m):
        r = residual(model, fld, source=source, lumped=lumped)
        assert r.tobytes() == _residual_reference(model, fld, source, lumped).tobytes()
        t0 = fld._norms[1]
        for t in (t0, t0 + 0.25):               # some zero gradients, then none
            weights = _newton_weights(model, t)
            for new, ref in zip(weights, _newton_weights_reference(model, t)):
                assert new.dtype == ref.dtype and new.tobytes() == ref.tobytes()


def _pcg_reference(H, g, eta):
    """``_pcg`` with ``@`` inner products, ``np.linalg.norm`` and a new
    array per product and per update."""
    indptr, indices, data = H.indptr, H.indices, H.data
    keep = data != 0.0
    if not keep.all():
        kept = np.flatnonzero(keep)
        indptr = np.searchsorted(kept, indptr).astype(indices.dtype)
        indices, data = indices[kept], data[kept]
    diag = mesh_module._csr_diagonal(indptr, indices, data)
    top = float(diag.max(initial=0.0)) or 1.0
    w = 1.0 / np.where(diag > 1e-12 * top, diag, top)
    d, res, k = np.zeros_like(g), -g, 0
    z = w * res
    p, rz, stop = z.copy(), float(res @ z), (eta * np.linalg.norm(g)) ** 2
    while res @ res > stop and k < 10 * len(g):
        Hp = mesh_module._csr_matvec(indptr, indices, data, p)
        curv = float(p @ Hp)
        k += 1
        if not curv > 0.0:
            if k == 1:
                return p, "gradient", k, Hp
            break
        alpha = rz / curv
        d += alpha * p
        res -= alpha * Hp
        np.multiply(w, res, out=z)
        rz, rz_old = float(res @ z), rz
        p *= rz / rz_old
        p += z
    return d, "newton", k, -(g + res)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("gen", ["crisscross2d", "kuhn3d"])
def test_pcg_is_bitwise_the_allocating_matmul_loop(gen, m):
    systems = []
    for model, fld, source, lumped in _kernel_cases(gen, m):
        g = residual(model, fld, source=source, lumped=lumped).reshape(-1)
        systems.append((assemble_hessian(model, fld, lumped=lumped), g))
    # the "gradient" exits, on negative and on zero curvature
    systems += [(_stored(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
                 np.array([1.0, -1.0, 0.0])),
                (_stored(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])),
                 np.array([1.0, -1.0, 2.0]))]
    kinds = set()
    for H, g in systems:
        for eta in (1e-12, 0.5):
            d, kind, its, Hd = _pcg(H, g, eta)
            d_ref, kind_ref, its_ref, Hd_ref = _pcg_reference(H, g, eta)
            assert (kind, its) == (kind_ref, its_ref)
            assert d.tobytes() == d_ref.tobytes() and Hd.tobytes() == Hd_ref.tobytes()
            kinds.add(kind)
    assert kinds == {"newton", "gradient"}


def test_scatter_keys_are_cached_per_m_and_read_only():
    # the residuals at m = 1, 2 and 3 on one mesh each read the keys of
    # their own m, however they interleave, and no caller can write them
    mesh = build_structured_mesh("crisscross2d", 4)
    rng = np.random.default_rng(8)
    model = p_dirichlet(3.0)
    for m in (1, 2, 3, 1, 3, 2):
        fld = NodalField(mesh, rng.uniform(-1.0, 1.0, (mesh.num_vertices, m)))
        r = residual(model, fld)
        assert r.tobytes() == _residual_reference(model, fld, None, None).tobytes()
    assert sorted(mesh._keys) == [1, 2, 3]
    for m, keys in mesh._keys.items():
        assert mesh._scatter_keys(m) is keys
        assert keys.shape == (mesh.num_elements * (mesh.dim + 1) * m,)
        assert_array_equal(keys, (mesh.elements[:, :, None] * m + np.arange(m)).ravel())
        with pytest.raises(ValueError, match="read-only"):
            keys[0] = 0


def test_threads_sharing_a_mesh_read_equal_scatter_keys():
    # experiment's worker threads share meshes, and each may build a mesh's
    # keys for an m the others are building too; whichever copy is kept,
    # every residual is the serial one
    model = p_dirichlet(3.0)
    serial = build_structured_mesh("crisscross2d", 4)
    rng = np.random.default_rng(9)
    fields = [rng.uniform(-1.0, 1.0, (serial.num_vertices, m)) for m in (1, 2, 3) * 4]
    want = [residual(model, NodalField(serial, v)).tobytes() for v in fields]

    def run(mesh, v):
        return residual(model, NodalField(mesh, v)).tobytes()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            mesh = build_structured_mesh("crisscross2d", 4)
            with ThreadPoolExecutor(max_workers=len(fields)) as pool:
                futures = [pool.submit(run, mesh, v) for v in fields]
                assert [f.result(timeout=60) for f in futures] == want
            assert sorted(mesh._keys) == [1, 2, 3]
    finally:
        sys.setswitchinterval(old)


def _stored(dense):
    """CSC matrix that stores every entry, zeros included, as assembly does."""
    i, j = np.indices(dense.shape)
    return sp.csc_matrix((dense.ravel(), (i.ravel(), j.ravel())), shape=dense.shape)


def test_pcg_solves_spd_and_exits_on_non_positive_curvature(capfd):
    spd = _stored(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
    g = np.array([1.0, 2.0, 3.0])
    d, kind, its, Hd = _pcg(spd, g, 1e-14)
    exact = scipy.sparse.linalg.spsolve(spd, -g)
    assert kind == "newton" and 1 <= its
    assert np.abs(d - exact).max() <= 1e-12 * np.abs(exact).max()
    assert_allclose(Hd, spd @ d, rtol=1e-14)
    # a first step along a direction of negative (indefinite) or zero
    # (singular, with a zero diagonal row) curvature returns the
    # preconditioned residual as a scaled gradient step
    indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    for H, g in ((indefinite, np.array([1.0, -1.0, 0.0])),
                 (singular, np.array([1.0, -1.0, 2.0]))):
        d, kind, its, Hd = _pcg(_stored(H), g, 1e-14)
        w = 1.0 / np.where(H.diagonal() > 0.0, H.diagonal(), H.diagonal().max())
        assert kind == "gradient" and its == 1
        assert_array_equal(d, -w * g)
        assert_array_equal(Hd, H @ d)
        assert float(g @ d) < 0.0
    assert capfd.readouterr() == ("", "")


def test_pcg_drops_stored_zeros_bitwise():
    # the zero-coupled p = 2, m = 3 Hessian: CG on it with every entry
    # stored, zeros included, is CG on it after ``eliminate_zeros``
    mesh = build_structured_mesh("right2d", 8)
    fld = interpolate_boundary(mesh, BoundaryData.random_uniform(4, -1.0, 1.0), 3)
    H = assemble_hessian(p_dirichlet(2.0), fld)
    lean = sp.csc_matrix(H, copy=True)
    lean.eliminate_zeros()
    assert lean.nnz < H.nnz < H.shape[0] ** 2
    g = residual(p_dirichlet(2.0), fld).reshape(-1)
    for eta in (1e-12, 0.5):
        d, kind, its, Hd = _pcg(_stored(H.toarray()), g, eta)
        d_ref, kind_ref, its_ref, Hd_ref = _pcg(lean, g, eta)
        assert (kind, its) == (kind_ref, its_ref)
        assert d.tobytes() == d_ref.tobytes() and Hd.tobytes() == Hd_ref.tobytes()


@pytest.mark.parametrize("p, m", [(2.0, 3), (3.0, 2)])
def test_sparse_products_get_one_index_dtype(monkeypatch, p, m):
    # mixed index dtypes run, but the kernel converts the indices per call
    calls = []
    real = mesh_module._csr_matvec

    def recording(indptr, indices, data, x, out=None):
        calls.append((indptr.dtype, indices.dtype))
        return real(indptr, indices, data, x, out=out)

    monkeypatch.setattr(mesh_module, "_csr_matvec", recording)
    monkeypatch.setattr(solver_module, "_csr_matvec", recording)
    mesh = build_structured_mesh("right2d", 8)
    _, rep = minimize(p_dirichlet(p), mesh, BoundaryData.random_uniform(1, -1.0, 1.0), m=m)
    assert rep.converged and len(calls) > rep.cg_iterations > 0
    assert all(ptr == idx for ptr, idx in calls)


def test_no_scipy_matrix_work_in_the_cg_loop(monkeypatch):
    mesh = build_structured_mesh("right2d", 8)
    bc = BoundaryData.random_uniform(2, -1.0, 1.0)
    minimize(p_dirichlet(3.0), mesh, bc, m=2)          # builds the mesh's patterns
    counts = dict.fromkeys(("built", "matmul", "diagonal", "hessians"), 0)

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    for cls in (sp.csr_matrix, sp.csc_matrix):
        monkeypatch.setattr(cls, "__init__", counting("built", cls.__init__))
        monkeypatch.setattr(cls, "__matmul__", counting("matmul", cls.__matmul__))
        monkeypatch.setattr(cls, "diagonal", counting("diagonal", cls.diagonal))
    monkeypatch.setattr(solver_module, "assemble_hessian",
                        counting("hessians", solver_module.assemble_hessian))
    _, rep = minimize(p_dirichlet(3.0), mesh, bc, m=2)
    assert rep.converged and rep.start == "harmonic" and rep.cg_iterations > 0
    # every Hessian, and the harmonic start's stiffness, is a copy of its
    # layout's shell, and splu takes that stiffness as it is: no sparse
    # constructor runs at all, and none per Newton step
    assert counts == {"built": 0, "matmul": 0, "diagonal": 0,
                      "hessians": rep.newton_steps + rep.gradient_steps}


def test_p3_zero_interior_start_takes_a_newton_step(right2d_n4, capfd):
    # a(0) = 0 for p = 3, and the centre node's star has no boundary vertex,
    # so at the zero-interior start its Hessian row is exactly zero
    model = p_dirichlet(3.0)
    bc = BoundaryData.random_uniform(3, -1.0, 1.0)
    start = interpolate_boundary(right2d_n4, bc, 1)
    H = assemble_hessian(model, start)
    centre = int(np.flatnonzero(right2d_n4.interior_nodes == 12)[0])
    assert H.diagonal()[centre] == 0.0
    r = residual(model, start).reshape(-1)
    d, kind, _, _ = _pcg(H, r, 0.5)
    assert kind == "newton" and float(r @ d) < 0.0
    _, rep = minimize(model, right2d_n4, bc)
    assert rep.converged and rep.gradient_steps == 0
    # here the zero region shrinks by one ring per step; a direct solver
    # handed the fifth zero-diagonal Hessian unchecked prints "On entry to
    # DTRSV parameter number 6 had an illegal value"
    mesh = build_structured_mesh("right2d", 30)
    bc = BoundaryData.random_uniform(2029167940, -1.0, 1.0)
    _, rep = minimize(model, mesh, bc, m=2, max_iters=5)
    assert rep.newton_steps == 5 and rep.gradient_steps == 0
    assert capfd.readouterr() == ("", "")


def test_hessian_cache_follows_the_mesh():
    # each mesh keeps its own pattern: meshes used in alternation, and a new
    # mesh built right after another was dropped (which in CPython usually
    # gets the dropped mesh's id()), give the Hessians of a fresh mesh
    model = p_dirichlet(3.0)
    specs = [("right2d", 4), ("crisscross2d", 3), ("kuhn3d", 2)]

    def hessian(mesh, m):
        vals = np.random.default_rng(m).standard_normal((mesh.num_vertices, m))
        return assemble_hessian(model, NodalField(mesh, vals)).toarray()

    live = {spec: build_structured_mesh(*spec) for spec in specs}
    ref = {(spec, m): hessian(build_structured_mesh(*spec), m)
           for spec in specs for m in (1, 2)}
    for m in (1, 2, 1):
        for spec in specs:
            assert_array_equal(hessian(live[spec], m), ref[spec, m])
    for _ in range(3):
        for spec in specs:
            mesh = Mesh(live[spec].dim, live[spec].vertices, live[spec].elements)
            assert_array_equal(hessian(mesh, 2), ref[spec, 2])
            del mesh


def test_minimize_p2_matches_oracle():
    for gen, N in (("right2d", 4), ("crisscross2d", 4), ("equilateral2d", 4)):
        mesh = build_structured_mesh(gen, N)
        for m in (1, 2):
            bc = BoundaryData.random_uniform(3, -1.0, 1.0)
            fld, rep = minimize(p_dirichlet(2.0), mesh, bc, m=m)
            assert rep.converged, (gen, m, rep.status)
            oracle = solve_quadratic_oracle(mesh, bc, m=m)
            assert np.abs(fld.values - oracle.values).max() <= 1e-9


def test_minimize_p2_with_source_matches_oracle(right2d_n4):
    src = SourceTerm.constant(right2d_n4, -1.0)
    bc = BoundaryData.random_uniform(0, -1.0, 1.0)
    fld, rep = minimize(p_dirichlet(2.0), right2d_n4, bc, source=src)
    assert rep.converged
    oracle = solve_quadratic_oracle(right2d_n4, bc, source=src)
    assert np.abs(fld.values - oracle.values).max() <= 1e-9


def test_affine_data_reproduced_exactly(equilateral_n4):
    const = np.array([0.3, -0.2])
    coeffs = np.array([[0.15, 0.3], [0.45, 0.6]])
    bc = BoundaryData.affine(const, coeffs)
    exact = const[None, :] + equilateral_n4.vertices @ coeffs.T
    for model in ALL_MODELS:
        fld, rep = minimize(model, equilateral_n4, bc, m=2, tol=1e-12)
        assert rep.converged, (model.name, rep.status)
        assert rep.residual_norm <= 1e-12
        assert np.abs(fld.values - exact).max() <= 1e-12, model.name


def test_boundary_rows_survive_bit_for_bit(right2d_n4):
    bc = BoundaryData.random_uniform(9, -1.0, 1.0)
    start = interpolate_boundary(right2d_n4, bc, 2)
    fld, _ = minimize(p_dirichlet(3.0), right2d_n4, bc, m=2)
    assert_array_equal(fld.values[right2d_n4.boundary_nodes],
                       start.values[right2d_n4.boundary_nodes])


def test_energy_never_increases_p2(right2d_n4):
    bc = BoundaryData.random_uniform(1, -1.0, 1.0)
    _, rep = minimize(p_dirichlet(2.0), right2d_n4, bc, m=1)
    hist = np.asarray(rep.energy_history)
    assert (np.diff(hist) <= 1e-12 * np.maximum(1.0, np.abs(hist[:-1]))).all()


def test_interior_below_boundary_energy(right2d_n4):
    # the minimiser cannot beat its own boundary interpolant
    bc = BoundaryData.random_uniform(5, -1.0, 1.0)
    start = interpolate_boundary(right2d_n4, bc, 1)
    model = mean_curvature()
    fld, rep = minimize(model, right2d_n4, bc, m=1)
    assert rep.converged
    assert energy_value(model, fld) <= energy_value(model, start) + 1e-12


def test_p10_stagnates_honestly():
    # with random data the p = 10 energy sits near 1e10 where one ulp
    # exceeds the achievable residual decrease; the solver must stop and
    # say so instead of claiming convergence
    mesh = build_structured_mesh("right2d", 4)
    bc = BoundaryData.random_uniform(0, -1.0, 1.0)
    fld, rep = minimize(p_dirichlet(10.0), mesh, bc, m=3)
    assert not rep.converged
    assert rep.status == "stagnated"
    assert rep.residual_norm > rep.tol
    assert rep.iterations < 100
    assert np.isfinite(fld.values).all()


def test_p_less_than_two_converges():
    mesh = build_structured_mesh("crisscross2d", 4)
    bc = BoundaryData.random_uniform(2, -1.0, 1.0)
    fld, rep = minimize(p_dirichlet(1.5), mesh, bc, m=3)
    assert rep.converged
    assert rep.residual_norm <= 1e-10
    assert rep.iterations <= 30


def test_constant_data_yields_constant_field():
    mesh = build_structured_mesh("equilateral2d", 4)
    bc = BoundaryData.affine([0.7, -0.4], [[0.0, 0.0], [0.0, 0.0]])
    for model in (p_dirichlet(2.0), p_dirichlet(3.0)):
        fld, rep = minimize(model, mesh, bc, m=2)
        assert rep.converged, (model.name, rep.status)
        spread = np.ptp(fld.values, axis=0).max()
        assert spread <= 1e-10, (model.name, spread)


def test_max_iters_cap(right2d_n4):
    bc = BoundaryData.random_uniform(4, -1.0, 1.0)
    fld, rep = minimize(p_dirichlet(3.0), right2d_n4, bc, m=1, max_iters=1)
    assert rep.status == "max-iterations"
    assert not rep.converged
    assert rep.iterations == 1


@pytest.mark.parametrize("key, value", [("max_iters", -1), ("tol", -1.0), ("tol", np.nan),
                                        ("tol", np.inf)])
def test_minimize_rejects_a_bad_cap_or_tolerance(right2d_n4, key, value):
    # max_iters = -1 once ran no iteration and failed on an unset residual;
    # tol = -1 ran until the energy stagnated
    bc = BoundaryData.random_uniform(4, -1.0, 1.0)
    with pytest.raises(ValueError, match="must be"):
        minimize(p_dirichlet(3.0), right2d_n4, bc, m=1, **{key: value})


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("model", [p_dirichlet(1.5), p_dirichlet(2.0), p_dirichlet(3.0),
                                   p_dirichlet(10.0), mean_curvature()],
                         ids=lambda model: model.name)
def test_each_iterate_takes_one_residual(monkeypatch, model, m):
    seen = []
    real = solver_module.residual

    def recording(model, field, **kwargs):
        seen.append(field.values.tobytes())
        return real(model, field, **kwargs)

    monkeypatch.setattr(solver_module, "residual", recording)
    mesh = build_structured_mesh("right2d", 8)
    minimize(model, mesh, BoundaryData.random_uniform(1, -1.0, 1.0), m=m)
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("lumped_q", [None, 3.0])
@pytest.mark.parametrize("source", [None, -1.0])
@pytest.mark.parametrize("model", [p_dirichlet(1.5), p_dirichlet(2.0), p_dirichlet(3.0),
                                   mean_curvature()],
                         ids=lambda model: model.name)
def test_each_field_takes_one_gradient_pass(monkeypatch, model, source, lumped_q):
    # the energy, the residual and the Hessian at one iterate or trial
    # share its element gradients
    seen = []
    real = NodalField.element_gradients

    def recording(self):
        seen.append(self.values.tobytes())
        return real(self)

    monkeypatch.setattr(NodalField, "element_gradients", recording)
    mesh = build_structured_mesh("crisscross2d", 6)
    m = 1 if source is not None else 2
    _, rep = minimize(model, mesh, BoundaryData.random_uniform(2, -1.0, 1.0), m=m,
                      source=SourceTerm.constant(mesh, source) if source is not None else None,
                      lumped=LumpedTerm.from_mesh(mesh, lumped_q) if lumped_q else None)
    assert rep.converged
    assert len(seen) == len(set(seen)) > rep.iterations


@pytest.mark.parametrize("spec", [("right2d", 8), ("crisscross2d", 6), ("equilateral2d", 6),
                                  ("kuhn3d", 3)],
                         ids=lambda spec: f"{spec[0]}:{spec[1]}")
def test_quadratic_energies_take_one_exact_step_and_a_confirming_one(spec):
    # the p = 2 Hessian does not depend on the iterate, so the first step
    # is solved to the tightest forcing and the second only confirms it
    mesh = build_structured_mesh(*spec)
    coeff = np.random.default_rng(len(spec[0])).uniform(0.1, 10.0, mesh.num_elements)
    cases = [(m, None, None) for m in (1, 2, 3)] + [(m, coeff, None) for m in (1, 2, 3)]
    cases.append((1, None, SourceTerm.constant(mesh, -2.0)))
    cases.append((1, coeff, SourceTerm.constant(mesh, 3.0)))
    for seed, (m, c, source) in enumerate(cases):
        bc = BoundaryData.random_uniform(seed, -1.0, 1.0)
        fld, rep = minimize(p_dirichlet(2.0, coeff=c), mesh, bc, m=m, source=source)
        case = (m, c is not None, source is not None)
        assert rep.converged and rep.newton_steps == rep.iterations == 2, case
        assert rep.gradient_steps == rep.backtracks == 0, case
        if c is None and source is None:
            oracle = solve_quadratic_oracle(mesh, bc, m=m)
            assert np.abs(fld.values - oracle.values).max() <= 1e-10, case


def test_a_lumped_term_keeps_the_eisenstat_walker_forcing(monkeypatch):
    # a lumped term makes the p = 2 Hessian depend on the iterate, so the
    # first step keeps the loose forcing
    etas = []
    real = solver_module._pcg

    def recording(H, g, eta):
        etas.append(eta)
        return real(H, g, eta)

    monkeypatch.setattr(solver_module, "_pcg", recording)
    mesh = build_structured_mesh("right2d", 8)
    bc = BoundaryData.random_uniform(3, -1.0, 1.0)
    for lumped, first in ((None, solver_module._ETA_MIN),
                          (LumpedTerm.from_mesh(mesh, 3.0), solver_module._ETA_MAX)):
        etas.clear()
        _, rep = minimize(p_dirichlet(2.0), mesh, bc, m=2, lumped=lumped)
        assert rep.converged and etas[0] == first
    assert rep.newton_steps > 2


@pytest.mark.parametrize("model", [p_dirichlet(2.0), p_dirichlet(3.0), mean_curvature()],
                         ids=lambda model: model.name)
def test_converged_is_the_converged_status_at_every_cap(model):
    mesh = build_structured_mesh("right2d", 8)
    bc = BoundaryData.random_uniform(1, -1.0, 1.0)
    _, full = minimize(model, mesh, bc)
    for cap in range(full.iterations + 1):
        _, rep = minimize(model, mesh, bc, max_iters=cap)
        assert rep.converged == (rep.status == "converged") == (rep.residual_norm <= rep.tol), cap
    assert full.converged


def test_line_search_rejects_ascent(right2d_n4):
    bc = BoundaryData.random_uniform(6, -1.0, 1.0)
    f = interpolate_boundary(right2d_n4, bc, 1)
    model = p_dirichlet(2.0)
    E = energy_value(model, f)
    r = residual(model, f)
    slope = float(np.sum(r * r))
    with pytest.raises(LineSearchError):      # +gradient is uphill
        _backtrack(model, f, r, E, slope, None, None)
    s, fld, E_new, evals = _backtrack(model, f, -r, E, -slope, None, None)
    assert 0.0 < s <= 1.0 and evals >= 1
    trial = f.values.copy()
    trial[right2d_n4.interior_nodes] += s * (-r)
    assert_array_equal(fld.values, trial)
    assert energy_value(model, f.with_values(trial)) == E_new < E


def test_backtrack_without_a_slope_takes_the_full_step(right2d_n4):
    bc = BoundaryData.random_uniform(6, -1.0, 1.0)
    f = interpolate_boundary(right2d_n4, bc, 1)
    model = p_dirichlet(2.0)
    E = energy_value(model, f)
    r = residual(model, f)
    # uphill, and a step whose energy is not finite: one evaluation, s = 1
    for step in (r, np.full_like(r, 1e300)):
        s, fld, E_new, evals = _backtrack(model, f, step, E, None, None, None)
        assert s == 1.0 and evals == 1
        trial = f.values.copy()
        trial[right2d_n4.interior_nodes] += step
        assert_array_equal(fld.values, trial)
        if step is r:
            assert energy_value(model, fld) == E_new > E
        else:
            assert not np.isfinite(E_new)


@pytest.mark.parametrize("seed, exit_path", [(1, "rounding"), (4, "stall")])
def test_stagnated_exits_report_the_returned_iterate(monkeypatch, seed, exit_path):
    # p = 10 on right2d:8 ends in the rounding regime, either on a full step
    # that fails to reduce the residual (one line search more than accepted
    # steps) or on two flat steps in a row
    slopes = []
    real = solver_module._backtrack

    def recording(model, base, dmat, E0, slope, source, lumped):
        slopes.append(slope)
        return real(model, base, dmat, E0, slope, source, lumped)

    monkeypatch.setattr(solver_module, "_backtrack", recording)
    model = p_dirichlet(10.0)
    fld, rep = minimize(model, build_structured_mesh("right2d", 8),
                        BoundaryData.random_uniform(seed, -1.0, 1.0))
    assert rep.status == "stagnated" and not rep.converged
    steps = rep.newton_steps + rep.gradient_steps
    assert len(slopes) == steps + (exit_path == "rounding")
    assert slopes[-1] is None or exit_path == "stall"
    assert rep.residual_norm == float(np.abs(residual(model, fld)).max())
    assert len(rep.energy_history) == steps + 1
    assert rep.energy == rep.energy_history[-1] == energy_value(model, fld)


def test_solve_report_fields(right2d_n4):
    bc = BoundaryData.random_uniform(8, -1.0, 1.0)
    _, rep = minimize(p_dirichlet(3.0), right2d_n4, bc, m=1)
    assert rep.converged
    assert rep.newton_steps >= 1
    assert rep.iterations == len(rep.energy_history) - 1
    assert rep.tol == 1e-10
    text = rep.to_text()
    assert "converged = True" in text
    assert "residual_norm" in text
    assert "start = harmonic" in text.splitlines()
    assert rep.cg_iterations >= rep.newton_steps
    assert f"cg_iterations = {rep.cg_iterations}" in text.splitlines()


@pytest.mark.parametrize("gen, n, m, source", [("right2d", 8, 2, None), ("kuhn3d", 3, 1, -1.0),
                                               ("obtuse2d", 6, 3, None)])
def test_oracle_is_bitwise_cg_on_the_interior_stiffness(gen, n, m, source):
    # the oracle's CG runs the kernel of A_ii @ x behind its own operator:
    # scipy's cg on the matrix A_ii itself gives the same bytes
    mesh = build_structured_mesh(gen, n)
    bc = BoundaryData.random_uniform(5, -1.0, 1.0)
    src = SourceTerm.constant(mesh, source) if source is not None else None
    fld = solve_quadratic_oracle(mesh, bc, source=src, m=m)

    k = mesh.dim + 1
    S = mesh.gradient_grams * mesh.volumes[:, None, None]
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()
    A = sp.coo_matrix((S.ravel(), (rows, cols)), shape=(mesh.num_vertices,) * 2).tocsr()
    interior, boundary = mesh.interior_nodes, mesh.boundary_nodes
    load = np.zeros((mesh.num_vertices, m))
    if src is not None:
        np.add.at(load[:, 0], mesh.elements.ravel(),
                  np.repeat(src.values * mesh.volumes / k, k))
    values = interpolate_boundary(mesh, bc, m).values.copy()
    for j in range(m):
        rhs = load[interior, j] - A[interior][:, boundary] @ values[boundary, j]
        x, info = scipy.sparse.linalg.cg(A[interior][:, interior], rhs, rtol=1e-13,
                                         atol=0.0, maxiter=100000)
        assert info == 0
        values[interior, j] = x
    assert fld.values.tobytes() == values.tobytes()


def test_oracle_refuses_wrong_energy(right2d_n4):
    # the oracle is only a p = 2 reference; nothing to check here beyond
    # the solver agreeing with it, but it must solve multicomponent data
    bc = BoundaryData.affine([0.0, 1.0], [[1.0, 0.0], [0.0, -1.0]])
    fld = solve_quadratic_oracle(right2d_n4, bc, m=2)
    exact = np.array([0.0, 1.0])[None, :] + right2d_n4.vertices @ np.array(
        [[1.0, 0.0], [0.0, -1.0]]).T
    assert np.abs(fld.values - exact).max() <= 1e-9


@pytest.mark.parametrize("spec", [("right2d", 8), ("crisscross2d", 6),
                                  ("equilateral2d", 8), ("kuhn3d", 4),
                                  ("obtuse2d", 6)],
                         ids=lambda spec: f"{spec[0]}:{spec[1]}")
def test_hessian_is_bitwise_symmetric(spec):
    # Mesh.assemble sums both triangles in element order, so H is exactly
    # symmetric as long as every element block is
    mesh = build_structured_mesh(*spec)
    rng = np.random.default_rng(len(spec[0]))
    for m in (1, 2, 3):
        fld = NodalField(mesh, rng.standard_normal((mesh.num_vertices, m)))
        for lumped in (None, LumpedTerm.from_mesh(mesh, 3.0)):
            H = assemble_hessian(p_dirichlet(3.0), fld, lumped=lumped)
            assert (H != H.T).nnz == 0, (spec, m, lumped is not None)


def test_p3_zero_interior_newton_steps_stay_silent(capfd):
    # minimize starts p > 2 from the harmonic extension, so the Newton step
    # is driven from the zero interior by hand: the zero region shrinks by
    # one ring per step, and a direct solver handed the fifth zero-diagonal
    # Hessian unchecked prints "On entry to DTRSV parameter number 6 had an
    # illegal value"
    model = p_dirichlet(3.0)
    mesh = build_structured_mesh("right2d", 30)
    bc = BoundaryData.random_uniform(2029167940, -1.0, 1.0)
    fld = interpolate_boundary(mesh, bc, 2)
    for step in range(5):
        H = assemble_hessian(model, fld)
        assert (H.diagonal() == 0.0).any(), step
        r = residual(model, fld).reshape(-1)
        d, kind, _, _ = _pcg(H, r, 0.5)
        assert kind == "newton", step
        _, fld, _, _ = _backtrack(model, fld, d.reshape(-1, 2), energy_value(model, fld),
                                  float(r @ d), None, None)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_p_above_two_starts_from_the_harmonic_extension(p, m):
    mesh = build_structured_mesh("crisscross2d", 6)
    bc = BoundaryData.random_uniform(m, -1.0, 1.0)
    source = SourceTerm.constant(mesh, -2.0) if m == 1 else None
    fld, rep = minimize(p_dirichlet(p), mesh, bc, m=m, source=source, max_iters=0)
    assert rep.start == "harmonic" and rep.iterations == 0
    oracle = solve_quadratic_oracle(mesh, bc, source=source, m=m)
    assert np.abs(fld.values - oracle.values).max() <= 1e-10
    # random element coefficients: the start is the weighted p = 2 minimiser
    coeff = np.random.default_rng(m).uniform(0.1, 10.0, mesh.num_elements)
    fld, rep = minimize(p_dirichlet(p, coeff=coeff), mesh, bc, m=m,
                        source=source, max_iters=0)
    assert rep.start == "harmonic"
    r2 = residual(p_dirichlet(2.0, coeff=coeff), fld, source=source)
    assert np.abs(r2).max() <= 1e-13


@pytest.mark.parametrize("model", [p_dirichlet(2.0), p_dirichlet(1.5),
                                   mean_curvature(), orlicz("log-cosh"),
                                   orlicz("power-log")],
                         ids=lambda model: model.name)
def test_a_positive_at_zero_starts_from_the_interpolant(model):
    mesh = build_structured_mesh("crisscross2d", 6)
    bc = BoundaryData.random_uniform(7, -1.0, 1.0)
    fld, rep = minimize(model, mesh, bc, m=2, max_iters=0)
    assert rep.start == "interpolant"
    assert_array_equal(fld.values, interpolate_boundary(mesh, bc, 2).values)


def test_zero_diagonal_rows_with_a_source_keep_the_steps_finite(capfd):
    # from the zero interior the p = 3 Hessian has zero diagonal rows, and
    # the source gives those rows a non-zero residual; a Jacobi weight of
    # 1e12 / max(diag) there would swamp the direction until its slope
    # overflows
    model = p_dirichlet(3.0)
    mesh = build_structured_mesh("right2d", 30)
    source = SourceTerm.constant(mesh, -1.0)
    bc = BoundaryData.random_uniform(2029167940, -1.0, 1.0)
    fld = interpolate_boundary(mesh, bc, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for step in range(5):
            r = residual(model, fld, source=source).reshape(-1)
            if step == 0:
                H = assemble_hessian(model, fld)
                assert (np.abs(r[H.diagonal() == 0.0]) > 0.0).any()
            d, _, _, _ = _pcg(assemble_hessian(model, fld), r, 0.5)
            slope = float(r @ d)
            assert np.isfinite(d).all() and np.isfinite(slope) and slope < 0.0, step
            E = energy_value(model, fld, source=source)
            _, fld, E_new, _ = _backtrack(model, fld, d.reshape(-1, 1), E, slope,
                                          source, None)
            assert E_new < E, step
    assert capfd.readouterr() == ("", "")


def test_p3_constant_data_converges_at_once():
    mesh = build_structured_mesh("right2d", 12)
    bc = BoundaryData.affine([0.7, -0.4], [[0.0, 0.0], [0.0, 0.0]])
    fld, rep = minimize(p_dirichlet(3.0), mesh, bc, m=2)
    assert rep.converged and rep.iterations <= 1 and rep.start == "harmonic"
    assert np.ptp(fld.values, axis=0).max() <= 1e-12


def test_mesh_without_interior_nodes_solves(ref_triangle):
    bc = BoundaryData.random_uniform(3, -1.0, 1.0)
    for model in (p_dirichlet(3.0), p_dirichlet(1.5)):
        fld, rep = minimize(model, ref_triangle, bc, m=2)
        assert rep.converged and rep.iterations == 0
        assert rep.start == "interpolant"
        assert_array_equal(fld.values, interpolate_boundary(ref_triangle, bc, 2).values)


def _scalar_stiffness(mesh):
    """Dense V x V P1 stiffness, summed element by element."""
    K = np.zeros((mesh.num_vertices, mesh.num_vertices))
    np.add.at(K, (mesh.elements[:, :, None], mesh.elements[:, None, :]),
              mesh.volumes[:, None, None] * mesh.gradient_grams)
    return K


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.name)
def test_constant_field_takes_the_zero_gradient_weights(model):
    # on these meshes the P1 gradient of a constant field is exactly zero, so
    # every element takes the zero-gradient branch: a = a0, or a(1e-8) where
    # a0 is infinite, and b = 0
    a_eff = model.a0 if np.isfinite(model.a0) else model.a(np.array([1e-8]))[0]
    for gen, n in (("right2d", 4), ("crisscross2d", 4), ("kuhn3d", 2)):
        mesh = build_structured_mesh(gen, n)
        K = _scalar_stiffness(mesh)
        Ki = K[np.ix_(mesh.interior_nodes, mesh.interior_nodes)]
        for m in (1, 2, 3):
            fld = NodalField(mesh, np.tile([0.3, -2.7, 1e3 / 7][:m], (mesh.num_vertices, 1)))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                r = residual(model, fld)
                H = assemble_hessian(model, fld).toarray()
                A = beta_weights(mesh, fld, model).toarray()
            assert not r.any()
            atol = 1e-14 * a_eff * np.abs(K).max()
            assert_allclose(H, a_eff * np.kron(Ki, np.eye(m)), rtol=0.0, atol=atol)
            assert_allclose(A, a_eff * K, rtol=0.0, atol=atol)


def test_hand_built_models_need_no_flags():
    # F = t^4/4 + t^2/2: F'' = 3 t^2 + 1 and a = t^2 + 1, so a0 = 1
    quartic = EnergyModel(name="quartic", F=lambda t: t ** 4 / 4.0 + t ** 2 / 2.0,
                          F_tt=lambda t: 3.0 * t ** 2 + 1.0, a=lambda t: t ** 2 + 1.0)
    assert quartic.a0 == 1.0
    mesh = build_structured_mesh("crisscross2d", 6)
    bc = BoundaryData.random_uniform(5, -1.0, 1.0)
    fld, rep = minimize(quartic, mesh, bc, m=2)
    assert rep.converged and rep.start == "interpolant"
    assert verify_chp(mesh, fld).outcome == "pass"

    # F = t^1.5 / 1.5: a0 = +inf, so the Hessian clamps t at the zero-interior
    # start, as the catalogue p = 1.5 does
    p15 = EnergyModel(name="p15", F=lambda t: t ** 1.5 / 1.5,
                      F_tt=lambda t: 0.5 * t ** -0.5, a=lambda t: t ** -0.5)
    assert p15.a0 == np.inf
    start = interpolate_boundary(mesh, bc, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        H = assemble_hessian(p15, start)
    assert np.isfinite(H.data).all() and (H.diagonal() > 0.0).all()
    ref = assemble_hessian(p_dirichlet(1.5), start)
    assert_allclose(H.toarray(), ref.toarray(), rtol=1e-14, atol=0.0)

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from femchp import convex
from femchp import verify as verify_module
from femchp.energy import LumpedTerm, SourceTerm, mean_curvature, p_dirichlet
from femchp.field import BoundaryData, NodalField
from femchp.mesh import build_structured_mesh
from femchp.solver import minimize
from femchp.verify import (
    beta_weights,
    search_lemma_violation,
    verify_chp,
    verify_dmp,
    verify_hull_with_zero,
    verify_lemma_pos,
    verify_strong_chp,
)

DATA = Path(__file__).parent / "data"


def solved(gen, N, model, m=1, seed=0, **kw):
    mesh = build_structured_mesh(gen, N)
    bc = BoundaryData.random_uniform(seed, -1.0, 1.0)
    fld, rep = minimize(model, mesh, bc, m=m, **kw)
    return mesh, fld, rep


def test_chp_pass_on_minimiser():
    mesh, fld, rep = solved("right2d", 4, mean_curvature(), m=2)
    assert rep.converged
    out = verify_chp(mesh, fld)
    assert out.outcome == "pass"
    assert out.violation <= 1e-10
    assert out.hypotheses["mesh-non-obtuse"]


def test_chp_fail_on_spiked_field(right2d_n4):
    vals = np.zeros((right2d_n4.num_vertices, 1))
    vals[right2d_n4.boundary_nodes, 0] = 1.0
    vals[right2d_n4.interior_nodes[0], 0] = 2.0   # above every boundary value
    out = verify_chp(right2d_n4, NodalField(right2d_n4, vals))
    assert out.outcome == "fail"
    assert_allclose(out.violation, 1.0, atol=1e-12)
    assert out.worst_index == int(right2d_n4.interior_nodes[0])


def test_chp_gated_on_obtuse_mesh():
    mesh = build_structured_mesh("obtuse2d", 4)
    f = NodalField(mesh, np.zeros(mesh.num_vertices))
    out = verify_chp(mesh, f)
    assert out.outcome == "hypothesis-not-met"
    assert not out.hypotheses["mesh-non-obtuse"]


def test_dmp_pass_and_fail(right2d_n4):
    src = SourceTerm.constant(right2d_n4, -1.0)
    mesh, fld, rep = solved("right2d", 4, p_dirichlet(2.0), source=src, seed=1)
    out = verify_dmp(mesh, fld, source=src)
    assert out.outcome == "pass"

    vals = np.zeros((right2d_n4.num_vertices, 1))
    vals[right2d_n4.interior_nodes[0], 0] = 0.75
    vals[right2d_n4.interior_nodes[1], 0] = -3.0   # far below: no violation
    out = verify_dmp(right2d_n4, NodalField(right2d_n4, vals))
    assert out.outcome == "fail"
    assert_allclose(out.violation, 0.75, atol=1e-12)
    assert out.worst_index == int(right2d_n4.interior_nodes[0])


def test_dmp_rejects_vector_fields(right2d_n4):
    f = NodalField(right2d_n4, np.zeros((right2d_n4.num_vertices, 2)))
    with pytest.raises(ValueError):
        verify_dmp(right2d_n4, f)


def test_dmp_checks_its_source_against_the_mesh(right2d_n4):
    f = NodalField(right2d_n4, np.zeros(right2d_n4.num_vertices))
    with pytest.raises(ValueError, match="source has 5 entries, mesh has 32 elements"):
        verify_dmp(right2d_n4, f, source=SourceTerm(np.full(5, -1.0)))


def test_dmp_gates_on_positive_source(right2d_n4):
    src = SourceTerm.constant(right2d_n4, 0.5)
    f = NodalField(right2d_n4, np.zeros(right2d_n4.num_vertices))
    out = verify_dmp(right2d_n4, f, source=src)
    assert out.outcome == "hypothesis-not-met"
    assert not out.hypotheses["source-nonpositive"]


def test_hull_with_zero_lumped_solution(right2d_n4):
    bc = BoundaryData.random_uniform(0, 2.0, 3.0)
    lum = LumpedTerm.from_mesh(right2d_n4, 4.0)
    fld, rep = minimize(p_dirichlet(2.0), right2d_n4, bc, m=1, lumped=lum)
    assert rep.converged
    out = verify_hull_with_zero(right2d_n4, fld)
    assert out.outcome == "pass"
    # the zero-order pull drags interior values below the boundary minimum,
    # outside the plain hull: that escape is the reason 0 joins the hull
    assert verify_chp(right2d_n4, fld).violation > 1e-9


def test_hull_with_zero_fail(right2d_n4):
    vals = np.full((right2d_n4.num_vertices, 1), 2.0)
    vals[right2d_n4.interior_nodes[0], 0] = -1.0   # below 0, outside hull(B u {0})
    out = verify_hull_with_zero(right2d_n4, NodalField(right2d_n4, vals))
    assert out.outcome == "fail"
    assert_allclose(out.violation, 1.0, atol=1e-12)


def test_strong_chp_pass_nonconstant():
    mesh, fld, rep = solved("equilateral2d", 4, p_dirichlet(3.0), m=2, seed=2)
    assert rep.converged
    out = verify_strong_chp(mesh, fld, model=p_dirichlet(3.0))
    assert out.outcome == "pass"
    assert out.details["extreme_interior_nodes"] == 0
    assert out.details["beta_identity_worst_rel_err"] <= 1e-10


def test_strong_chp_pass_constant():
    mesh = build_structured_mesh("equilateral2d", 4)
    bc = BoundaryData.affine([0.4], [[0.0, 0.0]])
    fld, rep = minimize(p_dirichlet(2.0), mesh, bc, m=1)
    out = verify_strong_chp(mesh, fld, model=p_dirichlet(2.0))
    assert out.outcome == "pass"
    assert out.details["extreme_interior_nodes"] > 0   # everything is extreme


@pytest.mark.parametrize("gen, ok", [("equilateral2d", True), ("obtuse2d", False)])
def test_strong_chp_lambda_checks_are_a_plain_bool(gen, ok):
    # on a constant field every interior node is extreme; obtuse2d has a
    # positive off-diagonal entry of B, a negative neighbour weight lambda
    mesh = build_structured_mesh(gen, 4)
    const = NodalField(mesh, np.full(mesh.num_vertices, 0.3))
    out = verify_strong_chp(mesh, const, model=p_dirichlet(2.0))
    assert out.details["extreme_interior_nodes"] == len(mesh.interior_nodes)
    assert out.details["lambda_checks_ok"] is ok
    # node by node: lambda_y = -B[y, z] / B[z, z] over column z of B
    Bd = beta_weights(mesh, const, p_dirichlet(2.0)).toarray()
    assert ok == all((-np.delete(Bd[:, z], z) / Bd[z, z] >= -1e-10).all()
                     for z in mesh.interior_nodes if Bd[z, z] > 0.0)


def test_strong_chp_fail_on_extreme_bump():
    # constant field with one interior value pushed outward: that value is
    # an extreme point of the value hull, yet the field is not constant
    mesh = build_structured_mesh("equilateral2d", 4)
    vals = np.full((mesh.num_vertices, 1), 0.5)
    vals[mesh.interior_nodes[0], 0] = 0.5 + 1e-3
    out = verify_strong_chp(mesh, NodalField(mesh, vals), model=p_dirichlet(2.0))
    assert out.outcome == "fail"


def test_strong_chp_census_on_near_repeated_values():
    # a third of the values repeat others 3e-9 apart, farther than the
    # census tolerance 1e-9; the census used to raise CertificateError here
    mesh = build_structured_mesh("equilateral2d", 6)
    rng = np.random.default_rng(4)
    vals = rng.uniform(-1.0, 1.0, (mesh.num_vertices, 2))
    k = mesh.num_vertices // 3
    vals[-k:] = vals[:k] + 3e-9 * rng.standard_normal((k, 2))
    out = verify_strong_chp(mesh, NodalField(mesh, vals), model=p_dirichlet(2.0))
    assert out.outcome == "fail"
    assert out.details["extreme_interior_nodes"] == 6


def test_strong_chp_gated_on_nonacute(right2d_n4):
    f = NodalField(right2d_n4, np.zeros(right2d_n4.num_vertices))
    out = verify_strong_chp(right2d_n4, f, model=p_dirichlet(2.0))
    assert out.outcome == "hypothesis-not-met"
    assert not out.hypotheses["mesh-acute"]


def test_beta_weights_identity_and_sign():
    rng = np.random.default_rng(6)
    for gen in ("equilateral2d", "right2d"):
        mesh = build_structured_mesh(gen, 4)
        for model in (p_dirichlet(2.0), p_dirichlet(3.0), p_dirichlet(1.5),
                      mean_curvature()):
            vals = rng.standard_normal((mesh.num_vertices, 2))
            B = beta_weights(mesh, NodalField(mesh, vals), model=model)
            assert B.shape == (mesh.num_vertices,) * 2
            assert (B != B.T).nnz == 0
            for z in range(mesh.num_vertices):
                # row z couples z with the vertices sharing an element with it
                star = np.unique(mesh.elements[(mesh.elements == z).any(axis=1)])
                assert_array_equal(B[:, [z]].tocsc().indices, star)
                row = B[[z]].toarray().ravel()
                beta0, betas = row[z], -row[star[star != z]]
                # partition of unity makes the identity exact
                assert abs(beta0 - betas.sum()) <= 1e-12 * max(1.0, abs(beta0))
                if gen == "equilateral2d":
                    assert (betas >= 0.0).all()


def test_strong_chp_assembles_the_beta_matrix_once(monkeypatch):
    calls = []
    real = verify_module.beta_weights

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_module, "beta_weights", counting)
    mesh = build_structured_mesh("equilateral2d", 4)
    const = NodalField(mesh, np.full(mesh.num_vertices, 0.7))
    out = verify_strong_chp(mesh, const, model=p_dirichlet(3.0))
    assert out.details["extreme_interior_nodes"] == len(mesh.interior_nodes)
    assert len(calls) == 1


def test_lemma_pos_passes_on_non_obtuse(right2d_n4):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((right2d_n4.num_vertices, 2))
    K = convex.finite_hull(rng.standard_normal((5, 2)))
    out = verify_lemma_pos(right2d_n4, NodalField(right2d_n4, vals), K)
    assert out.outcome == "pass"
    assert out.violation <= 1e-10


def test_lemma_pos_violated_on_obtuse_fixture():
    # regression fixture found by randomized search; the broken hypothesis
    # (mesh obtuse) keeps the outcome at hypothesis-not-met while the
    # inequality itself is violated by a wide margin
    with open(DATA / "lemma_violation_obtuse2d.json") as fh:
        fix = json.load(fh)
    mesh = build_structured_mesh(fix["generator"], fix["resolution"])
    fld = NodalField(mesh, np.asarray(fix["values"]))
    K = convex.finite_hull(np.asarray(fix["hull_generators"]))
    out = verify_lemma_pos(mesh, fld, K)
    assert out.outcome == "hypothesis-not-met"
    assert not out.conclusion_holds
    assert out.violation > 1e-8
    assert_allclose(out.violation, fix["violation"], rtol=1e-12)
    assert out.worst_index == fix["element"]


@pytest.mark.parametrize("m", [1, 2])
def test_search_finds_violation_on_obtuse_only(m):
    # m = 1 draws an interval as the target set, m = 2 a triangle
    obtuse = build_structured_mesh("obtuse2d", 4)
    found = search_lemma_violation(obtuse, m=m, seed=0, trials=100)
    assert found is not None
    assert found["violation"] > 1e-8
    assert found["values"].shape == (obtuse.num_vertices, m)
    assert np.shape(found["generators"]) == ((2, 1) if m == 1 else (3, 2))

    right = build_structured_mesh("right2d", 4)
    assert search_lemma_violation(right, m=m, seed=0, trials=100) is None


def _lemma_reference(field, K):
    """The projection-lemma excesses from two fresh gradient passes:
    (worst, worst element, worst inner-product excess, worst norm excess)."""
    gV = field.element_gradients()
    gP = field.with_values(convex.project(K, field.values)).element_gradients()
    dot = np.einsum("enm,enm->e", gV, gP)
    pp = np.einsum("enm,enm->e", gP, gP)
    nv = np.sqrt(np.einsum("enm,enm->e", gV, gV))
    scale = 1.0 + nv ** 2
    exc1 = (pp - dot) / scale
    exc2 = (np.sqrt(pp) - nv) / scale
    both = np.maximum(exc1, exc2)
    worst_e = int(np.argmax(both))
    return float(both[worst_e]), worst_e, float(exc1.max()), float(exc2.max())


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lemma_pos_reads_the_cached_gradient_pass_bit_for_bit(m):
    # on a fresh field and on a minimiser whose gradient pass the solve
    # already cached, the report holds the floats of two fresh passes
    rng = np.random.default_rng(29 + m)
    for gen in ("right2d", "obtuse2d"):
        mesh = build_structured_mesh(gen, 5)
        fresh = NodalField(mesh, rng.normal(size=(mesh.num_vertices, m)))
        solved_field, _ = minimize(p_dirichlet(3.0), mesh,
                                   BoundaryData.random_uniform(m, -1.0, 1.0), m=m)
        assert "_norms" in vars(solved_field) and "_norms" not in vars(fresh)
        for fld in (fresh, solved_field):
            K = convex.finite_hull(rng.normal(size=(5, m)) * 0.4)
            out = verify_lemma_pos(mesh, fld, K)
            assert (out.violation, out.worst_index, out.details["worst_inner_product_excess"],
                    out.details["worst_norm_excess"]) == _lemma_reference(fld, K)


def test_scalar_search_draws_the_sorted_interval():
    # m = 1 takes the hull of two drawn normals: the interval between them,
    # as a sorted draw gives it, however narrow (7.6e-4 wide at obtuse2d
    # seed 3's trial 1)
    for gen, seed in (("obtuse2d", 0), ("obtuse2d", 3), ("obtuse2d", 5), ("right2d", 1)):
        mesh = build_structured_mesh(gen, 4)
        found = search_lemma_violation(mesh, m=1, seed=seed, trials=40)
        rng = np.random.default_rng(seed)
        expected = None
        for trial in range(40):
            values = rng.normal(size=(mesh.num_vertices, 1))
            lo, hi = np.sort(rng.normal(size=2) * 0.5)
            worst, worst_e, _, _ = _lemma_reference(NodalField(mesh, values),
                                                    convex.finite_hull([[lo], [hi]]))
            if worst > 1e-8:
                expected = (trial, worst_e, worst, [lo, hi])
                break
        if expected is None:
            assert found is None and gen == "right2d"
            continue
        trial, worst_e, worst, ends = expected
        assert (found["trial"], found["element"], found["violation"]) == (trial, worst_e, worst)
        assert sorted(g[0] for g in found["generators"]) == ends
        assert_array_equal(found["values"], values)


def test_mismatched_mesh_field_rejected(right2d_n4, right2d_n2):
    f = NodalField(right2d_n2, np.zeros(9))
    with pytest.raises(ValueError):
        verify_chp(right2d_n4, f)



_VERIFIERS = {
    "chp": lambda mesh, f, tol: verify_chp(mesh, f, tol=tol),
    "dmp": lambda mesh, f, tol: verify_dmp(mesh, f, tol=tol),
    "hull0": lambda mesh, f, tol: verify_hull_with_zero(mesh, f, tol=tol),
    "strong-chp": lambda mesh, f, tol: verify_strong_chp(mesh, f, tol=tol),
    "lemma-pos": lambda mesh, f, tol: verify_lemma_pos(
        mesh, f, convex.finite_hull([[-0.5], [0.5]]), tol=tol),
}


@pytest.mark.parametrize("theorem", sorted(_VERIFIERS))
def test_verifiers_refuse_a_tolerance_that_is_no_finite_number_ge_0(theorem, right2d_n4):
    # a NaN tol failed every report at violation 0, and an infinite one
    # passed any field
    vals = np.random.default_rng(5).uniform(-1.0, 1.0, (right2d_n4.num_vertices, 1))
    f = NodalField(right2d_n4, vals)
    check = _VERIFIERS[theorem]
    for tol in (np.nan, -1.0, np.inf):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            check(right2d_n4, f, tol)
    assert check(right2d_n4, f, 0.0).tol == 0.0

def test_meshes_without_interior_nodes():
    # zero rows to project: both checks pass and no projection is counted
    for gen in ("right2d", "kuhn3d"):
        mesh = build_structured_mesh(gen, 1)
        assert len(mesh.interior_nodes) == 0
        f = NodalField(mesh, np.linspace(-1.0, 1.0, mesh.num_vertices))
        before = convex.certificate_stats().projections
        for out in (verify_chp(mesh, f), verify_dmp(mesh, f)):
            assert out.outcome == "pass"
            assert out.violation == 0.0 and out.worst_index is None
        assert convex.certificate_stats().projections == before


@pytest.mark.parametrize("gen, N, model, m, seed", [
    ("equilateral2d", 8, p_dirichlet(3.0), 2, 1),
    ("kuhn3d", 3, mean_curvature(), 3, 6),
], ids=["equilateral2d-p3-m2", "kuhn3d-mean-curvature-m3"])
def test_chp_reports_exactly_zero_when_every_interior_value_is_located(gen, N, model, m, seed):
    # every interior value of these minimisers lies inside the boundary
    # hull's fan, so each is its own projection: no rounding noise is left
    # to name a worst node
    mesh, fld, rep = solved(gen, N, model, m=m, seed=seed)
    assert rep.converged
    out = verify_chp(mesh, fld)
    assert out.outcome == "pass"
    assert out.violation == 0.0 and out.worst_index is None

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from femchp import convex
from femchp.energy import LumpedTerm, SourceTerm, mean_curvature, p_dirichlet
from femchp.field import BoundaryData, NodalField
from femchp.mesh import build_structured_mesh
from femchp.solver import minimize
from femchp.verify import (
    THEOREMS,
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


def test_theorem_names():
    assert THEOREMS == ("CHP", "DMP", "HULL_WITH_ZERO", "STRONG_CHP", "LEMMA_POS")


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
    out = verify_hull_with_zero(right2d_n4, fld, track_plain_hull=True)
    assert out.outcome == "pass"
    # the zero-order pull drags interior values below the boundary minimum,
    # outside the plain hull: that escape is the reason 0 joins the hull
    assert out.details["plain_hull_escape"] > 1e-9


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


def test_strong_chp_refuses_lower_order_terms():
    mesh = build_structured_mesh("equilateral2d", 4)
    f = NodalField(mesh, np.zeros(mesh.num_vertices))
    with pytest.raises(ValueError):
        verify_strong_chp(mesh, f, model=p_dirichlet(2.0),
                          source=SourceTerm.constant(mesh, -1.0))
    with pytest.raises(ValueError):
        verify_strong_chp(mesh, f, model=p_dirichlet(2.0),
                          lumped=LumpedTerm.from_mesh(mesh, 2.0))


def test_beta_weights_identity_and_sign():
    rng = np.random.default_rng(6)
    for gen in ("equilateral2d", "right2d"):
        mesh = build_structured_mesh(gen, 4)
        for model in (p_dirichlet(2.0), p_dirichlet(3.0), p_dirichlet(1.5),
                      mean_curvature()):
            vals = rng.standard_normal((mesh.num_vertices, 2))
            f = NodalField(mesh, vals)
            for node in mesh.interior_nodes[:3]:
                bw = beta_weights(mesh, f, int(node), model=model)
                # the neighbors are the vertices sharing an element with node
                star = np.unique(mesh.elements[(mesh.elements == node).any(axis=1)])
                assert_array_equal(bw.neighbors, star[star != node])
                # partition of unity makes the identity exact
                assert abs(bw.beta0 - bw.betas.sum()) <= 1e-12 * max(1.0, abs(bw.beta0))
                if gen == "equilateral2d":
                    assert (bw.betas >= 0.0).all()


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


def test_search_finds_violation_on_obtuse_only():
    obtuse = build_structured_mesh("obtuse2d", 4)
    found = search_lemma_violation(obtuse, m=2, seed=0, trials=100)
    assert found is not None
    assert found["violation"] > 1e-8

    right = build_structured_mesh("right2d", 4)
    assert search_lemma_violation(right, m=2, seed=0, trials=100) is None


def test_mismatched_mesh_field_rejected(right2d_n4, right2d_n2):
    f = NodalField(right2d_n2, np.zeros(9))
    with pytest.raises(ValueError):
        verify_chp(right2d_n4, f)


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

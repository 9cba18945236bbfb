import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from femchp.energy import (
    LumpedTerm,
    SourceTerm,
    energy_value,
    mean_curvature,
    orlicz,
    p_dirichlet,
    residual,
)
from femchp.field import BoundaryData, NodalField, interpolate_boundary
from femchp.mesh import build_structured_mesh
from femchp.solver import (
    LineSearchError,
    _backtrack,
    assemble_hessian,
    minimize,
    solve_quadratic_oracle,
)

ALL_MODELS = [p_dirichlet(1.5), p_dirichlet(2.0), p_dirichlet(3.0),
              p_dirichlet(10.0), mean_curvature(),
              orlicz("log-cosh"), orlicz("power-log")]


def test_hessian_p2_is_stiffness(right2d_n2):
    f = NodalField(right2d_n2, np.zeros(9))
    H = assemble_hessian(p_dirichlet(2.0), f)
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
            H = assemble_hessian(model, f, lumped=lumped)
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


def test_line_search_rejects_ascent(right2d_n4):
    bc = BoundaryData.random_uniform(6, -1.0, 1.0)
    f = interpolate_boundary(right2d_n4, bc, 1)
    model = p_dirichlet(2.0)
    E = energy_value(model, f)
    r = residual(model, f)
    interior = right2d_n4.interior_nodes
    slope = float(np.sum(r * r))
    with pytest.raises(LineSearchError):      # +gradient is uphill
        _backtrack(model, right2d_n4, f.values, interior, r, E, slope, None, None)
    s, E_new, evals = _backtrack(model, right2d_n4, f.values, interior, -r, E,
                                 -slope, None, None)
    assert 0.0 < s <= 1.0 and evals >= 1
    trial = f.values.copy()
    trial[right2d_n4.interior_nodes] += s * (-r)
    assert energy_value(model, f.with_values(trial)) == E_new < E


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


def test_oracle_refuses_wrong_energy(right2d_n4):
    # the oracle is only a p = 2 reference; nothing to check here beyond
    # the solver agreeing with it, but it must solve multicomponent data
    bc = BoundaryData.affine([0.0, 1.0], [[1.0, 0.0], [0.0, -1.0]])
    fld = solve_quadratic_oracle(right2d_n4, bc, m=2)
    exact = np.array([0.0, 1.0])[None, :] + right2d_n4.vertices @ np.array(
        [[1.0, 0.0], [0.0, -1.0]]).T
    assert np.abs(fld.values - exact).max() <= 1e-9

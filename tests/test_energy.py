import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from femchp.energy import (
    CATALOG,
    LumpedTerm,
    SourceTerm,
    energy_value,
    lumped_weights,
    mean_curvature,
    orlicz,
    p_dirichlet,
    parse_energy,
    residual,
)
from femchp.field import BoundaryData, NodalField
from femchp.mesh import build_structured_mesh
from femchp.solver import minimize

ALL_MODELS = [p_dirichlet(1.5), p_dirichlet(2.0), p_dirichlet(3.0),
              p_dirichlet(10.0), mean_curvature(),
              orlicz("log-cosh"), orlicz("power-log")]


def hat_field(mesh, node, m=1):
    vals = np.zeros((mesh.num_vertices, m))
    vals[node] = 1.0
    return NodalField(mesh, vals)


def test_profile_values():
    p2 = p_dirichlet(2.0)
    ts = np.array([0.0, 0.5, 1.0, 3.0])
    assert_allclose(p2.F(ts), ts ** 2 / 2.0, atol=1e-15)
    assert_allclose(p2.a(ts), 1.0, atol=1e-15)
    assert_allclose(p2.F_tt(ts), 1.0, atol=1e-15)

    p3 = p_dirichlet(3.0)
    assert_allclose(p3.F(ts), ts ** 3 / 3.0, atol=1e-15)
    assert_allclose(p3.a(ts[1:]), ts[1:], atol=1e-15)
    assert p3.a(np.array([0.0]))[0] == 0.0

    mc = mean_curvature()
    assert_allclose(mc.F(ts), np.sqrt(1.0 + ts ** 2), atol=1e-15)
    assert_allclose(mc.a(ts), 1.0 / np.sqrt(1.0 + ts ** 2), atol=1e-15)

    lc = orlicz("log-cosh")
    assert lc.F(np.array([0.0]))[0] == 0.0
    assert_allclose(lc.F(np.array([1.0]))[0], np.log(np.cosh(1.0)), atol=1e-15)
    # the stable form must not overflow where cosh does
    assert_allclose(lc.F(np.array([800.0]))[0], 800.0 - np.log(2.0), atol=1e-10)
    assert_allclose(lc.a(np.array([1e-12]))[0], 1.0, atol=1e-9)

    pl = orlicz("power-log")
    assert pl.F(np.array([0.0]))[0] == 0.0
    assert_allclose(pl.F(np.array([1.0]))[0], 2.0 * np.log(2.0) - 1.0, atol=1e-15)
    assert_allclose(3.0 * pl.a(np.array([3.0]))[0], np.log(4.0), atol=1e-15)


def test_profile_flags():
    # a(0) = F''(0): the floats the Newton weights and the start rule use
    assert [m.a0 for m in ALL_MODELS] == [np.inf, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    for model in ALL_MODELS:
        assert model.monotone
        assert model.strictly_convex
    with pytest.raises(ValueError):
        p_dirichlet(1.0)    # p > 1 required
    with pytest.raises(ValueError):
        orlicz("nope")


def test_a0_is_evaluated_once_per_model():
    base = p_dirichlet(3.0)
    at_zero = []

    def F_tt(t):
        if np.ndim(t) == 0:
            at_zero.append(float(t))
        return base.F_tt(t)

    model = dataclasses.replace(base, F_tt=F_tt)
    mesh = build_structured_mesh("right2d", 6)
    _, rep = minimize(model, mesh, BoundaryData.random_uniform(2, -1.0, 1.0), m=2)
    assert rep.converged and rep.start == "harmonic" and rep.newton_steps > 1
    assert at_zero == [0.0]
    # a copy computes its own value, from its own fields
    scaled = model.with_coeff(np.full(mesh.num_elements, 2.0))
    assert scaled.a0 == 0.0 and at_zero == [0.0, 0.0]
    assert dataclasses.replace(model, F_tt=p_dirichlet(1.5).F_tt).a0 == np.inf
    assert model.a0 == 0.0 and at_zero == [0.0, 0.0]
    for name in ("name", "a0"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, 1.0)


def test_parse_energy():
    assert parse_energy("p-laplace:p=2.5").name == "p-laplace:p=2.5"
    assert parse_energy("mean-curvature").name == "mean-curvature"
    assert parse_energy("orlicz:log-cosh").name == "orlicz:log-cosh"
    assert parse_energy("orlicz:power-log").name == "orlicz:power-log"
    assert set(CATALOG) == {"p-laplace", "mean-curvature", "orlicz"}
    for bad in ("p-laplace", "p-laplace:p=0.5", "orlicz", "splines"):
        with pytest.raises(ValueError):
            parse_energy(bad)


def _worst_chord(F, trials=2000):
    """Smallest theta F(s) + (1 - theta) F(t) - F(theta s + (1 - theta) t)
    over random chords between points of a log grid."""
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e2, 161)])
    rng = np.random.default_rng(0)
    s, t = rng.choice(grid, size=(2, trials))
    theta = rng.uniform(0.01, 0.99, size=trials)
    return (theta * F(s) + (1.0 - theta) * F(t) - F(theta * s + (1.0 - theta) * t)).min()


def test_catalog_profiles_convex():
    # the margin absorbs chord-arithmetic roundoff (about eps * |F|)
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e2, 161)])
    for model in ALL_MODELS:
        assert _worst_chord(model.F) >= -1e-12, model.name
        assert np.diff(model.F(grid)).min() >= 0.0, model.name


def test_energy_hand_values(ref_triangle):
    # U = x on the unit right triangle: |grad| = 1, area 1/2
    f = NodalField(ref_triangle, np.array([0.0, 1.0, 0.0]))
    assert_allclose(energy_value(p_dirichlet(2.0), f), 0.25, atol=1e-15)
    assert_allclose(energy_value(p_dirichlet(1.5), f), 1.0 / 3.0, atol=1e-15)
    assert_allclose(energy_value(p_dirichlet(10.0), f), 0.05, atol=1e-15)
    assert_allclose(energy_value(mean_curvature(), f),
                    np.sqrt(2.0) / 2.0, atol=1e-15)
    assert_allclose(energy_value(orlicz("log-cosh"), f),
                    0.5 * np.log(np.cosh(1.0)), atol=1e-15)
    assert_allclose(energy_value(orlicz("power-log"), f),
                    0.5 * (2.0 * np.log(2.0) - 1.0), atol=1e-15)


def test_energy_coefficient_scaling(ref_triangle):
    f = NodalField(ref_triangle, np.array([0.0, 1.0, 0.0]))
    model = parse_energy("p-laplace:p=2", coeff=np.array([3.0]))
    assert_allclose(energy_value(model, f), 0.75, atol=1e-15)
    with pytest.raises(ValueError):
        parse_energy("p-laplace:p=2", coeff=np.array([0.0]))   # must be > 0


def test_element_weights_are_the_volumes_times_the_coefficients(right2d_n2):
    mesh = right2d_n2
    model = p_dirichlet(3.0)
    assert model.element_weights(mesh) is mesh.volumes     # no array per call
    coeff = np.linspace(0.5, 2.0, mesh.num_elements)
    assert_array_equal(model.with_coeff(coeff).element_weights(mesh), mesh.volumes * coeff)
    # a table of the wrong length is refused wherever the weights are read
    short = model.with_coeff(coeff[:-1])
    f = NodalField(mesh, np.arange(mesh.num_vertices, dtype=float))
    msg = (f"coefficient table has {mesh.num_elements - 1} entries, "
           f"mesh has {mesh.num_elements} elements")
    for call in (lambda: short.element_weights(mesh), lambda: energy_value(short, f),
                 lambda: residual(short, f),
                 lambda: minimize(short, mesh, BoundaryData.random_uniform(1, -1.0, 1.0))):
        with pytest.raises(ValueError, match=msg):
            call()


def test_energy_with_source(ref_triangle):
    # E -= sum_T |T| f_T mean_T(U); here |T| = 1/2, f = -2, mean = 1/3
    f = NodalField(ref_triangle, np.array([0.0, 1.0, 0.0]))
    src = SourceTerm(np.array([-2.0]))
    assert_allclose(energy_value(p_dirichlet(2.0), f, source=src),
                    0.25 + 1.0 / 3.0, atol=1e-15)
    assert src.nonpositive
    assert not SourceTerm(np.array([0.5])).nonpositive
    with pytest.raises(ValueError):
        src.check(build_structured_mesh("right2d", 2))


def test_lumped_weights_and_energy(ref_triangle):
    mesh = build_structured_mesh("right2d", 1)
    w = lumped_weights(mesh)
    assert_allclose(w, [1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0], atol=1e-15)
    assert_allclose(w.sum(), 1.0, atol=1e-15)

    w_ref = lumped_weights(ref_triangle)
    assert_allclose(w_ref, 1.0 / 6.0, atol=1e-15)
    f = NodalField(ref_triangle, np.array([0.0, 1.0, 0.0]))
    lum2 = LumpedTerm.from_mesh(ref_triangle, 2.0)
    lum4 = LumpedTerm.from_mesh(ref_triangle, 4.0)
    base = energy_value(p_dirichlet(2.0), f)
    assert_allclose(energy_value(p_dirichlet(2.0), f, lumped=lum2),
                    base + 1.0 / 12.0, atol=1e-15)
    assert_allclose(energy_value(p_dirichlet(2.0), f, lumped=lum4),
                    base + 1.0 / 24.0, atol=1e-15)
    with pytest.raises(ValueError):
        LumpedTerm.from_mesh(ref_triangle, 1.5)


@pytest.mark.parametrize("call, message", [
    (lambda f: p_dirichlet(2.0).with_coeff(np.ones((2, 2))),
     "coefficient table must be one dimensional"),
    (lambda f: parse_energy("p-laplace:p=two"), "bad exponent in 'p-laplace:p=two'"),
    (lambda f: parse_energy("mean-curvature:1"),
     "mean-curvature takes no parameters, got 'mean-curvature:1'"),
    (lambda f: SourceTerm(np.zeros((1, 1))),
     "source values must be one dimensional (one per element)"),
    (lambda f: SourceTerm(np.array([np.nan])), "source values must be finite"),
    (lambda f: SourceTerm.constant(f.mesh, -np.inf), "source values must be finite"),
    (lambda f: energy_value(p_dirichlet(2.0), f, lumped=LumpedTerm(2.0, np.ones(4))),
     "lumped weights do not match the mesh"),
    (lambda f: LumpedTerm.from_mesh(f.mesh, np.inf),
     "lumped exponent must satisfy 2 <= q < inf, got inf"),
], ids=["coeff-table", "exponent", "mean-curvature-parameter", "source-shape",
        "source-nan", "source-infinite", "lumped-weights", "lumped-exponent-infinite"])
def test_energy_input_is_refused_with_its_message(ref_triangle, call, message):
    f = NodalField(ref_triangle, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(f)


def test_lumped_weights_sum_in_element_order():
    # the np.add.at sum the weights were first defined by, bit for bit
    for gen, res in (("right2d", 5), ("crisscross2d", 4), ("equilateral2d", 5),
                     ("obtuse2d", 4), ("kuhn3d", 3)):
        mesh = build_structured_mesh(gen, res)
        ref = np.zeros(mesh.num_vertices)
        np.add.at(ref, mesh.elements.ravel(),
                  np.repeat(mesh.volumes, mesh.dim + 1) / (mesh.dim + 1))
        assert_array_equal(lumped_weights(mesh), ref)


def test_residual_hat_is_stiffness_row(right2d_n2):
    # p = 2 residual at the center hat equals the 5-point stiffness diagonal
    f = hat_field(right2d_n2, 4)
    r = residual(p_dirichlet(2.0), f)
    assert r.shape == (1, 1)
    assert_allclose(r[0, 0], 4.0, atol=1e-13)


def test_residual_source_contribution(right2d_n2):
    # with f = -1 and U = 0 the residual is +sum_T |T|/3 over the 6 incident
    # triangles of the center node: 6 * (1/8) / 3 = 1/4
    f = NodalField(right2d_n2, np.zeros(9))
    src = SourceTerm.constant(right2d_n2, -1.0)
    r = residual(p_dirichlet(2.0), f, source=src)
    assert_allclose(r[0, 0], 0.25, atol=1e-14)


def test_residual_matches_fd_gradient(right2d_n4):
    rng = np.random.default_rng(11)
    src = SourceTerm(-rng.uniform(0.2, 1.0, size=right2d_n4.num_elements))
    lum = LumpedTerm.from_mesh(right2d_n4, 4.0)
    cases = [({}, 2), ({"source": src}, 1), ({"lumped": lum}, 2)]
    h = 1e-6
    for model in ALL_MODELS:
        for extras, m in cases:
            vals = rng.standard_normal((right2d_n4.num_vertices, m)) + 2.0
            f = NodalField(right2d_n4, vals)
            r = residual(model, f, **extras)
            assert r.shape == (len(right2d_n4.interior_nodes), m)
            for _ in range(3):
                i = int(rng.choice(right2d_n4.interior_nodes))
                j = int(rng.integers(m))
                vp = vals.copy(); vp[i, j] += h
                vm = vals.copy(); vm[i, j] -= h
                fd = (energy_value(model, NodalField(right2d_n4, vp), **extras)
                      - energy_value(model, NodalField(right2d_n4, vm), **extras)) / (2 * h)
                ii = int(np.where(right2d_n4.interior_nodes == i)[0][0])
                assert abs(fd - r[ii, j]) <= 1e-6 * max(1.0, abs(fd))


def test_source_rejects_vector_fields(right2d_n2):
    f = NodalField(right2d_n2, np.zeros((9, 2)))
    src = SourceTerm.constant(right2d_n2, -1.0)
    with pytest.raises(ValueError):
        residual(p_dirichlet(2.0), f, source=src)
    with pytest.raises(ValueError):
        energy_value(p_dirichlet(2.0), f, source=src)


def test_convexity_probe_flags_nonconvex():
    # the chord check behind test_catalog_profiles_convex catches a concave profile
    assert _worst_chord(lambda t: np.sqrt(np.abs(t))) < -1e-12

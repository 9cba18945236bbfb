"""Acceptance suite: one test per advertised property of the package.

Every test prints a single summary line through capsys.disabled() so the
verdicts are visible in a plain ``pytest -v`` run.  The heavy sweeps live
in session fixtures; the certificate bookkeeping for the projection
inequality spans the first two sweeps, so those fixtures share one stats
reset.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from femchp import convex
from femchp.convex import certificate_stats, reset_certificate_stats
from femchp.energy import (
    LumpedTerm,
    SourceTerm,
    energy_value,
    parse_energy,
    residual,
)
from femchp.field import BoundaryData, NodalField, interpolate_boundary
from femchp.mesh import build_structured_mesh
from femchp.solver import minimize, solve_quadratic_oracle
from femchp.verify import (
    search_lemma_violation,
    verify_chp,
    verify_dmp,
    verify_hull_with_zero,
    verify_lemma_pos,
    verify_strong_chp,
)

DATA = Path(__file__).parent / "data"
SEEDS = (1, 2, 3, 4, 5)

ENERGY_LABELS = (
    "p-laplace:p=1.5",
    "p-laplace:p=2",
    "p-laplace:p=3",
    "p-laplace:p=10",
    "mean-curvature",
    "orlicz:log-cosh",
)


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _hull_tol(label: str) -> float:
    return 1e-8 if label == "p-laplace:p=2" else 1e-6


def _solver_tol(label: str) -> float:
    # far from the quadratic case the residual floor sits higher
    return 1e-8 if label == "p-laplace:p=10" else 1e-10


@pytest.fixture(scope="session")
def fresh_certificates():
    return reset_certificate_stats()


@pytest.fixture(scope="session")
def chp_suite(fresh_certificates):
    """Hull-property sweep over the full generator x energy x m x seed grid."""
    meshes = [build_structured_mesh(g, n) for g, n in
              (("right2d", 8), ("crisscross2d", 8), ("equilateral2d", 8),
               ("kuhn3d", 3))]
    t0 = time.perf_counter()
    rows = []
    for mesh in meshes:
        for label in ENERGY_LABELS:
            model = parse_energy(label)
            for m in (1, 2, 3):
                for seed in SEEDS:
                    bc = BoundaryData.random_uniform(seed, -1.0, 1.0)
                    field, rep = minimize(model, mesh, bc, m=m,
                                          tol=_solver_tol(label))
                    out = verify_chp(mesh, field, tol=_hull_tol(label))
                    rows.append((label, m, seed, rep.converged,
                                 out.outcome, out.violation))
    return {"rows": rows, "wall": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def lemma_suite(fresh_certificates):
    """1000 random (mesh, field, small hull) triples on non-obtuse meshes."""
    meshes = [build_structured_mesh("right2d", 4),
              build_structured_mesh("crisscross2d", 4)]
    rng = np.random.default_rng(2024)
    worst = -np.inf
    failures = 0
    for trial in range(1000):
        mesh = meshes[trial % 2]
        m = int(rng.integers(1, 4))
        field = NodalField(mesh, rng.normal(size=(mesh.num_vertices, m)))
        k = int(rng.integers(2, 9))
        K = convex.finite_hull(rng.normal(size=(k, m)))
        out = verify_lemma_pos(mesh, field, K, tol=1e-10)
        worst = max(worst, out.violation)
        failures += out.outcome != "pass"
    return {"trials": 1000, "failures": failures, "worst": worst}


def test_criterion_1_convex_hull_property(chp_suite, capsys):
    rows = chp_suite["rows"]
    bad = [r for r in rows if r[4] != "pass"]
    worst = max(r[5] for r in rows)
    stagnated = sum(not r[3] for r in rows)
    ok = not bad and chp_suite["wall"] < 300.0
    _emit(capsys, 1, ok,
          f"{len(rows)} solves, worst hull distance {worst:.2e}, "
          f"{stagnated} non-converged (steep exponents), "
          f"{chp_suite['wall']:.1f}s")


def test_criterion_2_projection_inequalities(lemma_suite, capsys):
    obtuse = build_structured_mesh("obtuse2d", 4)
    found = search_lemma_violation(obtuse, m=2, seed=0, trials=100)
    with open(DATA / "lemma_violation_obtuse2d.json") as fh:
        stored = json.load(fh)
    reproduced = (found is not None
                  and found["trial"] == stored["trial"]
                  and abs(found["violation"] - stored["violation"]) < 1e-15)
    ok = lemma_suite["failures"] == 0 and reproduced
    _emit(capsys, 2, ok,
          f"{lemma_suite['trials']} triples, worst excess "
          f"{lemma_suite['worst']:.2e}; obtuse counterexample reproduced "
          f"(violation {stored['violation']:.2e})")


def test_criterion_3_projection_certificates(chp_suite, lemma_suite, capsys):
    stats = certificate_stats()
    ok = stats.projections > 0 and stats.worst_slack <= 0.0
    _emit(capsys, 3, ok,
          f"{stats.projections} certified projections, "
          f"worst slack {stats.worst_slack:.2e}")


def test_criterion_4_maximum_principle(capsys):
    mesh = build_structured_mesh("right2d", 8)
    rng = np.random.default_rng(7)
    rows = []
    for p in (1.5, 2.0, 3.0):
        model = parse_energy(f"p-laplace:p={p}")
        for kind in ("constant", "random"):
            if kind == "constant":
                src = SourceTerm.constant(mesh, -1.0)
            else:
                src = SourceTerm(rng.uniform(-2.0, -0.1, size=mesh.num_elements))
            for seed in SEEDS:
                bc = BoundaryData.random_uniform(seed, -1.0, 1.0)
                field, rep = minimize(model, mesh, bc, m=1, source=src)
                out = verify_dmp(mesh, field, source=src, tol=1e-6)
                rows.append((out.outcome, out.violation, rep.converged))
    ok = all(r[0] == "pass" and r[2] for r in rows)
    worst = max(r[1] for r in rows)
    _emit(capsys, 4, ok,
          f"{len(rows)} solves with nonpositive sources, "
          f"worst interior excess {worst:.2e}")


def test_criterion_5_lumped_hull_with_origin(capsys):
    mesh = build_structured_mesh("right2d", 8)
    rows = []
    escapes = 0
    for q in (2.0, 4.0):
        lum = LumpedTerm.from_mesh(mesh, q)
        for m in (1, 2):
            for seed in SEEDS:
                bc = BoundaryData.random_uniform(seed, 2.0, 3.0)
                field, rep = minimize(parse_energy("p-laplace:p=2"),
                                      mesh, bc, m=m, lumped=lum)
                out = verify_hull_with_zero(mesh, field, tol=1e-6)
                rows.append((out.outcome, out.violation, rep.converged))
                escapes += verify_chp(mesh, field).violation > 1e-9
    ok = all(r[0] == "pass" and r[2] for r in rows) and escapes > 0
    worst = max(r[1] for r in rows)
    _emit(capsys, 5, ok,
          f"{len(rows)} lumped solves inside hull-with-origin "
          f"(worst {worst:.2e}); {escapes}/{len(rows)} escaped the plain "
          f"boundary hull")


def test_criterion_6_strong_hull_property(capsys):
    rows = []
    spreads = []
    for n in (4, 8):
        mesh = build_structured_mesh("equilateral2d", n)
        rep = mesh.angle_report()
        assert rep.mesh_class == "acute"
        assert rep.every_element_touches_interior
        for p in (2.0, 3.0):
            model = parse_energy(f"p-laplace:p={p}")
            for seed in SEEDS:
                bc = BoundaryData.random_uniform(seed, -1.0, 1.0)
                field, srep = minimize(model, mesh, bc, m=2)
                out = verify_strong_chp(mesh, field, tol=1e-9, model=model)
                rows.append((out.outcome,
                             out.details["extreme_interior_nodes"],
                             out.details["beta_identity_worst_rel_err"],
                             srep.converged))
            const = BoundaryData.affine([0.7, -0.2], [[0.0, 0.0], [0.0, 0.0]])
            field, srep = minimize(model, mesh, const, m=2)
            vals = field.values
            spreads.append(float((vals.max(axis=0) - vals.min(axis=0)).max()))
    ok = (all(r[0] == "pass" and r[1] == 0 and r[2] <= 1e-10 and r[3]
              for r in rows)
          and max(spreads) <= 1e-10)
    worst_beta = max(r[2] for r in rows)
    _emit(capsys, 6, ok,
          f"{len(rows)} nonconstant solves, no extreme interior values, "
          f"beta identity rel err {worst_beta:.2e}; constant-data spread "
          f"{max(spreads):.2e}")


def test_criterion_7_solver_correctness(capsys):
    worst_gap = 0.0
    model2 = parse_energy("p-laplace:p=2")
    for gen in ("right2d", "crisscross2d", "equilateral2d", "obtuse2d"):
        for n in (2, 4, 8):
            mesh = build_structured_mesh(gen, n)
            for m in (1, 2):
                bc = BoundaryData.random_uniform(3 * n + m, -1.0, 1.0)
                field, rep = minimize(model2, mesh, bc, m=m)
                oracle = solve_quadratic_oracle(mesh, bc, m=m)
                gap = float(np.abs(field.values - oracle.values).max())
                worst_gap = max(worst_gap, gap)
                assert rep.converged

    # finite difference check of the assembled residual, all catalog models
    mesh = build_structured_mesh("right2d", 2)
    rng = np.random.default_rng(11)
    worst_rel = 0.0
    labels = ENERGY_LABELS + ("orlicz:power-log",)
    for label in labels:
        model = parse_energy(label)
        vals = rng.uniform(0.2, 1.0, size=(mesh.num_vertices, 2))
        field = NodalField(mesh, vals)
        r = residual(model, field)
        h = 1e-6
        fd = np.zeros_like(r)
        for i, node in enumerate(mesh.interior_nodes):
            for c in range(2):
                vp = vals.copy()
                vm = vals.copy()
                vp[node, c] += h
                vm[node, c] -= h
                Ep = energy_value(model, NodalField(mesh, vp))
                Em = energy_value(model, NodalField(mesh, vm))
                fd[i, c] = (Ep - Em) / (2.0 * h)
        rel = float(np.abs(r - fd).max() / (1.0 + np.abs(fd).max()))
        worst_rel = max(worst_rel, rel)
    ok = worst_gap <= 1e-9 and worst_rel <= 1e-6
    _emit(capsys, 7, ok,
          f"quadratic solve vs direct oracle gap {worst_gap:.2e}; "
          f"residual vs finite differences rel err {worst_rel:.2e}")


def test_criterion_8_affine_exactness(capsys):
    consts = [0.15, -0.3]
    grads = [[0.45, -0.15], [0.3, 0.6]]
    worst_res = 0.0
    worst_hull = 0.0
    count = 0
    for gen in ("right2d", "equilateral2d"):
        mesh = build_structured_mesh(gen, 4)
        for label in ENERGY_LABELS + ("orlicz:power-log",):
            model = parse_energy(label)
            for m in (1, 2):
                bc = BoundaryData.affine(consts[:m], grads[:m])
                field, rep = minimize(model, mesh, bc, m=m)
                r = residual(model, field)
                worst_res = max(worst_res, float(np.abs(r).max()))
                out = verify_chp(mesh, field, tol=1e-12)
                worst_hull = max(worst_hull, out.violation)
                exact = interpolate_boundary(mesh, bc, m=m).values.copy()
                exact[mesh.interior_nodes] = (
                    np.asarray(consts[:m])
                    + mesh.vertices[mesh.interior_nodes] @ np.asarray(grads[:m]).T
                )
                assert np.abs(field.values - exact).max() <= 1e-10
                count += 1
    ok = worst_res <= 1e-12 and worst_hull <= 1e-12
    _emit(capsys, 8, ok,
          f"{count} affine solves, residual sup {worst_res:.2e}, "
          f"hull distance {worst_hull:.2e}")

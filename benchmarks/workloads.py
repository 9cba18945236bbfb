"""Workload definitions and the op runner of the femchp benchmark.

A workload is a list of meshes plus a list of ops.  One op is one solve
(``minimize`` or ``solve_quadratic_oracle``) followed by the verifiers of
that op, and each result is checked without relying on the seed:

* every verifier returns the expected outcome (``pass``, or
  ``hypothesis-not-met`` on the obtuse mesh);
* no projection exceeded its certificate (``worst_slack <= 0``);
* a solve that reports convergence has ``residual_norm <= tol``;
* p = 2 Newton solves without source or lumped term agree with the
  independent quadratic oracle.

The workload seed only draws the random boundary data and the lemma target
sets; the meshes and the op list are fixed per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from femchp import convex
from femchp.energy import LumpedTerm, SourceTerm, parse_energy
from femchp.field import BoundaryData
from femchp.mesh import build_structured_mesh
from femchp.solver import minimize, solve_quadratic_oracle
from femchp.verify import (verify_chp, verify_dmp, verify_hull_with_zero,
                           verify_lemma_pos, verify_strong_chp)

P2 = "p-laplace:p=2"
GRID_ENERGIES = ("p-laplace:p=1.5", P2, "p-laplace:p=3", "p-laplace:p=10",
                 "mean-curvature", "orlicz:log-cosh")
# largest allowed sup-norm gap between a p = 2 Newton solve and the oracle
ORACLE_GAP_TOL = 1e-8
SOLVER_COUNTERS = ("iterations", "newton_steps", "gradient_steps", "backtracks")
# verifier tolerances of the acceptance suite; CHP after a Newton solve
# away from p = 2 gets 1e-6, since the residual floor of steep profiles
# sits higher
VERIFY_TOL = {"chp": 1e-8, "dmp": 1e-6, "hull0": 1e-6, "lemma-pos": 1e-10,
              "strong-chp": 1e-9}


@dataclass(frozen=True)
class Op:
    """One solve plus the verifiers run on its result."""

    mesh: tuple              # (generator, resolution)
    energy: str | None       # None: the quadratic oracle is the solver
    m: int
    bc_seed: int
    theorems: tuple
    bc_range: tuple = (-1.0, 1.0)
    source: float | None = None
    lumped_q: float | None = None
    lemma_points: tuple | None = None   # generators of the lemma target set
    expect: str = "pass"

    @property
    def label(self) -> str:
        gen, n = self.mesh
        return f"{gen}:{n}/{self.energy or 'oracle'}/m={self.m}/bc={self.bc_seed}"


@dataclass
class OpResult:
    """Outcome of one op: the failures found and the solver counters."""

    problems: list
    counts: dict


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=k)]


def _lemma_points(rng, m):
    # 24 points: the hull of a handful of random points ranges from a sliver
    # to a large polygon, and the projection work with it, fivefold between
    # seeds on right2d:48; with 24 points the hull shape varies far less
    return tuple(map(tuple, 0.5 * rng.normal(size=(24, m))))


def _grid_sweep(rng):
    meshes = [("right2d", 8), ("crisscross2d", 8), ("equilateral2d", 8),
              ("kuhn3d", 3)]
    ops = []
    for mesh in meshes:
        for energy in GRID_ENERGIES:
            for m in (1, 2, 3):
                ops += [Op(mesh, energy, m, s, ("chp",)) for s in _seeds(rng, 5)]
    return meshes, ops


def _newton_medium(rng):
    s = _seeds(rng, 6)
    ops = [
        Op(("right2d", 30), "p-laplace:p=3", 2, s[0], ("chp",)),
        Op(("crisscross2d", 20), "mean-curvature", 2, s[1], ("chp",)),
        Op(("kuhn3d", 10), "orlicz:log-cosh", 2, s[2], ("chp",)),
        Op(("crisscross2d", 20), "p-laplace:p=3", 1, s[3], ("dmp",),
           source=-1.0),
        Op(("right2d", 24), "orlicz:power-log", 2, s[4], ("hull0",),
           bc_range=(2.0, 3.0), lumped_q=3.0),
        Op(("equilateral2d", 32), "p-laplace:p=1.5", 1, s[5], ("chp",)),
    ]
    return sorted({op.mesh for op in ops}), ops


def _certify_large(rng):
    s = _seeds(rng, 6)
    ops = [
        Op(("right2d", 48), None, 2, s[0], ("chp", "hull0", "lemma-pos"),
           lemma_points=_lemma_points(rng, 2)),
        Op(("kuhn3d", 8), None, 1, s[1], ("chp", "dmp", "lemma-pos"),
           lemma_points=_lemma_points(rng, 1)),
        Op(("crisscross2d", 32), None, 1, s[2], ("chp", "dmp", "hull0")),
        Op(("obtuse2d", 40), None, 2, s[3], ("chp", "lemma-pos"),
           lemma_points=_lemma_points(rng, 2), expect="hypothesis-not-met"),
        Op(("equilateral2d", 9), "p-laplace:p=3", 1, s[4], ("strong-chp",)),
        Op(("equilateral2d", 9), "mean-curvature", 2, s[5], ("strong-chp",)),
    ]
    return sorted({op.mesh for op in ops}), ops


WORKLOADS = {
    "grid-sweep": _grid_sweep,
    "newton-medium": _newton_medium,
    "certify-large": _certify_large,
}


def build_workload(name: str, seed: int, scale: int | None = None):
    """Return (mesh specs, ops) of a workload; the seed draws the data.

    ``scale`` replaces every mesh resolution (tests use tiny meshes).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choices: {', '.join(WORKLOADS)}")
    meshes, ops = WORKLOADS[name](np.random.default_rng(seed))
    if scale is not None:
        meshes = sorted({(g, scale) for g, _ in meshes})
        ops = [replace(op, mesh=(op.mesh[0], scale)) for op in ops]
    return meshes, ops


def build_meshes(specs, tracer):
    """Build and classify every mesh; the time is the workload's set-up."""
    meshes = {}
    for gen, n in specs:
        with tracer.span("mesh.construct"):
            mesh = build_structured_mesh(gen, n)
        with tracer.span("mesh.classify"):
            mesh.angle_report()
        meshes[(gen, n)] = mesh
    return meshes


def _verify(theorem, mesh, field, op, model, source):
    tol = VERIFY_TOL[theorem]
    if theorem == "chp":
        if op.energy not in (None, P2):
            tol = 1e-6
        return verify_chp(mesh, field, tol=tol)
    if theorem == "dmp":
        return verify_dmp(mesh, field, source=source, tol=tol)
    if theorem == "hull0":
        return verify_hull_with_zero(mesh, field, tol=tol)
    if theorem == "lemma-pos":
        K = convex.finite_hull(np.array(op.lemma_points))
        return verify_lemma_pos(mesh, field, K, tol=tol)
    return verify_strong_chp(mesh, field, tol=tol, model=model)


def run_op(op: Op, mesh, tracer) -> OpResult:
    """Solve, verify and check one op; failures are returned, not raised."""
    problems = []
    counts = dict.fromkeys(("solves", "converged") + SOLVER_COUNTERS, 0)
    bc = BoundaryData.random_uniform(op.bc_seed, *op.bc_range)
    source = SourceTerm.constant(mesh, op.source) if op.source is not None else None
    lumped = LumpedTerm.from_mesh(mesh, op.lumped_q) if op.lumped_q else None
    model = None
    if op.energy is None:
        with tracer.span("solver.oracle"):
            field = solve_quadratic_oracle(mesh, bc, source=source, m=op.m)
    else:
        model = parse_energy(op.energy)
        tol = 1e-8 if op.energy == "p-laplace:p=10" else 1e-10
        with tracer.span("solver.minimize"):
            field, rep = minimize(model, mesh, bc, m=op.m, source=source,
                                  lumped=lumped, tol=tol)
        counts.update(solves=1, converged=int(rep.converged),
                      **{key: getattr(rep, key) for key in SOLVER_COUNTERS})
        if rep.converged and not rep.residual_norm <= rep.tol:
            problems.append(f"converged with residual {rep.residual_norm:.3e} > tol {rep.tol:.1e}")
        if op.energy == P2 and source is None and lumped is None:
            with tracer.span("solver.oracle"):
                ref = solve_quadratic_oracle(mesh, bc, m=op.m)
            gap = float(np.abs(field.values - ref.values).max())
            if not gap <= ORACLE_GAP_TOL:
                problems.append(f"Newton and oracle differ by {gap:.3e}")
    for theorem in op.theorems:
        with tracer.span("verify." + theorem.replace("-", "_")):
            out = _verify(theorem, mesh, field, op, model, source)
        if out.outcome != op.expect:
            problems.append(f"{theorem}: {out.outcome}, expected {op.expect} "
                            f"(violation {out.violation:.3e})")
    slack = convex.certificate_stats().worst_slack
    if not slack <= 0.0:
        problems.append(f"certificate slack {slack:.3e} > 0")
    return OpResult(problems, counts)

"""Empirical checks of hull and maximum principles for P1 minimisers.

Each checker returns a VerifyReport stating whether the structural
hypotheses hold (mesh angle class, source sign, energy shape), whether the
claimed conclusion holds up to a tolerance, and the worst violation it saw.
A report never claims "fail" when a hypothesis is broken; those runs are
flagged hypothesis-not-met and the measured violation is still recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .mesh import Mesh, _check_tol, _csr_diagonal, _csr_matvec, _max_coupling
from .field import NodalField
from .energy import EnergyModel, SourceTerm, p_dirichlet, _newton_weights
from . import convex

__all__ = [
    "VerifyReport",
    "verify_chp",
    "verify_dmp",
    "verify_hull_with_zero",
    "verify_strong_chp",
    "verify_lemma_pos",
    "beta_weights",
    "search_lemma_violation",
]

CHP = "CHP"
DMP = "DMP"
HULL_WITH_ZERO = "HULL_WITH_ZERO"
STRONG_CHP = "STRONG_CHP"
LEMMA_POS = "LEMMA_POS"

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"

# strong CHP: relative spread below which a field counts as constant
_CONSTANCY_TOL = 1e-10


@dataclass
class VerifyReport:
    theorem: str
    mesh_class: str
    conclusion_holds: bool
    violation: float
    tol: float
    worst_index: int | None
    hypotheses: dict
    details: dict = dataclass_field(default_factory=dict)

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    @property
    def outcome(self) -> str:
        if not self.hypotheses_ok:
            return HYPOTHESIS_NOT_MET
        return PASS if self.conclusion_holds else FAIL

    def to_text(self) -> str:
        lines = [
            f"theorem = {self.theorem}",
            f"outcome = {self.outcome}",
            f"mesh_class = {self.mesh_class}",
            f"violation = {self.violation:.6e} (tol {self.tol:.1e})",
            f"worst_index = {self.worst_index}",
        ]
        for name, ok in sorted(self.hypotheses.items()):
            lines.append(f"hypothesis {name} = {'ok' if ok else 'NOT MET'}")
        for name in sorted(self.details):
            lines.append(f"detail {name} = {self.details[name]}")
        return "\n".join(lines)


def _check_pair(mesh: Mesh, field: NodalField):
    if field.mesh is not mesh:
        raise ValueError("field is attached to a different mesh")


def _interior_report(theorem: str, mesh: Mesh, field: NodalField, K, tol: float,
                     hypotheses: dict, details: dict) -> VerifyReport:
    """Report on the claim that every interior value lies within tol of K.

    The claim needs a non-obtuse mesh on top of ``hypotheses``.  Violation
    is the largest Euclidean distance from an interior nodal value to K,
    each found by a certified projection, and the worst index is that
    value's node (None without interior nodes).
    """
    angle = mesh.angle_report()
    worst, row = convex.worst_distance(K, field.values[mesh.interior_nodes])
    return VerifyReport(
        theorem=theorem,
        mesh_class=angle.mesh_class,
        conclusion_holds=worst <= tol,
        violation=worst,
        tol=tol,
        worst_index=None if row is None else int(mesh.interior_nodes[row]),
        hypotheses={"mesh-non-obtuse": angle.is_non_obtuse, **hypotheses},
        details=details,
    )


def verify_chp(mesh: Mesh, field: NodalField, tol: float = 1e-8) -> VerifyReport:
    """Interior values lie in the convex hull of the boundary values.

    On an obtuse mesh the result is flagged hypothesis-not-met rather than
    pass/fail.
    """
    _check_pair(mesh, field)
    _check_tol("tol", tol)
    hull = convex.boundary_hull(field)
    return _interior_report(CHP, mesh, field, hull, tol, {}, {
        "interior_nodes": len(mesh.interior_nodes),
        "hull_generators": len(hull.generators),
    })


def verify_dmp(mesh: Mesh, field: NodalField, source: SourceTerm | None = None,
               tol: float = 1e-6) -> VerifyReport:
    """Maximum principle: interior max below boundary max for f <= 0.

    Scalar fields only.  The target set is the interval from the smallest
    nodal value to the boundary maximum: no value lies below it, so the
    distances are those to the half-line (-inf, boundary max].
    """
    _check_pair(mesh, field)
    _check_tol("tol", tol)
    if field.m != 1:
        raise ValueError("the maximum principle check needs a scalar field (m=1)")
    if source is not None:
        source.check(mesh)
    bmax = float(field.values[mesh.boundary_nodes, 0].max())
    vmin = float(field.values[:, 0].min())
    return _interior_report(
        DMP, mesh, field, convex.finite_hull([[vmin], [bmax]]), tol,
        {"source-nonpositive": source.nonpositive if source is not None else True},
        {"boundary_max": bmax})


def verify_hull_with_zero(mesh: Mesh, field: NodalField, tol: float = 1e-8) -> VerifyReport:
    """Interior values lie in the hull of boundary values and the origin.

    This is the hull property matching energies with a lumped zero-order
    term, which pulls values toward the origin.  How far interior values
    escape the plain boundary hull is ``verify_chp``'s violation.
    """
    _check_pair(mesh, field)
    _check_tol("tol", tol)
    hull = convex.hull_with_origin(field.values[mesh.boundary_nodes])
    return _interior_report(HULL_WITH_ZERO, mesh, field, hull, tol, {},
                            {"hull_generators": len(hull.generators)})


def beta_weights(mesh: Mesh, field: NodalField, model: EnergyModel):
    """Neighbor-weight matrix B of the minimiser's Euler-Lagrange equation, V x V.

    B[i, k] = sum_T |T| c_T a(|grad U|) grad phi_i . grad phi_k, with a(t)
    from the Hessian's ``_newton_weights`` and B on the mesh's scalar
    pattern of all vertices (``Mesh.assemble``).  At node z, beta_0 =
    B[z, z] and beta_y = -B[z, y] for each neighbor y sharing an element
    with z; summing the beta_y reproduces beta_0 exactly because the basis
    gradients of each element sum to zero, for any per-element weight
    whatsoever.  B is symmetric CSC, so column z of its arrays is row z.
    """
    _check_pair(mesh, field)
    a, _ = _newton_weights(model, field._norms[1])
    return mesh._stiffness(model.element_weights(mesh) * a, interior=False)


def verify_strong_chp(mesh: Mesh, field: NodalField, tol: float = 1e-9,
                      model: EnergyModel | None = None) -> VerifyReport:
    """Strict variant: an extreme interior value forces a constant field.

    Hypotheses: acute mesh, every element touches an interior vertex, pure
    gradient energy (monotone, strictly convex profile; no source, no lumped
    term).  The checker takes a census of interior nodes whose value is
    extreme in the hull of all nodal values (tolerance ``tol``); if any
    exist, the field must be constant up to ``_CONSTANCY_TOL`` and the
    neighbor-weight convex combination at each such node must check out.
    The neighbor weights are read from the rows of the matrix B that
    ``beta_weights`` builds: beta_0 = B[z, z] and beta_y = -B[z, y], so
    beta_0 - sum_y beta_y is the row sum of B.
    """
    _check_pair(mesh, field)
    _check_tol("tol", tol)
    if model is None:
        model = p_dirichlet(2.0)
    angle = mesh.angle_report()

    values = field.values
    scale = float(np.abs(values).max(initial=0.0))
    interior = mesh.interior_nodes
    extreme = interior[convex.is_extreme(values, interior, tol)]

    B = beta_weights(mesh, field, model)
    diag = _csr_diagonal(B.indptr, B.indices, B.data)
    row_sums = _csr_matvec(B.indptr, B.indices, B.data, np.ones(len(diag)))[interior]
    ident_worst = float((np.abs(row_sums) / np.maximum(np.abs(diag[interior]), 1e-300))
                        .max(initial=0.0))
    # lambda_y = -B[z, y] / B[z, z] >= 0 at each extreme z with B[z, z] > 0;
    # they sum to 1 - (row sum) / beta_0, which the identity test bounds
    lam_ok = _max_coupling(B, extreme[diag[extreme] > 0.0]) <= 1e-10

    if len(extreme):
        spread = float((values.max(axis=0) - values.min(axis=0)).max())
        conclusion = spread <= _CONSTANCY_TOL * (1.0 + scale) and lam_ok
        violation = spread
        worst = int(extreme[0])
    else:
        conclusion = True
        violation = 0.0
        worst = None

    hyps = {
        "mesh-acute": angle.is_acute,
        "every-element-touches-interior": angle.every_element_touches_interior,
        "profile-monotone": model.monotone,
        "profile-strictly-convex": model.strictly_convex,
    }
    return VerifyReport(
        theorem=STRONG_CHP,
        mesh_class=angle.mesh_class,
        conclusion_holds=conclusion and ident_worst <= 1e-10,
        violation=violation,
        tol=tol,
        worst_index=worst,
        hypotheses=hyps,
        details={
            "extreme_interior_nodes": len(extreme),
            "beta_identity_worst_rel_err": ident_worst,
            "lambda_checks_ok": lam_ok,
        },
    )


def verify_lemma_pos(mesh: Mesh, field: NodalField, K, tol: float = 1e-10) -> VerifyReport:
    """Elementwise projection inequalities for the nodal projection onto K.

    On a non-obtuse mesh the nodal projection P_K V satisfies, elementwise,
    grad V : grad P_K V >= |grad P_K V|^2   and   |grad P_K V| <= |grad V|.
    Both read the gradient passes that V and P_K V cache in ``_norms``.
    Excesses are scaled by 1 / (1 + |grad V|^2) so one tolerance covers
    both; the violation is the worse of the two on the worst element.
    """
    _check_pair(mesh, field)
    _check_tol("tol", tol)
    angle = mesh.angle_report()
    gV, nv = field._norms
    gP, nP = field.with_values(convex.project(K, field.values))._norms
    dot = np.einsum("enm,enm->e", gV, gP)
    pp = np.einsum("enm,enm->e", gP, gP)
    scale = 1.0 + nv ** 2
    exc1 = (pp - dot) / scale
    exc2 = (nP - nv) / scale
    both = np.maximum(exc1, exc2)
    worst_e = int(np.argmax(both))
    violation = float(both[worst_e])

    return VerifyReport(
        theorem=LEMMA_POS,
        mesh_class=angle.mesh_class,
        conclusion_holds=violation <= tol,
        violation=violation,
        tol=tol,
        worst_index=worst_e,
        hypotheses={"mesh-non-obtuse": angle.is_non_obtuse},
        details={
            "worst_inner_product_excess": float(exc1.max()),
            "worst_norm_excess": float(exc2.max()),
        },
    )


def search_lemma_violation(mesh: Mesh, m: int = 1, seed: int = 0,
                           trials: int = 300, threshold: float = 1e-8):
    """Randomized hunt for a violation of the projection inequalities.

    Each trial draws a random nodal field and the hull of m + 1 random
    points, and runs ``verify_lemma_pos`` on them; returns the first
    configuration whose normalized excess passes the threshold, or None.
    On non-obtuse meshes this should always come back empty; on obtuse
    meshes violations are typically easy to find.
    """
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        values = rng.normal(size=(mesh.num_vertices, m))
        pts = rng.normal(size=(m + 1, m)) * 0.5
        report = verify_lemma_pos(mesh, NodalField(mesh, values), convex.finite_hull(pts),
                                  tol=threshold)
        if report.violation > threshold:
            return {
                "seed": seed,
                "trial": trial,
                "values": values,
                "generators": pts.tolist(),
                "element": report.worst_index,
                "violation": report.violation,
            }
    return None

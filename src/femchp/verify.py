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

from .mesh import Mesh
from .field import NodalField
from .energy import EnergyModel, SourceTerm, LumpedTerm, p_dirichlet, _clamped_a
from . import convex

__all__ = [
    "VerifyReport",
    "BetaWeights",
    "verify_chp",
    "verify_dmp",
    "verify_hull_with_zero",
    "verify_strong_chp",
    "verify_lemma_pos",
    "beta_weights",
    "search_lemma_violation",
    "THEOREMS",
]

CHP = "CHP"
DMP = "DMP"
HULL_WITH_ZERO = "HULL_WITH_ZERO"
STRONG_CHP = "STRONG_CHP"
LEMMA_POS = "LEMMA_POS"
THEOREMS = (CHP, DMP, HULL_WITH_ZERO, STRONG_CHP, LEMMA_POS)

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


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

    @property
    def passed(self) -> bool:
        return self.outcome == PASS

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


def _worst_interior(mesh: Mesh, field: NodalField, K):
    """Largest distance from an interior value to K, and its node (or None)."""
    worst, row = convex.worst_distance(K, field.values[mesh.interior_nodes])
    return worst, None if row is None else int(mesh.interior_nodes[row])


def verify_chp(mesh: Mesh, field: NodalField, tol: float = 1e-8) -> VerifyReport:
    """Interior values lie in the convex hull of the boundary values.

    Violation is the largest Euclidean distance from an interior nodal value
    to the hull.  Requires a non-obtuse mesh; on an obtuse mesh the result
    is flagged hypothesis-not-met rather than pass/fail.
    """
    _check_pair(mesh, field)
    angle = mesh.angle_report()
    hull = convex.boundary_hull(field)
    worst, worst_node = _worst_interior(mesh, field, hull)

    return VerifyReport(
        theorem=CHP,
        mesh_class=angle.mesh_class,
        conclusion_holds=worst <= tol,
        violation=worst,
        tol=tol,
        worst_index=worst_node,
        hypotheses={"mesh-non-obtuse": angle.is_non_obtuse},
        details={
            "interior_nodes": len(mesh.interior_nodes),
            "hull_generators": len(hull.generators),
        },
    )


def verify_dmp(mesh: Mesh, field: NodalField, source: SourceTerm | None = None,
               tol: float = 1e-6) -> VerifyReport:
    """Maximum principle: interior max below boundary max for f <= 0.

    Scalar fields only.  The target set is the half-line capped at the
    boundary maximum, so each interior value is checked through a certified
    projection.
    """
    _check_pair(mesh, field)
    if field.m != 1:
        raise ValueError("the maximum principle check needs a scalar field (m=1)")
    angle = mesh.angle_report()

    bmax = float(field.values[mesh.boundary_nodes, 0].max())
    worst, worst_node = _worst_interior(mesh, field, convex.half_line(bmax))

    hyps = {
        "mesh-non-obtuse": angle.is_non_obtuse,
        "source-nonpositive": source.nonpositive if source is not None else True,
    }
    return VerifyReport(
        theorem=DMP,
        mesh_class=angle.mesh_class,
        conclusion_holds=worst <= tol,
        violation=worst,
        tol=tol,
        worst_index=worst_node,
        hypotheses=hyps,
        details={"boundary_max": bmax},
    )


def verify_hull_with_zero(mesh: Mesh, field: NodalField, tol: float = 1e-8,
                          track_plain_hull: bool = False) -> VerifyReport:
    """Interior values lie in the hull of boundary values and the origin.

    This is the hull property matching energies with a lumped zero-order
    term, which pulls values toward the origin.  With track_plain_hull the
    report also records how far interior values escape the plain boundary
    hull (evidence that adding the origin is genuinely needed).
    """
    _check_pair(mesh, field)
    angle = mesh.angle_report()
    hull = convex.boundary_hull(field, include_origin=True)
    worst, worst_node = _worst_interior(mesh, field, hull)

    details = {"hull_generators": len(hull.generators)}
    if track_plain_hull:
        details["plain_hull_escape"], _ = _worst_interior(
            mesh, field, convex.boundary_hull(field))

    return VerifyReport(
        theorem=HULL_WITH_ZERO,
        mesh_class=angle.mesh_class,
        conclusion_holds=worst <= tol,
        violation=worst,
        tol=tol,
        worst_index=worst_node,
        hypotheses={"mesh-non-obtuse": angle.is_non_obtuse},
        details=details,
    )


@dataclass(frozen=True)
class BetaWeights:
    """Neighbor weights of one interior node induced by the minimiser.

    beta_y = sum over shared elements of |T| c_T a(|grad U|) (-g_y . g_z);
    summing over the neighbors reproduces beta_0 (the g_z diagonal term)
    exactly because the basis gradients of each element sum to zero, for any
    per-element weight whatsoever.
    """

    node: int
    neighbors: np.ndarray
    betas: np.ndarray
    beta0: float

    @property
    def identity_rel_err(self) -> float:
        return abs(self.beta0 - self.betas.sum()) / max(abs(self.beta0), 1e-300)

    @property
    def lambdas(self) -> np.ndarray:
        return self.betas / self.beta0 if self.beta0 != 0.0 else np.full_like(self.betas, np.nan)


def _element_weights(mesh: Mesh, field: NodalField, model: EnergyModel) -> np.ndarray:
    """|T| c_T a(|grad U|) per element, with a(t) clamped as in the Hessian."""
    G = field.element_gradients()
    _, a = _clamped_a(model, np.sqrt(np.einsum("enm,enm->e", G, G)))
    return mesh.volumes * model.element_coeff(mesh.num_elements) * a


def _node_betas(mesh: Mesh, weights: np.ndarray, node: int) -> BetaWeights:
    """Neighbor weights of ``node`` from the per-element weights."""
    acc: dict = {}
    beta0 = 0.0
    for e in mesh._vertex_elements[node]:
        elem = mesh.elements[e].tolist()
        loc = elem.index(node)
        gz = mesh.gradients[e, loc]
        w = float(weights[e])
        beta0 += w * float(gz @ gz)
        for i, y in enumerate(elem):
            if i == loc:
                continue
            acc[y] = acc.get(y, 0.0) + w * float(-(mesh.gradients[e, i] @ gz))

    neighbors = np.array(sorted(acc), dtype=np.int64)
    betas = np.array([acc[int(y)] for y in neighbors])
    return BetaWeights(node=int(node), neighbors=neighbors, betas=betas, beta0=beta0)


def beta_weights(mesh: Mesh, field: NodalField, node: int,
                 model: EnergyModel | None = None) -> BetaWeights:
    """Compute the neighbor weights of an interior node for the given model."""
    if model is None:
        model = p_dirichlet(2.0)
    if node not in set(mesh.interior_nodes.tolist()):
        raise ValueError(f"node {node} is not an interior node")
    return _node_betas(mesh, _element_weights(mesh, field, model), node)


def verify_strong_chp(mesh: Mesh, field: NodalField, tol: float = 1e-9,
                      model: EnergyModel | None = None,
                      source: SourceTerm | None = None,
                      lumped: LumpedTerm | None = None,
                      constancy_tol: float = 1e-10) -> VerifyReport:
    """Strict variant: an extreme interior value forces a constant field.

    Hypotheses: acute mesh, every element touches an interior vertex, pure
    gradient energy (monotone, strictly convex profile; no source, no lumped
    term).  The checker takes a census of interior nodes whose value is
    extreme in the hull of all nodal values (tolerance ``tol``); if any
    exist, the field must be constant up to ``constancy_tol`` and the
    neighbor-weight convex combination at each such node must check out.
    """
    _check_pair(mesh, field)
    if source is not None or lumped is not None:
        raise ValueError(
            "the strict hull property applies to the pure gradient energy; "
            "drop the source/lumped terms"
        )
    if model is None:
        model = p_dirichlet(2.0)
    angle = mesh.angle_report()

    values = field.values
    scale = float(np.abs(values).max(initial=0.0))
    extreme = [
        int(z) for z in mesh.interior_nodes
        if convex.is_extreme(values, int(z), tol)
    ]

    weights = _element_weights(mesh, field, model)
    betas = {int(z): _node_betas(mesh, weights, int(z)) for z in mesh.interior_nodes}
    ident_worst = max((bw.identity_rel_err for bw in betas.values()), default=0.0)
    lam_ok = True
    for z in extreme:
        bw = betas[z]
        if bw.beta0 > 0.0:
            lam = bw.lambdas
            lam_ok = lam_ok and bool(lam.min() >= -1e-10) and abs(lam.sum() - 1.0) <= 1e-10

    if extreme:
        spread = float((values.max(axis=0) - values.min(axis=0)).max())
        conclusion = spread <= constancy_tol * (1.0 + scale) and lam_ok
        violation = spread
        worst = extreme[0]
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


def _lemma_excesses(field: NodalField, K):
    """Worst per-element excess of the projection inequalities for P_K.

    On a non-obtuse mesh the nodal projection P_K V satisfies, elementwise,
    grad V : grad P_K V >= |grad P_K V|^2   and   |grad P_K V| <= |grad V|.
    Excesses are scaled by 1 / (1 + |grad V|^2) so one tolerance covers both.
    Returns (worst, worst element, worst of the first, worst of the second).
    """
    projected = field.with_values(convex.project(K, field.values))
    gV = field.element_gradients()
    gP = projected.element_gradients()
    dot = np.einsum("enm,enm->e", gV, gP)
    pp = np.einsum("enm,enm->e", gP, gP)
    nv = np.sqrt(np.einsum("enm,enm->e", gV, gV))
    scale = 1.0 + nv ** 2
    exc1 = (pp - dot) / scale
    exc2 = (np.sqrt(pp) - nv) / scale
    both = np.maximum(exc1, exc2)
    worst_e = int(np.argmax(both))
    return float(both[worst_e]), worst_e, float(exc1.max()), float(exc2.max())


def verify_lemma_pos(mesh: Mesh, field: NodalField, K, tol: float = 1e-10) -> VerifyReport:
    """Elementwise projection inequalities for the nodal projection onto K."""
    _check_pair(mesh, field)
    angle = mesh.angle_report()
    violation, worst_e, exc1, exc2 = _lemma_excesses(field, K)

    return VerifyReport(
        theorem=LEMMA_POS,
        mesh_class=angle.mesh_class,
        conclusion_holds=violation <= tol,
        violation=violation,
        tol=tol,
        worst_index=worst_e,
        hypotheses={"mesh-non-obtuse": angle.is_non_obtuse},
        details={
            "worst_inner_product_excess": exc1,
            "worst_norm_excess": exc2,
        },
    )


def search_lemma_violation(mesh: Mesh, m: int = 1, seed: int = 0,
                           trials: int = 300, threshold: float = 1e-8):
    """Randomized hunt for a violation of the projection inequalities.

    Draws random nodal fields and random small target sets; returns the
    first configuration whose normalized excess passes the threshold, or
    None.  On non-obtuse meshes this should always come back empty; on
    obtuse meshes violations are typically easy to find.
    """
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        values = rng.normal(size=(mesh.num_vertices, m))
        if m == 1:
            lo, hi = np.sort(rng.normal(size=2) * 0.5)
            if hi - lo < 1e-3:
                hi = lo + 1e-3
            K = convex.finite_hull(np.array([[lo], [hi]]))
            gens = [[lo], [hi]]
        else:
            pts = rng.normal(size=(m + 1, m)) * 0.5
            K = convex.finite_hull(pts)
            gens = pts.tolist()
        worst, worst_e, _, _ = _lemma_excesses(NodalField(mesh, values), K)
        if worst > threshold:
            return {
                "seed": seed,
                "trial": trial,
                "values": values,
                "generators": gens,
                "element": worst_e,
                "violation": worst,
            }
    return None

"""Minimisation of convex gradient energies over interior vertex values.

The solver runs damped Newton steps on the sparse interior Hessian with an
Armijo backtracking line search, falling back to a diagonally preconditioned
gradient direction when the Hessian, also with a small ridge, is not
numerically positive definite.  Boundary rows of the iterate are never
touched, so prescribed boundary values survive bit for bit.

The iteration starts from the boundary interpolant (zero interior), except
for profiles with a(0) = 0 (p-Dirichlet with p > 2): there the Hessian
vanishes wherever the gradient does, so the zero interior would make every
step singular until the zero region is gone.  Those start from the harmonic
extension instead, the minimiser of the p = 2 energy with the same element
coefficients and source, found by one linear solve.

For profiles whose weight a(t) = F'(t)/t blows up as t -> 0 (p-Dirichlet
with p < 2) the Hessian evaluation clamps t from below.  The energy and the
residual are always evaluated unclamped, so the minimiser itself is not
altered; the clamp only tempers the Newton model in flat regions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .mesh import Mesh
from .field import NodalField, BoundaryData, interpolate_boundary
from .energy import (EnergyModel, SourceTerm, LumpedTerm, energy_value, residual,
                     p_dirichlet, _clamped_a, _gradient_norms)

__all__ = [
    "SolveReport",
    "LineSearchError",
    "minimize",
    "solve_quadratic_oracle",
    "assemble_hessian",
]

_ARMIJO_C1 = 1e-4
_SHRINK = 0.5
_MIN_STEP = 1e-16
_STAGNATION_REL = 1e-15
_EPS = float(np.finfo(np.float64).eps)


class LineSearchError(RuntimeError):
    """Backtracking failed to produce an acceptable step."""


def _relative_decrease(E_old: float, E_new: float) -> float:
    """Energy drop measured against the energy's own magnitude.

    Dividing by max(|E_old|, |E_new|) keeps the test meaningful both for
    huge energies (absolute drops below one ulp count as stagnation) and
    for energies decaying to zero (steady proportional progress never
    does).  Returns 0 when both energies are exactly zero.
    """
    scale = max(abs(E_old), abs(E_new))
    if scale == 0.0:
        return 0.0
    return (E_old - E_new) / scale


@dataclass
class SolveReport:
    converged: bool
    status: str
    iterations: int
    energy: float
    residual_norm: float
    tol: float
    newton_steps: int = 0
    gradient_steps: int = 0
    backtracks: int = 0
    min_step: float = float("nan")
    wall_time: float = 0.0
    start: str = "interpolant"
    energy_history: list = dataclass_field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"converged = {self.converged}",
            f"status = {self.status}",
            f"iterations = {self.iterations}",
            f"energy = {self.energy:.17g}",
            f"residual_norm = {self.residual_norm:.3e}",
            f"tol = {self.tol:.3e}",
            f"newton_steps = {self.newton_steps}",
            f"gradient_steps = {self.gradient_steps}",
            f"backtracks = {self.backtracks}",
            f"min_step = {self.min_step:.3e}",
            f"wall_time = {self.wall_time:.3f}s",
            f"start = {self.start}",
        ]
        return "\n".join(lines)


def _energy_of(model, mesh, values, source, lumped) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return energy_value(model, NodalField(mesh, values), source=source, lumped=lumped)


def assemble_hessian(model: EnergyModel, field: NodalField,
                     lumped: LumpedTerm | None = None) -> scipy.sparse.csc_matrix:
    """Sparse energy Hessian w.r.t. interior values, shape (N0*m, N0*m).

    Block (z j), (y l) of the gradient part is
        sum_T |T| c_T [ a(t) (g_z . g_y) delta_jl + b(t) P_zj P_yl ]
    with P_zj = (grad U column j) . g_z and b = (F'' - a) / t^2; the b term
    vanishes with the gradient, so zero-gradient elements only keep the a
    part.  The lumped term adds one m x m block per interior node.  Linear
    source terms do not contribute.  The blocks are summed through the
    mesh's cached scatter (``Mesh.assemble``).
    """
    mesh = field.mesh
    m = field.m
    c = model.element_coeff(mesh.num_elements)

    G, t = _gradient_norms(field)                        # (E, n, m), (E,)
    te, a_eff = _clamped_a(model, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        b_raw = (model.F_tt(te) - a_eff) / te ** 2
    b_eff = np.where(te > 0.0, b_raw, 0.0)

    coef = mesh.volumes * c
    Pf = np.matmul(mesh.gradients, G).reshape(len(G), -1)   # (E, (n+1) m)
    # the scale multiplies the exactly commuting outer product, so each
    # block, and with it H, is bitwise symmetric
    loc = (coef * b_eff)[:, None, None] * (Pf[:, :, None] * Pf[:, None, :])
    loc = loc.reshape(len(G), mesh.dim + 1, m, mesh.dim + 1, m)
    ca = (coef * a_eff)[:, None, None]
    for j in range(m):
        loc[:, :, j, :, j] += ca * mesh.gradient_grams

    nodal = None
    if lumped is not None:
        q = lumped.q
        w = lumped.weights[mesh.interior_nodes]
        v = field.values[mesh.interior_nodes]            # (N0, m)
        vn = np.linalg.norm(v, axis=1)
        pos = vn > 0.0
        f1 = np.where(pos, vn ** (q - 2.0), 1.0 if q == 2.0 else 0.0)
        f2 = np.zeros_like(vn)
        f2[pos] = (q - 2.0) * vn[pos] ** (q - 4.0)
        nodal = ((w * f1)[:, None, None] * np.eye(m)
                 + (w * f2)[:, None, None] * (v[:, :, None] * v[:, None, :]))

    return mesh.assemble(loc, nodal)


def _backtrack(model, mesh, base_values, interior, dmat, E0, slope,
               source, lumped):
    if not np.isfinite(slope) or slope >= 0.0:
        raise LineSearchError(f"non-descent direction (slope {slope:.3e})")
    s = 1.0
    evals = 0
    while s >= _MIN_STEP:
        trial = base_values.copy()
        trial[interior] += s * dmat
        Et = _energy_of(model, mesh, trial, source, lumped)
        evals += 1
        if np.isfinite(Et) and Et <= E0 + _ARMIJO_C1 * s * slope:
            return s, Et, evals
        s *= _SHRINK
    raise LineSearchError(f"no acceptable step above {_MIN_STEP:g}")


def _factor(H):
    """Sparse LU of H, or None unless H is numerically positive definite.

    SuperLU runs in symmetric mode (minimum degree ordering of H + H^T)
    with diagonal pivots only; the factors are then L D L^T in disguise, so
    H counts as positive definite exactly when the pivots stayed on the
    diagonal and every pivot (diagonal of U) is positive.  A non-positive
    diagonal is refused before SuperLU sees it.
    """
    if not (H.diagonal() > 0.0).all():
        return None
    try:
        lu = scipy.sparse.linalg.splu(H, permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError:
        return None
    if (lu.perm_r != lu.perm_c).any() or not (lu.U.diagonal() > 0.0).all():
        return None
    return lu


def _direction(model, field, lumped, r_flat):
    """Newton direction if the Hessian factorises, else scaled gradient."""
    H = assemble_hessian(model, field, lumped=lumped)
    diag = H.diagonal()
    scale = 1e-12 * max(1.0, float(diag.max(initial=0.0)))
    lu = _factor(H)
    if lu is None:
        lu = _factor(H + scale * scipy.sparse.identity(H.shape[0], format="csc"))
    if lu is not None:
        return lu.solve(-r_flat), "newton"
    return -r_flat / np.maximum(diag, scale), "gradient"


def _harmonic_start(model, start, source):
    """Interior values of the p = 2 minimiser with the model's coefficients.

    One Newton step of the quadratic energy from the interpolant, solved
    against its residual (source included; a lumped term would make the
    step nonlinear and is left out).  That Hessian is the c_T-weighted
    stiffness K times I_m, so one factorisation of the scalar K serves all
    m components.  None when ``_factor`` refuses K, which on a conforming
    mesh only rounding can cause.
    """
    mesh = start.mesh
    coef = mesh.volumes * model.element_coeff(mesh.num_elements)
    K = mesh.assemble((coef[:, None, None] * mesh.gradient_grams)[:, :, None, :, None])
    lu = _factor(K)
    if lu is None:
        return None
    r = residual(p_dirichlet(2.0, coeff=model.coeff), start, source=source)
    return start.values[mesh.interior_nodes] - lu.solve(r)


def minimize(model: EnergyModel, mesh: Mesh, boundary: BoundaryData, m: int = 1,
             source: SourceTerm | None = None,
             lumped: LumpedTerm | None = None,
             tol: float = 1e-10,
             max_iters: int = 10000):
    """Minimise the energy over interior values with fixed boundary values.

    Returns (field, report).  The initial iterate is the boundary
    interpolant (zero interior), or, where the profile has a(0) = 0, the
    harmonic extension of the boundary values (``report.start`` says
    which).  Stops once the residual sup-norm is at most tol and the last
    step changed the energy by less than 1e-15 relatively; the returned
    report never claims convergence with a residual above tol.
    """
    t0 = time.perf_counter()
    start = interpolate_boundary(mesh, boundary, m)
    vals = start.values.copy()
    interior = mesh.interior_nodes
    boundary_vals = vals[mesh.boundary_nodes].copy()
    start_kind = "interpolant"
    if len(interior) and _clamped_a(model, np.zeros(1))[1][0] == 0.0:
        harmonic = _harmonic_start(model, start, source)
        if harmonic is not None:
            vals[interior] = harmonic
            start_kind = "harmonic"

    E = _energy_of(model, mesh, vals, source, lumped)
    if not np.isfinite(E):
        raise ValueError("energy is not finite at the initial iterate")
    report = SolveReport(converged=False, status="max-iterations", iterations=0,
                         energy=E, residual_norm=np.inf, tol=tol,
                         energy_history=[E], start=start_kind)
    rel_dec = None
    prev_rn = None
    stall = 0

    for it in range(max_iters + 1):
        fld = NodalField(mesh, vals)
        r = residual(model, fld, source=source, lumped=lumped)
        rn = float(np.abs(r).max()) if r.size else 0.0
        report.iterations = it
        report.residual_norm = rn
        report.energy = E

        if rn <= tol and (rel_dec is None or rel_dec < _STAGNATION_REL):
            report.converged = True
            report.status = "converged"
            break
        if rel_dec is not None and rel_dec < _STAGNATION_REL:
            # the energy no longer changes at floating point resolution; keep
            # stepping only while the residual still improves clearly, else
            # further iterations cannot make progress
            if prev_rn is not None and rn < 0.5 * prev_rn:
                stall = 0
            else:
                stall += 1
            if stall >= 2:
                report.converged = False
                report.status = "stagnated"
                break
        else:
            stall = 0
        if it == max_iters:
            report.converged = rn <= tol
            report.status = "max-iterations"
            break
        prev_rn = rn

        r_flat = r.reshape(-1)
        d_flat, kind = _direction(model, fld, lumped, r_flat)
        slope = float(r_flat @ d_flat)
        dmat = d_flat.reshape(len(interior), m)

        # once the predicted energy drop falls below the float resolution of
        # the energy itself, the Armijo comparison is decided by rounding
        # noise; in that regime accept the full Newton step when it strictly
        # reduces the residual sup-norm instead
        armijo_resolvable = abs(_ARMIJO_C1 * slope) >= 8.0 * _EPS * (1.0 + abs(E))
        if not armijo_resolvable and kind == "newton":
            trial = vals.copy()
            trial[interior] += dmat
            r_t = residual(model, NodalField(mesh, trial),
                           source=source, lumped=lumped)
            rn_t = float(np.abs(r_t).max()) if r_t.size else 0.0
            E_t = _energy_of(model, mesh, trial, source, lumped)
            if np.isfinite(rn_t) and np.isfinite(E_t) and rn_t < rn:
                vals = trial
                report.newton_steps += 1
                rel_dec = _relative_decrease(E, E_t)
                E = E_t
                report.energy_history.append(E)
                prev_rn = rn
                continue
            report.converged = rn <= tol
            report.status = "converged" if report.converged else "stagnated"
            break

        try:
            s, E_new, evals = _backtrack(model, mesh, vals, interior, dmat, E,
                                         slope, source, lumped)
        except LineSearchError as exc:
            report.converged = rn <= tol
            report.status = "stagnated" if report.converged else f"line-search-failure: {exc}"
            break

        vals[interior] += s * dmat
        if kind == "newton":
            report.newton_steps += 1
        else:
            report.gradient_steps += 1
        report.backtracks += evals - 1
        if not (s >= report.min_step):
            report.min_step = s
        rel_dec = _relative_decrease(E, E_new)
        E = E_new
        report.energy_history.append(E)

    report.wall_time = time.perf_counter() - t0
    vals[mesh.boundary_nodes] = boundary_vals
    return NodalField(mesh, vals), report


def solve_quadratic_oracle(mesh: Mesh, boundary: BoundaryData,
                           source: SourceTerm | None = None,
                           m: int = 1) -> NodalField:
    """Reference solution for the quadratic profile (p = 2, unit coefficient).

    Assembles the P1 stiffness matrix and solves the interior system per
    component with conjugate gradients at relative tolerance 1e-13.  Kept
    free of the Newton machinery so it can serve as an independent check.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import cg

    if source is not None:
        source.check(mesh)
        if m != 1:
            raise ValueError("source terms are only defined for scalar fields (m=1)")

    n = mesh.dim
    V = mesh.num_vertices
    S = mesh.gradient_grams * mesh.volumes[:, None, None]     # (E, n+1, n+1)
    rows = np.repeat(mesh.elements, n + 1, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, n + 1)).ravel()
    A = sp.coo_matrix((S.ravel(), (rows, cols)), shape=(V, V)).tocsr()

    asym = abs(A - A.T).max()
    if asym > 1e-12 * abs(A).max():
        raise RuntimeError(f"stiffness assembly is not symmetric (defect {asym:.3e})")

    start = interpolate_boundary(mesh, boundary, m)
    values = start.values.copy()
    interior = mesh.interior_nodes
    if len(interior) == 0:
        return start

    load = np.zeros((V, m))
    if source is not None:
        contrib = source.values * mesh.volumes / (n + 1)
        np.add.at(load[:, 0], mesh.elements.ravel(), np.repeat(contrib, n + 1))

    A_ii = A[interior][:, interior]
    A_ib = A[interior][:, mesh.boundary_nodes]
    if not (A_ii.diagonal() > 0).all():
        raise RuntimeError("interior stiffness has a non-positive diagonal entry")

    gb = values[mesh.boundary_nodes]
    for j in range(m):
        rhs = load[interior, j] - A_ib @ gb[:, j]
        x, info = cg(A_ii, rhs, rtol=1e-13, atol=0.0, maxiter=100000)
        if info != 0:
            raise RuntimeError(f"conjugate gradients failed (info {info})")
        values[interior, j] = x

    return NodalField(mesh, values)

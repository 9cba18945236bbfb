"""Minimisation of convex gradient energies over interior vertex values.

The solver runs inexact Newton steps, truncated conjugate gradients on the
sparse interior Hessian (``_pcg``), with an Armijo backtracking line search.
Boundary rows of the iterate are never touched, so prescribed boundary
values survive bit for bit.

The iteration starts from the boundary interpolant (zero interior), except
where the profile has a0 = a(0) = F''(0) = 0 (p-Dirichlet with p > 2):
there the Hessian vanishes wherever the gradient does, so the zero interior
would make every step singular until the zero region is gone.  Those start
from the harmonic extension instead, the minimiser of the p = 2 energy with
the same element coefficients and source, found by one linear solve.

The Hessian takes its weights a and b from ``energy._newton_weights``, which
clamps t from below where a0 is infinite (p-Dirichlet with p < 2).  The
energy and the residual are always evaluated unclamped, so the minimiser
itself is not altered; the clamp only tempers the Newton model in flat
regions.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse.linalg

from .mesh import Mesh, _check_tol, _csr_diagonal, _csr_matvec
from .field import NodalField, BoundaryData, interpolate_boundary
from .energy import (EnergyModel, SourceTerm, LumpedTerm, energy_value, residual,
                     p_dirichlet, _newton_weights)

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
_ETA_MIN, _ETA_MAX = 1e-12, 0.5      # bounds of the Eisenstat-Walker forcing terms
_GOLDEN = 0.5 * (1.0 + 5.0 ** 0.5)   # and their safeguard exponent


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
    cg_iterations: int = 0
    min_step: float = float("nan")
    wall_time: float = 0.0
    start: str = "interpolant"
    energy_history: list = dataclass_field(default_factory=list)

    def to_text(self) -> str:
        return "\n".join([
            f"converged = {self.converged}",
            f"status = {self.status}",
            f"iterations = {self.iterations}",
            f"energy = {self.energy:.17g}",
            f"residual_norm = {self.residual_norm:.3e}",
            f"tol = {self.tol:.3e}",
            f"newton_steps = {self.newton_steps}",
            f"gradient_steps = {self.gradient_steps}",
            f"backtracks = {self.backtracks}",
            f"cg_iterations = {self.cg_iterations}",
            f"min_step = {self.min_step:.3e}",
            f"wall_time = {self.wall_time:.3f}s",
            f"start = {self.start}",
        ])


def _energy_of(model, field, source, lumped) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return energy_value(model, field, source=source, lumped=lumped)


def assemble_hessian(model: EnergyModel, field: NodalField,
                     lumped: LumpedTerm | None = None) -> scipy.sparse.csc_matrix:
    """Sparse energy Hessian w.r.t. interior values, shape (N0*m, N0*m).

    Block (z j), (y l) of the gradient part is
        sum_T |T| c_T [ a(t) (g_z . g_y) delta_jl + b(t) P_zj P_yl ]
    with P_zj = (grad U column j) . g_z and b = (F'' - a) / t^2; the b term
    vanishes with the gradient, so zero-gradient elements only keep the a
    part.  The lumped term adds one m x m block per interior node.  Linear
    source terms do not contribute.  Only the pairs j <= l are computed,
    element-last so that every product runs over the elements; H is
    symmetric, so ``Mesh.assemble`` mirrors block (j, l) into (l, j) on the
    mesh's one scalar pattern.
    """
    mesh = field.mesh
    m = field.m
    coef = model.element_weights(mesh)
    a_eff, b_eff = _newton_weights(model, field._norms[1])
    sb = coef * b_eff
    ca = np.multiply(mesh.gradient_grams.transpose(1, 2, 0), coef * a_eff, order="C")
    # element-last forces (m, n+1, E), so every product below runs over the
    # elements innermost; sb scales the exactly commuting product
    # P_ij P_kl, so block (l, j) is the transpose of block (j, l) bit for bit
    P = field._forces.transpose(2, 1, 0).copy()
    pairs = []
    for j, l in itertools.combinations_with_replacement(range(m), 2):
        block = P[j][:, None] * P[l]
        block *= sb
        if j == l:
            block += ca
        pairs.append(block)

    nodal = None
    if lumped is not None:
        q = lumped.q
        w = lumped.weights[mesh.interior_nodes]
        v = field.values[mesh.interior_nodes]            # (N0, m)
        vn = np.linalg.norm(v, axis=1)
        pos = vn > 0.0
        f2 = np.where(pos, (q - 2.0) * np.where(pos, vn, 1.0) ** (q - 4.0), 0.0)
        nodal = ((w * vn ** (q - 2.0))[:, None, None] * np.eye(m)
                 + (w * f2)[:, None, None] * (v[:, :, None] * v[:, None, :]))

    return mesh.assemble(pairs, nodal)


def _trial(base: NodalField, s: float, dmat) -> NodalField:
    """The field base + s * dmat on the interior rows, boundary rows kept."""
    values = base.values.copy()
    values[base.mesh.interior_nodes] += s * dmat
    return base.with_values(values)


def _backtrack(model, base: NodalField, dmat, E0, slope, source, lumped):
    """Armijo backtracking from ``base`` along the interior step ``dmat``.

    Returns (s, trial, E, evals): the accepted step length, the field it
    reaches, which the next iterate reuses, its energy and the number of
    energy evaluations.  With ``slope`` None the full step is taken after
    one evaluation, whatever its energy; the caller judges it."""
    if slope is not None and (not np.isfinite(slope) or slope >= 0.0):
        raise LineSearchError(f"non-descent direction (slope {slope:.3e})")
    s = 1.0
    evals = 0
    while s >= _MIN_STEP:
        trial = _trial(base, s, dmat)
        Et = _energy_of(model, trial, source, lumped)
        evals += 1
        if slope is None or (np.isfinite(Et) and Et <= E0 + _ARMIJO_C1 * s * slope):
            return s, trial, Et, evals
        s *= _SHRINK
    raise LineSearchError(f"no acceptable step above {_MIN_STEP:g}")


def _norm(x) -> float:
    """The 2-norm of a 1-D vector, as ``np.linalg.norm`` computes it, without
    its dispatch."""
    return math.sqrt(x.dot(x))


def _pcg(H, g, eta):
    """Steihaug's truncated CG for H d = -g, Jacobi-preconditioned, to
    |g + H d| <= eta |g| or 10 iterations per unknown.  Non-positive curvature
    ends it with the last iterate, or, on the first step, with the
    preconditioned residual (kind "gradient").  Returns (d, kind, its, H d).

    Each product is one ``_csr_matvec`` call on H's own CSC arrays, read as
    the CSR arrays of H^T = H, and the Jacobi diagonal one ``_csr_diagonal``
    call; no scipy matrix is built or dispatched.  Every product lands in
    one buffer, and the inner products are ``ndarray.dot``: on systems of a
    few hundred unknowns, numpy's per-call cost is most of an iteration."""
    # stored zeros (the p = 2 component couplings) only slow the products:
    # drop them where there are any.  A column now starts at the count of
    # kept entries before its old start, in the indices' dtype, since the
    # kernel converts mixed index types on every call
    indptr, indices, data = H.indptr, H.indices, H.data
    keep = data != 0.0
    if not keep.all():
        kept = np.flatnonzero(keep)
        indptr = np.searchsorted(kept, indptr).astype(indices.dtype)
        indices, data = indices[kept], data[kept]
    diag = _csr_diagonal(indptr, indices, data)
    top = float(diag.max(initial=0.0)) or 1.0
    w = 1.0 / np.where(diag > 1e-12 * top, diag, top)    # zero rows stay bounded
    d, res, k = np.zeros_like(g), -g, 0
    z = w * res
    Hp = np.empty_like(g)
    p, rz, stop = z.copy(), float(res.dot(z)), (eta * _norm(g)) ** 2
    while res.dot(res) > stop and k < 10 * len(g):
        _csr_matvec(indptr, indices, data, p, out=Hp)
        curv = float(p.dot(Hp))
        k += 1
        if not curv > 0.0:
            if k == 1:
                return p, "gradient", k, Hp
            break
        alpha = rz / curv
        d += alpha * p
        res -= alpha * Hp
        np.multiply(w, res, out=z)
        rz, rz_old = float(res.dot(z)), rz
        p *= rz / rz_old
        p += z
    return d, "newton", k, -(g + res)


def _harmonic_start(model, start, source):
    """The p = 2 minimiser with the model's coefficients and start's boundary.

    One Newton step of the quadratic energy from the interpolant, solved
    against its residual (source included; a lumped term would make the
    step nonlinear and is left out).  That Hessian is the c_T-weighted
    stiffness K times I_m, positive definite on a conforming mesh, so one
    sparse LU of the scalar K serves all m components exactly.
    """
    mesh = start.mesh
    K = mesh._stiffness(model.element_weights(mesh))
    lu = scipy.sparse.linalg.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True})
    r = residual(p_dirichlet(2.0, coeff=model.coeff), start, source=source)
    return _trial(start, -1.0, lu.solve(r))


def minimize(model: EnergyModel, mesh: Mesh, boundary: BoundaryData, m: int = 1,
             source: SourceTerm | None = None,
             lumped: LumpedTerm | None = None,
             tol: float = 1e-10,
             max_iters: int = 10000):
    """Minimise the energy over interior values with fixed boundary values.

    Returns (field, report).  The initial iterate is the boundary
    interpolant (zero interior), or, where ``model.a0`` is 0, the
    harmonic extension of the boundary values (``report.start`` says
    which).  Stops once the residual sup-norm is at most tol and the last
    step changed the energy by less than 1e-15 relatively.  Whatever ends
    the iteration, ``report.converged`` holds, and the status is
    "converged", exactly when the final residual sup-norm is at most tol.
    A negative ``max_iters`` and a tol that is not a finite number >= 0
    raise ValueError.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    _check_tol("tol", tol)
    t0 = time.perf_counter()
    fld = interpolate_boundary(mesh, boundary, m)
    interior = mesh.interior_nodes
    start_kind = "interpolant"
    if len(interior) and model.a0 == 0.0:
        fld = _harmonic_start(model, fld, source)
        start_kind = "harmonic"

    # every field the iteration visits computes its element gradients once:
    # its energy, residual and Hessian all read them (``NodalField._norms``)
    E = _energy_of(model, fld, source, lumped)
    if not np.isfinite(E):
        raise ValueError("energy is not finite at the initial iterate")
    report = SolveReport(converged=False, status="max-iterations", iterations=0,
                         energy=E, residual_norm=np.inf, tol=tol,
                         energy_history=[E], start=start_kind)
    rel_dec = None
    prev_rn = None
    stall = 0
    # b = 0 on every element and no lumped term: the Hessian does not depend
    # on the iterate (the quadratic energies), so the linear model is exact
    # and the first step is solved tightly; a wrong guess (a zero gradient
    # everywhere) only tightens that one solve
    exact = lumped is None and not _newton_weights(model, fld._norms[1])[1].any()
    eta = _ETA_MIN if exact else _ETA_MAX
    model_norm = None       # |g + s H d| of the last step's linear model

    r = residual(model, fld, source=source, lumped=lumped)
    rn = float(np.abs(r).max()) if r.size else 0.0
    for it in range(max_iters + 1):
        report.iterations = it
        report.residual_norm = rn
        report.energy = E

        flat = rel_dec is not None and rel_dec < _STAGNATION_REL
        if rn <= tol and (rel_dec is None or flat):
            break
        # once the energy no longer changes at floating point resolution, keep
        # stepping only while the residual still improves clearly, else
        # further iterations cannot make progress
        stall = stall + 1 if flat and not rn < 0.5 * prev_rn else 0
        if stall >= 2:
            report.status = "stagnated"
            break
        if it == max_iters:
            break
        prev_rn = rn

        r_flat = r.reshape(-1)
        g_norm = _norm(r_flat)
        if model_norm is not None:
            # Eisenstat-Walker choice 1, safeguarded against a sudden drop
            guard = eta ** _GOLDEN if eta ** _GOLDEN > 0.1 else 0.0
            eta = min(max(abs(g_norm - model_norm) / prev_norm, guard, _ETA_MIN), _ETA_MAX)
        d_flat, kind, its, Hd = _pcg(assemble_hessian(model, fld, lumped=lumped), r_flat, eta)
        report.cg_iterations += its
        slope = float(r_flat.dot(d_flat))
        dmat = d_flat.reshape(len(interior), m)

        # once the predicted energy drop falls below the float resolution of
        # the energy itself, the Armijo comparison is decided by rounding
        # noise; in that regime take the full Newton step, and keep it only
        # when it strictly reduces the residual sup-norm
        rounding = kind == "newton" and abs(_ARMIJO_C1 * slope) < 8.0 * _EPS * (1.0 + abs(E))
        try:
            s, trial, E_new, evals = _backtrack(model, fld, dmat, E, None if rounding else slope,
                                                source, lumped)
        except LineSearchError as exc:
            report.status = f"line-search-failure: {exc}"
            break
        r_new = residual(model, trial, source=source, lumped=lumped)
        rn_new = float(np.abs(r_new).max()) if r_new.size else 0.0
        if rounding and not (np.isfinite(rn_new) and np.isfinite(E_new) and rn_new < rn):
            report.status = "stagnated"
            break

        prev_norm, model_norm = g_norm, _norm(r_flat + s * Hd)
        fld, r, rn = trial, r_new, rn_new
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

    report.converged = rn <= tol
    if report.converged:
        report.status = "converged"
    report.wall_time = time.perf_counter() - t0
    return fld, report


def solve_quadratic_oracle(mesh: Mesh, boundary: BoundaryData,
                           source: SourceTerm | None = None,
                           m: int = 1) -> NodalField:
    """Reference solution for the quadratic profile (p = 2, unit coefficient).

    Assembles the P1 stiffness matrix and solves the interior system per
    component with conjugate gradients at relative tolerance 1e-13.  Kept
    free of the Newton machinery so it can serve as an independent check.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator, cg

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

    A_i = A[interior]
    A_ii = A_i[:, interior]
    A_ib = A_i[:, mesh.boundary_nodes]
    if not (A_ii.diagonal() > 0).all():
        raise RuntimeError("interior stiffness has a non-positive diagonal entry")
    # the kernel that ``A_ii @ x`` runs, without scipy's operator and
    # sparse dispatch layers around each product
    op = LinearOperator(A_ii.shape, dtype=A_ii.dtype,
                        matvec=functools.partial(_csr_matvec, A_ii.indptr, A_ii.indices,
                                                 A_ii.data))

    gb = values[mesh.boundary_nodes]
    for j in range(m):
        rhs = load[interior, j] - A_ib @ gb[:, j]
        x, info = cg(op, rhs, rtol=1e-13, atol=0.0, maxiter=100000)
        if info != 0:
            raise RuntimeError(f"conjugate gradients failed (info {info})")
        values[interior, j] = x

    return NodalField(mesh, values)

"""Convex gradient energies over P1 fields.

The energies have the form  sum_T |T| c_T F(|grad U|_T)  for a scalar profile
F that is convex and nondecreasing in t = |grad U| (Frobenius norm for vector
valued fields).  Optional additions: a linear per-element source term (scalar
fields only) and a lumped zero-order term  sum_z w_z |U(z)|^q / q  with the
vertex weights w_z = |supp(hat_z)| / (n+1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .mesh import Mesh
from .field import NodalField

__all__ = [
    "EnergyModel",
    "p_dirichlet",
    "mean_curvature",
    "orlicz",
    "parse_energy",
    "CATALOG",
    "SourceTerm",
    "LumpedTerm",
    "lumped_weights",
    "energy_value",
    "residual",
]


def _stable_log_cosh(t):
    # log(cosh t) = |t| + log1p(exp(-2|t|)) - log 2, safe for large |t|
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


@dataclass(frozen=True)
class EnergyModel:
    """Scalar energy profile F plus derivative data used by solvers.

    a(t) = F'(t)/t is the nonlinearity weight in the first variation; it is
    nonnegative for monotone F.  Profiles need F'(0) = 0, so a(0) is the
    limit F''(0), read from ``a0``; ``a`` itself is evaluated only at t > 0.
    ``coeff`` holds optional positive per-element multipliers c_T.
    """

    name: str
    F: callable
    F_tt: callable
    a: callable
    monotone: bool = True
    strictly_convex: bool = True
    coeff: np.ndarray | None = None

    @cached_property
    def a0(self) -> float:
        """a(0) = F''(0): 0 for p > 2, 1 for p = 2, +inf for p < 2.  Evaluated
        once per model."""
        with np.errstate(divide="ignore"):
            return float(self.F_tt(np.float64(0.0)))

    def with_coeff(self, coeff) -> "EnergyModel":
        coeff = np.asarray(coeff, dtype=float)
        if coeff.ndim != 1:
            raise ValueError("coefficient table must be one dimensional")
        if not (coeff > 0).all():
            raise ValueError("element coefficients must be positive")
        return replace(self, coeff=coeff)

    def element_weights(self, mesh: Mesh) -> np.ndarray:
        """|T| c_T per element: the mesh's read-only ``volumes`` itself when
        the model has no coefficients, so no array is made per call."""
        if self.coeff is None:
            return mesh.volumes
        if len(self.coeff) != mesh.num_elements:
            raise ValueError(
                f"coefficient table has {len(self.coeff)} entries, "
                f"mesh has {mesh.num_elements} elements"
            )
        return mesh.volumes * self.coeff


def p_dirichlet(p: float, coeff=None) -> EnergyModel:
    """F(t) = t^p / p for 1 < p < infinity."""
    p = float(p)
    if not 1.0 < p < np.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")

    def F(t):
        return np.power(t, p) / p

    def F_tt(t):
        return (p - 1.0) * np.power(t, p - 2.0)

    def a(t):
        return np.power(t, p - 2.0)

    model = EnergyModel(name=f"p-laplace:p={p:g}", F=F, F_tt=F_tt, a=a)
    return model.with_coeff(coeff) if coeff is not None else model


def mean_curvature(coeff=None) -> EnergyModel:
    """F(t) = sqrt(1 + t^2), the area integrand of a graph."""

    def F(t):
        return np.sqrt(1.0 + np.asarray(t, dtype=float) ** 2)

    def F_tt(t):
        return np.power(1.0 + t ** 2, -1.5)

    def a(t):
        return 1.0 / np.sqrt(1.0 + t ** 2)

    model = EnergyModel(name="mean-curvature", F=F, F_tt=F_tt, a=a)
    return model.with_coeff(coeff) if coeff is not None else model


# name: (F, F'', a)
_ORLICZ = {
    "log-cosh": (_stable_log_cosh, lambda t: 1.0 - np.tanh(t) ** 2,
                 lambda t: np.tanh(t) / t),
    "power-log": (lambda t: (1.0 + t) * np.log1p(t) - t, lambda t: 1.0 / (1.0 + t),
                  lambda t: np.log1p(t) / t),
}


def orlicz(psi: str, coeff=None) -> EnergyModel:
    """Named smooth convex profiles: log-cosh and power-log.

    log-cosh: F(t) = log(cosh t).  power-log: F(t) = (1+t) log(1+t) - t.
    Both have a(0) = 1 and linear growth classes gentler than quadratic.
    """
    if psi not in _ORLICZ:
        raise ValueError(f"unknown orlicz profile {psi!r}; choices: {', '.join(sorted(_ORLICZ))}")
    F, F_tt, a = _ORLICZ[psi]
    model = EnergyModel(name=f"orlicz:{psi}", F=F, F_tt=F_tt, a=a)
    return model.with_coeff(coeff) if coeff is not None else model


CATALOG = ("p-laplace", "mean-curvature", "orlicz")


def parse_energy(text: str, coeff=None) -> EnergyModel:
    """Parse an energy spec string.

    Examples: ``p-laplace:p=3``, ``mean-curvature``, ``orlicz:log-cosh``.
    """
    head, _, rest = text.strip().partition(":")
    if head == "p-laplace":
        if not rest.startswith("p="):
            raise ValueError(f"p-laplace needs a parameter like p=2, got {text!r}")
        try:
            p = float(rest[2:])
        except ValueError:
            raise ValueError(f"bad exponent in {text!r}") from None
        return p_dirichlet(p, coeff=coeff)
    if head == "mean-curvature":
        if rest:
            raise ValueError(f"mean-curvature takes no parameters, got {text!r}")
        return mean_curvature(coeff=coeff)
    if head == "orlicz":
        return orlicz(rest, coeff=coeff)
    raise ValueError(f"unknown energy {text!r}; choices: {', '.join(CATALOG)}")


@dataclass(frozen=True)
class SourceTerm:
    """Piecewise constant source f_T; contributes -sum_T |T| f_T mean_T(U)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ValueError("source values must be one dimensional (one per element)")
        if not np.isfinite(self.values).all():
            raise ValueError("source values must be finite")

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "SourceTerm":
        return cls(np.full(mesh.num_elements, float(value)))

    @property
    def nonpositive(self) -> bool:
        return bool((self.values <= 0.0).all())

    def check(self, mesh: Mesh):
        if len(self.values) != mesh.num_elements:
            raise ValueError(
                f"source has {len(self.values)} entries, mesh has {mesh.num_elements} elements"
            )


def lumped_weights(mesh: Mesh) -> np.ndarray:
    """Vertex weights w_z = |supp(hat_z)| / (n+1); they sum to the domain volume."""
    return np.bincount(mesh.elements.ravel(),
                       weights=np.repeat(mesh.volumes, mesh.dim + 1) / (mesh.dim + 1),
                       minlength=mesh.num_vertices)


@dataclass(frozen=True)
class LumpedTerm:
    """Zero order term sum_z w_z |U(z)|^q / q with 2 <= q < infinity."""

    q: float
    weights: np.ndarray

    def __post_init__(self):
        if not 2.0 <= self.q < np.inf:
            raise ValueError(f"lumped exponent must satisfy 2 <= q < inf, got {self.q}")

    @classmethod
    def from_mesh(cls, mesh: Mesh, q: float) -> "LumpedTerm":
        return cls(q=float(q), weights=lumped_weights(mesh))


def _check_terms(field: NodalField, source: SourceTerm | None,
                 lumped: LumpedTerm | None) -> None:
    """Raise ValueError unless the optional terms fit the field's mesh and m."""
    mesh = field.mesh
    if source is not None:
        source.check(mesh)
        if field.m != 1:
            raise ValueError("source terms are only defined for scalar fields (m=1)")
    if lumped is not None and len(lumped.weights) != mesh.num_vertices:
        raise ValueError("lumped weights do not match the mesh")


def energy_value(model: EnergyModel, field: NodalField,
                 source: SourceTerm | None = None,
                 lumped: LumpedTerm | None = None) -> float:
    """Total energy of the field under the model (+ optional source / lumped)."""
    mesh = field.mesh
    w = model.element_weights(mesh)
    _check_terms(field, source, lumped)
    _, t = field._norms
    total = float(np.sum(w * model.F(t)))

    if source is not None:
        means = field.values[mesh.elements, 0].mean(axis=1)
        total -= float(np.sum(source.values * mesh.volumes * means))

    if lumped is not None:
        vnorm = np.linalg.norm(field.values, axis=1)
        total += float(np.sum(lumped.weights * vnorm ** lumped.q)) / lumped.q

    return total


def _safe_a(model: EnergyModel, t: np.ndarray) -> np.ndarray:
    """a(t), and 0 on zero-gradient elements.

    Where t = 0 the gradient factor multiplying a(t) vanishes, so the value
    is immaterial; a sees the stand-in t = 1 there, which ``np.where``
    selects away, and the residual needs a unclamped where t > 0.
    """
    pos = t > 0.0
    return np.where(pos, model.a(np.where(pos, t, 1.0)), 0.0)


# relative floor on t where a0 is infinite (p < 2), for the Newton model
# and the strong-CHP neighbour weights alike
_A_CLAMP_REL = 1e-8


def _newton_weights(model: EnergyModel, t: np.ndarray):
    """(a, b): the Newton model's weights a(t) and b(t) = (F''(t) - a(t)) / t^2.

    The one a(t) policy for models built on a: where a0 is infinite, t is
    clamped from below to 1e-8 * (1 + max t); otherwise zero-gradient
    elements take a = a0 and b = 0, with a and F'' evaluated at the
    stand-in t = 1 there and selected away.  The energy and the residual
    stay unclamped.
    """
    a0 = model.a0
    if np.isinf(a0):
        t = np.maximum(t, _A_CLAMP_REL * (1.0 + float(t.max(initial=0.0))))
    pos = t > 0.0
    s = np.where(pos, t, 1.0)
    a = np.where(pos, model.a(s), a0)
    b = np.where(pos, (model.F_tt(s) - a) / s ** 2, 0.0)
    return a, b


def residual(model: EnergyModel, field: NodalField,
             source: SourceTerm | None = None,
             lumped: LumpedTerm | None = None) -> np.ndarray:
    """Gradient of the energy w.r.t. interior vertex values, shape (N0, m).

    Rows follow mesh.interior_nodes in ascending order.  Elements with zero
    field gradient contribute zero (their integrand is identically zero).
    """
    mesh = field.mesh
    w = model.element_weights(mesh)
    _check_terms(field, source, lumped)
    _, t = field._norms

    # per-element nodal forces: vol * c * a * (G^T grad_hat_i)
    forces = ((w * _safe_a(model, t))[:, None, None] * field._forces).ravel()
    keys = mesh._scatter_keys(field.m)

    if source is not None:
        contrib = source.values * mesh.volumes / (mesh.dim + 1)
        keys = np.concatenate([keys, mesh.elements.ravel()])
        forces = np.concatenate([forces, np.repeat(-contrib, mesh.dim + 1)])

    # bincount adds in input order: element forces by element, then the source
    r_full = np.bincount(keys, weights=forces,
                         minlength=mesh.num_vertices * field.m).reshape(-1, field.m)

    if lumped is not None:
        vnorm = np.linalg.norm(field.values, axis=1)
        r_full += (lumped.weights * vnorm ** (lumped.q - 2.0))[:, None] * field.values

    return r_full.take(mesh.interior_nodes, axis=0)

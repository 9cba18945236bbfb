"""Convex gradient energies over P1 fields.

The energies have the form  sum_T |T| c_T F(|grad U|_T)  for a scalar profile
F that is convex and nondecreasing in t = |grad U| (Frobenius norm for vector
valued fields).  Optional additions: a linear per-element source term (scalar
fields only) and a lumped zero-order term  sum_z w_z |U(z)|^q / q  with the
vertex weights w_z = |supp(hat_z)| / (n+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

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
    "convexity_probe",
    "ConvexityReport",
]


def _stable_log_cosh(t):
    # log(cosh t) = |t| + log1p(exp(-2|t|)) - log 2, safe for large |t|
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


@dataclass(frozen=True)
class EnergyModel:
    """Scalar energy profile F plus derivative data used by solvers.

    a(t) = F'(t)/t is the nonlinearity weight in the first variation; it is
    nonnegative for monotone F.  ``coeff`` holds optional positive per-element
    multipliers c_T.
    """

    name: str
    F: callable
    F_t: callable
    F_tt: callable
    a: callable
    monotone: bool = True
    strictly_convex: bool = True
    a_unbounded_at_zero: bool = False
    coeff: np.ndarray | None = None
    params: dict = dataclass_field(default_factory=dict)

    def with_coeff(self, coeff) -> "EnergyModel":
        coeff = np.asarray(coeff, dtype=float)
        if coeff.ndim != 1:
            raise ValueError("coefficient table must be one dimensional")
        if not (coeff > 0).all():
            raise ValueError("element coefficients must be positive")
        return EnergyModel(
            name=self.name, F=self.F, F_t=self.F_t, F_tt=self.F_tt, a=self.a,
            monotone=self.monotone, strictly_convex=self.strictly_convex,
            a_unbounded_at_zero=self.a_unbounded_at_zero, coeff=coeff,
            params=dict(self.params),
        )

    def element_coeff(self, num_elements: int) -> np.ndarray:
        if self.coeff is None:
            return np.ones(num_elements)
        if len(self.coeff) != num_elements:
            raise ValueError(
                f"coefficient table has {len(self.coeff)} entries, mesh has {num_elements} elements"
            )
        return self.coeff


def p_dirichlet(p: float, coeff=None) -> EnergyModel:
    """F(t) = t^p / p for 1 < p < infinity."""
    p = float(p)
    if not 1.0 < p < np.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")

    def F(t):
        return np.power(t, p) / p

    def F_t(t):
        return np.power(t, p - 1.0)

    def F_tt(t):
        return (p - 1.0) * np.power(t, p - 2.0)

    def a(t):
        return np.power(t, p - 2.0)

    model = EnergyModel(
        name=f"p-laplace:p={p:g}", F=F, F_t=F_t, F_tt=F_tt, a=a,
        a_unbounded_at_zero=p < 2.0, params={"p": p},
    )
    return model.with_coeff(coeff) if coeff is not None else model


def mean_curvature(coeff=None) -> EnergyModel:
    """F(t) = sqrt(1 + t^2), the area integrand of a graph."""

    def F(t):
        return np.sqrt(1.0 + np.asarray(t, dtype=float) ** 2)

    def F_t(t):
        return t / np.sqrt(1.0 + t ** 2)

    def F_tt(t):
        return np.power(1.0 + t ** 2, -1.5)

    def a(t):
        return 1.0 / np.sqrt(1.0 + t ** 2)

    model = EnergyModel(name="mean-curvature", F=F, F_t=F_t, F_tt=F_tt, a=a)
    return model.with_coeff(coeff) if coeff is not None else model


_ORLICZ = {}


def _register_orlicz(name, F, F_t, F_tt, a):
    _ORLICZ[name] = (F, F_t, F_tt, a)


_register_orlicz(
    "log-cosh",
    _stable_log_cosh,
    np.tanh,
    lambda t: 1.0 - np.tanh(t) ** 2,
    lambda t: np.where(np.asarray(t, dtype=float) == 0.0, 1.0,
                       np.tanh(t) / np.where(np.asarray(t, dtype=float) == 0.0, 1.0, t)),
)

_register_orlicz(
    "power-log",
    lambda t: (1.0 + t) * np.log1p(t) - t,
    np.log1p,
    lambda t: 1.0 / (1.0 + t),
    lambda t: np.where(np.asarray(t, dtype=float) == 0.0, 1.0,
                       np.log1p(t) / np.where(np.asarray(t, dtype=float) == 0.0, 1.0, t)),
)


def orlicz(psi: str, coeff=None) -> EnergyModel:
    """Named smooth convex profiles: log-cosh and power-log.

    log-cosh: F(t) = log(cosh t).  power-log: F(t) = (1+t) log(1+t) - t.
    Both have a(0) = 1 and linear growth classes gentler than quadratic.
    """
    if psi not in _ORLICZ:
        raise ValueError(f"unknown orlicz profile {psi!r}; choices: {', '.join(sorted(_ORLICZ))}")
    F, F_t, F_tt, a = _ORLICZ[psi]
    model = EnergyModel(name=f"orlicz:{psi}", F=F, F_t=F_t, F_tt=F_tt, a=a,
                        params={"psi": psi})
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
    w = np.zeros(mesh.num_vertices)
    np.add.at(w, mesh.elements.ravel(),
              np.repeat(mesh.volumes, mesh.dim + 1) / (mesh.dim + 1))
    return w


@dataclass(frozen=True)
class LumpedTerm:
    """Zero order term sum_z w_z |U(z)|^q / q with q >= 2."""

    q: float
    weights: np.ndarray

    def __post_init__(self):
        if not self.q >= 2.0:
            raise ValueError(f"lumped exponent must satisfy q >= 2, got {self.q}")

    @classmethod
    def from_mesh(cls, mesh: Mesh, q: float) -> "LumpedTerm":
        return cls(q=float(q), weights=lumped_weights(mesh))


def _gradient_norms(field: NodalField):
    G = field.element_gradients()                     # (E, n, m)
    t = np.sqrt(np.einsum("enm,enm->e", G, G))
    return G, t


def energy_value(model: EnergyModel, field: NodalField,
                 source: SourceTerm | None = None,
                 lumped: LumpedTerm | None = None) -> float:
    """Total energy of the field under the model (+ optional source / lumped)."""
    mesh = field.mesh
    c = model.element_coeff(mesh.num_elements)
    _, t = _gradient_norms(field)
    total = float(np.sum(mesh.volumes * c * model.F(t)))

    if source is not None:
        source.check(mesh)
        if field.m != 1:
            raise ValueError("source terms are only defined for scalar fields (m=1)")
        means = field.values[mesh.elements, 0].mean(axis=1)
        total -= float(np.sum(source.values * mesh.volumes * means))

    if lumped is not None:
        if len(lumped.weights) != mesh.num_vertices:
            raise ValueError("lumped weights do not match the mesh")
        vnorm = np.linalg.norm(field.values, axis=1)
        total += float(np.sum(lumped.weights * vnorm ** lumped.q)) / lumped.q

    return total


def _safe_a(model: EnergyModel, t: np.ndarray) -> np.ndarray:
    """a(t) with zero-gradient elements masked to 0.

    Where t = 0 the gradient factor multiplying a(t) vanishes, so the value
    is immaterial; masking avoids inf * 0 for profiles with unbounded a.
    """
    pos = t > 0.0
    out = np.zeros_like(t)
    if pos.any():
        out[pos] = model.a(t[pos])
    return out


# relative floor on t where a(t) is unbounded at 0 (p < 2), for the Newton
# model and the strong-CHP neighbour weights alike
_A_CLAMP_REL = 1e-8


def _clamped_a(model: EnergyModel, t: np.ndarray):
    """(t_eff, a(t_eff)): a(t) with one clamp policy for models built on it.

    A profile whose a(t) blows up at 0 is evaluated at t clamped from below
    to 1e-8 * (1 + max t); any other takes a(0) on zero-gradient elements
    and t_eff = t.  The energy and the residual stay unclamped.
    """
    if model.a_unbounded_at_zero:
        te = np.maximum(t, _A_CLAMP_REL * (1.0 + float(t.max(initial=0.0))))
        return te, model.a(te)
    return t, np.where(t > 0.0, _safe_a(model, t), float(model.a(0.0)))


def residual(model: EnergyModel, field: NodalField,
             source: SourceTerm | None = None,
             lumped: LumpedTerm | None = None) -> np.ndarray:
    """Gradient of the energy w.r.t. interior vertex values, shape (N0, m).

    Rows follow mesh.interior_nodes in ascending order.  Elements with zero
    field gradient contribute zero (their integrand is identically zero).
    """
    mesh = field.mesh
    c = model.element_coeff(mesh.num_elements)
    G, t = _gradient_norms(field)
    av = _safe_a(model, t)

    # per-element nodal forces: vol * c * a * (G^T grad_hat_i)
    P = np.einsum("enm,ein->eim", G, mesh.gradients)  # (E, n+1, m)
    loc = (mesh.volumes * c * av)[:, None, None] * P

    r_full = np.zeros((mesh.num_vertices, field.m))
    np.add.at(r_full, mesh.elements.ravel(),
              loc.reshape(-1, field.m))

    if source is not None:
        source.check(mesh)
        if field.m != 1:
            raise ValueError("source terms are only defined for scalar fields (m=1)")
        contrib = source.values * mesh.volumes / (mesh.dim + 1)
        np.add.at(r_full[:, 0], mesh.elements.ravel(),
                  np.repeat(-contrib, mesh.dim + 1))

    if lumped is not None:
        if len(lumped.weights) != mesh.num_vertices:
            raise ValueError("lumped weights do not match the mesh")
        vnorm = np.linalg.norm(field.values, axis=1)
        fac = np.where(vnorm > 0.0, vnorm ** (lumped.q - 2.0), 0.0)
        r_full += (lumped.weights * fac)[:, None] * field.values

    return r_full[mesh.interior_nodes]


@dataclass(frozen=True)
class ConvexityReport:
    convex: bool
    monotone: bool
    worst_convexity_margin: float
    worst_monotonicity_margin: float
    worst_convexity_args: tuple
    worst_monotonicity_arg: float


def convexity_probe(F, grid=None, trials: int = 2000, seed: int = 0,
                    margin: float = 0.0) -> ConvexityReport:
    """Sampled convexity and monotonicity check of a scalar profile.

    Draws random midpoint combinations theta*s + (1-theta)*t from the grid
    and records the worst chord gap F(theta s + (1-theta) t) subtracted from
    theta F(s) + (1-theta) F(t); negative worst margin (below -``margin``)
    means a convexity violation was found.  Monotonicity is checked on
    consecutive grid points.
    """
    if grid is None:
        grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e2, 161)])
    grid = np.sort(np.asarray(grid, dtype=float))
    rng = np.random.default_rng(seed)

    Fg = np.asarray(F(grid), dtype=float)
    dm = np.diff(Fg)
    worst_mono = float(dm.min()) if len(dm) else 0.0
    mono_arg = float(grid[int(np.argmin(dm))]) if len(dm) else 0.0

    worst_conv = np.inf
    conv_args = (0.0, 0.0, 0.5)
    for _ in range(trials):
        i, j = rng.integers(0, len(grid), size=2)
        if i == j:
            continue
        s, t = grid[i], grid[j]
        theta = rng.uniform(0.01, 0.99)
        chord = theta * Fg[i] + (1 - theta) * Fg[j]
        gap = float(chord - F(theta * s + (1 - theta) * t))
        if gap < worst_conv:
            worst_conv = gap
            conv_args = (float(s), float(t), float(theta))
    if not np.isfinite(worst_conv):
        worst_conv = 0.0

    return ConvexityReport(
        convex=worst_conv >= -margin,
        monotone=worst_mono >= -margin,
        worst_convexity_margin=worst_conv,
        worst_monotonicity_margin=worst_mono,
        worst_convexity_args=conv_args,
        worst_monotonicity_arg=mono_arg,
    )

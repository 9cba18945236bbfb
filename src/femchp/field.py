"""Piecewise linear nodal fields over a mesh, with values in R^m.

A field stores one value row per mesh vertex.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .mesh import Mesh, _read_rows

__all__ = [
    "NodalField",
    "BoundaryData",
    "interpolate_boundary",
    "save_field",
    "load_field",
    "FieldFormatError",
]


class FieldFormatError(ValueError):
    """Raised when a nodal value file cannot be parsed."""


class NodalField:
    """Vertex values of shape (V, m) tied to a mesh.

    The field holds a read-only copy of the values, so that what is
    computed from them once (``_norms``) stays valid for its lifetime.
    """

    def __init__(self, mesh: Mesh, values):
        values = np.array(values, dtype=float, order="C")
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != mesh.num_vertices or values.shape[1] == 0:
            raise ValueError(
                f"values must have shape ({mesh.num_vertices}, m), m >= 1, got {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values contain non-finite entries")
        self.mesh = mesh
        values.flags.writeable = False
        self.values = values

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def with_values(self, values) -> "NodalField":
        return NodalField(self.mesh, values)

    def element_gradients(self) -> np.ndarray:
        """Gradients on all elements at once, shape (E, n, m)."""
        vals = self.values.take(self.mesh.elements, axis=0)      # (E, n+1, m)
        return np.matmul(self.mesh.gradients.transpose(0, 2, 1), vals)

    @cached_property
    def _norms(self):
        """(G, t): the element gradients (E, n, m) and their Frobenius norms
        (E,), computed on first use and read-only, so the energy, the
        residual and the Hessian at one field share one gradient pass."""
        G = self.element_gradients()
        t = np.sqrt(np.einsum("enm,enm->e", G, G))
        G.flags.writeable = t.flags.writeable = False
        return G, t

    @cached_property
    def _forces(self):
        """The element nodal forces (E, n+1, m): row i of an element is
        G^T grad phi_i.  Computed on first use and read-only, so the
        residual and the Hessian at one field share one product."""
        P = np.matmul(self.mesh.gradients, self._norms[0])
        P.flags.writeable = False
        return P


class BoundaryData:
    """Boundary value prescription.

    Closed-form kinds evaluate componentwise at boundary vertex coordinates;
    the random kind draws uniform values per boundary vertex in ascending
    index order from a seeded generator; the nodal kind reads values per
    vertex index from an array or file of at most one row per vertex.
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = params

    # -- factories -----------------------------------------------------------

    @classmethod
    def affine(cls, const, coeffs) -> "BoundaryData":
        """g(x) = const + coeffs @ x with const (m,) and coeffs (m, n)."""
        const = np.atleast_1d(np.asarray(const, dtype=float))
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if coeffs.shape[0] != const.shape[0]:
            raise ValueError("const and coeffs disagree on the number of components")
        return cls("affine", const=const, coeffs=coeffs)

    @classmethod
    def sin_product(cls) -> "BoundaryData":
        """Component j is prod_d sin(pi x_d + (j+1)/2)."""
        return cls("sin-product")

    @classmethod
    def abs_distance(cls, center=None) -> "BoundaryData":
        """Every component is |x - center|; center defaults to the bbox midpoint."""
        return cls("abs-distance", center=center)

    @classmethod
    def random_uniform(cls, seed: int, lo: float, hi: float) -> "BoundaryData":
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        return cls("random", seed=int(seed), lo=float(lo), hi=float(hi))

    @classmethod
    def from_values(cls, values) -> "BoundaryData":
        return cls("nodal", values=np.asarray(values, dtype=float))

    @classmethod
    def from_file(cls, path) -> "BoundaryData":
        values, _ = load_field(path)
        return cls("nodal", values=values)

    # -- evaluation ----------------------------------------------------------

    def boundary_values(self, mesh: Mesh, m: int) -> np.ndarray:
        """Values at mesh.boundary_nodes (ascending), shape (B, m)."""
        nodes = mesh.boundary_nodes
        pts = mesh.vertices[nodes]

        if self.kind == "affine":
            const, coeffs = self.params["const"], self.params["coeffs"]
            if const.shape[0] != m:
                raise ValueError(f"affine data has {const.shape[0]} components, need {m}")
            if coeffs.shape[1] != mesh.dim:
                raise ValueError(
                    f"affine coefficients expect dimension {coeffs.shape[1]}, mesh has {mesh.dim}"
                )
            return const[None, :] + pts @ coeffs.T

        if self.kind == "sin-product":
            phases = 0.5 * (np.arange(m) + 1.0)
            return np.prod(
                np.sin(np.pi * pts[:, :, None] + phases[None, None, :]), axis=1
            )

        if self.kind == "abs-distance":
            center = self.params["center"]
            if center is None:
                center = 0.5 * (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0))
            center = np.asarray(center, dtype=float)
            if center.shape != (mesh.dim,):
                raise ValueError(
                    f"abs-distance center has {center.size} coordinates, mesh has dimension {mesh.dim}"
                )
            d = np.linalg.norm(pts - center[None, :], axis=1)
            return np.repeat(d[:, None], m, axis=1)

        if self.kind == "random":
            rng = np.random.default_rng(self.params["seed"])
            return rng.uniform(self.params["lo"], self.params["hi"], size=(len(nodes), m))

        if self.kind == "nodal":
            values = self.params["values"]
            if values.ndim == 1:
                values = values[:, None]
            if values.shape[1] != m:
                raise ValueError(f"nodal data has {values.shape[1]} components, need {m}")
            if len(values) > mesh.num_vertices:
                raise ValueError(f"nodal data has {len(values)} rows, "
                                 f"mesh has {mesh.num_vertices} vertices")
            if len(values) < mesh.num_vertices and nodes.max() >= len(values):
                missing = nodes[nodes >= len(values)][0]
                raise ValueError(
                    f"nodal data covers {len(values)} vertices, boundary vertex {missing} missing"
                )
            return values[nodes]

        raise ValueError(f"unknown boundary data kind {self.kind!r}")


def interpolate_boundary(mesh: Mesh, data: BoundaryData, m: int) -> NodalField:
    """Field equal to the prescribed data on boundary vertices, zero inside."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    values = np.zeros((mesh.num_vertices, m))
    bvals = np.asarray(data.boundary_values(mesh, m), dtype=float)
    if bvals.shape != (len(mesh.boundary_nodes), m):
        raise ValueError(f"boundary data produced shape {bvals.shape}")
    if not np.isfinite(bvals).all():
        raise ValueError("boundary data produced non-finite values")
    values[mesh.boundary_nodes] = bvals
    return NodalField(mesh, values)


# -- nodal value files -------------------------------------------------------


def save_field(field: NodalField, path) -> None:
    """Write nodal values: header 'field m V' then one row per vertex."""
    values = field.values
    with open(path, "w") as fh:
        fh.write(f"field {values.shape[1]} {values.shape[0]}\n")
        for row in values:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_field(path, mesh: Mesh | None = None):
    """Read nodal values; returns (values, m).  Checks the count against mesh."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise FieldFormatError("empty field file")
    parts = lines[0].split()
    if len(parts) != 3 or parts[0] != "field":
        raise FieldFormatError(f"line 1: expected 'field <m> <V>', got {lines[0]!r}")
    try:
        m, nv = int(parts[1]), int(parts[2])
    except ValueError:
        raise FieldFormatError(f"line 1: bad counts in {lines[0]!r}") from None
    if m < 1 or nv < 0:
        raise FieldFormatError(f"line 1: invalid sizes m={m}, V={nv}")
    if len(lines) - 1 != nv:
        raise FieldFormatError(f"expected {nv} value lines, found {len(lines) - 1}")
    values = _read_rows(lines, 1, nv, m, float, "values", FieldFormatError)
    if mesh is not None and nv != mesh.num_vertices:
        raise FieldFormatError(
            f"field file has {nv} vertices, mesh has {mesh.num_vertices}"
        )
    return values, m

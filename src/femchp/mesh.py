"""Conforming simplicial meshes in 2D and 3D.

A mesh is a set of vertices plus triangles (tets in 3D) that cover a domain
without gaps, overlaps or hanging nodes.  Construction validates conformity
and precomputes the piecewise linear (P1) basis gradients per element, which
everything downstream (energies, solvers, angle classification) relies on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "AngleReport",
    "MeshFormatError",
    "MeshConformityError",
    "ACUTE",
    "NON_OBTUSE",
    "OBTUSE",
    "classify_mesh",
    "build_structured_mesh",
    "load_mesh",
    "save_mesh",
    "GENERATORS",
]

ACUTE = "acute"
NON_OBTUSE = "non-obtuse-not-acute"
OBTUSE = "obtuse"

# volume below 1e-14 * diam(T)^n counts as degenerate
_DEGENERACY_REL = 1e-14
# geometric tolerance for the hanging node scan, relative to mesh diameter
_HANGING_REL = 1e-12
# angle classification tolerance, relative to the largest pairwise
# gradient dot within the element
_ANGLE_REL = 1e-12


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed."""


class MeshConformityError(ValueError):
    """Raised when element connectivity is not a conforming triangulation."""


@dataclass(frozen=True)
class AngleReport:
    """Result of classifying every element of a mesh by its angles."""

    classifications: tuple
    worst_dot: float
    worst_element: int
    worst_pair: tuple
    is_non_obtuse: bool
    is_acute: bool
    every_element_touches_interior: bool
    max_opposite_angle_sum: float | None

    @property
    def mesh_class(self) -> str:
        if not self.is_non_obtuse:
            return OBTUSE
        if self.is_acute:
            return ACUTE
        return NON_OBTUSE


class Mesh:
    """Immutable conforming simplicial mesh.

    Parameters
    ----------
    dim : 2 or 3
    vertices : (V, dim) float array
    elements : (E, dim+1) int array of vertex indices

    Elements are reoriented to positive signed volume on construction.
    ``volumes`` (E,) holds the element volumes and ``gradients``
    (E, dim+1, dim) the constant P1 basis gradients: row i of an element
    is the gradient of the hat function of its local vertex i, and the
    rows sum to zero since the hats partition unity.
    Construction fails with MeshConformityError for degenerate elements,
    faces shared by more than two elements, or vertices that lie inside the
    closure of an element they are not a vertex of (hanging nodes).
    """

    def __init__(self, dim: int, vertices, elements):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        elements = np.ascontiguousarray(np.asarray(elements, dtype=np.int64))
        if vertices.ndim != 2 or vertices.shape[1] != dim:
            raise ValueError(f"vertices must have shape (V, {dim}), got {vertices.shape}")
        if elements.ndim != 2 or elements.shape[1] != dim + 1:
            raise ValueError(f"elements must have shape (E, {dim + 1}), got {elements.shape}")
        if not np.isfinite(vertices).all():
            raise ValueError("vertices contain non-finite coordinates")
        if len(elements) == 0:
            raise ValueError("mesh has no elements")

        V = len(vertices)
        if elements.min() < 0 or elements.max() >= V:
            raise MeshConformityError(
                f"element vertex index out of range [0, {V})"
            )
        for e, elem in enumerate(elements):
            if len(set(elem.tolist())) != dim + 1:
                raise MeshConformityError(f"element {e} repeats a vertex index: {tuple(elem)}")

        self.dim = dim
        self.vertices = vertices
        self.elements = elements

        lo = vertices.min(axis=0)
        hi = vertices.max(axis=0)
        self.diameter = float(np.linalg.norm(hi - lo))

        self._orient_and_compute_geometry()
        self._check_conformity()
        self._scan_hanging_nodes()

        self.vertices.flags.writeable = False
        self.elements.flags.writeable = False
        self.volumes.flags.writeable = False
        self.gradients.flags.writeable = False
        self._grams = None
        self._angle_report = None

    # -- construction helpers ------------------------------------------------

    def _orient_and_compute_geometry(self):
        n = self.dim
        coords = self.vertices[self.elements]          # (E, n+1, n)
        edges = coords[:, 1:, :] - coords[:, :1, :]    # (E, n, n)
        det = np.linalg.det(edges)

        flip = det < 0
        if flip.any():
            self.elements[flip, n - 1], self.elements[flip, n] = (
                self.elements[flip, n].copy(),
                self.elements[flip, n - 1].copy(),
            )
            coords = self.vertices[self.elements]
            edges = coords[:, 1:, :] - coords[:, :1, :]
            det = np.linalg.det(edges)

        vols = det / math.factorial(n)

        # local diameters for the degeneracy test
        diff = coords[:, :, None, :] - coords[:, None, :, :]
        diams = np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(1, 2))
        bad = vols <= _DEGENERACY_REL * diams ** n
        if bad.any():
            e = int(np.argmax(bad))
            raise MeshConformityError(
                f"element {e} is degenerate (volume {vols[e]:.3e}, diameter {diams[e]:.3e})"
            )

        # Nodal interpolation system per element: A @ c = I with rows
        # A[i] = (1, x_i).  Column j of inv(A) holds the affine coefficients
        # of hat function j, so its trailing n entries are the gradient.
        E = len(self.elements)
        A = np.empty((E, n + 1, n + 1))
        A[:, :, 0] = 1.0
        A[:, :, 1:] = coords
        C = np.linalg.inv(A)                           # (E, n+1, n+1)
        self.volumes = vols
        self.gradients = np.ascontiguousarray(np.transpose(C[:, 1:, :], (0, 2, 1)))
        self._affine_consts = np.ascontiguousarray(C[:, 0, :])   # (E, n+1)

    def _check_conformity(self):
        n = self.dim
        face_count: dict = {}
        vertex_elements = [[] for _ in range(len(self.vertices))]
        for e, elem in enumerate(self.elements):
            elem_t = elem.tolist()
            for v in elem_t:
                vertex_elements[v].append(e)
            for skip in range(n + 1):
                face = tuple(sorted(elem_t[:skip] + elem_t[skip + 1:]))
                face_count[face] = face_count.get(face, 0) + 1
                if face_count[face] > 2:
                    raise MeshConformityError(
                        f"face {face} is shared by more than two elements"
                    )

        boundary_mask = np.zeros(len(self.vertices), dtype=bool)
        for face, count in face_count.items():
            if count == 1:
                boundary_mask[list(face)] = True

        used = np.zeros(len(self.vertices), dtype=bool)
        used[self.elements.ravel()] = True
        if not used.all():
            v = int(np.argmin(used))
            raise MeshConformityError(f"vertex {v} belongs to no element")

        self.is_boundary = boundary_mask
        self.boundary_nodes = np.flatnonzero(boundary_mask)
        self.interior_nodes = np.flatnonzero(~boundary_mask)
        self._vertex_elements = vertex_elements

    def _scan_hanging_nodes(self):
        """Reject vertices lying inside the closure of a foreign element.

        Barycentric coordinates of each candidate vertex are evaluated from
        the affine basis coefficients; a vertex counts as inside when every
        coordinate exceeds -1e-12 * diameter scaled by the gradient norm.
        """
        n = self.dim
        V = len(self.vertices)
        geo_tol = _HANGING_REL * self.diameter
        coords = self.vertices[self.elements]
        lo = coords.min(axis=1) - geo_tol              # (E, n)
        hi = coords.max(axis=1) + geo_tol
        grad_norms = np.linalg.norm(self.gradients, axis=2)   # (E, n+1)

        chunk = 512
        for start in range(0, len(self.elements), chunk):
            sl = slice(start, start + chunk)
            inside_box = np.logical_and(
                (self.vertices[None, :, :] >= lo[sl, None, :]).all(axis=2),
                (self.vertices[None, :, :] <= hi[sl, None, :]).all(axis=2),
            )                                           # (C, V)
            e_loc, v_idx = np.nonzero(inside_box)
            if len(e_loc) == 0:
                continue
            e_idx = e_loc + start
            own = (self.elements[e_idx] == v_idx[:, None]).any(axis=1)
            e_idx, v_idx = e_idx[~own], v_idx[~own]
            if len(e_idx) == 0:
                continue
            lam = self._affine_consts[e_idx] + np.einsum(
                "pin,pn->pi", self.gradients[e_idx], self.vertices[v_idx]
            )                                           # (P, n+1)
            slack = geo_tol * grad_norms[e_idx]
            hanging = (lam >= -slack).all(axis=1)
            if hanging.any():
                k = int(np.argmax(hanging))
                raise MeshConformityError(
                    f"vertex {v_idx[k]} lies inside element {e_idx[k]} "
                    "without being one of its vertices (hanging node)"
                )

    # -- public interface ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @property
    def gradient_grams(self) -> np.ndarray:
        """Pairwise basis gradient dot products per element, shape (E, n+1, n+1)."""
        if self._grams is None:
            g = np.einsum("ein,ekn->eik", self.gradients, self.gradients)
            g.flags.writeable = False
            self._grams = g
        return self._grams

    def angle_report(self) -> AngleReport:
        if self._angle_report is None:
            self._angle_report = classify_mesh(self)
        return self._angle_report


def classify_mesh(mesh: Mesh) -> AngleReport:
    """Classify each element as acute / non-obtuse / obtuse.

    An element is non-obtuse exactly when all pairwise dots of its basis
    gradients are <= 0, and acute when they are < 0 strictly; ties are broken
    inclusively with tolerance 1e-12 relative to the largest pairwise dot
    magnitude within the element.
    """
    grams = mesh.gradient_grams
    n = mesh.dim
    iu, ju = np.triu_indices(n + 1, k=1)
    pair_dots = grams[:, iu, ju]                      # (E, n_pairs)
    scale = np.abs(grams).max(axis=(1, 2))
    tol = _ANGLE_REL * scale

    max_dot = pair_dots.max(axis=1)
    non_obtuse = max_dot <= tol
    acute = max_dot < -tol

    classes = np.where(non_obtuse, np.where(acute, ACUTE, NON_OBTUSE), OBTUSE)

    worst_e = int(np.argmax(max_dot))
    worst_p = int(np.argmax(pair_dots[worst_e]))
    worst_pair = (int(iu[worst_p]), int(ju[worst_p]))

    interior_set = set(mesh.interior_nodes.tolist())
    touches = all(
        any(int(v) in interior_set for v in elem) for elem in mesh.elements
    )

    max_sum = None
    if n == 2:
        max_sum = _max_opposite_angle_sum(mesh)

    return AngleReport(
        classifications=tuple(classes.tolist()),
        worst_dot=float(max_dot[worst_e]),
        worst_element=worst_e,
        worst_pair=worst_pair,
        is_non_obtuse=bool(non_obtuse.all()),
        is_acute=bool(acute.all()),
        every_element_touches_interior=touches,
        max_opposite_angle_sum=max_sum,
    )


def _max_opposite_angle_sum(mesh: Mesh) -> float:
    """Largest sum of the two angles opposite an interior edge (Delaunay check aid).

    A 2D mesh is Delaunay when this never exceeds pi.
    """
    opp: dict = {}
    coords = mesh.vertices
    for elem in mesh.elements:
        elem_t = elem.tolist()
        for skip in range(3):
            k = elem_t[skip]
            i, j = (x for idx, x in enumerate(elem_t) if idx != skip)
            u = coords[i] - coords[k]
            v = coords[j] - coords[k]
            cosang = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
            ang = math.acos(min(1.0, max(-1.0, cosang)))
            key = (i, j) if i < j else (j, i)
            opp.setdefault(key, []).append(ang)
    best = 0.0
    for angles in opp.values():
        if len(angles) == 2:
            best = max(best, angles[0] + angles[1])
    return best


# -- structured generators ---------------------------------------------------


def _right2d(n: int):
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def idx(i, j):
        return j * (n + 1) + i

    elements = []
    for j in range(n):
        for i in range(n):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            elements.append((v00, v10, v11))
            elements.append((v00, v11, v01))
    return vertices, np.array(elements)


def _crisscross2d(n: int):
    grid, elements_sq = _right2d(n)
    centers = np.array(
        [[(i + 0.5) / n, (j + 0.5) / n] for j in range(n) for i in range(n)]
    )
    vertices = np.vstack([grid, centers])

    def idx(i, j):
        return j * (n + 1) + i

    base = (n + 1) ** 2
    elements = []
    for j in range(n):
        for i in range(n):
            c = base + j * n + i
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            elements.append((v00, v10, c))
            elements.append((v10, v11, c))
            elements.append((v11, v01, c))
            elements.append((v01, v00, c))
    return vertices, np.array(elements)


def _equilateral2d(n: int):
    # Rhombus spanned by (1,0) and (1/2, sqrt(3)/2), cells split along the
    # short diagonal so every triangle is equilateral.  The two triangles at
    # the 60 degree corners have all three vertices on the boundary; they
    # are trimmed (together with the corner vertices) so that every element
    # keeps at least one interior vertex.
    if n < 2:
        raise ValueError("equilateral2d needs resolution >= 2 (corner trim leaves nothing)")
    h = 1.0 / n
    root3half = math.sqrt(3.0) / 2.0
    vertices = np.array(
        [[(i + 0.5 * j) * h, j * root3half * h] for j in range(n + 1) for i in range(n + 1)]
    )

    def idx(i, j):
        return j * (n + 1) + i

    elements = []
    for j in range(n):
        for i in range(n):
            if not (i == 0 and j == 0):
                elements.append((idx(i, j), idx(i + 1, j), idx(i, j + 1)))
            if not (i == n - 1 and j == n - 1):
                elements.append((idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)))

    used = sorted({v for elem in elements for v in elem})
    remap = {old: new for new, old in enumerate(used)}
    vertices = vertices[used]
    elements = [[remap[v] for v in elem] for elem in elements]
    return vertices, np.array(elements)


def _obtuse2d(n: int):
    if n < 2:
        raise ValueError("obtuse2d needs resolution >= 2 (no interior vertex otherwise)")
    vertices, elements = _right2d(n)
    interior = [
        j * (n + 1) + i for j in range(1, n) for i in range(1, n)
    ]
    pts = vertices[interior]
    nearest = interior[int(np.argmin(((pts - 0.5) ** 2).sum(axis=1)))]
    h = 1.0 / n
    vertices = vertices.copy()
    vertices[nearest] += (0.3 * h, 0.1 * h)
    return vertices, elements


def _kuhn3d(n: int):
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = np.array(
        [[x, y, z] for z in xs for y in xs for x in xs]
    )

    def idx(i, j, k):
        return (k * (n + 1) + j) * (n + 1) + i

    perms = list(itertools.permutations(range(3)))
    elements = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                for perm in perms:
                    cur = [i, j, k]
                    tet = [idx(*cur)]
                    for axis in perm:
                        cur[axis] += 1
                        tet.append(idx(*cur))
                    elements.append(tuple(tet))
    return vertices, np.array(elements)


GENERATORS = {
    "right2d": (2, _right2d),
    "crisscross2d": (2, _crisscross2d),
    "equilateral2d": (2, _equilateral2d),
    "obtuse2d": (2, _obtuse2d),
    "kuhn3d": (3, _kuhn3d),
}


def build_structured_mesh(generator: str, resolution: int) -> Mesh:
    """Build one of the named structured meshes at the given resolution.

    Generators: right2d (squares split by one diagonal), crisscross2d
    (squares split into four by the center), equilateral2d (rhombus of
    equilateral triangles with the two sharp corner triangles trimmed so
    every element touches an interior vertex), obtuse2d (right2d with the
    interior vertex nearest the center displaced by (0.3h, 0.1h)), kuhn3d
    (each cube cut into six tets along vertex permutation paths).
    """
    if generator not in GENERATORS:
        raise ValueError(
            f"unknown generator {generator!r}; choices: {', '.join(sorted(GENERATORS))}"
        )
    if not isinstance(resolution, int) or resolution < 1:
        raise ValueError(f"resolution must be a positive integer, got {resolution!r}")
    dim, fn = GENERATORS[generator]
    vertices, elements = fn(resolution)
    return Mesh(dim, vertices, elements)


# -- text format -------------------------------------------------------------


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the plain text format (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(f"dim {mesh.dim}\n")
        fh.write(f"vertices {mesh.num_vertices}\n")
        for row in mesh.vertices:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
        fh.write(f"simplices {mesh.num_elements}\n")
        for row in mesh.elements:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def _parse_counted(lines, li, keyword):
    if li >= len(lines):
        raise MeshFormatError(f"unexpected end of file, expected '{keyword} <count>'")
    parts = lines[li].split()
    if len(parts) != 2 or parts[0] != keyword:
        raise MeshFormatError(f"line {li + 1}: expected '{keyword} <count>', got {lines[li]!r}")
    try:
        count = int(parts[1])
    except ValueError:
        raise MeshFormatError(f"line {li + 1}: bad count {parts[1]!r}") from None
    if count < 0:
        raise MeshFormatError(f"line {li + 1}: negative count {count}")
    return count


def load_mesh(path) -> Mesh:
    """Read a mesh from the plain text format; validates on construction."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise MeshFormatError("empty mesh file")

    parts = lines[0].split()
    if len(parts) != 2 or parts[0] != "dim":
        raise MeshFormatError(f"line 1: expected 'dim <n>', got {lines[0]!r}")
    try:
        dim = int(parts[1])
    except ValueError:
        raise MeshFormatError(f"line 1: bad dimension {parts[1]!r}") from None
    if dim not in (2, 3):
        raise MeshFormatError(f"line 1: dimension must be 2 or 3, got {dim}")

    li = 1
    nv = _parse_counted(lines, li, "vertices")
    li += 1
    if li + nv > len(lines):
        raise MeshFormatError(f"expected {nv} vertex lines, file ends early")
    vertices = np.empty((nv, dim))
    for r in range(nv):
        fields = lines[li + r].split()
        if len(fields) != dim:
            raise MeshFormatError(
                f"line {li + r + 1}: expected {dim} coordinates, got {len(fields)}"
            )
        try:
            vertices[r] = [float(f) for f in fields]
        except ValueError:
            raise MeshFormatError(f"line {li + r + 1}: bad float in {lines[li + r]!r}") from None
    li += nv

    ne = _parse_counted(lines, li, "simplices")
    li += 1
    if li + ne > len(lines):
        raise MeshFormatError(f"expected {ne} simplex lines, file ends early")
    elements = np.empty((ne, dim + 1), dtype=np.int64)
    for r in range(ne):
        fields = lines[li + r].split()
        if len(fields) != dim + 1:
            raise MeshFormatError(
                f"line {li + r + 1}: expected {dim + 1} vertex indices, got {len(fields)}"
            )
        try:
            elements[r] = [int(f) for f in fields]
        except ValueError:
            raise MeshFormatError(f"line {li + r + 1}: bad integer in {lines[li + r]!r}") from None
    li += ne
    if li != len(lines):
        raise MeshFormatError(f"line {li + 1}: trailing content after simplex block")

    return Mesh(dim, vertices, elements)

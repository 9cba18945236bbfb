"""Conforming simplicial meshes in 2D and 3D.

A mesh is a set of vertices plus triangles (tets in 3D) that cover a domain
without gaps, overlaps or hanging nodes.  Construction validates conformity
and precomputes the piecewise linear (P1) basis gradients per element, which
everything downstream (energies, solvers, angle classification) relies on.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

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
# rows of grid cells, and candidate (element, vertex) pairs, per block of
# the hanging node scan
_SCAN_BLOCK = 1 << 15
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
    is the gradient of the hat function of its local vertex i.  Both come
    from the element's edge matrix B, whose rows are x_i - x_0: |det B| is
    n! times the volume, rows 1..n of the gradients are the columns of
    inv(B), and row 0 is minus their sum, since the hats partition unity.
    Construction fails with MeshConformityError for degenerate elements,
    faces shared by more than two elements, or vertices that lie inside the
    closure of an element they are not a vertex of (hanging nodes).  Faces
    are matched through one sort of the face rows, and hanging-node
    candidates come from a uniform grid of cells about one median element
    wide, so set-up costs close to O(V + E) on quasi-uniform meshes.  When
    several vertices hang, the error names the first (element, vertex) pair
    in element order, then vertex order.
    """

    def __init__(self, dim: int, vertices, elements):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        # private copies: elements are reoriented in place and both arrays
        # are frozen below, which must not reach the caller's arrays
        vertices = np.array(vertices, dtype=float, order="C")
        elements = np.array(elements, dtype=np.int64, order="C")
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
        sorted_rows = np.sort(elements, axis=1)
        repeats = (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)
        if repeats.any():
            e = int(np.argmax(repeats))
            raise MeshConformityError(
                f"element {e} repeats a vertex index: {tuple(elements[e].tolist())}")

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
        self._scatters = {}

    # -- construction helpers ------------------------------------------------

    def _orient_and_compute_geometry(self):
        n = self.dim
        coords = self.vertices[self.elements]          # (E, n+1, n)
        B = coords[:, 1:] - coords[:, :1]              # (E, n, n), row i-1 is x_i - x_0
        det = np.linalg.det(B)

        # swapping the last two vertices swaps the last two rows of B and
        # negates its determinant
        flip = det < 0
        self.elements[flip, n - 1:] = self.elements[flip, n - 1:][:, ::-1]
        B[flip, n - 2:] = B[flip, n - 2:][:, ::-1]
        vols = np.abs(det) / math.factorial(n)

        # local diameters for the degeneracy test
        iu, ju = np.triu_indices(n + 1, k=1)
        diff = coords[:, iu] - coords[:, ju]           # (E, n(n+1)/2, n)
        diams = np.sqrt((diff ** 2).sum(axis=2).max(axis=1))
        bad = vols <= _DEGENERACY_REL * diams ** n
        if bad.any():
            e = int(np.argmax(bad))
            raise MeshConformityError(
                f"element {e} is degenerate (volume {vols[e]:.3e}, diameter {diams[e]:.3e})"
            )

        # x = x_0 + B^T lam maps the barycentrics lam_1..lam_n to points, so
        # the gradient of hat i is column i-1 of inv(B)
        grads = np.empty_like(coords)
        grads[:, 1:] = np.transpose(np.linalg.inv(B), (0, 2, 1))
        grads[:, 0] = -grads[:, 1:].sum(axis=1)
        self.volumes = vols
        self.gradients = grads

    def _check_conformity(self):
        """Build the face table and reject faces of more than two elements.

        Face k of an element omits its local vertex k.  ``_face_ids`` (E, n+1)
        holds the id of each such face in a sorted table of distinct faces,
        and ``_face_counts`` the number of elements sharing each face; faces
        of one element are boundary faces.
        """
        n = self.dim
        E = len(self.elements)
        local = np.arange(n + 1)
        keep = np.array([np.delete(local, k) for k in local])   # (n+1, n)
        faces = np.sort(self.elements[:, keep], axis=2).reshape(-1, n)
        # lexsort is stable, so each face's copies keep their element order
        order = np.lexsort(faces.T[::-1])
        sorted_faces = faces[order]
        new = np.ones(len(faces), dtype=bool)
        new[1:] = (sorted_faces[1:] != sorted_faces[:-1]).any(axis=1)
        first = np.flatnonzero(new)
        table = sorted_faces[first]
        counts = np.diff(first, append=len(faces))
        face_ids = np.empty(len(faces), dtype=np.int64)
        face_ids[order] = np.cumsum(new) - 1

        over = np.flatnonzero(counts > 2)
        if len(over):
            # report the face whose third element comes first in element order
            k = int(order[first[over] + 2].min())
            raise MeshConformityError(
                f"face {tuple(faces[k].tolist())} is shared by more than two elements"
            )

        boundary_mask = np.zeros(len(self.vertices), dtype=bool)
        boundary_mask[table[counts == 1].ravel()] = True

        used = np.zeros(len(self.vertices), dtype=bool)
        used[self.elements.ravel()] = True
        if not used.all():
            v = int(np.argmin(used))
            raise MeshConformityError(f"vertex {v} belongs to no element")

        self.is_boundary = boundary_mask
        self.boundary_nodes = np.flatnonzero(boundary_mask)
        self.interior_nodes = np.flatnonzero(~boundary_mask)
        self._face_ids = face_ids.reshape(E, n + 1)
        self._face_counts = counts

    def _scan_hanging_nodes(self):
        """Reject vertices lying inside the closure of a foreign element.

        Candidates come from a uniform grid of cells about one median
        element box wide.  The vertices are sorted once by cell key.  Each
        element lists the rows of cells (runs along the last axis) that its
        box, widened by 1e-12 * diameter, covers, and each row maps to its
        vertices through two ``np.searchsorted`` calls.  A candidate inside
        the widened box that is not a vertex of the element counts as
        hanging when every barycentric coordinate, evaluated from the basis
        gradients as delta_i0 + g_i . (x - x_0), exceeds -1e-12 * diameter
        scaled by the gradient norm.  Elements are checked in element order, in blocks of about
        ``_SCAN_BLOCK`` candidates; the first block with a hanging pair
        reports its smallest (element, vertex) pair, which is the first
        hanging pair in (element, vertex) order.
        """
        V, n = self.vertices.shape
        geo_tol = _HANGING_REL * self.diameter
        coords = self.vertices[self.elements]
        lo = coords.min(axis=1)                        # (E, n)
        hi = coords.max(axis=1)
        ext = (hi - lo).max(axis=1)
        lo -= geo_tol
        hi += geo_tol
        grad_norms = np.linalg.norm(self.gradients, axis=2)   # (E, n+1)

        # The cell width starts at the median box and doubles while the
        # boxes cover more than 2^n rows per element on average (a few large
        # elements among many small ones).  At most 2^20 cells per axis keep
        # the keys in int64.  The half-cell shift puts the vertices of the
        # structured meshes mid-cell, where a box covers 2 cells per axis.
        vmin = self.vertices.min(axis=0)
        vmax = self.vertices.max(axis=0)
        h = max(np.median(ext), (vmax - vmin).max() / 2 ** 20)
        while True:
            origin = vmin - h / 2
            shape = np.floor((vmax - origin) / h).astype(np.int64) + 1
            c0, c1 = (np.clip(np.floor((b - origin) / h).astype(np.int64), 0, shape - 1)
                      for b in (lo, hi))
            rows = np.prod(c1[:, :-1] - c0[:, :-1] + 1, axis=1)    # (E,)
            if rows.sum() <= 2 ** n * len(rows):
                break
            h *= 2
        strides = np.cumprod(np.append(1, shape[:0:-1]))[::-1]
        keys = np.floor((self.vertices - origin) / h).astype(np.int64) @ strides
        order = np.argsort(keys, kind="stable")
        keys = keys[order]

        # The keys of one row are contiguous, and so are its vertices in
        # `order`: count[r] of them from first[r] on.
        bounds = np.concatenate(([0], np.cumsum(rows)))
        first = np.empty(bounds[-1], dtype=np.int64)
        count = np.empty_like(first)
        for s, t in _blocks(rows):
            e = np.repeat(np.arange(s, t), rows[s:t])
            j = np.arange(bounds[s], bounds[t]) - bounds[e]    # row within its element
            key = c0[e, -1]
            for d in range(n - 2, -1, -1):
                j, r = np.divmod(j, c1[e, d] - c0[e, d] + 1)
                key = key + (c0[e, d] + r) * strides[d]
            last = np.searchsorted(keys, key + c1[e, -1] - c0[e, -1], side="right")
            rs = slice(bounds[s], bounds[t])
            first[rs] = np.searchsorted(keys, key, side="left")
            count[rs] = last - first[rs]

        for s, t in _blocks(np.add.reduceat(count, bounds[:-1])):
            rs = slice(bounds[s], bounds[t])
            c = count[rs]
            e_idx = np.repeat(np.repeat(np.arange(s, t), rows[s:t]), c)
            v_idx = order[np.arange(len(e_idx)) + np.repeat(first[rs] - (np.cumsum(c) - c), c)]
            foreign = _all_columns(self.elements[e_idx] != v_idx[:, None])
            e_idx, v_idx = e_idx[foreign], v_idx[foreign]
            x = self.vertices[v_idx]
            inside = _all_columns((x >= lo[e_idx]) & (x <= hi[e_idx]))
            e_idx, v_idx, x = e_idx[inside], v_idx[inside], x[inside]
            # barycentrics lam_i = delta_i0 + g_i . (x - x_0)
            lam = np.einsum("pin,pn->pi", self.gradients[e_idx],
                            x - self.vertices[self.elements[e_idx, 0]])   # (P, n+1)
            lam[:, 0] += 1.0
            slack = geo_tol * grad_norms[e_idx]
            hanging = np.flatnonzero(_all_columns(lam >= -slack))
            if len(hanging):
                k = hanging[np.argmin(e_idx[hanging] * V + v_idx[hanging])]
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

    def assemble(self, blocks: np.ndarray, diagonal: np.ndarray | None = None,
                 interior: bool = True) -> scipy.sparse.csc_matrix:
        """Sum element blocks into a sparse matrix over nodal DOFs.

        ``blocks`` (E, n+1, m, n+1, m) couples component j of local vertex i
        (row) with component l of local vertex k (column); ``diagonal``
        (N0, m, m) adds one block per node.  DOF z*m + j is component j of
        the z-th interior node, or of the z-th vertex with
        ``interior=False``; entries of other nodes are dropped.  The pattern
        and the slots are built once per (m, interior) and kept, so a call
        only sums the data with one ``np.bincount``.
        """
        m = blocks.shape[-1]
        # threads sharing a mesh may build the same scatter twice; the
        # copies are equal, so whichever is kept gives the same matrix
        if (m, interior) not in self._scatters:
            self._scatters[m, interior] = self._scatter(m, interior)
        indptr, indices, slots, diag = self._scatters[m, interior]
        nnz = len(indices)
        data = np.bincount(slots, weights=blocks.ravel(), minlength=nnz + 1)[:nnz]
        if diagonal is not None:
            data[diag] += diagonal.ravel()
        N = len(indptr) - 1
        return scipy.sparse.csc_matrix((data, indices, indptr), shape=(N, N))

    def _scatter(self, m: int, interior: bool):
        """CSC pattern, and the data slot of each block entry and diagonal block."""
        nodes = self.interior_nodes if interior else np.arange(self.num_vertices)
        pos = np.full(self.num_vertices, -1)
        pos[nodes] = np.arange(len(nodes))
        dof = pos[self.elements][:, :, None] * m + np.arange(m)       # (E, n+1, m)
        dof[pos[self.elements] < 0] = -1
        rows, cols = dof[:, :, :, None, None], dof[:, None, None, :, :]
        N = len(nodes) * m
        # column-major keys; dropped entries share the key N*N, past all others,
        # so their slot is nnz
        keys = np.where((rows >= 0) & (cols >= 0), cols * N + rows, N * N)
        pattern, slots = np.unique(keys.ravel(), return_inverse=True)
        pattern = pattern[pattern < N * N]
        indptr = np.searchsorted(pattern, np.arange(N + 1) * N)
        A = scipy.sparse.csc_matrix((np.zeros(len(pattern)), pattern % N, indptr),
                                    shape=(N, N))       # lets scipy pick the index type
        d = np.arange(N).reshape(-1, m)
        diag = np.searchsorted(pattern, d[:, None, :] * N + d[:, :, None])
        return A.indptr, A.indices, slots, diag.ravel()

    def angle_report(self) -> AngleReport:
        if self._angle_report is None:
            self._angle_report = classify_mesh(self)
        return self._angle_report


def _all_columns(mask):
    """``mask.all(axis=1)`` for a tall, narrow mask, one column at a time
    (numpy reduces a short last axis row by row, several times slower)."""
    return functools.reduce(np.logical_and, mask.T)


def _blocks(sizes):
    """Consecutive (start, stop) runs of ``sizes`` whose sum stays within
    ``_SCAN_BLOCK``; a run holds at least one item."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(ends):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _SCAN_BLOCK, side="right")))
        yield start, stop
        start = stop


def classify_mesh(mesh: Mesh) -> AngleReport:
    """Classify the mesh as acute / non-obtuse / obtuse by its elements.

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

    worst_e = int(np.argmax(max_dot))
    worst_p = int(np.argmax(pair_dots[worst_e]))
    worst_pair = (int(iu[worst_p]), int(ju[worst_p]))

    touches = bool((~mesh.is_boundary[mesh.elements]).any(axis=1).all())

    max_sum = None
    if n == 2:
        max_sum = _max_opposite_angle_sum(mesh)

    return AngleReport(
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

    A 2D mesh is Delaunay when this never exceeds pi.  The angles come
    from the gradient Gram matrices, not from the coordinates.
    """
    # the angle at local vertex k sits opposite face (edge) k, between
    # vertices i and j, and |T| g_i . g_j = -cot(angle) / 2
    k = np.arange(3)
    cot = -2.0 * mesh.volumes[:, None] * mesh.gradient_grams[:, (k + 1) % 3, (k + 2) % 3]
    angles = np.arctan2(1.0, cot)                             # (E, 3)
    sums = np.bincount(mesh._face_ids.ravel(), weights=angles.ravel(),
                       minlength=len(mesh._face_counts))
    return float(sums[mesh._face_counts == 2].max(initial=0.0))


# -- structured generators ---------------------------------------------------


def _cells(n: int):
    """Corner indices (v00, v10, v01, v11) of the n x n grid cells, row by row."""
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return v00, v00 + 1, v00 + n + 1, v00 + n + 2


def _right2d(n: int):
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    v00, v10, v01, v11 = _cells(n)
    return vertices, np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)


def _crisscross2d(n: int):
    grid, _ = _right2d(n)
    cs = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(cs, cs, indexing="xy")
    vertices = np.vstack([grid, np.column_stack([X.ravel(), Y.ravel()])])
    v00, v10, v01, v11 = _cells(n)
    c = (n + 1) ** 2 + np.arange(n * n)
    elements = np.column_stack([v00, v10, c, v10, v11, c, v11, v01, c, v01, v00, c])
    return vertices, elements.reshape(-1, 3)


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
    j, i = np.divmod(np.arange((n + 1) ** 2), n + 1)
    vertices = np.column_stack([(i + 0.5 * j) * h, j * root3half * h])
    v00, v10, v01, v11 = _cells(n)
    # per cell the lower then the upper triangle; drop the two corner ones
    elements = np.column_stack([v00, v10, v01, v10, v11, v01]).reshape(-1, 3)[1:-1]
    used, elements = np.unique(elements, return_inverse=True)
    return vertices[used], elements.reshape(-1, 3)


def _obtuse2d(n: int):
    if n < 2:
        raise ValueError("obtuse2d needs resolution >= 2 (no interior vertex otherwise)")
    vertices, elements = _right2d(n)
    interior = (np.arange(1, n)[:, None] * (n + 1) + np.arange(1, n)).ravel()
    pts = vertices[interior]
    nearest = interior[np.argmin(((pts - 0.5) ** 2).sum(axis=1))]
    h = 1.0 / n
    vertices = vertices.copy()
    vertices[nearest] += (0.3 * h, 0.1 * h)
    return vertices, elements


def _kuhn3d(n: int):
    xs = np.linspace(0.0, 1.0, n + 1)
    Z, Y, X = np.meshgrid(xs, xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    # a tet per axis permutation: the path from the cell's low corner that
    # steps along the axes in that order
    stride = np.array([1, n + 1, (n + 1) ** 2])
    paths = np.array([np.cumsum(np.concatenate(([0], stride[list(p)])))
                      for p in itertools.permutations(range(3))])       # (6, 4)
    r = np.arange(n)
    low = ((r[:, None, None] * (n + 1) + r[:, None]) * (n + 1) + r).ravel()
    return vertices, (low[:, None, None] + paths).reshape(-1, 4)


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

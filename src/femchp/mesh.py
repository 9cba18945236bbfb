"""Conforming simplicial meshes in 2D and 3D.

A mesh is a set of vertices plus triangles (tets in 3D) that cover a domain
without gaps, overlaps or hanging nodes.  Construction validates conformity
and precomputes the piecewise linear (P1) basis gradients per element, which
everything downstream (energies, solvers, angle classification) relies on.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

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
        index = np.asarray(elements)
        elements = np.array(index, dtype=np.int64, order="C")
        if index.dtype.kind == "f" and (elements != index).any():
            raise ValueError("element vertex indices must be integers")
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
        self._patterns = {}
        self._keys = {}

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

        Face k of an element omits its local vertex k; faces of one element
        are boundary faces.
        """
        n = self.dim
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
            g = np.matmul(self.gradients, self.gradients.transpose(0, 2, 1))
            g.flags.writeable = False
            self._grams = g
        return self._grams

    def assemble(self, pairs, diagonal: np.ndarray | None = None,
                 interior: bool = True) -> scipy.sparse.csc_matrix:
        """Sum element weights into a symmetric sparse matrix over nodal DOFs.

        ``pairs`` holds one element-last (n+1, n+1, E) array per component
        pair j <= l, in the order of ``np.triu_indices(m)``: entry (i, k, e)
        couples component j of local vertex i (row) with component l of
        local vertex k (column) in element e.  Block (l, j) is read as the
        transpose of block (j, l), so only symmetric operators can be
        assembled.  DOF z*m + j is component j of the z-th interior node,
        or of the z-th vertex with ``interior=False``; entries of other
        nodes are dropped.  ``diagonal`` (N, m, m) adds one block to each of
        those N nodes; any other shape raises ValueError.
        Every m shares one scalar pattern per ``interior`` flag
        (``_Pattern``): a call sums each pair onto it in element order, with
        one sparse product into a shared array of sums, and places the sums
        by a cached index map.  The matrix is a copy of the layout's
        validated shell that shares its read-only index arrays and shape and
        owns the new ``data``.
        """
        m = math.isqrt(8 * len(pairs) + 1) // 2
        if m * (m + 1) // 2 != len(pairs):
            raise ValueError(f"{len(pairs)} component pairs is not m(m+1)/2 for any m")
        shape = (self.dim + 1, self.dim + 1, self.num_elements)
        if any(w.shape != shape for w in pairs):
            raise ValueError(f"pair weights must have the element-last shape {shape}")
        # threads sharing a mesh may build the same pattern twice; the
        # copies are equal, so whichever is kept gives the same matrix
        if interior not in self._patterns:
            self._patterns[interior] = _Pattern(self, interior)
        pattern = self._patterns[interior]
        if diagonal is not None and diagonal.shape != (pattern.N, m, m):
            raise ValueError(f"diagonal has shape {diagonal.shape}, not the nodal "
                             f"block shape {(pattern.N, m, m)}")
        shell, source, diag = pattern.layout(m)
        S = pattern.summation
        nnz = len(S.indptr) - 1
        sums = np.empty(len(pairs) * nnz)
        for p, w in enumerate(pairs):
            _csr_matvec(S.indptr, S.indices, S.data, w.ravel(), out=sums[p * nnz:(p + 1) * nnz])
        data = sums.take(source)
        if diagonal is not None:
            data[diag] += diagonal.ravel()
        A = copy.copy(shell)
        A.data = data
        return A

    def _stiffness(self, w: np.ndarray, interior: bool = True) -> scipy.sparse.csc_matrix:
        """sum_T w_T grad phi_i . grad phi_k, one weight w_T per element, by ``assemble``."""
        return self.assemble([self.gradient_grams.transpose(1, 2, 0) * w], interior=interior)

    def _scatter_keys(self, m: int) -> np.ndarray:
        """The DOF z*m + j of each element-major entry (e, i, j), z the
        vertex of local vertex i in element e: the keys by which the nodal
        forces of an m-component field sum onto the vertices.  Built once
        per m and read-only, since every residual at that m shares them."""
        keys = self._keys.get(m)
        if keys is None:
            keys = (self.elements[:, :, None] * m + np.arange(m)).ravel()
            keys.flags.writeable = False
            # threads may build the keys twice; the copies are equal
            self._keys[m] = keys
        return keys

    def angle_report(self) -> AngleReport:
        if self._angle_report is None:
            self._angle_report = classify_mesh(self)
        return self._angle_report


class _Pattern:
    """The scalar sparsity pattern of a mesh's nodal operators, and its
    m-component layouts.

    The nodes are the interior ones, or all vertices.  ``rows`` and
    ``indptr`` are the CSC pattern of the node pairs that share an element;
    ``transpose`` maps each slot to the slot of its mirror entry and
    ``diagonal`` each node to its own slot.  ``summation`` (nnz,
    (n+1)^2 E) sums element-last weights onto the slots: row s lists the
    entries (i, k, e) of slot s in element order, so every slot adds its
    terms in element order.  One stable sort of the element keys gives
    both.  The index arrays are read-only: every assembled matrix shares
    its layout shell's, so an in-place scipy op on one (``eliminate_zeros``,
    ``sort_indices``) raises instead of corrupting later assemblies.
    """

    def __init__(self, mesh: Mesh, interior: bool):
        nodes = mesh.interior_nodes if interior else np.arange(mesh.num_vertices)
        pos = np.full(mesh.num_vertices, -1)
        pos[nodes] = np.arange(len(nodes))
        node = pos[mesh.elements]                             # (E, n+1)
        rows, cols = node[:, :, None], node[:, None, :]
        N = len(nodes)
        # column-major keys of the element-major entries (e, i, k); dropped
        # entries share the key N*N, past all others, so they sort last
        keys = np.where((rows >= 0) & (cols >= 0), cols * N + rows, N * N).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        kept = int(np.searchsorted(keys, N * N))
        first = np.flatnonzero(np.diff(keys[:kept], prepend=-1))
        pattern = keys[first]
        cols, self.rows = np.divmod(pattern, N)
        self.N = N
        self.indptr = np.searchsorted(pattern, np.arange(N + 1) * N)
        self.transpose = np.searchsorted(pattern, self.rows * N + cols)
        self.diagonal = np.searchsorted(pattern, np.arange(N) * (N + 1))
        E, size = len(node), len(order)
        e, ik = np.divmod(order[:kept], size // E)
        self.summation = scipy.sparse.csr_matrix(
            (np.ones(kept), ik * E + e, np.append(first, kept)), shape=(len(first), size))
        for a in (self.rows, self.indptr, self.transpose, self.diagonal):
            a.flags.writeable = False
        self._layouts = {}

    def layout(self, m: int):
        """(shell, source, diag) of the m-component matrix.

        ``shell`` is the matrix with zero data, validated once by the
        ``csc_matrix`` constructor, which also picks the index dtype.

        DOF z*m + j is component j of node z, so column y*m + l holds, for
        each row node z of column y in turn, rows z*m + 0 .. z*m + m-1: the
        entry (z*m + j, y*m + l) of scalar slot s sits at
        m (s + (m-1) indptr[y]) + l m count[y] + j, with count[y] the slots
        of column y.  ``source`` gives each data position its index into the
        concatenated pair sums: pair (j, l) at slot s for j <= l, and pair
        (l, j) at the mirror slot for j > l.  ``diag`` (N m m,) holds the
        positions of the nodal blocks, row component first.
        """
        if m in self._layouts:
            return self._layouts[m]
        nnz = len(self.rows)
        ptr = self.indptr
        count = np.diff(ptr)
        col = np.repeat(np.arange(self.N), count)
        base = m * (np.arange(nnz) + (m - 1) * ptr[col])
        stride = m * count[col]
        comp = np.arange(m)
        at = base[:, None, None] + comp[:, None] * stride[:, None, None] + comp  # [s, l, j]
        indices = np.empty(m * m * nnz, dtype=np.int64)
        indices[at] = self.rows[:, None, None] * m + comp
        source = np.empty_like(indices)
        for p, (j, l) in enumerate(itertools.combinations_with_replacement(range(m), 2)):
            source[at[:, l, j]] = p * nnz + np.arange(nnz)
            if l > j:
                source[at[:, j, l]] = p * nnz + self.transpose
        indptr = np.append(m * m * ptr[:-1, None] + comp * m * count[:, None], m * m * nnz)
        N = self.N * m
        shell = scipy.sparse.csc_matrix((np.zeros(len(indices)), indices, indptr),
                                        shape=(N, N))
        diag = at[self.diagonal].transpose(0, 2, 1).ravel()   # [z, j, l]: row j, column l
        for a in (shell.indptr, shell.indices, source, diag):
            a.flags.writeable = False
        # one tuple, so that threads see a layout and its shell together
        self._layouts[m] = layout = shell, source, diag
        return layout


def _csr_matvec(indptr, indices, data, x, out=None):
    """A x for the CSR arrays of A, by the kernel that ``A @ x`` runs,
    without scipy's dispatch around it (several microseconds a call); each
    row adds its terms in index order, from +0.  ``indptr`` and ``indices``
    must share one dtype: the kernel accepts mixed index types, but then
    converts the indices on every call.  ``out``, a contiguous float64
    vector of one entry per row, receives the product instead of a new
    array."""
    if out is None:
        out = np.zeros(len(indptr) - 1)
    else:
        out.fill(0.0)   # the kernel adds each row's sum onto its entry
    _sparsetools.csr_matvec(len(out), len(x), indptr, indices, data, x, out)
    return out


def _csr_diagonal(indptr, indices, data):
    """The diagonal of a square matrix from its CSR arrays (or its CSC
    arrays, read as those of the transpose), by the kernel that
    ``A.diagonal()`` runs, without its dispatch."""
    y = np.empty(len(indptr) - 1)
    _sparsetools.csr_diagonal(0, len(y), len(y), indptr, indices, data, y)
    return y


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
    magnitude within the element.  The worst pair is the first one within
    that tolerance of the largest dot, so rounding cannot pick among ties.
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

    near = max_dot.max() - tol
    worst_e = int(np.argmax(max_dot >= near))
    worst_p = int(np.argmax(pair_dots[worst_e] >= near[worst_e]))
    worst_pair = (int(iu[worst_p]), int(ju[worst_p]))

    touches = bool((~mesh.is_boundary[mesh.elements]).any(axis=1).all())

    return AngleReport(
        worst_dot=float(pair_dots[worst_e, worst_p]),
        worst_element=worst_e,
        worst_pair=worst_pair,
        is_non_obtuse=bool(non_obtuse.all()),
        is_acute=bool(acute.all()),
        every_element_touches_interior=touches,
    )


def _max_coupling(K, rows) -> float:
    """Largest K[z, y] / K[z, z] over z in ``rows`` and neighbours y != z of
    a symmetric K on all vertices, K[z, z] > 0 on ``rows``; -inf for no rows.
    It is <= 0 exactly on Z-matrix rows.  A ratio within 1e-12 of 0, the tie
    tolerance of ``classify_mesh``, is the rounding of an exact zero and reads
    as 0.  For the unit-coefficient stiffness at interior vertices in 2D, it
    is <= 0 exactly when every two angles opposite an edge sum to at most pi."""
    # K is symmetric, so column z of its CSC arrays is row z
    diag = _csr_diagonal(K.indptr, K.indices, K.data)
    z = np.repeat(np.arange(len(diag)), np.diff(K.indptr))
    off = np.isin(z, rows) & (K.indices != z)
    ratio = K.data[off] / diag[z[off]]
    ratio = np.where(np.abs(ratio) <= _ANGLE_REL, 0.0, ratio)
    return float(ratio.max(initial=-np.inf))


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


def _read_rows(lines, li, count, width, cast, what, error):
    """Lines li .. li + count - 1 as a (count, width) array of ``cast``
    (float or int) entries; ``what`` names a row's entries in messages,
    which report 1-based line numbers and raise ``error``."""
    rows = np.empty((count, width), dtype=np.int64 if cast is int else float)
    for r in range(count):
        fields = lines[li + r].split()
        if len(fields) != width:
            raise error(f"line {li + r + 1}: expected {width} {what}, got {len(fields)}")
        try:
            rows[r] = [cast(f) for f in fields]
        except ValueError:
            kind = "integer" if cast is int else "float"
            raise error(f"line {li + r + 1}: bad {kind} in {lines[li + r]!r}") from None
    return rows


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
    vertices = _read_rows(lines, li, nv, dim, float, "coordinates", MeshFormatError)
    li += nv

    ne = _parse_counted(lines, li, "simplices")
    li += 1
    if li + ne > len(lines):
        raise MeshFormatError(f"expected {ne} simplex lines, file ends early")
    elements = _read_rows(lines, li, ne, dim + 1, int, "vertex indices", MeshFormatError)
    li += ne
    if li != len(lines):
        raise MeshFormatError(f"line {li + 1}: trailing content after simplex block")

    return Mesh(dim, vertices, elements)


def _check_tol(name: str, tol) -> None:
    """Raise ValueError unless ``tol`` is a finite number >= 0: the one
    tolerance rule of the solver, the verifiers, ``is_extreme`` and the
    command line."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {tol}")

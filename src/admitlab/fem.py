"""P1 tetrahedral finite elements on structured lattice boxes.

The complex divergence-form equation is assembled from the admittivity
A(x, a(x)) = A_R + i k A_I of a family and a parameter field at tet
barycenters (one-point quadrature), as the real 2x2-block strongly elliptic
system [A_R, -k A_I; k A_I, A_R].  A `BlockSystem` holds the equivalent
complex matrix K = K_R + i K_I once, as its interior blocks and its boundary
rows, and its interior solver.  `assemble` builds one `BlockSystem` on one
mesh.  Every Dirichlet solve and every Schur complement onto boundary dofs
(the DtN pairing and the trace Gram) goes through a `BlockSystem`, which
reads its interior solver and its face stencils from the rows of the
15-point stencil it is built from, once, at construction, in the stencil's
own 15 slots, and takes no solver option: one direct solver,
`layered_solve`, a tangent DST and one Thomas solve per mode where the
rows of each level along one axis share one axis-only stencil (a constant
K is one layer, repeated), and conjugate orthogonal CG (COCG)
preconditioned by the layered solve of the rows' mean second moments for
any other K.  A layered system's Schur complement onto dofs inside a face
normal to a layer axis, whose interior rows share one stencil, is a closed
form, diagonal in the face's sine basis (`_face_schur`), checked on a few
combinations of its columns; any other is solved column by column.
An Omega_eta system is never assembled or meshed whole: it is a
`SubstructuredSystem` of the Omega system and the system of the bump box
over the patch, which numbers the union's vertices and solves its
footprint between them by COCG on the interface, preconditioned by the
closed-form Schur complements.  Nothing is factored but that dense
footprint preconditioner.  `assemble` builds a system's blocks and reads
its solver straight from the stencil rows, so no K is formed whole.

Every mesh is one full box of lattice cells, given by its integer lattice
corners, and its vertices, boundary and tet corners are closed forms of
them.  Every tet is one of the six Kuhn tets of its lattice cube,
positively oriented, so a mesh keeps no geometry and no per-tet array: a
chunk of whole cells takes its corners by integer arithmetic on the cell
index.  An element block is linear in its coefficient, with weights from
the integer gradients of its Kuhn pattern, so every block, real or
complex, is one product with one import-time table (`_BLOCK_TABLE`) times
h / 6.  Every stiffness row is the same 15-point stencil of Kuhn edge
offsets, so each entry of an element block goes to a closed-form slot of
an (n, 15) stencil array, the one layout in which the solver reads a row,
and no mesh keeps a scatter map.  One byte budget,
`_BLOCK_BYTES`, bounds the per-tet and per-column temporaries: tets are
evaluated in chunks of whole lattice cells and Schur complements solved in
column blocks within it, so only the live data grows with the mesh.
scipy is imported by the functions that build a matrix, so the commands
that never assemble one (validate, probe) do not pay for importing it.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .admittivity import AdmittivityFamily, ParameterField
from .errors import ConfigError, GeometryError, SolverError
from .geometry import BoundaryPatch, BoxDomain, EnlargedDomain

if TYPE_CHECKING:
    import scipy.sparse as sp

# Six-tet Kuhn split of the unit hex: each permutation of the axes walks
# from corner 0 to corner 7 along the main diagonal.
_KUHN_PERMS = list(itertools.permutations(range(3)))


def _corner_id(offset) -> int:
    return offset[0] + 2 * offset[1] + 4 * offset[2]


_CORNER_OFFSETS = np.array([[i, j, k] for k in (0, 1) for j in (0, 1) for i in (0, 1)])
# _CORNER_OFFSETS row order must match _corner_id:
_CORNER_OFFSETS = _CORNER_OFFSETS[np.argsort([_corner_id(o) for o in _CORNER_OFFSETS])]


def _kuhn_patterns():
    """Corner ids (6, 4) of the Kuhn tets, each positively oriented, and
    their integer edges (6, 3, 3) from the first corner."""
    patterns = []
    for perm in _KUHN_PERMS:
        o = np.zeros(3, dtype=int)
        ids = [_corner_id(o)]
        for axis in perm[:2]:
            o = o.copy()
            o[axis] = 1
            ids.append(_corner_id(o))
        ids.append(_corner_id((1, 1, 1)))
        patterns.append(ids)
    patterns = np.asarray(patterns, dtype=int)
    edges = _CORNER_OFFSETS[patterns[:, 1:]] - _CORNER_OFFSETS[patterns[:, :1]]
    # An odd permutation walks a tet of determinant -1; swapping its last
    # two corners makes it positive.
    flip = np.einsum("ti,ti->t", edges[:, 0], np.cross(edges[:, 1], edges[:, 2])) < 0
    patterns[flip, 2:] = patterns[flip, :1:-1]
    edges[flip, 1:] = edges[flip, :0:-1]
    return patterns, edges


_TET_PATTERNS, _KUHN_EDGES = _kuhn_patterns()

_FACE_LOCAL = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])

# Corner ids (6, 2, 3) of the two Kuhn faces on each cube side 2 a + s,
# the side at offset s on axis a: the faces whose corners all lie on it.
_KUHN_FACES = _TET_PATTERNS[:, _FACE_LOCAL].reshape(-1, 3)
_SIDE_TRIANGLES = np.stack([
    _KUHN_FACES[np.all(_CORNER_OFFSETS[_KUHN_FACES][:, :, a] == s, axis=1)]
    for a in range(3) for s in (0, 1)
])

# The lattice offsets (15, 3) from one corner of a Kuhn tet to another, in
# lexicographic order: zero, the axis steps and the face and main diagonals
# of the cube, each either way.  A mesh keeps its vertices in lexicographic
# ijk order, so these are the columns of a stiffness row in
# order.  Entry (a, b) of the element block of tet t, of pattern p, goes to
# slot 15 * tets[t, a] + _STENCIL_SLOTS[p, a, b] of an (n, 15) stencil
# array: the rank of corner b - corner a among the offsets.
_STENCIL_OFFSETS, _STENCIL_SLOTS = np.unique(
    (_CORNER_OFFSETS[_TET_PATTERNS][:, None] - _CORNER_OFFSETS[_TET_PATTERNS][:, :, None])
    .reshape(-1, 3), axis=0, return_inverse=True)
_STENCIL_SLOTS = _STENCIL_SLOTS.reshape(len(_TET_PATTERNS), 4, 4).astype(np.int32)
# The slots of the centre, of -e_a (`_LOWER[a]`) and of +e_a (`_UPPER[a]`),
# and the axis-only slots: the centre and the six axis steps.
_CENTRE = int(np.flatnonzero(~np.any(_STENCIL_OFFSETS, axis=1))[0])
_LOWER, _UPPER = (np.argmax(np.all(_STENCIL_OFFSETS == sign * np.eye(3, dtype=int)[:, None],
                                   axis=2), axis=1) for sign in (-1, 1))
_AXIS_SLOTS = np.count_nonzero(_STENCIL_OFFSETS, axis=1) <= 1

# The byte budget of every per-column and per-tet temporary: schur_onto
# solves its columns in dense complex (interior x column) blocks of at most
# this size, and the per-tet loops (assembly, energy densities) run over
# chunks of whole lattice cells whose per-tet temporaries fit in it.
_BLOCK_BYTES = 1 << 20


# The per-tet temporaries of a pass: a float element block, and those of
# the stencil pass (`stiffness_stencil`), 528 bytes a tet: its complex
# element block (256), slots (64), corners (32), barycenter (24), parameter
# (8) and complex coefficient (144).
_ELEMENT_BYTES = 16 * 8
_ASSEMBLY_BYTES = 256 + 64 + 32 + 24 + 8 + 144


def _chunk_size(tet_bytes: int = _ELEMENT_BYTES) -> int:
    """Tets per chunk: the whole cells, at least one, whose `tet_bytes`
    of temporaries each, by default their float element blocks, fit in
    `_BLOCK_BYTES`."""
    return len(_TET_PATTERNS) * max(1, _BLOCK_BYTES // (tet_bytes * len(_TET_PATTERNS)))


def tet_chunks(n_tets: int, tet_bytes: int = _ELEMENT_BYTES):
    """Contiguous tet-order slices of `_chunk_size(tet_bytes)` tets, whole
    cells each."""
    step = _chunk_size(tet_bytes)
    for start in range(0, n_tets, step):
        yield slice(start, min(start + step, n_tets))


def _cell_span(chunk: slice, n_tets: int):
    """The cells (c0, c1) whose 6 (c1 - c0) tets are `chunk`; ValueError
    unless it is a slice of whole cells with step 1."""
    start, stop, step = chunk.indices(n_tets)
    stop = max(start, stop)
    if step != 1 or start % 6 or stop % 6:
        raise ValueError("a tet chunk must be a slice of whole lattice cells")
    return start // 6, stop // 6


# The integer barycentric gradients U_p (6, 4, 3) of the Kuhn patterns at
# unit pitch: G = [e1 e2 e3], the edges from corner 0, has determinant 1, so
# the rows of G^{-1}, the gradients of corners 1 to 3, are e2 x e3, e3 x e1
# and e1 x e2, and corner 0's is minus their sum.  Each column holds one +1
# and one -1, so each gradient component of a tet is the difference of two
# corner values over h: the corners (2, 6, 3) at the +1 and the -1 of
# pattern p, component j.
_UNIT_GRADS = np.cross(_KUHN_EDGES[:, [1, 2, 0]], _KUHN_EDGES[:, [2, 0, 1]])
_UNIT_GRADS = np.concatenate([-_UNIT_GRADS.sum(axis=1, keepdims=True), _UNIT_GRADS], axis=1)
_GRADIENT_CORNERS = np.stack([np.argmax(_UNIT_GRADS == 1, axis=1),
                              np.argmax(_UNIT_GRADS == -1, axis=1)])

# The element block of a pattern-p tet at pitch h for a 3x3 coefficient A
# is vol G A G^T with vol = h^3 / 6 and G = U_p / h, that is
# K[a, b] = (h / 6) sum_jk A_jk U_p[a, j] U_p[b, k]: linear in A, with
# weights of -1, 0 and 1, at most four of them nonzero for each (a, b).
# Entry [p, 3 j + k, 4 a + b] of this (6, 9, 16) table is U_p[a, j] U_p[b, k].
_BLOCK_TABLE = np.einsum("paj,pbk->pjkab", _UNIT_GRADS, _UNIT_GRADS).reshape(6, 9, 16).astype(float)


def _int_cells(extent: float, h: float, what: str, minimum: int = 4) -> int:
    n = int(round(extent / h))
    if n < minimum or abs(n * h - extent) > 1e-9 * max(1.0, extent):
        raise ConfigError(
            f"mesh pitch h={h} must divide the {what} extent {extent} into "
            f">= {minimum} cells"
        )
    return n


class Mesh:
    """Conforming tetrahedral mesh of one full box of lattice cells.

    The box runs from the integer lattice corner `lo` to `hi`, at least one
    cell along each axis: its cells are the lattice cubes with lowest
    corners lo <= c < hi, in lexicographic order, and its vertices `ijk`
    the lattice points lo <= ijk <= hi, in lexicographic order, at
    `verts` = anchor + h * ijk.  Meshes built with the same pitch and
    anchor share the lattice, so a vertex of one is found in another by its
    integer key (`vertex_indices`).  Tet 6 c + p is Kuhn pattern p of cell
    c, positively oriented.  A tet's geometry depends only on its pattern
    and h: its gradients are the pattern's integer ones over h
    (`_UNIT_GRADS`) and its volume is h^3 / 6, so the mesh keeps none.

    It stores no per-tet array and no cell: `corners` forms the corner
    vertices of a chunk of whole cells (see `tet_chunks`) by integer
    arithmetic on the cell index.  `boundary_vertex_mask` flags the
    vertices on the box faces, and `boundary_tris` lists the Kuhn faces of
    the cell sides on them, each row sorted and the rows in lexicographic
    order.  `sigma_mask` flags the boundary triangles on the measurement
    patch; `build_mesh` sets it.  `box_shape` is the shape of the interior
    vertices, in C order, empty along an axis one cell thick.
    """

    def __init__(self, lo, hi, h, anchor):
        lo, hi = (np.array(c, dtype=np.int64) for c in (lo, hi))
        if lo.shape != (3,) or hi.shape != (3,) or np.any(hi <= lo):
            raise GeometryError("a mesh box needs at least one lattice cell along each axis")
        self.lo, self.hi = lo, hi
        self.h = h
        self.anchor = anchor
        shape = hi - lo + 1
        self.box_shape = tuple(int(s) - 2 for s in shape)
        # Vertex ijk is (ijk - lo) @ _strides in lexicographic order.
        self._strides = np.array([shape[1] * shape[2], shape[2], 1])
        self.ijk = np.stack(np.meshgrid(*map(np.arange, lo, hi + 1), indexing="ij"),
                            axis=-1).reshape(-1, 3)
        self.verts = anchor[None, :] + self.ijk * h
        self.boundary_vertex_mask = np.any((self.ijk == lo) | (self.ijk == hi), axis=1)
        self.boundary_tris = self._boundary_tris()
        self.sigma_mask = np.zeros(len(self.boundary_tris), dtype=bool)
        # Corner c of a Kuhn pattern is this many vertices past the lowest
        # corner of its cell.
        self._kuhn_steps = _CORNER_OFFSETS[_TET_PATTERNS] @ self._strides

    def _boundary_tris(self) -> np.ndarray:
        """The Kuhn faces (row-sorted, lexicographic) of the cell sides on
        the box faces: on side 2 a + s, those at offset s on axis a of the
        cells in the first (s = 0) or last (s = 1) layer along a."""
        cells = self.hi - self.lo
        corner_steps = _CORNER_OFFSETS @ self._strides
        tris = []
        for side, (axis, s) in enumerate(itertools.product(range(3), (0, 1))):
            ranges = [np.arange(m) for m in cells]
            ranges[axis] = np.array([s * (cells[axis] - 1)])
            layer = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, 3)
            corners = (layer @ self._strides)[:, None] + corner_steps
            tris.append(corners[:, _SIDE_TRIANGLES[side]].reshape(-1, 3))
        tris = np.sort(np.concatenate(tris), axis=1)
        return tris[np.lexsort(tris.T[::-1])]

    def corners(self, chunk: slice = slice(None), out: Optional[np.ndarray] = None) -> np.ndarray:
        """Vertex indices (C, 4) int64 of the corners of the tets in `chunk`,
        a slice of whole cells, all tets by default.

        The lowest corner of cell c = (i m1 + j) m2 + k, the (m0, m1, m2)
        cells in C order, is vertex (i s1 + j) s2 + k = c + c // m2 +
        s2 (c // (m1 m2)) of the (s0, s1, s2) = (m0 + 1, m1 + 1, m2 + 1)
        vertices; `out`, a flat int64 buffer of at least 24 entries per
        cell, may take them.
        """
        first, last = _cell_span(chunk, self.n_tets)
        shape = (last - first, len(_TET_PATTERNS), 4)
        tets = np.add(self._cell_bases(first, last)[:, None, None], self._kuhn_steps,
                      out=None if out is None else out[:math.prod(shape)].reshape(shape))
        return tets.reshape(-1, 4)

    def _cell_bases(self, first: int, last: int) -> np.ndarray:
        """The lowest corners (vertex indices) of cells first..last - 1 (see
        `corners`)."""
        m1, m2 = (int(m) for m in self.hi[1:] - self.lo[1:])
        c = np.arange(first, last)
        base = c // m2
        base += c
        c //= m1 * m2
        c *= m2 + 1
        base += c
        return base

    def barycenters(self, chunk: slice = slice(None)) -> np.ndarray:
        """Barycenters (C, 3) of the tets in `chunk`, a slice of whole cells,
        all tets by default."""
        return _corner_mean(self.verts, self.corners(chunk))

    @property
    def n_vertices(self) -> int:
        return len(self.verts)

    @property
    def n_tets(self) -> int:
        return len(_TET_PATTERNS) * math.prod(int(m) for m in self.hi - self.lo)

    def vertex_indices(self, ijk) -> np.ndarray:
        """Vertex indices of integer lattice keys, one per row of `ijk`;
        GeometryError naming the first key off the box."""
        ijk = np.asarray(ijk, dtype=np.int64).reshape(-1, 3)
        missing = np.any((ijk < self.lo) | (ijk > self.hi), axis=1)
        if np.any(missing):
            first = tuple(int(v) for v in ijk[np.argmax(missing)])
            raise GeometryError(
                f"{int(np.sum(missing))} lattice keys are not mesh vertices, "
                f"first {first}"
            )
        return (ijk - self.lo) @ self._strides


def build_mesh(domain, h: float, patch: Optional[BoundaryPatch] = None) -> Mesh:
    """Structured mesh of a box, or of the bump box of an enlarged domain on
    the lattice of its box.

    The lattice is anchored at the box's lower corner with pitch h, which
    must divide each box extent into at least four cells; the bump must be
    aligned with it (see build_enlarged_domain).  Each cell is split into
    six Kuhn tets (see Mesh).  The boundary triangles on `patch`, if given,
    are flagged in `sigma_mask`.
    """
    if isinstance(domain, BoxDomain):
        box = domain
    elif isinstance(domain, EnlargedDomain):
        box = domain.box
    else:
        raise ConfigError(f"cannot mesh a {type(domain).__name__}")

    lo, hi = box.lo_arr, box.hi_arr
    c_lo = np.zeros(3, dtype=np.int64)
    c_hi = np.array([_int_cells(hi[a] - lo[a], h, f"axis-{a}") for a in range(3)])
    if isinstance(domain, EnlargedDomain):
        b_lo, b_hi = domain.bump_box
        c_lo, c_hi = np.rint((b_lo - lo) / h), np.rint((b_hi - lo) / h)
        if (np.any(c_hi <= c_lo) or np.max(np.abs(lo + c_lo * h - b_lo)) > 1e-9
                or np.max(np.abs(lo + c_hi * h - b_hi)) > 1e-9):
            raise GeometryError("bump is not aligned with the mesh pitch")
    mesh = Mesh(c_lo, c_hi, h, lo.copy())
    if patch is not None:
        # A boundary triangle is on the patch when its corners are: on the
        # face plane and within the rectangle.
        a = patch.axis
        on_patch = np.abs(mesh.anchor[a] + mesh.ijk[:, a] * h - patch.plane_coord) < 1e-9
        lat = patch.lateral(mesh.verts[on_patch])
        on_patch[on_patch] = np.all((lat >= np.asarray(patch.rect_lo) - 1e-9)
                                    & (lat <= np.asarray(patch.rect_hi) + 1e-9), axis=1)
        mesh.sigma_mask = np.all(on_patch[mesh.boundary_tris], axis=1)
    return mesh


def _corner_mean(verts: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Mean (C, 3) of the vertices at each row of `corners` (C, 4): they are
    added in order and the sum divided by 4, which has the bits of their
    mean."""
    total = verts[corners[:, 0]] + verts[corners[:, 1]]
    total += verts[corners[:, 2]]
    total += verts[corners[:, 3]]
    total /= 4.0
    return total


def _stiffness_blocks(mesh: Mesh, coeff, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element stiffness blocks (C, 4, 4), in `out` if given, of the tets of
    whole cells for their real or complex per-tet (C, 3, 3) coefficient, or
    (6, 4, 4) of the six Kuhn patterns for a constant 3x3 one: one np.matmul
    of the coefficients, viewed as (cells, 6, 1, 9), with `_BLOCK_TABLE`,
    times h / 6, so an entry's bits do not depend on the tets beside it."""
    # Contiguous, so that every caller's coefficient takes one matmul path.
    coeff = np.ascontiguousarray(coeff)
    per_tet = coeff.ndim == 3
    rows = coeff.reshape(-1, len(_TET_PATTERNS) if per_tet else 1, 1, 9)
    out = None if out is None or not per_tet else out.reshape(-1, len(_TET_PATTERNS), 1, 16)
    blocks = np.matmul(rows, _BLOCK_TABLE, out=out)
    blocks *= mesh.h / 6.0
    return blocks.reshape(-1, 4, 4)


def _stencil_slots(mesh: Mesh, chunk: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Stencil-array slots (16 C,) int32 of the element block entries of the
    tets in `chunk`, a slice of whole cells, in the order of their (C, 4, 4)
    blocks, in `out` if given: a flat int32 buffer of at least 96 entries
    per cell.

    Entry (a, b) of a pattern-p tet with corners v goes to slot
    15 v_a + _STENCIL_SLOTS[p, a, b].  With v_a the lowest corner of the
    tet's cell plus a Kuhn corner step (see `Mesh.corners`), that is 15
    times the lowest corner plus a (6, 4, 4) table, formed per cell.
    """
    first, last = _cell_span(chunk, mesh.n_tets)
    table = 15 * mesh._kuhn_steps[:, :, None] + _STENCIL_SLOTS
    shape = (last - first,) + table.shape
    out = (np.empty(shape, dtype=np.int32) if out is None
           else out[:math.prod(shape)].reshape(shape))
    np.add((15 * mesh._cell_bases(first, last))[:, None, None, None], table, out=out)
    return out.ravel()


def _stencil_blocks(mesh: Mesh, data: np.ndarray, interior: np.ndarray, boundary: np.ndarray):
    """The CSR blocks K_II and K_IB (columns by position among the
    `interior` and `boundary` vertices) and the boundary rows K_B (columns
    on all vertices) of the stencil array `data` (15 n,) of a mesh, exact
    zeros dropped: the blocks, entries and dtypes that slicing the whole
    CSR matrix of `data` gives, without forming it.

    Slot 15 v + s is the entry of row v and column v plus offset s; the
    offsets ascend, so each row keeps its entries in column order.  The
    slots whose column is off the box were never written, so they are
    exact zeros and are dropped with the others.  Each block is counted
    from boolean (rows, 15) masks of the slots it keeps, and its entries
    are gathered in row chunks within `_BLOCK_BYTES`, so only the blocks,
    the masks and one chunk's temporaries are live beside `data`.
    """
    import scipy.sparse as sp

    n = mesh.n_vertices
    stencil = data.reshape(n, 15)
    steps = _STENCIL_OFFSETS @ mesh._strides
    position = np.empty(n, dtype=np.int64)
    position[interior] = np.arange(len(interior))
    position[boundary] = np.arange(len(boundary))
    # About 32 bytes of temporaries per slot of a row.
    step = max(1, _BLOCK_BYTES // (32 * 15))
    nonzero = stencil != 0
    # The interior rows' slots whose column is an interior vertex; every
    # column of an interior row is on the box.
    inner = np.empty((len(interior), 15), dtype=bool)
    for start in range(0, len(interior), step):
        r = interior[start:start + step]
        np.logical_not(mesh.boundary_vertex_mask[r[:, None] + steps],
                       out=inner[start:start + step])

    def block(rows, keep, n_cols, column_of):
        indptr = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
        values = np.empty(indptr[-1], dtype=data.dtype)
        indices = np.empty(indptr[-1], dtype=np.int32)
        for start in range(0, len(rows), step):
            r, k = rows[start:start + step], keep[start:start + step]
            lo, hi = indptr[start], indptr[start + len(r)]
            values[lo:hi] = stencil[r][k]
            indices[lo:hi] = column_of((r[:, None] + steps)[k])
        return sp.csr_matrix((values, indices, indptr), shape=(len(rows), n_cols))

    keep = nonzero[interior]
    K_ii = block(interior, keep & inner, len(interior), position.take)
    K_ib = block(interior, keep & ~inner, len(boundary), position.take)
    del keep, inner
    K_b = block(boundary, nonzero[boundary], n, lambda columns: columns)
    return K_ii, K_ib, K_b


def stiffness_stencil(mesh: Mesh, coeff, dtype=float) -> np.ndarray:
    """The 15-point stencil array (15 n,) of `dtype` of the stiffness matrix
    of a mesh for a constant 3x3 or per-tet (T, 3, 3) coefficient, or for
    the coefficient `coeff(x)` of the tets at barycenters x (C, 3).

    The coefficient and the element blocks (`_stiffness_blocks`) are
    evaluated over chunks of whole cells within `_BLOCK_BYTES`, and each
    chunk's blocks are added by one `np.add.at`, in tet order as one
    `np.bincount` would, so the matrix has the same bits whatever the chunk
    size, and a complex one has parts with the bits of the real passes of
    its parts.  Corners, slots and blocks go to buffers allocated once, for
    at most the mesh's cells, so chunks map no fresh pages each.
    """
    if not callable(coeff):
        coeff = np.asarray(coeff)
    data = np.zeros(15 * mesh.n_vertices, dtype=dtype)
    cells = min(_chunk_size(_ASSEMBLY_BYTES), mesh.n_tets) // len(_TET_PATTERNS)
    corner_buf = np.empty(24 * cells, dtype=np.int64)
    slot_buf = np.empty(96 * cells, dtype=np.int32)
    block_buf = np.empty((6 * cells, 4, 4), dtype=dtype)
    for chunk in tet_chunks(mesh.n_tets, _ASSEMBLY_BYTES):
        if callable(coeff):
            part = coeff(_corner_mean(mesh.verts, mesh.corners(chunk, out=corner_buf)))
        else:
            part = coeff if coeff.ndim == 2 else coeff[chunk]
        blocks = _stiffness_blocks(mesh, part, out=block_buf[:chunk.stop - chunk.start])
        slots = _stencil_slots(mesh, chunk, out=slot_buf)
        # A constant coefficient's six pattern blocks are taken by every
        # cell.  np.add.at has a fast path for flat indices only.
        np.add.at(data, slots, np.broadcast_to(blocks.reshape(-1, 96),
                                               (len(slots) // 96, 96)).ravel())
    return data


_RESIDUAL_RTOL = 1e-10
# A COCG column stops once its recurrence residual is at most _COCG_RTOL of
# its right-hand side; a column still running after _COCG_MAX_ITERATIONS
# iterations raises SolverError.
_COCG_RTOL = 1e-13
_COCG_MAX_ITERATIONS = 200
# A closed-form Schur complement is checked on this many fixed-seed complex
# combinations of its columns.
_SCHUR_CHECKS = 3


def _as_columns(x: np.ndarray) -> np.ndarray:
    """An (n,) or (n, c) array as (n, c) columns, n = 0 included."""
    return x[:, None] if x.ndim == 1 else x


def _check_residual(residual: np.ndarray, rhs: np.ndarray, first_column: int = 0,
                    what: str = "interior residual") -> float:
    """SolverError unless every column has |residual| <= 1e-10 |rhs|, for
    the residual K_II x - rhs of an interior solve (or the `what` of
    another check); returns the largest relative residual.

    A non-finite residual fails the check too.  The failing column is
    reported as `first_column` plus its position in `rhs`.
    """
    resid = np.linalg.norm(_as_columns(residual), axis=0)
    scale = np.maximum(np.linalg.norm(_as_columns(rhs), axis=0), 1e-300)
    bad = ~(resid <= _RESIDUAL_RTOL * scale)
    if np.any(bad):
        col = int(np.argmax(bad))
        raise SolverError(
            f"{what} too large",
            diagnostics={"residual": float(resid[col]), "scale": float(scale[col]),
                         "column": first_column + col},
        )
    return float(np.max(resid / scale, initial=0.0))


def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix of order n; it is symmetric and its own inverse."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


def _stencil_modes(n: int) -> np.ndarray:
    """Eigenvalues 2 - 2 cos(pi p / (n + 1)), p = 1..n, of tridiag(-1, 2, -1),
    in the order of the columns of `_sine_matrix(n)`."""
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))


def _sine_transform(shape, axes):
    """The orthonormal DST-I along `axes` of a box of interior `shape`, as
    a map of (columns, n) rows, one row per column, in C order.

    Each axis is one batched BLAS product, each batch item within one
    column, so a column's transform has the same bits whatever columns
    ride beside it.  The last axis of complex data, viewed as interleaved
    real and imaginary parts, is transformed by the sine matrix with each
    entry doubled.
    """
    n0, n1, n2 = shape
    sines = {a: _sine_matrix(shape[a]) for a in axes}
    if 2 in axes:
        last_sine = {False: sines[2], True: np.kron(sines[2], np.eye(2))}

    def transform(X: np.ndarray) -> np.ndarray:
        complex_data = np.iscomplexobj(X)
        R = X.view(np.float64) if complex_data else X
        columns, last = len(R), R.shape[1] // (n0 * n1)
        if 0 in sines:
            R = np.matmul(sines[0], R.reshape(columns, n0, n1 * last))
        if 1 in sines:
            R = np.matmul(sines[1], R.reshape(columns * n0, n1, last))
        if 2 in sines:
            R = np.matmul(R.reshape(columns, n0 * n1, last), last_sine[complex_data])
        R = R.reshape(columns, -1)
        return R.view(np.complex128) if complex_data else R

    return transform


def _tridiagonal_pivots(diag: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Elimination without pivoting of tridiagonals of order N, batched:
    diagonals `diag` (N, ...), and per row the scalar coupling `lower` to
    the row before and `upper` to the row after.  Returns the multipliers
    (N, ...) of the rows before (row 0's are zero) and the inverse pivots
    (N, ...); the last inverse pivot is the last corner entry of each
    inverse.  Complex symmetric tridiagonals with a positive definite real
    part need no pivoting."""
    multipliers = np.zeros_like(diag)
    inverse = np.empty_like(diag)
    inverse[0] = 1.0 / diag[0]
    for level in range(1, len(diag)):
        multipliers[level] = lower[level] * inverse[level - 1]
        inverse[level] = 1.0 / (diag[level] - multipliers[level] * upper[level - 1])
    return multipliers, inverse


def layered_solve(mesh: Mesh, layers: Layers):
    """Exact interior solve of a K whose interior rows vary along one axis
    only (`Layers`), on a full box: Hockney's Fourier-analysis method.  A
    constant K is one layer, repeated.

    The orthonormal DST-I along the two tangent axes diagonalises every
    level's tangent couplings, so each tangent mode (p, q) is one
    tridiagonal along the layer axis a, of order N_a: the level's centre
    plus 2 cos(theta_p) and 2 cos(theta_q) times its tangent couplings on
    the diagonal and its -e_a and +e_a slots off it (Swarztrauber's
    separable solver).  Its pivots are factored once, here, and a solve is
    one tangent transform, one Thomas sweep down and one up per mode, and
    a second tangent transform.  The levels may be complex; real levels
    keep real data real.  Returns solve(rhs) for (n,) or (n, c)
    right-hand sides on the interior vertices in mesh order; callers check
    its residuals.  Each column is transformed by BLAS calls of its own and
    swept elementwise, so its solution has the same bits whatever columns
    ride beside it.
    """
    if min(mesh.box_shape) == 0:
        raise GeometryError("the layered solve needs a mesh with interior vertices")
    shape = mesh.box_shape
    axis = layers.axis
    multipliers, inverse = _tridiagonal_pivots(layers.modes(shape), layers.lower, layers.upper)
    transform = _sine_transform(shape, layers.tangents)

    def solve(rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        cols = rhs.reshape(len(rhs), -1)
        X = transform(np.ascontiguousarray(cols.T, dtype=np.result_type(rhs, inverse)))
        # Level l of every column and mode, Y[l] (columns, N_t0, N_t1), one
        # contiguous block per level, so that the sweeps stream through it.
        Y = np.ascontiguousarray(np.moveaxis(X.reshape((cols.shape[1],) + shape), 1 + axis, 0))
        del X
        for level in range(1, len(Y)):
            Y[level] -= multipliers[level] * Y[level - 1]
        Y[-1] *= inverse[-1]
        for level in range(len(Y) - 2, -1, -1):
            Y[level] -= layers.upper[level] * Y[level + 1]
            Y[level] *= inverse[level]
        X = np.ascontiguousarray(np.moveaxis(Y, 0, 1 + axis)).reshape(cols.shape[1], -1)
        return np.ascontiguousarray(transform(X).T).reshape(rhs.shape)

    return solve


def _face_schur(mesh: Mesh, read: _SolverRead, sigma: np.ndarray) -> Optional[np.ndarray]:
    """Closed-form Schur complement onto the boundary dofs sigma of a K
    whose interior is layered (`read.layers`, a `Layers` per layer axis),
    the other boundary dofs pinned to zero; None unless sigma lies in the
    interior of one box face, normal to a layer axis a, whose interior
    rows share one axis-only stencil, symmetric along the face: the face
    `Layers` of one level that the read kept (`read.faces`).

    Mode (p, q) of the face's 2-D orthonormal DST-I basis Phi is mode
    (p, q) of K_II: the tridiagonal along a of `layered_solve`.  The face
    rows give K_FF = lambda_F in modes (their centre and tangent
    couplings) and the coupling c_F of each face dof to the interior
    vertex next to it, and that vertex's level the coupling c_I back.  So
    the Schur complement onto F is Phi diag(mu) Phi^T with
    mu = lambda_F - c_F c_I r, where r_pq, the corner entry at F of the
    inverse of mode (p, q)'s tridiagonal, is its last inverse pivot with
    the levels taken from the far face in (the capacitance-matrix idea of
    Buzbee, Dorr, George and Golub, 1971).  Onto sigma it is the
    restriction, since the other face dofs are pinned, formed on sigma's
    bounding rectangle of the face by two contractions, one per tangent
    axis.  The stencils may be complex.
    """
    where = _face_of(mesh, sigma)
    if where is None or where[0] not in read.layers:
        return None
    axis, t, rel = where
    low = rel[0, axis] == 0
    face = read.faces.get((axis, 0 if low else 1))
    if face is None:
        return None
    shape = np.array(mesh.box_shape)
    levels = read.layers[axis]
    diag, lower, upper = levels.modes(shape), levels.lower, levels.upper
    if low:
        # The corner at level 0 is the last of the levels taken in reverse.
        diag, lower, upper = diag[::-1], upper[::-1], lower[::-1]
    corner = _tridiagonal_pivots(diag, lower, upper)[1][-1]
    # c_F, from the face into the interior, and c_I, from the last level
    # (in this order) out to the face.
    c_face = face.upper[0] if low else face.lower[0]
    mu = face.modes(shape)[0] - c_face * upper[-1] * corner
    lo, hi = rel[:, t].min(axis=0), rel[:, t].max(axis=0)
    A, B = (_sine_matrix(shape[b])[lo[k] - 1:hi[k]] for k, b in enumerate(t))
    # S[(i, j), (k, l)] = sum_pq A_ip A_kp mu_pq B_jq B_lq over the rectangle.
    M = (A[:, None, :] * A[None, :, :]).reshape(len(A) ** 2, -1) @ mu
    BB = (B[:, None, :] * B[None, :, :]).reshape(len(B) ** 2, -1)
    S = (M @ BB.T).reshape(len(A), len(A), len(B), len(B)).transpose(0, 2, 1, 3)
    S = S.reshape(len(A) * len(B), -1)
    idx = (rel[:, t[0]] - lo[0]) * len(B) + (rel[:, t[1]] - lo[1])
    return S[np.ix_(idx, idx)]


def _face_of(mesh: Mesh, sigma: np.ndarray):
    """(axis, tangent axes, sigma's lattice positions in the box) of the
    box face, normal to axis, in whose interior sigma lies; None if it
    lies in none."""
    if not len(sigma):
        return None
    shape = np.array(mesh.box_shape)
    rel = mesh.ijk[sigma] - mesh.lo
    for axis in range(3):
        t = [b for b in range(3) if b != axis]
        level = rel[0, axis]
        if (level in (0, shape[axis] + 1) and np.all(rel[:, axis] == level)
                and np.all((rel[:, t] >= 1) & (rel[:, t] <= shape[t]))):
            return axis, t, rel
    return None


def _diagonal_stencils(h: float, weights):
    """The 15-point stencils of the P1 stiffness of a constant
    diag(weights) on the Kuhn lattice: its interior rows (15,),
    h sum_a w_a (2 u - u(x - h e_a) - u(x + h e_a)), and its rows inside
    the face normal to each axis a (3, 15), which keep the whole coupling
    -h w_a into the interior and half of every other entry.  A face
    stencil holds that coupling at both -e_a and +e_a, so that it serves
    either face normal to a."""
    w = h * np.asarray(weights)
    interior = np.zeros(15, dtype=w.dtype)
    interior[_CENTRE] = 2.0 * w.sum()
    interior[_LOWER] = interior[_UPPER] = -w
    faces = np.tile(interior / 2.0, (3, 1))
    for a in range(3):
        faces[a, _LOWER[a]] = faces[a, _UPPER[a]] = -w[a]
    return interior, faces


def _column_sums(M: np.ndarray) -> np.ndarray:
    """Sum of each column of an (n, m) array.

    Each column is summed as one contiguous row, so its sum has the same
    bits whatever columns ride beside it.
    """
    return np.ascontiguousarray(M.T).sum(axis=1)


def _column_norms(M: np.ndarray) -> np.ndarray:
    return np.sqrt(_column_sums(M.real ** 2 + M.imag ** 2))


def _cocg(apply, precondition, rhs: np.ndarray, carried: int = 0, name: str = "COCG"):
    """Block COCG solve of A x = rhs for (n, m) columns, A complex symmetric.

    COCG is preconditioned CG with the unconjugated bilinear form x^T y
    (van der Vorst and Melissen, 1990); `apply(P)` returns A P and
    `precondition` must be complex symmetric too.  With `carried` > 0,
    `apply(P)` returns (A P, C P) for a map C, linear in P, to `carried`
    rows, and the solution carries C x stacked below x, summed over the
    steps with x's own step lengths.  Every column keeps its own scalars
    and stops once its recurrence residual is at most `_COCG_RTOL` of its
    right-hand side; a stopped column is frozen, so its solution does not
    depend on the block it rides in, and an all-zero column returns zeros
    without iterating.
    Returns the (n + carried, m) solutions and each column's iteration
    count.  SolverError, naming the worst running column, its iterations
    and its residual, if a column breaks down or is still running after
    `_COCG_MAX_ITERATIONS` iterations.
    """
    n = rhs.shape[0]
    X = np.zeros((n + carried, rhs.shape[1]), dtype=complex)
    iterations = np.zeros(rhs.shape[1], dtype=np.int64)
    scale = _column_norms(rhs)
    live = np.flatnonzero(scale > 0.0)
    if not live.size:
        return X, iterations
    R = np.array(rhs[:, live], dtype=complex)
    X_live = np.zeros((n + carried, len(live)), dtype=complex)
    P = precondition(R)
    rho = _column_sums(R * P)
    for step in range(1, _COCG_MAX_ITERATIONS + 1):
        Q = apply(P)
        if carried:
            Q, CP = Q
        alpha = rho / _column_sums(P * Q)
        if carried:
            CP *= alpha
            X_live[n:] += CP
            del CP
        # Q is scratch once it has updated the residual.  Q and Z are freed
        # as soon as they are used, so fewer blocks are live at a time.
        Q *= alpha
        R -= Q
        np.multiply(P, alpha, out=Q)
        X_live[:n] += Q
        del Q
        residual = _column_norms(R) / scale[live]
        if not np.all(np.isfinite(residual)):
            _cocg_failure(f"{name} broke down", step, residual, live)
        done = residual <= _COCG_RTOL
        if np.any(done):
            X[:, live[done]] = X_live[:, done]
            iterations[live[done]] = step
            if np.all(done):
                return X, iterations
            keep = ~done
            live, rho = live[keep], rho[keep]
            X_live, R, P = X_live[:, keep], R[:, keep], P[:, keep]
        Z = precondition(R)
        rho_next = _column_sums(R * Z)
        P *= rho_next / rho
        P += Z
        del Z
        rho = rho_next
    _cocg_failure(f"{name} did not converge", _COCG_MAX_ITERATIONS,
                  _column_norms(R) / scale[live], live)


def _cocg_failure(message: str, step: int, residual: np.ndarray, live: np.ndarray):
    """SolverError naming the running column with the largest relative
    recurrence residual (a non-finite one first)."""
    worst = int(np.argmax(np.where(np.isfinite(residual), residual, np.inf)))
    raise SolverError(
        f"{message} after {step} iterations (relative residual {residual[worst]:.3g})",
        diagnostics={"iterations": step, "residual": float(residual[worst]),
                     "column": int(live[worst])})


def _dirichlet_columns(mesh: Mesh, g) -> np.ndarray:
    """Dirichlet data g, one full-length nodal vector (n,) or one per
    column (n, c), as (n, c) complex columns that are zero off the boundary.

    ConfigError unless g is full length; SolverError naming the first
    column whose boundary data is not finite.
    """
    g = np.asarray(g, dtype=complex)
    n = mesh.n_vertices
    if g.ndim not in (1, 2) or g.shape[0] != n:
        raise ConfigError("boundary data must be full-length nodal vectors")
    cols = g.reshape(n, -1)
    boundary = mesh.boundary_vertex_mask
    g_bnd = cols[boundary]
    finite = np.all(np.isfinite(g_bnd), axis=0)
    if not np.all(finite):
        raise SolverError("boundary data contains non-finite values",
                          diagnostics={"column": int(np.argmin(finite))})
    values = np.zeros(cols.shape, dtype=complex)
    values[boundary] = g_bnd
    return values


class Layers:
    """The rows of a K that varies along one axis only, or not at all: the
    layer `axis` a and the 15-point stencil (N_a, 15) shared by the rows of
    each level along it, the interior levels of a layered K or the one
    level of a face normal to a.  Each level's stencil is axis-only and
    the same at -e_t and +e_t for both tangent axes t; along a, its slots
    at -e_a (`lower`) and +e_a (`upper`) may differ."""

    def __init__(self, axis: int, stencils: np.ndarray):
        self.axis, self.stencils = axis, stencils
        self.tangents = [b for b in range(3) if b != axis]
        self.lower = stencils[:, _LOWER[axis]]
        self.upper = stencils[:, _UPPER[axis]]

    @classmethod
    def of(cls, axis: int, stencils: np.ndarray) -> Optional[Layers]:
        """The layers of these level stencils along `axis`, or None unless
        each is axis-only and symmetric along both tangent axes."""
        t = [b for b in range(3) if b != axis]
        if np.any(stencils[:, ~_AXIS_SLOTS]) or not np.array_equal(stencils[:, _LOWER[t]],
                                                                    stencils[:, _UPPER[t]]):
            return None
        return cls(axis, stencils)

    def modes(self, shape) -> np.ndarray:
        """Diagonal (N_a, N_t0, N_t1) of the tridiagonal along the layer axis
        of each tangent sine mode (p, q): the centre plus 2 cos(theta_p)
        and 2 cos(theta_q) times the level's tangent couplings."""
        t0, t1 = (self.stencils[:, _UPPER[b]] for b in self.tangents)
        cos0, cos1 = (2.0 - _stencil_modes(shape[b]) for b in self.tangents)
        return (self.stencils[:, _CENTRE, None, None] + t0[:, None, None] * cos0[None, :, None]
                + t1[:, None, None] * cos1[None, None, :])


class _SolverRead(NamedTuple):
    """The interior solver of a box system, read from its stencil
    (`_read_solver`): its `kind`, the `Layers` by layer axis that
    `layered_solve` and `_face_schur` take (K's own, or under box-cocg
    those of diag(w)), the face `Layers` of one level by (axis, side) that
    `_face_schur` takes, side 0 the low face and 1 the high one, and the
    box-cocg `weights` w."""

    kind: str
    layers: dict
    faces: dict
    weights: Optional[np.ndarray] = None


def _box_cocg_read(mesh: Mesh, weights: np.ndarray) -> _SolverRead:
    """The box-cocg read of the weights w: the layers and the face layers
    of diag(w) (`_diagonal_stencils`), whose layered solve preconditions
    COCG, each face stencil serving both faces normal to its axis."""
    interior, faces = _diagonal_stencils(mesh.h, weights)
    layers = {a: Layers(a, np.broadcast_to(interior, (n, 15)))
              for a, n in enumerate(mesh.box_shape)}
    return _SolverRead("box-cocg", layers, {(a, side): Layers(a, faces[a][None])
                                            for a in range(3) for side in (0, 1)}, weights)


def _read_solver(mesh: Mesh, data: np.ndarray) -> _SolverRead:
    """The interior solver of the 15-point stencil array `data` (15 n,) of a
    box mesh, read from its interior rows S, a strided view of shape
    box_shape + (15,).

    "layered" along an axis a when every row of S equals the first row of
    its level along a (S[:, 0, 0], S[0, :, 0] or S[0, 0, :]) and those
    level stencils are `Layers` along a: a constant K is layered along
    all three axes, and one that varies along a only along a alone.  Each
    face normal to a layer axis whose interior rows share one stencil that
    is `Layers` along a keeps it, as one level, for `_face_schur`.
    "box-cocg" otherwise, with the mean second moments
    w_a = -1/2 sum_s K_rs s_a^2 / h over the interior rows and their
    offsets s, for a P1 stiffness of a constant or affine coefficient its
    mean diagonal to rounding; the moments are summed row by row over
    chunks of whole lines of rows within `_BLOCK_BYTES`, so they have the
    same bits whatever the chunk.  A real K has real layers and weights,
    and a box with no interior vertex reads as "layered" along no axis.
    Every stencil kept is the copy 0.0 + row, so a signed zero reads as 0
    and the read keeps no reference to `data`.
    """
    shape = mesh.box_shape
    if not min(shape):
        return _SolverRead("layered", {}, {})
    grid = data.reshape(tuple(s + 2 for s in shape) + (15,))
    S = grid[1:-1, 1:-1, 1:-1]
    layers = {}
    for a, first in enumerate((S[:, :1, :1], S[:1, :, :1], S[:1, :1, :])):
        if np.all(S == first):
            found = Layers.of(a, 0.0 + first.reshape(-1, 15))
            if found is not None:
                layers[a] = found
    if layers:
        faces = {}
        for a, side in itertools.product(layers, (0, 1)):
            # The face's interior rows: side 0 is level 0 along a, side 1 the last.
            rows = np.moveaxis(grid, a, 0)[-side, 1:-1, 1:-1]
            face = Layers.of(a, 0.0 + rows[0, :1]) if np.all(rows == rows[0, 0]) else None
            if face is not None:
                faces[a, side] = face
        return _SolverRead("layered", layers, faces)
    # About 1 KB of temporaries per row.
    lines = max(1, _BLOCK_BYTES // (1024 * shape[2]))
    total = np.zeros(3, dtype=data.dtype)
    for i, j in itertools.product(range(shape[0]), range(0, shape[1], lines)):
        rows = S[i, j:j + lines].reshape(-1, 15)
        # cumsum adds in order, so a row's moment and the total, added row
        # by row, have the bits of one pass over all rows.
        moments = np.stack([np.cumsum(rows[:, _STENCIL_OFFSETS[:, a] != 0], axis=1)[:, -1]
                            for a in range(3)], axis=1)
        total = np.cumsum(np.vstack([total[None], moments]), axis=0)[-1]
    return _box_cocg_read(mesh, -0.5 * (total / math.prod(shape)) / mesh.h)


class _SolverCounters:
    """The counters that a run's manifest reports for a system.

    `factored_dofs` counts the dofs of every matrix the system has
    factored or inverted, `solve_calls` and `rhs_columns` the calls into
    its interior solver and their columns, `krylov_iterations` and
    `krylov_iterations_max` the COCG iterations summed over those columns
    and the most any one column took, `solve_seconds` the wall time spent
    in those calls (for a via-core system, in its Dirichlet solves), and
    `worst_residual` is the largest relative residual that a residual
    check of the system has passed.  The manifest entry adds
    `stored_bytes`, the bytes of the matrices the system keeps
    (`stored_bytes()`).
    """

    def __init__(self):
        self.factored_dofs = 0
        self.solve_calls = 0
        self.rhs_columns = 0
        self.krylov_iterations = 0
        self.krylov_iterations_max = 0
        self.solve_seconds = 0.0
        self.worst_residual = 0.0

    def _count_krylov(self, iterations: np.ndarray) -> None:
        self.krylov_iterations += int(iterations.sum())
        self.krylov_iterations_max = max(self.krylov_iterations_max,
                                         int(iterations.max(initial=0)))

    def counters(self) -> dict:
        """Plain copies of the counters, with the interior solver kind and
        the interior dofs.  The dict holds no reference to the system."""
        return {
            "kind": self.solver_kind, "interior_dofs": len(self.interior),
            "factored_dofs": self.factored_dofs,
            "solve_calls": self.solve_calls, "rhs_columns": self.rhs_columns,
            "krylov_iterations": self.krylov_iterations,
            "krylov_iterations_max": self.krylov_iterations_max,
            "solve_seconds": self.solve_seconds,
            "worst_residual": self.worst_residual,
            "stored_bytes": self.stored_bytes(),
        }


class BlockSystem(_SolverCounters):
    """Assembled complex matrix K = K_R + i K_I on one full lattice box,
    with its interior solver.

    K is kept once, split into the interior blocks `_K_ii` and `_K_ib` and
    the boundary rows `_K_b`, and never whole: the interior solve reads the
    blocks, and the DtN pairing, the probe fluxes and the Omega_eta
    footprint read boundary rows (`boundary_rows`, `product`).
    `from_stencil` builds the blocks straight from `assemble`'s 15-point
    stencil rows, and reads the interior solver from the same stencil,
    once, there (`_read_solver`); it is named by `solver_kind`:

    - "layered" where the rows of each level along some axis share one
      axis-only stencil, as a diagonal coefficient that is constant or
      varies along one axis gives: `layered_solve`, a tangent DST and one
      Thomas solve per mode along the layer axis (along the last axis for
      a constant K, which is layered along all three);
    - "box-cocg" for any other K (a full anisotropic coefficient, a bump
      field, a gradient oblique to the axes): COCG preconditioned by
      `layered_solve` of the stencil of diag(w), w the mean second moments
      of its interior rows, each column stopped at a recurrence residual
      of `_COCG_RTOL`.

    A layered system's Schur complement onto dofs inside a face normal to
    a layer axis, whose interior rows share one stencil, is the closed
    form `_face_schur`; any other is solved column by column.

    A system with no interior dof, such as the bump of a
    `SubstructuredSystem` one cell thick, solves nothing.  `field` is the
    (family, a) that `assemble` built it from.  The counters are those
    of `_SolverCounters`.

    The system keeps its interior solver, which holds no reference back to
    it, and runs COCG itself, so a system and its Krylov scratch are freed
    by reference counting as soon as the last reader drops it.  Every
    solver gives a column the same bits whatever columns are solved beside
    it.  `schur_onto` keeps its last result, and answers any subset of its
    dofs by restriction: the Omega system's Schur complement onto the DtN
    basis gives the footprint part of its Omega_eta system's interface
    preconditioner exactly.
    """

    def __init__(self, mesh: Mesh):
        super().__init__()
        self.mesh = mesh
        self.field = None
        self._interior = np.where(~mesh.boundary_vertex_mask)[0]
        self._boundary = np.where(mesh.boundary_vertex_mask)[0]
        # The interior solve, or under box-cocg its preconditioner.
        self._solve = None
        # The dofs and the read-only result of the last Schur complement.
        self._schur = None

    @classmethod
    def from_stencil(cls, mesh: Mesh, data: np.ndarray) -> BlockSystem:
        """The system of the 15-point stencil array `data` (15 n,) of a box
        mesh: its blocks built straight from the stencil rows
        (`_stencil_blocks`), so K is never formed whole, and its interior
        solver read from them (`_read_solver`)."""
        system = cls(mesh)
        system._K_ii, system._K_ib, system._K_b = _stencil_blocks(
            mesh, data, system._interior, system._boundary)
        system._read = _read_solver(mesh, data)
        return system

    def _boundary_positions(self, dofs: np.ndarray, what: str) -> np.ndarray:
        """Positions of the dofs among the boundary vertices; ConfigError
        naming `what` unless every one is a boundary vertex."""
        pos = np.searchsorted(self._boundary, dofs)
        if np.any(pos >= len(self._boundary)) or np.any(self._boundary[pos] != dofs):
            raise ConfigError(f"{what} must be boundary vertices")
        return pos

    def boundary_rows(self, dofs: np.ndarray) -> sp.csr_matrix:
        """The rows K[dofs] of boundary dofs, from the boundary rows kept."""
        return self._K_b[self._boundary_positions(dofs, "row dofs")]

    def product(self, x: np.ndarray) -> np.ndarray:
        """K x for (n,) or (n, c) x: K_II x_I + K_IB x_B on the interior rows
        and the boundary rows kept on the others, so that each boundary row
        has the bits of a row of K x."""
        out = np.empty(x.shape, dtype=np.result_type(self._K_b.dtype, x))
        out[self._interior] = self._K_ii @ x[self._interior] + self._K_ib @ x[self._boundary]
        out[self._boundary] = self._K_b @ x
        return out

    def stored_bytes(self) -> int:
        """Bytes of the matrices the system keeps: its three blocks."""
        return sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                   for m in (self._K_ii, self._K_ib, self._K_b))

    @property
    def interior(self) -> np.ndarray:
        return self._interior

    @property
    def boundary(self) -> np.ndarray:
        return self._boundary

    @property
    def solver_kind(self) -> str:
        return self._read.kind

    def _interior_solver(self):
        """The layered solve of K, or of COCG's preconditioner, along its
        last layer axis."""
        layers = self._read.layers
        return layered_solve(self.mesh, layers[max(layers)])

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """K_II^{-1} rhs for an (n,) or (n, d) right-hand side."""
        self.solve_calls += 1
        self.rhs_columns += rhs.shape[1] if rhs.ndim == 2 else 1
        if not len(self._interior):
            # An empty interior block: nothing to solve.
            return np.zeros_like(rhs)
        start = time.perf_counter()
        try:
            if self._solve is None:
                self._solve = self._interior_solver()
            if self.solver_kind != "box-cocg":
                return self._solve(rhs)
            x, iterations = _cocg(self._K_ii.__matmul__, self._solve, rhs.reshape(len(rhs), -1))
            self._count_krylov(iterations)
            return x.reshape(rhs.shape)
        finally:
            self.solve_seconds += time.perf_counter() - start

    def _check(self, x: np.ndarray, rhs: np.ndarray, first_column: int = 0) -> None:
        """Residual check of an interior solve, kept in `worst_residual`."""
        rhs = _as_columns(rhs)
        worst = _check_residual(self._K_ii @ _as_columns(x) - rhs, rhs, first_column)
        self.worst_residual = max(self.worst_residual, worst)

    def _subset_positions(self, sigma: np.ndarray) -> Optional[np.ndarray]:
        """Positions of the dofs sigma among those of the memoised Schur
        complement, or None unless it holds every one of them."""
        if self._schur is None or not len(self._schur[0]):
            return None
        dofs = self._schur[0]
        order = np.argsort(dofs, kind="stable")
        pos = order[np.minimum(np.searchsorted(dofs, sigma, sorter=order), len(dofs) - 1)]
        return pos if np.array_equal(dofs[pos], sigma) else None

    def schur_onto(self, sigma) -> np.ndarray:
        """Dense Schur complement K_ss - K_sI K_II^{-1} K_Is onto the boundary
        dofs sigma, the others pinned to zero; read-only.

        The last result is memoised, and the same sigma returns it.
        Pinning the other boundary dofs makes the Schur complement onto a
        subset of its dofs the restriction of it, and both interior solvers
        give each column the same bits whatever block it is solved in, so
        a subset is answered by indexing, with the bits of a fresh solve
        and no interior solve.  Any other sigma is computed and replaces
        the memo.

        A layered system with sigma in the interior of a face normal to a
        layer axis, whose interior rows share one stencil, takes the closed
        form `_face_schur`, and checks it on `_SCHUR_CHECKS` fixed-seed
        complex combinations v of its columns: K_ss v - K_sI x, with x the
        interior solve of K_Is v (itself residual-checked), must match S v
        to 1e-10 relative.  Any other system or sigma is solved column by
        column, in equal blocks of at most `_BLOCK_BYTES` of complex
        (interior x column) data, so no array of interior size grows with
        |sigma|; each block is one multi-column interior solve, and each
        column's residual is checked.
        """
        sigma = np.array(sigma, dtype=int)
        if self._schur is not None and np.array_equal(self._schur[0], sigma):
            return self._schur[1]
        pos = self._subset_positions(sigma)
        if pos is not None:
            S = self._schur[1][np.ix_(pos, pos)]
            S.flags.writeable = False
            return S
        cols = self._boundary_positions(sigma, "Schur complement dofs")
        # K_sI is sliced, not transposed from K_Is: an anisotropic K is
        # symmetric only to rounding.
        K_s = self._K_b[cols]
        K_si = K_s[:, self._interior]
        S = None
        if len(self._interior) and self.solver_kind == "layered":
            S = _face_schur(self.mesh, self._read, sigma)
        if S is not None:
            self._check_schur(S, K_s[:, sigma], K_si, cols)
        else:
            S = self._column_schur(K_s[:, sigma].toarray(), K_si, cols)
        S.flags.writeable = False
        self._schur = (sigma, S)
        return S

    def _column_schur(self, S: np.ndarray, K_si, cols: np.ndarray) -> np.ndarray:
        """K_ss - K_sI K_II^{-1} K_Is from K_ss, solved in column blocks."""
        d = len(cols)
        cap = max(1, _BLOCK_BYTES // (16 * max(1, len(self._interior))))
        blocks = max(1, math.ceil(d / cap))
        width = max(1, math.ceil(d / blocks))
        for start in range(0, d, width):
            block = slice(start, start + width)
            K_is = self._K_ib[:, cols[block]].toarray()
            try:
                X = self._solve_interior(K_is)
            except SolverError as exc:
                # Name a failed column by its position in sigma.
                if "column" in exc.diagnostics:
                    exc.diagnostics["column"] += start
                raise
            self._check(X, K_is, first_column=start)
            flux = K_si @ X
            # Freed before the next block is sliced, so one block is live.
            del K_is, X
            # A real K has complex solves under a COCG solver.
            S = S.astype(np.result_type(S, flux), copy=False)
            S[:, block] -= flux
        return S

    def _check_schur(self, S: np.ndarray, K_ss, K_si, cols: np.ndarray) -> None:
        """SolverError unless S v = K_ss v - K_sI K_II^{-1} K_Is v to 1e-10
        relative for `_SCHUR_CHECKS` fixed-seed complex combinations v of
        the columns; the residuals are kept in `worst_residual`."""
        rng = np.random.default_rng(0)
        shape = (len(cols), _SCHUR_CHECKS)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rhs = self._K_ib[:, cols] @ v
        x = self._solve_interior(rhs)
        self._check(x, rhs)
        direct = K_ss @ v - K_si @ x
        worst = _check_residual(S @ v - direct, direct, what="Schur complement check residual")
        self.worst_residual = max(self.worst_residual, worst)

    def _preconditioner_schur(self, sigma: np.ndarray) -> np.ndarray:
        """A Schur complement onto the boundary dofs sigma that solves no
        column, for a preconditioner.  With sigma in the interior of a face
        normal to a layer axis it is the closed form `_face_schur`: exact
        for a layered system, and for a box-cocg system whose memo does not
        hold sigma that of diag(w), whose layered solve preconditions COCG.
        A memo that holds sigma gives the exact restriction, and any other
        sigma the exact `schur_onto`."""
        memo = self._schur is not None and (np.array_equal(self._schur[0], sigma)
                                            or self._subset_positions(sigma) is not None)
        if len(self._interior) and (self.solver_kind == "layered" or not memo):
            S = _face_schur(self.mesh, self._read, sigma)
            if S is not None:
                return S
        return self.schur_onto(sigma)

    def solve_dirichlet(self, g):
        """Solve with Dirichlet data g, one full-length nodal vector (n,) or
        one per column (n, c).

        Returns the complex solution, an array shaped like g; all columns
        share one interior solve and each column's residual is checked, so
        a non-finite solution raises SolverError.
        """
        values = _dirichlet_columns(self.mesh, g)
        rhs = -(self._K_ib @ values[self._boundary])
        u_int = self._solve_interior(rhs)
        self._check(u_int, rhs)
        values[self._interior] = u_int
        return values.reshape(np.shape(g))


class LatticeVertices:
    """The vertices of the union of two lattice boxes that is not meshed
    whole, Omega_eta's: the Omega box `core` and the bump box `bump` over
    its patch.  It has their integer keys `ijk`, their points `verts` and
    the union's `boundary_vertex_mask`, as a `Mesh` has them, and no tet.
    None of it depends on a field, so a frame builds it once
    (`LabFrame.eta_vertices`) and every field's `SubstructuredSystem`
    shares it.  GeometryError unless both boxes are on one lattice, their
    cells do not overlap and they share a vertex inside the union.

    The vertices are the core's, in their order, then the bump's other
    vertices, in bump order.  A vertex is on the boundary when one of its
    8 lattice cells is a cell of neither box.  `interior` lists the
    others, and the `footprint` the shared vertices off the boundary, in
    core order (lexicographic), which are boundary vertices of both boxes;
    `bump_map` is the index here of each bump vertex and `bump_footprint`
    the index in the bump of each footprint vertex.
    """

    def __init__(self, core: Mesh, bump: Mesh):
        c, b = core, bump
        if c.h != b.h or not np.array_equal(c.anchor, b.anchor):
            raise GeometryError("the core and the bump are not on one lattice")
        if np.all(np.maximum(c.lo, b.lo) < np.minimum(c.hi, b.hi)):
            raise GeometryError(
                "the core and the bump overlap, so they have no disjoint interiors")
        self.core, self.bump = core, bump
        shared = np.all((b.ijk >= c.lo) & (b.ijk <= c.hi), axis=1)
        own = ~shared
        n_core = c.n_vertices
        self.bump_map = np.empty(b.n_vertices, dtype=np.int64)
        self.bump_map[shared] = c.vertex_indices(b.ijk[shared])
        self.bump_map[own] = n_core + np.arange(np.count_nonzero(own))
        self.ijk = np.concatenate([c.ijk, b.ijk[own]])
        self.verts = np.concatenate([c.verts, b.verts[own]])
        # A vertex inside either box is inside the union.
        boundary = np.concatenate([c.boundary_vertex_mask, b.boundary_vertex_mask[own]])
        candidates = np.flatnonzero(boundary)
        boundary[candidates] = _on_open_cell(self.ijk[candidates], (c, b))
        self.boundary_vertex_mask = boundary
        self.interior = np.flatnonzero(~boundary)
        in_bump = np.zeros(n_core, dtype=bool)
        in_bump[self.bump_map[shared]] = True
        self.footprint = np.flatnonzero(in_bump & ~boundary[:n_core])
        if not len(self.footprint):
            raise GeometryError("no vertex inside the union is a vertex of both parts")
        self.bump_footprint = b.vertex_indices(self.ijk[self.footprint])

    @property
    def n_vertices(self) -> int:
        return len(self.verts)


def _on_open_cell(ijk: np.ndarray, boxes) -> np.ndarray:
    """Whether one of the 8 lattice cells around each vertex of `ijk`
    (m, 3) is a cell of none of the meshes `boxes`."""
    open_cell = np.zeros(len(ijk), dtype=bool)
    for offset in _CORNER_OFFSETS:
        cell = ijk - offset
        covered = np.zeros(len(ijk), dtype=bool)
        for box in boxes:
            covered |= np.all((cell >= box.lo) & (cell < box.hi), axis=1)
        open_cell |= ~covered
    return open_cell


class SubstructuredSystem(_SolverCounters):
    """The system of a field on the union of two lattice boxes, solved
    through the same field's systems on the boxes, with no mesh or matrix
    of the union: the Omega_eta system, from the Omega system `core` and
    the system `bump` of the bump box over the patch (`LabFrame.bump`).
    GeometryError unless both parts were assembled from the same field on
    one lattice, their cells do not overlap and they share a vertex inside
    the union.

    The union's vertices, `mesh`, are the `LatticeVertices` record of the
    parts' meshes, given (the frame's, shared by every field) or built
    here; GeometryError if a given record is of other meshes.  The parts'
    cells tile the union, so its matrix is the sum of theirs.  Their
    interiors are disjoint interior vertices, and the rest of the
    interior, the `footprint` f, are boundary vertices of both parts.  A
    Dirichlet solve is two-subdomain iterative
    substructuring (Smith, Bjorstad and Gropp, 1996): both parts are solved
    with u pinned to zero on f, and u_f solves T u_f = -(K u)_f, where
    T = S_core(f) + S_bump(f) is the sum of the parts' Schur complements
    onto f (Steklov-Poincare).  T is never formed: COCG on the footprint
    applies it by one core solve with data p on f, whose flux on f is
    S_core(f) p, plus the dense S_bump(f) p, and carries the core interior
    of each such solve, so by linearity the core interior of the answer
    costs no further solve; the bump, thin, is solved again with u_f.  The
    preconditioner (S~_core(f) + S_bump(f))^{-1} is inverted once, at the
    first solve; S~_core is `BlockSystem._preconditioner_schur`, exact for
    a layered core (f lies on the face normal to the patch, so on one
    normal to a layer axis when that is the patch normal, as it always is
    for a constant K, and the face's interior rows share one stencil, as
    every shipped field's do) or a core whose memo holds f, so there one
    interface step solves.  Each column's residual over the whole interior,
    the parts' interior rows and the footprint rows summed over both, is
    checked against the column's -K_IB g.

    Its counters (`_SolverCounters`) name the kind "via-core":
    `factored_dofs` is |f|, the inverted preconditioner, `solve_calls` and
    `rhs_columns` count its Dirichlet solves, and `krylov_iterations` and
    `krylov_iterations_max` its interface iterations; the part solves, and
    their COCG iterations, count in the parts' counters.  A stalled
    interface iteration raises SolverError with its iterations and residual.
    """

    solver_kind = "via-core"

    def __init__(self, core: BlockSystem, bump: BlockSystem,
                 mesh: Optional[LatticeVertices] = None):
        if bump.field != core.field:
            raise GeometryError("the core and the bump were assembled from different fields")
        if mesh is None:
            mesh = LatticeVertices(core.mesh, bump.mesh)
        elif mesh.core is not core.mesh or mesh.bump is not bump.mesh:
            raise GeometryError("the vertex record is not of the core's and the bump's meshes")
        super().__init__()
        self.core, self.bump, self.mesh = core, bump, mesh
        self.interior, self.footprint = mesh.interior, mesh.footprint
        # Each part with the index here of each of its vertices (the core's
        # are its own) and the index in it of each footprint vertex.
        self._parts = [(core, slice(0, core.mesh.n_vertices), self.footprint),
                       (bump, mesh.bump_map, mesh.bump_footprint)]
        # The core's blocks on f, which apply S_core(f) through its interior.
        f_core = self.footprint
        K_f = core.boundary_rows(f_core)
        self._K_ff, self._K_fI = K_f[:, f_core], K_f[:, core.interior]
        self._K_If = core._K_ib[:, np.searchsorted(core.boundary, f_core)]
        self._T_inv = None
        self._S_bump = None

    def _preconditioner(self) -> np.ndarray:
        """(S~_core(f) + S_bump(f))^{-1}, inverted at the first call."""
        if self._T_inv is None:
            (core, _, f_core), (bump, _, f_bump) = self._parts
            self._S_bump = bump.schur_onto(f_bump)
            self._T_inv = np.linalg.inv(core._preconditioner_schur(f_core) + self._S_bump)
            self.factored_dofs += len(self.footprint)
        return self._T_inv

    def _apply_interface(self, P: np.ndarray) -> np.ndarray:
        """T P for (|f|, c) footprint columns, and the core interior u of
        the core solve with data P on f, which gives S_core(f) P as
        K_ff P + K_fI u."""
        rhs = -(self._K_If @ P)
        u = self.core._solve_interior(rhs)
        self.core._check(u, rhs)
        return self._K_ff @ P + self._K_fI @ u + self._S_bump @ P, u

    def stored_bytes(self) -> int:
        """Bytes of the arrays the system keeps beside its parts: the
        inverted footprint preconditioner and S_bump(f), once built."""
        return sum(a.nbytes for a in (self._T_inv, self._S_bump) if a is not None)

    def _product(self, x: np.ndarray) -> np.ndarray:
        """K x for (n, c) columns: the parts' products, summed."""
        out = np.zeros(x.shape, dtype=complex)
        for part, vmap, _ in self._parts:
            out[vmap] += part.product(x[vmap])
        return out

    def solve_dirichlet(self, g):
        """Solve with Dirichlet data g, as `BlockSystem.solve_dirichlet`."""
        start = time.perf_counter()
        try:
            return self._solve_dirichlet(g)
        finally:
            self.solve_seconds += time.perf_counter() - start

    def _solve_dirichlet(self, g):
        values = _dirichlet_columns(self.mesh, g)
        T_inv = self._preconditioner()
        self.solve_calls += 1
        self.rhs_columns += values.shape[1]
        # The data is zero inside, so K applied to it is K_IB g there.
        rhs = -self._product(values)[self.interior]
        for part, vmap, _ in self._parts:
            values[vmap] = part.solve_dirichlet(values[vmap])
        x, iterations = _cocg(self._apply_interface, T_inv.__matmul__,
                              -self._product(values)[self.footprint],
                              carried=len(self.core.interior), name="interface COCG")
        self._count_krylov(iterations)
        values[self.footprint] = x[:len(self.footprint)]
        values[self.core.interior] += x[len(self.footprint):]
        bump, bump_map, _ = self._parts[1]
        values[bump_map] = bump.solve_dirichlet(values[bump_map])
        # K_II u_I + K_IB g is K u on the interior.
        worst = _check_residual(self._product(values)[self.interior], rhs)
        self.worst_residual = max(self.worst_residual, worst)
        return values.reshape(np.shape(g))


def _complex_stencil(mesh: Mesh, family: AdmittivityFamily, a: ParameterField) -> np.ndarray:
    """The complex 15-point stencil array (15 n,) of `assemble`: that of the
    coefficient family(x, a(x)) = A_R + i k A_I (`stiffness_stencil`)."""
    return stiffness_stencil(mesh, lambda x: family(x, a(x)), complex)


def assemble(mesh: Mesh, family: AdmittivityFamily, a: ParameterField) -> BlockSystem:
    """Block system for div(A(x, a(x)) grad u) = 0 on a mesh, at the
    family's own frequency k.

    The complex coefficient A_R + i k A_I = family(x, a(x)) is evaluated at
    each chunk's barycenters and its element blocks added into one complex
    15-point stencil array (`stiffness_stencil`).  The system
    reads its interior solver from that matrix (see `BlockSystem`), and
    records the (family, a) it was built from in `field`.
    """
    system = BlockSystem.from_stencil(mesh, _complex_stencil(mesh, family, a))
    system.field = (family, a)
    return system


def energy_density(mesh: Mesh, coeff, u, v, real: bool = False) -> np.ndarray:
    """Per-tet contributions (T,) vol * (coeff grad u) . grad v
    (unconjugated) of the nodal vectors u and v (n,), for a per-tet
    (T, 3, 3) or a constant 3x3 coefficient; with `real`, only their real
    parts, in a float array half the size.  Every Kuhn tet has the volume
    vol = h (h h) / 6, which has the bits of the triple product of its
    edges over 6 at the pitches 1/4 to 1/96.

    One pass over the chunks of whole cells of `tet_chunks`, each taking its
    corners from `Mesh.corners`: each gradient component of a Kuhn tet is
    the difference of two of its corner values over h (`_GRADIENT_CORNERS`),
    so its bits do not depend on the chunk.
    """
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if u.shape != (mesh.n_vertices,) or v.shape != u.shape:
        raise ConfigError("nodal vectors must be (n_vertices,) arrays")
    coeff = np.asarray(coeff)
    # Tet 6 c + p is Kuhn pattern p of cell c: a chunk of whole cells takes
    # the six patterns side by side.
    n_patterns = len(_TET_PATTERNS)
    up, down = _GRADIENT_CORNERS
    patterns = np.arange(n_patterns)[:, None]
    volume = mesh.h * (mesh.h * mesh.h) / 6.0
    out = np.empty(mesh.n_tets, dtype=float if real else complex)
    for chunk in tet_chunks(mesh.n_tets):
        corners = mesh.corners(chunk).reshape(-1, n_patterns, 4)
        ends, starts = corners[:, patterns, up], corners[:, patterns, down]
        # (C, 6, 3) gradients and the coefficient's flux of v's, each entry
        # summed term by term.
        gu, gv = ((w[ends] - w[starts]) / mesh.h for w in (u, v))
        c = coeff if coeff.ndim == 2 else coeff[chunk].reshape(-1, n_patterns, 3, 3)
        flux = sum(c[..., k] * gv[:, :, None, k] for k in range(3))
        dens = sum(gu[:, :, j] * flux[:, :, j] for j in range(3))
        out[chunk] = ((dens.real if real else dens) * volume).ravel()
    return out

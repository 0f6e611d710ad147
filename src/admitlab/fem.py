"""P1 tetrahedral finite elements on structured box (and bumped-box) meshes.

The complex divergence-form equation is assembled as the real 2x2-block
strongly elliptic system with blocks [A_R, -k A_I; k A_I, A_R] sampled at tet
barycenters (one-point quadrature).  A `BlockSystem` holds the equivalent
complex matrix K = K_R + i K_I and its interior solver; the block matrix is
materialised from K for the structure and ellipticity checks.  Every
Dirichlet solve and every Schur complement onto boundary dofs (the DtN
pairing and the trace Gram) goes through a `BlockSystem`: a sine-transform
solve where the interior block is a constant-weight 7-point stencil on a
full box, and conjugate orthogonal CG (COCG) preconditioned by that
sine-transform solve for any other coefficient on a full box.  `assemble`
builds one `BlockSystem` on one mesh.  An Omega_eta system is never
assembled whole: it is a `SubstructuredSystem` of the Omega system and the
system of the bump box outside it (`Mesh.part_outside`), whose footprint
between them is solved from its dense interface system, the sum of the two
parts' Schur complements (Steklov-Poincare).  Only a standalone mesh that
is not a box gets a sparse LU, which no command builds: the tests use it
as the oracle.

Meshes are built from integer lattice keys of a set of lattice cells,
the one source of their topology.  Every tet is one of the six Kuhn tets
of its lattice cube, positively oriented when the mesh is built, so a mesh
keeps the pattern index per tet and the geometry per pattern, and no
per-tet float array; its boundary is the Kuhn faces of the cell sides with
no cell across.  Every assembly adds element blocks into
a CSR pattern that each mesh computes once, since many admittivities are
assembled on the same pair of meshes.  One byte budget, `_BLOCK_BYTES`,
bounds the per-tet and per-column temporaries: tets are evaluated in
contiguous chunks and Schur complements solved in column blocks within it,
so only the live data grows with the mesh.  scipy is imported by the
functions that build or factor a matrix, so the commands that never
assemble one (validate, probe) do not pay for importing it, and
scipy.sparse.linalg only by the sparse LU.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .admittivity import AdmittivityFamily, ParameterField
from .errors import ConfigError, GeometryError, SolverError
from .geometry import BoundaryPatch, BoxDomain, EnlargedDomain

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

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

# The byte budget of every per-column and per-tet temporary: schur_onto
# solves its columns in dense complex (interior x column) blocks of at most
# this size, and the per-tet loops (assembly, energy densities)
# run over contiguous tet-order chunks whose (C, 4, 4) element blocks fit in
# it.
_BLOCK_BYTES = 1 << 20


def _tet_chunks(n_tets: int):
    """Contiguous tet-order slices whose float element blocks fit in
    `_BLOCK_BYTES`."""
    step = max(1, _BLOCK_BYTES // (16 * 8))
    for start in range(0, n_tets, step):
        yield slice(start, min(start + step, n_tets))


def _type_geometry(edges: np.ndarray, h: float):
    """Barycentric gradients (n, 4, 3) and volumes (n,) of positively
    oriented tets with integer edges (n, 3, 3) at pitch h."""
    e1, e2, e3 = (h * edges[:, a] for a in range(3))
    # det G for G = [e1 e2 e3] is the triple product e1.(e2 x e3).
    det = np.einsum("ti,ti->t", e1, np.cross(e2, e3))
    # Barycentric coordinates are lam = G^{-1}(x - x0), so the gradients
    # of lam_1..lam_3 are the rows of G^{-1}: (e2 x e3, e3 x e1, e1 x e2)/det.
    grads = np.empty((len(det), 4, 3))
    grads[:, 1] = np.cross(e2, e3)
    grads[:, 2] = np.cross(e3, e1)
    grads[:, 3] = np.cross(e1, e2)
    grads[:, 1:] /= det[:, None, None]
    grads[:, 0, :] = -np.sum(grads[:, 1:, :], axis=1)
    return grads, det / 6.0


def _int_cells(extent: float, h: float, what: str, minimum: int = 4) -> int:
    n = int(round(extent / h))
    if n < minimum or abs(n * h - extent) > 1e-9 * max(1.0, extent):
        raise ConfigError(
            f"mesh pitch h={h} must divide the {what} extent {extent} into "
            f">= {minimum} cells"
        )
    return n


class Mesh:
    """Conforming tetrahedral mesh on a lattice of pitch h.

    Built by `build_mesh` from the Kuhn split of a set of lattice cells, as
    `_lattice_topology` emits it: tet 6 c + p is Kuhn pattern p of cell c,
    positively oriented, and the vertices are the cell corners in
    lexicographic ijk order, at anchor + h * ijk.  Integer lattice keys let
    meshes of the domain and of its enlargement (built with the same pitch
    and anchor) share nodal data.  A tet's geometry depends only on its
    pattern, so the int8 `tet_type` is the pattern index and the mesh keeps,
    per pattern, the barycentric gradients `type_grads` (6, 4, 3), built
    from h times the pattern's integer edges, and the volume `type_volumes`
    (h^3 / 6).  It stores no per-tet float array; `barycenters` computes
    them on demand.  `sigma_mask` flags the boundary triangles on the
    measurement patch; `build_mesh` sets it.
    """

    def __init__(self, tets, ijk, h, anchor, boundary_tris):
        self.verts = anchor[None, :] + ijk * h
        self.tets = tets
        self.ijk = ijk
        self.h = h
        self.anchor = anchor
        self.boundary_tris = boundary_tris
        self.sigma_mask = np.zeros(len(boundary_tris), dtype=bool)
        n_patterns = len(_TET_PATTERNS)
        self.tet_type = np.tile(np.arange(n_patterns, dtype=np.int8), len(tets) // n_patterns)
        self.type_grads, self.type_volumes = _type_geometry(_KUHN_EDGES, h)

        self.boundary_vertex_mask = np.zeros(len(ijk), dtype=bool)
        self.boundary_vertex_mask[np.unique(boundary_tris)] = True
        # Lattice keys linearised over the bounding ijk box; in vertex order
        # they are sorted, so lookups are a vectorised binary search.
        self._ijk_lo = ijk.min(axis=0)
        self._ijk_hi = ijk.max(axis=0)
        self._keys = self._linear_keys(ijk)
        if np.any(self._keys[1:] <= self._keys[:-1]):
            raise GeometryError("mesh vertices are not in strictly increasing ijk order")
        self._stiffness_pattern = None
        # A full lattice box: its interior vertices form an (N0, N1, N2)
        # block in C order.
        span = self._ijk_hi - self._ijk_lo + 1
        full_box = len(ijk) == int(np.prod(span)) and np.all(span >= 3)
        self.box_shape = tuple(int(s) - 2 for s in span) if full_box else None

    def barycenters(self, chunk: slice = slice(None)) -> np.ndarray:
        """Barycenters (C, 3) of the tets in `chunk`, all tets by default.

        The corners are added in order and the sum divided by 4, which has
        the bits of their mean.
        """
        tets = self.tets[chunk]
        total = self.verts[tets[:, 0]] + self.verts[tets[:, 1]]
        total += self.verts[tets[:, 2]]
        total += self.verts[tets[:, 3]]
        total /= 4.0
        return total

    @property
    def n_vertices(self) -> int:
        return len(self.verts)

    @property
    def n_tets(self) -> int:
        return len(self.tets)

    @property
    def stiffness_pattern(self) -> CsrPattern:
        """P1 stiffness pattern with the tets' scatter map, built once."""
        if self._stiffness_pattern is None:
            self._stiffness_pattern = csr_pattern(self.tets, self.n_vertices)
        return self._stiffness_pattern

    def _linear_keys(self, ijk: np.ndarray) -> np.ndarray:
        span = self._ijk_hi - self._ijk_lo + 1
        rel = np.asarray(ijk, dtype=np.int64) - self._ijk_lo
        return (rel[:, 0] * span[1] + rel[:, 1]) * span[2] + rel[:, 2]

    def vertex_indices(self, ijk) -> np.ndarray:
        """Vertex indices of integer lattice keys, one per row of `ijk`."""
        ijk = np.asarray(ijk, dtype=np.int64).reshape(-1, 3)
        inside = np.all((ijk >= self._ijk_lo) & (ijk <= self._ijk_hi), axis=1)
        keys = np.where(inside, self._linear_keys(ijk), -1)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        missing = ~inside | (self._keys[pos] != keys)
        if np.any(missing):
            first = tuple(int(v) for v in ijk[np.argmax(missing)])
            raise GeometryError(
                f"{int(np.sum(missing))} lattice keys are not mesh vertices, "
                f"first {first}"
            )
        return pos

    def part_outside(self, core: "Mesh", vertex_map) -> tuple:
        """The lattice cells of this mesh outside those of `core`, which
        `vertex_map` embeds in it, as a mesh of their own on this lattice,
        and the indices here of that mesh's vertices.

        Tet 6 c starts at the lowest corner of cell c, so the cells are read
        off the tets, and the part keeps their order.  GeometryError unless
        the core's cells are cells of this mesh and the cells outside them
        form one full lattice box.
        """
        _vertex_map(vertex_map, core, self)
        cells = self.ijk[self.tets[::6, 0]]
        core_cells = core.ijk[core.tets[::6, 0]]
        outside = cells[~np.isin(self._linear_keys(cells), self._linear_keys(core_cells))]
        if len(cells) - len(outside) != len(core_cells):
            raise GeometryError("a cell of the core is not a cell of the mesh")
        if not len(outside) or len(outside) != np.prod(np.ptp(outside, axis=0) + 1):
            raise GeometryError("the part of the mesh outside the core is not one lattice box")
        ijk, tets, boundary = _lattice_topology(outside)
        return Mesh(tets, ijk, self.h, self.anchor, boundary), self.vertex_indices(ijk)

    def shared_vertex_map(self, other: "Mesh") -> np.ndarray:
        """Indices in `other` of this mesh's vertices (same lattice anchor)."""
        if abs(self.h - other.h) > 1e-12 or np.max(np.abs(self.anchor - other.anchor)) > 1e-12:
            raise GeometryError("meshes do not share a lattice")
        return other.vertex_indices(self.ijk)


def _vertex_map(vertex_map, part: Mesh, mesh: Mesh) -> np.ndarray:
    """`vertex_map` as an array, GeometryError unless it maps the vertices
    of the `part` mesh one-to-one into those of `mesh` with the same
    lattice keys, on the same lattice."""
    vmap = np.asarray(vertex_map)
    if (vmap.shape != (part.n_vertices,) or vmap.dtype.kind not in "iu"
            or np.any(vmap < 0) or np.any(vmap >= mesh.n_vertices)
            or len(np.unique(vmap)) != len(vmap)):
        raise GeometryError("the vertex map is not a one-to-one map of the "
                            "part's mesh into this mesh")
    if (part.h != mesh.h or not np.array_equal(part.anchor, mesh.anchor)
            or not np.array_equal(mesh.ijk[vmap], part.ijk)):
        raise GeometryError("the vertex map does not keep the lattice keys")
    return vmap


def _sorted_runs(keys: np.ndarray):
    """Sorted keys and the mask of positions starting a run of equal keys.

    A plain sort: it is several times faster here than np.unique, which
    hashes first.
    """
    keys = np.sort(keys)
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return keys, starts


def _lattice_topology(cells):
    """Vertex ijk keys (lexicographic), Kuhn tets and boundary triangles
    (row-sorted, lexicographic) of a set of distinct lattice cells.

    Tet 6 c + p is the positively oriented Kuhn pattern p of cell c.  The
    boundary triangles are the Kuhn faces of the open cell sides, those
    with no cell across.
    """
    cells = np.asarray(cells, dtype=np.int64)
    # Cells and corners are found by linearised ijk keys, whose order is the
    # lexicographic order of the ijk rows; a one-cell margin keys the cells
    # across every side too.
    lo = cells.min(axis=0) - 1
    span = cells.max(axis=0) - lo + 2
    stride = np.array([span[1] * span[2], span[2], 1])
    cell_keys = (cells - lo) @ stride
    corner_keys = cell_keys[:, None] + _CORNER_OFFSETS @ stride
    keys_sorted, starts = _sorted_runs(corner_keys.ravel())
    uniq = keys_sorted[starts]
    corner_idx = np.searchsorted(uniq, corner_keys)
    verts_ijk = lo + np.stack([uniq // stride[0], uniq // span[2] % span[1], uniq % span[2]],
                              axis=1)
    tets = corner_idx[:, _TET_PATTERNS].reshape(-1, 4)

    cells_sorted = np.sort(cell_keys)
    tris = []
    for side, (axis, step) in enumerate(itertools.product(range(3), (-1, 1))):
        across = cell_keys + step * stride[axis]
        pos = np.minimum(np.searchsorted(cells_sorted, across), len(cells) - 1)
        is_open = cells_sorted[pos] != across
        tris.append(corner_idx[is_open][:, _SIDE_TRIANGLES[side]].reshape(-1, 3))
    tris = np.sort(np.concatenate(tris), axis=1)
    boundary = tris[np.lexsort(tris.T[::-1])]
    return verts_ijk, tets, boundary


def build_mesh(domain, h: float, patch: Optional[BoundaryPatch] = None) -> Mesh:
    """Structured mesh of a box or of an enlarged (bumped) box.

    The box and the bump are each a block of lattice cells between integer
    lower and upper corners; each cell is split into six Kuhn tets (see
    Mesh), and the boundary is the Kuhn faces of the open cell sides.  For
    the enlarged domain the bump must be aligned with the lattice (see
    build_enlarged_domain).  The boundary triangles on `patch`, by default
    the enlarged domain's own, are flagged in `sigma_mask`.
    """
    if isinstance(domain, BoxDomain):
        box = domain
        bump = None
    elif isinstance(domain, EnlargedDomain):
        box = domain.box
        bump = domain
        patch = patch or domain.patch
    else:
        raise ConfigError(f"cannot mesh a {type(domain).__name__}")

    lo, hi = box.lo_arr, box.hi_arr
    blocks = [((0, 0, 0), [_int_cells(hi[a] - lo[a], h, f"axis-{a}") for a in range(3)])]
    if bump is not None:
        b_lo, b_hi = bump.bump_box
        c_lo, c_hi = np.rint((b_lo - lo) / h), np.rint((b_hi - lo) / h)
        if (np.any(c_hi <= c_lo) or np.max(np.abs(lo + c_lo * h - b_lo)) > 1e-9
                or np.max(np.abs(lo + c_hi * h - b_hi)) > 1e-9):
            raise GeometryError("bump is not aligned with the mesh pitch")
        blocks.append((c_lo.astype(np.int64), c_hi.astype(np.int64)))
    cells = np.concatenate([
        np.stack(np.meshgrid(*map(np.arange, c_lo, c_hi), indexing="ij"), axis=-1).reshape(-1, 3)
        for c_lo, c_hi in blocks
    ])

    verts_ijk, tets, boundary = _lattice_topology(cells)
    mesh = Mesh(tets, verts_ijk, h, lo.copy(), boundary)
    if patch is not None:
        # A boundary triangle is on the patch when its corners share the
        # face plane's lattice coordinate and lie within the rectangle.
        a = patch.axis
        ijk_b = verts_ijk[boundary]
        on_plane = (ijk_b[:, :, a] == ijk_b[:, :1, a]).all(axis=1)
        on_plane &= np.abs(mesh.anchor[a] + ijk_b[:, 0, a] * h - patch.plane_coord) < 1e-9
        lat = patch.lateral(mesh.verts[boundary])
        inside = np.all((lat >= np.asarray(patch.rect_lo) - 1e-9)
                        & (lat <= np.asarray(patch.rect_hi) + 1e-9), axis=(1, 2))
        mesh.sigma_mask = on_plane & inside
    return mesh


class CsrPattern(NamedTuple):
    """Sparsity of a sum of m x m element blocks, and where each goes.

    `scatter[e, a * m + b]` is the data slot of entry (elems[e, a],
    elems[e, b]).  The arrays are read-only; matrices get copies.
    """

    indptr: np.ndarray
    indices: np.ndarray
    scatter: np.ndarray


def csr_pattern(elems, n: int) -> CsrPattern:
    """CSR pattern of the n x n matrix assembled from the element rows.

    The scatter map is int32, filled by one binary search per local entry
    against the pattern's row * n + col keys.
    """
    elems = np.asarray(elems, dtype=np.int64)
    m = elems.shape[1]
    keys, starts = _sorted_runs((elems[:, :, None] * n + elems[:, None, :]).ravel())
    keys = keys[starts]
    rows = keys // n
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    indices = (keys - rows * n).astype(np.int32)
    scatter = np.empty((len(elems), m * m), dtype=np.int32)
    for a in range(m):
        for b in range(m):
            scatter[:, a * m + b] = np.searchsorted(keys, elems[:, a] * n + elems[:, b])
    for arr in (indptr, indices, scatter):
        arr.flags.writeable = False
    return CsrPattern(indptr, indices, scatter)


def _scatter(pattern: CsrPattern, local: np.ndarray) -> np.ndarray:
    """CSR data of the real element blocks `local` (E, m, m) on the pattern."""
    return np.bincount(pattern.scatter.ravel(), weights=local.ravel(),
                       minlength=len(pattern.indices))


def _csr(pattern: CsrPattern, data: np.ndarray) -> sp.csr_matrix:
    """Fresh square CSR matrix of pattern data, exact zeros dropped."""
    import scipy.sparse as sp

    n = len(pattern.indptr) - 1
    mat = sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()),
                        shape=(n, n))
    mat.eliminate_zeros()
    return mat


def assemble_csr(pattern: CsrPattern, local: np.ndarray) -> sp.csr_matrix:
    """Sum the real element blocks `local` (E, m, m) into a fresh square CSR
    matrix on the pattern, exact zeros dropped."""
    return _csr(pattern, _scatter(pattern, local))


# The contraction order that einsum's optimizer picks for the element blocks
# at every chunk size: grads with the coefficient first.  Given once, it is
# not searched again for each chunk.
_BLOCK_PATH = ["einsum_path", (0, 1), (0, 1)]


def _stiffness_blocks(mesh: Mesh, chunk: slice, coeff) -> np.ndarray:
    """Element stiffness blocks (C, 4, 4) of the tets in `chunk` for their
    per-tet (C, 3, 3) or a constant real 3x3 coefficient."""
    types = mesh.tet_type[chunk]
    grads = mesh.type_grads[types]
    coeff = np.asarray(coeff)
    if coeff.ndim == 2:
        coeff = np.broadcast_to(coeff, (len(types), 3, 3))
    blocks = np.einsum("taj,tjk,tbk->tab", grads, coeff, grads, optimize=_BLOCK_PATH)
    blocks *= mesh.type_volumes[types][:, None, None]
    return blocks


def assemble_stiffness(mesh: Mesh, coeff) -> sp.csr_matrix:
    """Stiffness matrix for a per-tet (or constant) real 3x3 coefficient.

    The element blocks of each tet-order chunk are added into the CSR data
    by `np.add.at`, which adds in tet order as one `np.bincount` would, so
    the matrix has the same bits whatever the chunk size.
    """
    pattern = mesh.stiffness_pattern
    coeff = np.asarray(coeff)
    data = np.zeros(len(pattern.indices))
    for chunk in _tet_chunks(mesh.n_tets):
        blocks = _stiffness_blocks(mesh, chunk, coeff if coeff.ndim == 2 else coeff[chunk])
        np.add.at(data, pattern.scatter[chunk].ravel(), blocks.ravel())
    return _csr(pattern, data)


class ComplexField:
    """Complex nodal field u = u1 + i u2 on a mesh."""

    def __init__(self, mesh: Mesh, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (mesh.n_vertices,):
            raise ConfigError("field length does not match the mesh")
        if not np.all(np.isfinite(values)):
            raise SolverError("field contains non-finite values")
        self.mesh = mesh
        self.values = values

    @property
    def re(self) -> np.ndarray:
        return self.values.real

    @property
    def im(self) -> np.ndarray:
        return self.values.imag

    def gradients(self, chunk: slice = slice(None)) -> np.ndarray:
        """Constant gradients (C, 3) complex of the tets in `chunk`, all
        tets by default."""
        mesh = self.mesh
        return np.einsum("ta,taj->tj", self.values[mesh.tets[chunk]],
                         mesh.type_grads[mesh.tet_type[chunk]])


_RESIDUAL_RTOL = 1e-10
# The interior solver kinds whose solution columns have the same bits
# whatever columns are solved beside them; SuperLU's multi-column solves
# move the last bits with the block.
_BLOCKWISE_EXACT = ("sine-transform", "box-cocg")
# A COCG column stops once its recurrence residual is at most _COCG_RTOL of
# its right-hand side; a column still running after _COCG_MAX_ITERATIONS
# iterations raises SolverError.
_COCG_RTOL = 1e-13
_COCG_MAX_ITERATIONS = 200


def _factor_interior(K_ii: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of an interior block, ordered and factored symmetrically.

    Every interior block here is complex symmetric with a positive definite
    real part, so elimination in diagonal order needs no pivoting; the
    residual checks of the callers stay as the guard.
    """
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(K_ii.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorisation failed: {exc}") from exc


def _as_columns(x: np.ndarray) -> np.ndarray:
    """An (n,) or (n, c) array as (n, c) columns, n = 0 included."""
    return x[:, None] if x.ndim == 1 else x


def _check_residual(residual: np.ndarray, rhs: np.ndarray, first_column: int = 0) -> float:
    """SolverError unless every column has |residual| <= 1e-10 |rhs|, for
    the residual K_II x - rhs of an interior solve; returns the largest
    relative residual.

    A non-finite residual fails the check too.  The failing column is
    reported as `first_column` plus its position in `rhs`.
    """
    resid = np.linalg.norm(_as_columns(residual), axis=0)
    scale = np.maximum(np.linalg.norm(_as_columns(rhs), axis=0), 1e-300)
    bad = ~(resid <= _RESIDUAL_RTOL * scale)
    if np.any(bad):
        col = int(np.argmax(bad))
        raise SolverError(
            "interior residual too large",
            diagnostics={"residual": float(resid[col]), "scale": float(scale[col]),
                         "column": first_column + col},
        )
    return float(np.max(resid / scale, initial=0.0))


def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix of order n; it is symmetric and its own inverse."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


def box_solve(mesh: Mesh, weights):
    """Exact interior solve for a constant diagonal coefficient on a full box.

    On the Kuhn lattice the interior block of the P1 stiffness of
    diag(w_0, w_1, w_2) is the 7-point stencil h sum_a w_a (2 u - u(x - h e_a)
    - u(x + h e_a)).  The orthonormal DST-I along each axis diagonalises it,
    with eigenvalues h sum_a w_a (2 - 2 cos(pi p_a / (N_a + 1))), so a solve
    is one sine transform, a multiplication and a second sine transform.
    The weights may be complex.  Returns solve(rhs) for (n,) or (n, c)
    right-hand sides on the interior vertices in mesh order; callers check
    its residuals.  Each column is transformed by BLAS calls whose shapes do
    not depend on the other columns, so its solution has the same bits
    whatever columns ride beside it.
    """
    if mesh.box_shape is None:
        raise GeometryError("the sine-transform solve needs a full lattice box mesh")
    shape = mesh.box_shape
    n0, n1, n2 = shape
    sines = [_sine_matrix(n) for n in shape]
    eig = np.zeros(shape, dtype=np.result_type(*weights, float))
    for a, (n, w) in enumerate(zip(shape, weights)):
        mode = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        eig += mesh.h * w * mode.reshape([n if b == a else 1 for b in range(3)])
    inverse = (1.0 / eig).reshape(1, -1)
    # The last axis of complex data, viewed as interleaved real and imaginary
    # parts, is transformed by the sine matrix with each entry doubled.
    last_sine = {False: sines[2], True: np.kron(sines[2], np.eye(2))}

    def transform(X: np.ndarray) -> np.ndarray:
        # One row per column: a batched BLAS product per axis, each batch
        # item within one column.
        complex_data = np.iscomplexobj(X)
        R = X.view(np.float64) if complex_data else X
        columns, last = len(R), R.shape[1] // (n0 * n1)
        R = np.matmul(sines[0], R.reshape(columns, n0, n1 * last))
        R = np.matmul(sines[1], R.reshape(columns * n0, n1, last))
        R = np.matmul(R.reshape(columns, n0 * n1, last), last_sine[complex_data])
        R = R.reshape(columns, -1)
        return R.view(np.complex128) if complex_data else R

    def solve(rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        cols = rhs.reshape(len(rhs), -1)
        X = transform(np.ascontiguousarray(cols.T, dtype=np.result_type(rhs, eig)))
        X *= inverse
        return np.ascontiguousarray(transform(X).T).reshape(rhs.shape)

    return solve


def _column_sums(M: np.ndarray) -> np.ndarray:
    """Sum of each column of an (n, m) array.

    Each column is summed as one contiguous row, so its sum has the same
    bits whatever columns ride beside it.
    """
    return np.ascontiguousarray(M.T).sum(axis=1)


def _column_norms(M: np.ndarray) -> np.ndarray:
    return np.sqrt(_column_sums(M.real ** 2 + M.imag ** 2))


def _cocg(K: sp.spmatrix, precondition, rhs: np.ndarray):
    """Block COCG solve of the complex symmetric K for (n, m) columns.

    COCG is preconditioned CG with the unconjugated bilinear form x^T y
    (van der Vorst and Melissen, 1990); `precondition` must be complex
    symmetric too.  Every column keeps its own scalars and stops once its
    recurrence residual is at most `_COCG_RTOL` of its right-hand side; a
    stopped column is frozen, so its solution does not depend on the block
    it rides in, and an all-zero column returns zeros without iterating.
    Returns the solutions and each column's iteration count.  SolverError,
    naming the worst running column, if a column breaks down or is still
    running after `_COCG_MAX_ITERATIONS` iterations.
    """
    X = np.zeros(rhs.shape, dtype=complex)
    iterations = np.zeros(rhs.shape[1], dtype=np.int64)
    scale = _column_norms(rhs)
    live = np.flatnonzero(scale > 0.0)
    if not live.size:
        return X, iterations
    R = np.array(rhs[:, live], dtype=complex)
    X_live = np.zeros(R.shape, dtype=complex)
    P = precondition(R)
    rho = _column_sums(R * P)
    for step in range(1, _COCG_MAX_ITERATIONS + 1):
        Q = K @ P
        alpha = rho / _column_sums(P * Q)
        # Q is scratch once it has updated the residual.  Q and Z are freed
        # as soon as they are used, so fewer blocks are live at a time.
        Q *= alpha
        R -= Q
        np.multiply(P, alpha, out=Q)
        X_live += Q
        del Q
        residual = _column_norms(R) / scale[live]
        if not np.all(np.isfinite(residual)):
            _cocg_failure("COCG broke down", step, residual, live)
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
    _cocg_failure("COCG did not converge", _COCG_MAX_ITERATIONS,
                  _column_norms(R) / scale[live], live)


def _cocg_failure(message: str, step: int, residual: np.ndarray, live: np.ndarray):
    """SolverError naming the running column with the largest relative
    recurrence residual (a non-finite one first)."""
    worst = int(np.argmax(np.where(np.isfinite(residual), residual, np.inf)))
    raise SolverError(message, diagnostics={
        "iterations": step, "residual": float(residual[worst]),
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


class _SolverCounters:
    """The counters that a run's manifest reports for a system.

    `factored_dofs` counts the dofs of every factorisation the system has
    made, `solve_calls` and `rhs_columns` the calls into its interior
    solver and their columns, `krylov_iterations` and
    `krylov_iterations_max` the COCG iterations summed over those columns
    and the most any one column took, and `worst_residual` is the largest
    relative residual that a residual check of the system has passed.
    """

    def __init__(self):
        self.factored_dofs = 0
        self.solve_calls = 0
        self.rhs_columns = 0
        self.krylov_iterations = 0
        self.krylov_iterations_max = 0
        self.worst_residual = 0.0

    def counters(self) -> dict:
        """Plain copies of the counters, with the interior solver kind and
        the interior dofs.  The dict holds no reference to the system."""
        return {
            "kind": self.solver_kind, "interior_dofs": len(self.interior),
            "factored_dofs": self.factored_dofs,
            "solve_calls": self.solve_calls, "rhs_columns": self.rhs_columns,
            "krylov_iterations": self.krylov_iterations,
            "krylov_iterations_max": self.krylov_iterations_max,
            "worst_residual": self.worst_residual,
        }


class BlockSystem(_SolverCounters):
    """Assembled complex matrix K = K_R + i K_I on one mesh, with a cached
    interior solver.

    `block_matrix` materialises the real block form [[K_R, -K_I], [K_I, K_R]].
    The interior solver is chosen once, at the first solve, and named by
    `solver_kind`:

    - "sine-transform": with `axis_weights` (the diagonal of a constant
      diagonal coefficient on a full lattice box), `box_solve`;
    - "box-cocg": with `cocg_weights` (the tet-averaged diagonal of any
      other coefficient on a full lattice box), COCG preconditioned by
      `box_solve` of those weights, each column stopped at a recurrence
      residual of `_COCG_RTOL`;
    - "sparse-lu": a sparse LU of the interior block.

    `assemble` gives every full-box system either `axis_weights` or
    `cocg_weights`, so it factors only a system on another mesh: the
    tests' standalone Omega_eta oracle.  A system with no interior dof,
    such as the bump of a `SubstructuredSystem` one cell thick, solves
    nothing.  `field` is the (family, a, k) that `assemble` built it from.
    The counters are those of `_SolverCounters`.

    The system keeps its interior solver, the box solve or the sparse LU's
    solve, which holds no reference back to it, and runs COCG itself, so a
    system, its factors and its Krylov scratch are freed by reference
    counting as soon as the last reader drops it.  `schur_onto` keeps its
    last result: the Omega system's Schur complement onto the DtN basis
    answers the footprint part of its Omega_eta system's interface by
    restriction.
    """

    def __init__(self, mesh: Mesh, K: sp.csr_matrix, axis_weights=None, cocg_weights=None):
        super().__init__()
        self.mesh = mesh
        self.K = K
        self.axis_weights = axis_weights
        self.cocg_weights = cocg_weights
        self.field = None
        self._interior = np.where(~mesh.boundary_vertex_mask)[0]
        self._boundary = np.where(mesh.boundary_vertex_mask)[0]
        self._K_ii = K[np.ix_(self._interior, self._interior)].tocsr()
        self._K_ib = K[np.ix_(self._interior, self._boundary)].tocsr()
        # The interior solve, or under box-cocg its preconditioner.
        self._solve = None
        # The dofs and the read-only result of the last Schur complement.
        self._schur = None

    @property
    def block_matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        # The parts are copied: .real and .imag share K's data array, which
        # eliminate_zeros would compact in place.
        K_R, K_I = self.K.real.copy(), self.K.imag.copy()
        K_R.eliminate_zeros()
        K_I.eliminate_zeros()
        return sp.bmat([[K_R, -K_I], [K_I, K_R]], format="csr")

    @property
    def interior(self) -> np.ndarray:
        return self._interior

    @property
    def boundary(self) -> np.ndarray:
        return self._boundary

    @property
    def solver_kind(self) -> str:
        if self.axis_weights is not None:
            return "sine-transform"
        if self.cocg_weights is not None:
            return "box-cocg"
        return "sparse-lu"

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """K_II^{-1} rhs for an (n,) or (n, d) right-hand side."""
        if self._solve is None:
            kind = self.solver_kind
            if kind == "sine-transform":
                self._solve = box_solve(self.mesh, self.axis_weights)
            elif kind == "box-cocg":
                self._solve = box_solve(self.mesh, self.cocg_weights)
            elif len(self._interior):
                self._solve = _factor_interior(self._K_ii).solve
                self.factored_dofs += len(self._interior)
            else:
                # An empty interior block: nothing to factor or solve.
                self._solve = np.zeros_like
        self.solve_calls += 1
        self.rhs_columns += rhs.shape[1] if rhs.ndim == 2 else 1
        if self.solver_kind != "box-cocg":
            return self._solve(rhs)
        x, iterations = _cocg(self._K_ii, self._solve, rhs.reshape(len(rhs), -1))
        self.krylov_iterations += int(iterations.sum())
        self.krylov_iterations_max = max(self.krylov_iterations_max,
                                         int(iterations.max(initial=0)))
        return x.reshape(rhs.shape)

    def _check(self, x: np.ndarray, rhs: np.ndarray, first_column: int = 0) -> None:
        """Residual check of an interior solve, kept in `worst_residual`."""
        rhs = _as_columns(rhs)
        worst = _check_residual(self._K_ii @ _as_columns(x) - rhs, rhs, first_column)
        self.worst_residual = max(self.worst_residual, worst)

    def _subset_positions(self, sigma: np.ndarray) -> Optional[np.ndarray]:
        """Positions of the dofs sigma among those of the memoised Schur
        complement, or None unless it holds every one of them and this
        system's solver gives its columns the bits of a fresh solve."""
        if self._schur is None or self.solver_kind not in _BLOCKWISE_EXACT:
            return None
        dofs = self._schur[0]
        if not len(dofs):
            return None
        order = np.argsort(dofs, kind="stable")
        pos = order[np.minimum(np.searchsorted(dofs, sigma, sorter=order), len(dofs) - 1)]
        return pos if np.array_equal(dofs[pos], sigma) else None

    def schur_onto(self, sigma) -> np.ndarray:
        """Dense Schur complement K_ss - K_sI K_II^{-1} K_Is onto the boundary
        dofs sigma, the others pinned to zero; read-only.

        The last result is memoised, and the same sigma returns it.
        Pinning the other boundary dofs makes the Schur complement onto a
        subset of its dofs the restriction of it, and the sine-transform
        and COCG solvers give each column the same bits whatever block it
        is solved in, so under them a subset is answered by indexing, with
        the bits of a fresh solve and no interior solve.  SuperLU's
        multi-column solves do not, so there a subset is solved afresh.
        Any sigma not answered from the memo is computed and replaces it.

        The columns are solved in equal blocks of at most `_BLOCK_BYTES`
        of complex (interior x column) data, so no array of interior size
        grows with |sigma|; each block is one multi-column interior solve,
        and each column's residual is checked.
        """
        sigma = np.array(sigma, dtype=int)
        if self._schur is not None and np.array_equal(self._schur[0], sigma):
            return self._schur[1]
        pos = self._subset_positions(sigma)
        if pos is not None:
            S = self._schur[1][np.ix_(pos, pos)]
            S.flags.writeable = False
            return S
        cols = np.searchsorted(self._boundary, sigma)
        if np.any(cols >= len(self._boundary)) or np.any(self._boundary[cols] != sigma):
            raise ConfigError("Schur complement dofs must be boundary vertices")
        # K_sI is sliced, not transposed from K_Is: an anisotropic K is
        # symmetric only to rounding.
        K_s = self.K[sigma]
        K_si = K_s[:, self._interior]
        S = K_s[:, sigma].toarray()
        d = len(sigma)
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
        S.flags.writeable = False
        self._schur = (sigma, S)
        return S

    def solve_dirichlet(self, g):
        """Solve with Dirichlet data g, one full-length nodal vector (n,) or
        one per column (n, c).

        Returns a ComplexField for (n,) data and the (n, c) complex solution
        array for (n, c) data; all columns share one interior solve and each
        column's residual is checked.
        """
        values = _dirichlet_columns(self.mesh, g)
        rhs = -(self._K_ib @ values[self._boundary])
        u_int = self._solve_interior(rhs)
        self._check(u_int, rhs)
        values[self._interior] = u_int
        if np.ndim(g) == 1:
            return ComplexField(self.mesh, values[:, 0])
        return values


class SubstructuredSystem(_SolverCounters):
    """The system of a field on a mesh that two parts tile, solved through
    the same field's systems on the parts, with no matrix of the whole
    mesh: the Omega_eta system, from the Omega system `core` and the system
    `bump` of the lattice box outside it (`Mesh.part_outside`), which
    `LabFrame.bump` builds once per frame.  GeometryError unless both parts
    were assembled from the same field.

    The parts' cells tile the mesh, so its matrix is the sum of theirs
    through their vertex maps.  Their interiors map to disjoint interior
    vertices, and the rest of the interior, the `footprint` f, to boundary
    vertices of both parts.  A Dirichlet solve is two-subdomain
    substructuring: both parts are solved with u pinned to zero on f; u_f
    solves T u_f = -(K u)_f, where T = S_core(f) + S_bump(f), the sum of
    the parts' Schur complements onto f (Steklov-Poincare), is inverted
    once, at the first solve; and both parts are solved again with u_f.
    The core's S_core(f) restricts its memoised Schur complement onto the
    DtN basis, which holds f.  Each column's residual over the whole
    interior, the parts' interior rows and the footprint rows summed over
    both, is checked against the column's -K_IB g.

    Its counters (`_SolverCounters`) name the kind "via-core":
    `factored_dofs` is |f|, the inverted interface, and `solve_calls` and
    `rhs_columns` count its Dirichlet solves, whose part solves, and their
    COCG iterations, count in the parts' counters.
    """

    solver_kind = "via-core"

    def __init__(self, mesh: Mesh, core: BlockSystem, core_map, bump: BlockSystem, bump_map):
        if bump.field != core.field:
            raise GeometryError("the core and the bump were assembled from different fields")
        super().__init__()
        self.mesh, self.core, self.bump = mesh, core, bump
        inside = ~mesh.boundary_vertex_mask
        self.interior = np.flatnonzero(inside)
        maps = [_vertex_map(core_map, core.mesh, mesh), _vertex_map(bump_map, bump.mesh, mesh)]
        covered = np.zeros(mesh.n_vertices, dtype=np.int64)
        for part, vmap in zip((core, bump), maps):
            covered[vmap[part.interior]] += 1
        if np.any(covered[~inside]) or np.any(covered > 1):
            raise GeometryError("the parts' interiors do not map to disjoint interior vertices")
        self.footprint = np.flatnonzero(inside & (covered == 0))
        # Each part with the index here of each of its vertices and the
        # index in its mesh of each footprint vertex.
        self._parts = []
        for part, vmap in zip((core, bump), maps):
            owner = np.full(mesh.n_vertices, -1, dtype=np.int64)
            owner[vmap] = np.arange(len(vmap))
            if np.any(owner[self.footprint] < 0):
                raise GeometryError("a footprint vertex is not a vertex of both parts")
            self._parts.append((part, vmap, owner[self.footprint]))
        self._T_inv = None

    def _interface(self) -> np.ndarray:
        """T = S_core(f) + S_bump(f), the parts' Schur complements onto the
        footprint, summed."""
        return sum(part.schur_onto(f_part) for part, _, f_part in self._parts)

    def _product(self, x: np.ndarray) -> np.ndarray:
        """K x for (n, c) columns: the parts' products, summed."""
        out = np.zeros(x.shape, dtype=complex)
        for part, vmap, _ in self._parts:
            out[vmap] += part.K @ x[vmap]
        return out

    def _solve_parts(self, values: np.ndarray) -> None:
        """Both parts' Dirichlet solves, in place: each reads its boundary
        data, the footprint's among it, from `values` and writes its
        interior solution back."""
        for part, vmap, _ in self._parts:
            values[vmap] = part.solve_dirichlet(values[vmap])

    def solve_dirichlet(self, g):
        """Solve with Dirichlet data g, as `BlockSystem.solve_dirichlet`."""
        values = _dirichlet_columns(self.mesh, g)
        if self._T_inv is None:
            self._T_inv = np.linalg.inv(self._interface())
            self.factored_dofs += len(self.footprint)
        self.solve_calls += 1
        self.rhs_columns += values.shape[1]
        # The data is zero inside, so K applied to it is K_IB g there.
        rhs = -self._product(values)[self.interior]
        self._solve_parts(values)
        values[self.footprint] = self._T_inv @ -self._product(values)[self.footprint]
        self._solve_parts(values)
        # K_II u_I + K_IB g is K u on the interior.
        worst = _check_residual(self._product(values)[self.interior], rhs)
        self.worst_residual = max(self.worst_residual, worst)
        if np.ndim(g) == 1:
            return ComplexField(self.mesh, values[:, 0])
        return values


class _DiagonalSummary:
    """The diagonal of a per-tet coefficient, fed chunk by chunk in tet
    order: its mean over the tets, and the one diagonal matrix that every
    tet has, if there is one."""

    def __init__(self):
        self.total = np.zeros(3)
        self.count = 0
        self.constant = None
        self.varies = False

    def add(self, coeff: np.ndarray) -> None:
        diagonal = np.diagonal(coeff, axis1=1, axis2=2)
        # cumsum adds row by row, the order of numpy's own mean over the
        # leading axis, so the chunked mean has the bits of one over all tets.
        self.total = np.cumsum(np.vstack([self.total[None], diagonal]), axis=0)[-1]
        self.count += len(coeff)
        if not self.varies:
            first = coeff[0] if self.constant is None else self.constant
            self.varies = bool(np.any(first != np.diag(np.diag(first)))
                               or np.any(coeff != first))
            self.constant = None if self.varies else first.copy()

    def mean(self) -> np.ndarray:
        return self.total / self.count


def assemble(mesh: Mesh, family: AdmittivityFamily, a: ParameterField, k: float) -> BlockSystem:
    """Block system for div(A(x, a(x)) grad u) = 0 on the mesh.

    The field, the coefficient and the element blocks are evaluated over
    contiguous tet-order chunks within `_BLOCK_BYTES` (see
    `assemble_stiffness`), at the chunk's barycenters; the real blocks and
    the imaginary ones are added into the real and imaginary parts of one
    complex CSR data array.  On a full lattice box, a constant diagonal
    coefficient gets the exact sine-transform interior solve, and any other
    coefficient COCG preconditioned by the sine-transform solve of its
    tet-averaged diagonal, summarised over the same chunks.  The system
    records the (family, a, k) it was built from in `field`.
    """
    pattern = mesh.stiffness_pattern
    data = np.zeros(len(pattern.indices), dtype=complex)
    # The real and imaginary parts interleaved: np.add.at adds the real
    # blocks at the even slots of this contiguous array and the imaginary
    # ones at the odd slots.
    parts = data.view(np.float64)
    summaries = (_DiagonalSummary(), _DiagonalSummary())
    for chunk in _tet_chunks(mesh.n_tets):
        bary = mesh.barycenters(chunk)
        t_vals = np.asarray(a.values(bary), dtype=float)
        if t_vals.ndim == 0:
            t_vals = np.full(len(bary), float(t_vals))
        slots = 2 * pattern.scatter[chunk].ravel()
        for offset, coeff_of in ((0, family.real_part),
                                 (1, lambda x, t: k * family.imag_part(x, t))):
            coeff = np.broadcast_to(coeff_of(bary, t_vals), (len(bary), 3, 3))
            np.add.at(parts[offset:], slots, _stiffness_blocks(mesh, chunk, coeff).ravel())
            if mesh.box_shape is not None:
                summaries[offset].add(coeff)
    axis_weights = cocg_weights = None
    if mesh.box_shape is not None:
        real, imag = summaries
        if real.constant is not None and imag.constant is not None:
            axis_weights = np.diag(real.constant) + 1j * np.diag(imag.constant)
        else:
            cocg_weights = real.mean() + 1j * imag.mean()
    system = BlockSystem(mesh, _csr(pattern, data), axis_weights=axis_weights,
                         cocg_weights=cocg_weights)
    system.field = (family, a, k)
    return system


def energy_density(mesh: Mesh, coeff, u: ComplexField, v: ComplexField) -> np.ndarray:
    """Per-tet contributions vol * (coeff grad u) . grad v (unconjugated),
    for a per-tet (T, 3, 3) or a constant 3x3 coefficient, evaluated over
    tet-order chunks."""
    if u.mesh is not mesh or v.mesh is not mesh:
        raise ConfigError("fields must live on the given mesh")
    coeff = np.asarray(coeff)
    out = np.empty(mesh.n_tets, dtype=complex)
    for chunk in _tet_chunks(mesh.n_tets):
        gu, gv = u.gradients(chunk), v.gradients(chunk)
        c = np.broadcast_to(coeff if coeff.ndim == 2 else coeff[chunk], (len(gu), 3, 3))
        out[chunk] = (np.einsum("tj,tjk,tk->t", gu, c, gv)
                      * mesh.type_volumes[mesh.tet_type[chunk]])
    return out

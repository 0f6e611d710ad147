"""P1 tetrahedral finite elements on structured box (and bumped-box) meshes.

The complex divergence-form equation is assembled as the real 2x2-block
strongly elliptic system with blocks [A_R, -k A_I; k A_I, A_R] sampled at tet
barycenters (one-point quadrature).  A `BlockSystem` holds the equivalent
complex matrix K = K_R + i K_I and its interior solver; the block matrix is
materialised from K for the structure and ellipticity checks.  Every
Dirichlet solve and every Schur complement onto boundary dofs (the DtN
pairing and the trace Gram) goes through a `BlockSystem`: a sine-transform
solve where the interior block is a constant-weight 7-point stencil on a
full box, a sparse LU otherwise.

Meshes are built from integer lattice keys, and every assembly scatters
element blocks into a CSR pattern that each mesh computes once, since many
admittivities are assembled on the same pair of meshes.  scipy is imported
by the functions that build or factor a matrix, so the commands that never
assemble one (validate, probe) do not pay for importing it.
"""

from __future__ import annotations

import itertools
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


def _kuhn_patterns():
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
    return np.asarray(patterns, dtype=int)


_TET_PATTERNS = _kuhn_patterns()
_CORNER_OFFSETS = np.array([[i, j, k] for k in (0, 1) for j in (0, 1) for i in (0, 1)])
# _CORNER_OFFSETS row order must match _corner_id:
_CORNER_OFFSETS = _CORNER_OFFSETS[np.argsort([_corner_id(o) for o in _CORNER_OFFSETS])]

_FACE_LOCAL = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


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

    Vertices carry integer lattice coordinates so that meshes of the domain
    and of its enlargement (built with the same pitch and anchor) can share
    nodal data.
    """

    def __init__(self, verts, tets, ijk, h, anchor, boundary_tris,
                 boundary_axis, boundary_plane, sigma_mask):
        self.verts = verts
        self.tets = tets
        self.ijk = ijk
        self.h = h
        self.anchor = anchor
        self.boundary_tris = boundary_tris
        self.boundary_axis = boundary_axis
        self.boundary_plane = boundary_plane
        self.sigma_mask = sigma_mask

        e1 = verts[tets[:, 1]] - verts[tets[:, 0]]
        e2 = verts[tets[:, 2]] - verts[tets[:, 0]]
        e3 = verts[tets[:, 3]] - verts[tets[:, 0]]
        # det G for G = [e1 e2 e3] is the triple product e1.(e2 x e3).
        # Swapping e2 and e3 negates it exactly, so flipped tets take |det|.
        det = np.einsum("ti,ti->t", e1, np.cross(e2, e3))
        flip = det < 0.0
        if np.any(flip):
            self.tets = tets.copy()
            self.tets[flip, 2], self.tets[flip, 3] = tets[flip, 3], tets[flip, 2]
            e2[flip], e3[flip] = e3[flip], e2[flip]
            det = np.abs(det)
        if np.any(det <= 0.0):
            raise GeometryError("degenerate or inverted tetrahedra in the mesh")
        self.volumes = det / 6.0
        # Barycentric coordinates are lam = G^{-1}(x - x0), so the gradients
        # of lam_1..lam_3 are the rows of G^{-1}: (e2 x e3, e3 x e1, e1 x e2)/det.
        grads = np.empty((self.tets.shape[0], 4, 3))
        grads[:, 1] = np.cross(e2, e3)
        grads[:, 2] = np.cross(e3, e1)
        grads[:, 3] = np.cross(e1, e2)
        grads[:, 1:] /= det[:, None, None]
        grads[:, 0, :] = -np.sum(grads[:, 1:, :], axis=1)
        self.grads = grads
        self.barycenters = self.verts[self.tets].mean(axis=1)

        self.boundary_vertex_mask = np.zeros(len(verts), dtype=bool)
        self.boundary_vertex_mask[np.unique(boundary_tris)] = True
        # Lattice keys linearised over the bounding ijk box and sorted once,
        # so lookups are a vectorised binary search.
        self._ijk_lo = ijk.min(axis=0)
        self._ijk_hi = ijk.max(axis=0)
        keys = self._linear_keys(ijk)
        self._key_order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._key_order]
        self._stiffness_pattern = None
        # A full lattice box whose vertices are in lexicographic ijk order:
        # its interior vertices then form an (N0, N1, N2) block in C order.
        span = self._ijk_hi - self._ijk_lo + 1
        full_box = (len(verts) == int(np.prod(span)) and np.all(span >= 3)
                    and np.all(keys[1:] > keys[:-1]))
        self.box_shape = tuple(int(s) - 2 for s in span) if full_box else None

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
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys),
                         len(self._sorted_keys) - 1)
        missing = ~inside | (self._sorted_keys[pos] != keys)
        if np.any(missing):
            first = tuple(int(v) for v in ijk[np.argmax(missing)])
            raise GeometryError(
                f"{int(np.sum(missing))} lattice keys are not mesh vertices, "
                f"first {first}"
            )
        return self._key_order[pos]

    def shared_vertex_map(self, other: "Mesh") -> np.ndarray:
        """Indices in `other` of this mesh's vertices (same lattice anchor)."""
        if abs(self.h - other.h) > 1e-12 or np.max(np.abs(self.anchor - other.anchor)) > 1e-12:
            raise GeometryError("meshes do not share a lattice")
        return other.vertex_indices(self.ijk)


# Face keys (a*nv + b)*nv + c of sorted vertex triples are below nv**3,
# which int64 holds for nv < 2**21.
_FACE_KEY_LIMIT = 2**21


def _face_keys(faces_sorted: np.ndarray, nv: int) -> np.ndarray:
    """One int64 key per row-sorted vertex triple, in lexicographic order."""
    if nv >= _FACE_KEY_LIMIT:
        raise GeometryError(
            f"a mesh of {nv} vertices overflows the int64 face keys "
            f"(at most {_FACE_KEY_LIMIT - 1} vertices)"
        )
    f = np.asarray(faces_sorted, dtype=np.int64)
    return (f[:, 0] * nv + f[:, 1]) * nv + f[:, 2]


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
    (row-sorted, lexicographic) of a set of lattice cells."""
    cells = np.asarray(cells, dtype=np.int64)
    # Corners are found by linearised ijk keys, whose order is the
    # lexicographic order of the ijk rows.
    lo = cells.min(axis=0)
    span = cells.max(axis=0) - lo + 2
    rel = (cells - lo)[:, None, :] + _CORNER_OFFSETS[None, :, :]
    keys = ((rel[..., 0] * span[1] + rel[..., 1]) * span[2] + rel[..., 2]).ravel()
    keys_sorted, starts = _sorted_runs(keys)
    uniq = keys_sorted[starts]
    corner_idx = np.searchsorted(uniq, keys).reshape(len(cells), 8)
    verts_ijk = lo + np.stack(
        [uniq // (span[1] * span[2]), uniq // span[2] % span[1], uniq % span[2]],
        axis=1,
    )
    tets = corner_idx[:, _TET_PATTERNS].reshape(-1, 4)

    # A boundary face belongs to exactly one tet.
    nv = len(verts_ijk)
    faces_sorted = np.sort(tets[:, _FACE_LOCAL].reshape(-1, 3), axis=1)
    face_keys, starts = _sorted_runs(_face_keys(faces_sorted, nv))
    single = starts & np.append(starts[1:], True)
    bkeys = face_keys[single]
    boundary = np.stack([bkeys // (nv * nv), bkeys // nv % nv, bkeys % nv], axis=1)
    return verts_ijk, tets, boundary


def _build_from_cells(cells, h, anchor, sigma_tagger=None) -> Mesh:
    verts_ijk, tets, boundary = _lattice_topology(cells)
    verts = anchor[None, :] + verts_ijk * h

    ijk_b = verts_ijk[boundary]
    axis = np.full(len(boundary), -1, dtype=np.int8)
    plane = np.zeros(len(boundary))
    for a in range(3):
        const = (ijk_b[:, :, a] == ijk_b[:, :1, a]).all(axis=1)
        axis[const] = a
        plane[const] = anchor[a] + ijk_b[const, 0, a] * h
    if np.any(axis < 0):
        raise GeometryError("boundary face not aligned with a lattice plane")

    sigma = np.zeros(len(boundary), dtype=bool)
    if sigma_tagger is not None:
        sigma = sigma_tagger(verts, boundary, axis, plane)

    return Mesh(
        verts=verts, tets=tets, ijk=verts_ijk, h=h, anchor=anchor,
        boundary_tris=boundary, boundary_axis=axis, boundary_plane=plane,
        sigma_mask=sigma,
    )


def _sigma_tagger(patch: BoundaryPatch):
    def tag(verts, boundary, axis, plane):
        mask = (axis == patch.axis) & (np.abs(plane - patch.plane_coord) < 1e-9)
        if not np.any(mask):
            return np.zeros(len(boundary), dtype=bool)
        lo2 = np.asarray(patch.rect_lo) - 1e-9
        hi2 = np.asarray(patch.rect_hi) + 1e-9
        lat = patch.lateral(verts[boundary])
        inside = np.all((lat >= lo2) & (lat <= hi2), axis=(1, 2))
        return mask & inside

    return tag


def build_mesh(domain, h: float, patch: Optional[BoundaryPatch] = None) -> Mesh:
    """Structured mesh of a box or of an enlarged (bumped) box.

    Each lattice hex is split into six tets.  For the enlarged domain the
    bump must be aligned with the lattice (see build_enlarged_domain).
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
    ncells = [_int_cells(hi[a] - lo[a], h, f"axis-{a}") for a in range(3)]
    grid = np.stack(
        np.meshgrid(*[np.arange(n) for n in ncells], indexing="ij"), axis=-1
    ).reshape(-1, 3)
    cells = [grid]

    if bump is not None:
        p = bump.patch
        t1, t2 = p.tangent_axes
        nb = int(round(bump.thickness / h))
        if nb < 1 or abs(nb * h - bump.thickness) > 1e-9:
            raise GeometryError("bump thickness is not aligned with the mesh pitch")
        spans = {}
        for t_axis, b_lo, b_hi in ((t1, bump.base_lo[0], bump.base_hi[0]),
                                   (t2, bump.base_lo[1], bump.base_hi[1])):
            i0 = int(round((b_lo - lo[t_axis]) / h))
            i1 = int(round((b_hi - lo[t_axis]) / h))
            if (abs(lo[t_axis] + i0 * h - b_lo) > 1e-9
                    or abs(lo[t_axis] + i1 * h - b_hi) > 1e-9 or i1 <= i0):
                raise GeometryError("bump base is not aligned with the mesh pitch")
            spans[t_axis] = (i0, i1)
        if p.side > 0:
            axis_range = range(ncells[p.axis], ncells[p.axis] + nb)
        else:
            axis_range = range(-nb, 0)
        ranges = [None, None, None]
        ranges[p.axis] = list(axis_range)
        ranges[t1] = list(range(*spans[t1]))
        ranges[t2] = list(range(*spans[t2]))
        bump_cells = np.stack(
            np.meshgrid(*ranges, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        cells.append(bump_cells)

    all_cells = np.concatenate(cells, axis=0)
    tagger = _sigma_tagger(patch) if patch is not None else None
    return _build_from_cells(all_cells, h, lo.copy(), sigma_tagger=tagger)


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


def _stiffness_blocks(mesh: Mesh, coeff) -> np.ndarray:
    """Element stiffness blocks (T, 4, 4) of a per-tet or constant real 3x3
    coefficient."""
    coeff = np.asarray(coeff)
    if coeff.ndim == 2:
        coeff = np.broadcast_to(coeff, (mesh.n_tets, 3, 3))
    return np.einsum(
        "taj,tjk,tbk->tab", mesh.grads, coeff, mesh.grads, optimize=True
    ) * mesh.volumes[:, None, None]


def assemble_stiffness(mesh: Mesh, coeff) -> sp.csr_matrix:
    """Stiffness matrix for a per-tet (or constant) real 3x3 coefficient."""
    return assemble_csr(mesh.stiffness_pattern, _stiffness_blocks(mesh, coeff))


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

    def gradients(self) -> np.ndarray:
        """Per-tet constant gradients, shape (T, 3) complex."""
        return np.einsum("ta,taj->tj", self.values[self.mesh.tets], self.mesh.grads)


_RESIDUAL_RTOL = 1e-10


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


def _check_residual(K_ii: sp.spmatrix, x: np.ndarray, rhs: np.ndarray) -> None:
    """SolverError unless every column has |K_ii x - rhs| <= 1e-10 |rhs|.

    A non-finite residual fails the check too.
    """
    x = x.reshape(len(x), -1)
    rhs = rhs.reshape(len(rhs), -1)
    resid = np.linalg.norm(K_ii @ x - rhs, axis=0)
    scale = np.maximum(np.linalg.norm(rhs, axis=0), 1e-300)
    bad = ~(resid <= _RESIDUAL_RTOL * scale)
    if np.any(bad):
        col = int(np.argmax(bad))
        raise SolverError(
            "interior residual too large",
            diagnostics={"residual": float(resid[col]), "scale": float(scale[col]),
                         "column": col},
        )


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
    is one sine transform, a division and a second sine transform.  The
    weights may be complex.  Returns solve(rhs) for (n,) or (n, c)
    right-hand sides on the interior vertices in mesh order; callers check
    its residuals.
    """
    if mesh.box_shape is None:
        raise GeometryError("the sine-transform solve needs a full lattice box mesh")
    shape = mesh.box_shape
    sines = [_sine_matrix(n) for n in shape]
    eig = np.zeros(shape, dtype=np.result_type(*weights, float))
    for a, (n, w) in enumerate(zip(shape, weights)):
        mode = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        eig += mesh.h * w * mode.reshape([n if b == a else 1 for b in range(3)])

    def transform(X: np.ndarray) -> np.ndarray:
        # The columns ride along in the trailing axis, so a complex array is
        # transformed as its real view; each axis is one batched BLAS product.
        complex_data = np.iscomplexobj(X)
        R = X.view(np.float64) if complex_data else X
        width = R.shape[-1]
        for a, S in enumerate(sines):
            lead, trail = int(np.prod(shape[:a])), int(np.prod(shape[a + 1:]))
            R = np.matmul(S, R.reshape(lead, shape[a], trail * width))
        R = R.reshape(shape + (width,))
        return R.view(np.complex128) if complex_data else R

    def solve(rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        columns = rhs.shape[1] if rhs.ndim == 2 else 1
        X = np.ascontiguousarray(rhs, dtype=np.result_type(rhs, eig))
        X = transform(X.reshape(shape + (columns,)))
        X /= eig[..., None]
        return transform(X).reshape(rhs.shape)

    return solve


class BlockSystem:
    """Assembled complex matrix K = K_R + i K_I with a cached interior solver.

    `block_matrix` materialises the real block form [[K_R, -K_I], [K_I, K_R]].
    With `axis_weights` (the diagonal of a constant diagonal coefficient on
    a full lattice box) the interior solve is `box_solve`; otherwise it is a
    sparse LU, factored at the first solve.
    """

    DIRECT_LIMIT = 50_000

    def __init__(self, mesh: Mesh, K: sp.csr_matrix, axis_weights=None):
        self.mesh = mesh
        self.K = K
        self.axis_weights = axis_weights
        self._interior = np.where(~mesh.boundary_vertex_mask)[0]
        self._boundary = np.where(mesh.boundary_vertex_mask)[0]
        self._K_ii = K[np.ix_(self._interior, self._interior)].tocsc()
        self._K_ib = K[np.ix_(self._interior, self._boundary)].tocsr()
        self._solve = None

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

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """K_II^{-1} rhs for an (n,) or (n, d) right-hand side."""
        n = self._K_ii.shape[0]
        if self._solve is None:
            if self.axis_weights is not None:
                self._solve = box_solve(self.mesh, self.axis_weights)
            elif n <= self.DIRECT_LIMIT:
                self._solve = _factor_interior(self._K_ii).solve
        if self._solve is not None:
            return self._solve(rhs)
        # Normal-form CG with diagonal preconditioning for large systems,
        # one column at a time.
        import scipy.sparse.linalg as spla

        K = self._K_ii
        diag = np.asarray(np.abs(K).power(2).sum(axis=0)).ravel()
        diag[diag == 0.0] = 1.0
        normal = spla.LinearOperator(
            (n, n), matvec=lambda x: K.conj().T @ (K @ x), dtype=complex
        )
        precond = spla.LinearOperator((n, n), matvec=lambda x: x / diag, dtype=complex)
        cols = np.asarray(rhs).reshape(n, -1)
        out = np.empty(cols.shape, dtype=complex)
        for j in range(cols.shape[1]):
            out[:, j], info = spla.cg(normal, K.conj().T @ cols[:, j], rtol=1e-12,
                                      maxiter=20 * n, M=precond)
            if info != 0:
                raise SolverError(
                    "normal-form CG did not converge",
                    diagnostics={"info": info, "size": n, "column": j},
                )
        return out.reshape(np.shape(rhs))

    def schur_onto(self, sigma) -> np.ndarray:
        """Dense Schur complement K_ss - K_sI K_II^{-1} K_Is onto the boundary
        dofs sigma, the others pinned to zero.

        All columns go through one multi-column interior solve, and each
        column's residual is checked.
        """
        sigma = np.asarray(sigma, dtype=int)
        cols = np.searchsorted(self._boundary, sigma)
        if np.any(cols >= len(self._boundary)) or np.any(self._boundary[cols] != sigma):
            raise ConfigError("Schur complement dofs must be boundary vertices")
        K_is = self._K_ib[:, cols].toarray()
        X = self._solve_interior(K_is)
        _check_residual(self._K_ii, X, K_is)
        # K_sI is sliced, not transposed from K_Is: an anisotropic K is
        # symmetric only to rounding.
        K_s = self.K[sigma]
        return K_s[:, sigma].toarray() - K_s[:, self._interior] @ X

    def solve_dirichlet(self, g):
        """Solve with Dirichlet data g, one full-length nodal vector (n,) or
        one per column (n, c).

        Returns a ComplexField for (n,) data and the (n, c) complex solution
        array for (n, c) data; all columns share one interior solve and each
        column's residual is checked.
        """
        g = np.asarray(g, dtype=complex)
        n = self.mesh.n_vertices
        if g.ndim not in (1, 2) or g.shape[0] != n:
            raise ConfigError("boundary data must be full-length nodal vectors")
        cols = g.reshape(n, -1)
        g_bnd = cols[self._boundary]
        finite = np.all(np.isfinite(g_bnd), axis=0)
        if not np.all(finite):
            raise SolverError("boundary data contains non-finite values",
                              diagnostics={"column": int(np.argmin(finite))})
        rhs = -(self._K_ib @ g_bnd)
        u_int = self._solve_interior(rhs)
        _check_residual(self._K_ii, u_int, rhs)
        values = np.zeros(cols.shape, dtype=complex)
        values[self._boundary] = g_bnd
        values[self._interior] = u_int
        if g.ndim == 1:
            return ComplexField(self.mesh, values[:, 0])
        return values


def _constant_diagonal(coeff: np.ndarray) -> Optional[np.ndarray]:
    """Diagonal of a per-tet (T, 3, 3) coefficient that is exactly the same
    diagonal matrix on every tet, else None."""
    coeff = np.asarray(coeff).reshape(-1, 3, 3)
    first = coeff[0]
    if np.any(first != np.diag(np.diag(first))) or np.any(coeff != first):
        return None
    return np.diag(first)


def assemble(mesh: Mesh, family: AdmittivityFamily, a: ParameterField, k: float) -> BlockSystem:
    """Block system for div(A(x, a(x)) grad u) = 0 on the mesh.

    The real element blocks, then the imaginary ones, are scattered into
    the real and imaginary parts of one complex CSR data array.  A constant
    diagonal coefficient on a full lattice box gets the exact
    sine-transform interior solve; every other system is factored.
    """
    bary = mesh.barycenters
    t_vals = np.asarray(a.values(bary), dtype=float)
    if t_vals.ndim == 0:
        t_vals = np.full(mesh.n_tets, float(t_vals))
    pattern = mesh.stiffness_pattern
    data = np.empty(len(pattern.indices), dtype=complex)
    diagonals = []
    for part, coeff_of in ((data.real, family.real_part),
                           (data.imag, lambda x, t: k * family.imag_part(x, t))):
        coeff = coeff_of(bary, t_vals)
        part[:] = _scatter(pattern, _stiffness_blocks(mesh, coeff))
        diagonals.append(None if mesh.box_shape is None else _constant_diagonal(coeff))
    diag_R, diag_I = diagonals
    weights = None if diag_R is None or diag_I is None else diag_R + 1j * diag_I
    return BlockSystem(mesh, _csr(pattern, data), axis_weights=weights)


def energy_pairing(system: BlockSystem, u: ComplexField, v: ComplexField) -> complex:
    """Bilinear energy integral: sum over tets of A grad(u) . grad(v) vol."""
    if u.mesh is not system.mesh or v.mesh is not system.mesh:
        raise ConfigError("fields must live on the system's mesh")
    return complex(u.values @ (system.K @ v.values))


def energy_density(mesh: Mesh, coeff, u: ComplexField, v: ComplexField) -> np.ndarray:
    """Per-tet contributions vol * (coeff grad u) . grad v (unconjugated)."""
    if u.mesh is not mesh or v.mesh is not mesh:
        raise ConfigError("fields must live on the given mesh")
    coeff = np.asarray(coeff)
    if coeff.ndim == 2:
        coeff = np.broadcast_to(coeff, (mesh.n_tets, 3, 3))
    gu = u.gradients()
    gv = v.gradients()
    return np.einsum("tj,tjk,tk->t", gu, coeff, gv) * mesh.volumes


def interpolate(mesh: Mesh, fn) -> ComplexField:
    """Nodal interpolation of a callable fn(points) -> complex values."""
    return ComplexField(mesh, np.asarray(fn(mesh.verts), dtype=complex))

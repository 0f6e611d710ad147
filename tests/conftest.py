import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import admitlab.estimator
from admitlab.errors import SolverError
from admitlab.estimator import LabFrame, build_forward, build_frame
from admitlab.families import constant_field, scalar_identity_family
from admitlab.fem import (_CORNER_OFFSETS, _FACE_LOCAL, _STENCIL_OFFSETS, _TET_PATTERNS,
                          BlockSystem, _corner_mean, _SolverRead, stiffness_stencil)
from admitlab.geometry import BoundaryPatch, BoxDomain


def _factor_interior(K_ii):
    """Sparse LU of an interior block, ordered and factored symmetrically.

    Every interior block here is complex symmetric with a positive definite
    real part, so elimination in diagonal order needs no pivoting; the
    residual checks of `BlockSystem` stay as the guard.
    """
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(K_ii.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorisation failed: {exc}") from exc


def lattice_topology(cells):
    """The tests' reference topology of a set of distinct lattice cells,
    through np.unique over rows: the vertex ijk keys in lexicographic
    order, the vertex indices (C, 8) of each cell's corners, by corner id,
    and the boundary triangles, the Kuhn faces of exactly one tet, each row
    sorted and the rows in lexicographic order."""
    cells = np.asarray(cells, dtype=np.int64)
    corners = (cells[:, None, :] + _CORNER_OFFSETS[None, :, :]).reshape(-1, 3)
    ijk, inverse = np.unique(corners, axis=0, return_inverse=True)
    cell_corners = inverse.reshape(len(cells), 8)
    faces = np.sort(cell_corners[:, _TET_PATTERNS][:, :, _FACE_LOCAL].reshape(-1, 3), axis=1)
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    return ijk, cell_corners, uniq[counts == 1]


def box_cells(mesh):
    """The lattice cells (C, 3) of a box mesh, by their lowest corners, in
    lexicographic order."""
    return np.stack(np.meshgrid(*map(np.arange, mesh.lo, mesh.hi), indexing="ij"),
                    axis=-1).reshape(-1, 3)


class UnionMesh:
    """The tests' Omega_eta reference: the union of the cells of two box
    meshes on one lattice, the `core`'s cells and then the `bump`'s, with
    the topology of `lattice_topology`.  Its vertices are numbered by a
    lattice-key dict, Omega first: the core's in their order, then the
    bump's others in bump order.  Tet 6 c + p is Kuhn pattern p of cell c.
    It has what `coo_stiffness`, `lu_system` and the corrected probes read
    of a mesh."""

    def __init__(self, core, bump):
        self.h, self.anchor = core.h, core.anchor
        self.type_grads, self.type_volumes = core.type_grads, core.type_volumes
        ijk, cell_corners, tris = lattice_topology(np.concatenate([box_cells(core),
                                                                   box_cells(bump)]))
        index = {}
        for key in map(tuple, np.concatenate([core.ijk, bump.ijk]).tolist()):
            index.setdefault(key, len(index))
        assert len(index) == len(ijk)
        number = np.array([index[key] for key in map(tuple, ijk.tolist())])
        self.ijk = np.empty_like(ijk)
        self.ijk[number] = ijk
        self.verts = self.anchor + self.ijk * self.h
        self._corners = number[cell_corners][:, _TET_PATTERNS].reshape(-1, 4)
        self.boundary_vertex_mask = np.zeros(len(ijk), dtype=bool)
        self.boundary_vertex_mask[number[tris]] = True
        self.n_tets = len(self._corners)

    @property
    def n_vertices(self):
        return len(self.ijk)

    def corners(self):
        return self._corners

    def barycenters(self):
        return _corner_mean(self.verts, self._corners)


class LuSystem(BlockSystem):
    """The tests' oracle: a `BlockSystem` on any mesh, the `UnionMesh` of
    Omega_eta among them, its blocks sliced from a whole K, whose interior
    block is factored by sparse LU at the first solve.  Its Schur
    complements, Dirichlet solves and residual checks are `BlockSystem`'s
    own; its read has no layer, so no Schur complement takes a closed
    form."""

    _read = _SolverRead("sparse-lu", {}, {})

    def __init__(self, mesh, K):
        super().__init__(mesh)
        K_i = K[self.interior]
        self._K_ii = K_i[:, self.interior].tocsr()
        self._K_ib = K_i[:, self.boundary].tocsr()
        self._K_b = K[self.boundary].tocsr()

    def _interior_solver(self):
        # Looked up at call time, so the `factor_calls` spy sees it.
        solve = _factor_interior(self._K_ii).solve
        self.factored_dofs += len(self.interior)
        return solve

    def _subset_positions(self, sigma):
        # SuperLU's multi-column solves move a column's last bits with its
        # block, so a subset of the memoised dofs is solved afresh.
        return None


def matrix(system):
    """K of a `BlockSystem`, rebuilt from the three blocks it keeps."""
    blocks = [(system._K_ii, system.interior, system.interior),
              (system._K_ib, system.interior, system.boundary),
              (system._K_b, system.boundary, None)]
    coo = [(block.tocoo(), rows, cols) for block, rows, cols in blocks]
    data = np.concatenate([b.data for b, _, _ in coo])
    rows = np.concatenate([rows[b.row] for b, rows, _ in coo])
    cols = np.concatenate([b.col if cols is None else cols[b.col] for b, _, cols in coo])
    return sp.csr_matrix((data, (rows, cols)), shape=(system.mesh.n_vertices,) * 2)


def block_matrix(system):
    """The real block form [[K_R, -K_I], [K_I, K_R]] of a `BlockSystem`'s K."""
    K = matrix(system)
    # The parts are copied: .real and .imag share K's data array, which
    # eliminate_zeros would compact in place.
    K_R, K_I = K.real.copy(), K.imag.copy()
    K_R.eliminate_zeros()
    K_I.eliminate_zeros()
    return sp.bmat([[K_R, -K_I], [K_I, K_R]], format="csr")


def stencil_csr(mesh, data):
    """The square CSR matrix of the stencil array `data` (15 n,) of a box
    mesh, exact zeros dropped; `data` becomes its data.

    Slot 15 v + s is the entry of row v and column v plus offset s.  The
    slots whose column is off the box were never written, so they are
    exact zeros and are dropped with the others; their indices are clipped
    onto the box until then.
    """
    n = mesh.n_vertices
    steps = _STENCIL_OFFSETS @ mesh._strides
    indices = np.arange(n, dtype=np.int32)[:, None] + steps.astype(np.int32)
    np.clip(indices, 0, n - 1, out=indices)
    indptr = np.arange(0, 15 * n + 1, 15, dtype=np.int32)
    mat = sp.csr_matrix((data, indices.ravel(), indptr), shape=(n, n))
    mat.eliminate_zeros()
    return mat


def assemble_stiffness(mesh, coeff):
    """Stiffness matrix of a box mesh for a per-tet (or constant) real 3x3
    coefficient: the CSR matrix of `stiffness_stencil`."""
    return stencil_csr(mesh, stiffness_stencil(mesh, coeff))


def gradients(mesh, values):
    """The tests' gradient reference for `energy_density`: the constant
    gradients (T, 3) of the nodal field `values` (n,) on the tets of a box
    mesh, from their patterns' barycentric gradients."""
    corners = mesh.corners()
    return np.einsum("ta,taj->tj", np.asarray(values, dtype=complex)[corners],
                     np.tile(mesh.type_grads, (len(corners) // len(_TET_PATTERNS), 1, 1)))


def coo_stiffness(mesh, coeff):
    """Reference assembly on any mesh: per-tet local matrices summed through
    COO."""
    coeff = np.broadcast_to(np.asarray(coeff), (mesh.n_tets, 3, 3))
    # Tet 6 c + p is Kuhn pattern p of cell c.
    patterns = np.arange(mesh.n_tets) % 6
    grads = mesh.type_grads[patterns]
    local = np.einsum("taj,tjk,tbk->tab", grads, coeff, grads)
    local = local * mesh.type_volumes[patterns][:, None, None]
    rows = np.repeat(mesh.corners(), 4, axis=1).reshape(-1)
    cols = np.tile(mesh.corners(), (1, 4)).reshape(-1)
    return sp.coo_matrix((local.reshape(-1), (rows, cols)),
                         shape=(mesh.n_vertices,) * 2).tocsr()


def bincount_csr(elems, n: int, local):
    """Reference sum of the real or complex element blocks `local` (E, m, m)
    on the rows and columns `elems` (E, m) of an n x n matrix: one
    np.bincount per part of all blocks in element order, over the np.unique
    row * n + col keys, with int32 indices and exact zeros dropped."""
    elems = np.asarray(elems, dtype=np.int64)
    keys, slots = np.unique((elems[:, :, None] * n + elems[:, None, :]).ravel(),
                            return_inverse=True)
    local = np.asarray(local).reshape(-1)
    data = np.empty(len(keys), dtype=local.dtype)
    data.real = np.bincount(slots, weights=local.real, minlength=len(keys))
    if np.iscomplexobj(local):
        data.imag = np.bincount(slots, weights=local.imag, minlength=len(keys))
    rows = keys // n
    mat = sp.csr_matrix((data, (keys - rows * n).astype(np.int32),
                         np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)),
                        shape=(n, n))
    mat.eliminate_zeros()
    return mat


def traced_extra(fn):
    """fn() and the bytes by which its traced peak rose above what it left
    live."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - current


def lu_system(mesh, family, a, k) -> LuSystem:
    """The oracle system of div(A(x, a(x)) grad u) = 0 on any mesh, its real
    and imaginary stiffness assembled through COO from the per-tet
    coefficient."""
    bary = mesh.barycenters()
    t = np.broadcast_to(np.asarray(a.values(bary), dtype=float), (len(bary),))
    real = np.broadcast_to(family.real_part(bary, t), (len(bary), 3, 3))
    imag = np.broadcast_to(k * family.imag_part(bary, t), (len(bary), 3, 3))
    system = LuSystem(mesh, (coo_stiffness(mesh, real) + 1j * coo_stiffness(mesh, imag)).tocsr())
    system.field = (family, a, k)
    return system


@pytest.fixture(scope="session")
def unit_box():
    return BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def patch(unit_box):
    return BoundaryPatch(unit_box, "z+", (0.2, 0.2), (0.8, 0.8))


@pytest.fixture(scope="session")
def scalar_family():
    return scalar_identity_family(k=0.05, imag=1.0)


@pytest.fixture(scope="session")
def frame16(unit_box, patch, scalar_family) -> LabFrame:
    """Shared 1/16-pitch frame for the scalar family; reused by many tests."""
    return build_frame(unit_box, patch, 0.25, 0.0625, scalar_family)


@pytest.fixture(scope="session")
def forward_a1(frame16):
    return build_forward(frame16, constant_field(1.0))


@pytest.fixture
def probe_calls(monkeypatch):
    """Probe count of every `build_corrected_probe` call the estimators make."""
    calls = []
    real = admitlab.estimator.build_corrected_probe

    def counting(probes, *args, **kwargs):
        calls.append(len(probes))
        return real(probes, *args, **kwargs)

    monkeypatch.setattr(admitlab.estimator, "build_corrected_probe", counting)
    return calls


@pytest.fixture
def assembly_log(monkeypatch):
    """("assemble", a) and ("dtn", a) entries, in call order, for every
    system and DtN the estimators assemble; a DtN is logged with the field
    its system was assembled from."""
    log = []
    fields = weakref.WeakKeyDictionary()
    real_assemble = admitlab.estimator.assemble
    real_dtn = admitlab.estimator.assemble_dtn

    def assemble(mesh, family, a, k):
        log.append(("assemble", a))
        system = real_assemble(mesh, family, a, k)
        fields[system] = a
        return system

    def assemble_dtn(system, *args, **kwargs):
        log.append(("dtn", fields[system]))
        return real_dtn(system, *args, **kwargs)

    monkeypatch.setattr(admitlab.estimator, "assemble", assemble)
    monkeypatch.setattr(admitlab.estimator, "assemble_dtn", assemble_dtn)
    return log


@pytest.fixture
def factor_calls(monkeypatch):
    """Interior size of every sparse LU factorisation, all of them the
    oracle's: no `admitlab` module can make one."""
    calls = []
    real = _factor_interior

    def counting(K_ii):
        calls.append(K_ii.shape[0])
        return real(K_ii)

    monkeypatch.setattr(sys.modules[__name__], "_factor_interior", counting)
    return calls

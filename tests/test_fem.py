import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from admitlab.errors import ConfigError, GeometryError, SolverError
from admitlab.families import (affine_field, constant_field,
                               diagonal_affine_family, gaussian_bump_field,
                               rotated_anisotropic_family,
                               scalar_identity_family)
from admitlab.dtn import boundary_mass_sigma
from admitlab.estimator import build_forward, build_frame
from admitlab.fem import (_CORNER_OFFSETS, _FACE_LOCAL, _TET_PATTERNS,
                          BlockSystem, ComplexField, Mesh, SubstructuredSystem,
                          _lattice_topology, _stiffness_blocks, assemble,
                          assemble_csr, assemble_stiffness, box_solve,
                          build_mesh, energy_density)
from admitlab.geometry import (FACE_NAMES, BoxDomain, BoundaryPatch,
                               EnlargedDomain, build_enlarged_domain)

BOX = BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
LAPLACE = scalar_identity_family(k=0.0, imag=0.0)
A_ONE = constant_field(1.0)


class TestMesh:
    def test_counts_quarter_pitch(self):
        mesh = build_mesh(BOX, 0.25)
        assert mesh.n_vertices == 125
        assert mesh.n_tets == 6 * 64

    def test_counts_half_pitch_rejected(self):
        # Two cells per edge violate the minimum of four.
        with pytest.raises(ConfigError):
            build_mesh(BOX, 0.5)

    def test_non_divider_rejected(self):
        with pytest.raises(ConfigError):
            build_mesh(BOX, 0.3)

    def test_positive_volumes_and_partition(self):
        mesh = build_mesh(BOX, 0.25)
        volumes = mesh.type_volumes[mesh.tet_type]
        assert np.all(volumes > 0.0)
        assert np.sum(volumes) == pytest.approx(1.0, abs=1e-12)
        # Boundary triangles tile the cube surface.
        pts = mesh.verts[mesh.boundary_tris]
        areas = 0.5 * np.linalg.norm(
            np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]), axis=1
        )
        assert np.sum(areas) == pytest.approx(6.0, abs=1e-12)

    def test_sigma_tagging(self):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.25, patch=patch)
        tagged = mesh.boundary_tris[mesh.sigma_mask]
        assert len(tagged) > 0
        pts = mesh.verts[tagged].reshape(-1, 3)
        assert np.all(np.abs(pts[:, 2] - 1.0) < 1e-12)
        assert np.all((pts[:, 0] >= 0.2 - 1e-12) & (pts[:, 0] <= 0.8 + 1e-12))

    def test_enlarged_mesh_shares_lattice(self):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        enlarged = build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125)
        mesh = build_mesh(BOX, 0.125, patch=patch)
        mesh_eta = build_mesh(enlarged, 0.125)
        vmap = mesh.shared_vertex_map(mesh_eta)
        assert np.allclose(mesh.verts, mesh_eta.verts[vmap])

    @pytest.mark.parametrize("face, base_lo, base_hi, thickness", [
        ("z+", (0.25, 0.25), (0.75, 0.75), 0.3),
        ("z-", (0.25, 0.25), (0.75, 0.75), 0.3),
        ("z+", (0.3, 0.25), (0.75, 0.75), 0.25),
        ("x-", (0.25, 0.25), (0.75, 0.7), 0.25),
    ], ids=["thickness-top", "thickness-bottom", "base-lo", "base-hi"])
    def test_unaligned_bump_rejected(self, face, base_lo, base_hi, thickness):
        # Hand-built, since build_enlarged_domain snaps the bump to its grid.
        patch = BoundaryPatch(BOX, face, (0.2, 0.2), (0.8, 0.8))
        bump = EnlargedDomain(BOX, patch, 0.25, base_lo, base_hi, thickness)
        with pytest.raises(GeometryError, match="not aligned"):
            build_mesh(bump, 0.125)


def _dict_vertex_map(mesh, other):
    """Reference lookup: one dict probe per vertex of `mesh`."""
    lookup = {tuple(key): i for i, key in enumerate(map(tuple, other.ijk))}
    return np.array([lookup[tuple(int(v) for v in key)] for key in mesh.ijk], dtype=int)


@st.composite
def enlarged_meshes(draw):
    """Box and enlarged-domain meshes on a random lattice, face and patch.

    Patch edges sit half a pitch off the lattice and eta = 2h, so the bump
    base snaps inside the patch with an inset of h/2.
    """
    h = draw(st.sampled_from([0.25, 0.2, 0.125]))
    cells = [draw(st.integers(6, 8)) for _ in range(3)]
    lo = np.array([draw(st.integers(-4, 4)) * 0.125 for _ in range(3)])
    box = BoxDomain(tuple(lo), tuple(lo + np.array(cells) * h))
    face = draw(st.sampled_from(sorted(FACE_NAMES)))
    axis = FACE_NAMES[face][0]
    rect_lo, rect_hi = [], []
    for t in (a for a in range(3) if a != axis):
        i0 = draw(st.integers(0, cells[t] - 6))
        i1 = draw(st.integers(i0 + 6, cells[t]))
        rect_lo.append(lo[t] + (i0 + 0.5) * h)
        rect_hi.append(lo[t] + (i1 - 0.5) * h)
    patch = BoundaryPatch(box, face, tuple(rect_lo), tuple(rect_hi))
    enlarged = build_enlarged_domain(box, patch, 2.0 * h, grid_h=h, check_samples=100)
    return build_mesh(box, h, patch=patch), build_mesh(enlarged, h)


class TestVertexLookup:
    @settings(max_examples=25, deadline=None)
    @given(meshes=enlarged_meshes())
    def test_shared_map_matches_dict_lookup(self, meshes):
        mesh, mesh_eta = meshes
        vmap = mesh.shared_vertex_map(mesh_eta)
        assert np.array_equal(vmap, _dict_vertex_map(mesh, mesh_eta))
        assert np.allclose(mesh.verts, mesh_eta.verts[vmap])
        # The bump vertices have no counterpart in the box mesh.
        with pytest.raises(GeometryError):
            mesh_eta.shared_vertex_map(mesh)

    @settings(max_examples=25, deadline=None)
    @given(meshes=enlarged_meshes(), data=st.data())
    def test_single_key_found_or_rejected(self, meshes, data):
        _, mesh_eta = meshes
        lookup = {tuple(key): i for i, key in enumerate(map(tuple, mesh_eta.ijk))}
        key = tuple(
            data.draw(st.integers(int(lo) - 2, int(hi) + 2))
            for lo, hi in zip(mesh_eta.ijk.min(axis=0), mesh_eta.ijk.max(axis=0))
        )
        if key in lookup:
            assert mesh_eta.vertex_indices([key]).tolist() == [lookup[key]]
        else:
            with pytest.raises(GeometryError):
                mesh_eta.vertex_indices([key])

    def test_foreign_lattice_rejected(self):
        with pytest.raises(GeometryError):
            build_mesh(BOX, 0.25).shared_vertex_map(build_mesh(BOX, 0.125))


def _unique_rows_topology(cells):
    """Reference lattice topology through np.unique over ijk and face rows."""
    cells = np.asarray(cells, dtype=np.int64)
    corners = (cells[:, None, :] + _CORNER_OFFSETS[None, :, :]).reshape(-1, 3)
    verts_ijk, inverse = np.unique(corners, axis=0, return_inverse=True)
    tets = inverse.reshape(len(cells), 8)[:, _TET_PATTERNS].reshape(-1, 4)
    faces = np.sort(tets[:, _FACE_LOCAL].reshape(-1, 3), axis=1)
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    return verts_ijk, tets, uniq[counts == 1]


def _coo_stiffness(mesh, coeff):
    """Reference assembly: per-tet local matrices summed through COO."""
    coeff = np.broadcast_to(np.asarray(coeff), (mesh.n_tets, 3, 3))
    grads = mesh.type_grads[mesh.tet_type]
    local = np.einsum("taj,tjk,tbk->tab", grads, coeff, grads)
    local = local * mesh.type_volumes[mesh.tet_type][:, None, None]
    rows = np.repeat(mesh.tets, 4, axis=1).reshape(-1)
    cols = np.tile(mesh.tets, (1, 4)).reshape(-1)
    return sp.coo_matrix((local.reshape(-1), (rows, cols)),
                         shape=(mesh.n_vertices,) * 2).tocsr()


@st.composite
def lattice_cells(draw):
    """A box of lattice cells at a random offset, with a block of cells
    attached over part of one face in about half the draws."""
    n = np.array([draw(st.integers(1, 5)) for _ in range(3)])
    lo = np.array([draw(st.integers(-6, 6)) for _ in range(3)])
    ranges = [range(lo[a], lo[a] + n[a]) for a in range(3)]
    blocks = [ranges]
    if draw(st.booleans()):
        axis = draw(st.integers(0, 2))
        depth = draw(st.integers(1, 3))
        bump = list(ranges)
        bump[axis] = (range(lo[axis] + n[axis], lo[axis] + n[axis] + depth)
                      if draw(st.booleans()) else range(lo[axis] - depth, lo[axis]))
        for t in (a for a in range(3) if a != axis):
            i0 = draw(st.integers(0, n[t] - 1))
            i1 = draw(st.integers(i0 + 1, n[t]))
            bump[t] = range(lo[t] + i0, lo[t] + i1)
        blocks.append(bump)
    cells = [np.stack(np.meshgrid(*b, indexing="ij"), axis=-1).reshape(-1, 3)
             for b in blocks]
    return np.concatenate(cells)


class TestKeyedMeshBuild:
    @settings(max_examples=60, deadline=None)
    @given(cells=lattice_cells())
    def test_matches_unique_rows_reference(self, cells):
        got = _lattice_topology(cells)
        want = _unique_rows_topology(cells)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def _det_inv_geometry(verts, tets):
    """Oriented tets, volumes and barycentric gradients by np.linalg.det and
    np.linalg.inv, kept as the oracle of the closed-form geometry."""
    def edges(t):
        return np.stack([verts[t[:, a]] - verts[t[:, 0]] for a in (1, 2, 3)], axis=-1)

    flip = np.linalg.det(edges(tets)) < 0.0
    tets = tets.copy()
    tets[flip, 2], tets[flip, 3] = tets[flip, 3], tets[flip, 2]
    G = edges(tets)
    grads = np.empty((len(tets), 4, 3))
    grads[:, 1:] = np.linalg.inv(G)
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return tets, np.linalg.det(G) / 6.0, grads


def _assert_matches_det_inv(mesh, verts, tets):
    """The mesh's gathered type geometry is the per-tet det/inv geometry."""
    want_tets, want_vol, want_grads = _det_inv_geometry(verts, tets)
    assert np.array_equal(mesh.tets, want_tets)
    np.testing.assert_allclose(mesh.type_volumes[mesh.tet_type], want_vol,
                               rtol=1e-14, atol=0.0)
    scale = np.max(np.abs(want_grads), axis=(1, 2))
    err = np.max(np.abs(mesh.type_grads[mesh.tet_type] - want_grads), axis=(1, 2))
    assert np.all(err <= 1e-14 * scale)


def _assert_no_per_tet_floats(mesh):
    for name, value in vars(mesh).items():
        if isinstance(value, np.ndarray) and value.ndim and len(value) == mesh.n_tets:
            assert value.dtype.kind in "iub", name


class TestClosedFormGeometry:
    def test_box_meshes(self):
        for h in (0.25, 0.2, 0.125, 0.05):
            mesh = build_mesh(BOX, h)
            raw = _lattice_topology(
                np.stack(np.meshgrid(*[np.arange(round(1 / h))] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3))[1]
            # The Kuhn tets come out positively oriented, so the det/inv
            # oracle flips none of them.
            edges = mesh.verts[raw[:, 1:]] - mesh.verts[raw[:, :1]]
            assert np.all(np.linalg.det(edges) > 0.0)
            assert np.array_equal(mesh.tets, raw)
            _assert_matches_det_inv(mesh, mesh.verts, raw)
            # Six types, tet 6 c + p of Kuhn pattern p, each of volume h^3 / 6.
            assert mesh.tet_type.dtype == np.int8 and len(mesh.type_grads) == 6
            assert np.array_equal(mesh.tet_type, np.arange(mesh.n_tets) % 6)
            np.testing.assert_allclose(mesh.type_volumes, h ** 3 / 6.0, rtol=1e-14)
            _assert_no_per_tet_floats(mesh)

    @settings(max_examples=25, deadline=None)
    @given(meshes=enlarged_meshes())
    def test_enlarged_meshes(self, meshes):
        for mesh in meshes:
            _assert_matches_det_inv(mesh, mesh.verts, mesh.tets)
            _assert_no_per_tet_floats(mesh)

    def test_unsorted_vertices_raise(self):
        mesh = build_mesh(BOX, 0.25)
        order = np.arange(mesh.n_vertices)
        order[[3, 4]] = order[[4, 3]]
        with pytest.raises(GeometryError, match="increasing ijk order"):
            Mesh(mesh.tets, mesh.ijk[order], mesh.h, mesh.anchor, mesh.boundary_tris)


def _aniso_coeffs(n_tets, seed):
    """Random symmetric positive definite per-tet coefficients."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n_tets, 3, 3))
    return M @ M.transpose(0, 2, 1) + 0.5 * np.eye(3)


class TestCachedPatternAssembly:
    @pytest.fixture(scope="class")
    def meshes(self):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        enlarged = build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125)
        return {"box": build_mesh(BOX, 0.125, patch=patch),
                "enlarged": build_mesh(enlarged, 0.125),
                "fifth": build_mesh(BOX, 0.2)}

    @pytest.mark.parametrize("name", ["box", "enlarged", "fifth"])
    @pytest.mark.parametrize("kind", ["constant", "anisotropic"])
    def test_matches_coo_reference(self, meshes, name, kind):
        mesh = meshes[name]
        if kind == "constant":
            coeff = np.array([[1.3, 0.2, -0.1], [0.2, 0.9, 0.3], [-0.1, 0.3, 1.1]])
        else:
            coeff = _aniso_coeffs(mesh.n_tets, seed=7)
        K = assemble_stiffness(mesh, coeff)
        ref = _coo_stiffness(mesh, coeff)
        assert K.shape == ref.shape
        assert abs(K - ref).max() <= 1e-14 * abs(ref).max()
        assert K.has_sorted_indices

    def test_boundary_mass_matches_coo_reference(self, meshes):
        mesh = meshes["box"]
        M = boundary_mass_sigma(mesh)
        tris = mesh.boundary_tris[mesh.sigma_mask]
        pts = mesh.verts[tris]
        areas = 0.5 * np.linalg.norm(
            np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]), axis=1)
        local = areas[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
        ref = sp.coo_matrix((local.reshape(-1), (np.repeat(tris, 3, axis=1).reshape(-1),
                                                 np.tile(tris, (1, 3)).reshape(-1))),
                            shape=(mesh.n_vertices,) * 2).tocsr()
        assert abs(M - ref).max() <= 1e-14 * abs(ref).max()

    def test_zero_coefficient_leaves_cache_and_matrices(self):
        mesh = build_mesh(BOX, 0.25)
        K1 = assemble_stiffness(mesh, np.eye(3))
        pattern = mesh.stiffness_pattern
        saved = [arr.copy() for arr in pattern]
        K1_saved = K1.copy()
        K0 = assemble_stiffness(mesh, np.zeros((3, 3)))
        assert K0.nnz == 0
        assert mesh.stiffness_pattern is pattern
        for arr, copy in zip(pattern, saved):
            assert not arr.flags.writeable
            assert np.array_equal(arr, copy)
        assert (K1 != K1_saved).nnz == 0
        assert K1.nnz == K1_saved.nnz
        K2 = assemble_stiffness(mesh, np.eye(3))
        assert (K2 != K1).nnz == 0
        system = assemble(mesh, LAPLACE, A_ONE, 0.0)
        assert not np.any(system.K.data.imag)
        assert (system.K != K1).nnz == 0


class TestBlockSystem:
    def test_block_structure_exact(self):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE, 0.1)
        K = system.block_matrix
        n = mesh.n_vertices
        assert (K[:n, :n] != K[n:, n:]).nnz == 0
        assert (K[:n, n:] + K[n:, :n]).nnz == 0

    @pytest.mark.parametrize("domain", ["omega", "omega-eta"])
    @pytest.mark.parametrize("fam", [
        scalar_identity_family(k=0.1, imag=1.0),
        diagonal_affine_family(k=0.05, slope=(1.0, 1.2, 0.8), offset=(0.1, 0.0, 0.2),
                               imag=(1.0, 0.7, 1.3)),
        rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1),
    ], ids=["scalar", "diagonal", "rotated"])
    def test_block_matrix_matches_separate_assembly(self, fam, domain):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        if domain == "omega":
            mesh = build_mesh(BOX, 0.125, patch=patch)
        else:
            mesh = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        a = affine_field(1.0, (0.1, -0.05, 0.2))
        system = assemble(mesh, fam, a, fam.freq)
        t = a.values(mesh.barycenters())
        K_R = assemble_stiffness(mesh, fam.real_part(mesh.barycenters(), t))
        K_I = assemble_stiffness(mesh, fam.freq * fam.imag_part(mesh.barycenters(), t))
        assert K_I.nnz > 0
        ref = sp.bmat([[K_R, -K_I], [K_I, K_R]], format="csr")
        block = system.block_matrix
        assert block.nnz == ref.nnz
        for got, want in ((block.indptr, ref.indptr), (block.indices, ref.indices),
                          (block.data, ref.data)):
            assert np.array_equal(got, want)

    def test_schur_onto_rejects_interior_dofs(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE, 0.0)
        sigma = np.append(system.boundary[:3], system.interior[0])
        with pytest.raises(ConfigError):
            system.schur_onto(sigma)

    def test_laplace_blocks(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE, 0.0)
        lap = assemble_stiffness(mesh, np.eye(3))
        assert (system.K != lap).nnz == 0
        assert not np.any(system.K.data.imag)

    def test_off_diagonal_scaling(self):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE, 0.1)
        lap = assemble_stiffness(mesh, np.eye(3))
        assert np.max(np.abs((system.K.imag - 0.1 * lap).toarray())) <= 1e-14

    def test_quadratic_form_positive(self):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE, 0.1)
        K = system.block_matrix
        rng = np.random.default_rng(0)
        free = np.concatenate([system.interior, system.interior + mesh.n_vertices])
        for _ in range(20):
            v = np.zeros(2 * mesh.n_vertices)
            v[free] = rng.standard_normal(free.size)
            assert v @ (K @ v) > 0.0

    def test_discrete_ellipticity(self):
        # v . K v >= (1/C1) v . K_lap v for constrained vectors, with C1 the
        # ellipticity constant of the real part.
        fam = scalar_identity_family(k=0.1, imag=1.0)
        a = constant_field(0.5)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, a, 0.1)
        K = system.block_matrix
        lap = assemble_stiffness(mesh, np.eye(3))
        import scipy.sparse as sp

        K_lap = sp.bmat([[lap, None], [None, lap]], format="csr")
        c1 = 2.0  # spectral bound of A_R = t I on t in [1/2, 2]
        rng = np.random.default_rng(1)
        free = np.concatenate([system.interior, system.interior + mesh.n_vertices])
        for _ in range(50):
            v = np.zeros(2 * mesh.n_vertices)
            v[free] = rng.standard_normal(free.size)
            lhs = v @ (K @ v)
            rhs = (v @ (K_lap @ v)) / c1
            assert lhs * 1.05 >= rhs

    def test_linear_reproduction(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE, 0.0)
        g = mesh.verts[:, 0].astype(complex)
        u = system.solve_dirichlet(g)
        assert np.max(np.abs(u.values - g)) <= 1e-12

    def test_complex_scalar_divides_out(self):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE, 0.1)
        g = mesh.verts[:, 0].astype(complex)
        u = system.solve_dirichlet(g)
        assert np.max(np.abs(u.values - g)) <= 1e-12

    def test_boundary_values_exact(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE, 0.0)
        rng = np.random.default_rng(2)
        g = (rng.standard_normal(mesh.n_vertices)
             + 1j * rng.standard_normal(mesh.n_vertices))
        u = system.solve_dirichlet(g)
        bnd = mesh.boundary_vertex_mask
        assert np.array_equal(u.values[bnd], g[bnd])

    def test_interior_residual_bound(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE, 0.0)
        rng = np.random.default_rng(3)
        g = rng.standard_normal(mesh.n_vertices).astype(complex)
        u = system.solve_dirichlet(g)
        rhs = -(system._K_ib @ g[system.boundary])
        resid = np.linalg.norm(system._K_ii @ u.values[system.interior] - rhs)
        assert resid <= 1e-10 * np.linalg.norm(rhs)

    def test_nonfinite_data_rejected(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE, 0.0)
        g = np.zeros(mesh.n_vertices, dtype=complex)
        g[mesh.boundary_vertex_mask] = np.nan
        with pytest.raises(SolverError):
            system.solve_dirichlet(g)


class TestColumnSolves:
    """Dirichlet data given as (n, c) columns share one interior solve.

    These run on the sparse LU path; TestColumnSolvesOnBox and
    TestColumnSolvesOnCocg run them again on the sine-transform box path
    and on the box-preconditioned COCG path.
    """

    PATH = "lu"

    def _system_and_data(self, columns, seed=4):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE, 0.1)
        assert system.axis_weights is not None
        if self.PATH == "lu":
            system = BlockSystem(mesh, system.K)
        elif self.PATH == "cocg":
            system = BlockSystem(mesh, system.K, cocg_weights=system.axis_weights)
        rng = np.random.default_rng(seed)
        g = (rng.standard_normal((mesh.n_vertices, columns))
             + 1j * rng.standard_normal((mesh.n_vertices, columns)))
        return system, g

    def test_solver_path(self, factor_calls):
        system, g = self._system_and_data(2)
        system.solve_dirichlet(g)
        assert len(factor_calls) == (1 if self.PATH == "lu" else 0)

    def test_columns_equal_single_solves(self):
        system, g = self._system_and_data(5)
        u = system.solve_dirichlet(g)
        assert isinstance(u, np.ndarray) and u.shape == g.shape
        for j in range(g.shape[1]):
            single = system.solve_dirichlet(g[:, j])
            assert isinstance(single, ComplexField)
            scale = np.max(np.abs(single.values))
            assert np.max(np.abs(u[:, j] - single.values)) <= 1e-14 * scale

    def test_single_column_matrix(self):
        system, g = self._system_and_data(1)
        u = system.solve_dirichlet(g)
        assert u.shape == g.shape
        assert np.array_equal(u[:, 0], system.solve_dirichlet(g[:, 0]).values)

    def test_poisoned_column_named(self, monkeypatch):
        system, g = self._system_and_data(4)
        solve = system._solve_interior

        def poisoned(rhs):
            out = solve(rhs)
            out[:, 2] += 1e-3 * np.max(np.abs(out))
            return out

        monkeypatch.setattr(system, "_solve_interior", poisoned)
        with pytest.raises(SolverError) as err:
            system.solve_dirichlet(g)
        assert err.value.diagnostics["column"] == 2

    def test_nan_solution_column_named(self, monkeypatch):
        system, g = self._system_and_data(3)
        solve = system._solve_interior

        def poisoned(rhs):
            out = solve(rhs)
            out[0, 1] = np.nan
            return out

        monkeypatch.setattr(system, "_solve_interior", poisoned)
        with pytest.raises(SolverError) as err:
            system.solve_dirichlet(g)
        assert err.value.diagnostics["column"] == 1

    def test_nonfinite_column_data_rejected(self):
        system, g = self._system_and_data(3)
        g[system.boundary[5], 2] = np.inf
        with pytest.raises(SolverError) as err:
            system.solve_dirichlet(g)
        assert err.value.diagnostics["column"] == 2

    @pytest.mark.parametrize("shape", [(7,), (7, 2), (125, 2, 1)])
    def test_wrong_shape_rejected(self, shape):
        system, _ = self._system_and_data(1)
        with pytest.raises(ConfigError):
            system.solve_dirichlet(np.zeros(shape, dtype=complex))


class TestColumnSolvesOnBox(TestColumnSolves):
    PATH = "box"


class TestColumnSolvesOnCocg(TestColumnSolves):
    PATH = "cocg"


DIAG_123 = diagonal_affine_family(k=0.5, slope=(1.0, 2.0, 3.0), offset=(0.0, 0.0, 0.0),
                                  imag=(1.0, 2.0, 3.0))


@st.composite
def box_weight_cases(draw):
    """A full box mesh of random cell counts and offset, and complex per-axis
    weights with positive real parts."""
    h = draw(st.sampled_from([0.25, 0.125]))
    cells = np.array([draw(st.integers(4, 7)) for _ in range(3)])
    lo = np.array([draw(st.integers(-4, 4)) * 0.125 for _ in range(3)])
    mesh = build_mesh(BoxDomain(tuple(lo), tuple(lo + cells * h)), h)
    weights = np.array([complex(draw(st.floats(0.2, 3.0)), draw(st.floats(-1.0, 1.0)))
                        for _ in range(3)])
    return mesh, weights


class TestBoxSolve:
    """The sine-transform interior solve against dense and sparse LU solves."""

    def test_box_shape(self):
        mesh = build_mesh(BoxDomain((0.0, 0.0, 0.0), (1.25, 1.0, 1.5)), 0.25)
        assert mesh.box_shape == (4, 3, 5)
        assert np.sum(~mesh.boundary_vertex_mask) == 60
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        enlarged = build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125)
        mesh_eta = build_mesh(enlarged, 0.125)
        assert mesh_eta.box_shape is None
        with pytest.raises(GeometryError):
            box_solve(mesh_eta, (1.0, 1.0, 1.0))

    @settings(max_examples=20, deadline=None)
    @given(box_weight_cases())
    def test_matches_dense_solve(self, case):
        mesh, weights = case
        K = (assemble_stiffness(mesh, np.diag(weights.real))
             + 1j * assemble_stiffness(mesh, np.diag(weights.imag)))
        interior = np.where(~mesh.boundary_vertex_mask)[0]
        K_ii = K[np.ix_(interior, interior)].toarray()
        rng = np.random.default_rng(len(interior))
        rhs = (rng.standard_normal((len(interior), 3))
               + 1j * rng.standard_normal((len(interior), 3)))
        solve = box_solve(mesh, weights)
        ref = np.linalg.solve(K_ii, rhs)
        x = solve(rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(solve(rhs[:, 1]) - x[:, 1])) <= 1e-14 * np.max(np.abs(ref))

    def test_real_weights_keep_real_data_real(self):
        mesh = build_mesh(BoxDomain((0.0, 0.0, 0.0), (1.0, 1.25, 1.5)), 0.25)
        n = int(np.prod(mesh.box_shape))
        x = box_solve(mesh, (1.0, 1.0, 1.0))(np.ones((n, 2)))
        assert x.dtype == np.float64 and x.shape == (n, 2)

    @pytest.mark.parametrize("fam", [scalar_identity_family(k=0.1, imag=1.0), DIAG_123],
                             ids=["scalar", "diag123"])
    def test_dirichlet_and_schur_match_lu(self, fam, factor_calls):
        mesh = build_mesh(BOX, 0.125)
        box = assemble(mesh, fam, A_ONE, fam.freq)
        assert box.axis_weights is not None
        lu = BlockSystem(mesh, box.K)
        rng = np.random.default_rng(5)
        g = (rng.standard_normal((mesh.n_vertices, 3))
             + 1j * rng.standard_normal((mesh.n_vertices, 3)))
        u_box, u_lu = box.solve_dirichlet(g), lu.solve_dirichlet(g)
        assert factor_calls == [len(lu.interior)]
        assert np.max(np.abs(u_box - u_lu)) <= 1e-12 * np.max(np.abs(u_lu))
        sigma = box.boundary[::7]
        s_box, s_lu = box.schur_onto(sigma), lu.schur_onto(sigma)
        assert np.max(np.abs(s_box - s_lu)) <= 1e-12 * np.max(np.abs(s_lu))
        assert factor_calls == [len(lu.interior)]

    @pytest.mark.parametrize("case, factored", [
        pytest.param(case, factored, id=f"{case}-{len(factored)}") for case, factored in [
            ("constant-scalar", []), ("constant-diag123", []), ("omega-eta", ["omega_eta"]),
            ("affine", []), ("rotated-anisotropic", []),
            ("forward-constant", []), ("forward-affine", []),
        ]
    ])
    def test_which_systems_factor(self, case, factored, factor_calls):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        fam, a = scalar_identity_family(k=0.1, imag=1.0), A_ONE
        mesh = build_mesh(BOX, 0.125, patch=patch)
        mesh_eta = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        if case == "constant-diag123":
            fam = DIAG_123
        elif case.endswith("affine"):
            a = affine_field(1.0, (0.1, -0.05, 0.2))
        elif case == "rotated-anisotropic":
            fam = rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1)
        if case.startswith("forward"):
            # build_forward solves Omega_eta through the Omega system and its
            # bump system: no sparse LU, whatever the Omega system's kind;
            # only the dense footprint interface is inverted.
            fwd = build_forward(build_frame(BOX, patch, 0.25, 0.125, fam), a)
            systems = [fwd.system, fwd.system_eta]
            assert fwd.system_eta.solver_kind == "via-core"
            assert fwd.system_eta.bump.solver_kind == fwd.system.solver_kind
        else:
            system = assemble(mesh_eta if case == "omega-eta" else mesh, fam, a, fam.freq)
            kind = {"omega-eta": "sparse-lu", "affine": "box-cocg",
                    "rotated-anisotropic": "box-cocg"}.get(case, "sine-transform")
            assert system.solver_kind == kind
            systems = [system]
        for system in systems:
            system.solve_dirichlet(np.ones(system.mesh.n_vertices))
        n_omega = int(np.sum(~mesh.boundary_vertex_mask))
        n_eta = int(np.sum(~mesh_eta.boundary_vertex_mask))
        sizes = {"omega": n_omega, "omega_eta": n_eta}
        assert factor_calls == [sizes[name] for name in factored]
        interface = sum(len(s.footprint) for s in systems if s.solver_kind == "via-core")
        assert sum(s.factored_dofs for s in systems) == sum(factor_calls) + interface


ROTATED = rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1)
AFFINE = affine_field(1.0, (0.1, -0.05, 0.2))


def _omega_eta_system(mesh_eta, core, vertex_map, field=None):
    """The Omega_eta system as `Forward.system_eta` builds it: the core and
    the system of `field`, by default the core's, on the part of mesh_eta
    outside the core."""
    family, a, k = field or core.field
    bump_mesh, bump_map = mesh_eta.part_outside(core.mesh, vertex_map)
    return SubstructuredSystem(mesh_eta, core, vertex_map, assemble(bump_mesh, family, a, k),
                               bump_map)


def _core_pair(mesh, mesh_eta, fam, a):
    """The Omega_eta system substructured through its Omega core, and the
    standalone system of the same field on the sparse LU path, the oracle."""
    core = assemble(mesh, fam, a, fam.freq)
    via = _omega_eta_system(mesh_eta, core, mesh.shared_vertex_map(mesh_eta))
    lu = assemble(mesh_eta, fam, a, fam.freq)
    assert via.solver_kind == "via-core" and lu.solver_kind == "sparse-lu"
    assert np.array_equal(via.interior, lu.interior)
    return via, lu


def _assert_core_matches_lu(via, lu, seed=0, columns=3):
    """1-D and 2-D Dirichlet solves of the substructured system match the
    oracle's to 1e-12, and so does its matrix, the sum of the parts'."""
    rng = np.random.default_rng(seed)
    n = via.mesh.n_vertices
    g = rng.standard_normal((n, columns)) + 1j * rng.standard_normal((n, columns))
    u_via, u_lu = via.solve_dirichlet(g), lu.solve_dirichlet(g)
    assert np.max(np.abs(u_via - u_lu)) <= 1e-12 * np.max(np.abs(u_lu))
    v_via, v_lu = via.solve_dirichlet(g[:, 0]), lu.solve_dirichlet(g[:, 0])
    assert isinstance(v_via, ComplexField)
    assert np.max(np.abs(v_via.values - v_lu.values)) <= 1e-12 * np.max(np.abs(v_lu.values))
    assert via.solve_calls == 2 and via.rhs_columns == columns + 1
    assert 0.0 < via.worst_residual <= 1e-10
    Kg = lu.K @ g
    assert np.max(np.abs(via._product(g) - Kg)) <= 1e-12 * np.max(np.abs(Kg))


@st.composite
def core_cases(draw):
    """A non-cubic box at h = 1/8 or 1/16 on a random lattice offset, with a
    bump of 1 to 3 cells on a random face over a random base inset from the
    face's edges, and a family and a field drawn from scalar, diag123 and
    rotated, constant and affine.  Hand-built, so the bump may be one cell
    thick, with no interior of its own."""
    h = draw(st.sampled_from([0.125, 0.0625]))
    cells = np.array(draw(st.tuples(*[st.integers(5, 8)] * 3)
                          .filter(lambda c: len(set(c)) > 1)))
    lo = np.array([draw(st.integers(-4, 4)) * 0.125 for _ in range(3)])
    box = BoxDomain(tuple(lo), tuple(lo + cells * h))
    face = draw(st.sampled_from(sorted(FACE_NAMES)))
    axis = FACE_NAMES[face][0]
    tangents = [a for a in range(3) if a != axis]
    base = []
    for t in tangents:
        i0 = draw(st.integers(1, cells[t] - 3))
        base.append((i0, draw(st.integers(i0 + 2, cells[t] - 1))))
    patch = BoundaryPatch(box, face, tuple(lo[t] + 0.5 * h for t in tangents),
                          tuple(lo[t] + (cells[t] - 0.5) * h for t in tangents))
    thickness = draw(st.integers(1, 3)) * h
    enlarged = EnlargedDomain(box, patch, thickness,
                              tuple(lo[t] + i0 * h for t, (i0, _) in zip(tangents, base)),
                              tuple(lo[t] + i1 * h for t, (_, i1) in zip(tangents, base)),
                              thickness)
    mesh, mesh_eta = build_mesh(box, h, patch=patch), build_mesh(enlarged, h)
    fam = COCG_FAMILIES[draw(st.sampled_from(sorted(COCG_FAMILIES)))]
    return mesh, mesh_eta, fam, draw(st.sampled_from([A_ONE, AFFINE])), base


def _dense_footprint_schur(lu, footprint):
    """Dense Schur complement of the oracle's interior block onto the
    footprint vertices."""
    K_ii = lu._K_ii.toarray()
    f = np.searchsorted(lu.interior, footprint)
    rest = np.setdiff1d(np.arange(len(K_ii)), f)
    return K_ii[np.ix_(f, f)] - K_ii[np.ix_(f, rest)] @ np.linalg.solve(
        K_ii[np.ix_(rest, rest)], K_ii[np.ix_(rest, f)])


def _lattice_mesh(cells, h):
    """Mesh of a set of lattice cells at pitch h, anchored at the origin."""
    ijk, tets, boundary = _lattice_topology(np.asarray(cells))
    return Mesh(tets, ijk, h, np.zeros(3), boundary)


class TestCoreSolve:
    """Omega_eta systems solved by substructuring through their Omega core
    and bump systems against a standalone sparse LU of the whole Omega_eta
    interior."""

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    @pytest.mark.parametrize("fam", [scalar_identity_family(k=0.1, imag=1.0), DIAG_123, ROTATED],
                             ids=["scalar", "diag123", "rotated"])
    @pytest.mark.parametrize("a", [A_ONE, AFFINE], ids=["constant", "affine"])
    def test_matches_standalone_lu(self, h, fam, a, factor_calls):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, h, patch=patch)
        mesh_eta = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=h), h)
        via, lu = _core_pair(mesh, mesh_eta, fam, a)
        _assert_core_matches_lu(via, lu)
        # The footprint is the patch face's vertices strictly inside the
        # bump base: only its dense interface system is inverted.
        footprint = via.footprint
        assert np.all(np.abs(mesh_eta.verts[footprint, 2] - 1.0) < 1e-12)
        assert via.factored_dofs == len(footprint) == (round(0.5 / h) - 1) ** 2
        assert via.core.factored_dofs == via.bump.factored_dofs == 0
        # The standalone system is the only sparse LU.
        assert factor_calls == [len(lu.interior)]

    @settings(max_examples=16, deadline=None)
    @given(core_cases())
    def test_any_face_and_box(self, case):
        mesh, mesh_eta, fam, a, base = case
        via, lu = _core_pair(mesh, mesh_eta, fam, a)
        _assert_core_matches_lu(via, lu, columns=2)
        # A one-cell bump has no interior: the footprint is all it adds.
        assert (len(via.bump.interior) == 0) == (via.mesh.n_vertices - mesh.n_vertices
                                                 == np.prod([i1 - i0 + 1 for i0, i1 in base]))

    @settings(max_examples=16, deadline=None)
    @given(core_cases())
    def test_interface_is_the_dense_schur_complement(self, case):
        mesh, mesh_eta, fam, a, base = case
        via, lu = _core_pair(mesh, mesh_eta, fam, a)
        footprint = via.footprint
        assert len(footprint) == np.prod([i1 - i0 - 1 for i0, i1 in base])
        # The footprint lies on one face of Omega, where core and bump meet.
        ijk = mesh_eta.ijk[footprint]
        assert np.all(mesh.boundary_vertex_mask[mesh.vertex_indices(ijk)])
        assert np.any(np.ptp(ijk, axis=0) == 0)
        T = via._interface()
        dense = _dense_footprint_schur(lu, footprint)
        assert np.max(np.abs(T - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_bump_is_built_once_per_frame(self, monkeypatch):
        calls = []
        real = Mesh.part_outside

        def counting(mesh, *args):
            calls.append(mesh)
            return real(mesh, *args)

        monkeypatch.setattr(Mesh, "part_outside", counting)
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        frame = build_frame(BOX, patch, 0.25, 0.125, scalar_identity_family(k=0.1, imag=1.0))
        systems = [build_forward(frame, a).system_eta for a in (A_ONE, AFFINE)]
        assert calls == [frame.mesh_eta]
        assert [s.bump.solver_kind for s in systems] == ["sine-transform", "box-cocg"]
        # Both Forwards' Omega_eta systems share the frame's bump mesh and map.
        bump, part_map = frame.bump
        for system in systems:
            assert system.mesh is frame.mesh_eta and system.bump.mesh is bump
            assert system._parts[1][1] is part_map
        assert bump.box_shape == (3, 3, 1) and bump.n_tets == 6 * 4 * 4 * 2
        # The bump's vertices have the bits of the same vertices of Omega_eta.
        assert np.array_equal(frame.mesh_eta.verts[part_map], bump.verts)

    @pytest.mark.parametrize("case", ["two-bumps", "l-shape", "no-bump"])
    def test_part_outside_not_one_box_rejected(self, case):
        box = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)]
        extra = {"two-bumps": [(1, 1, 4), (2, 2, 4)],
                 "l-shape": [(1, 1, 4), (2, 1, 4), (1, 2, 4)],
                 "no-bump": []}[case]
        mesh, mesh_eta = _lattice_mesh(box, 0.25), _lattice_mesh(box + extra, 0.25)
        core = assemble(mesh, LAPLACE, A_ONE, 0.0)
        with pytest.raises(GeometryError, match="not one lattice box"):
            _omega_eta_system(mesh_eta, core, mesh.shared_vertex_map(mesh_eta))

    def test_one_cell_bump_has_an_empty_bump_system(self, factor_calls):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        enlarged = EnlargedDomain(BOX, patch, 0.125, (0.25, 0.25), (0.75, 0.75), 0.125)
        mesh, mesh_eta = build_mesh(BOX, 0.125, patch=patch), build_mesh(enlarged, 0.125)
        via, lu = _core_pair(mesh, mesh_eta, ROTATED, AFFINE)
        _assert_core_matches_lu(via, lu)
        # The bump system has no interior: it solves nothing and factors
        # nothing, and its Schur complement onto f is its own K[f, f].
        bump = via.bump
        assert len(bump.interior) == 0 and bump.factored_dofs == 0
        f_bump = bump.mesh.vertex_indices(mesh_eta.ijk[via.footprint])
        assert np.array_equal(bump.schur_onto(f_bump), bump.K[np.ix_(f_bump, f_bump)].toarray())
        assert via.factored_dofs == len(via.footprint) == 9
        assert factor_calls == [len(lu.interior)]

    @pytest.mark.parametrize("case, message", [
        ("overlap", "disjoint interior"), ("top-layer", "vertex of both parts"),
    ])
    def test_parts_that_do_not_tile_rejected(self, case, message):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.125, patch=patch)
        mesh_eta = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        core = assemble(mesh, LAPLACE, A_ONE, 0.0)
        vmap = mesh.shared_vertex_map(mesh_eta)
        if case == "overlap":
            bump, bump_map = core, vmap
        else:
            # Only the top cell layer of the two-cell bump: the vertices
            # between the layers are neither part's interior nor the core's.
            bump_mesh = mesh_eta.part_outside(mesh, vmap)[0]
            cells = bump_mesh.ijk[bump_mesh.tets[::6, 0]]
            top = _lattice_mesh(cells[cells[:, 2] == cells[:, 2].max()], 0.125)
            bump, bump_map = assemble(top, LAPLACE, A_ONE, 0.0), top.shared_vertex_map(mesh_eta)
        with pytest.raises(GeometryError, match=message):
            SubstructuredSystem(mesh_eta, core, vmap, bump, bump_map)

    @pytest.mark.parametrize("case", [
        "no-map", "shifted", "short", "repeated", "swapped-interior", "to-boundary",
        "to-bump", "other-field",
    ])
    def test_mismatched_core_rejected(self, case):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.125, patch=patch)
        mesh_eta = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        fam = scalar_identity_family(k=0.1, imag=1.0)
        core = assemble(mesh, fam, A_ONE, fam.freq)
        vmap = mesh.shared_vertex_map(mesh_eta)
        outside = np.setdiff1d(np.arange(mesh_eta.n_vertices), vmap)
        first = core.interior[0]
        if case == "no-map":
            vmap = None
        elif case == "shifted":
            vmap = np.roll(vmap, 1)
        elif case == "short":
            vmap = vmap[:-1]
        elif case == "repeated":
            vmap = vmap.copy()
            vmap[first] = vmap[core.interior[1]]
        elif case == "swapped-interior":
            # Still one-to-one, onto the same interior vertices.
            vmap = vmap.copy()
            vmap[core.interior[:2]] = vmap[core.interior[1::-1]]
        elif case == "to-boundary":
            vmap = vmap.copy()
            vmap[first] = outside[mesh_eta.boundary_vertex_mask[outside]][0]
        elif case == "to-bump":
            vmap = vmap.copy()
            vmap[first] = outside[~mesh_eta.boundary_vertex_mask[outside]][0]
        else:
            core = assemble(mesh, fam, constant_field(1.1), fam.freq)
        with pytest.raises(GeometryError):
            _omega_eta_system(mesh_eta, core, vmap, field=(fam, A_ONE, fam.freq))


COCG_FAMILIES = {"scalar": scalar_identity_family(k=0.1, imag=1.0), "diag123": DIAG_123,
                 "rotated": ROTATED}


def _cocg_system(mesh, fam, a):
    """The assembled system of a field on a full box, on the box-cocg path
    even where its coefficient is a constant diagonal."""
    system = assemble(mesh, fam, a, fam.freq)
    if system.axis_weights is not None:
        system = BlockSystem(mesh, system.K, cocg_weights=system.axis_weights)
    assert system.solver_kind == "box-cocg"
    return system


def _zero_flux_dofs(system):
    """Boundary vertices with no interior neighbour: their K_I,sigma columns
    are all zero."""
    K_ib = system.K[np.ix_(system.interior, system.boundary)]
    return system.boundary[np.asarray(abs(K_ib).sum(axis=0)).ravel() == 0.0]


@st.composite
def cocg_cases(draw):
    """A small non-cubic full box with a random offset, and a family and
    field drawn from scalar, diag123 and rotated, constant and affine."""
    h = draw(st.sampled_from([0.25, 0.125]))
    cells = np.array(draw(st.tuples(*[st.integers(4, 6)] * 3)
                          .filter(lambda c: len(set(c)) > 1)))
    lo = np.array([draw(st.integers(-4, 4)) * 0.125 for _ in range(3)])
    mesh = build_mesh(BoxDomain(tuple(lo), tuple(lo + cells * h)), h)
    fam = COCG_FAMILIES[draw(st.sampled_from(sorted(COCG_FAMILIES)))]
    return mesh, fam, draw(st.sampled_from([A_ONE, AFFINE]))


class TestBoxCocg:
    """The box-preconditioned COCG interior solve."""

    @settings(max_examples=24, deadline=None)
    @given(cocg_cases())
    def test_matches_dense_solve_and_schur(self, case):
        mesh, fam, a = case
        system = _cocg_system(mesh, fam, a)
        K = system.K.toarray()
        I, sigma = system.interior, system.boundary[::7]
        K_ii = K[np.ix_(I, I)]
        rng = np.random.default_rng(len(I))
        rhs = rng.standard_normal((len(I), 3)) + 1j * rng.standard_normal((len(I), 3))
        ref = np.linalg.solve(K_ii, rhs)
        x = system._solve_interior(rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        dense = K[np.ix_(sigma, sigma)] - K[np.ix_(sigma, I)] @ np.linalg.solve(
            K_ii, K[np.ix_(I, sigma)])
        schur = system.schur_onto(sigma)
        assert np.max(np.abs(schur - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert system.factored_dofs == 0
        assert 1 <= system.krylov_iterations_max <= 50

    def test_zero_columns_are_exact_zeros(self):
        system = assemble(build_mesh(BOX, 0.125), ROTATED, AFFINE, ROTATED.freq)
        sigma = system.boundary[::7]
        zero = np.isin(sigma, _zero_flux_dofs(system))
        assert 0 < np.sum(zero) < len(sigma)
        cols = np.searchsorted(system.boundary, sigma)
        K_is = system._K_ib[:, cols].toarray()
        assert not np.any(K_is[:, zero]) and np.all(np.any(K_is[:, ~zero], axis=0))
        X = system._solve_interior(K_is)
        assert np.all(np.isfinite(X)) and not np.any(X[:, zero])
        assert np.all(np.any(X[:, ~zero], axis=0))
        assert np.all(system._solve_interior(np.zeros((len(system.interior), 2))) == 0.0)

    def test_column_bits_do_not_depend_on_its_block(self):
        # At 19 interior dofs per axis one BLAS product over all columns
        # gives a column different bits at different block widths.
        system = assemble(build_mesh(BOX, 0.05), ROTATED, AFFINE, ROTATED.freq)
        rng = np.random.default_rng(9)
        n = len(system.interior)
        block = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        # Columns of very different difficulty: one converges at once.
        block[:, 1] = system._K_ii @ np.ones(n)
        block[:, 4] = 0.0
        X = system._solve_interior(block)
        for j in range(block.shape[1]):
            assert np.array_equal(system._solve_interior(block[:, j]), X[:, j])
            assert np.array_equal(system._solve_interior(block[:, [j, 3]])[:, 0], X[:, j])

    def test_iteration_cap_raises_with_diagnostics(self, monkeypatch):
        import admitlab.fem

        system = assemble(build_mesh(BOX, 0.125), ROTATED, AFFINE, ROTATED.freq)
        zero = _zero_flux_dofs(system)
        other = np.setdiff1d(system.boundary, zero)
        # Blocks of two: three zero columns converge at once, so the first
        # column to fail is sigma[3], in the second block.
        sigma = np.concatenate([zero[:3], other[:3]])
        monkeypatch.setattr(admitlab.fem, "_COCG_MAX_ITERATIONS", 2)
        _set_schur_cap(monkeypatch, system, 2)
        with pytest.raises(SolverError, match="did not converge") as err:
            system.schur_onto(sigma)
        diagnostics = err.value.diagnostics
        assert diagnostics["iterations"] == 2 and diagnostics["column"] == 3
        assert diagnostics["residual"] > admitlab.fem._COCG_RTOL


SCHUR_KINDS = ["sine-transform", "box-cocg", "sparse-lu"]


def _schur_case(kind, h):
    """A fresh system of the given solver kind and boundary dofs sigma to
    project onto: a sine-transform Omega system, a box-cocg Omega system
    (rotated family, affine field), or the standalone Omega_eta system of
    that field (sparse-lu)."""
    patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
    mesh = build_mesh(BOX, h, patch=patch)
    mesh_eta = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=h), h)
    if kind == "sine-transform":
        fam = scalar_identity_family(k=0.1, imag=1.0)
        system = assemble(mesh, fam, A_ONE, fam.freq)
    elif kind == "box-cocg":
        system = assemble(mesh, ROTATED, AFFINE, ROTATED.freq)
    else:
        system = assemble(mesh_eta, ROTATED, AFFINE, ROTATED.freq)
    assert system.solver_kind == kind
    return system, system.boundary[::7]


def _set_schur_cap(monkeypatch, system, cap):
    """Budget `schur_onto` to at most `cap` columns per block on `system`."""
    import admitlab.fem

    monkeypatch.setattr(admitlab.fem, "_BLOCK_BYTES", 16 * len(system.interior) * cap)


class TestBlockedSchur:
    """`schur_onto` solves sigma in column blocks bounded by `_BLOCK_BYTES`."""

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    @pytest.mark.parametrize("kind", SCHUR_KINDS)
    @pytest.mark.parametrize("cap", ["1", "3", "d-1", "d"])
    def test_blocks_match_single_block(self, kind, h, cap, monkeypatch):
        reference_system, sigma = _schur_case(kind, h)
        d = len(sigma)
        _set_schur_cap(monkeypatch, reference_system, d)
        reference = reference_system.schur_onto(sigma)
        assert reference_system.solve_calls == 1
        system, _ = _schur_case(kind, h)
        cap = {"1": 1, "3": 3, "d-1": d - 1, "d": d}[cap]
        _set_schur_cap(monkeypatch, system, cap)
        blocked = system.schur_onto(sigma)
        assert system.rhs_columns == d
        assert system.solve_calls == math.ceil(d / cap)
        assert np.max(np.abs(blocked - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("kind", SCHUR_KINDS)
    def test_each_column_solved_once_within_cap(self, kind, monkeypatch):
        import admitlab.fem

        system, sigma = _schur_case(kind, 0.125)
        cap = 4
        _set_schur_cap(monkeypatch, system, cap)
        solved, checked = [], []
        real_solve, real_check = system._solve_interior, admitlab.fem._check_residual

        def spy_solve(rhs):
            solved.append(rhs.copy())
            return real_solve(rhs)

        def spy_check(residual, rhs, first_column=0):
            checked.append((first_column, rhs.shape[1]))
            return real_check(residual, rhs, first_column)

        monkeypatch.setattr(system, "_solve_interior", spy_solve)
        monkeypatch.setattr(admitlab.fem, "_check_residual", spy_check)
        system.schur_onto(sigma)
        d = len(sigma)
        assert max(rhs.shape[1] for rhs in solved) <= cap
        # The blocks, in order, are exactly the columns K_I,sigma.
        cols = np.searchsorted(system.boundary, sigma)
        K_is = system.K[np.ix_(system.interior, system.boundary[cols])].toarray()
        assert np.array_equal(np.hstack(solved), K_is)
        # Every column is residual-checked once, under its position in sigma.
        starts = np.cumsum([0] + [width for _, width in checked])
        assert [first for first, _ in checked] == list(starts[:-1]) and starts[-1] == d
        assert system.solve_calls == len(solved) and system.rhs_columns == d
        assert 0.0 < system.worst_residual <= 1e-10

    def test_failed_column_named_by_position_in_sigma(self, monkeypatch):
        system, sigma = _schur_case("sparse-lu", 0.125)
        _set_schur_cap(monkeypatch, system, 2)
        d = len(sigma)
        K_ii = system.K[np.ix_(system.interior, system.interior)].toarray()
        last = system.K[np.ix_(system.interior, sigma[-1:])].toarray()

        def solve_with_bad_last_column(rhs):
            X = np.linalg.solve(K_ii, rhs)
            X[:, np.all(rhs == last, axis=0)] *= 1.0 + 1e-6
            return X

        monkeypatch.setattr(system, "_solve_interior", solve_with_bad_last_column)
        with pytest.raises(SolverError) as err:
            system.schur_onto(sigma)
        assert d > 2 and err.value.diagnostics["column"] == d - 1


class TestConvergence:
    def test_diagonal_quadratic_is_nodally_exact(self):
        # The symmetric six-tet split reproduces harmonic quadratics with a
        # diagonal Hessian exactly at the nodes.
        for h in (0.25, 0.125):
            mesh = build_mesh(BOX, h)
            system = assemble(mesh, LAPLACE, A_ONE, 0.0)
            g = (mesh.verts[:, 0] ** 2 - mesh.verts[:, 1] ** 2).astype(complex)
            u = system.solve_dirichlet(g)
            assert np.max(np.abs(u.values - g)) <= 1e-12

    def test_quartic_harmonic_order(self):
        errs = []
        for h in (0.25, 0.125):
            mesh = build_mesh(BOX, h)
            system = assemble(mesh, LAPLACE, A_ONE, 0.0)
            x, y = mesh.verts[:, 0], mesh.verts[:, 1]
            g = (x**4 - 6.0 * x**2 * y**2 + y**4).astype(complex)
            u = system.solve_dirichlet(g)
            errs.append(float(np.max(np.abs(u.values - g))))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.8


def _energy(system, u, v):
    """The bilinear energy integral u^T K v of nodal values u and v."""
    return complex(u @ (system.K @ v))


class TestEnergyPairing:
    def setup_method(self):
        self.mesh = build_mesh(BOX, 0.25)
        self.system = assemble(self.mesh, LAPLACE, A_ONE, 0.0)

    def test_unit_gradient(self):
        u = self.mesh.verts[:, 0]
        assert _energy(self.system, u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gradients(self):
        u, v = self.mesh.verts[:, 0], self.mesh.verts[:, 1]
        assert abs(_energy(self.system, u, v)) <= 1e-12

    def test_complex_scalar_factor(self):
        fam = scalar_identity_family(k=0.25, imag=1.0)
        system = assemble(self.mesh, fam, A_ONE, 0.25)
        u = self.mesh.verts[:, 0]
        assert _energy(system, u, u) == pytest.approx(1.0 + 0.25j, abs=1e-12)

    def test_bilinear_symmetry(self):
        fam = scalar_identity_family(k=0.25, imag=1.0)
        system = assemble(self.mesh, fam, A_ONE, 0.25)
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = (rng.standard_normal(self.mesh.n_vertices)
                 + 1j * rng.standard_normal(self.mesh.n_vertices))
            v = (rng.standard_normal(self.mesh.n_vertices)
                 + 1j * rng.standard_normal(self.mesh.n_vertices))
            left = _energy(system, u, v)
            right = _energy(system, v, u)
            assert left == pytest.approx(right, abs=1e-13 * max(1.0, abs(left)))

    def test_mesh_mismatch_rejected(self):
        other = build_mesh(BOX, 0.125)
        u = ComplexField(other, other.verts[:, 0])
        with pytest.raises(ConfigError):
            energy_density(self.mesh, np.eye(3), u, u)

    def test_density_sums_to_pairing(self):
        fam = scalar_identity_family(k=0.25, imag=1.0)
        system = assemble(self.mesh, fam, A_ONE, 0.25)
        rng = np.random.default_rng(5)
        u = ComplexField(self.mesh, rng.standard_normal(self.mesh.n_vertices) + 0j)
        v = ComplexField(self.mesh, rng.standard_normal(self.mesh.n_vertices) + 0j)
        coeff = np.eye(3) + 0.25j * np.eye(3)
        total = np.sum(energy_density(self.mesh, coeff, u, v))
        assert total == pytest.approx(_energy(system, u.values, v.values), rel=1e-12)

    def test_chunked_density_and_gradients(self, monkeypatch):
        """Densities and gradients evaluated in 7-tet chunks have the bits
        of one pass over all tets."""
        import admitlab.fem

        rng = np.random.default_rng(6)
        u = ComplexField(self.mesh, rng.standard_normal(self.mesh.n_vertices)
                         + 1j * rng.standard_normal(self.mesh.n_vertices))
        coeff = _aniso_coeffs(self.mesh.n_tets, seed=8) + 0.5j
        whole = energy_density(self.mesh, coeff, u, u)
        grads = u.gradients()
        monkeypatch.setattr(admitlab.fem, "_BLOCK_BYTES", 128 * 7)
        assert np.array_equal(energy_density(self.mesh, coeff, u, u), whole)
        assert np.array_equal(np.concatenate([u.gradients(slice(s, s + 7))
                                              for s in range(0, self.mesh.n_tets, 7)]),
                              grads)


def _float_geometry_assemble(mesh, family, a, k):
    """Reference assembly on per-tet float geometry: the closed-form volumes
    and gradients from the edges h (ijk_i - ijk_0) of every tet's own
    vertices, and one np.bincount of all element blocks per part.  Edges
    from the rounded float vertices would carry their rounding into the
    reference."""
    v = mesh.verts[mesh.tets]
    ijk = mesh.ijk[mesh.tets]
    e1, e2, e3 = (mesh.h * (ijk[:, i] - ijk[:, 0]) for i in (1, 2, 3))
    det = np.einsum("ti,ti->t", e1, np.cross(e2, e3))
    grads = np.empty((mesh.n_tets, 4, 3))
    grads[:, 1], grads[:, 2], grads[:, 3] = np.cross(e2, e3), np.cross(e3, e1), np.cross(e1, e2)
    grads[:, 1:] /= det[:, None, None]
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    bary = v.mean(axis=1)
    t = np.broadcast_to(np.asarray(a.values(bary), dtype=float), (mesh.n_tets,))
    pattern = mesh.stiffness_pattern
    data = np.empty(len(pattern.indices), dtype=complex)
    for part, coeff in ((data.real, family.real_part(bary, t)),
                        (data.imag, k * family.imag_part(bary, t))):
        local = np.einsum("taj,tjk,tbk->tab", grads, coeff, grads) * (det / 6.0)[:, None, None]
        part[:] = np.bincount(pattern.scatter.ravel(), weights=local.ravel(),
                              minlength=len(pattern.indices))
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=(mesh.n_vertices,) * 2)


ORACLE_FAMILIES = [
    scalar_identity_family(k=0.1, imag=1.0),
    diagonal_affine_family(k=0.05, slope=(1.0, 1.2, 0.8), offset=(0.1, 0.0, 0.2),
                           imag=(1.0, 0.7, 1.3)),
    ROTATED,
]


def _bitwise_equal(got, want):
    return (np.array_equal(got.indptr, want.indptr)
            and np.array_equal(got.indices, want.indices)
            and np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64)))


class TestTypedAssembly:
    @settings(max_examples=20, deadline=None)
    @given(meshes=enlarged_meshes(), family=st.sampled_from(ORACLE_FAMILIES))
    def test_matches_float_geometry_assembly(self, meshes, family):
        """Omega and Omega_eta systems of all three families match the
        assembly on per-tet float geometry to 1e-15 relative."""
        for mesh in meshes:
            K = assemble(mesh, family, AFFINE, family.freq).K
            ref = _float_geometry_assemble(mesh, family, AFFINE, family.freq)
            assert abs(K - ref).max() <= 1e-15 * abs(ref).max()

    def test_matches_float_geometry_at_pitch_one_fifth(self):
        """A draw whose float vertices anchor + h ijk at h = 0.2 round
        differently per tet: the Omega_eta system still matches to 1e-15."""
        h, lo = 0.2, np.array([0.0, 0.0, 0.25])
        box = BoxDomain(tuple(lo), tuple(lo + np.array([6, 6, 8]) * h))
        patch = BoundaryPatch(box, "z+", (0.1, 0.1), (1.1, 1.1))
        enlarged = build_enlarged_domain(box, patch, 2.0 * h, grid_h=h, check_samples=100)
        family = ORACLE_FAMILIES[1]
        for mesh in (build_mesh(box, h, patch=patch), build_mesh(enlarged, h)):
            K = assemble(mesh, family, AFFINE, family.freq).K
            ref = _float_geometry_assemble(mesh, family, AFFINE, family.freq)
            assert abs(K - ref).max() <= 1e-15 * abs(ref).max()

    @pytest.mark.parametrize("size", ["1", "7", "T"])
    def test_chunks_match_one_bincount(self, size, monkeypatch):
        """np.add.at over tet chunks of 1, 7 and all T tets gives the bits
        of one np.bincount over every element block."""
        import admitlab.fem

        mesh = build_mesh(BOX, 0.2)
        chunk = {"1": 1, "7": 7, "T": mesh.n_tets}[size]
        monkeypatch.setattr(admitlab.fem, "_BLOCK_BYTES", 128 * chunk)
        pattern = mesh.stiffness_pattern
        everything = slice(None)
        coeff = _aniso_coeffs(mesh.n_tets, seed=3)
        assert _bitwise_equal(assemble_stiffness(mesh, coeff),
                              assemble_csr(pattern, _stiffness_blocks(mesh, everything, coeff)))
        bump = gaussian_bump_field(1.0, 0.1, (0.5, 0.5, 0.9), 0.3)
        bary = mesh.barycenters()
        t = bump.values(bary)
        data = np.empty(len(pattern.indices), dtype=complex)
        for part, c in ((data.real, ROTATED.real_part(bary, t)),
                        (data.imag, ROTATED.freq * ROTATED.imag_part(bary, t))):
            part[:] = np.bincount(pattern.scatter.ravel(),
                                  weights=_stiffness_blocks(mesh, everything, c).ravel(),
                                  minlength=len(pattern.indices))
        system = assemble(mesh, ROTATED, bump, ROTATED.freq)
        assert _bitwise_equal(system.K, admitlab.fem._csr(pattern, data))
        # The COCG weights are the bits of the whole-mesh mean diagonal.
        mean = [np.diagonal(c, axis1=1, axis2=2).mean(axis=0)
                for c in (ROTATED.real_part(bary, t), ROTATED.freq * ROTATED.imag_part(bary, t))]
        assert np.array_equal(system.cocg_weights, mean[0] + 1j * mean[1])


class TestSchurMemo:
    """`schur_onto` keeps its last result and restricts it to a subset."""

    @pytest.mark.parametrize("kind", ["sine-transform", "box-cocg", "sparse-lu"])
    def test_subset_equals_fresh_solve(self, kind, monkeypatch):
        system, sigma = _schur_case(kind, 0.0625)
        # Blocks of three, so each subset column was solved beside others.
        _set_schur_cap(monkeypatch, system, 3)
        system.schur_onto(sigma)
        columns = system.rhs_columns
        subset = sigma[::-2]
        restricted = system.schur_onto(subset)
        fresh = _schur_case(kind, 0.0625)[0].schur_onto(subset)
        assert np.array_equal(restricted, fresh)
        # SuperLU gives a column different last bits in different blocks, so
        # a sparse-lu system solves the subset afresh; the others restrict.
        assert system.rhs_columns - columns == (len(subset) if kind == "sparse-lu" else 0)

    def test_hit_adds_no_columns_and_is_read_only(self):
        system, sigma = _schur_case("sine-transform", 0.125)
        S = system.schur_onto(sigma)
        counts = (system.solve_calls, system.rhs_columns)
        assert system.schur_onto(list(sigma)) is S
        subset = system.schur_onto(sigma[1:4])
        assert np.array_equal(subset, S[1:4, 1:4])
        assert (system.solve_calls, system.rhs_columns) == counts
        for arr in (S, subset):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_other_dofs_replace_the_memo(self):
        system, sigma = _schur_case("box-cocg", 0.125)
        first = system.schur_onto(sigma[:4])
        # Not a subset of the first four: solved, and memoised instead.
        system.schur_onto(sigma)
        assert system.rhs_columns == 4 + len(sigma)
        assert np.array_equal(system.schur_onto(sigma[:4]), first)
        assert system.rhs_columns == 4 + len(sigma)


class TestSystemLifetime:
    @pytest.mark.parametrize("kind", SCHUR_KINDS + ["via-core"])
    def test_del_frees_solved_system(self, kind):
        # Reference counting alone must free a solved system, and a via-core
        # system's core and bump with it: no collector pass.
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        gc.disable()
        try:
            if kind == "via-core":
                mesh = build_mesh(BOX, 0.125, patch=patch)
                mesh_eta = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125),
                                      0.125)
                system = _core_pair(mesh, mesh_eta, ROTATED, AFFINE)[0]
                parts = [system, system.core, system.bump]
                solved = parts[1:]
            else:
                system, sigma = _schur_case(kind, 0.125)
                system.schur_onto(sigma)
                parts = solved = [system]
            system.solve_dirichlet(np.ones(system.mesh.n_vertices))
            # No solver closure refers back to its own system.
            for part in solved:
                closure = getattr(part._solve, "__closure__", None) or ()
                assert not any(cell.cell_contents is part for cell in closure)
            refs = [weakref.ref(part) for part in parts]
            del system, parts, solved, part
            alive = [ref() is not None for ref in refs]
        finally:
            gc.enable()
        assert len(alive) == (3 if kind == "via-core" else 1)
        assert not any(alive)


class TestWorkingSetBudget:
    """Traced peaks at h = 1/16 beyond the live output."""

    @staticmethod
    def _traced(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            out = fn()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak - current

    def test_build_mesh_peak(self):
        # Within 3x the bytes the finished mesh keeps, for the box and the
        # enlarged mesh: no (4T, 3) array of all tet faces.
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        for domain in (BOX, build_enlarged_domain(BOX, patch, 0.25, grid_h=0.0625)):
            mesh, extra = self._traced(lambda d=domain: build_mesh(d, 0.0625, patch=patch))
            kept = sum(v.nbytes for v in vars(mesh).values() if isinstance(v, np.ndarray))
            assert extra <= 3 * kept, (extra, kept)

    def test_assemble_peak(self):
        import admitlab.fem

        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        for mesh in (build_mesh(BOX, 0.0625, patch=patch),
                     build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.0625), 0.0625)):
            _assert_no_per_tet_floats(mesh)
            mesh.stiffness_pattern
            system, extra = self._traced(lambda: assemble(mesh, ROTATED, AFFINE, ROTATED.freq))
            assert system.solver_kind in ("box-cocg", "sparse-lu")
            assert extra <= 4 * admitlab.fem._BLOCK_BYTES, extra

    def test_box_cocg_schur_peak(self):
        import admitlab.fem

        system, sigma = _schur_case("box-cocg", 0.0625)
        S, extra = self._traced(lambda: system.schur_onto(sigma))
        assert system.solve_calls > 1
        assert extra <= 10 * admitlab.fem._BLOCK_BYTES, extra

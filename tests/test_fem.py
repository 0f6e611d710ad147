import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from admitlab.errors import ConfigError, GeometryError, SolverError
from admitlab.families import (affine_field, constant_field,
                               diagonal_affine_family,
                               rotated_anisotropic_family,
                               scalar_identity_family)
from admitlab.dtn import boundary_mass_sigma
from admitlab.fem import (_CORNER_OFFSETS, _FACE_LOCAL, _TET_PATTERNS,
                          BlockSystem, ComplexField, Mesh, _face_keys,
                          _lattice_topology, assemble, assemble_stiffness,
                          box_solve, build_mesh, energy_density,
                          energy_pairing, interpolate)
from admitlab.geometry import (FACE_NAMES, BoxDomain, BoundaryPatch,
                               build_enlarged_domain)

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
        assert np.all(mesh.volumes > 0.0)
        assert np.sum(mesh.volumes) == pytest.approx(1.0, abs=1e-12)
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
    local = np.einsum("taj,tjk,tbk->tab", mesh.grads, coeff, mesh.grads)
    local = local * mesh.volumes[:, None, None]
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

    def test_face_key_guard(self):
        faces = np.array([[0, 1, 2]])
        with pytest.raises(GeometryError, match="overflows"):
            _face_keys(faces, 2**21)
        nv = 2**21 - 1
        top = np.array([[nv - 3, nv - 2, nv - 1], [nv - 3, nv - 1, nv - 1]])
        keys = _face_keys(top, nv)
        assert np.all(keys > 0) and keys[1] > keys[0]
        assert keys[1] == ((nv - 3) * nv + nv - 1) * nv + nv - 1


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


def _remesh(mesh, verts, tets):
    return Mesh(verts, tets, mesh.ijk, mesh.h, mesh.anchor, mesh.boundary_tris,
                mesh.boundary_axis, mesh.boundary_plane, mesh.sigma_mask)


def _assert_matches_det_inv(mesh, verts, tets):
    want_tets, want_vol, want_grads = _det_inv_geometry(verts, tets)
    assert np.array_equal(mesh.tets, want_tets)
    np.testing.assert_allclose(mesh.volumes, want_vol, rtol=1e-14, atol=0.0)
    scale = np.max(np.abs(want_grads), axis=(1, 2))
    err = np.max(np.abs(mesh.grads - want_grads), axis=(1, 2))
    assert np.all(err <= 1e-14 * scale)


class TestClosedFormGeometry:
    def test_box_meshes(self):
        for h in (0.25, 0.2, 0.125, 0.05):
            mesh = build_mesh(BOX, h)
            raw = _lattice_topology(
                np.stack(np.meshgrid(*[np.arange(round(1 / h))] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3))[1]
            # The Kuhn split leaves some tets negatively oriented.
            assert np.any(mesh.tets != raw)
            _assert_matches_det_inv(mesh, mesh.verts, raw)

    @settings(max_examples=25, deadline=None)
    @given(meshes=enlarged_meshes(), seed=st.integers(0, 2**32 - 1))
    def test_perturbed_vertices_and_flips(self, meshes, seed):
        rng = np.random.default_rng(seed)
        for mesh in meshes:
            # Moves below h/10 per coordinate keep every tet's orientation.
            verts = mesh.verts + rng.uniform(-0.1, 0.1, mesh.verts.shape) * mesh.h
            tets = mesh.tets.copy()
            swap = rng.random(len(tets)) < 0.5
            tets[swap, 2], tets[swap, 3] = mesh.tets[swap, 3], mesh.tets[swap, 2]
            for v in (mesh.verts, verts):
                _assert_matches_det_inv(_remesh(mesh, v, tets), v, tets)

    def test_degenerate_tets_raise(self):
        mesh = build_mesh(BOX, 0.25)
        flat = mesh.verts.copy()
        flat[:, 2] = 0.0
        with pytest.raises(GeometryError, match="degenerate"):
            _remesh(mesh, flat, mesh.tets)
        collapsed = mesh.verts.copy()
        t = mesh.tets[0]
        collapsed[t[3]] = collapsed[t[1]]
        with pytest.raises(GeometryError, match="degenerate"):
            _remesh(mesh, collapsed, mesh.tets)


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
        t = a.values(mesh.barycenters)
        K_R = assemble_stiffness(mesh, fam.real_part(mesh.barycenters, t))
        K_I = assemble_stiffness(mesh, fam.freq * fam.imag_part(mesh.barycenters, t))
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

    def test_normal_form_fallback_matches_direct(self, monkeypatch):
        import scipy.sparse.linalg as spla

        # A non-constant coefficient, so neither system takes the box solve.
        fam = scalar_identity_family(k=0.1, imag=1.0)
        a = affine_field(1.0, (0.1, -0.05, 0.2))
        mesh = build_mesh(BOX, 0.25)
        direct = assemble(mesh, fam, a, 0.1)
        g = (mesh.verts[:, 0] ** 2 - mesh.verts[:, 1] ** 2).astype(complex)
        u_direct = direct.solve_dirichlet(g)
        monkeypatch.setattr(BlockSystem, "DIRECT_LIMIT", 1)
        cg_calls = []
        real_cg = spla.cg

        def counting_cg(*args, **kwargs):
            cg_calls.append(1)
            return real_cg(*args, **kwargs)

        monkeypatch.setattr(spla, "cg", counting_cg)
        iterative = assemble(mesh, fam, a, 0.1)
        assert direct.axis_weights is None and iterative.axis_weights is None
        u_iter = iterative.solve_dirichlet(g)
        assert len(cg_calls) == 1
        assert np.max(np.abs(u_iter.values - u_direct.values)) <= 1e-8
        # The multi-column Schur solve goes through the same CG path, one
        # column at a time, and matches the direct factorisation.
        schur_direct = direct.schur_onto(direct.boundary)
        schur_iter = iterative.schur_onto(iterative.boundary)
        assert schur_iter.shape == (len(direct.boundary),) * 2
        assert np.max(np.abs(schur_iter - schur_direct)) <= 1e-8 * np.max(np.abs(schur_direct))


class TestColumnSolves:
    """Dirichlet data given as (n, c) columns share one interior solve.

    These run on the sparse LU path; TestColumnSolvesOnBox runs them again
    on the sine-transform box path.
    """

    PATH = "lu"

    def _system_and_data(self, columns, seed=4):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE, 0.1)
        assert system.axis_weights is not None
        if self.PATH == "lu":
            system = BlockSystem(mesh, system.K)
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
        ("constant-scalar", 0), ("constant-diag123", 0), ("omega-eta", 1),
        ("affine", 1), ("rotated-anisotropic", 1),
    ])
    def test_which_systems_factor(self, case, factored, factor_calls):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        fam, a = scalar_identity_family(k=0.1, imag=1.0), A_ONE
        if case == "omega-eta":
            mesh = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        else:
            mesh = build_mesh(BOX, 0.125, patch=patch)
        if case == "constant-diag123":
            fam = DIAG_123
        elif case == "affine":
            a = affine_field(1.0, (0.1, -0.05, 0.2))
        elif case == "rotated-anisotropic":
            fam = rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1)
        system = assemble(mesh, fam, a, fam.freq)
        assert (system.axis_weights is None) == bool(factored)
        system.solve_dirichlet(np.ones(mesh.n_vertices))
        assert len(factor_calls) == factored


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


class TestEnergyPairing:
    def setup_method(self):
        self.mesh = build_mesh(BOX, 0.25)
        self.system = assemble(self.mesh, LAPLACE, A_ONE, 0.0)

    def test_unit_gradient(self):
        u = interpolate(self.mesh, lambda p: p[:, 0])
        assert energy_pairing(self.system, u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gradients(self):
        u = interpolate(self.mesh, lambda p: p[:, 0])
        v = interpolate(self.mesh, lambda p: p[:, 1])
        assert abs(energy_pairing(self.system, u, v)) <= 1e-12

    def test_complex_scalar_factor(self):
        fam = scalar_identity_family(k=0.25, imag=1.0)
        system = assemble(self.mesh, fam, A_ONE, 0.25)
        u = interpolate(self.mesh, lambda p: p[:, 0])
        assert energy_pairing(system, u, u) == pytest.approx(1.0 + 0.25j, abs=1e-12)

    def test_bilinear_symmetry(self):
        fam = scalar_identity_family(k=0.25, imag=1.0)
        system = assemble(self.mesh, fam, A_ONE, 0.25)
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = ComplexField(self.mesh, rng.standard_normal(self.mesh.n_vertices)
                             + 1j * rng.standard_normal(self.mesh.n_vertices))
            v = ComplexField(self.mesh, rng.standard_normal(self.mesh.n_vertices)
                             + 1j * rng.standard_normal(self.mesh.n_vertices))
            left = energy_pairing(system, u, v)
            right = energy_pairing(system, v, u)
            assert left == pytest.approx(right, abs=1e-13 * max(1.0, abs(left)))

    def test_mesh_mismatch_rejected(self):
        other = build_mesh(BOX, 0.125)
        u = interpolate(other, lambda p: p[:, 0])
        with pytest.raises(ConfigError):
            energy_pairing(self.system, u, u)

    def test_density_sums_to_pairing(self):
        fam = scalar_identity_family(k=0.25, imag=1.0)
        system = assemble(self.mesh, fam, A_ONE, 0.25)
        rng = np.random.default_rng(5)
        u = ComplexField(self.mesh, rng.standard_normal(self.mesh.n_vertices) + 0j)
        v = ComplexField(self.mesh, rng.standard_normal(self.mesh.n_vertices) + 0j)
        coeff = np.eye(3) + 0.25j * np.eye(3)
        total = np.sum(energy_density(self.mesh, coeff, u, v))
        assert total == pytest.approx(energy_pairing(system, u, v), rel=1e-12)

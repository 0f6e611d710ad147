import gc
import math
import weakref
from pathlib import Path

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
from admitlab.config import load_config
from admitlab.estimator import build_forward, build_frame
import admitlab.estimator
from admitlab.fem import (_AXIS_SLOTS, _BLOCK_TABLE, _CENTRE, _LOWER, _STENCIL_OFFSETS,
                          _STENCIL_SLOTS, _TET_PATTERNS, _UNIT_GRADS, _UPPER, BlockSystem, Layers,
                          Mesh, SubstructuredSystem, _box_cocg_read, _diagonal_stencils,
                          _stencil_slots, _stiffness_blocks, assemble, build_mesh, energy_density,
                          layered_solve, stiffness_stencil)
from admitlab.geometry import (FACE_NAMES, BoxDomain, BoundaryPatch,
                               EnlargedDomain, build_enlarged_domain)
from conftest import (LuSystem, UnionMesh, assemble_stiffness, bincount_csr, block_matrix,
                      box_cells, coo_stiffness, custom_family, gradients, lattice_topology,
                      lu_system, matrix, stencil_csr, traced_extra, type_geometry)

BOX = BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
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
        volumes = _det_inv_geometry(mesh.verts, mesh.corners())[1]
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
        bump = build_mesh(enlarged, 0.125)
        # The bump box, two cells over the snapped base, on Omega's lattice:
        # its base vertices have the bits of the same vertices of Omega.
        assert bump.lo.tolist() == [2, 2, 8] and bump.hi.tolist() == [6, 6, 10]
        base = bump.ijk[:, 2] == 8
        assert np.array_equal(bump.verts[base], mesh.verts[mesh.vertex_indices(bump.ijk[base])])
        # Only a patch that the caller passes is tagged.
        assert not bump.sigma_mask.any()

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
    """The meshes of a box and of its enlargement's bump box on a random
    lattice, face and patch.

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


def _laplace_parts(mesh, bump):
    """The Laplace systems of a core and a bump mesh."""
    return assemble(mesh, LAPLACE, A_ONE), assemble(bump, LAPLACE, A_ONE)


class TestVertexLookup:
    @settings(max_examples=25, deadline=None)
    @given(meshes=enlarged_meshes())
    def test_shared_map_matches_dict_lookup(self, meshes):
        # The Omega_eta vertices of a substructured system are the dict-
        # numbered oracle's, bit for bit, and each part's map into them is a
        # dict lookup of the part's keys.
        via = SubstructuredSystem(*_laplace_parts(*meshes))
        union = UnionMesh(*meshes)
        assert np.array_equal(via.mesh.ijk, union.ijk)
        assert np.array_equal(via.mesh.verts.view(np.uint8), union.verts.view(np.uint8))
        assert np.array_equal(via.mesh.boundary_vertex_mask, union.boundary_vertex_mask)
        every = np.arange(via.mesh.n_vertices)
        for part, vmap, _ in via._parts:
            assert np.array_equal(every[vmap], _dict_vertex_map(part.mesh, union))

    @settings(max_examples=25, deadline=None)
    @given(meshes=enlarged_meshes(), data=st.data())
    def test_single_key_found_or_rejected(self, meshes, data):
        for mesh in meshes:
            lookup = {tuple(key): i for i, key in enumerate(map(tuple, mesh.ijk))}
            key = tuple(data.draw(st.integers(int(lo) - 2, int(hi) + 2))
                        for lo, hi in zip(mesh.lo, mesh.hi))
            if key in lookup:
                assert mesh.vertex_indices([key]).tolist() == [lookup[key]]
            else:
                with pytest.raises(GeometryError, match="not mesh vertices"):
                    mesh.vertex_indices([key])

    def test_foreign_lattice_rejected(self):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.25)
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        with pytest.raises(GeometryError, match="one lattice"):
            SubstructuredSystem(*_laplace_parts(mesh, bump))


def _cell_tets(cell_corners):
    """The Kuhn tets (6 C, 4), tet 6 c + p of pattern p, of the cells whose
    corners `lattice_topology` gives."""
    return cell_corners[:, _TET_PATTERNS].reshape(-1, 4)


@st.composite
def lattice_boxes(draw):
    """The lattice corners (lo, hi) of a non-cubic box, one cell thick
    along an axis in some draws, at a random lattice offset."""
    n = draw(st.tuples(*[st.integers(1, 5)] * 3).filter(lambda c: len(set(c)) > 1))
    lo = np.array([draw(st.integers(-6, 6)) for _ in range(3)])
    return lo, lo + np.array(n)


def _offset_mesh(box):
    """The mesh of lattice corners (lo, hi) at pitch 1/4, anchored off the
    origin."""
    return Mesh(*box, 0.25, np.array([0.5, -0.25, 0.0]))


class TestKeyedMeshBuild:
    @settings(max_examples=60, deadline=None)
    @given(box=lattice_boxes())
    def test_matches_unique_rows_reference(self, box):
        # The closed-form vertices and boundary of a box have the bits of
        # the reference topology of its cells.
        mesh = _offset_mesh(box)
        ijk, _, tris = lattice_topology(box_cells(mesh))
        for got, want in ((mesh.ijk, ijk), (mesh.boundary_tris, tris)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        mask = np.zeros(len(ijk), dtype=bool)
        mask[tris] = True
        assert np.array_equal(mesh.boundary_vertex_mask, mask)


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


def _patterns(mesh):
    """The Kuhn pattern of each tet: tet 6 c + p is pattern p of cell c."""
    return np.arange(mesh.n_tets) % 6


def _assert_matches_det_inv(mesh, verts, tets):
    """The closed-form geometry of the mesh's tets, the integer gradients
    of their patterns over h and the volume h (h h) / 6 that
    `energy_density` takes, is the per-tet det/inv geometry."""
    want_tets, want_vol, want_grads = _det_inv_geometry(verts, tets)
    assert np.array_equal(mesh.corners(), want_tets)
    np.testing.assert_allclose(np.full(mesh.n_tets, mesh.h * (mesh.h * mesh.h) / 6.0), want_vol,
                               rtol=1e-14, atol=0.0)
    scale = np.max(np.abs(want_grads), axis=(1, 2))
    err = np.max(np.abs(_UNIT_GRADS[_patterns(mesh)] / mesh.h - want_grads), axis=(1, 2))
    assert np.all(err <= 1e-14 * scale)


def _assert_no_per_tet_arrays(mesh):
    """No array of the mesh has a row per tet or per tet corner (a length
    that is also the vertex or boundary triangle count is not told apart)."""
    per_tet = {mesh.n_tets, 4 * mesh.n_tets} - {mesh.n_vertices, len(mesh.boundary_tris)}
    for name, value in vars(mesh).items():
        if isinstance(value, np.ndarray) and value.ndim:
            assert len(value) not in per_tet, name


class TestClosedFormGeometry:
    def test_box_meshes(self):
        for h in (0.25, 0.2, 0.125, 0.05):
            mesh = build_mesh(BOX, h)
            raw = _cell_tets(lattice_topology(box_cells(mesh))[1])
            # The Kuhn tets come out positively oriented, so the det/inv
            # oracle flips none of them.
            edges = mesh.verts[raw[:, 1:]] - mesh.verts[raw[:, :1]]
            assert np.all(np.linalg.det(edges) > 0.0)
            assert np.array_equal(mesh.corners(), raw)
            _assert_matches_det_inv(mesh, mesh.verts, raw)
            # Six types, tet 6 c + p of Kuhn pattern p, each of volume h^3 / 6,
            # whose element blocks vol G A G^T are h / 6 times the block table.
            grads, volumes = type_geometry(h)
            np.testing.assert_allclose(volumes, h ** 3 / 6.0, rtol=1e-14)
            want = np.einsum("p,paj,pbk->pjkab", volumes, grads, grads).reshape(6, 9, 16)
            np.testing.assert_allclose(h / 6.0 * _BLOCK_TABLE, want, rtol=1e-14, atol=0.0)
            _assert_no_per_tet_arrays(mesh)

    def test_volume_has_the_bits_of_the_triple_product(self):
        # energy_density multiplies by h (h h) / 6: at every pitch 1/n from
        # 1/4 to 1/96 it has the bits of each pattern's det / 6.
        for n in range(4, 97):
            h = 1.0 / n
            assert np.array_equal(type_geometry(h)[1], np.full(6, h * (h * h) / 6.0)), n

    @settings(max_examples=25, deadline=None)
    @given(meshes=enlarged_meshes())
    def test_enlarged_meshes(self, meshes):
        for mesh in meshes:
            _assert_matches_det_inv(mesh, mesh.verts, mesh.corners())
            _assert_no_per_tet_arrays(mesh)


@st.composite
def cell_ranges(draw, n_cells):
    """Tet slices of whole cells: all of them, none, one, and a contiguous
    range."""
    c0 = draw(st.integers(0, n_cells - 1))
    c1 = draw(st.integers(c0, n_cells))
    return [slice(None), slice(6 * c0, 6 * c0), slice(6 * c0, 6 * c0 + 6), slice(6 * c0, 6 * c1)]


class TestChunkCorners:
    """Corners, barycenters and stencil slots formed per chunk of whole
    cells have the bits of the tets that `lattice_topology` gives."""

    @settings(max_examples=60, deadline=None)
    @given(box=lattice_boxes(), data=st.data())
    def test_chunks_match_the_topology(self, box, data):
        mesh = _offset_mesh(box)
        tets = _cell_tets(lattice_topology(box_cells(mesh))[1])
        patterns = _patterns(mesh)
        for chunk in data.draw(cell_ranges(mesh.n_tets // 6)):
            want = tets[chunk]
            got = mesh.corners(chunk)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            v = mesh.verts
            bary = (v[want[:, 0]] + v[want[:, 1]] + v[want[:, 2]] + v[want[:, 3]]) / 4.0
            assert np.array_equal(mesh.barycenters(chunk).view(np.uint8), bary.view(np.uint8))
            # Buffers of exactly the chunk's cells.
            n_cells = len(want) // 6
            out = np.full(24 * n_cells, -1, dtype=np.int64)
            assert np.array_equal(mesh.corners(chunk, out=out), want)
            slots = (_STENCIL_SLOTS[patterns[chunk]] + 15 * want[:, :, None]).ravel()
            got = _stencil_slots(mesh, chunk)
            assert got.dtype == np.int32 and np.array_equal(got, slots)
            out = np.full(96 * n_cells, -1, dtype=np.int32)
            assert np.array_equal(_stencil_slots(mesh, chunk, out=out), slots)

    @pytest.mark.parametrize("chunk", [
        slice(None, None, -1), slice(0, 12, 2), slice(6, 6, 2), slice(0, 5), slice(3, 12),
        slice(6, -1),
    ], ids=["reversed", "step-2", "empty-step-2", "stop-inside", "start-inside", "last-tet-off"])
    def test_slice_not_of_whole_cells_refused(self, chunk):
        mesh = build_mesh(BOX, 0.25)
        calls = (mesh.corners, mesh.barycenters, lambda c: _stencil_slots(mesh, c))
        for call in calls:
            with pytest.raises(ValueError, match="whole lattice cells"):
                call(chunk)


def _aniso_coeffs(n_tets, seed):
    """Random symmetric positive definite per-tet coefficients."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n_tets, 3, 3))
    return M @ M.transpose(0, 2, 1) + 0.5 * np.eye(3)


def _stiffness_reference(mesh, coeff):
    """Per-tet-order reference of `assemble_stiffness`: one np.bincount of
    all element blocks, each tet's from its own coefficient."""
    blocks = _stiffness_blocks(mesh, np.broadcast_to(coeff, (mesh.n_tets, 3, 3)))
    return bincount_csr(mesh.corners(), mesh.n_vertices, blocks)


def _assemble_reference(mesh, family, a):
    """Per-tet-order reference of `assemble`: one np.bincount of all real
    element blocks and one of all imaginary ones."""
    bary = mesh.barycenters()
    coeff = np.broadcast_to(family(bary, a(bary)), (mesh.n_tets, 3, 3))
    blocks = np.empty((mesh.n_tets, 4, 4), dtype=complex)
    blocks.real = _stiffness_blocks(mesh, coeff.real)
    blocks.imag = _stiffness_blocks(mesh, coeff.imag)
    return bincount_csr(mesh.corners(), mesh.n_vertices, blocks)


def _bitwise_equal(got, want):
    return all(g.dtype == w.dtype and np.array_equal(g.view(np.uint8), w.view(np.uint8))
               for g, w in ((got.indptr, want.indptr), (got.indices, want.indices),
                            (got.data, want.data)))


class TestCachedPatternAssembly:
    @pytest.fixture(scope="class")
    def meshes(self):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.125, patch=patch)
        # "enlarged" is the bump box, the part of Omega_eta outside Omega.
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        return {"box": mesh, "enlarged": bump, "fifth": build_mesh(BOX, 0.2)}

    @pytest.mark.parametrize("name", ["box", "enlarged", "fifth"])
    @pytest.mark.parametrize("kind", ["constant", "anisotropic"])
    def test_matches_coo_reference(self, meshes, name, kind):
        mesh = meshes[name]
        if kind == "constant":
            coeff = np.array([[1.3, 0.2, -0.1], [0.2, 0.9, 0.3], [-0.1, 0.3, 1.1]])
        else:
            coeff = _aniso_coeffs(mesh.n_tets, seed=7)
        K = assemble_stiffness(mesh, coeff)
        ref = coo_stiffness(mesh, coeff)
        assert K.shape == ref.shape
        assert abs(K - ref).max() <= 1e-14 * abs(ref).max()
        assert K.has_sorted_indices
        assert _bitwise_equal(K, _stiffness_reference(mesh, coeff))

    def test_refuses_a_mesh_that_is_not_a_box(self):
        # Lattice corners with no cell along an axis, or not 3-D.
        for lo, hi in (((0, 0, 0), (4, 4, 0)), ((1, 0, 0), (0, 4, 4)), ((0, 0), (4, 4))):
            with pytest.raises(GeometryError, match="at least one lattice cell"):
                Mesh(lo, hi, 0.25, np.zeros(3))

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
        assert _bitwise_equal(M, bincount_csr(tris, mesh.n_vertices, local))

    def test_zero_coefficient_leaves_cache_and_matrices(self):
        mesh = build_mesh(BOX, 0.25)
        K1 = assemble_stiffness(mesh, np.eye(3))
        K1_saved = K1.copy()
        K0 = assemble_stiffness(mesh, np.zeros((3, 3)))
        assert K0.nnz == 0
        assert (K1 != K1_saved).nnz == 0
        assert K1.nnz == K1_saved.nnz
        K2 = assemble_stiffness(mesh, np.eye(3))
        assert (K2 != K1).nnz == 0
        system = assemble(mesh, LAPLACE, A_ONE)
        assert not np.any(matrix(system).data.imag)
        assert (matrix(system) != K1).nnz == 0

    def test_assembly_leaves_the_mesh_unchanged(self):
        # No memo: the mesh keeps the same attributes, objects and values.
        mesh = build_mesh(BOX, 0.25)
        before = dict(vars(mesh))
        saved = {name: value.copy() for name, value in before.items()
                 if isinstance(value, np.ndarray)}
        assemble_stiffness(mesh, np.eye(3))
        assemble(mesh, ROTATED, AFFINE)
        assert vars(mesh).keys() == before.keys()
        assert all(vars(mesh)[name] is value for name, value in before.items())
        assert all(np.array_equal(before[name], value) for name, value in saved.items())


class TestStencilAssembly:
    """The 15-point stencil assembly has the bits of one np.bincount of all
    element blocks in tet order."""

    @settings(max_examples=30, deadline=None)
    @given(box=lattice_boxes(), seed=st.integers(0, 2 ** 16))
    def test_boxes_at_a_lattice_offset(self, box, seed):
        mesh = _offset_mesh(box)
        coeff = _aniso_coeffs(mesh.n_tets, seed)
        assert _bitwise_equal(assemble_stiffness(mesh, coeff), _stiffness_reference(mesh, coeff))
        assert _bitwise_equal(matrix(assemble(mesh, ROTATED, AFFINE)),
                              _assemble_reference(mesh, ROTATED, AFFINE))

    def test_bump_one_cell_thick(self):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.125, patch=patch)
        enlarged = EnlargedDomain(BOX, patch, 0.125, (0.25, 0.25), (0.75, 0.75), 0.125)
        bump = build_mesh(enlarged, 0.125)
        assert min(bump.box_shape) == 0
        coeff = _aniso_coeffs(bump.n_tets, seed=11)
        assert _bitwise_equal(assemble_stiffness(bump, coeff), _stiffness_reference(bump, coeff))
        assert _bitwise_equal(matrix(assemble(bump, ROTATED, AFFINE)),
                              _assemble_reference(bump, ROTATED, AFFINE))


class TestBlockSystem:
    def test_block_structure_exact(self):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE)
        K = block_matrix(system)
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
        mesh = build_mesh(BOX, 0.125, patch=patch)
        if domain == "omega-eta":
            # The bump box, the part of Omega_eta outside Omega.
            mesh = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        a = affine_field(1.0, (0.1, -0.05, 0.2))
        system = assemble(mesh, fam, a)
        t = a.values(mesh.barycenters())
        K_R = assemble_stiffness(mesh, fam.real_part(mesh.barycenters(), t))
        K_I = assemble_stiffness(mesh, fam.freq * fam.imag_part(mesh.barycenters(), t))
        assert K_I.nnz > 0
        ref = sp.bmat([[K_R, -K_I], [K_I, K_R]], format="csr")
        block = block_matrix(system)
        assert block.nnz == ref.nnz
        for got, want in ((block.indptr, ref.indptr), (block.indices, ref.indices),
                          (block.data, ref.data)):
            assert np.array_equal(got, want)

    def test_schur_onto_rejects_interior_dofs(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE)
        sigma = np.append(system.boundary[:3], system.interior[0])
        with pytest.raises(ConfigError):
            system.schur_onto(sigma)

    def test_laplace_blocks(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE)
        lap = assemble_stiffness(mesh, np.eye(3))
        assert (matrix(system) != lap).nnz == 0
        assert not np.any(matrix(system).data.imag)

    def test_off_diagonal_scaling(self):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE)
        lap = assemble_stiffness(mesh, np.eye(3))
        assert np.max(np.abs((matrix(system).imag - 0.1 * lap).toarray())) <= 1e-14

    def test_quadratic_form_positive(self):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE)
        K = block_matrix(system)
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
        system = assemble(mesh, fam, a)
        K = block_matrix(system)
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
        system = assemble(mesh, LAPLACE, A_ONE)
        g = mesh.verts[:, 0].astype(complex)
        u = system.solve_dirichlet(g)
        assert np.max(np.abs(u - g)) <= 1e-12

    def test_complex_scalar_divides_out(self):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE)
        g = mesh.verts[:, 0].astype(complex)
        u = system.solve_dirichlet(g)
        assert np.max(np.abs(u - g)) <= 1e-12

    def test_boundary_values_exact(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE)
        rng = np.random.default_rng(2)
        g = (rng.standard_normal(mesh.n_vertices)
             + 1j * rng.standard_normal(mesh.n_vertices))
        u = system.solve_dirichlet(g)
        bnd = mesh.boundary_vertex_mask
        assert np.array_equal(u[bnd], g[bnd])

    def test_interior_residual_bound(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE)
        rng = np.random.default_rng(3)
        g = rng.standard_normal(mesh.n_vertices).astype(complex)
        u = system.solve_dirichlet(g)
        rhs = -(system._K_ib @ g[system.boundary])
        resid = np.linalg.norm(system._K_ii @ u[system.interior] - rhs)
        assert resid <= 1e-10 * np.linalg.norm(rhs)

    def test_nonfinite_data_rejected(self):
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, LAPLACE, A_ONE)
        g = np.zeros(mesh.n_vertices, dtype=complex)
        g[mesh.boundary_vertex_mask] = np.nan
        with pytest.raises(SolverError):
            system.solve_dirichlet(g)


class TestOneCopy:
    """A system keeps each entry of K once: its interior blocks and its
    boundary rows."""

    @pytest.fixture(scope="class")
    def meshes(self):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.125, patch=patch)
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        return {"box": mesh, "bump": bump, "omega-eta": UnionMesh(mesh, bump)}

    @pytest.mark.parametrize("kind", ["sine-transform", "box-cocg"])
    def test_no_attribute_is_n_by_n(self, meshes, kind):
        # "sine-transform" is the constant Laplacian, read as layered.
        mesh = meshes["box"]
        system = (assemble(mesh, LAPLACE, A_ONE) if kind == "sine-transform"
                  else assemble(mesh, ROTATED, AFFINE))
        assert system.solver_kind == ("layered" if kind == "sine-transform" else kind)
        system.solve_dirichlet(np.ones(mesh.n_vertices))
        system.schur_onto(np.flatnonzero(mesh.boundary_vertex_mask)[:20])
        n = mesh.n_vertices
        for name, value in vars(system).items():
            assert getattr(value, "shape", None) != (n, n), name
        blocks = (system._K_ii, system._K_ib, system._K_b)
        assert system.stored_bytes() == sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in blocks)

    @pytest.mark.parametrize("name", ["box", "bump"])
    @pytest.mark.parametrize("field", ["rotated", "diagonal", "real"])
    def test_stencil_blocks_keep_the_bits_of_the_whole_k(self, meshes, name, field):
        # The blocks built straight from the stencil rows are those sliced
        # from the whole K: entries, order and dtypes, exact zeros dropped.
        import admitlab.fem

        fam, a = {"rotated": (ROTATED, AFFINE), "diagonal": (DIAG_123, A_ONE),
                  "real": (LAPLACE, affine_field(1.0, (0.0, 0.2, 0.0)))}[field]
        mesh = meshes[name]
        system = assemble(mesh, fam, a)
        K = stencil_csr(mesh, admitlab.fem._complex_stencil(mesh, fam, a))
        sliced = LuSystem(mesh, K)
        for got, want in ((system._K_ii, sliced._K_ii), (system._K_ib, sliced._K_ib),
                          (system._K_b, sliced._K_b)):
            assert got.shape == want.shape and _bitwise_equal(got, want)
        assert system.stored_bytes() == sliced.stored_bytes()

    @pytest.mark.parametrize("name", ["box", "bump", "omega-eta"])
    def test_blocks_keep_the_bits_of_coo_stiffness(self, meshes, name):
        mesh = meshes[name]
        coeff = _aniso_coeffs(mesh.n_tets, seed=5)
        K = (coo_stiffness(mesh, coeff) + 1j * coo_stiffness(mesh, 0.1 * coeff)).tocsr()
        system = LuSystem(mesh, K)
        assert _bitwise_equal(system._K_b, K[system.boundary])
        assert _bitwise_equal(matrix(system), K)
        K_R, K_I = K.real.copy(), K.imag.copy()
        K_R.eliminate_zeros()
        K_I.eliminate_zeros()
        assert _bitwise_equal(block_matrix(system),
                              sp.bmat([[K_R, -K_I], [K_I, K_R]], format="csr"))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((mesh.n_vertices, 3)) + 1j * rng.standard_normal((mesh.n_vertices, 3))
        got, want = system.product(x), K @ x
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # The boundary rows, footprint rows among them, keep their bits.
        assert np.array_equal(got[system.boundary], want[system.boundary])
        rows = system.boundary[::3]
        assert _bitwise_equal(system.boundary_rows(rows), K[rows])
        with pytest.raises(ConfigError, match="boundary vertices"):
            system.boundary_rows(system.interior[:1])


class TestColumnSolves:
    """Dirichlet data given as (n, c) columns share one interior solve.

    These run on the sparse LU path; TestColumnSolvesOnBox and
    TestColumnSolvesOnCocg run them again on the layered box path and on
    the box-preconditioned COCG path.
    """

    PATH = "lu"

    def _system_and_data(self, columns, seed=4):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        mesh = build_mesh(BOX, 0.25)
        system = assemble(mesh, fam, A_ONE)
        assert system.solver_kind == "layered"
        if self.PATH == "lu":
            system = LuSystem(mesh, matrix(system))
        elif self.PATH == "cocg":
            system = _read_as_cocg(system)
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
            assert single.shape == (len(g),) and single.dtype == np.complex128
            scale = np.max(np.abs(single))
            assert np.max(np.abs(u[:, j] - single)) <= 1e-14 * scale

    def test_single_column_matrix(self):
        system, g = self._system_and_data(1)
        u = system.solve_dirichlet(g)
        assert u.shape == g.shape
        assert np.array_equal(u[:, 0], system.solve_dirichlet(g[:, 0]))

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

    def test_nan_single_solution_raises(self, monkeypatch):
        # A 1-D solve returns a plain array: a non-finite solution fails
        # its residual check.
        system, g = self._system_and_data(1)
        solve = system._solve_interior

        def poisoned(rhs):
            out = solve(rhs)
            out[0] = np.nan
            return out

        monkeypatch.setattr(system, "_solve_interior", poisoned)
        with pytest.raises(SolverError, match="interior residual"):
            system.solve_dirichlet(g[:, 0])

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


def _assert_direct_solves(mesh, layers, K, interior):
    """`layered_solve` along each layer axis against the dense solve of
    K's interior block at 1e-12, and one column solved alone against the
    same column in a block."""
    K_ii = K[np.ix_(interior, interior)].toarray()
    rng = np.random.default_rng(len(interior))
    rhs = (rng.standard_normal((len(interior), 3))
           + 1j * rng.standard_normal((len(interior), 3)))
    ref = np.linalg.solve(K_ii, rhs)
    for layer in layers.values():
        solve = layered_solve(mesh, layer)
        x = solve(rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(solve(rhs[:, 1]) - x[:, 1])) <= 1e-14 * np.max(np.abs(ref))


class TestBoxSolve:
    """The direct interior solve of a constant K, one layer repeated along
    every axis, against dense and sparse LU solves."""

    @settings(max_examples=20, deadline=None)
    @given(box_weight_cases())
    def test_matches_dense_solve(self, case):
        mesh, weights = case
        system = _box_system(mesh, weights)
        _assert_direct_solves(mesh, system._read.layers, matrix(system), system.interior)

    def test_box_shape(self):
        mesh = build_mesh(BoxDomain((0.0, 0.0, 0.0), (1.25, 1.0, 1.5)), 0.25)
        assert mesh.box_shape == (4, 3, 5)
        assert np.sum(~mesh.boundary_vertex_mask) == 60
        # A bump box one cell thick has no interior to solve.
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        enlarged = EnlargedDomain(BOX, patch, 0.125, (0.25, 0.25), (0.75, 0.75), 0.125)
        bump = build_mesh(enlarged, 0.125)
        assert bump.box_shape == (3, 3, 0)
        layers = Layers(0, _diagonal_stencils(0.125, np.ones(3))[0][None])
        with pytest.raises(GeometryError, match="interior vertices"):
            layered_solve(bump, layers)

    def test_real_weights_keep_real_data_real(self):
        mesh = build_mesh(BoxDomain((0.0, 0.0, 0.0), (1.0, 1.25, 1.5)), 0.25)
        n = int(np.prod(mesh.box_shape))
        # A constant real K, layered along every axis, and one that varies
        # along x3 only.
        height = 1.0 + mesh.barycenters()[:, 2]
        for coeff in (np.eye(3), height[:, None, None] * np.eye(3)):
            read = BlockSystem.from_stencil(mesh, stiffness_stencil(mesh, coeff))._read
            layers = read.layers
            assert read.kind == "layered" and len(layers) == (3 if coeff.ndim == 2 else 1)
            for layer in layers.values():
                x = layered_solve(mesh, layer)(np.ones((n, 2)))
                assert x.dtype == np.float64 and x.shape == (n, 2)

    @pytest.mark.parametrize("fam", [scalar_identity_family(k=0.1, imag=1.0), DIAG_123],
                             ids=["scalar", "diag123"])
    def test_dirichlet_and_schur_match_lu(self, fam, factor_calls):
        mesh = build_mesh(BOX, 0.125)
        box = assemble(mesh, fam, A_ONE)
        assert box.solver_kind == "layered"
        lu = LuSystem(mesh, matrix(box))
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
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        union = UnionMesh(mesh, bump)
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
            build = lu_system if case == "omega-eta" else assemble
            system = build(union if case == "omega-eta" else mesh, fam, a)
            kind = {"omega-eta": "sparse-lu", "affine": "box-cocg",
                    "rotated-anisotropic": "box-cocg"}.get(case, "layered")
            assert system.solver_kind == kind
            systems = [system]
        for system in systems:
            system.solve_dirichlet(np.ones(system.mesh.n_vertices))
        n_omega = int(np.sum(~mesh.boundary_vertex_mask))
        n_eta = int(np.sum(~union.boundary_vertex_mask))
        sizes = {"omega": n_omega, "omega_eta": n_eta}
        assert factor_calls == [sizes[name] for name in factored]
        interface = sum(len(s.footprint) for s in systems if s.solver_kind == "via-core")
        assert sum(s.factored_dofs for s in systems) == sum(factor_calls) + interface


ROTATED = rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1)
AFFINE = affine_field(1.0, (0.1, -0.05, 0.2))


def _omega_eta_system(core, bump, field=None):
    """The Omega_eta system as `Forward.system_eta` builds it: the core and
    the system of `field`, by default the core's, on the bump mesh."""
    return SubstructuredSystem(core, assemble(bump, *(field or core.field)))


def _core_pair(mesh, bump, fam, a):
    """The Omega_eta system substructured through its Omega core and bump
    systems, and the oracle: the same field's system on the `UnionMesh` of
    the two boxes, on the sparse LU path.  Both number the vertices alike,
    to the bit."""
    via = _omega_eta_system(assemble(mesh, fam, a), bump)
    lu = lu_system(UnionMesh(mesh, bump), fam, a)
    assert via.solver_kind == "via-core" and lu.solver_kind == "sparse-lu"
    assert np.array_equal(via.mesh.ijk, lu.mesh.ijk)
    assert np.array_equal(via.mesh.verts.view(np.uint8), lu.mesh.verts.view(np.uint8))
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
    assert v_via.shape == v_lu.shape == (n,)
    assert np.max(np.abs(v_via - v_lu)) <= 1e-12 * np.max(np.abs(v_lu))
    assert via.solve_calls == 2 and via.rhs_columns == columns + 1
    assert 0.0 < via.worst_residual <= 1e-10
    Kg = matrix(lu) @ g
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
    mesh, bump = build_mesh(box, h, patch=patch), build_mesh(enlarged, h)
    fam = COCG_FAMILIES[draw(st.sampled_from(sorted(COCG_FAMILIES)))]
    return mesh, bump, fam, draw(st.sampled_from([A_ONE, AFFINE])), base


def _dense_footprint_schur(lu, footprint):
    """Dense Schur complement of the oracle's interior block onto the
    footprint vertices."""
    K_ii = lu._K_ii.toarray()
    f = np.searchsorted(lu.interior, footprint)
    rest = np.setdiff1d(np.arange(len(K_ii)), f)
    return K_ii[np.ix_(f, f)] - K_ii[np.ix_(f, rest)] @ np.linalg.solve(
        K_ii[np.ix_(rest, rest)], K_ii[np.ix_(rest, f)])


class TestCoreSolve:
    """Omega_eta systems solved by substructuring through their Omega core
    and bump systems against the oracle, a sparse LU of the whole Omega_eta
    interior on the union of the two boxes."""

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    @pytest.mark.parametrize("fam", [scalar_identity_family(k=0.1, imag=1.0), DIAG_123, ROTATED],
                             ids=["scalar", "diag123", "rotated"])
    @pytest.mark.parametrize("a", [A_ONE, AFFINE], ids=["constant", "affine"])
    def test_matches_standalone_lu(self, h, fam, a, factor_calls):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, h, patch=patch)
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=h), h)
        via, lu = _core_pair(mesh, bump, fam, a)
        _assert_core_matches_lu(via, lu)
        # The footprint is the patch face's vertices strictly inside the
        # bump base: only its dense interface system is inverted.
        footprint = via.footprint
        assert np.all(np.abs(via.mesh.verts[footprint, 2] - 1.0) < 1e-12)
        assert via.factored_dofs == len(footprint) == (round(0.5 / h) - 1) ** 2
        assert via.core.factored_dofs == via.bump.factored_dofs == 0
        # The oracle is the only sparse LU.
        assert factor_calls == [len(lu.interior)]

    @settings(max_examples=16, deadline=None)
    @given(core_cases())
    def test_any_face_and_box(self, case):
        mesh, bump, fam, a, base = case
        via, lu = _core_pair(mesh, bump, fam, a)
        _assert_core_matches_lu(via, lu, columns=2)
        assert np.array_equal(via.mesh.boundary_vertex_mask, lu.mesh.boundary_vertex_mask)
        # A one-cell bump has no interior: the footprint is all it adds.
        assert (len(via.bump.interior) == 0) == (via.mesh.n_vertices - mesh.n_vertices
                                                 == np.prod([i1 - i0 + 1 for i0, i1 in base]))

    @settings(max_examples=16, deadline=None)
    @given(core_cases())
    def test_interface_is_the_dense_schur_complement(self, case):
        mesh, bump, fam, a, base = case
        via, lu = _core_pair(mesh, bump, fam, a)
        footprint = via.footprint
        assert len(footprint) == np.prod([i1 - i0 - 1 for i0, i1 in base])
        # The footprint lies on one face of Omega, where core and bump
        # meet, in Omega's order.
        ijk = via.mesh.ijk[footprint]
        assert np.array_equal(mesh.vertex_indices(ijk), footprint)
        assert np.all(mesh.boundary_vertex_mask[footprint])
        assert np.any(np.ptp(ijk, axis=0) == 0)
        # T, the parts' Schur complements onto f summed, and T applied to
        # the identity by the interface operator: one core solve per column
        # plus the bump's dense part.
        T = sum(part.schur_onto(f_part) for part, _, f_part in via._parts)
        dense = _dense_footprint_schur(lu, footprint)
        assert np.max(np.abs(T - dense)) <= 1e-12 * np.max(np.abs(dense))
        via._preconditioner()
        applied, core_interior = via._apply_interface(np.eye(len(footprint), dtype=complex))
        assert core_interior.shape == (len(via.core.interior), len(footprint))
        assert np.max(np.abs(applied - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_bump_is_built_once_per_frame(self, monkeypatch):
        calls = []
        real = admitlab.estimator.build_mesh

        def counting(domain, *args, **kwargs):
            calls.append(domain)
            return real(domain, *args, **kwargs)

        monkeypatch.setattr(admitlab.estimator, "build_mesh", counting)
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        frame = build_frame(BOX, patch, 0.25, 0.125, scalar_identity_family(k=0.1, imag=1.0))
        systems = [build_forward(frame, a).system_eta for a in (A_ONE, AFFINE)]
        assert calls == [BOX, frame.enlarged]
        assert [s.bump.solver_kind for s in systems] == ["layered", "box-cocg"]
        # Both Forwards' Omega_eta systems share the frame's bump mesh.
        bump = frame.bump
        for system in systems:
            assert system.core.mesh is frame.mesh and system.bump.mesh is bump
        assert bump.box_shape == (3, 3, 1) and bump.n_tets == 6 * 4 * 4 * 2
        # The bump's vertices have the bits of the same vertices of
        # Omega_eta, which numbers Omega's first.
        bump_map = systems[0]._parts[1][1]
        assert np.array_equal(systems[0].mesh.verts[bump_map], bump.verts)
        assert np.array_equal(systems[0].mesh.verts[:frame.mesh.n_vertices], frame.mesh.verts)

    def test_vertex_record_is_built_once_per_frame(self, monkeypatch):
        import admitlab.fem

        calls = []
        real = admitlab.fem.LatticeVertices.__init__

        def counting(record, *args):
            calls.append(args)
            real(record, *args)

        monkeypatch.setattr(admitlab.fem.LatticeVertices, "__init__", counting)
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        frame = build_frame(BOX, patch, 0.25, 0.125, scalar_identity_family(k=0.1, imag=1.0))
        fwds = [build_forward(frame, a) for a in (A_ONE, AFFINE)]
        # Two fields' Omega_eta systems share the frame's one vertex record.
        first, second = (fwd.system_eta for fwd in fwds)
        assert first.mesh is second.mesh is frame.eta_vertices
        assert calls == [(frame.mesh, frame.bump)]
        assert first.footprint is second.footprint is frame.eta_vertices.footprint
        # A record of other meshes is refused.
        other = build_mesh(BOX, 0.125)
        with pytest.raises(GeometryError, match="vertex record"):
            SubstructuredSystem(fwds[0].system, first.bump,
                                admitlab.fem.LatticeVertices(other, frame.bump))

    def test_one_cell_bump_has_an_empty_bump_system(self, factor_calls):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        enlarged = EnlargedDomain(BOX, patch, 0.125, (0.25, 0.25), (0.75, 0.75), 0.125)
        mesh, bump_mesh = build_mesh(BOX, 0.125, patch=patch), build_mesh(enlarged, 0.125)
        via, lu = _core_pair(mesh, bump_mesh, ROTATED, AFFINE)
        _assert_core_matches_lu(via, lu)
        # The bump system has no interior: it solves nothing and factors
        # nothing, and its Schur complement onto f is its own K[f, f].
        bump = via.bump
        assert len(bump.interior) == 0 and bump.factored_dofs == 0
        f_bump = bump.mesh.vertex_indices(via.mesh.ijk[via.footprint])
        assert np.array_equal(bump.schur_onto(f_bump), matrix(bump)[np.ix_(f_bump, f_bump)].toarray())
        assert via.factored_dofs == len(via.footprint) == 9
        assert factor_calls == [len(lu.interior)]

    @pytest.mark.parametrize("case, message", [
        ("overlap", "disjoint interior"), ("top-layer", "vertex of both parts"),
    ])
    def test_parts_that_do_not_tile_rejected(self, case, message):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.125, patch=patch)
        core = assemble(mesh, LAPLACE, A_ONE)
        if case == "overlap":
            bump = core
        else:
            # Only the top cell layer of the two-cell bump: it meets the
            # core nowhere.
            whole = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
            top = Mesh(whole.lo + [0, 0, 1], whole.hi, whole.h, whole.anchor)
            bump = assemble(top, LAPLACE, A_ONE)
        with pytest.raises(GeometryError, match=message):
            SubstructuredSystem(core, bump)

    @pytest.mark.parametrize("case", [
        "shifted", "short", "repeated", "to-boundary", "to-bump", "other-field",
    ])
    def test_mismatched_core_rejected(self, case):
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.125, patch=patch)
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        fam = scalar_identity_family(k=0.1, imag=1.0)
        core = assemble(mesh, fam, A_ONE)
        message = "one lattice"
        if case == "shifted":
            # The bump box on a lattice shifted by half a pitch.
            bump = Mesh(bump.lo, bump.hi, bump.h, bump.anchor + 0.0625)
        elif case == "short":
            # The bump box on a lattice of half the pitch.
            bump = Mesh(2 * bump.lo, 2 * bump.hi, 0.0625, bump.anchor)
        elif case == "repeated":
            # The core's own box again.
            bump, message = mesh, "overlap"
        elif case == "to-boundary":
            # A box beside the patch face's edge: it meets the core along one
            # lattice edge, on the boundary of the union.
            bump, message = Mesh([8, 2, 8], [10, 6, 10], mesh.h, mesh.anchor), "vertex of both"
        elif case == "to-bump":
            # A core box one cell layer into the bump.
            taller = Mesh(mesh.lo, mesh.hi + [0, 0, 1], mesh.h, mesh.anchor)
            core, message = assemble(taller, fam, A_ONE), "overlap"
        else:
            core, message = assemble(mesh, fam, constant_field(1.1)), "different fields"
        with pytest.raises(GeometryError, match=message):
            _omega_eta_system(core, bump, field=(fam, A_ONE))


COCG_FAMILIES = {"scalar": scalar_identity_family(k=0.1, imag=1.0), "diag123": DIAG_123,
                 "rotated": ROTATED}


def _read_as_cocg(system):
    """The system, before its first solve, its interior solver taken as
    box-cocg with the weights that its read gives, whatever kind it reads
    as: a constant diagonal K's are those of its axis slots,
    -K_{r, r + e_a} / h."""
    read = system._read
    weights = read.weights
    if read.kind == "layered":
        weights = -read.layers[2].stencils[0, _UPPER] / system.mesh.h
    system._read = _box_cocg_read(system.mesh, weights)
    assert system.solver_kind == "box-cocg"
    return system


def _cocg_system(mesh, fam, a):
    """The assembled system of a field on a full box, on the box-cocg path
    even where its coefficient is a constant diagonal."""
    return _read_as_cocg(assemble(mesh, fam, a))


def _zero_flux_dofs(system):
    """Boundary vertices with no interior neighbour: their K_I,sigma columns
    are all zero."""
    K_ib = matrix(system)[np.ix_(system.interior, system.boundary)]
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
        K = matrix(system).toarray()
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
        system = assemble(build_mesh(BOX, 0.125), ROTATED, AFFINE)
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
        system = assemble(build_mesh(BOX, 0.05), ROTATED, AFFINE)
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

        system = assemble(build_mesh(BOX, 0.125), ROTATED, AFFINE)
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


SCHUR_KINDS = ["sine-transform", "layered", "box-cocg", "sparse-lu"]


def _schur_case(kind, h):
    """A fresh system of the given case and boundary dofs sigma to project
    onto: a constant K ("sine-transform": the sine basis of each face
    diagonalises it, and it reads as layered along every axis), one
    layered along x3 alone (a field affine along x3), a box-cocg Omega
    system (rotated family, affine field), or the oracle's Omega_eta
    system of that field (sparse-lu)."""
    patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
    mesh = build_mesh(BOX, h, patch=patch)
    if kind in ("sine-transform", "layered"):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        a = A_ONE if kind == "sine-transform" else affine_field(0.9, (0.0, 0.0, 0.1))
        system = assemble(mesh, fam, a)
    elif kind == "box-cocg":
        system = assemble(mesh, ROTATED, AFFINE)
    else:
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=h), h)
        system = lu_system(UnionMesh(mesh, bump), ROTATED, AFFINE)
    assert system.solver_kind == ("layered" if kind == "sine-transform" else kind)
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
        K_is = matrix(system)[np.ix_(system.interior, system.boundary[cols])].toarray()
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
        K_ii = matrix(system)[np.ix_(system.interior, system.interior)].toarray()
        last = matrix(system)[np.ix_(system.interior, sigma[-1:])].toarray()

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
            system = assemble(mesh, LAPLACE, A_ONE)
            g = (mesh.verts[:, 0] ** 2 - mesh.verts[:, 1] ** 2).astype(complex)
            u = system.solve_dirichlet(g)
            assert np.max(np.abs(u - g)) <= 1e-12

    def test_quartic_harmonic_order(self):
        errs = []
        for h in (0.25, 0.125):
            mesh = build_mesh(BOX, h)
            system = assemble(mesh, LAPLACE, A_ONE)
            x, y = mesh.verts[:, 0], mesh.verts[:, 1]
            g = (x**4 - 6.0 * x**2 * y**2 + y**4).astype(complex)
            u = system.solve_dirichlet(g)
            errs.append(float(np.max(np.abs(u - g))))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.8


def _energy(system, u, v):
    """The bilinear energy integral u^T K v of nodal values u and v."""
    return complex(u @ (matrix(system) @ v))


class TestEnergyPairing:
    def setup_method(self):
        self.mesh = build_mesh(BOX, 0.25)
        self.system = assemble(self.mesh, LAPLACE, A_ONE)

    def test_unit_gradient(self):
        u = self.mesh.verts[:, 0]
        assert _energy(self.system, u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gradients(self):
        u, v = self.mesh.verts[:, 0], self.mesh.verts[:, 1]
        assert abs(_energy(self.system, u, v)) <= 1e-12

    def test_complex_scalar_factor(self):
        fam = scalar_identity_family(k=0.25, imag=1.0)
        system = assemble(self.mesh, fam, A_ONE)
        u = self.mesh.verts[:, 0]
        assert _energy(system, u, u) == pytest.approx(1.0 + 0.25j, abs=1e-12)

    def test_bilinear_symmetry(self):
        fam = scalar_identity_family(k=0.25, imag=1.0)
        system = assemble(self.mesh, fam, A_ONE)
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
        # Nodal vectors of another mesh, or not (n,) vectors.
        other = build_mesh(BOX, 0.125).verts[:, 0]
        u = self.mesh.verts[:, 0]
        for pair in ((other, other), (u, other), (u, u[:, None]), (u[:, None], u[:, None])):
            with pytest.raises(ConfigError):
                energy_density(self.mesh, np.eye(3), *pair)

    def test_density_sums_to_pairing(self):
        fam = scalar_identity_family(k=0.25, imag=1.0)
        system = assemble(self.mesh, fam, A_ONE)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(self.mesh.n_vertices) + 0j
        v = rng.standard_normal(self.mesh.n_vertices) + 0j
        coeff = np.eye(3) + 0.25j * np.eye(3)
        total = np.sum(energy_density(self.mesh, coeff, u, v))
        assert total == pytest.approx(_energy(system, u, v), rel=1e-12)

    @pytest.mark.parametrize("coeff_kind", ["constant", "per-tet"])
    def test_matches_pattern_gradients(self, coeff_kind):
        """Corner differences over h give the densities of the pattern
        gradients, and `real` keeps the bits of their real parts."""
        rng = np.random.default_rng(7)
        n = self.mesh.n_vertices
        coeff = (np.diag([1.0, 2.0, 0.5]) + 0.3j if coeff_kind == "constant"
                 else _aniso_coeffs(self.mesh.n_tets, seed=9) + 0.5j)
        c = np.broadcast_to(coeff, (self.mesh.n_tets, 3, 3))
        for _ in range(3):
            u, v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
            dens = energy_density(self.mesh, coeff, u, v)
            assert dens.shape == (self.mesh.n_tets,) and dens.dtype == np.complex128
            grads = [gradients(self.mesh, w) for w in (u, v)]
            ref = (np.einsum("tj,tjk,tk->t", grads[0], c, grads[1])
                   * type_geometry(self.mesh.h)[1][_patterns(self.mesh)])
            assert np.max(np.abs(dens - ref)) <= 1e-14 * np.max(np.abs(ref))
            real = energy_density(self.mesh, coeff, u, v, real=True)
            assert real.dtype == np.float64 and np.array_equal(real, dens.real)

    def test_chunked_density_and_gradients(self, monkeypatch):
        """Densities, from corner-difference gradients, evaluated in
        chunks of 1, 7 and all cells have the bits of one pass over all
        tets."""
        import admitlab.fem

        rng = np.random.default_rng(6)
        u = (rng.standard_normal(self.mesh.n_vertices)
             + 1j * rng.standard_normal(self.mesh.n_vertices))
        coeff = _aniso_coeffs(self.mesh.n_tets, seed=8) + 0.5j
        whole = energy_density(self.mesh, coeff, u, u)
        for cells in (1, 7, self.mesh.n_tets // 6):
            monkeypatch.setattr(admitlab.fem, "_BLOCK_BYTES", 128 * 6 * cells)
            assert np.array_equal(energy_density(self.mesh, coeff, u, u), whole)


def _float_geometry_assemble(mesh, family, a):
    """Reference assembly on per-tet float geometry: the closed-form volumes
    and gradients from the edges h (ijk_i - ijk_0) of every tet's own
    vertices, and one np.bincount of all element blocks per part.  Edges
    from the rounded float vertices would carry their rounding into the
    reference."""
    v = mesh.verts[mesh.corners()]
    ijk = mesh.ijk[mesh.corners()]
    e1, e2, e3 = (mesh.h * (ijk[:, i] - ijk[:, 0]) for i in (1, 2, 3))
    det = np.einsum("ti,ti->t", e1, np.cross(e2, e3))
    grads = np.empty((mesh.n_tets, 4, 3))
    grads[:, 1], grads[:, 2], grads[:, 3] = np.cross(e2, e3), np.cross(e3, e1), np.cross(e1, e2)
    grads[:, 1:] /= det[:, None, None]
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    bary = v.mean(axis=1)
    t = np.broadcast_to(np.asarray(a.values(bary), dtype=float), (mesh.n_tets,))
    local = np.empty((mesh.n_tets, 4, 4), dtype=complex)
    coeff = np.broadcast_to(family(bary, t), (mesh.n_tets, 3, 3))
    for part, c in ((local.real, coeff.real), (local.imag, coeff.imag)):
        part[:] = np.einsum("taj,tjk,tbk->tab", grads, c, grads) * (det / 6.0)[:, None, None]
    return bincount_csr(mesh.corners(), mesh.n_vertices, local)


ORACLE_FAMILIES = [
    scalar_identity_family(k=0.1, imag=1.0),
    diagonal_affine_family(k=0.05, slope=(1.0, 1.2, 0.8), offset=(0.1, 0.0, 0.2),
                           imag=(1.0, 0.7, 1.3)),
    ROTATED,
]


def _omega_and_omega_eta_matrices(mesh, bump, family):
    """The Omega system's K, and the Omega_eta matrix as the sum of its
    assembled parts, the core and the bump, through their vertex maps."""
    via = _omega_eta_system(assemble(mesh, family, AFFINE), bump)
    n = via.mesh.n_vertices
    K_eta = sp.csr_matrix((n, n), dtype=complex)
    for part, vmap, _ in via._parts:
        rows = np.arange(n)[vmap]
        P = sp.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                          shape=(n, len(rows)))
        K_eta = K_eta + P @ matrix(part) @ P.T
    return matrix(via.core), K_eta


def _assert_matches_float_geometry(mesh, bump, family):
    """The Omega and Omega_eta matrices match the assembly on per-tet float
    geometry, the latter on the oracle's union of the boxes, to 1e-15
    relative."""
    for reference_mesh, K in zip((mesh, UnionMesh(mesh, bump)),
                                 _omega_and_omega_eta_matrices(mesh, bump, family)):
        ref = _float_geometry_assemble(reference_mesh, family, AFFINE)
        assert abs(K - ref).max() <= 1e-15 * abs(ref).max()


class TestTypedAssembly:
    @settings(max_examples=20, deadline=None)
    @given(meshes=enlarged_meshes(), family=st.sampled_from(ORACLE_FAMILIES))
    def test_matches_float_geometry_assembly(self, meshes, family):
        """Omega and Omega_eta matrices of all three families match."""
        _assert_matches_float_geometry(*meshes, family)

    def test_matches_float_geometry_at_pitch_one_fifth(self):
        """A draw whose float vertices anchor + h ijk at h = 0.2 round
        differently per tet: the Omega_eta matrix still matches to 1e-15."""
        h, lo = 0.2, np.array([0.0, 0.0, 0.25])
        box = BoxDomain(tuple(lo), tuple(lo + np.array([6, 6, 8]) * h))
        patch = BoundaryPatch(box, "z+", (0.1, 0.1), (1.1, 1.1))
        enlarged = build_enlarged_domain(box, patch, 2.0 * h, grid_h=h, check_samples=100)
        _assert_matches_float_geometry(build_mesh(box, h, patch=patch), build_mesh(enlarged, h),
                                       ORACLE_FAMILIES[1])

    @pytest.mark.parametrize("size", ["1", "7", "T"])
    def test_chunks_match_one_bincount(self, size, monkeypatch):
        """np.add.at over chunks of 1, 7 and all cells (all T tets) gives the
        bits of one np.bincount over every element block."""
        import admitlab.fem

        mesh = build_mesh(BOX, 0.2)
        cells = {"1": 1, "7": 7, "T": mesh.n_tets // 6}[size]
        monkeypatch.setattr(admitlab.fem, "_BLOCK_BYTES", admitlab.fem._ASSEMBLY_BYTES * 6 * cells)
        coeff = _aniso_coeffs(mesh.n_tets, seed=3)
        assert _bitwise_equal(assemble_stiffness(mesh, coeff), _stiffness_reference(mesh, coeff))
        bump = gaussian_bump_field(1.0, 0.1, (0.5, 0.5, 0.9), 0.3)
        system = assemble(mesh, ROTATED, bump)
        assert _bitwise_equal(matrix(system), _assemble_reference(mesh, ROTATED, bump))
        # The COCG weights, read in chunks of rows within the same budget,
        # have the bits of one read over all rows.
        assert system.solver_kind == "box-cocg"
        weights = system._read.weights
        data = admitlab.fem._complex_stencil(mesh, ROTATED, bump)
        monkeypatch.setattr(admitlab.fem, "_BLOCK_BYTES", 1 << 40)
        whole = admitlab.fem._read_solver(mesh, data)
        assert whole.kind == "box-cocg" and np.array_equal(weights, whole.weights)


@st.composite
def face_schur_cases(draw):
    """A non-cubic full box with a random offset, complex per-axis weights
    with positive real parts, one of its six faces, and sigma: a random
    rectangle of that face's interior vertices, thinned at random and in a
    random order."""
    h = draw(st.sampled_from([0.25, 0.125]))
    cells = np.array(draw(st.tuples(*[st.integers(4, 7)] * 3)
                          .filter(lambda c: len(set(c)) > 1)))
    lo = np.array([draw(st.integers(-4, 4)) * 0.125 for _ in range(3)])
    mesh = build_mesh(BoxDomain(tuple(lo), tuple(lo + cells * h)), h)
    weights = np.array([complex(draw(st.floats(0.2, 3.0)), draw(st.floats(-1.0, 1.0)))
                        for _ in range(3)])
    axis, side = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    ijk = mesh.ijk - mesh.ijk.min(axis=0)
    on_face = ijk[:, axis] == side * cells[axis]
    for t in (b for b in range(3) if b != axis):
        i0 = draw(st.integers(1, cells[t] - 1))
        i1 = draw(st.integers(i0, cells[t] - 1))
        on_face &= (ijk[:, t] >= i0) & (ijk[:, t] <= i1)
    sigma = np.flatnonzero(on_face)
    keep = draw(st.lists(st.booleans(), min_size=len(sigma), max_size=len(sigma))
                .filter(any))
    order = draw(st.permutations(range(int(np.sum(keep)))))
    return mesh, weights, sigma[np.asarray(keep)][list(order)]


def _box_system(mesh, weights):
    """The system of a constant diag(weights), assembled part by part:
    layered along every axis."""
    data = (stiffness_stencil(mesh, np.diag(weights.real))
            + 1j * stiffness_stencil(mesh, np.diag(weights.imag)))
    system = BlockSystem.from_stencil(mesh, data)
    assert system.solver_kind == "layered" and sorted(system._read.layers) == [0, 1, 2]
    return system


def _column_oracle(system, sigma):
    """The column-blocked Schur complement onto sigma through the system's
    interior solve."""
    K_s = matrix(system)[sigma]
    return system._column_schur(K_s[:, sigma].toarray(), K_s[:, system.interior],
                                np.searchsorted(system.boundary, sigma))


class TestFaceSchur:
    """The closed-form face Schur complement of a constant diagonal K, on
    all six faces, against the column-blocked path, kept as the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(face_schur_cases())
    def test_matches_column_oracle(self, case):
        mesh, weights, sigma = case
        system = _box_system(mesh, weights)
        S = system.schur_onto(sigma)
        # No column solved: one interior solve of the check's combinations.
        assert system.solve_calls == 1 and system.rhs_columns == 3
        assert 0.0 < system.worst_residual <= 1e-10
        oracle = _column_oracle(_box_system(mesh, weights), sigma)
        assert S.shape == oracle.shape == (len(sigma), len(sigma))
        assert np.max(np.abs(S - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_other_sigma_takes_the_columns(self):
        mesh = build_mesh(BoxDomain((0.0, 0.0, 0.0), (1.0, 0.75, 1.25)), 0.125)
        weights = np.array([1.0 + 0.5j, 2.0, 0.5 - 0.1j])
        system = _box_system(mesh, weights)
        ijk = mesh.ijk - mesh.ijk.min(axis=0)
        top = np.flatnonzero((ijk[:, 2] == 10) & (ijk[:, 0] >= 1) & (ijk[:, 0] <= 7)
                             & (ijk[:, 1] >= 0) & (ijk[:, 1] <= 5))
        # A face edge vertex, and two faces: solved column by column.
        for sigma in (top, np.concatenate([top[:4], system.boundary[:3]])):
            fresh = _box_system(mesh, weights)
            S = fresh.schur_onto(sigma)
            assert fresh.rhs_columns == len(sigma)
            assert np.array_equal(S, _column_oracle(fresh, sigma))

    def test_real_weights_give_a_real_schur_complement(self):
        mesh = build_mesh(BOX, 0.125)
        system = BlockSystem.from_stencil(mesh, stiffness_stencil(mesh, np.eye(3)))
        ijk = mesh.ijk
        sigma = np.flatnonzero((ijk[:, 0] == 0) & np.all((ijk[:, 1:] >= 1) & (ijk[:, 1:] <= 7),
                                                         axis=1))
        S = system.schur_onto(sigma)
        assert S.dtype == np.float64
        oracle = _column_oracle(system, sigma)
        assert np.max(np.abs(S - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("column", ["first", "middle", "last"])
    def test_one_wrong_column_fails_the_check(self, column, monkeypatch):
        import admitlab.fem

        mesh = build_mesh(BOX, 0.125)
        system = _box_system(mesh, np.array([1.0 + 0.2j, 1.5 - 0.3j, 0.8 + 0.1j]))
        ijk = mesh.ijk
        sigma = np.flatnonzero((ijk[:, 2] == 8) & np.all((ijk[:, :2] >= 2) & (ijk[:, :2] <= 6),
                                                         axis=1))
        j = {"first": 0, "middle": len(sigma) // 2, "last": len(sigma) - 1}[column]
        real = admitlab.fem._face_schur

        def one_wrong_column(*args):
            S = real(*args).copy()
            S[:, j] *= 1.0 + 1e-8
            return S

        monkeypatch.setattr(admitlab.fem, "_face_schur", one_wrong_column)
        with pytest.raises(SolverError, match="Schur complement check") as err:
            system.schur_onto(sigma)
        assert err.value.diagnostics["residual"] > 1e-10 * err.value.diagnostics["scale"]
        assert system._schur is None

    @pytest.mark.parametrize("side", [0, 2])
    def test_face_rows_that_differ_from_the_interior(self, side):
        # Two cell layers, diag(1, 1, 1) below and diag(2, 3, 1) above: the
        # one interior level's rows are all one stencil, so the system is
        # layered along every axis, but each z-face's rows are those of its
        # own cell layer, whose stencil the read keeps for that face.
        mesh = Mesh((0, 0, 0), (4, 4, 2), 0.25, np.zeros(3))
        upper = np.array([2.0, 3.0, 1.0])
        fam = _CellFamily(mesh, lambda cells: np.where((cells[:, 2] == 1)[:, None], upper, 1.0))
        ijk = mesh.ijk
        sigma = np.flatnonzero((ijk[:, 2] == side)
                               & np.all((ijk[:, :2] >= 1) & (ijk[:, :2] <= 3), axis=1))
        system = assemble(mesh, fam, A_ONE)
        assert system.solver_kind == "layered" and sorted(system._read.layers) == [0, 1, 2]
        S = system.schur_onto(sigma)
        # No column solved: one interior solve of the check's combinations.
        assert system.solve_calls == 1 and system.rhs_columns == 3
        oracle = _column_oracle(assemble(mesh, fam, A_ONE), sigma)
        assert np.max(np.abs(S - oracle)) <= 1e-12 * np.max(np.abs(oracle))


OBLIQUE = affine_field(0.9, (0.02, 0.0, 0.1))


def _derivative_forward(h, field="oblique"):
    """The Forward of derivative.yaml's a1, whose Omega system is
    layered along every axis, of its a2, whose Omega system is layered
    along x3, or of a2 with its gradient tilted off the patch normal, whose
    Omega system is box-cocg, at pitch h."""
    cfg = load_config(CONFIG_DIR / "derivative.yaml", mesh_h=h)
    frame = build_frame(cfg.box, cfg.patch, cfg.eta, cfg.h, cfg.family)
    fwd = build_forward(frame, OBLIQUE if field == "oblique" else getattr(cfg, field))
    assert fwd.system.solver_kind == {"a1": "layered", "a2": "layered",
                                      "oblique": "box-cocg"}[field]
    return fwd


def _dense_interface_solve(via, g):
    """The Dirichlet solve of a substructured system through its dense
    interface T = S_core(f) + S_bump(f), solved directly."""
    values = np.zeros(g.shape, dtype=complex)
    values[via.mesh.boundary_vertex_mask] = g[via.mesh.boundary_vertex_mask]
    for part, vmap, _ in via._parts:
        values[vmap] = part.solve_dirichlet(values[vmap])
    T = sum(part.schur_onto(f_part) for part, _, f_part in via._parts)
    values[via.footprint] = np.linalg.solve(T, -via._product(values)[via.footprint])
    for part, vmap, _ in via._parts:
        values[vmap] = part.solve_dirichlet(values[vmap])
    return values


class TestInterfaceCocg:
    """The Omega_eta solve by COCG on the footprint."""

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    def test_matches_dense_interface_solve(self, h):
        # The oblique field's core is box-cocg.
        rng = np.random.default_rng(11)
        via = _derivative_forward(h).system_eta
        n = via.mesh.n_vertices
        g = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        u = via.solve_dirichlet(g)
        # The box preconditioner's closed form is not exact: a few steps.
        assert 2 <= via.krylov_iterations_max <= 10
        assert via.krylov_iterations >= 4 * 2
        # The core solved the first pass, one step per iteration and
        # nothing more: its interior came by linearity.
        assert via.core.solve_calls == 1 + via.krylov_iterations_max
        ref = _dense_interface_solve(_derivative_forward(h).system_eta, g)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_memo_makes_one_step(self):
        # A box-cocg core whose DtN was read.
        fwd = _derivative_forward(0.0625)
        fwd.dtn
        via = fwd.system_eta
        n = via.mesh.n_vertices
        g = np.random.default_rng(12).standard_normal((n, 3)) + 0j
        u = via.solve_dirichlet(g)
        # At h = 1/16 the footprint is the DtN basis, whose memoised Schur
        # complement preconditions the interface exactly.
        assert len(via.footprint) == fwd.frame.basis.count == 49
        assert via.krylov_iterations == 3 and via.krylov_iterations_max == 1
        ref = _dense_interface_solve(_derivative_forward(0.0625).system_eta, g)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    def test_layered_core_makes_one_step(self, h):
        # A layered core's closed form onto the footprint is exact, with no
        # DtN read: one step per column.
        via = _derivative_forward(h, "a2").system_eta
        n = via.mesh.n_vertices
        g = np.random.default_rng(13).standard_normal((n, 3)) + 0j
        u = via.solve_dirichlet(g)
        assert via.core._schur is None
        assert via.krylov_iterations == 3 and via.krylov_iterations_max == 1
        ref = _dense_interface_solve(_derivative_forward(h, "a2").system_eta, g)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_nan_solution_raises(self, monkeypatch):
        import admitlab.fem

        # A non-finite core interior carried by the interface iteration
        # reaches no part's own check: the residual over the whole interior
        # fails.
        via = _derivative_forward(0.125, "a1").system_eta
        real = admitlab.fem._cocg

        def poisoned(*args, **kwargs):
            x, iterations = real(*args, **kwargs)
            x[-1] = np.nan
            return x, iterations

        monkeypatch.setattr(admitlab.fem, "_cocg", poisoned)
        with pytest.raises(SolverError, match="interior residual"):
            via.solve_dirichlet(np.ones(via.mesh.n_vertices))

    def test_stalled_interface_raises(self, monkeypatch):
        import admitlab.fem

        # A layered core runs no interior COCG, so the cap of one
        # iteration and a poor preconditioner stall the interface alone.
        via = _derivative_forward(0.125, "a1").system_eta
        monkeypatch.setattr(admitlab.fem, "_COCG_MAX_ITERATIONS", 1)
        monkeypatch.setattr(BlockSystem, "_preconditioner_schur",
                            lambda self, sigma: np.eye(len(sigma)))
        with pytest.raises(SolverError, match="interface COCG did not converge") as err:
            via.solve_dirichlet(np.ones(via.mesh.n_vertices))
        assert err.value.diagnostics["iterations"] == 1
        assert err.value.diagnostics["residual"] > admitlab.fem._COCG_RTOL


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
                bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
                system = _core_pair(mesh, bump, ROTATED, AFFINE)[0]
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

    def test_build_mesh_peak(self):
        # Within 3x the bytes the finished mesh keeps, for the box and the
        # bump box: no (4T, 3) array of all tet faces.
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        for domain in (BOX, build_enlarged_domain(BOX, patch, 0.25, grid_h=0.0625)):
            mesh, extra = traced_extra(lambda d=domain: build_mesh(d, 0.0625, patch=patch))
            kept = sum(v.nbytes for v in vars(mesh).values() if isinstance(v, np.ndarray))
            assert extra <= 3 * kept, (extra, kept)

    def test_assemble_peak(self):
        import admitlab.fem

        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.0625, patch=patch)
        # The Omega mesh and the bump box over the patch, the two meshes
        # of Omega_eta.
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.0625), 0.0625)
        scalar = scalar_identity_family(k=0.1, imag=1.0)
        for mesh in (mesh, bump):
            _assert_no_per_tet_arrays(mesh)
            # A full K of 15 slots a row, and a diagonal one of 7.
            for fam, a, kind in ((ROTATED, AFFINE, "box-cocg"), (scalar, A_ONE, "layered")):
                system, extra = traced_extra(lambda: assemble(mesh, fam, a))
                assert system.solver_kind == kind
                assert extra <= 4 * admitlab.fem._BLOCK_BYTES, extra

    def test_assembly_buffers_fit_a_small_mesh(self, monkeypatch):
        # A raised budget sizes no buffer beyond the mesh's own cells: the
        # stencil of 8 cells keeps its bits, and its traced peak beyond the
        # output stays small.
        import admitlab.fem

        mesh = Mesh((0, 0, 0), (2, 2, 2), 0.5, np.zeros(3))
        want = admitlab.fem._complex_stencil(mesh, ROTATED, AFFINE)
        monkeypatch.setattr(admitlab.fem, "_BLOCK_BYTES", 1 << 26)
        got, extra = traced_extra(
            lambda: admitlab.fem._complex_stencil(mesh, ROTATED, AFFINE))
        assert _same_bits(got, want)
        assert extra < 1 << 20, extra

    def test_solver_read_peak(self):
        import admitlab.fem

        # Assembly's read of the interior solver from the stencil, on both
        # boxes of Omega_eta and for each kind, within one block budget,
        # keeping no view of the stencil.
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.0625, patch=patch)
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.0625), 0.0625)
        scalar = scalar_identity_family(k=0.1, imag=1.0)
        for mesh in (mesh, bump):
            for fam, a, kind in ((ROTATED, AFFINE, "box-cocg"), (scalar, A_ONE, "layered"),
                                 (scalar, affine_field(0.9, (0.0, 0.0, 0.1)), "layered")):
                data = admitlab.fem._complex_stencil(mesh, fam, a)
                read, extra = traced_extra(lambda: admitlab.fem._read_solver(mesh, data))
                assert read.kind == kind
                assert extra <= admitlab.fem._BLOCK_BYTES, extra
                kept = [layers.stencils for layers in (*read.layers.values(),
                                                       *read.faces.values())]
                assert not any(np.shares_memory(k, data) for k in kept)

    def test_box_cocg_schur_peak(self):
        import admitlab.fem

        system, sigma = _schur_case("box-cocg", 0.0625)
        S, extra = traced_extra(lambda: system.schur_onto(sigma))
        assert system.solve_calls > 1
        assert extra <= 10 * admitlab.fem._BLOCK_BYTES, extra


def _read_boxes():
    """The Omega box and the bump box over its patch at h = 1/8."""
    patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
    return {"omega": build_mesh(BOX, 0.125, patch=patch),
            "bump": build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)}


READ_BOXES = _read_boxes()
POSITIVE = st.floats(0.5, 2.0)


@st.composite
def read_cases(draw):
    """One of the two boxes, a scalar, diagonal-affine or rotated family,
    and a constant field or one affine along one axis."""
    k = draw(st.sampled_from([0.0, 0.05, 0.5]))
    name = draw(st.sampled_from(["scalar", "diagonal-affine", "rotated"]))
    if name == "scalar":
        fam = scalar_identity_family(k=k, imag=draw(POSITIVE))
    elif name == "diagonal-affine":
        fam = diagonal_affine_family(k=k, slope=draw(st.tuples(*[POSITIVE] * 3)),
                                     offset=draw(st.tuples(*[st.floats(0.0, 0.5)] * 3)),
                                     imag=draw(st.tuples(*[POSITIVE] * 3)))
    else:
        fam = rotated_anisotropic_family(k=k, eps=draw(st.floats(0.1, 0.4)), imag=draw(POSITIVE))
    axis = draw(st.sampled_from([None, 0, 1, 2]))
    if axis is None:
        a = constant_field(draw(POSITIVE))
    else:
        a = affine_field(1.0, np.eye(3)[axis] * draw(st.floats(0.05, 0.3)))
    return READ_BOXES[draw(st.sampled_from(sorted(READ_BOXES)))], fam, a, axis


class TestInteriorSolverRead:
    """Each system reads its interior solver from its own matrix."""

    @settings(max_examples=40, deadline=None)
    @given(read_cases())
    def test_kind_weights_and_solves(self, case):
        mesh, fam, a, axis = case
        system = assemble(mesh, fam, a)
        bary = mesh.barycenters()
        t = np.broadcast_to(np.asarray(a.values(bary), dtype=float), (len(bary),))
        coeff = np.broadcast_to(fam.real_part(bary, t) + 1j * fam.freq * fam.imag_part(bary, t),
                                (len(bary), 3, 3))
        diagonal = np.diagonal(coeff, axis1=1, axis2=2)
        is_diagonal = not np.any(coeff - diagonal[:, :, None] * np.eye(3))
        constant_diagonal = is_diagonal and bool(np.all(coeff == coeff[0]))
        read = system._read
        kind, weights = read.kind, read.layers if read.kind == "layered" else read.weights
        # A constant diagonal coefficient is layered along every axis, and
        # one that varies along one axis along that axis alone.
        assert kind == ("layered" if is_diagonal else "box-cocg")
        if constant_diagonal:
            assert sorted(weights) == [0, 1, 2]
            for layers in weights.values():
                slots = -layers.stencils[:, _UPPER] / mesh.h
                assert np.max(np.abs(slots - diagonal[0])) <= 1e-14 * np.max(np.abs(diagonal[0]))
        elif is_diagonal:
            assert list(weights) == [axis]
            assert weights[axis].axis == axis
            assert weights[axis].stencils.shape == (mesh.box_shape[axis], 15)
        else:
            mean = diagonal.mean(axis=0)
            assert np.max(np.abs(weights - mean)) <= 1e-11 * np.max(np.abs(mean))
        lu = LuSystem(mesh, matrix(system))
        rng = np.random.default_rng(3)
        g = (rng.standard_normal((mesh.n_vertices, 2))
             + 1j * rng.standard_normal((mesh.n_vertices, 2)))
        want = lu.solve_dirichlet(g)
        assert np.max(np.abs(system.solve_dirichlet(g) - want)) <= 1e-10 * np.max(np.abs(want))


class _CellFamily:
    """A duck-typed family for the tests: the complex diagonal coefficient
    diag(w) of each tet, w = `weight_of(i, j, k)` (C, 3) of the lattice
    cell (C, 3) that holds its barycenter, for any field, at k = 1."""

    freq = 1.0

    def __init__(self, mesh, weight_of):
        self.mesh, self.weight_of = mesh, weight_of

    def _diagonal(self, x, part):
        cells = np.floor((x - self.mesh.anchor) / self.mesh.h).astype(int) - self.mesh.lo
        return part(self.weight_of(cells))[:, :, None] * np.eye(3)

    def real_part(self, x, t):
        return self._diagonal(x, np.real)

    def imag_part(self, x, t):
        return self._diagonal(x, np.imag)

    def __call__(self, x, t):
        return self._diagonal(x, np.asarray)


@st.composite
def stencil_pass_cases(draw):
    """One of the two boxes of Omega_eta at h = 1/8, a family (one of the
    three templates, the non-affine A_R = t^2 I, or `_CellFamily` with
    complex weights that vary from cell to cell), and a constant, affine
    or bump field."""
    mesh = READ_BOXES[draw(st.sampled_from(sorted(READ_BOXES)))]
    k = draw(st.sampled_from([0.0, 0.05, 0.5]))
    name = draw(st.sampled_from(["scalar", "diagonal-affine", "rotated", "t-squared", "cells"]))
    if name == "scalar":
        fam = scalar_identity_family(k=k, imag=draw(POSITIVE))
    elif name == "diagonal-affine":
        fam = diagonal_affine_family(k=k, slope=draw(st.tuples(*[POSITIVE] * 3)),
                                     offset=draw(st.tuples(*[st.floats(0.0, 0.5)] * 3)),
                                     imag=draw(st.tuples(*[POSITIVE] * 3)))
    elif name == "rotated":
        fam = rotated_anisotropic_family(k=k, eps=draw(st.floats(0.1, 0.4)), imag=draw(POSITIVE))
    elif name == "t-squared":
        eye = np.eye(3)
        fam = custom_family(lambda x, t: t ** 2 * eye, lambda x, t: 2.0 * t * eye, k=k,
                            imag=draw(POSITIVE))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        shape = tuple(mesh.hi - mesh.lo) + (3,)
        weights = rng.uniform(0.5, 2.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
        fam = _CellFamily(mesh, lambda cells: weights[tuple(cells.T)])
    a = draw(st.sampled_from([constant_field(1.1), AFFINE,
                              gaussian_bump_field(1.0, 0.1, (0.5, 0.5, 0.9), 0.3)]))
    return mesh, fam, a


class TestStencilPass:
    """The one stencil pass, chunked by 1, 7 or all cells, gives a complex
    coefficient the bits of the real passes of its parts, and a constant
    coefficient's blocks, multiplied once, the bits of its per-tet ones."""

    @settings(max_examples=30, deadline=None)
    @given(case=stencil_pass_cases(), size=st.sampled_from(["1", "7", "T"]))
    def test_complex_pass_has_the_bits_of_the_real_passes(self, case, size):
        import admitlab.fem

        mesh, fam, a = case
        cells = {"1": 1, "7": 7, "T": mesh.n_tets // 6}[size]
        bary = mesh.barycenters()
        t = a(bary)
        parts = [np.broadcast_to(c, (mesh.n_tets, 3, 3))
                 for c in (fam.real_part(bary, t), fam.freq * fam.imag_part(bary, t))]
        constant = np.array([[1.3, 0.2, -0.1], [0.2, 0.9, 0.3], [-0.1, 0.3, 1.1]])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(admitlab.fem, "_BLOCK_BYTES", admitlab.fem._ASSEMBLY_BYTES * 6 * cells)
            data = admitlab.fem._complex_stencil(mesh, fam, a)
            real, imag = (stiffness_stencil(mesh, part) for part in parts)
            once = stiffness_stencil(mesh, constant)
            per_tet = stiffness_stencil(mesh, np.broadcast_to(constant, (mesh.n_tets, 3, 3)))
        assert _same_bits(data.real, real) and _same_bits(data.imag, imag)
        assert _same_bits(once, per_tet)
        # The blocks themselves, for the case's coefficient at one tet.
        for c in (constant, fam(bary[:1], t[:1])[0]):
            blocks = _stiffness_blocks(mesh, c)
            assert blocks.shape == (6, 4, 4)
            want = _stiffness_blocks(mesh, np.broadcast_to(c, (mesh.n_tets, 3, 3)))
            assert _same_bits(np.broadcast_to(blocks, (mesh.n_tets // 6, 6, 4, 4))
                              .reshape(-1, 4, 4), want)


@st.composite
def layered_cases(draw, constant=False):
    """A small box, 2 to 7 cells a side (at most 6 interior levels), at a
    random lattice offset, a layer axis and complex weights (cells along
    the axis, 3) with positive real parts, the real part of the axis
    component growing from layer to layer, so that the layers differ.
    With `constant`, every layer may take the first layer's weights: a
    constant K, layered along every axis."""
    cells = np.array([draw(st.integers(2, 7)) for _ in range(3)])
    lo = np.array([draw(st.integers(-3, 3)) for _ in range(3)])
    mesh = Mesh(lo, lo + cells, 0.125, np.zeros(3))
    axis = draw(st.integers(0, 2))
    parts = st.tuples(st.floats(0.2, 3.0), st.floats(-1.0, 1.0))
    weights = np.array([[complex(*draw(parts)) for _ in range(3)] for _ in range(cells[axis])])
    steps = [draw(st.floats(0.1, 1.0)) for _ in range(cells[axis])]
    weights[:, axis] = np.cumsum(steps) + 1j * weights[:, axis].imag
    if constant and draw(st.booleans()):
        weights[:] = weights[0]
    return mesh, axis, weights


def _layered_system(mesh, axis, weights):
    """The assembled system of the layer weights, and the oracle's."""
    fam = _CellFamily(mesh, lambda cells: weights[cells[:, axis]])
    return assemble(mesh, fam, A_ONE), lu_system(mesh, fam, A_ONE)


def _face_rectangle(mesh, axis, side, data):
    """Sigma: a random rectangle of the interior vertices of the face
    normal to `axis` at its low (0) or high (1) side, in a random order."""
    ijk = mesh.ijk - mesh.lo
    cells = mesh.hi - mesh.lo
    on_face = ijk[:, axis] == side * cells[axis]
    for t in (b for b in range(3) if b != axis):
        i0 = data.draw(st.integers(1, cells[t] - 1))
        i1 = data.draw(st.integers(i0, cells[t] - 1))
        on_face &= (ijk[:, t] >= i0) & (ijk[:, t] <= i1)
    sigma = np.flatnonzero(on_face)
    return sigma[data.draw(st.permutations(range(len(sigma))))]


def _close(got, want, rtol):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestLayeredSolver:
    """The layered DST-Thomas solve and its closed-form face Schur
    complement against the sparse LU oracle, each axis as layer axis."""

    @settings(max_examples=30, deadline=None)
    @given(layered_cases())
    def test_solve_matches_lu(self, case):
        mesh, axis, weights = case
        system, lu = _layered_system(mesh, axis, weights)
        kind, layers = system._read.kind, system._read.layers
        assert kind == "layered" and list(layers) == [axis] and layers[axis].axis == axis
        rng = np.random.default_rng(7)
        g = (rng.standard_normal((mesh.n_vertices, 3))
             + 1j * rng.standard_normal((mesh.n_vertices, 3)))
        assert _close(system.solve_dirichlet(g), lu.solve_dirichlet(g), 1e-12)
        assert system.krylov_iterations == 0 and system.worst_residual <= 1e-12
        _assert_direct_solves(mesh, layers, matrix(lu), lu.interior)

    @settings(max_examples=30, deadline=None)
    @given(layered_cases(constant=True), st.data())
    def test_normal_faces_take_the_closed_form(self, case, data):
        mesh, axis, weights = case
        for side in (0, 1):
            sigma = _face_rectangle(mesh, axis, side, data)
            system, lu = _layered_system(mesh, axis, weights)
            S = system.schur_onto(sigma)
            # No column solved: one interior solve of the check's columns.
            assert system.solve_calls == 1 and system.rhs_columns == 3
            assert 0.0 < system.worst_residual <= 1e-10
            assert S.shape == (len(sigma), len(sigma))
            assert _close(S, lu.schur_onto(sigma), 1e-11)
            # Exact as the Omega_eta preconditioner too, without a memo.
            fresh = _layered_system(mesh, axis, weights)[0]
            assert np.array_equal(fresh._preconditioner_schur(sigma), S)
            assert fresh.rhs_columns == 0

    @settings(max_examples=20, deadline=None)
    @given(layered_cases(), st.data())
    def test_parallel_faces_take_the_columns(self, case, data):
        mesh, axis, weights = case
        normal = data.draw(st.sampled_from([b for b in range(3) if b != axis]))
        sigma = _face_rectangle(mesh, normal, data.draw(st.integers(0, 1)), data)
        system, lu = _layered_system(mesh, axis, weights)
        S = system.schur_onto(sigma)
        assert system.rhs_columns == len(sigma)
        assert _close(S, lu.schur_onto(sigma), 1e-11)

    @settings(max_examples=20, deadline=None)
    @given(layered_cases())
    def test_read_of_each_kind(self, case):
        mesh, axis, weights = case
        # A constant coefficient is layered along every axis, each level's
        # axis slots holding K's own entries K_{r, r -+ e_a}, bit for bit.
        fam = _CellFamily(mesh, lambda cells: np.broadcast_to(weights[0], cells.shape))
        system = assemble(mesh, fam, A_ONE)
        kind, read = system._read.kind, system._read.layers
        K = matrix(system)
        r = system.interior[0]
        assert kind == "layered" and sorted(read) == [0, 1, 2]
        for sign in (-1, 1):
            entries = np.array([K[r, r + sign * s] for s in mesh._strides])
            for layers in read.values():
                slots = layers.stencils[:, _UPPER if sign > 0 else _LOWER]
                assert np.array_equal(slots, np.broadcast_to(entries, slots.shape))
        # Variation along one axis is layered, along two is not: rows
        # differ along both, or one level's rows are not symmetric along
        # the other.
        assert _layered_system(mesh, axis, weights)[0].solver_kind == "layered"
        other = (axis + 1) % 3
        two = _CellFamily(mesh, lambda cells: weights[cells[:, axis]]
                          * (1.0 + 0.1 * cells[:, other])[:, None])
        assert assemble(mesh, two, A_ONE).solver_kind == "box-cocg"

    def test_off_axis_entry_reads_as_box_cocg(self):
        mesh = READ_BOXES["omega"]
        for a in (A_ONE, affine_field(1.0, (0.0, 0.0, 0.1))):
            assert assemble(mesh, ROTATED, a).solver_kind == "box-cocg"


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _brute_force_read(system):
    """The read that `_read_solver` gives, from the entries K[r, r + s] of
    the system's whole K, row by row: (kind, level stencils (N_a, 15) by
    layer axis, face stencils (1, 15) by (axis, side), box-cocg weights).
    Entry K[r, r + s] goes to the slot of offset s in `_STENCIL_OFFSETS` of
    row r's stencil as 0.0 + K[r, r + s], so a signed zero reads as 0; an
    offset off the box reads as 0."""
    mesh = system.mesh
    K = matrix(system).toarray()
    shape = np.array(mesh.box_shape)
    offsets = [tuple(s) for s in _STENCIL_OFFSETS.tolist()]
    steps = np.eye(3, dtype=int)

    def stencil(v):
        out = np.zeros(15, dtype=K.dtype)
        for slot, s in enumerate(_STENCIL_OFFSETS):
            key = mesh.ijk[v] + s
            if np.all((key >= mesh.lo) & (key <= mesh.hi)):
                out[slot] = 0.0 + K[v, v + s @ mesh._strides]
        return out

    def layered(a, levels):
        # Each level axis-only, and the same at -e_t and +e_t along both
        # tangent axes t.
        off = [slot for slot, s in enumerate(offsets) if np.count_nonzero(s) > 1]
        t = [b for b in range(3) if b != a]
        minus = [offsets.index(tuple(-steps[b])) for b in t]
        plus = [offsets.index(tuple(steps[b])) for b in t]
        return not np.any(levels[:, off]) and np.array_equal(levels[:, minus], levels[:, plus])

    rel = mesh.ijk - mesh.lo
    interior = system.interior
    rows = {tuple(rel[v] - 1): stencil(v) for v in interior}
    layers = {}
    for a in range(3):
        levels = np.array([rows[tuple(steps[a] * level)] for level in range(shape[a])])
        same = all(np.array_equal(row, levels[key[a]]) for key, row in rows.items())
        if same and layered(a, levels):
            layers[a] = levels
    if not layers:
        total = np.zeros(3, dtype=K.dtype)
        for v in interior:
            row = stencil(v)
            for a in range(3):
                terms = row[_STENCIL_OFFSETS[:, a] != 0]
                moment = terms[0]
                for term in terms[1:]:
                    moment = moment + term
                total[a] = total[a] + moment
        return "box-cocg", {}, {}, -0.5 * (total / len(interior)) / mesh.h
    faces = {}
    for a, side in ((a, side) for a in layers for side in (0, 1)):
        t = [b for b in range(3) if b != a]
        on = ((rel[:, a] == side * (shape[a] + 1))
              & np.all((rel[:, t] >= 1) & (rel[:, t] <= shape[t]), axis=1))
        face = [stencil(v) for v in np.flatnonzero(on)]
        if all(np.array_equal(row, face[0]) for row in face) and layered(a, face[0][None]):
            faces[a, side] = face[0][None]
    return "layered", layers, faces, None


@st.composite
def stencil_read_cases(draw):
    """A small box, 2 to 5 cells a side, at a random lattice offset, and
    its system: a constant complex diagonal coefficient, one layered along
    a random axis, one that varies along two axes, or the rotated family
    with a constant or an affine field."""
    cells = np.array([draw(st.integers(2, 5)) for _ in range(3)])
    lo = np.array([draw(st.integers(-3, 3)) for _ in range(3)])
    mesh = Mesh(lo, lo + cells, 0.125, np.zeros(3))
    case = draw(st.sampled_from(["constant", "layered", "two-axes", "rotated"]))
    if case == "rotated":
        return case, assemble(mesh, ROTATED, draw(st.sampled_from([A_ONE, AFFINE])))
    axis = draw(st.integers(0, 2))
    other = (axis + 1 + draw(st.integers(0, 1))) % 3
    parts = st.tuples(st.floats(0.2, 3.0), st.floats(-1.0, 1.0))
    weights = np.array([[complex(*draw(parts)) for _ in range(3)] for _ in range(cells[axis])])
    if case == "constant":
        weights[:] = weights[0]
    scale = 0.1 if case == "two-axes" else 0.0
    fam = _CellFamily(mesh, lambda c: weights[c[:, axis]] * (1.0 + scale * c[:, other])[:, None])
    return case, assemble(mesh, fam, A_ONE)


class TestStencilRead:
    """Each box system reads its solver from its own stencil, once."""

    @settings(max_examples=40, deadline=None)
    @given(stencil_read_cases())
    def test_read_equals_brute_force_read_of_k(self, case):
        name, system = case
        read = system._read
        kind, layers, faces, weights = _brute_force_read(system)
        assert read.kind == kind
        if name == "constant":
            assert kind == "layered" and sorted(layers) == [0, 1, 2]
        elif name == "rotated":
            assert kind == "box-cocg"
        if kind == "layered":
            assert sorted(read.layers) == sorted(layers) and read.weights is None
            for a, levels in layers.items():
                assert read.layers[a].axis == a
                assert _same_bits(np.ascontiguousarray(read.layers[a].stencils), levels)
            assert sorted(read.faces) == sorted(faces)
            for key, face in faces.items():
                assert read.faces[key].axis == key[0]
                assert _same_bits(read.faces[key].stencils, face)
        else:
            assert _same_bits(read.weights, weights)

    def test_derived_slots_hold_their_offsets(self):
        # The centre slot holds the zero offset, the slots of -e_a and +e_a
        # those offsets, and the axis-only slots are just these seven.
        assert not np.any(_STENCIL_OFFSETS[_CENTRE])
        for a, step in enumerate(np.eye(3, dtype=int)):
            assert np.array_equal(_STENCIL_OFFSETS[_LOWER[a]], -step)
            assert np.array_equal(_STENCIL_OFFSETS[_UPPER[a]], step)
        assert sorted(np.flatnonzero(_AXIS_SLOTS)) == sorted(
            [_CENTRE, *_LOWER, *_UPPER])

    @pytest.mark.parametrize("side", [0, 1])
    def test_face_rows_that_differ_outside_sigma_take_the_columns(self, side):
        # A constant diagonal K, layered along every axis, whose z-face rows
        # outside sigma have their diagonal doubled: sigma's own rows still
        # share one stencil, but the face's do not, so sigma is solved by
        # columns; its Schur complement is unchanged by those rows.
        mesh = Mesh((0, 0, 0), (5, 4, 4), 0.125, np.zeros(3))
        weights = np.array([1.0 + 0.2j, 1.5 - 0.3j, 0.8 + 0.1j])
        data = (stiffness_stencil(mesh, np.diag(weights.real))
                + 1j * stiffness_stencil(mesh, np.diag(weights.imag)))
        rel = mesh.ijk - mesh.lo
        face = ((rel[:, 2] == 4 * side) & (rel[:, 0] >= 1) & (rel[:, 0] <= 4)
                & (rel[:, 1] >= 1) & (rel[:, 1] <= 3))
        inside = (rel[:, 0] <= 2) & (rel[:, 1] <= 2)
        sigma = np.flatnonzero(face & inside)
        data.reshape(-1, 15)[face & ~inside, _CENTRE] *= 2.0
        system = BlockSystem.from_stencil(mesh, data)
        assert system.solver_kind == "layered" and sorted(system._read.layers) == [0, 1, 2]
        assert (2, side) not in system._read.faces and (2, 1 - side) in system._read.faces
        S = system.schur_onto(sigma)
        assert system.rhs_columns == len(sigma)
        lu = LuSystem(mesh, matrix(system))
        assert _close(S, lu.schur_onto(sigma), 1e-11)
        # The same sigma on the unchanged system takes the closed form.
        plain = _box_system(mesh, weights)
        assert _close(plain.schur_onto(sigma), S, 1e-11) and plain.rhs_columns == 3

    def test_read_runs_once_at_construction(self, monkeypatch):
        import admitlab.fem

        calls = []
        real = admitlab.fem._read_solver

        def counting(mesh, data):
            calls.append(mesh)
            return real(mesh, data)

        monkeypatch.setattr(admitlab.fem, "_read_solver", counting)
        patch = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
        mesh = build_mesh(BOX, 0.125, patch=patch)
        bump = build_mesh(build_enlarged_domain(BOX, patch, 0.25, grid_h=0.125), 0.125)
        top = np.flatnonzero((mesh.ijk[:, 2] == 8)
                             & np.all((mesh.ijk[:, :2] >= 2) & (mesh.ijk[:, :2] <= 6), axis=1))
        for fam, a, kind in ((ROTATED, AFFINE, "box-cocg"), (LAPLACE, A_ONE, "layered")):
            calls.clear()
            core = assemble(mesh, fam, a)
            via = SubstructuredSystem(core, assemble(bump, fam, a))
            assert calls == [mesh, bump] and core.solver_kind == kind
            via.solve_dirichlet(np.ones(via.mesh.n_vertices))
            core.schur_onto(top)
            core.schur_onto(core.boundary[::9])
            core._preconditioner_schur(top[:5])
            assert core.solve_calls > 0 and calls == [mesh, bump]

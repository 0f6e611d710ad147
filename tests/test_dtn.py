import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admitlab.dtn import (alessandrini_gap, assemble_dtn, boundary_mass_sigma,
                          dtn_star_norm, h_half_gram, monte_carlo_star_norm,
                          operator_norm, sigma_basis)
from admitlab.errors import ConfigError, SolverError
from admitlab.families import (affine_field, constant_field,
                               diagonal_affine_family,
                               rotated_anisotropic_family,
                               scalar_identity_family)
from admitlab.fem import assemble, build_mesh
from admitlab.geometry import FACE_NAMES, BoundaryPatch, BoxDomain
from conftest import LuSystem, assemble_stiffness, matrix

BOX = BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
PATCH = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
WIDE = BoundaryPatch(BOX, "z+", (0.1, 0.1), (0.9, 0.9))
BUILTIN_FAMILIES = {
    "scalar": scalar_identity_family(k=0.05, imag=1.0),
    "diagonal": diagonal_affine_family(k=0.05, slope=(1.0, 1.2, 0.8),
                                       offset=(0.1, 0.0, 0.2), imag=(1.0, 0.7, 1.3)),
    "rotated": rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1),
}


def per_hat_pairing(system, basis):
    """Reference pairing: one Dirichlet solve per hat, fluxes read at the basis."""
    mesh = system.mesh
    solutions = np.empty((mesh.n_vertices, basis.count), dtype=complex)
    for j, v in enumerate(basis.vertices):
        g = np.zeros(mesh.n_vertices, dtype=complex)
        g[v] = 1.0
        solutions[:, j] = system.solve_dirichlet(g)
    fluxes = matrix(system) @ solutions
    return fluxes[list(basis.vertices), :].T


def field_dtn(mesh, fam, a, basis, gram):
    """DtN of the system of field a at the family's frequency."""
    return assemble_dtn(assemble(mesh, fam, a), basis, gram)


def dense_gram(mesh, basis):
    """Reference Gram: a dense numpy Schur complement of the Laplacian onto
    the basis, plus the patch boundary mass."""
    K = assemble_stiffness(mesh, np.eye(3)).toarray()
    interior = np.where(~mesh.boundary_vertex_mask)[0]
    sig = np.asarray(basis.vertices)
    K_is = K[np.ix_(interior, sig)]
    schur = K[np.ix_(sig, sig)] - K_is.T @ np.linalg.solve(
        K[np.ix_(interior, interior)], K_is)
    ref = schur + boundary_mass_sigma(mesh)[np.ix_(sig, sig)].toarray()
    return 0.5 * (ref + ref.T)


@pytest.fixture(scope="module")
def mesh8():
    return build_mesh(BOX, 0.125, patch=PATCH)


@pytest.fixture(scope="module")
def basis8(mesh8):
    return sigma_basis(mesh8, PATCH)


@pytest.fixture(scope="module")
def gram8(mesh8, basis8):
    return h_half_gram(mesh8, basis8)


class TestSigmaBasis:
    def test_supports_inside_patch(self, mesh8, basis8):
        # Every incident boundary triangle of a basis vertex is patch-tagged,
        # so the hat trace vanishes on the rest of the boundary.
        for v in basis8.vertices:
            incident = [
                i for i, tri in enumerate(mesh8.boundary_tris) if v in tri
            ]
            assert incident
            assert all(mesh8.sigma_mask[i] for i in incident)

    def test_expand_restrict_roundtrip(self, basis8):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(basis8.count) + 1j * rng.standard_normal(basis8.count)
        assert np.array_equal(basis8.restrict(basis8.expand(f)), f)

    @pytest.mark.parametrize("face", FACE_NAMES)
    @pytest.mark.parametrize("h", [0.125, 0.0625])
    def test_matches_triangle_loop(self, face, h):
        # The reference: count each vertex's incident patch-tagged and other
        # boundary triangles one triangle at a time.
        patch = BoundaryPatch(BOX, face, (0.2, 0.1), (0.8, 0.7))
        mesh = build_mesh(BOX, h, patch=patch)
        n_sigma = np.zeros(mesh.n_vertices, dtype=int)
        n_other = np.zeros(mesh.n_vertices, dtype=int)
        for tri, on_sigma in zip(mesh.boundary_tris, mesh.sigma_mask):
            if on_sigma:
                n_sigma[tri] += 1
            else:
                n_other[tri] += 1
        expected = tuple(int(v) for v in np.where((n_sigma > 0) & (n_other == 0))[0])
        assert sigma_basis(mesh, patch).vertices == expected

    def test_no_basis_on_tiny_patch(self):
        small = BoundaryPatch(BOX, "z+", (0.4, 0.4), (0.6, 0.6))
        mesh = build_mesh(BOX, 0.25, patch=small)
        with pytest.raises(ConfigError):
            sigma_basis(mesh, small)


class TestGram:
    def test_positive_definite(self, gram8):
        assert np.linalg.eigvalsh(gram8)[0] > 0.0

    def test_symmetric(self, gram8):
        assert np.max(np.abs(gram8 - gram8.T)) == 0.0

    def test_mass_restricted_to_patch(self, mesh8):
        # Tagged triangles tile the largest lattice rectangle inside the
        # patch: [0.25, 0.75]^2 at pitch 1/8.
        mass = boundary_mass_sigma(mesh8)
        assert mass.sum() == pytest.approx(0.25, abs=1e-12)

    def test_norm_stable_under_refinement(self):
        # The trace norm of a fixed smooth patch function moves by less than
        # a factor 1.3 between pitches h and h/2.
        def f(p):
            u = np.maximum(0.0, 1.0 - ((p[:, 0] - 0.5) / 0.2) ** 2) ** 2
            v = np.maximum(0.0, 1.0 - ((p[:, 1] - 0.5) / 0.2) ** 2) ** 2
            return u * v

        norms = []
        for h in (0.125, 0.0625):
            mesh = build_mesh(BOX, h, patch=PATCH)
            basis = sigma_basis(mesh, PATCH)
            gram = h_half_gram(mesh, basis)
            coeffs = f(mesh.verts[list(basis.vertices)])
            norms.append(float(coeffs @ gram @ coeffs))
        assert max(norms) / min(norms) < 1.3


class TestAssembleDtn:
    def test_deterministic(self, mesh8, basis8, gram8):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        a = constant_field(1.0)
        d1 = field_dtn(mesh8, fam, a, basis8, gram8)
        d2 = field_dtn(mesh8, fam, a, basis8, gram8)
        assert np.array_equal(d1.pairing, d2.pairing)

    def test_complex_symmetry(self, mesh8, basis8, gram8):
        fam = rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1)
        d = field_dtn(mesh8, fam, constant_field(1.1), basis8, gram8)
        assert d.max_asymmetry() <= 1e-12

    def test_real_laplacian_case(self, mesh8, basis8, gram8):
        fam = scalar_identity_family(k=0.0, imag=0.0)
        d = field_dtn(mesh8, fam, constant_field(1.0), basis8, gram8)
        assert np.max(np.abs(d.pairing.imag)) <= 1e-12
        sym = 0.5 * (d.pairing.real + d.pairing.real.T)
        # Patch-supported hats exclude constants, so the form is definite.
        assert np.linalg.eigvalsh(sym)[0] > 0.0

    def test_scalar_homogeneity(self, mesh8, basis8, gram8):
        fam = scalar_identity_family(k=0.0, imag=0.0)
        base = field_dtn(mesh8, fam, constant_field(1.0), basis8, gram8)
        scaled = field_dtn(mesh8, fam, constant_field(1.7), basis8, gram8)
        assert np.allclose(scaled.pairing, 1.7 * base.pairing, rtol=1e-11, atol=1e-13)

    def test_lifting_independence(self, mesh8, basis8):
        # The pairing value with the zero-interior lifting agrees with any
        # other lifting of the same trace up to the solver residual.
        from admitlab.fem import assemble

        fam = scalar_identity_family(k=0.05, imag=1.0)
        a = constant_field(1.0)
        system = assemble(mesh8, fam, a)
        d = assemble_dtn(system, basis8, np.eye(basis8.count))
        rng = np.random.default_rng(7)
        f1 = rng.standard_normal(basis8.count) + 1j * rng.standard_normal(basis8.count)
        f2 = rng.standard_normal(basis8.count) + 1j * rng.standard_normal(basis8.count)
        u1 = system.solve_dirichlet(basis8.expand(f1))
        lift = basis8.expand(f2)
        lift[~mesh8.boundary_vertex_mask] = (
            rng.standard_normal(int(np.sum(~mesh8.boundary_vertex_mask)))
        )
        value_pairing = f1 @ d.pairing @ f2
        value_lift = complex(u1 @ (matrix(system) @ lift))
        assert abs(value_pairing - value_lift) <= 1e-9


class TestSchurOracles:
    @pytest.mark.parametrize("h", [0.25, 0.125])
    @pytest.mark.parametrize("name", sorted(BUILTIN_FAMILIES))
    def test_pairing_matches_per_hat_solves(self, name, h):
        fam = BUILTIN_FAMILIES[name]
        a = affine_field(1.1, (0.1, -0.05, 0.2))
        mesh = build_mesh(BOX, h, patch=WIDE)
        basis = sigma_basis(mesh, WIDE)
        system = assemble(mesh, fam, a)
        d = assemble_dtn(system, basis, np.eye(basis.count))
        ref = per_hat_pairing(system, basis)
        assert np.max(np.abs(d.pairing - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("h", [0.25, 0.125])
    def test_gram_matches_dense_schur(self, h):
        mesh = build_mesh(BOX, h, patch=WIDE)
        basis = sigma_basis(mesh, WIDE)
        ref = dense_gram(mesh, basis)
        gram = h_half_gram(mesh, basis)
        assert np.max(np.abs(gram - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    @pytest.mark.parametrize("face", sorted(FACE_NAMES))
    def test_gram_on_every_face(self, face, h, factor_calls):
        patch = BoundaryPatch(BOX, face, (0.1, 0.1), (0.9, 0.9))
        mesh = build_mesh(BOX, h, patch=patch)
        basis = sigma_basis(mesh, patch)
        gram = h_half_gram(mesh, basis)
        assert factor_calls == []
        ref = dense_gram(mesh, basis)
        assert np.max(np.abs(gram - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_gram_on_non_cubic_boxes(self, data):
        h = 0.125
        cells = np.array([data.draw(st.integers(4, 9)) for _ in range(3)])
        lo = np.array([data.draw(st.integers(-4, 4)) * h for _ in range(3)])
        box = BoxDomain(tuple(lo), tuple(lo + cells * h))
        face = data.draw(st.sampled_from(sorted(FACE_NAMES)))
        tangents = [a for a in range(3) if a != FACE_NAMES[face][0]]
        rect_lo, rect_hi = [], []
        for t in tangents:
            # Hats need a whole tagged cell on each side: i1 - i0 >= 4.
            i0 = data.draw(st.integers(0, cells[t] - 4))
            i1 = data.draw(st.integers(i0 + 4, cells[t]))
            rect_lo.append(lo[t] + (i0 + 0.5) * h)
            rect_hi.append(lo[t] + (i1 - 0.5) * h)
        patch = BoundaryPatch(box, face, tuple(rect_lo), tuple(rect_hi))
        mesh = build_mesh(box, h, patch=patch)
        basis = sigma_basis(mesh, patch)
        gram = h_half_gram(mesh, basis)
        ref = dense_gram(mesh, basis)
        assert np.max(np.abs(gram - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_poisoned_box_column_raises(self, mesh8, basis8, monkeypatch):
        import admitlab.fem

        real = admitlab.fem.layered_solve

        def poisoned_layered_solve(mesh, layers):
            solve = real(mesh, layers)

            def poisoned(rhs):
                X = solve(rhs)
                X[:, 1] *= 1.0 + 1e-6
                return X

            return poisoned

        # The Gram's closed form is checked through one layered solve of
        # three combinations of its columns; the poisoned one is named.
        monkeypatch.setattr(admitlab.fem, "layered_solve", poisoned_layered_solve)
        with pytest.raises(SolverError) as err:
            h_half_gram(mesh8, basis8)
        assert err.value.diagnostics["column"] == 1

    def test_failed_column_residual_raises(self, mesh8, basis8, monkeypatch):
        system = LuSystem(mesh8, assemble_stiffness(mesh8, np.eye(3)))
        K_ii = matrix(system)[np.ix_(system.interior, system.interior)].toarray()

        def solve_with_bad_column(rhs):
            X = np.linalg.solve(K_ii, rhs)
            X[:, 3] *= 1.0 + 1e-6
            return X

        monkeypatch.setattr(system, "_solve_interior", solve_with_bad_column)
        with pytest.raises(SolverError) as err:
            system.schur_onto(basis8.vertices)
        assert err.value.diagnostics["column"] == 3


class TestStarNorm:
    def test_zero_difference(self, mesh8, basis8, gram8):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        a = constant_field(1.0)
        d1 = field_dtn(mesh8, fam, a, basis8, gram8)
        d2 = field_dtn(mesh8, fam, a, basis8, gram8)
        assert dtn_star_norm(d1, d2) == 0.0

    def test_spectral_identity(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5))
        G = A @ A.T + 5.0 * np.eye(5)
        c = -0.37
        assert operator_norm(c * G, G) == pytest.approx(abs(c), rel=1e-12)

    def test_norm_axioms_on_random_triples(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        G = A @ A.T + 4.0 * np.eye(4)

        def sym(mat):
            return mat + mat.T

        for _ in range(10):
            P = sym(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            Q = sym(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            c = rng.standard_normal()
            n_p = operator_norm(P, G)
            n_q = operator_norm(Q, G)
            n_pq = operator_norm(P + Q, G)
            assert n_pq <= n_p + n_q + 1e-10
            assert operator_norm(c * P, G) == pytest.approx(abs(c) * n_p, abs=1e-10)

    def test_monte_carlo_matches_svd(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3))
        G = A @ A.T + 3.0 * np.eye(3)
        P = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        P = P + P.T
        exact = operator_norm(P, G)
        mc = monte_carlo_star_norm(P, G, draws=100_000, seed=11)
        assert mc <= exact + 1e-12
        assert mc >= 0.99 * exact

    def test_shrinking_basis_never_increases(self, mesh8, basis8, gram8):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        d1 = field_dtn(mesh8, fam, constant_field(1.0), basis8, gram8)
        d2 = field_dtn(mesh8, fam, constant_field(1.2), basis8, gram8)
        full = operator_norm(d1.pairing - d2.pairing, gram8)
        for keep in (range(0, basis8.count, 2), range(basis8.count // 2)):
            idx = np.asarray(list(keep))
            sub = operator_norm(
                (d1.pairing - d2.pairing)[np.ix_(idx, idx)], gram8[np.ix_(idx, idx)]
            )
            assert sub <= full + 1e-12

    def test_mismatched_bases_rejected(self, mesh8, basis8, gram8):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        d1 = field_dtn(mesh8, fam, constant_field(1.0), basis8, gram8)
        other = field_dtn(mesh8, fam, constant_field(1.0), basis8, 2.0 * gram8)
        with pytest.raises(ConfigError):
            dtn_star_norm(d1, other)


class TestAlessandrini:
    def test_identical_fields_zero(self, mesh8):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        a = constant_field(1.0)
        basis = sigma_basis(mesh8, PATCH)
        f = np.zeros(basis.count)
        f[basis.count // 2] = 1.0
        res = alessandrini_gap(mesh8, fam, a, a, f, f, PATCH)
        assert abs(res) <= 1e-12

    def test_scalar_family(self, mesh8):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        rng = np.random.default_rng(4)
        basis = sigma_basis(mesh8, PATCH)
        f1 = rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)
        f2 = rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)
        res = alessandrini_gap(mesh8, fam, constant_field(1.0),
                               constant_field(1.2), f1, f2, PATCH)
        assert abs(res) <= 1e-9

    def test_rotated_anisotropic_family(self, mesh8):
        fam = rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1)
        rng = np.random.default_rng(5)
        basis = sigma_basis(mesh8, PATCH)
        f1 = rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)
        f2 = rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)
        res = alessandrini_gap(mesh8, fam, constant_field(1.0),
                               constant_field(1.15), f1, f2, PATCH)
        assert abs(res) <= 1e-9

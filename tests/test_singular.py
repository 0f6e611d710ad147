import numpy as np
import pytest

from admitlab.errors import ConfigError, GeometryError, SingularityError
from admitlab.families import constant_field, diagonal_affine_family, scalar_identity_family
from admitlab.fem import build_mesh
from admitlab.geometry import BoundaryPatch, BoxDomain, build_enlarged_domain
from conftest import UnionMesh, lu_system
from admitlab.singular import (build_corrected_probe, h_function,
                               leading_gradient, leading_term, make_probe,
                               pde_residual_leading, probe_from_matrix,
                               sphere_min_h)

Z0 = np.zeros(3)


def anisotropic_matrices():
    rng = np.random.default_rng(42)
    mats = []
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        d = 1.0 + 0.6 * rng.random(3)
        A_R = Q @ np.diag(d) @ Q.T
        A_I = Q @ np.diag(1.0 + 0.3 * rng.random(3)) @ Q.T
        mats.append(0.5 * (A_R + A_R.T) + 0.05j * 0.5 * (A_I + A_I.T))
    return mats


class TestLeadingTerm:
    def test_isotropic_monopole_is_one_over_r(self):
        probe = probe_from_matrix(np.eye(3), Z0, 0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(3)
            r = np.linalg.norm(x)
            assert abs(leading_term(probe, x) - 1.0 / r) <= 1e-13 * (1.0 / r)

    def test_isotropic_dipole(self):
        probe = probe_from_matrix(np.eye(3), Z0, 1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(3)
            r = np.linalg.norm(x)
            assert leading_term(probe, x) == pytest.approx(x[2] / r**3, rel=1e-12)

    def test_scaled_identity(self):
        probe = probe_from_matrix(2.0 * np.eye(3), Z0, 0)
        x = np.array([0.3, -0.2, 0.5])
        r = np.linalg.norm(x)
        assert leading_term(probe, x) == pytest.approx(np.sqrt(2.0) / r, rel=1e-13)

    def test_singularity_error(self):
        probe = probe_from_matrix(np.eye(3), Z0, 0)
        with pytest.raises(SingularityError):
            leading_term(probe, Z0)

    def test_decay_exponent_along_rays(self):
        # Along a fixed direction the argument of the polynomial factor is
        # constant, so the modulus follows an exact power law r^{2-n-m}.
        for A in anisotropic_matrices()[:2]:
            for m in (0, 1, 3):
                probe = probe_from_matrix(A, Z0, m)
                e = np.array([0.3, -0.5, 0.81])
                e /= np.linalg.norm(e)
                radii = np.array([0.5, 1.0, 2.0, 4.0])
                vals = np.abs([leading_term(probe, r * e) for r in radii])
                slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
                assert slope == pytest.approx(2 - 3 - m, abs=1e-6)


class TestLeadingGradient:
    @pytest.mark.parametrize("m", range(5))
    def test_matches_finite_differences(self, m):
        rng = np.random.default_rng(10 + m)
        for A in anisotropic_matrices()[:2]:
            probe = probe_from_matrix(A, Z0, m)
            for _ in range(10):
                x = rng.standard_normal(3)
                x *= (0.5 + rng.random()) / np.linalg.norm(x)
                g = leading_gradient(probe, x)
                step = 1e-6 * np.linalg.norm(x)
                fd = np.array([
                    (leading_term(probe, x + step * e) - leading_term(probe, x - step * e))
                    / (2 * step)
                    for e in np.eye(3)
                ])
                scale = max(np.max(np.abs(g)), 1e-300)
                assert np.max(np.abs(g - fd)) / scale <= 1e-7

    def test_gradient_decay_exponent(self):
        probe = probe_from_matrix(np.eye(3), Z0, 2)
        e = np.array([0.1, 0.7, 0.7])
        e /= np.linalg.norm(e)
        radii = np.array([0.5, 1.0, 2.0])
        mags = [np.linalg.norm(leading_gradient(probe, r * e)) for r in radii]
        slope = np.polyfit(np.log(radii), np.log(mags), 1)[0]
        assert slope == pytest.approx(1 - 3 - 2, abs=1e-6)

    def test_monopole_gradient_magnitude(self):
        probe = probe_from_matrix(np.eye(3), Z0, 0)
        x = np.array([0.2, 0.4, -0.6])
        r = np.linalg.norm(x)
        assert np.linalg.norm(leading_gradient(probe, x)) == pytest.approx(r**-2, rel=1e-12)


class TestHFunction:
    def test_isotropic_monopole_constant_one(self):
        probe = probe_from_matrix(np.eye(3), Z0, 0)
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((50, 3))
        assert np.allclose(h_function(probe, pts), 1.0, atol=1e-12)

    def test_dipole_axis_and_equator(self):
        # Analytic values of |grad(x3 / r^3)|^2 r^8 at the pole and equator.
        probe = probe_from_matrix(np.eye(3), Z0, 1)
        assert h_function(probe, np.array([0.0, 0.0, 1.0])) == pytest.approx(4.0, rel=1e-12)
        assert h_function(probe, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m", range(5))
    def test_homogeneity(self, m):
        A = anisotropic_matrices()[1]
        probe = probe_from_matrix(A, Z0, m)
        rng = np.random.default_rng(20 + m)
        for _ in range(10):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            base = h_function(probe, e)
            for c in (0.5, 2.0, 10.0):
                assert h_function(probe, c * e) == pytest.approx(base, rel=1e-12)


class TestSphereMin:
    def test_isotropic_monopole(self):
        probe = probe_from_matrix(np.eye(3), Z0, 0)
        assert sphere_min_h(probe, 2048) == pytest.approx(1.0, abs=1e-10)

    def test_isotropic_dipole_equatorial_minimum(self):
        # min over the sphere of (1 + 3 z^2) is 1 at the equator.
        probe = probe_from_matrix(np.eye(3), Z0, 1)
        assert sphere_min_h(probe, 8192) == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("m", range(5))
    def test_anisotropic_strictly_positive_and_stable(self, m):
        for A in anisotropic_matrices():
            probe = probe_from_matrix(A, Z0, m)
            v1 = sphere_min_h(probe, 8192)
            v2 = sphere_min_h(probe, 16384)
            assert v1 > 0.0
            assert abs(v1 - v2) <= 0.02 * v1

    def test_sample_floor(self):
        probe = probe_from_matrix(np.eye(3), Z0, 0)
        with pytest.raises(ConfigError):
            sphere_min_h(probe, 100)


class TestPdeResidual:
    def test_isotropic_monopole_second_order(self):
        probe = probe_from_matrix(np.eye(3), Z0, 0)
        x = np.array([0.5, 0.3, 0.4])
        r1 = abs(pde_residual_leading(probe, x, 1e-2))
        r2 = abs(pde_residual_leading(probe, x, 5e-3))
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    def test_anisotropic_complex_second_order(self):
        A = np.diag([1.0, 2.0, 3.0]) + 0.1j * np.eye(3)
        probe = probe_from_matrix(A, Z0, 0)
        x = np.array([0.4, 0.3, 0.6])
        r1 = abs(pde_residual_leading(probe, x, 1e-2))
        r2 = abs(pde_residual_leading(probe, x, 5e-3))
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    def test_order_two_probe(self):
        probe = probe_from_matrix(np.eye(3), Z0, 2)
        x = np.array([0.4, 0.3, 0.6])
        r1 = abs(pde_residual_leading(probe, x, 1e-2))
        r2 = abs(pde_residual_leading(probe, x, 5e-3))
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    def test_step_too_large(self):
        probe = probe_from_matrix(np.eye(3), Z0, 0)
        with pytest.raises(ConfigError):
            pde_residual_leading(probe, np.array([0.05, 0.0, 0.0]), 1e-2)


@pytest.fixture(scope="module")
def setup():
    box = BoxDomain((0, 0, 0), (1, 1, 1))
    patch = BoundaryPatch(box, "z+", (0.2, 0.2), (0.8, 0.8))
    eta = 0.25
    h = 0.0625
    enlarged = build_enlarged_domain(box, patch, eta, grid_h=h)
    mesh = build_mesh(box, h, patch=patch)
    # The oracle's Omega_eta: the union of the Omega and bump boxes.
    mesh_eta = UnionMesh(mesh, build_mesh(enlarged, h))
    fam = scalar_identity_family(k=0.05, imag=1.0)
    a = constant_field(1.0)
    system_eta = lu_system(mesh_eta, fam, a)
    return box, patch, eta, enlarged, mesh, mesh_eta, fam, a, system_eta


class TestCorrectedProbe:

    def test_trace_vanishes_off_patch(self, setup):
        box, patch, eta, enlarged, mesh, mesh_eta, fam, a, system_eta = setup
        z = np.array([0.5, 0.5, 1.0 + eta / 16])
        for m in (0, 2):
            probe = make_probe(fam, a, z, m)
            (corrected,) = build_corrected_probe([probe], enlarged, system_eta)
            trace = corrected.trace_vector(mesh)
            bnd = mesh.boundary_vertex_mask
            lat = patch.lateral(mesh.verts)
            off_patch = bnd & ~(
                (np.abs(mesh.verts[:, 2] - 1.0) < 1e-12)
                & np.all((lat > enlarged.base_lo) & (lat < enlarged.base_hi), axis=1)
            )
            assert np.max(np.abs(trace[off_patch])) == 0.0
            assert np.max(np.abs(trace)) > 0.0

    def test_corrector_bounded_and_dominated(self, setup):
        box, patch, eta, enlarged, mesh, mesh_eta, fam, a, system_eta = setup
        z = np.array([0.5, 0.5, 1.0 + eta / 16])
        probe = make_probe(fam, a, z, 0)
        (corrected,) = build_corrected_probe([probe], enlarged, system_eta)
        omega = corrected.corrector
        assert np.all(np.isfinite(omega))
        near = np.linalg.norm(mesh_eta.verts - z[None, :], axis=1) <= eta / 16
        near &= ~mesh_eta.boundary_vertex_mask
        assert np.any(near)
        u_lead = leading_term(probe, mesh_eta.verts[near])
        ratio = np.abs(omega[near]) / np.abs(u_lead)
        assert np.max(ratio) <= 0.2

    def test_rejects_interior_singularity(self, setup):
        box, patch, eta, enlarged, mesh, mesh_eta, fam, a, system_eta = setup
        probe = make_probe(fam, a, np.array([0.5, 0.5, 0.9]), 0)
        with pytest.raises(GeometryError):
            build_corrected_probe([probe], enlarged, system_eta)

    def test_rejects_singularity_near_enlarged_boundary(self, setup):
        box, patch, eta, enlarged, mesh, mesh_eta, fam, a, system_eta = setup
        probe = make_probe(fam, a, np.array([0.5, 0.5, 1.0 + eta - 1e-3]), 0)
        with pytest.raises(GeometryError):
            build_corrected_probe([probe], enlarged, system_eta)


    def test_batch_matches_single_probes(self, setup):
        box, patch, eta, enlarged, mesh, mesh_eta, fam, a, system_eta = setup
        probes = [make_probe(fam, a, np.array([x, 0.5, 1.0 + tau]), m)
                  for x, tau, m in ((0.5, eta / 16, 0), (0.47, eta / 8, 2),
                                    (0.53, eta / 32, 1))]
        batch = build_corrected_probe(probes, enlarged, system_eta)
        assert [c.probe for c in batch] == probes
        for probe, corrected in zip(probes, batch):
            (single,) = build_corrected_probe([probe], enlarged, system_eta)
            scale = np.max(np.abs(single.corrector))
            assert (np.max(np.abs(corrected.corrector - single.corrector))
                    <= 1e-14 * scale)

    def test_every_probe_is_checked(self, setup):
        box, patch, eta, enlarged, mesh, mesh_eta, fam, a, system_eta = setup
        good = make_probe(fam, a, np.array([0.5, 0.5, 1.0 + eta / 16]), 0)
        bad = make_probe(fam, a, np.array([0.5, 0.5, 0.9]), 0)
        with pytest.raises(GeometryError):
            build_corrected_probe([good, bad], enlarged, system_eta)


class TestProbeValidation:
    def test_real_part_must_be_definite(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 0] = -1.0
        from admitlab.errors import NumericError

        with pytest.raises(NumericError):
            probe_from_matrix(bad, Z0, 0)

    def test_family_probe_freezes_at_anchor(self):
        fam = diagonal_affine_family(k=0.05, slope=(1.0, 2.0, 1.0),
                                     imag=(1.0, 1.0, 1.0))
        a = constant_field(1.5)
        z = np.array([0.5, 0.5, 1.01])
        probe = make_probe(fam, a, z, 0)
        A = np.diag([1.5 + 0.05j, 3.0 + 0.05j, 1.5 + 0.05j])
        assert np.allclose(probe.frozen_mat, A)
        assert np.allclose(probe.frozen_inv, np.linalg.inv(A), atol=1e-14)

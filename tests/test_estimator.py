import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

import admitlab.dtn
import admitlab.estimator
from admitlab.config import load_config
from admitlab.dtn import SigmaBasis
from admitlab.errors import ConfigError, EstimatorRefusal, GeometryError, NumericError
from admitlab.estimator import (TauRecord, boundary_gap_estimate, build_forward,
                                build_frame, check_sign_condition, delta_h,
                                derivative_gap_estimate, f_function,
                                lipschitz_ratio, lipschitz_sweep, loglog_slope,
                                weighted_integral)
from admitlab.families import (affine_field, constant_field,
                               diagonal_affine_family, gaussian_bump_field,
                               rotated_anisotropic_family,
                               scalar_identity_family, shifted_field)
from admitlab.fem import energy_density
from admitlab.geometry import BoundaryPatch, BoxDomain, ProbePath, probe_point
from admitlab.singular import build_corrected_probe, make_probe
from conftest import UnionMesh, lu_system, traced_extra

BOX = BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
X0 = (0.5, 0.5, 1.0)


class TestDeltaH:
    def test_order_zero_is_one(self):
        assert delta_h(0.5, 0) == 1.0

    def test_order_one_half(self):
        # (alpha/alpha) * (alpha/(alpha+1)) at alpha = 1/2.
        assert delta_h(0.5, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_order_two_half(self):
        # Extra factor (1/2)/(5/2) = 1/5 on top of 1/3.
        assert delta_h(0.5, 2) == pytest.approx(1.0 / 15.0, rel=1e-15)

    def test_monotone(self):
        for alpha in (0.2, 0.5, 0.8):
            vals = [delta_h(alpha, h) for h in range(5)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for h in (1, 2, 3):
            vals = [delta_h(alpha, h) for alpha in (0.2, 0.5, 0.8)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            delta_h(1.5, 1)
        with pytest.raises(ConfigError):
            delta_h(0.5, -1)


class TestFFunction:
    def test_identical_fields_vanish(self):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        a = constant_field(1.0)
        z = np.array([0.5, 0.5, 1.01])
        pts = np.array([[0.5, 0.5, 0.95], [0.45, 0.55, 0.9]])
        vals = f_function(fam, a, a, X0, z, pts)
        assert np.max(np.abs(vals)) == 0.0

    def test_real_monotone_case_positive(self):
        fam = scalar_identity_family(k=0.0, imag=0.0)
        a1, a2 = constant_field(1.2), constant_field(1.0)
        z = np.array([0.5, 0.5, 1.01])
        rng = np.random.default_rng(0)
        pts = np.array([0.5, 0.5, 0.9]) + 0.05 * rng.standard_normal((100, 3))
        vals = f_function(fam, a1, a2, X0, z, pts)
        assert np.max(np.abs(vals.imag)) == 0.0
        assert np.min(vals.real) > 0.0

    def test_conjugate_under_frequency_flip(self):
        a1, a2 = constant_field(1.2), constant_field(1.0)
        z = np.array([0.5, 0.5, 1.01])
        rng = np.random.default_rng(1)
        pts = np.array([0.5, 0.5, 0.9]) + 0.05 * rng.standard_normal((50, 3))
        plus = f_function(scalar_identity_family(k=0.05, imag=1.0), a1, a2, X0, z, pts)
        minus = f_function(scalar_identity_family(k=-0.05, imag=1.0), a1, a2, X0, z, pts)
        assert np.allclose(minus, np.conj(plus), rtol=1e-12)

    def test_scalar_family_dominance_in_small_k(self):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        a1, a2 = constant_field(1.1), constant_field(1.0)
        z = np.array([0.5, 0.5, 1.01])
        rng = np.random.default_rng(2)
        pts = np.array([0.5, 0.5, 0.93]) + 0.04 * rng.standard_normal((1000, 3))
        vals = f_function(fam, a1, a2, X0, z, pts)
        assert np.all(np.abs(vals.imag) <= np.abs(vals.real))
        assert np.all(vals.real > 0.0)


class TestSignCondition:
    def test_scalar_family_passes(self):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        rep = check_sign_condition(
            fam, constant_field(1.0), constant_field(1.1), X0,
            np.array([0.5, 0.5, 1.015625]), BOX, rho=0.0625, samples=1000, seed=0,
        )
        assert rep.passed and not rep.degenerate
        assert rep.swapped  # a1 < a2 at the anchor

    def test_degenerate_flagged(self):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        a = constant_field(1.0)
        rep = check_sign_condition(fam, a, a, X0, np.array([0.5, 0.5, 1.01]),
                                   BOX, rho=0.0625)
        assert rep.degenerate and rep.passed

    def test_large_frequency_violation(self):
        # Far above the admissible window the anisotropic complex family
        # breaks the dominance inequality.
        fam = rotated_anisotropic_family(k=2.0, eps=0.3, imag=1.1, imag_eps=0.4)
        rep = check_sign_condition(
            fam, constant_field(1.3), constant_field(1.0), X0,
            np.array([0.5, 0.5, 1.02]), BOX, rho=0.0625, samples=500, seed=0,
        )
        assert not rep.passed
        assert rep.margin_dominance < 0.0


class TestWeightedIntegral:
    Z = np.array([0.5, 0.5, 1.01])
    RHO = 0.0625

    def test_volume_against_cap_formula(self):
        tau = 0.01
        exact = np.pi * (self.RHO - tau) ** 2 * (2 * self.RHO + tau) / 3.0
        val = weighted_integral(BOX, self.Z, self.RHO, 0.0)
        assert val == pytest.approx(exact, rel=1e-10)

    def test_inverse_fourth_power_formula(self):
        # Closed form for the flat cap: pi (rho - tau)^2 / (tau rho^2).
        tau = 0.01
        exact = np.pi * (self.RHO - tau) ** 2 / (tau * self.RHO**2)
        val = weighted_integral(BOX, self.Z, self.RHO, -4.0)
        assert val == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("e", [-4.0, -6.0])
    def test_tau_scaling_law(self, e):
        # Halving tau scales the integral by 2^{-(e+3)} up to cap-shape
        # corrections of order tau/rho.
        tau = 0.002
        v1 = weighted_integral(BOX, np.array([0.5, 0.5, 1.0 + tau]), self.RHO, e)
        v2 = weighted_integral(BOX, np.array([0.5, 0.5, 1.0 + tau / 2]), self.RHO, e)
        assert v2 / v1 == pytest.approx(2.0 ** -(e + 3.0), rel=0.05)

    def test_lower_bound_scaling(self):
        tau = 0.005
        val = weighted_integral(BOX, np.array([0.5, 0.5, 1.0 + tau]), self.RHO, -4.0)
        assert val >= 0.5 * np.pi * tau ** (-1.0)

    def test_empty_when_ball_misses(self):
        assert weighted_integral(BOX, np.array([0.5, 0.5, 1.1]), 0.05, -4.0) == 0.0

    def test_interior_point_rejected(self):
        with pytest.raises(GeometryError):
            weighted_integral(BOX, np.array([0.5, 0.5, 0.5]), 0.05, 0.0)

    def test_lateral_reach_rejected(self):
        with pytest.raises(GeometryError):
            weighted_integral(BOX, np.array([0.02, 0.5, 1.01]), 0.0625, 0.0)

    def test_log_exponent(self):
        val = weighted_integral(BOX, self.Z, self.RHO, -3.0)
        assert np.isfinite(val) and val > 0.0


class TestBoundaryGap:
    def test_constant_gap_recovered(self, frame16, forward_a1):
        fwd2 = build_forward(frame16, constant_field(1.1))
        est = boundary_gap_estimate(forward_a1, fwd2, X0, seed=0)
        assert abs(est.extrapolated - (-0.1)) <= 0.01
        assert est.extrapolated < 0.0
        assert est.sign_report is not None and est.sign_report.passed

    def test_sign_tracks_gap_orientation(self, frame16, forward_a1):
        fwd_small = build_forward(frame16, constant_field(0.9))
        est = boundary_gap_estimate(forward_a1, fwd_small, X0, seed=0)
        assert est.extrapolated > 0.0
        assert abs(est.extrapolated - 0.1) <= 0.01

    def test_identical_fields_zero(self, frame16, forward_a1):
        est = boundary_gap_estimate(forward_a1, forward_a1, X0, seed=0)
        assert abs(est.extrapolated) <= 1e-12
        assert est.sign_report.degenerate

    def test_gap_vanishing_on_patch(self, frame16, forward_a1):
        bump = gaussian_bump_field(1.0, 0.1, (0.5, 0.5, 0.3), 0.15)
        fwd2 = build_forward(frame16, bump)
        est = boundary_gap_estimate(forward_a1, fwd2, X0, seed=0)
        assert abs(est.extrapolated) <= 0.01

    def test_variable_background(self, frame16):
        # Constant gap on top of a non-constant background field.
        base = gaussian_bump_field(1.0, 0.15, (0.5, 0.5, 0.5), 0.25)
        fwd1 = build_forward(frame16, base)
        fwd2 = build_forward(frame16, shifted_field(base, constant_field(1.0), 0.1))
        est = boundary_gap_estimate(fwd1, fwd2, X0, seed=0)
        assert est.extrapolated == pytest.approx(-0.1, abs=0.01)

    def test_off_center_anchor(self, frame16, forward_a1):
        fwd2 = build_forward(frame16, constant_field(1.1))
        est = boundary_gap_estimate(forward_a1, fwd2, (0.46, 0.53, 1.0), seed=0)
        assert est.extrapolated == pytest.approx(-0.1, abs=0.01)

    def test_rho_cap_enforced(self, frame16, forward_a1):
        with pytest.raises(ConfigError):
            boundary_gap_estimate(forward_a1, forward_a1, X0, rho=0.2)

    def test_refusal_on_sign_violation(self):
        fam = rotated_anisotropic_family(k=2.0, eps=0.3, imag=1.1, imag_eps=0.4)
        frame = build_frame(BOX, BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8)),
                            0.25, 0.125, fam)
        fwd1 = build_forward(frame, constant_field(1.3))
        fwd2 = build_forward(frame, constant_field(1.0))
        with pytest.raises(EstimatorRefusal):
            boundary_gap_estimate(fwd1, fwd2, X0, seed=0)

    def test_anchor_must_sit_on_shrunken_patch(self, frame16, forward_a1):
        with pytest.raises(GeometryError):
            boundary_gap_estimate(forward_a1, forward_a1, (0.2, 0.2, 1.0), seed=0)


class TestEstimatorWorkingSet:
    def test_one_tau_at_a_time(self, frame16, forward_a1):
        """On warm forwards, each tau beyond the first adds about one
        boolean mask over the tets to the estimate's traced peak: no
        density array or barycenter array per tau."""
        import admitlab.fem

        fwd2 = build_forward(frame16, constant_field(1.1))
        taus = frame16.tau_default()
        grids = (taus[:1], taus)
        for grid in grids:
            # Memoises each grid's probe passes.
            boundary_gap_estimate(forward_a1, fwd2, X0, tau_grid=grid, seed=0)
        extra = [traced_extra(lambda g=grid: boundary_gap_estimate(
            forward_a1, fwd2, X0, tau_grid=g, seed=0))[1] for grid in grids]
        n_tets = frame16.mesh.n_tets
        bound = (len(taus) - 1) * n_tets + admitlab.fem._BLOCK_BYTES // 8
        assert extra[1] - extra[0] <= bound, (extra, bound)


def _record_bits(records):
    """The bits of every field of each TauRecord."""
    return [tuple(np.asarray(v).tobytes() for v in dataclasses.astuple(r)) for r in records]


class TestChunkInvariance:
    def test_records_do_not_depend_on_the_chunks(self, frame16, forward_a1, monkeypatch):
        """The depth, concentration-ball and energy passes give the bits of
        each TauRecord whether their chunks are one cell or the default."""
        import admitlab.fem

        fwd2 = build_forward(frame16, affine_field(0.9, (0.0, 0.0, 0.1)))
        estimates = (lambda: boundary_gap_estimate(forward_a1, fwd2, X0, m=0, seed=0),
                     lambda: boundary_gap_estimate(forward_a1, fwd2, X0, m=2, seed=0),
                     lambda: derivative_gap_estimate(forward_a1, fwd2, X0, seed=0))
        want = [_record_bits(estimate().records) for estimate in estimates]
        # One cell's float element blocks.
        monkeypatch.setattr(admitlab.fem, "_BLOCK_BYTES", 16 * 8 * 6)
        assert admitlab.fem._chunk_size() == 6
        assert [_record_bits(estimate().records) for estimate in estimates] == want


class TestDerivativeGap:
    def test_affine_gap_recovered(self, frame16, forward_a1):
        # a1 - a2 = 0.1 (1 - z): normal derivative -0.1, boundary value 0.
        fwd2 = build_forward(frame16, affine_field(0.9, (0.0, 0.0, 0.1)))
        est = derivative_gap_estimate(forward_a1, fwd2, X0, seed=0)
        assert est.extrapolated == pytest.approx(-0.1, abs=0.025)
        assert est.order == 2
        assert abs(est.boundary_coupled) <= 1e-3

    def test_constant_gap_zero_derivative(self, frame16, forward_a1):
        fwd2 = build_forward(frame16, constant_field(1.1))
        est = derivative_gap_estimate(forward_a1, fwd2, X0, boundary_tol=1.0, seed=0)
        assert abs(est.extrapolated) <= 1e-6
        assert est.boundary_coupled == pytest.approx(-0.1, abs=1e-3)

    def test_mixed_gap_separates_terms(self, frame16, forward_a1):
        fwd2 = build_forward(frame16, affine_field(1.0 - 0.02 - 0.05, (0.0, 0.0, 0.05)))
        est = derivative_gap_estimate(forward_a1, fwd2, X0, seed=0)
        assert est.extrapolated == pytest.approx(-0.05, abs=0.0125)
        assert est.boundary_coupled == pytest.approx(0.02, abs=5e-3)

    def test_refusal_on_large_boundary_gap(self, frame16, forward_a1):
        fwd2 = build_forward(frame16, constant_field(1.5))
        with pytest.raises(EstimatorRefusal):
            derivative_gap_estimate(forward_a1, fwd2, X0, seed=0)

    def test_anisotropic_family_recovery(self):
        from admitlab.admittivity import best_frequency_window

        window = best_frequency_window(2.2, 1.25, 3)
        fam = rotated_anisotropic_family(k=0.9 * window.k_max, eps=0.3,
                                         axis=(1, 1, 1), angle=0.5, imag=1.1)
        frame = build_frame(BOX, BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8)),
                            0.25, 0.0625, fam)
        fwd1 = build_forward(frame, constant_field(1.0))
        fwd2 = build_forward(frame, affine_field(0.9, (0.0, 0.0, 0.1)))
        est = derivative_gap_estimate(fwd1, fwd2, X0, seed=0)
        assert est.extrapolated == pytest.approx(-0.1, abs=0.01)


def _custom_family(evalR, evalDtR, k=0.05, imag=1.0):
    from admitlab.admittivity import AdmittivityFamily

    eye = np.eye(3)

    def broadcast(x, mat_fn, t):
        x = np.asarray(x, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        if x.ndim == 1 and t_arr.ndim == 0:
            return mat_fn(x, float(t_arr))
        if t_arr.ndim == 0:
            t_arr = np.full(x.shape[0], float(t_arr))
        return np.stack([mat_fn(xi, float(ti)) for xi, ti in zip(x, t_arr)])

    return AdmittivityFamily(
        dim=3, freq=k,
        evalR=lambda x, t: broadcast(x, evalR, t),
        evalI=lambda x, t: broadcast(x, lambda xi, ti: imag * eye, t),
        evalDtR=lambda x, t: broadcast(x, evalDtR, t),
        evalDtI=lambda x, t: broadcast(x, lambda xi, ti: 0.0 * eye, t),
        name="custom",
    )


class TestNonTemplateFamilies:
    def test_nonlinear_t_dependence(self):
        # A_R = t^2 I: the t-derivative moves with t, so the midpoint choice
        # of the frozen monotonicity weight is actually exercised.
        eye = np.eye(3)
        fam = _custom_family(lambda x, t: t**2 * eye, lambda x, t: 2.0 * t * eye)
        frame = build_frame(BOX, BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8)),
                            0.25, 0.0625, fam)
        fwd1 = build_forward(frame, constant_field(1.0))
        fwd2 = build_forward(frame, constant_field(1.1))
        est = boundary_gap_estimate(fwd1, fwd2, X0, seed=0)
        # Quadratic families leave a second-order error in the gap size.
        assert est.extrapolated == pytest.approx(-0.1, abs=0.005)

    def test_spatially_varying_family(self):
        # A_R = t (1 + 0.2 x3) I: spatial variation enters the pairing but is
        # frozen out of the weight at the anchor; extrapolation removes the
        # first-order mismatch.
        eye = np.eye(3)
        fam = _custom_family(
            lambda x, t: t * (1.0 + 0.2 * x[2]) * eye,
            lambda x, t: (1.0 + 0.2 * x[2]) * eye,
        )
        frame = build_frame(BOX, BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8)),
                            0.25, 0.0625, fam)
        fwd1 = build_forward(frame, constant_field(1.0))
        fwd2 = build_forward(frame, constant_field(1.1))
        est = boundary_gap_estimate(fwd1, fwd2, X0, seed=0)
        assert est.extrapolated == pytest.approx(-0.1, abs=0.005)


class TestTangential:
    def test_lateral_slope_recovered(self, frame16, forward_a1):
        # a1 - a2 = -0.1 - 0.05 x1: tangential derivative -0.05 along e1,
        # by centred differences of boundary estimates at neighbouring anchors.
        fwd2 = build_forward(frame16, affine_field(1.1, (0.05, 0.0, 0.0)))
        x0, step = np.array(X0), np.array([0.05, 0.0, 0.0])
        plus, minus = (boundary_gap_estimate(forward_a1, fwd2, x, seed=0).extrapolated
                       for x in (x0 + step, x0 - step))
        assert (plus - minus) / 0.1 == pytest.approx(-0.05, abs=0.0125)


class TestExtrapolate:
    TAUS = 0.2 * 0.5 ** np.arange(5)

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 10.0])
    def test_rounding_noise_gives_no_rate(self, scale):
        # Deviations of alternating sign, a few 1e-13 relative: above an
        # absolute 1e-14 from scale 0.1 up.
        rng = np.random.default_rng(0)
        noise = rng.uniform(0.5, 1.0, 5) * np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        ests = scale * (1.0 + 3e-13 * noise)
        intercept, _, rate = admitlab.estimator._extrapolate(self.TAUS, ests)
        assert rate is None
        assert intercept == pytest.approx(scale, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 10.0])
    @pytest.mark.parametrize("amplitude", [1e-6, 1e-2])
    def test_tau_dependence_gives_rate(self, scale, amplitude):
        ests = scale * (1.0 + amplitude * self.TAUS)
        intercept, slope, rate = admitlab.estimator._extrapolate(self.TAUS, ests)
        assert rate == pytest.approx(1.0, abs=1e-6)
        assert slope == pytest.approx(scale * amplitude, rel=1e-6)
        assert intercept == pytest.approx(scale, rel=1e-12)


class TestLipschitz:
    def test_ratio_bounded_on_sweep(self, frame16, forward_a1):
        delta = constant_field(1.0)
        records = lipschitz_sweep(
            frame16, constant_field(1.0),
            [(f"s={s}", shifted_field(constant_field(1.0), delta, s))
             for s in (0.05, 0.1, 0.2)],
        )
        ratios = [r.ratio for r in records]
        assert max(ratios) / min(ratios) < 3.0
        slope = loglog_slope([r.rhs for r in records], [r.lhs for r in records])
        assert 0.8 <= slope <= 1.2

    @pytest.mark.parametrize("xs, ys", [
        ([0.1], [0.2]), ([0.1, 0.1], [0.2, 0.3]), ([0.1, -0.1, 0.1], [0.2, 0.3, 0.4]),
    ], ids=["one-point", "equal-x", "equal-abs-x"])
    def test_loglog_slope_needs_two_distinct_x(self, xs, ys):
        with pytest.raises(NumericError, match="two distinct x"):
            loglog_slope(xs, ys)

    def test_loglog_slope_of_a_power(self):
        xs = np.array([0.02, 0.04, 0.08])
        assert loglog_slope(xs, 3.0 * xs ** 0.25) == pytest.approx(0.25, rel=1e-12)
        assert loglog_slope([0.02, 0.04], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_identical_fields_flagged(self, frame16, forward_a1):
        rec = lipschitz_ratio(forward_a1, forward_a1)
        assert rec.lhs == 0.0 and rec.rhs == pytest.approx(0.0, abs=1e-14)
        assert rec.ratio is None and not rec.violation


# ---------------------------------------------------------------------------
# Probe passes against the per-probe dense-DtN path
# ---------------------------------------------------------------------------

PATCH = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
ORACLE_FAMILIES = {
    "scalar": scalar_identity_family(k=0.05, imag=1.0),
    "diagonal": diagonal_affine_family(k=0.05, slope=(1.0, 1.2, 0.8),
                                       offset=(0.1, 0.0, 0.2), imag=(1.0, 0.7, 1.3)),
    "rotated": rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1),
}


def reference_records(fwd1, fwd2, x0, tau_grid, m, rho):
    """The per-probe path: one corrector per probe from the oracle's
    Omega_eta system of its field, a sparse LU on the union of the Omega
    and bump boxes, and one single-column solve per probe, the pairing read
    from the dense DtN matrices."""
    frame = fwd1.frame
    union = UnionMesh(frame.mesh, frame.bump)
    oracles = [lu_system(union, frame.family, fwd.a, frame.k) for fwd in (fwd1, fwd2)]
    x0 = np.asarray(x0, dtype=float)
    path = ProbePath(frame.eta_sets, tuple(x0), tuple(tau_grid))
    t_star = 0.5 * (float(fwd1.a.values(x0)) + float(fwd2.a.values(x0)))
    D = frame.family.dt_real(x0, t_star) + 1j * frame.k * frame.family.dt_imag(x0, t_star)
    delta_p = fwd1.dtn.pairing - fwd2.dtn.pairing
    sigma = list(frame.basis.vertices)
    bary = frame.mesh.barycenters()
    depth = frame.patch.depth(bary)
    records = []
    for tau in tau_grid:
        z = probe_point(path, tau)
        traces = []
        for fwd, oracle in zip((fwd1, fwd2), oracles):
            probe = make_probe(frame.family, fwd.a, z, m)
            (corrected,) = build_corrected_probe([probe], frame.enlarged, oracle)
            traces.append(corrected.trace_vector(frame.mesh))
        f1, f2 = traces[0][sigma], traces[1][sigma]
        n1 = float(np.sqrt(np.real(np.conj(f1) @ frame.gram @ f1)))
        n2 = float(np.sqrt(np.real(np.conj(f2) @ frame.gram @ f2)))
        pairing = complex((f1 / n1) @ delta_p @ (f2 / n2)) * n1 * n2
        u1 = fwd1.system.solve_dirichlet(traces[0])
        u2 = fwd2.system.solve_dirichlet(traces[1])
        dens = energy_density(frame.mesh, D, u1, u2).real
        ball = np.linalg.norm(bary - z[None, :], axis=1) < rho
        n_full = float(np.sum(dens))
        records.append(TauRecord(
            tau=float(tau), estimate=pairing.real / n_full, pairing=pairing,
            n_full=n_full, n_ball=float(np.sum(dens[ball])),
            m_full=float(np.sum(depth * dens)),
            m_ball=float(np.sum((depth * dens)[ball])),
            trace_norm_1=n1, trace_norm_2=n2,
        ))
    return records


def assert_records_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in (f.name for f in dataclasses.fields(TauRecord)):
            a, b = getattr(g, name), getattr(w, name)
            assert abs(a - b) <= max(1e-10 * abs(b), 1e-12), (name, a, b)


@pytest.fixture(scope="module", params=[(name, h) for name in ORACLE_FAMILIES
                                        for h in (0.125, 0.0625)],
                ids=lambda p: f"{p[0]}-h{p[1]}")
def oracle_forwards(request):
    name, h = request.param
    frame = build_frame(BOX, PATCH, 0.25, h, ORACLE_FAMILIES[name])
    return (build_forward(frame, constant_field(1.0)),
            build_forward(frame, affine_field(1.1, (0.05, 0.0, -0.05))))


class TestProbePassOracle:
    @pytest.mark.parametrize("x0", [X0, (0.46, 0.53, 1.0)], ids=["centre", "off-centre"])
    @pytest.mark.parametrize("m", [0, 2])
    def test_records_match_per_probe_path(self, oracle_forwards, x0, m):
        fwd1, fwd2 = oracle_forwards
        frame = fwd1.frame
        taus = frame.tau_default()
        rho = frame.eta / 4.0
        est = boundary_gap_estimate(fwd1, fwd2, x0, tau_grid=taus, m=m,
                                    check_sign=False)
        assert_records_close(est.records,
                             reference_records(fwd1, fwd2, x0, taus, m, rho))

    def test_pass_columns_are_the_traces_and_solves(self, oracle_forwards):
        fwd1, _ = oracle_forwards
        frame = fwd1.frame
        taus = frame.tau_default()
        F, KU, U = fwd1.probe_pass(X0, taus, 0)
        sigma = list(frame.basis.vertices)
        assert F.shape == KU.shape == (len(sigma), len(taus))
        assert U.shape == (frame.mesh.n_vertices, len(taus))
        assert np.array_equal(U[sigma], F)
        # (K u)|sigma is the Schur complement applied to the trace.
        schur = fwd1.dtn.pairing.T
        assert np.max(np.abs(KU - schur @ F)) <= 1e-10 * np.max(np.abs(KU))

    def test_trace_off_basis_raises(self, oracle_forwards):
        fwd1, _ = oracle_forwards
        frame = fwd1.frame
        thinned = dataclasses.replace(
            frame, basis=SigmaBasis(frame.mesh, frame.basis.vertices[::2]))
        fwd = build_forward(thinned, constant_field(1.0))
        with pytest.raises(NumericError):
            fwd.probe_pass(X0, frame.tau_default(), 0)


class TestProbePassReuse:
    def test_repeated_estimates_reuse_passes(self, frame16, probe_calls):
        fwd1 = build_forward(frame16, constant_field(1.0))
        fwd2 = build_forward(frame16, constant_field(1.1))
        first = boundary_gap_estimate(fwd1, fwd2, X0, seed=0)
        assert probe_calls == [5, 5]
        again = boundary_gap_estimate(fwd1, fwd2, X0, seed=0)
        assert len(probe_calls) == 2
        assert again.records == first.records
        fwd3 = build_forward(frame16, constant_field(0.9))
        boundary_gap_estimate(fwd1, fwd3, X0, seed=0)
        assert len(probe_calls) == 3
        # The order-0 passes are shared with the derivative's boundary step.
        derivative_gap_estimate(fwd1, fwd2, X0, boundary_tol=1.0, seed=0)
        assert len(probe_calls) == 5

    def test_new_key_gets_fresh_pass(self, frame16, probe_calls):
        fwd = build_forward(frame16, constant_field(1.0))
        taus = frame16.tau_default()
        base = fwd.probe_pass(X0, taus, 0)
        assert fwd.probe_pass(list(X0), list(taus), 0) is base
        assert not any(arr.flags.writeable for arr in base)
        assert len(probe_calls) == 1
        for key in (((0.46, 0.53, 1.0), taus, 0), (X0, taus[:3], 0), (X0, taus, 1)):
            assert fwd.probe_pass(*key) is not base
        assert len(probe_calls) == 4


# The derivative sweep needs a gap that vanishes on the patch: a1 - a2 is
# -s (z - 1), zero on the z+ face with normal derivative -s.
SWEEP_MODES = {
    "lipschitz": (constant_field(1.0), None),
    "derivative": (affine_field(-1.0, (0.0, 0.0, 1.0)), {"x0": X0, "seed": 0}),
}


def _sweep_fields(a1, mode):
    delta, _ = SWEEP_MODES[mode]
    return [(f"s={s}", shifted_field(a1, delta, s)) for s in (0.05, 0.1)]


class TestReferenceDtnOrder:
    @pytest.mark.parametrize("mode", sorted(SWEEP_MODES))
    def test_lipschitz_sweep_factors_reference_first(self, frame16, assembly_log, mode):
        a1 = constant_field(1.0)
        lipschitz_sweep(frame16, a1, _sweep_fields(a1, mode),
                        derivative=SWEEP_MODES[mode][1])
        log = assembly_log
        # The reference Omega system and its DtN, then the perturbed fields;
        # a derivative sweep builds the reference Omega_eta system once, at
        # its first probe pass, and each point its own.
        assert log[:2] == [("assemble", a1), ("dtn", a1)]
        assert log[2][1] is not a1
        assert [e for e in log[2:] if e[1] is a1] == (
            [] if mode == "lipschitz" else [("assemble", a1)])
        assert sum(kind == "dtn" for kind, _ in log) == 3
        assert sum(kind == "assemble" for kind, _ in log) == (
            3 if mode == "lipschitz" else 6)


class TestSweepDriver:
    def test_derivative_mode_matches_per_point_estimates(self, frame16):
        a1 = constant_field(1.0)
        fields = _sweep_fields(a1, "derivative")
        kwargs = SWEEP_MODES["derivative"][1]
        records = lipschitz_sweep(frame16, a1, fields, derivative=kwargs)
        fwd1 = build_forward(frame16, a1)
        expected = []
        for label, a2 in fields:
            fwd2 = build_forward(frame16, a2)
            # The ratio first, as the sweep takes it: a box-cocg Omega system
            # then holds its DtN's Schur complement, which preconditions its
            # Omega_eta interface exactly, and the last bits of the interface
            # solve follow the preconditioner.
            ratio = lipschitz_ratio(fwd1, fwd2, label=label)
            est = derivative_gap_estimate(fwd1, fwd2, **kwargs)
            expected.append(dataclasses.replace(ratio, derivative_estimate=est.extrapolated))
        assert records == expected
        assert [r.derivative_estimate for r in records] == pytest.approx(
            [-0.05, -0.1], abs=0.025)

    @pytest.mark.parametrize("mode", sorted(SWEEP_MODES))
    def test_point_forward_freed_before_next_assembly(self, frame16, monkeypatch,
                                                      mode):
        # Per Forward, in build order: its field and weak references to it
        # and to each system built for that field.  Index 0 is the
        # reference.
        points = []
        stale = []
        real_build = admitlab.estimator.build_forward
        real_assemble = admitlab.estimator.assemble
        real_substructured = admitlab.estimator.SubstructuredSystem

        def build_forward_checked(frame, a):
            # Every earlier perturbed point, its Forward and each system it
            # built, must be dead before the next Forward is built.
            stale.extend(i for i, (_, refs) in enumerate(points)
                         if i and any(ref() is not None for ref in refs))
            points.append((a, []))
            fwd = real_build(frame, a)
            points[-1][1].append(weakref.ref(fwd))
            return fwd

        def logged(system, a):
            owner = next(refs for field_, refs in points if field_ is a)
            owner.append(weakref.ref(system))
            return system

        def assemble_logged(mesh, family, a, k):
            return logged(real_assemble(mesh, family, a, k), a)

        def substructured_logged(core, bump, *args):
            return logged(real_substructured(core, bump, *args), core.field[1])

        monkeypatch.setattr(admitlab.estimator, "build_forward", build_forward_checked)
        monkeypatch.setattr(admitlab.estimator, "assemble", assemble_logged)
        monkeypatch.setattr(admitlab.estimator, "SubstructuredSystem", substructured_logged)
        a1 = constant_field(1.0)
        # Reference counting alone must free each point: no collector pass.
        gc.disable()
        try:
            lipschitz_sweep(frame16, a1, _sweep_fields(a1, mode),
                            derivative=SWEEP_MODES[mode][1])
            alive = [i for i, (_, refs) in enumerate(points)
                     if any(ref() is not None for ref in refs)]
        finally:
            gc.enable()
        # The Forward and its Omega system, and in derivative mode its bump
        # system and its Omega_eta system.
        assert [len(refs) for _, refs in points] == [2 if mode == "lipschitz" else 4] * 3
        assert stale == []
        assert alive == []


def test_estimators_build_no_omega_eta_pattern(monkeypatch):
    # Each Omega_eta system is substructured through its Omega and bump
    # systems, so the frame's two boxes are the only meshes assembled.
    meshes = []
    for module, name in ((admitlab.estimator, "assemble"), (admitlab.dtn, "assemble"),
                         (admitlab.dtn, "stiffness_stencil")):
        def logged(mesh, *args, _real=getattr(module, name)):
            meshes.append(mesh)
            return _real(mesh, *args)

        monkeypatch.setattr(module, name, logged)
    frame = build_frame(BOX, BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8)), 0.25, 0.125,
                        scalar_identity_family(k=0.05, imag=1.0))
    fwd1 = build_forward(frame, constant_field(1.0))
    fwd2 = build_forward(frame, affine_field(0.9, (0.0, 0.0, 0.1)))
    boundary_gap_estimate(fwd1, fwd2, X0, seed=0)
    derivative_gap_estimate(fwd1, fwd2, X0, seed=0)
    assert all("system_eta" in vars(fwd) for fwd in (fwd1, fwd2))
    assert {id(mesh) for mesh in meshes} == {id(frame.mesh), id(frame.bump)}


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


@pytest.mark.parametrize("h", [0.0625, 0.05])
@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_no_shipped_config_factors_an_omega_system(path, h, factor_calls):
    # No shipped config makes a sparse LU.  Every Omega system and every
    # bump system is on a full box: it takes the layered solve or COCG,
    # and each Omega_eta system is substructured through the two,
    # inverting only its dense footprint interface.
    cfg = load_config(path, mesh_h=h)
    frame = build_frame(cfg.box, cfg.patch, cfg.eta, cfg.h, cfg.family, window=cfg.window)
    for a in (cfg.a1, cfg.a2):
        fwd = build_forward(frame, a)
        for system in (fwd.system, fwd.system_eta):
            system.solve_dirichlet(np.ones(system.mesh.n_vertices))
        for system in (fwd.system, fwd.system_eta.bump):
            assert system.solver_kind in ("layered", "box-cocg")
            assert system.factored_dofs == 0
        assert fwd.system_eta.factored_dofs == (round(0.5 / h) - 1) ** 2
        assert fwd.system_eta.worst_residual <= 1e-10
    assert factor_calls == []

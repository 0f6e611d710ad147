import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admitlab.admittivity import (AprioriData, WindowResult,
                                  best_frequency_window, check_parameter_field,
                                  default_samples, eval_admittivity,
                                  frequency_window, inverse_parts,
                                  validate_class_H)
from admitlab.errors import ConfigError, NumericError
from admitlab.families import (affine_field, build_family, constant_field,
                               diagonal_affine_family, gaussian_bump_field,
                               rotated_anisotropic_family,
                               scalar_identity_family)


def make_apriori(**over):
    base = dict(n=3, p=6.0, k=0.05, lam=2.0, e1=2.0, e2=1.0, bigE=60.0,
                dcal=1.5, fcal=10.0, alpha=0.25, r0=0.5, L=1.0,
                eta=0.25, eta0=0.3, tau0=0.03125, diam=np.sqrt(3.0))
    base.update(over)
    return AprioriData(**base)


X = np.array([0.3, 0.4, 0.5])


class TestEvalAdmittivity:
    def test_scalar_identity(self):
        fam = scalar_identity_family(k=0.0, imag=0.0)
        assert np.allclose(eval_admittivity(fam, X, 2.0), 2.0 * np.eye(3))

    def test_real_plus_imaginary(self):
        fam = scalar_identity_family(k=0.1, imag=1.0)
        out = eval_admittivity(fam, X, 1.0)
        assert np.allclose(out, np.eye(3) + 0.1j * np.eye(3))

    def test_diagonal(self):
        fam = diagonal_affine_family(k=0.05, slope=(1.0, 2.0, 1.0), imag=(1.0, 1.0, 1.0))
        out = eval_admittivity(fam, X, 1.5)
        assert np.allclose(out, np.diag([1.5 + 0.05j, 3.0 + 0.05j, 1.5 + 0.05j]))

    def test_range_error(self):
        fam = scalar_identity_family(k=0.0, imag=0.0, t_range=(0.5, 2.0))
        with pytest.raises(ConfigError):
            eval_admittivity(fam, X, 3.0)

    def test_asymmetric_output_rejected(self):
        from admitlab.admittivity import AdmittivityFamily

        bad = np.eye(3)
        bad = bad.copy()
        bad[0, 1] = 1.0
        fam = AdmittivityFamily(
            dim=3, freq=0.0,
            evalR=lambda x, t: bad, evalI=lambda x, t: np.zeros((3, 3)),
            evalDtR=lambda x, t: np.eye(3), evalDtI=lambda x, t: np.zeros((3, 3)),
        )
        with pytest.raises(NumericError):
            eval_admittivity(fam, X, 1.0)


class TestInverseParts:
    def test_scalar_identity_algebra(self):
        k = 0.3
        M = np.eye(3) + 1j * k * np.eye(3)
        re, im = inverse_parts(M, k)
        assert np.allclose(re, np.eye(3) / (1 + k**2), atol=1e-14)
        assert np.allclose(im, -k * np.eye(3) / (1 + k**2), atol=1e-14)

    def test_real_matrix(self):
        re, im = inverse_parts(2.0 * np.eye(3), 0.0)
        assert np.allclose(re, 0.5 * np.eye(3), atol=1e-15)
        assert np.allclose(im, np.zeros((3, 3)), atol=1e-15)

    def test_product_identity_diagonal(self):
        M = np.diag([1.0, 2.0, 3.0]) + 0.1j * np.eye(3)
        re, im = inverse_parts(M, 0.1)
        assert np.max(np.abs((re + 1j * im) @ M - np.eye(3))) <= 1e-12
        # Entrywise oracle: invert each diagonal entry directly.
        direct = np.diag(1.0 / np.diag(M))
        assert np.allclose(re + 1j * im, direct, atol=1e-13)

    def test_two_sided_identity_random_commuting(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A_R = Q @ np.diag([1.0, 2.0, 0.5]) @ Q.T
        A_I = Q @ np.diag([0.3, 1.0, 2.0]) @ Q.T
        k = 0.7
        M = A_R + 1j * k * A_I
        re, im = inverse_parts(M, k)
        assert np.max(np.abs((re + 1j * im) @ M - np.eye(3))) <= 1e-12
        assert np.max(np.abs(M @ (re + 1j * im) - np.eye(3))) <= 1e-12

    def test_singular_error(self):
        with pytest.raises(NumericError):
            inverse_parts(np.zeros((3, 3), dtype=complex), 0.0)

    def test_real_part_lower_bound_under_family_bounds(self):
        # With eigenvalues of A_R in [1/e1, e1] and of A_I in [1/e2, e2], the
        # real inverse part dominates (e1 (e1^2 + k^2 e2^2))^{-1}.
        e1, e2, k = 2.0, 1.25, 0.3
        rng = np.random.default_rng(8)
        bound = 1.0 / (e1 * (e1**2 + k**2 * e2**2))
        for _ in range(10):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            dR = 1.0 / e1 + (e1 - 1.0 / e1) * rng.random(3)
            dI = 1.0 / e2 + (e2 - 1.0 / e2) * rng.random(3)
            A_R = Q @ np.diag(dR) @ Q.T
            A_I = Q @ np.diag(dI) @ Q.T
            re, _ = inverse_parts(A_R + 1j * k * A_I, k)
            assert np.linalg.eigvalsh(0.5 * (re + re.T))[0] >= bound - 1e-12

    def test_imag_part_sign_by_branch(self):
        # Positive-definite imaginary part yields a negative-definite inverse
        # part and vice versa.
        k = 0.4
        M_pos = 2.0 * np.eye(3) + 1j * k * np.eye(3)
        _, im_pos = inverse_parts(M_pos, k)
        assert np.all(np.linalg.eigvalsh(im_pos) < 0.0)
        M_neg = 2.0 * np.eye(3) + 1j * k * (-np.eye(3))
        _, im_neg = inverse_parts(M_neg, k)
        assert np.all(np.linalg.eigvalsh(im_neg) > 0.0)


class TestFrequencyWindow:
    def test_equal_constants_unit(self):
        # High-precision oracle for tan(pi/18).
        import mpmath

        mpmath.mp.dps = 30
        expected = float(mpmath.tan(mpmath.pi / 18))
        win = frequency_window(1.0, 1.0, 3)
        assert not win.empty
        assert win.k_max == pytest.approx(expected, abs=1e-10)
        assert win.k_max == pytest.approx(0.17632698070846498, abs=1e-12)

    def test_equal_constants_limit_convention(self):
        # M == m: the first ratio degenerates to tan(A pi / 4); continuity
        # against a slightly-perturbed pair.
        win_eq = frequency_window(1.5, 1.5, 3)
        win_near = frequency_window(1.5 + 1e-9, 1.5, 3)
        assert win_eq.k_max == pytest.approx(win_near.k_max, rel=1e-6)

    def test_unit_minimum_empty(self):
        win = frequency_window(2.0, 1.0, 3)
        assert win.k_max == 0.0 and win.empty

    def test_monotone_in_max(self):
        vals = [frequency_window(e1, 1.25, 3).k_max for e1 in (1.3, 1.6, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_partition_validation(self):
        with pytest.raises(ConfigError):
            frequency_window(1.0, 1.0, 3, (0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            frequency_window(1.0, 1.0, 3, (1.0, -0.5, 0.5))

    def test_sweep_improves_on_equal_partition(self):
        fixed = frequency_window(2.2, 1.25, 3)
        best = best_frequency_window(2.2, 1.25, 3)
        assert best.k_max >= fixed.k_max


def _frequency_window_loop(e1, e2, n, partition):
    """The per-partition bound as first written, kept as the oracle."""
    pa, pb, pc = partition
    if min(pa, pb, pc) <= 0.0 or abs(pa + pb + pc - 1.0) > 1e-9:
        raise ConfigError("partition")
    if e1 <= 0.0 or e2 <= 0.0:
        raise ConfigError("ellipticity constants must be positive")
    M = max(e1, e2)
    m = min(e1, e2)
    if abs(M - m) <= 1e-14:
        first = np.tan(pa * np.pi / 4.0)
    elif abs(m - 1.0) <= 1e-14 or abs(M - 1.0) <= 1e-14:
        return WindowResult(0.0, True, tuple(partition))
    else:
        first = (m**3 - m**-3) * np.tan(pa * np.pi / 4.0) / (M**3 - M**-3)
    second = M**-6 * np.tan(pb * np.pi / (2.0 * n))
    third = M**-6 * np.tan(pc * np.pi / (2.0 * n))
    k_max = float(min(first, second, third))
    return WindowResult(k_max, k_max <= 0.0, tuple(float(p) for p in partition))


def _best_window_loop(e1, e2, n, step=0.01):
    """Partition grid search one candidate at a time, kept as the oracle."""
    best = WindowResult(0.0, True, (1 / 3, 1 / 3, 1 / 3))
    grid = np.arange(step, 1.0, step)
    for pa in grid:
        for pb in grid:
            pc = 1.0 - pa - pb
            if pc < step / 2:
                continue
            cand = _frequency_window_loop(e1, e2, n, (pa, pb, pc))
            if cand.k_max > best.k_max:
                best = cand
    return best


CONSTANT = st.floats(1.0, 5.0)


class TestBestFrequencyWindowOracle:
    @settings(max_examples=40, deadline=None)
    @given(e1=CONSTANT, e2=CONSTANT, n=st.integers(2, 4))
    @example(e1=2.2, e2=1.25, n=3)
    def test_matches_loop(self, e1, e2, n):
        assert best_frequency_window(e1, e2, n) == _best_window_loop(e1, e2, n)

    @settings(max_examples=15, deadline=None)
    @given(e=CONSTANT, n=st.integers(2, 4))
    @example(e=1.0, n=3)
    def test_equal_constants(self, e, n):
        assert best_frequency_window(e, e, n) == _best_window_loop(e, e, n)
        near = e + 1e-15
        assert best_frequency_window(near, e, n) == _best_window_loop(near, e, n)

    @settings(max_examples=15, deadline=None)
    @given(big=st.floats(1.01, 5.0), n=st.integers(2, 4))
    def test_unit_minimum_is_empty(self, big, n):
        win = best_frequency_window(big, 1.0, n)
        assert win == _best_window_loop(big, 1.0, n)
        assert win.empty and win.k_max == 0.0

    @pytest.mark.parametrize("e1, e2", [(0.0, 1.0), (-1.0, 2.0), (2.0, -0.5), (0.0, 0.0),
                                        (0.5, 2.0), (1 - 1e-13, 1.5)])
    def test_non_positive_constants_raise(self, e1, e2):
        # Constants below 1, as lambda below 1, bound an empty class.
        with pytest.raises(ConfigError, match="must be >= 1"):
            best_frequency_window(e1, e2, 3)
        with pytest.raises(ConfigError, match="must be >= 1"):
            frequency_window(e1, e2, 3)


class TestValidateClassH:
    def samples(self, t_range=(0.5, 2.0)):
        return default_samples((0, 0, 0), (1, 1, 1), t_range, count=40, seed=0)

    def test_scalar_family_passes(self):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        rep = validate_class_H(fam, make_apriori(dcal=1.0), self.samples())
        assert rep.passed, rep.summary_lines()
        assert rep.branch == "positive-definite"

    def test_upper_bound_violation_detected(self):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        rep = validate_class_H(fam, make_apriori(e1=1.0), self.samples())
        assert not rep.passed
        assert not rep.condition("real-part-upper").passed
        # Worst violation is at t = lambda = 2: margin = 1 - 2 = -1.
        assert rep.condition("real-part-upper").margin == pytest.approx(-1.0, abs=1e-9)

    def test_negative_definite_branch(self):
        fam = scalar_identity_family(k=0.05, imag=-1.0)
        rep = validate_class_H(fam, make_apriori(), self.samples())
        assert rep.passed
        assert rep.branch == "negative-definite"

    def test_complex_monotone_family(self):
        # A = t I + i k t I: the t-derivative has unit real part, so the
        # monotonicity margin is exactly zero at dcal = 1.
        fam = scalar_identity_family(k=0.05, imag=0.0, imag_slope=1.0)
        rep = validate_class_H(fam, make_apriori(dcal=1.0, e2=2.0), self.samples())
        assert rep.condition("monotonicity").passed
        assert rep.condition("monotonicity").margin == pytest.approx(0.0, abs=1e-12)

    def test_rotated_family_passes(self):
        fam = rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1)
        ap = make_apriori(lam=1.5, e1=2.2, e2=1.25, k=0.002)
        rep = validate_class_H(fam, ap, self.samples((1 / 1.5, 1.5)))
        assert rep.passed, rep.summary_lines()

    def test_real_part_definiteness_of_validated_family(self):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        ap = make_apriori()
        for x, t, _ in self.samples():
            A = eval_admittivity(fam, x, t)
            assert np.linalg.eigvalsh(A.real)[0] >= 1.0 / ap.e1 - 1e-10

    def test_empty_samples_rejected(self):
        fam = scalar_identity_family(k=0.05, imag=1.0)
        with pytest.raises(ConfigError):
            validate_class_H(fam, make_apriori(), [])


class TestParameterFields:
    def test_range_check(self):
        ap = make_apriori()
        pts = np.random.default_rng(0).random((64, 3))
        ok = check_parameter_field(constant_field(1.0), ap, pts)
        assert ok.passed
        bad = check_parameter_field(constant_field(2.5), ap, pts)
        assert not bad.passed

    def test_affine_and_bump_gradients(self):
        f = affine_field(1.0, (0.1, -0.2, 0.3))
        pts = np.random.default_rng(1).random((16, 3))
        assert np.allclose(f.values(pts), 1.0 + pts @ np.array([0.1, -0.2, 0.3]))
        g = gaussian_bump_field(1.0, 0.2, (0.5, 0.5, 0.5), 0.2)
        x = np.array([0.55, 0.45, 0.6])
        step = 1e-7
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = step
            fd = (g.values(x + e) - g.values(x - e)) / (2 * step)
            assert g.grad(x)[axis] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_build_family_unknown_template():
    with pytest.raises(ConfigError):
        build_family("no-such-template", 0.0)


def test_apriori_validation():
    with pytest.raises(ConfigError):
        make_apriori(p=2.0)
    with pytest.raises(ConfigError):
        make_apriori(alpha=0.9)
    with pytest.raises(ConfigError):
        make_apriori(lam=0.5)
    for name in ("e1", "e2"):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1"):
            make_apriori(**{name: 1 - 1e-13})

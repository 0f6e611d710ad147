"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run at laboratory scale with the tolerances stated below; every
tolerance is asserted, and the per-criterion wall-clock budget as well.
"""

import math
import time

import numpy as np
import pytest

from admitlab.admittivity import (AprioriData, best_frequency_window,
                                  default_samples, frequency_window,
                                  validate_class_H)
from admitlab.dtn import (alessandrini_gap, assemble_dtn, h_half_gram,
                          monte_carlo_star_norm, operator_norm, sigma_basis)
from admitlab.estimator import (boundary_gap_estimate, build_forward,
                                build_frame, check_sign_condition, delta_h,
                                derivative_gap_estimate, lipschitz_ratio,
                                loglog_slope)
from admitlab.families import (affine_field, constant_field,
                               diagonal_affine_family, gaussian_bump_field,
                               rotated_anisotropic_family,
                               scalar_identity_family, shifted_field)
from admitlab.fem import assemble, build_mesh
from admitlab.gegenbauer import (GegenbauerSpec, endpoint_nonvanishing,
                                 gegenbauer, gegenbauer_derivative,
                                 ode_residual)
from admitlab.geometry import BoundaryPatch, BoxDomain
from admitlab.singular import (leading_term, make_probe, pde_residual_leading,
                               probe_from_matrix, h_function, sphere_min_h)
from conftest import assemble_stiffness, block_matrix

BOX = BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
PATCH = BoundaryPatch(BOX, "z+", (0.2, 0.2), (0.8, 0.8))
X0 = (0.5, 0.5, 1.0)


def report(criterion, budget, started, detail):
    elapsed = time.perf_counter() - started
    print(f"[criterion {criterion}] PASS in {elapsed:.2f}s (budget {budget:.0f}s): {detail}")
    assert elapsed < budget


def make_apriori(e1, e2, k, lam=2.0, dcal=1.5):
    return AprioriData(n=3, p=6.0, k=k, lam=lam, e1=e1, e2=e2, bigE=60.0,
                       dcal=dcal, fcal=10.0, alpha=0.25, r0=0.5, L=1.0,
                       eta=0.25, eta0=0.3 - 1e-12, tau0=0.03125,
                       diam=math.sqrt(3.0))


# Five anisotropic families with a-priori constants under which they validate:
# (template, params, e1, e2, lambda, dcal).
ANISOTROPIC_SUITE = [
    ("diagonal-affine",
     {"slope": (1.0, 1.2, 0.9), "imag": (1.0, 1.1, 0.9)}, 2.4, 1.25, 2.0, 1.5),
    ("rotated-anisotropic",
     {"eps": 0.3, "axis": (1, 1, 1), "angle": 0.5, "imag": 1.1},
     2.2, 1.25, 1.5, 1.5),
    ("rotated-anisotropic",
     {"eps": 0.2, "axis": (1, 0, 1), "angle": 1.0, "imag": 0.9,
      "imag_eps": 0.1}, 1.9, 1.25, 1.5, 1.5),
    ("rotated-anisotropic",
     {"eps": 0.4, "axis": (0, 1, 1), "angle": -0.7, "imag": 1.05},
     2.1, 1.25, 1.2, 1.8),
    ("rotated-anisotropic",
     {"eps": 0.25, "axis": (2, 1, 0), "angle": 0.9, "imag": 1.15,
      "imag_eps": -0.15}, 2.0, 1.4, 1.5, 1.5),
]


def rebuild_with_k(name, k, **params):
    builders = {
        "diagonal-affine": diagonal_affine_family,
        "rotated-anisotropic": rotated_anisotropic_family,
        "scalar-times-identity": scalar_identity_family,
    }
    return builders[name](k=k, **params)


def test_criterion_1_gegenbauer_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    pts = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    pts /= np.max(np.abs(pts))
    worst_res = 0.0
    for n in (3, 4, 5):
        for m in range(9):
            spec = GegenbauerSpec.for_dimension(m, n)
            res = np.max(np.abs(ode_residual(spec, pts)))
            worst_res = max(worst_res, float(res))
            assert res <= 1e-9
    worst_fd = 0.0
    step = 1e-6
    for m in range(1, 9):
        spec = GegenbauerSpec.for_dimension(m, 3)
        for z in pts[:25] * 2.0:
            fd = (gegenbauer(spec, z + step) - gegenbauer(spec, z - step)) / (2 * step)
            val = gegenbauer_derivative(spec, z)
            rel = abs(val - fd) / max(abs(val), 1e-12)
            worst_fd = max(worst_fd, rel)
            assert rel <= 1e-8
    for n in (3, 4, 5):
        for m in range(11):
            endpoint_nonvanishing(GegenbauerSpec.for_dimension(m, n))
    report(1, 1.0, started,
           f"ODE residual <= {worst_res:.1e}, derivative vs FD <= {worst_fd:.1e}, "
           "endpoints nonvanishing for m <= 10")


def test_criterion_2_singular_suite():
    started = time.perf_counter()
    # Monopole equals 1/r to 1e-13.
    probe0 = probe_from_matrix(np.eye(3), (0.0, 0.0, 0.0), 0)
    rng = np.random.default_rng(102)
    xs = rng.standard_normal((200, 3))
    r = np.linalg.norm(xs, axis=1)
    vals = leading_term(probe0, xs)
    assert np.max(np.abs(vals - 1.0 / r) / (1.0 / r)) <= 1e-13

    # Frozen-coefficient residual decays at order two (Richardson ratio ~4).
    A_test = np.diag([1.0, 1.5, 2.0]) + 0.05j * np.eye(3)
    x_eval = np.array([0.45, 0.35, 0.55])
    for m in range(5):
        probe = probe_from_matrix(A_test, (0.0, 0.0, 0.0), m)
        r1 = abs(pde_residual_leading(probe, x_eval, 1e-2))
        r2 = abs(pde_residual_leading(probe, x_eval, 5e-3))
        order = math.log2(r1 / r2)
        assert order >= 1.8, f"m={m}: observed order {order}"

    # Homogeneity of the gradient weight to 1e-12.
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for m in range(5):
        probe = probe_from_matrix(A_test, (0.0, 0.0, 0.0), m)
        base = h_function(probe, dirs)
        for c in (0.5, 2.0, 10.0):
            assert np.max(np.abs(h_function(probe, c * dirs) - base)
                          / np.abs(base)) <= 1e-12

    # Five validated anisotropic families: positive, sampling-stable minima.
    z = np.array([0.5, 0.5, 1.03])
    a = constant_field(1.0)
    for name, params, e1, e2, lam, dcal in ANISOTROPIC_SUITE:
        window = best_frequency_window(e1, e2, 3)
        assert not window.empty
        k = 0.9 * window.k_max
        fam_k = rebuild_with_k(name, k, **params)
        apriori = make_apriori(e1, e2, k, lam=lam, dcal=dcal)
        rep = validate_class_H(
            fam_k, apriori,
            default_samples(BOX.lo, BOX.hi, apriori.t_range, count=40, seed=5),
        )
        assert rep.passed, (name, rep.summary_lines())
        for m in range(5):
            probe = make_probe(fam_k, a, z, m)
            v1 = sphere_min_h(probe, 8192)
            v2 = sphere_min_h(probe, 16384)
            assert v1 > 0.0
            assert abs(v1 - v2) <= 0.02 * v1
    report(2, 30.0, started,
           "1/r to 1e-13, residual order >= 1.8 (m <= 4), homogeneity 1e-12, "
           "positive stable sphere minima on 5 validated anisotropic families")


def test_criterion_3_fem_suite():
    started = time.perf_counter()
    fam = scalar_identity_family(k=0.0, imag=0.0)
    a = constant_field(1.0)

    # Manufactured harmonic x1^2 - x2^2 between h = 0.25 and h = 0.125.  The
    # structured split reproduces it exactly at the nodes (errors at rounding
    # level), which satisfies any order bound; a quartic harmonic on the same
    # meshes demonstrates the genuine second-order rate.
    errs = []
    errs_quartic = []
    for h in (0.25, 0.125):
        mesh = build_mesh(BOX, h)
        system = assemble(mesh, fam, a, 0.0)
        x, y = mesh.verts[:, 0], mesh.verts[:, 1]
        g = (x**2 - y**2).astype(complex)
        u = system.solve_dirichlet(g)
        errs.append(float(np.max(np.abs(u - g))))
        g4 = (x**4 - 6.0 * x**2 * y**2 + y**4).astype(complex)
        u4 = system.solve_dirichlet(g4)
        errs_quartic.append(float(np.max(np.abs(u4 - g4))))
    if max(errs) <= 1e-12:
        quad_note = f"quadratic exact at nodes (max err {max(errs):.1e})"
    else:
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.8
        quad_note = f"quadratic order {order:.2f}"
    order4 = math.log2(errs_quartic[0] / errs_quartic[1])
    assert order4 >= 1.8

    # Block structure is exact and the discrete form dominates the scaled
    # Laplacian on random constrained vectors.
    fam_c = scalar_identity_family(k=0.1, imag=1.0)
    mesh = build_mesh(BOX, 0.125)
    system = assemble(mesh, fam_c, constant_field(0.5), 0.1)
    K = block_matrix(system)
    nv = mesh.n_vertices
    assert (K[:nv, :nv] != K[nv:, nv:]).nnz == 0
    assert (K[:nv, nv:] + K[nv:, :nv]).nnz == 0

    import scipy.sparse as sp

    lap = assemble_stiffness(mesh, np.eye(3))
    K_lap = sp.bmat([[lap, None], [None, lap]], format="csr")
    rng = np.random.default_rng(103)
    free = np.concatenate([system.interior, system.interior + nv])
    c1 = 2.0
    for _ in range(50):
        v = np.zeros(2 * nv)
        v[free] = rng.standard_normal(free.size)
        assert (v @ (K @ v)) * 1.05 >= (v @ (K_lap @ v)) / c1
    report(3, 120.0, started,
           f"{quad_note}, quartic order {order4:.2f} >= 1.8, exact block "
           "structure, ellipticity on 50 vectors")


def test_criterion_4_dtn_alessandrini_suite():
    started = time.perf_counter()
    mesh = build_mesh(BOX, 0.125, patch=PATCH)
    basis = sigma_basis(mesh, PATCH)
    gram = h_half_gram(mesh, basis)
    rng = np.random.default_rng(104)

    pairs = [
        (scalar_identity_family(k=0.05, imag=1.0),
         constant_field(1.0), constant_field(1.2)),
        (scalar_identity_family(k=0.05, imag=1.0),
         constant_field(1.0), affine_field(0.9, (0.0, 0.0, 0.1))),
        (scalar_identity_family(k=0.1, imag=-1.0),
         constant_field(0.8), constant_field(1.0)),
        (diagonal_affine_family(k=0.05, slope=(1.0, 1.2, 0.9),
                                imag=(1.0, 1.1, 0.9)),
         constant_field(1.0), constant_field(1.3)),
        (diagonal_affine_family(k=0.02, slope=(1.0, 2.0, 1.0),
                                imag=(1.0, 1.0, 1.0)),
         constant_field(1.0), gaussian_bump_field(1.0, 0.2, (0.5, 0.5, 0.6), 0.2)),
        (rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1),
         constant_field(1.0), constant_field(1.15)),
        (rotated_anisotropic_family(k=0.002, eps=0.3, imag=1.1),
         constant_field(1.0), affine_field(1.0, (0.05, 0.0, -0.05))),
        (rotated_anisotropic_family(k=0.01, eps=0.2, angle=1.0, imag=0.9,
                                    imag_eps=0.1),
         constant_field(1.1), constant_field(0.9)),
        (rotated_anisotropic_family(k=0.005, eps=0.4, angle=-0.7, imag=1.05),
         constant_field(1.0), gaussian_bump_field(0.9, 0.15, (0.4, 0.6, 0.7), 0.25)),
        (scalar_identity_family(k=0.05, imag=0.0, imag_slope=1.0),
         constant_field(1.0), constant_field(1.1)),
    ]
    assert len(pairs) == 10
    worst_sym = 0.0
    worst_res = 0.0
    for fam, a1, a2 in pairs:
        d1 = assemble_dtn(assemble(mesh, fam, a1, fam.freq), basis, gram)
        d2 = assemble_dtn(assemble(mesh, fam, a2, fam.freq), basis, gram)
        worst_sym = max(worst_sym, d1.max_asymmetry(), d2.max_asymmetry())
        f1 = rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)
        f2 = rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)
        res = alessandrini_gap(mesh, fam, a1, a2, f1, f2, PATCH,
                               dtn1=d1, dtn2=d2)
        scale = max(1.0, abs(f1 @ d1.pairing @ f2), abs(f1 @ d2.pairing @ f2))
        worst_res = max(worst_res, abs(res) / scale)
        assert abs(res) <= 1e-9 * scale
    assert worst_sym <= 1e-12

    # Monte Carlo oracle against the singular-value route on a d = 3 case.
    A = rng.standard_normal((3, 3))
    G3 = A @ A.T + 3.0 * np.eye(3)
    P3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    P3 = P3 + P3.T
    exact = operator_norm(P3, G3)
    mc = monte_carlo_star_norm(P3, G3, draws=100_000, seed=9)
    assert abs(mc - exact) <= 0.01 * exact
    report(4, 300.0, started,
           f"symmetry <= {worst_sym:.1e}, Alessandrini residual <= "
           f"{worst_res:.1e} on 10 pairs, MC vs SVD within "
           f"{abs(mc - exact) / exact:.2%}")


def test_criterion_5_frequency_and_sign_suite():
    started = time.perf_counter()
    import mpmath

    mpmath.mp.dps = 30
    expected = float(mpmath.tan(mpmath.pi / 18))
    win = frequency_window(1.0, 1.0, 3)
    assert abs(win.k_max - expected) <= 1e-10

    defaults = [
        ("scalar-times-identity", {"imag": 1.1}, 2.0, 1.25, 2.0),
        ("diagonal-affine",
         {"slope": (1.0, 1.2, 0.9), "imag": (1.0, 1.1, 0.9)}, 2.4, 1.25, 2.0),
        ("rotated-anisotropic",
         {"eps": 0.3, "axis": (1.0, 1.0, 1.0), "angle": 0.5, "imag": 1.1},
         2.2, 1.25, 1.5),
    ]
    margins = []
    for name, params, e1, e2, lam in defaults:
        window = best_frequency_window(e1, e2, 3)
        assert not window.empty
        k = 0.9 * window.k_max
        fam = rebuild_with_k(name, k, **params)
        apriori = make_apriori(e1, e2, k, lam=lam)
        rep_h = validate_class_H(
            fam, apriori,
            default_samples(BOX.lo, BOX.hi, apriori.t_range, count=40, seed=6),
        )
        assert rep_h.passed, (name, rep_h.summary_lines())
        a_hi = constant_field(min(1.2, lam - 0.05))
        a_lo = constant_field(1.0)
        z = np.array([0.5, 0.5, 1.0 + 0.25 / 16])
        rep = check_sign_condition(fam, a_hi, a_lo, X0, z, BOX, rho=0.0625,
                                   samples=1000, seed=7)
        assert rep.passed and not rep.degenerate, (name, rep.summary())
        margins.append(rep.margin_dominance)
    report(5, 60.0, started,
           f"window value tan(pi/18) to 1e-10; sign condition holds at "
           f"k = 0.9 k_max on 3 families x 1000 points "
           f"(worst dominance margin {min(margins):.2e})")


@pytest.fixture(scope="module")
def anisotropic_frame():
    window = best_frequency_window(2.2, 1.25, 3)
    k = 0.9 * window.k_max
    fam = rotated_anisotropic_family(k=k, eps=0.3, axis=(1, 1, 1), angle=0.5,
                                     imag=1.1)
    return build_frame(BOX, PATCH, 0.25, 0.0625, fam, window=window)


def test_criterion_6_boundary_lipschitz_sweep(anisotropic_frame):
    started = time.perf_counter()
    frame = anisotropic_frame
    a1 = constant_field(1.0)
    fwd1 = build_forward(frame, a1)
    delta = constant_field(1.0)
    lhs, rhs = [], []
    for s in (0.02, 0.04, 0.08, 0.16):
        fwd2 = build_forward(frame, shifted_field(a1, delta, s))
        rec = lipschitz_ratio(fwd1, fwd2, label=f"s={s}")
        assert not rec.violation
        lhs.append(rec.lhs)
        rhs.append(rec.rhs)
    ratios = [l / r for l, r in zip(lhs, rhs)]
    spread = max(ratios) / min(ratios)
    slope = loglog_slope(rhs, lhs)
    assert 0.8 <= slope <= 1.2
    assert spread < 3.0
    report(6, 1800.0, started,
           f"log-log slope {slope:.3f} in [0.8, 1.2], ratio spread "
           f"{spread:.3f} < 3 at h = 0.0625")


def test_criterion_7_boundary_value_recovery(frame16, forward_a1):
    started = time.perf_counter()
    fwd2 = build_forward(frame16, constant_field(1.1))
    est = boundary_gap_estimate(forward_a1, fwd2, X0, seed=0)
    assert abs(est.extrapolated - (-0.1)) <= 0.1 * 0.1
    assert est.extrapolated < 0.0

    bump = gaussian_bump_field(1.0, 0.1, (0.5, 0.5, 0.3), 0.15)
    fwd3 = build_forward(frame16, bump)
    est0 = boundary_gap_estimate(forward_a1, fwd3, X0, seed=0)
    assert abs(est0.extrapolated) <= 0.01
    report(7, 1200.0, started,
           f"constant gap recovered as {est.extrapolated:+.4f} (true -0.1, "
           f"within 10%), interior-supported gap estimate "
           f"{est0.extrapolated:+.2e} <= 0.01")


def test_criterion_8_derivative_hoelder_trend(frame16, forward_a1):
    started = time.perf_counter()
    alpha = 0.25
    d1 = delta_h(alpha, 1)
    assert d1 == pytest.approx(alpha / (1.0 + alpha), rel=1e-14)
    recovered = {}
    rhs = []
    mags = []
    from admitlab.dtn import dtn_star_norm

    for c in (0.05, 0.1, 0.2, 0.4):
        a2 = affine_field(1.0 - c, (0.0, 0.0, c))  # a1 - a2 = c (1 - x3)
        fwd2 = build_forward(frame16, a2)
        est = derivative_gap_estimate(forward_a1, fwd2, X0, seed=0)
        recovered[c] = est.extrapolated
        rhs.append(dtn_star_norm(forward_a1.dtn, fwd2.dtn))
        mags.append(abs(est.extrapolated))
    assert abs(recovered[0.1] - (-0.1)) <= 0.25 * 0.1
    slope = loglog_slope(rhs, mags)
    assert slope >= d1 - 0.15
    report(8, 2700.0, started,
           f"derivative at c=0.1 recovered as {recovered[0.1]:+.4f} (within "
           f"25% of -0.1); log-log slope {slope:.3f} >= delta_1 - 0.15 = "
           f"{d1 - 0.15:.3f}")


def test_criterion_9_determinism(tmp_path):
    started = time.perf_counter()
    import yaml

    from admitlab.cli import main

    cfg = {
        "seed": 2024,
        "geometry": {
            "box": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]},
            "patch": {"face": "z+", "rect_lo": [0.2, 0.2], "rect_hi": [0.8, 0.8]},
            "eta": 0.25,
            "tau_grid": {"ratio": 0.5, "count": 3},
        },
        "family": {"template": "scalar-times-identity", "k": 0.05,
                   "params": {"imag": 1.0}},
        "apriori": {"e1": 2.0, "e2": 1.0},
        "fields": {"a1": {"kind": "constant", "value": 1.0},
                   "a2": {"kind": "constant", "value": 1.1}},
        "discretization": {"h": 0.125, "x0": [0.5, 0.5, 1.0]},
        "sweep": {"scales": [0.05, 0.1],
                  "delta": {"kind": "constant", "value": 1.0}},
        "output": {"formats": ["csv", "json", "svg"]},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    csv_names = {
        "dtn": ("dtn_pairing_a1.csv", "dtn_pairing_a2.csv", "dtn_gram.csv"),
        "stability": ("gap_tau.csv",),
        "sweep": ("sweep_lipschitz.csv",),
    }
    for command, names in csv_names.items():
        out1 = tmp_path / f"{command}_run1"
        out2 = tmp_path / f"{command}_run2"
        assert main([command, "--config", str(path), "--out", str(out1)]) == 0
        assert main([command, "--config", str(path), "--out", str(out2)]) == 0
        for name in names:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{command}/{name} differs between reruns"
    report(9, 600.0, started,
           "byte-identical CSV outputs across reruns of dtn, stability and sweep")

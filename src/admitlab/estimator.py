"""Boundary-value and normal-derivative recovery from local DtN differences.

The recovery follows the constructive route: place order-m singular probes at
exterior points z_tau = x0 + tau nu, pair the DtN difference against their
patch-supported traces, and normalise by the monotonicity-weighted energy of
the same discrete probe fields.  Because numerator and denominator share the
probe pair, mesh-resolution effects cancel and the per-tau estimates converge
to the local coefficient gap as tau shrinks; a linear fit in tau removes the
leading error order.  The sign condition on the complex weight F gates every
run: inside the admissible frequency window it holds with margin, and when it
fails the estimators refuse rather than return garbage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .admittivity import AdmittivityFamily, ParameterField, WindowResult, complex_dot
from .dtn import LocalDtnMatrix, SigmaBasis, assemble_dtn, dtn_star_norm, h_half_gram, sigma_basis
from .errors import (ConfigError, EstimatorRefusal, GeometryError,
                     NumericError, SingularityError)
from .fem import (BlockSystem, LatticeVertices, Mesh, SubstructuredSystem, assemble, build_mesh,
                  energy_density, tet_chunks)
from .geometry import (BoundaryPatch, BoxDomain, EnlargedDomain, EtaSets,
                       ProbePath, build_enlarged_domain, build_eta_sets,
                       make_tau_grid, probe_point)
from .singular import _symmetric_inverse, build_corrected_probe, make_probe


def delta_h(alpha: float, h: int) -> float:
    """Stability exponent prod_{i=0}^{h} alpha / (alpha + i)."""
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if h < 0:
        raise ConfigError(f"derivative order must be >= 0, got {h}")
    out = 1.0
    for i in range(h + 1):
        out *= alpha / (alpha + i)
    return out


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log|y| against log|x|; NumericError unless the
    data is positive with at least two distinct |x|."""
    xs = np.abs(np.asarray(xs, dtype=float))
    ys = np.abs(np.asarray(ys, dtype=float))
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise NumericError("log-log regression needs positive data")
    if len(np.unique(xs)) < 2:
        raise NumericError("log-log regression needs at least two distinct x values")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# Sign condition
# ---------------------------------------------------------------------------

def _inverse_at(family: AdmittivityFamily, a: ParameterField, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    t = float(np.asarray(a.values(x)))
    return _symmetric_inverse(family(x, t))


def f_function(
    family: AdmittivityFamily,
    a1: ParameterField,
    a2: ParameterField,
    x0,
    z_tau,
    x,
):
    """Complex sign-condition weight at x (vectorised over points).

    First factor: difference of inverse admittivities frozen at the anchor;
    the two conjugated inverse-quadratic factors are raised to n/2 with
    principal branches.
    """
    x0 = np.asarray(x0, dtype=float)
    z = np.asarray(z_tau, dtype=float)
    n = family.dim
    B10 = _inverse_at(family, a1, x0)
    B20 = _inverse_at(family, a2, x0)
    B1t = _inverse_at(family, a1, z)
    B2t = _inverse_at(family, a2, z)
    squeeze = np.ndim(x) == 1
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    xh = pts - z[None, :]
    if np.any(np.sum(xh * xh, axis=1) == 0.0):
        raise SingularityError("sign-condition sample coincides with the probe point")
    first = complex_dot(xh @ (B20 - B10), xh)
    q1 = complex_dot(xh @ np.conj(B1t), xh)
    q2 = complex_dot(xh @ np.conj(B2t), xh)
    vals = first * q1 ** (n / 2.0) * q2 ** (n / 2.0)
    return vals[0] if squeeze else vals


@dataclass(frozen=True)
class SignConditionReport:
    passed: bool
    degenerate: bool
    swapped: bool
    margin_positive: float
    margin_dominance: float
    samples: int
    note: str = ""

    def summary(self) -> str:
        if self.degenerate:
            return "sign condition degenerate (coinciding parameters at the anchor)"
        status = "holds" if self.passed else "FAILS"
        return (
            f"sign condition {status}: min Re F = {self.margin_positive:.3e}, "
            f"min (Re F - |Im F|) = {self.margin_dominance:.3e} on {self.samples} samples"
        )


def _sample_ball_cap(box: BoxDomain, z, rho: float, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = np.asarray(z, dtype=float)
    pts = []
    attempts = 0
    while len(pts) < count:
        attempts += 1
        if attempts > 200 * count:
            raise GeometryError("could not sample the ball-domain intersection")
        u = rng.standard_normal(3)
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            continue
        x = z + (rho * rng.random() ** (1.0 / 3.0) / norm) * u
        if box.contains(x):
            pts.append(x)
    return np.asarray(pts)


def check_sign_condition(
    family: AdmittivityFamily,
    a1: ParameterField,
    a2: ParameterField,
    x0,
    z_tau,
    box: BoxDomain,
    rho: float,
    samples: int = 1000,
    seed: int = 0,
) -> SignConditionReport:
    """Sample |Im F| <= Re F > 0 over the ball-domain intersection.

    The roles of a1 and a2 are swapped when the anchor gap has the opposite
    orientation; a vanishing anchor gap is reported as degenerate.
    """
    gap0 = float(np.asarray(a1.values(np.asarray(x0, float)))) - float(
        np.asarray(a2.values(np.asarray(x0, float)))
    )
    if abs(gap0) < 1e-14:
        return SignConditionReport(
            passed=True, degenerate=True, swapped=False,
            margin_positive=0.0, margin_dominance=0.0, samples=0,
        )
    swapped = gap0 < 0.0
    lead, trail = (a2, a1) if swapped else (a1, a2)
    pts = _sample_ball_cap(box, z_tau, rho, samples, seed)
    vals = f_function(family, lead, trail, x0, z_tau, pts)
    # F scales like |x - z|^{2n+2}; normalise so the margins are scale-free.
    r = np.linalg.norm(pts - np.asarray(z_tau, float)[None, :], axis=1)
    vals = vals / r ** (2.0 * family.dim + 2.0)
    margin_pos = float(np.min(vals.real))
    margin_dom = float(np.min(vals.real - np.abs(vals.imag)))
    passed = margin_pos > 0.0 and margin_dom >= -1e-12 * max(1.0, float(np.max(np.abs(vals))))
    return SignConditionReport(
        passed=passed, degenerate=False, swapped=swapped,
        margin_positive=margin_pos, margin_dominance=margin_dom,
        samples=len(pts),
    )


# ---------------------------------------------------------------------------
# Weighted power integrals over ball caps
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_rule():
    """200-point Gauss-Legendre nodes and weights, built on first use: no
    CLI command needs them, and building them costs a large eigensolve."""
    nodes, weights = np.polynomial.legendre.leggauss(200)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def weighted_integral(box: BoxDomain, z, rho: float, exponent: float) -> float:
    """Integral of |x - z|^exponent over B_rho(z) intersected with the box.

    Valid when the intersection is a flat spherical cap below one face, which
    holds for probe points over the shrunken patch with rho <= eta/4.  The
    radial integral is evaluated in closed form and the polar integral by
    high-order Gauss quadrature, so the relative accuracy is far below 1e-4.
    """
    z = np.asarray(z, dtype=float)
    if box.contains(z):
        raise GeometryError("weighted integral expects the probe point outside the box")
    tau = box.boundary_distance(z)
    if tau >= rho:
        return 0.0
    lo, hi = box.lo_arr, box.hi_arr
    # The cap assumption: exactly one coordinate of z exits the box, by less
    # than rho, while the lateral clearances exceed rho.
    below = z < lo
    above = z > hi
    out_axes = np.where(below | above)[0]
    if out_axes.size != 1:
        raise GeometryError("probe point must exit the box through a single face")
    axis = int(out_axes[0])
    for a in range(3):
        if a == axis:
            continue
        if z[a] - lo[a] < rho or hi[a] - z[a] < rho:
            raise GeometryError("ball cap reaches a lateral face; shrink rho")
    depth_available = (hi[axis] - lo[axis])
    if rho - tau > depth_available:
        raise GeometryError("ball cap reaches the opposite face; shrink rho")

    e = float(exponent)
    u0 = tau / rho
    nodes, weights = _gauss_rule()
    u = 0.5 * (u0 + 1.0) + 0.5 * (1.0 - u0) * nodes
    w = 0.5 * (1.0 - u0) * weights
    if abs(e + 3.0) < 1e-13:
        radial = np.log(rho * u / tau)
    else:
        radial = (rho ** (e + 3.0) - (tau / u) ** (e + 3.0)) / (e + 3.0)
    return float(2.0 * np.pi * np.sum(w * radial))


# ---------------------------------------------------------------------------
# Experiment frames and forward bundles
# ---------------------------------------------------------------------------

@dataclass
class LabFrame:
    """Geometry, meshes, basis and Gram shared by all forwards of a run.

    `bump` is the mesh of the bump box of Omega_eta on the lattice of
    `mesh`, and `eta_vertices` the vertex record of Omega_eta on the two
    boxes (`LatticeVertices`: its vertices, boundary and footprint), each
    built on first read, once, and shared by every Forward's `system_eta`.
    A run that reads no Omega_eta system, such as `dtn` or a Lipschitz
    sweep, builds neither.
    """

    box: BoxDomain
    patch: BoundaryPatch
    eta: float
    h: float
    family: AdmittivityFamily
    eta_sets: EtaSets
    enlarged: EnlargedDomain
    mesh: Mesh
    basis: SigmaBasis
    gram: np.ndarray
    window: Optional[WindowResult] = None

    @functools.cached_property
    def bump(self) -> Mesh:
        return build_mesh(self.enlarged, self.h)

    @functools.cached_property
    def eta_vertices(self) -> LatticeVertices:
        return LatticeVertices(self.mesh, self.bump)

    @property
    def k(self) -> float:
        return self.family.freq

    def tau_default(self, count: int = 5) -> tuple:
        return make_tau_grid(self.eta / 16.0, 0.5, count)


def build_frame(
    box: BoxDomain,
    patch: BoundaryPatch,
    eta: float,
    h: float,
    family: AdmittivityFamily,
    window: Optional[WindowResult] = None,
) -> LabFrame:
    eta_sets = build_eta_sets(patch, eta)
    enlarged = build_enlarged_domain(box, patch, eta, grid_h=h)
    mesh = build_mesh(box, h, patch=patch)
    basis = sigma_basis(mesh, patch)
    gram = h_half_gram(mesh, basis)
    return LabFrame(
        box=box, patch=patch, eta=eta, h=h, family=family,
        eta_sets=eta_sets, enlarged=enlarged, mesh=mesh,
        basis=basis, gram=gram, window=window,
    )


@dataclass(eq=False)
class Forward:
    """One parameter field with its Omega system, and its Omega_eta system
    once a probe pass has read it.

    The DtN matrix is assembled on first read, from the Schur complement
    of `system` onto the basis, which `system` keeps: the Omega_eta
    footprint lies in the basis, so for a box-cocg system its restriction
    preconditions the Omega_eta interface exactly.  `system_eta` is built
    on first read too, substructured through `system` and the field's
    system on the frame's bump, on the frame's vertex record, so a Forward
    that only gives a DtN never builds it.  Nothing here refers back to the
    Forward, so dropping it frees both systems.
    """

    frame: LabFrame
    a: ParameterField
    system: BlockSystem
    _passes: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def dtn(self) -> LocalDtnMatrix:
        return assemble_dtn(self.system, self.frame.basis, self.frame.gram)

    @functools.cached_property
    def system_eta(self) -> SubstructuredSystem:
        # Substructured through the Omega system: no Omega_eta matrix.
        frame = self.frame
        return SubstructuredSystem(self.system,
                                   assemble(frame.bump, frame.family, self.a, frame.k),
                                   frame.eta_vertices)

    def solver_entries(self, label: str) -> list:
        """One plain manifest entry per system built: the field's `label`,
        the domain ("Omega", then "Omega_eta" if it has been assembled) and
        the system's counters; assembles nothing."""
        systems = [("Omega", self.system)]
        if "system_eta" in self.__dict__:
            systems.append(("Omega_eta", self.__dict__["system_eta"]))
        return [{"field": label, "domain": domain, **system.counters()}
                for domain, system in systems]

    def probe_pass(self, x0, tau_grid, m: int):
        """Corrected order-m probes at x0 + tau nu for every tau, memoised.

        Returns (F, KU, U): the basis traces f of the probes as columns, the
        Omega solutions of those traces from one multi-column solve, and
        (K U) restricted to the basis.  Because every trace vanishes off the
        basis vertices, (K u)|sigma is the Schur complement applied to f, so
        f2 . (K1 u1)|sigma - f1 . (K2 u2)|sigma = f1^T (P1 - P2) f2.
        Every caller shares the memoised arrays, so they are read-only.
        """
        key = (tuple(float(c) for c in x0), tuple(float(t) for t in tau_grid), int(m))
        if key not in self._passes:
            arrays = self._probe_pass(*key)
            for arr in arrays:
                arr.flags.writeable = False
            self._passes[key] = arrays
        return self._passes[key]

    def _probe_pass(self, x0, tau_grid, m):
        frame = self.frame
        path = ProbePath(frame.eta_sets, x0, tau_grid)
        probes = [make_probe(frame.family, self.a, probe_point(path, tau), m)
                  for tau in tau_grid]
        corrected = build_corrected_probe(probes, frame.enlarged, self.system_eta)
        traces = np.stack([c.trace_vector(frame.mesh) for c in corrected], axis=1)
        sigma = np.asarray(frame.basis.vertices)
        off_sigma = np.ones(frame.mesh.n_vertices, dtype=bool)
        off_sigma[sigma] = False
        if np.any(traces[off_sigma] != 0.0):
            raise NumericError(
                "probe trace is nonzero off the patch basis; the pairing would "
                "not be the DtN form"
            )
        U = self.system.solve_dirichlet(traces)
        KU = self.system.boundary_rows(sigma) @ U
        return traces[sigma], KU, U


def build_forward(frame: LabFrame, a: ParameterField) -> Forward:
    """Forward of one field; assembles its Omega system only."""
    return Forward(frame=frame, a=a, system=assemble(frame.mesh, frame.family, a, frame.k))


# ---------------------------------------------------------------------------
# Gap estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauRecord:
    """Per-tau data: pairing, monotonicity weights and the local estimate.

    n_* are the monotonicity-weighted probe energies, m_* the depth-weighted
    ones (full domain and restricted to the concentration ball).
    """

    tau: float
    estimate: float
    pairing: complex
    n_full: float
    n_ball: float
    m_full: float
    m_ball: float
    trace_norm_1: float
    trace_norm_2: float


@dataclass
class GapEstimate:
    mode: str
    x0: tuple
    order: int
    rho: float
    records: list
    extrapolated: float
    fit_slope: float
    sign_report: Optional[SignConditionReport]
    observed_tau_rate: Optional[float]
    boundary_coupled: Optional[float] = None

    @property
    def per_tau(self) -> np.ndarray:
        return np.array([r.estimate for r in self.records])

    @property
    def taus(self) -> np.ndarray:
        return np.array([r.tau for r in self.records])


# Deviations from the extrapolated value at most this fraction of the
# largest |estimate| are rounding noise, and give no observed tau rate.
_TAU_RATE_FLOOR = 1e-10


def _extrapolate(taus: np.ndarray, ests: np.ndarray):
    """Linear-in-tau fit; the intercept removes the leading error order.

    The observed tau rate is the log-log slope of the deviations from the
    intercept, or None when any deviation is at the rounding-noise floor
    `_TAU_RATE_FLOOR` relative to the largest |estimate|.
    """
    if len(taus) == 1:
        return float(ests[0]), 0.0, None
    coeff = np.polyfit(taus, ests, 1)
    intercept = float(coeff[1])
    slope = float(coeff[0])
    dev = np.abs(ests - intercept)
    rate = None
    if np.all(dev > _TAU_RATE_FLOOR * np.max(np.abs(ests))):
        rate = float(np.polyfit(np.log(taus), np.log(dev), 1)[0])
    return intercept, slope, rate


def _gram_norm(gram: np.ndarray, f: np.ndarray) -> float:
    return float(np.sqrt(np.real(np.conj(f) @ gram @ f)))


def _pair_records(
    fwd1: Forward,
    fwd2: Forward,
    x0,
    tau_grid,
    m: int,
    rho: float,
):
    """Probe, pair and weigh one anchor across the tau grid; each record's
    estimate is the boundary value Re(P) / n_full."""
    frame = fwd1.frame
    if fwd2.frame is not frame:
        raise ConfigError("forwards must share a laboratory frame")
    x0 = np.asarray(x0, dtype=float)
    t_star = 0.5 * (
        float(np.asarray(fwd1.a.values(x0))) + float(np.asarray(fwd2.a.values(x0)))
    )
    D = frame.family.dt(x0, t_star)
    F1, KU1, U1 = fwd1.probe_pass(x0, tau_grid, m)
    F2, KU2, U2 = fwd2.probe_pass(x0, tau_grid, m)
    path = ProbePath(frame.eta_sets, tuple(x0), tuple(tau_grid))
    zs = [probe_point(path, tau) for tau in tau_grid]
    mesh = frame.mesh
    # One chunked pass over the barycenters gives each tet's depth and,
    # for each tau, whether it lies in the concentration ball.
    depth = np.empty(mesh.n_tets)
    balls = np.empty((len(zs), mesh.n_tets), dtype=bool)
    for chunk in tet_chunks(mesh.n_tets):
        bary = mesh.barycenters(chunk)
        depth[chunk] = frame.patch.depth(bary)
        for ball, z in zip(balls, zs):
            ball[chunk] = np.linalg.norm(bary - z[None, :], axis=1) < rho

    records = []
    for j, (tau, ball) in enumerate(zip(tau_grid, balls)):
        f1 = F1[:, j]
        f2 = F2[:, j]
        n1 = _gram_norm(frame.gram, f1)
        n2 = _gram_norm(frame.gram, f2)
        # Alessandrini's identity with P complex symmetric: the flux of each
        # probe solve paired with the other probe's trace.
        pairing = complex(f2 @ KU1[:, j] - f1 @ KU2[:, j])
        # One tau's density at a time, freed before the next is formed.
        dens = energy_density(mesh, D, U1[:, j], U2[:, j], real=True)
        weighted = depth * dens
        n_full = float(np.sum(dens))
        n_ball = float(np.sum(dens[ball]))
        m_full = float(np.sum(weighted))
        m_ball = float(np.sum(weighted[ball]))
        del dens, weighted
        records.append(TauRecord(
            tau=float(tau), estimate=float(pairing.real / n_full), pairing=pairing,
            n_full=n_full, n_ball=n_ball, m_full=m_full, m_ball=m_ball,
            trace_norm_1=n1, trace_norm_2=n2,
        ))
    return records


def boundary_gap_estimate(
    fwd1: Forward,
    fwd2: Forward,
    x0,
    tau_grid=None,
    m: int = 0,
    rho: Optional[float] = None,
    check_sign: bool = True,
    sign_samples: int = 1000,
    seed: int = 0,
) -> GapEstimate:
    """Per-tau and extrapolated estimates of (a1 - a2)(x0).

    Each estimate is Re of the DtN-difference pairing of the two corrected
    probe traces divided by the monotonicity-weighted energy of the same
    discrete probe pair, with the t-derivative frozen at the anchor and the
    midpoint parameter value.
    """
    frame = fwd1.frame
    rho = frame.eta / 4.0 if rho is None else rho
    if rho > frame.eta / 4.0 + 1e-12:
        raise ConfigError(f"rho={rho} exceeds eta/4={frame.eta / 4.0}")
    tau_grid = frame.tau_default() if tau_grid is None else tuple(tau_grid)

    sign_report = None
    if check_sign:
        path = ProbePath(frame.eta_sets, tuple(np.asarray(x0, float)), tuple(tau_grid))
        z_top = probe_point(path, max(tau_grid))
        sign_report = check_sign_condition(
            frame.family, fwd1.a, fwd2.a, x0, z_top, frame.box, rho,
            samples=sign_samples, seed=seed,
        )
        if not sign_report.passed:
            raise EstimatorRefusal(
                f"refusing boundary-gap estimate: {sign_report.summary()}",
                report=sign_report,
            )

    records = _pair_records(fwd1, fwd2, x0, tau_grid, m, rho)
    taus = np.array([r.tau for r in records])
    ests = np.array([r.estimate for r in records])
    extrapolated, slope, rate = _extrapolate(taus, ests)
    return GapEstimate(
        mode="boundary", x0=tuple(np.asarray(x0, float)), order=m, rho=rho,
        records=records, extrapolated=extrapolated, fit_slope=slope,
        sign_report=sign_report, observed_tau_rate=rate,
    )


def derivative_gap_estimate(
    fwd1: Forward,
    fwd2: Forward,
    x0,
    tau_grid=None,
    m: Optional[int] = None,
    rho: Optional[float] = None,
    boundary: Optional[GapEstimate] = None,
    boundary_tol: float = 0.05,
    check_sign: bool = True,
    seed: int = 0,
) -> GapEstimate:
    """Estimate of the outward normal derivative of (a1 - a2) at x0.

    Mirrors the induction: an order-0 pass recovers the boundary value first,
    the recovered term is subtracted from the pairing, and the remainder is
    normalised by the depth-weighted probe energy.  Boundary values exceeding
    boundary_tol make the subtraction ill-conditioned and are refused.  The
    probe order defaults to n - 1, large enough that the competing tau power
    is harmless at laboratory scale.
    """
    frame = fwd1.frame
    if m is None:
        m = frame.family.dim - 1
    rho = frame.eta / 4.0 if rho is None else rho
    tau_grid = frame.tau_default() if tau_grid is None else tuple(tau_grid)

    if boundary is None:
        boundary = boundary_gap_estimate(
            fwd1, fwd2, x0, tau_grid=tau_grid, m=0, rho=rho,
            check_sign=check_sign, seed=seed,
        )
    if abs(boundary.extrapolated) > boundary_tol:
        raise EstimatorRefusal(
            "refusing derivative estimate: boundary values differ by "
            f"{boundary.extrapolated:.4f} > tolerance {boundary_tol}",
            report=boundary,
        )

    raw = _pair_records(fwd1, fwd2, x0, tau_grid, m, rho)
    # Each probing furnishes one equation Re P = g0 * n_full - dg * m_full,
    # so a regression of y = Re P / n against the depth-to-energy ratio
    # x = m / n separates the residual boundary term (intercept) from the
    # normal derivative (negative slope).  The order-0 rows of the boundary
    # pass concentrate at a different depth scale than the order-m rows and
    # are included to keep the regression well conditioned.
    rows = list(raw)
    if (boundary.records and boundary.x0 == tuple(np.asarray(x0, float))
            and boundary.rho == rho):
        rows = boundary.records + rows
    xs = np.array([r.m_full / r.n_full for r in rows])
    ys = np.array([r.pairing.real / r.n_full for r in rows])
    if len(rows) < 2 or np.ptp(xs) < 1e-3 * np.max(np.abs(xs)):
        raise NumericError(
            "probing gives no depth-scale variation; cannot separate the "
            "boundary and derivative contributions (widen the tau grid or "
            "refine the mesh)"
        )
    slope_xy, g0 = np.polyfit(xs, ys, 1)
    derivative_value = float(-slope_xy)
    records = [
        TauRecord(
            tau=r.tau,
            estimate=float(-(r.pairing.real - g0 * r.n_full) / r.m_full),
            pairing=r.pairing, n_full=r.n_full, n_ball=r.n_ball,
            m_full=r.m_full, m_ball=r.m_ball,
            trace_norm_1=r.trace_norm_1, trace_norm_2=r.trace_norm_2,
        )
        for r in raw
    ]
    taus = np.array([r.tau for r in records])
    ests = np.array([r.estimate for r in records])
    _, slope, rate = _extrapolate(taus, ests)
    return GapEstimate(
        mode="derivative", x0=tuple(np.asarray(x0, float)), order=m, rho=rho,
        records=records, extrapolated=derivative_value, fit_slope=slope,
        sign_report=boundary.sign_report, observed_tau_rate=rate,
        boundary_coupled=float(g0),
    )


# ---------------------------------------------------------------------------
# Lipschitz ratios and sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzRecord:
    label: str
    lhs: float
    rhs: float
    ratio: Optional[float]
    violation: bool
    derivative_estimate: Optional[float] = None


def _sigma_eta_grid(frame: LabFrame, per_side: int = 9) -> np.ndarray:
    es = frame.eta_sets
    u = np.linspace(es.sigma_eta_lo[0], es.sigma_eta_hi[0], per_side)
    v = np.linspace(es.sigma_eta_lo[1], es.sigma_eta_hi[1], per_side)
    uv = np.stack(np.meshgrid(u, v, indexing="ij"), axis=-1).reshape(-1, 2)
    return frame.patch.lift(uv)


def coefficient_gap_sup(frame: LabFrame, a1: ParameterField, a2: ParameterField,
                        per_side: int = 9) -> float:
    """Max over shrunken-patch quadrature nodes of the entrywise gap of A."""
    pts = _sigma_eta_grid(frame, per_side)
    t1 = np.asarray(a1.values(pts), dtype=float)
    t2 = np.asarray(a2.values(pts), dtype=float)
    dA = frame.family(pts, t1) - frame.family(pts, t2)
    return float(np.max(np.abs(dA)))


def lipschitz_ratio(fwd1: Forward, fwd2: Forward, label: str = "") -> LipschitzRecord:
    """Sup of the coefficient gap on the shrunken patch against the DtN norm."""
    frame = fwd1.frame
    lhs = coefficient_gap_sup(frame, fwd1.a, fwd2.a)
    rhs = dtn_star_norm(fwd1.dtn, fwd2.dtn)
    violation = rhs == 0.0 and lhs > 0.0
    ratio = lhs / rhs if rhs > 0.0 else None
    return LipschitzRecord(label=label, lhs=lhs, rhs=rhs, ratio=ratio,
                           violation=violation)


def lipschitz_sweep(
    frame: LabFrame,
    a1: ParameterField,
    perturbations: Sequence,
    derivative: Optional[dict] = None,
    solvers: Optional[list] = None,
) -> list:
    """Lipschitz records for a list of (label, a2) perturbed fields.

    With `derivative`, keyword arguments of `derivative_gap_estimate` (x0
    among them), each record also carries that estimate's extrapolated
    normal derivative.  Every point pairs against the one reference
    Forward, so the reference probe passes are computed once.  A Lipschitz
    point builds only its Omega system; a derivative point also builds its
    Omega_eta system, whose interface the Schur complement its DtN left
    behind preconditions.
    Given a `solvers` list, the counters of every system built are copied
    into it as plain entries (`Forward.solver_entries` led by "point"): the
    reference's ("reference", a1) first, then each point's (its label, a2),
    each point's copied before it is freed.
    """
    fwd1 = build_forward(frame, a1)
    # The reference DtN is solved before any perturbed field is assembled,
    # so its Schur blocks do not overlap theirs.
    fwd1.dtn
    out, point_solvers = [], []
    for label, a2 in perturbations:
        fwd2 = build_forward(frame, a2)
        rec = lipschitz_ratio(fwd1, fwd2, label=label)
        if derivative is not None:
            est = derivative_gap_estimate(fwd1, fwd2, **derivative)
            rec = replace(rec, derivative_estimate=est.extrapolated)
        out.append(rec)
        point_solvers += [{"point": label, **entry} for entry in fwd2.solver_entries("a2")]
        # Dropping the last reference frees this point's systems, factors
        # and memoised Schur complement by reference counting, before the
        # next field is assembled.
        del fwd2
    if solvers is not None:
        solvers.extend([{"point": "reference", **entry} for entry in fwd1.solver_entries("a1")]
                       + point_solvers)
    return out

"""One-parameter admittivity families A(x, t) = A_R(x, t) + i k A_I(x, t).

The building blocks here are deliberately small: complex-symmetric matrix
algebra with the bilinear dot product v . w = sum_i v_i w_i, membership checks
for the admissible family class (ellipticity of the real part, sign-definite
imaginary part, t-monotonicity), the closed-form real/imaginary parts of the
inverse, and the admissible frequency window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericError

SYM_TOL = 1e-12


def complex_dot(v, w):
    """Bilinear (unconjugated) dot product on C^n, applied along the last axis."""
    return np.sum(np.asarray(v) * np.asarray(w), axis=-1)


def check_symmetric(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate near-exact symmetry and return the exactly symmetrised matrix."""
    mat = np.asarray(mat)
    scale = max(1.0, float(np.max(np.abs(mat))))
    skew = float(np.max(np.abs(mat - np.swapaxes(mat, -1, -2))))
    if skew > SYM_TOL * scale:
        raise NumericError(f"{what} is not symmetric: max asymmetry {skew:.3e}")
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def spectral_norm_sym(mat: np.ndarray) -> float:
    """Spectral norm of a real symmetric matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


@dataclass(frozen=True)
class AprioriData:
    """A-priori constants the estimates are allowed to depend on."""

    n: int
    p: float
    k: float
    lam: float
    e1: float
    e2: float
    bigE: float
    dcal: float
    fcal: float
    alpha: float
    r0: float
    L: float
    eta: float
    eta0: float
    tau0: float
    diam: float

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError(f"dimension must be >= 3, got {self.n}")
        if self.p <= self.n:
            raise ConfigError(f"Sobolev exponent p must exceed n, got p={self.p}")
        if not (0.0 < self.alpha < 1.0 - self.n / self.p):
            raise ConfigError(
                f"alpha must lie in (0, 1 - n/p) = (0, {1.0 - self.n / self.p:.4f}), "
                f"got {self.alpha}"
            )
        if self.lam < 1.0:
            raise ConfigError(f"lambda must be >= 1, got {self.lam}")
        for name in ("e1", "e2"):
            if getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("bigE", "dcal", "fcal"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 < self.eta <= self.eta0 < self.r0):
            raise ConfigError(
                f"need 0 < eta <= eta0 < r0, got eta={self.eta}, "
                f"eta0={self.eta0}, r0={self.r0}"
            )
        if self.k < 0.0:
            raise ConfigError("frequency k must be nonnegative")

    @property
    def t_range(self) -> tuple:
        return (1.0 / self.lam, self.lam)


@dataclass(frozen=True)
class AdmittivityFamily:
    """Callable bundle (A_R, A_I, D_t A_R, D_t A_I) with frequency k.

    The callables accept x of shape (3,) or (N, 3) together with a scalar or
    matching-length t, and return (3, 3) or (N, 3, 3) real symmetric matrices.
    """

    dim: int
    freq: float
    evalR: Callable
    evalI: Callable
    evalDtR: Callable
    evalDtI: Callable
    name: str = "custom"
    t_range: Optional[tuple] = None

    def real_part(self, x, t) -> np.ndarray:
        return check_symmetric(self.evalR(x, t), "A_R")

    def imag_part(self, x, t) -> np.ndarray:
        return check_symmetric(self.evalI(x, t), "A_I")

    def dt_real(self, x, t) -> np.ndarray:
        return check_symmetric(self.evalDtR(x, t), "D_t A_R")

    def dt_imag(self, x, t) -> np.ndarray:
        return check_symmetric(self.evalDtI(x, t), "D_t A_I")

    def __call__(self, x, t) -> np.ndarray:
        """A(x, t) = A_R + i k A_I without the range check."""
        return self.real_part(x, t) + 1j * self.freq * self.imag_part(x, t)

    def dt(self, x, t) -> np.ndarray:
        return self.dt_real(x, t) + 1j * self.freq * self.dt_imag(x, t)


@dataclass(frozen=True)
class ParameterField:
    """Scalar field a(x) with optional gradient, range [1/lambda, lambda]."""

    values: Callable
    grad: Optional[Callable] = None
    name: str = "custom"

    def __call__(self, x):
        return np.asarray(self.values(np.asarray(x, dtype=float)), dtype=float)


def eval_admittivity(family: AdmittivityFamily, x, t: float) -> np.ndarray:
    """A(x, t) at a single point, with range and symmetry enforcement."""
    if family.t_range is not None:
        lo, hi = family.t_range
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise ConfigError(f"t={t} outside admissible range [{lo}, {hi}]")
    return family(np.asarray(x, dtype=float), float(t))


def inverse_parts(M: np.ndarray, k: float):
    """Real and imaginary parts of M^{-1} for commuting symmetric parts.

    With M = R + i J (J = k A_I) the commuting-parts formula gives
    real = R (R^2 + J^2)^{-1} and imag = -J (R^2 + J^2)^{-1}.
    """
    M = np.asarray(M, dtype=complex)
    R = check_symmetric(M.real, "real part")
    J = check_symmetric(M.imag, "imaginary part")
    S = R @ R + J @ J
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"A_R^2 + k^2 A_I^2 is singular: {exc}") from exc
    real_part = R @ S_inv
    imag_part = -J @ S_inv
    resid = np.max(np.abs((real_part + 1j * imag_part) @ M - np.eye(M.shape[0])))
    if resid > 1e-10:
        raise NumericError(f"inverse-part identity violated: residual {resid:.3e}")
    return 0.5 * (real_part + real_part.T), 0.5 * (imag_part + imag_part.T)


class WindowResult(NamedTuple):
    """Admissible frequency bound; empty means the window degenerates to {0}."""

    k_max: float
    empty: bool
    partition: tuple


def _window_bound(e1: float, e2: float, n: int, pa, pb, pc):
    """k_max of the partitions (pa, pb, pc), elementwise over arrays; None
    when m == 1 < M empties every window.  ConfigError unless e1, e2 >= 1,
    as lambda must be: below 1 the bounds e^-1 <= A <= e admit no matrix."""
    if not (e1 >= 1.0 and e2 >= 1.0):
        raise ConfigError(f"ellipticity constants must be >= 1, got e1={e1}, e2={e2}")
    M = max(e1, e2)
    m = min(e1, e2)
    if abs(M - m) <= 1e-14:
        first = np.tan(pa * np.pi / 4.0)
    elif abs(m - 1.0) <= 1e-14:
        return None
    else:
        first = (m**3 - m**-3) * np.tan(pa * np.pi / 4.0) / (M**3 - M**-3)
    second = M**-6 * np.tan(pb * np.pi / (2.0 * n))
    third = M**-6 * np.tan(pc * np.pi / (2.0 * n))
    return np.minimum(np.minimum(first, second), third)


def frequency_window(e1: float, e2: float, n: int, partition=(1 / 3, 1 / 3, 1 / 3)) -> WindowResult:
    """Upper frequency bound for a fixed partition (A, B, C), A + B + C = 1.

    The bound is min of three terms built from M = max(e1, e2), m = min(e1, e2):
    (m^3 - m^-3) tan(A pi/4) / (M^3 - M^-3), and M^-6 tan(B pi/(2n)),
    M^-6 tan(C pi/(2n)).  The M == m limit takes the first ratio to 1; m == 1
    with M > 1 makes the numerator vanish and the window empty.  ConfigError
    unless e1, e2 >= 1.
    """
    pa, pb, pc = partition
    if min(pa, pb, pc) <= 0.0 or abs(pa + pb + pc - 1.0) > 1e-9:
        raise ConfigError(f"partition must be positive and sum to 1, got {partition}")
    bound = _window_bound(e1, e2, n, pa, pb, pc)
    if bound is None:
        return WindowResult(0.0, True, tuple(partition))
    k_max = float(bound)
    return WindowResult(k_max, k_max <= 0.0, tuple(float(p) for p in partition))


def best_frequency_window(e1: float, e2: float, n: int, step: float = 0.01) -> WindowResult:
    """Grid search of the partition maximising the frequency window.

    The whole grid is evaluated at once; the first maximum in (A, B) order
    wins, and a grid with no positive bound gives the empty default.
    """
    best = WindowResult(0.0, True, (1 / 3, 1 / 3, 1 / 3))
    grid = np.arange(step, 1.0, step)
    pa, pb = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    pc = 1.0 - pa - pb
    keep = ~(pc < step / 2)
    if not np.any(keep):
        return best
    pa, pb, pc = pa[keep], pb[keep], pc[keep]
    bound = _window_bound(e1, e2, n, pa, pb, pc)
    if bound is None:
        return best
    i = int(np.argmax(bound))
    if not bound[i] > 0.0:
        return best
    return WindowResult(float(bound[i]), False, (float(pa[i]), float(pb[i]), float(pc[i])))


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    margin: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    conditions: list
    branch: str = ""
    tolerance: float = SYM_TOL

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionCheck:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary_lines(self):
        lines = []
        for c in self.conditions:
            status = "pass" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"  [{status}] {c.name:<22} margin {c.margin:+.3e}{note}")
        return lines


def default_samples(box_lo, box_hi, t_range, count=60, seed=0):
    """Sample grid of (x, t, xi) triples covering the box and t-range.

    xi alternates between real and genuinely complex unit vectors so the
    monotonicity check exercises the complex quantifier.
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    n = lo.size
    t_lo, t_hi = t_range
    samples = []
    t_line = np.linspace(t_lo, t_hi, max(3, count // 10))
    for i in range(count):
        x = lo + rng.random(n) * (hi - lo)
        t = float(t_line[i % t_line.size]) if i % 2 == 0 else float(
            t_lo + rng.random() * (t_hi - t_lo)
        )
        if i % 2 == 0:
            xi = rng.standard_normal(n).astype(complex)
        else:
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi = xi / np.linalg.norm(xi)
        samples.append((x, t, xi))
    # Hit the t-range endpoints explicitly: the worst margins often live there.
    x_mid = 0.5 * (lo + hi)
    e = np.zeros(n, dtype=complex)
    e[0] = 1.0
    samples.append((x_mid, t_lo, e))
    samples.append((x_mid, t_hi, e))
    return samples


def validate_class_H(
    family: AdmittivityFamily,
    apriori: AprioriData,
    samples: Sequence,
) -> ValidationReport:
    """Check membership of the family in the admissible class on samples.

    Sampled-grid verification only; the Sobolev-norm conditions are reduced to
    pointwise sup bounds (|A| + |D_x A| + |D_t A| + |D_t D_x A| <= E with
    spatial derivatives by central differences).  Failures are reported with
    margins, never raised.
    """
    if not samples:
        raise ConfigError("samples must be nonempty")
    k = apriori.k
    tol = SYM_TOL

    ar_lo = np.inf
    ar_hi = np.inf
    ai_min = np.inf
    ai_max = -np.inf
    mono = np.inf
    bound = np.inf
    comm = 0.0
    norm_sum_max = 0.0
    dx = 1e-5 * max(apriori.diam, 1.0)

    for x, t, xi in samples:
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=complex)
        AR = family.real_part(x, t)
        AI = family.imag_part(x, t)
        DR = family.dt_real(x, t)
        DI = family.dt_imag(x, t)

        eig_R = np.linalg.eigvalsh(AR)
        eig_I = np.linalg.eigvalsh(AI)
        ar_lo = min(ar_lo, eig_R[0] - 1.0 / apriori.e1)
        ar_hi = min(ar_hi, apriori.e1 - eig_R[-1])
        ai_min = min(ai_min, eig_I[0])
        ai_max = max(ai_max, eig_I[-1])

        # Re((D_t A) xi . conj(xi)) reduces to the Hermitian quadratic form of
        # D_t A_R because both t-derivative parts are real symmetric.
        quad = np.real(np.conj(xi) @ ((DR + 1j * k * DI) @ xi))
        mono = min(mono, quad / float(np.real(np.conj(xi) @ xi)) - 1.0 / apriori.dcal)
        mono = min(mono, np.linalg.eigvalsh(DR)[0] - 1.0 / apriori.dcal)

        nR = spectral_norm_sym(AR)
        nI = spectral_norm_sym(AI)
        bound = min(bound, (apriori.e1**2 + k**2 * apriori.e2**2) - (nR**2 + (k * nI) ** 2))
        comm = max(comm, float(np.max(np.abs(AR @ AI - AI @ AR))))

        # Pointwise surrogate of the norm bound: |A| + |DxA| + |DtA| + |DtDxA|.
        dxA = 0.0
        dxDtA = 0.0
        for axis in range(family.dim):
            step = np.zeros(family.dim)
            step[axis] = dx
            dA = (family(x + step, t) - family(x - step, t)) / (2 * dx)
            dD = (family.dt(x + step, t) - family.dt(x - step, t)) / (2 * dx)
            dxA = max(dxA, float(np.max(np.abs(dA))))
            dxDtA = max(dxDtA, float(np.max(np.abs(dD))))
        nA = float(np.max(np.abs(AR + 1j * k * AI)))
        nDt = float(np.max(np.abs(DR + 1j * k * DI)))
        norm_sum_max = max(norm_sum_max, nA + dxA + nDt + dxDtA)

    conditions = [
        ConditionCheck("real-part-lower", float(ar_lo), ar_lo >= -tol),
        ConditionCheck("real-part-upper", float(ar_hi), ar_hi >= -tol),
    ]

    if ai_min >= -tol and ai_max >= 0.0:
        branch = "positive-definite"
        lo_m = ai_min - 1.0 / apriori.e2
        hi_m = apriori.e2 - ai_max
    elif ai_max <= tol and ai_min <= 0.0:
        branch = "negative-definite"
        lo_m = -1.0 / apriori.e2 - ai_max
        hi_m = ai_min + apriori.e2
    else:
        branch = "indefinite"
        lo_m = hi_m = -max(abs(ai_min), abs(ai_max))
    conditions.append(
        ConditionCheck("imag-part-lower", float(lo_m), lo_m >= -tol, note=branch)
    )
    conditions.append(
        ConditionCheck("imag-part-upper", float(hi_m), hi_m >= -tol and branch != "indefinite")
    )
    conditions.append(ConditionCheck("monotonicity", float(mono), mono >= -tol))
    conditions.append(ConditionCheck("norm-bound", float(bound), bound >= -tol))
    comm_margin = 1e-10 - comm
    conditions.append(
        ConditionCheck("commuting", float(comm_margin), comm_margin >= 0.0,
                       note="sampled commutator norm")
    )
    sob_margin = apriori.bigE - norm_sum_max
    conditions.append(
        ConditionCheck("sampled-norm-sum", float(sob_margin), sob_margin >= -tol,
                       note="pointwise surrogate")
    )
    return ValidationReport(conditions=conditions, branch=branch)


def check_parameter_field(a: ParameterField, apriori: AprioriData, points) -> ValidationReport:
    """Sampled range check 1/lambda <= a(x) <= lambda."""
    vals = a(np.asarray(points, dtype=float))
    lo_m = float(np.min(vals) - 1.0 / apriori.lam)
    hi_m = float(apriori.lam - np.max(vals))
    conditions = [
        ConditionCheck("a-range-lower", lo_m, lo_m >= -SYM_TOL),
        ConditionCheck("a-range-upper", hi_m, hi_m >= -SYM_TOL),
    ]
    return ValidationReport(conditions=conditions)

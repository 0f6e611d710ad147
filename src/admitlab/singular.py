"""Order-m singular solutions with frozen coefficients and FEM correctors.

The leading term is built from the inverse admittivity frozen at the
singularity z: with B = A^{-1}(z, a(z)), Q(x) = B (x-z).(x-z) and

    t(x) = B_n.(x-z) / (B_nn^{1/2} Q(x)^{1/2}),

the solution is Q^{(2-n-m)/2} m! B_nn^{m/2} C_m^{(n-2)/2}(t).  All complex
powers take principal branches; ellipticity of the real part of B keeps
Re Q > 0 so no branch cut is ever crossed.  The corrector solves the
variable-coefficient problem on the enlarged domain with boundary data -u_m,
which kills the trace outside the patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .admittivity import AdmittivityFamily, ParameterField, complex_dot
from .errors import ConfigError, GeometryError, NumericError, SingularityError
from .fem import BlockSystem, LatticeVertices, Mesh, SubstructuredSystem
from .gegenbauer import (GegenbauerSpec, gegenbauer, gegenbauer_derivative)
from .geometry import EnlargedDomain


@dataclass(frozen=True)
class SingularProbe:
    """Frozen-coefficient singular solution data of order m at point z."""

    z: tuple
    m: int
    n: int
    frozen_inv: np.ndarray
    frozen_mat: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.frozen_inv)
        if B.shape != (self.n, self.n):
            raise ConfigError("frozen inverse has the wrong shape")
        if np.linalg.eigvalsh(0.5 * (B.real + B.real.T))[0] <= 0.0:
            raise NumericError("real part of the frozen inverse is not positive definite")
        if B[-1, -1].real <= 0.0:
            raise NumericError("corner entry of the frozen inverse has nonpositive real part")

    @property
    def z_arr(self) -> np.ndarray:
        return np.asarray(self.z, dtype=float)

    @property
    def spec(self) -> GegenbauerSpec:
        return GegenbauerSpec.for_dimension(self.m, self.n)

    @property
    def coeff(self) -> complex:
        """m! (B_nn)^{m/2} with the principal branch."""
        B_nn = complex(self.frozen_inv[-1, -1])
        return float(math.factorial(self.m)) * B_nn ** (self.m / 2.0)


def _symmetric_inverse(A: np.ndarray) -> np.ndarray:
    """Symmetric part of A^{-1}."""
    B = np.linalg.inv(A)
    return 0.5 * (B + B.T)


def make_probe(family: AdmittivityFamily, a: ParameterField, z, m: int) -> SingularProbe:
    """Probe with coefficients frozen at (z, a(z))."""
    z = np.asarray(z, dtype=float)
    return probe_from_matrix(family(z, float(np.asarray(a.values(z)))), z, m)


def probe_from_matrix(A: np.ndarray, z, m: int) -> SingularProbe:
    """Probe for an explicitly given frozen matrix."""
    A = np.asarray(A, dtype=complex)
    return SingularProbe(z=tuple(np.asarray(z, dtype=float)), m=m,
                         n=A.shape[0], frozen_inv=_symmetric_inverse(A), frozen_mat=A)


def _offsets(probe: SingularProbe, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    xh = x - probe.z_arr
    r2 = np.sum(xh * xh, axis=-1)
    if np.any(r2 == 0.0):
        raise SingularityError("evaluation point coincides with the singularity")
    return xh


def _q_and_t(probe: SingularProbe, xh):
    B = probe.frozen_inv
    Bx = xh @ B
    Q = complex_dot(Bx, xh)
    B_nn = complex(B[-1, -1])
    t = (xh @ B[-1, :]) / (np.sqrt(B_nn) * np.sqrt(Q))
    return Q, t, Bx, B_nn


def leading_term(probe: SingularProbe, x):
    """Frozen-coefficient singular solution of order m at x (vectorised)."""
    xh = _offsets(probe, x)
    Q, t, _, _ = _q_and_t(probe, xh)
    expo = (2.0 - probe.n - probe.m) / 2.0
    vals = Q**expo * probe.coeff * gegenbauer(probe.spec, t)
    if np.ndim(x) == 1:
        return complex(vals)
    return vals


def leading_gradient(probe: SingularProbe, x):
    """Closed-form gradient of the leading term (vectorised)."""
    squeeze = np.ndim(x) == 1
    xh = _offsets(probe, np.atleast_2d(np.asarray(x, dtype=float)))
    Q, t, Bx, B_nn = _q_and_t(probe, xh)
    B_n = probe.frozen_inv[-1, :]
    m, n = probe.m, probe.n
    C = np.asarray(gegenbauer(probe.spec, t))
    Cp = np.asarray(gegenbauer_derivative(probe.spec, t))
    Q = np.asarray(Q, dtype=complex)
    t_dot = np.asarray(xh @ B_n, dtype=complex)
    dt = (Q[:, None] * B_n[None, :] - t_dot[:, None] * Bx) / (
        np.sqrt(B_nn) * Q[:, None] ** 1.5
    )
    expo = (2.0 - n - m) / 2.0
    grad = probe.coeff * (
        Q[:, None] ** expo * Cp[:, None] * dt
        + (2.0 - n - m) * Q[:, None] ** (expo - 1.0) * C[:, None] * Bx
    )
    return grad[0] if squeeze else grad


def h_function(probe: SingularProbe, x):
    """Scale-invariant gradient weight |x-z|^{2n+2m-2} |Du_m|^2."""
    xh = _offsets(probe, x)
    r2 = np.sum(xh * xh, axis=-1)
    g = leading_gradient(probe, x)
    g2 = np.sum(np.abs(g) ** 2, axis=-1)
    out = r2 ** (probe.n + probe.m - 1.0) * g2
    if np.ndim(x) == 1:
        return float(out)
    return out


def fibonacci_sphere(count: int) -> np.ndarray:
    """Quasi-uniform points on the unit 2-sphere."""
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + 5.0**0.5) * i
    return np.stack(
        [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)],
        axis=-1,
    )


def sphere_min_h(probe: SingularProbe, samples: int = 4096, seed: int = 0) -> float:
    """Empirical minimum of h over the unit sphere around the singularity.

    Strict positivity is the gradient lower bound near the singularity; a
    nonpositive minimum means the probe construction broke down.
    """
    if samples < 1000:
        raise ConfigError("at least 1000 sphere samples are required")
    if probe.n == 3:
        dirs = fibonacci_sphere(samples)
    else:
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((samples, probe.n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = h_function(probe, probe.z_arr[None, :] + dirs)
    out = float(np.min(vals))
    if out <= 0.0:
        raise NumericError(f"sphere minimum of the gradient weight is {out}")
    return out


def pde_residual_leading(probe: SingularProbe, x, step: float) -> complex:
    """Finite-difference residual of the frozen operator on the leading term.

    Second-order stencils for sum_ij A_ij d_i d_j u; the exact residual is
    zero, so the return value is pure truncation error of size O(step^2).
    """
    x = np.asarray(x, dtype=float)
    dist = float(np.linalg.norm(x - probe.z_arr))
    if dist < 10.0 * step:
        raise ConfigError(
            f"step {step} too large at distance {dist}; need dist >= 10*step"
        )
    A = probe.frozen_mat
    n = probe.n
    pts = [x]
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        pts.extend([x + e, x - e])
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = step
            ej[j] = step
            pts.extend([x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej])
    vals = leading_term(probe, np.asarray(pts))
    u0 = vals[0]
    res = 0.0 + 0.0j
    idx = 1
    for i in range(n):
        res += A[i, i] * (vals[idx] - 2.0 * u0 + vals[idx + 1]) / step**2
        idx += 2
    for i in range(n):
        for j in range(i + 1, n):
            mixed = (vals[idx] - vals[idx + 1] - vals[idx + 2] + vals[idx + 3]) / (
                4.0 * step**2
            )
            res += 2.0 * A[i, j] * mixed
            idx += 4
    return complex(res)


@dataclass(frozen=True, eq=False)
class CorrectedProbe:
    """Leading term plus FEM corrector with patch-supported boundary trace:
    the corrector's values (n,) at the vertices `mesh_eta` of the enlarged
    domain, Omega's first."""

    probe: SingularProbe
    corrector: np.ndarray
    mesh_eta: Mesh | LatticeVertices
    enlarged: EnlargedDomain

    def total_at_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """u_m + corrector at the given vertices of the enlarged domain.

        Exactly zero at the enlarged boundary by construction of the data.
        """
        mesh = self.mesh_eta
        vals = np.zeros(len(nodes), dtype=complex)
        free = ~mesh.boundary_vertex_mask[nodes]
        inner = nodes[free]
        vals[free] = leading_term(self.probe, mesh.verts[inner]) + self.corrector[inner]
        return vals

    def trace_vector(self, mesh_omega: Mesh) -> np.ndarray:
        """Nodal boundary trace on the original domain mesh (zero interior).

        The enlarged domain numbers Omega's vertices first, in Omega's
        order, so vertex i of `mesh_omega` is vertex i there.
        """
        trace = np.zeros(mesh_omega.n_vertices, dtype=complex)
        bnd = mesh_omega.boundary_vertex_mask
        trace[bnd] = self.total_at_nodes(np.flatnonzero(bnd))
        return trace


def build_corrected_probe(
    probes: Sequence[SingularProbe],
    enlarged: EnlargedDomain,
    system: BlockSystem | SubstructuredSystem,
) -> list:
    """Correctors for a sequence of probes from one multi-column solve of
    the system of the enlarged domain, whose `mesh` numbers Omega's
    vertices first: the `SubstructuredSystem` of the Omega and bump
    systems, or any system on such vertices; every trace dies off the
    patch.

    Returns one CorrectedProbe per probe, in order.
    """
    mesh_eta = system.mesh
    verts = mesh_eta.verts
    for probe in probes:
        z = probe.z_arr
        if enlarged.box.contains(z):
            raise GeometryError(f"singularity {tuple(z)} lies inside the closed domain")
        if not enlarged.contains(z):
            raise GeometryError(f"singularity {tuple(z)} lies outside the enlarged domain")
        if enlarged.boundary_distance(z) < enlarged.eta / 2.0 - 1e-12:
            raise GeometryError(
                "singularity too close to the enlarged boundary; shrink tau"
            )
        if float(np.min(np.linalg.norm(verts - z, axis=1))) < 1e-9:
            raise GeometryError("singularity coincides with a mesh vertex")
    bnd = mesh_eta.boundary_vertex_mask
    g = np.zeros((mesh_eta.n_vertices, len(probes)), dtype=complex)
    for j, probe in enumerate(probes):
        g[bnd, j] = -leading_term(probe, verts[bnd])
    correctors = system.solve_dirichlet(g)
    return [
        CorrectedProbe(probe=probe, corrector=correctors[:, j], mesh_eta=mesh_eta,
                       enlarged=enlarged)
        for j, probe in enumerate(probes)
    ]

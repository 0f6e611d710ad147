"""Local Dirichlet-to-Neumann matrices on a patch-supported hat basis.

The discrete trace space is spanned by boundary hat functions whose support
stays inside the patch.  The pairing entry (i, j) is the bilinear energy of
the solution with hat data i against the zero-interior lifting of hat j; the
trace-space Gram combines the harmonic-extension Schur complement of the
Laplacian with the patch boundary mass matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .admittivity import AdmittivityFamily, ParameterField
from .errors import ConfigError, NumericError
from .fem import BlockSystem, Mesh, assemble, energy_density, stiffness_stencil
from .geometry import BoundaryPatch

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class SigmaBasis:
    """Boundary hat functions supported strictly inside the patch."""

    mesh: Mesh
    vertices: tuple

    @property
    def count(self) -> int:
        return len(self.vertices)

    def expand(self, coeffs) -> np.ndarray:
        """Full-length nodal Dirichlet vector from basis coefficients."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.count,):
            raise ConfigError("coefficient vector does not match the basis")
        g = np.zeros(self.mesh.n_vertices, dtype=complex)
        g[list(self.vertices)] = coeffs
        return g

    def restrict(self, nodal) -> np.ndarray:
        return np.asarray(nodal, dtype=complex)[list(self.vertices)]


def sigma_basis(mesh: Mesh, patch: BoundaryPatch) -> SigmaBasis:
    """Basis vertices: every incident boundary triangle is patch-tagged."""
    tris, on_sigma = mesh.boundary_tris, mesh.sigma_mask
    # Incident patch-tagged and other boundary triangles of each vertex.
    n_sigma = np.bincount(tris[on_sigma].ravel(), minlength=mesh.n_vertices)
    n_other = np.bincount(tris[~on_sigma].ravel(), minlength=mesh.n_vertices)
    verts = np.where((n_sigma > 0) & (n_other == 0))[0]
    if verts.size == 0:
        raise ConfigError(
            "no patch-supported hat functions on this mesh; refine h or widen the patch"
        )
    return SigmaBasis(mesh=mesh, vertices=tuple(int(v) for v in np.sort(verts)))


@dataclass(frozen=True)
class LocalDtnMatrix:
    """Discrete local DtN form and the trace-space Gram on a shared basis."""

    basis: SigmaBasis
    pairing: np.ndarray
    gram: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.count

    def max_asymmetry(self) -> float:
        return float(np.max(np.abs(self.pairing - self.pairing.T)))


def boundary_mass_sigma(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix over the patch-tagged boundary triangles.

    One np.bincount over the sorted row * n + col keys adds the element
    blocks in triangle order.
    """
    import scipy.sparse as sp

    tris = mesh.boundary_tris[mesh.sigma_mask]
    pts = mesh.verts[tris]
    areas = 0.5 * np.linalg.norm(
        np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]), axis=1
    )
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    vals = areas[:, None, None] * local[None, :, :]
    n = mesh.n_vertices
    keys, slots = np.unique((tris[:, :, None] * n + tris[:, None, :]).ravel(),
                            return_inverse=True)
    return sp.csr_matrix((np.bincount(slots, weights=vals.ravel()), np.divmod(keys, n)),
                         shape=(n, n))


def h_half_gram(mesh: Mesh, basis: SigmaBasis) -> np.ndarray:
    """Trace-space Gram: Laplace Schur complement onto the basis plus mass.

    Interior dofs are eliminated by static condensation while the remaining
    boundary dofs are pinned to zero, which realises the minimal-energy
    extension of traces vanishing off the patch.  Every interior row of the
    Laplacian is the same 7-point stencil, so its system reads itself as
    layered along every axis.  The mesh is the box and the basis lies
    inside one face, so the Laplacian's Schur complement is the closed form
    of `BlockSystem.schur_onto`, diagonal in the face's sine basis, checked
    by one layered solve of a few combinations of its columns; no column is
    solved.
    """
    laplace = BlockSystem.from_stencil(mesh, stiffness_stencil(mesh, np.eye(3)))
    sig = np.asarray(basis.vertices, dtype=int)
    schur = laplace.schur_onto(sig)
    mass = boundary_mass_sigma(mesh)[np.ix_(sig, sig)].toarray()
    gram = schur + mass
    gram = 0.5 * (gram + gram.T)
    if np.linalg.eigvalsh(gram)[0] <= 0.0:
        raise NumericError("trace-space Gram is not positive definite")
    return gram


def assemble_dtn(system: BlockSystem, basis: SigmaBasis, gram: np.ndarray) -> LocalDtnMatrix:
    """Local DtN pairing of an assembled system from one multi-column
    interior solve.

    pairing[i, j] is the energy of the solution with hat data i against the
    zero-interior lifting of hat j: the flux of solution i at vertex j, which
    is the transposed Schur complement of the system onto the basis.
    """
    pairing = system.schur_onto(basis.vertices).T
    return LocalDtnMatrix(basis=basis, pairing=pairing, gram=gram)


def operator_norm(delta_pairing: np.ndarray, gram: np.ndarray) -> float:
    """Largest singular value of G^{-1/2} (P1 - P2) G^{-1/2}."""
    w, V = np.linalg.eigh(gram)
    if w[0] <= 0.0:
        raise NumericError("Gram matrix is not positive definite")
    g_inv_half = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    B = g_inv_half @ delta_pairing @ g_inv_half
    return float(np.linalg.svd(B, compute_uv=False)[0])


def dtn_star_norm(dtn1: LocalDtnMatrix, dtn2: LocalDtnMatrix) -> float:
    """Operator norm of the DtN difference in the discrete trace topology."""
    if dtn1.basis.vertices != dtn2.basis.vertices:
        raise ConfigError("DtN matrices were assembled on different bases")
    if not np.allclose(dtn1.gram, dtn2.gram, rtol=0.0, atol=1e-12):
        raise ConfigError("DtN matrices carry different Gram matrices")
    return operator_norm(dtn1.pairing - dtn2.pairing, dtn1.gram)


def monte_carlo_star_norm(
    delta_pairing: np.ndarray, gram: np.ndarray, draws: int, seed: int = 0
) -> float:
    """Monte Carlo sup of |<(L1 - L2) f, conj(g)>| over random unit pairs.

    For each random unit g the maximising f is taken in closed form, so the
    estimate needs only enough draws to align g with the top singular vector.
    Serves as the independent check of the singular-value route.
    """
    w, V = np.linalg.eigh(gram)
    if w[0] <= 0.0:
        raise NumericError("Gram matrix is not positive definite")
    g_inv_half = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    B = g_inv_half @ delta_pairing @ g_inv_half
    rng = np.random.default_rng(seed)
    d = B.shape[0]
    best = 0.0
    block = 4096
    done = 0
    while done < draws:
        nb = min(block, draws - done)
        g = rng.standard_normal((nb, d)) + 1j * rng.standard_normal((nb, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        vals = np.linalg.norm(g @ B.T, axis=1)
        best = max(best, float(np.max(vals)))
        done += nb
    return best


def alessandrini_gap(
    mesh: Mesh,
    family: AdmittivityFamily,
    a1: ParameterField,
    a2: ParameterField,
    f1,
    f2,
    patch: BoundaryPatch,
    dtn1: LocalDtnMatrix = None,
    dtn2: LocalDtnMatrix = None,
) -> complex:
    """Residual of the bilinear DtN-difference identity for hat-basis data.

    Left side: f1^T (P1 - P2) f2 through the assembled pairings.  Right side:
    the volume integral of (A1 - A2) grad(u1) . grad(u2) with u_i the discrete
    solutions.  The residual is zero in exact arithmetic.
    """
    basis = dtn1.basis if dtn1 is not None else sigma_basis(mesh, patch)
    gram = dtn1.gram if dtn1 is not None else h_half_gram(mesh, basis)
    system1 = assemble(mesh, family, a1, family.freq)
    system2 = assemble(mesh, family, a2, family.freq)
    if dtn1 is None:
        dtn1 = assemble_dtn(system1, basis, gram)
    if dtn2 is None:
        dtn2 = assemble_dtn(system2, basis, gram)
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    lhs = f1 @ (dtn1.pairing - dtn2.pairing) @ f2

    u1 = system1.solve_dirichlet(basis.expand(f1))
    u2 = system2.solve_dirichlet(basis.expand(f2))
    bary = mesh.barycenters()
    t1 = np.asarray(a1.values(bary), dtype=float)
    t2 = np.asarray(a2.values(bary), dtype=float)
    dA = family(bary, t1) - family(bary, t2)
    rhs = complex(np.sum(energy_density(mesh, dA, u1, u2)))
    return lhs - rhs

"""Builtin admittivity family templates and scalar parameter fields.

Templates are what the experiment configs name: "scalar-times-identity",
"diagonal-affine" and "rotated-anisotropic".  Each builder returns an
AdmittivityFamily whose callables broadcast over point arrays.
"""

from __future__ import annotations

import numpy as np

from .admittivity import AdmittivityFamily, ParameterField
from .errors import ConfigError


def _constant_matrix_family(x, t, mat):
    x = np.asarray(x, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if x.ndim == 1:
        return mat.copy()
    n_pts = x.shape[0] if t_arr.ndim == 0 else max(x.shape[0], t_arr.shape[0])
    return np.broadcast_to(mat, (n_pts,) + mat.shape).copy()


def _linear_in_t_family(x, t, slope_mat, offset_mat):
    """slope_mat * t + offset_mat, broadcast over points."""
    x = np.asarray(x, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if x.ndim == 1 and t_arr.ndim == 0:
        return slope_mat * float(t_arr) + offset_mat
    n_pts = x.shape[0] if x.ndim > 1 else t_arr.shape[0]
    if t_arr.ndim == 0:
        t_arr = np.full(n_pts, float(t_arr))
    return slope_mat[None, :, :] * t_arr[:, None, None] + offset_mat[None, :, :]


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a 3-vector axis."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ConfigError("rotation axis must be nonzero")
    u = axis / norm
    K = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def _affine_family(name, k, t_range, S_R, O_R, S_I, O_I) -> AdmittivityFamily:
    """The family A_R = S_R t + O_R, A_I = S_I t + O_I of constant
    matrices, so D_t A_R = S_R and D_t A_I = S_I.  S_I = None marks an A_I
    constant in t: it is O_I at every point, and D_t A_I is zero."""
    zero = np.zeros_like(O_R)

    def evalR(x, t):
        return _linear_in_t_family(x, t, S_R, O_R)

    def evalI(x, t):
        if S_I is None:
            return _constant_matrix_family(x, t, O_I)
        return _linear_in_t_family(x, t, S_I, O_I)

    def evalDtR(x, t):
        return _constant_matrix_family(x, t, S_R)

    def evalDtI(x, t):
        return _constant_matrix_family(x, t, zero if S_I is None else S_I)

    return AdmittivityFamily(
        dim=len(O_R), freq=k, evalR=evalR, evalI=evalI, evalDtR=evalDtR,
        evalDtI=evalDtI, name=name, t_range=t_range,
    )


def scalar_identity_family(dim=3, k=0.0, imag=1.0, imag_slope=0.0, t_range=None):
    """A_R = t I and A_I = (imag + imag_slope * t) I."""
    eye = np.eye(dim)
    return _affine_family("scalar-times-identity", k, t_range, eye, np.zeros((dim, dim)),
                          imag_slope * eye, imag * eye)


def diagonal_affine_family(dim=3, k=0.0, slope=None, offset=None, imag=None, t_range=None):
    """A_R = diag(slope) t + diag(offset), A_I = diag(imag)."""
    slope = np.ones(dim) if slope is None else np.asarray(slope, dtype=float)
    offset = np.zeros(dim) if offset is None else np.asarray(offset, dtype=float)
    imag = np.ones(dim) if imag is None else np.asarray(imag, dtype=float)
    if not (slope.size == offset.size == imag.size == dim):
        raise ConfigError("diagonal parameter lengths must equal the dimension")
    return _affine_family("diagonal-affine", k, t_range, np.diag(slope), np.diag(offset),
                          None, np.diag(imag))


def rotated_anisotropic_family(
    k=0.0, eps=0.3, axis=(1.0, 1.0, 1.0), angle=0.5, imag=1.0, imag_eps=0.0,
    t_range=None,
):
    """A_R = t (I + eps N), A_I = imag (I + imag_eps N) with a rotated
    traceless anisotropy N = R diag(1, 0, -1) R^T.  Three-dimensional only."""
    R = rotation_matrix(axis, angle)
    N = R @ np.diag([1.0, 0.0, -1.0]) @ R.T
    N = 0.5 * (N + N.T)
    M_R = np.eye(3) + eps * N
    M_I = imag * (np.eye(3) + imag_eps * N)
    if np.linalg.eigvalsh(M_R)[0] <= 0.0:
        raise ConfigError(f"anisotropy strength eps={eps} destroys ellipticity")
    return _affine_family("rotated-anisotropic", k, t_range, M_R, np.zeros((3, 3)), None, M_I)


FAMILY_TEMPLATES = {
    "scalar-times-identity": scalar_identity_family,
    "diagonal-affine": diagonal_affine_family,
    "rotated-anisotropic": rotated_anisotropic_family,
}


def build_family(template: str, k: float, params: dict = None, t_range=None) -> AdmittivityFamily:
    if template not in FAMILY_TEMPLATES:
        raise ConfigError(
            f"unknown family template '{template}'; "
            f"choose from {sorted(FAMILY_TEMPLATES)}"
        )
    params = dict(params or {})
    return FAMILY_TEMPLATES[template](k=k, t_range=t_range, **params)


def constant_field(value: float) -> ParameterField:
    def values(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(value)
        return np.full(x.shape[0], float(value))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    return ParameterField(values=values, grad=grad, name=f"constant({value})")


def affine_field(offset: float, gradient) -> ParameterField:
    g = np.asarray(gradient, dtype=float)

    def values(x):
        x = np.asarray(x, dtype=float)
        return float(offset) + x @ g

    def grad(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return g.copy()
        return np.broadcast_to(g, x.shape).copy()

    return ParameterField(values=values, grad=grad, name=f"affine({offset},{list(g)})")


def gaussian_bump_field(base: float, amplitude: float, center, width: float) -> ParameterField:
    c = np.asarray(center, dtype=float)
    w2 = float(width) ** 2

    def values(x):
        x = np.asarray(x, dtype=float)
        d2 = np.sum((x - c) ** 2, axis=-1)
        return float(base) + float(amplitude) * np.exp(-d2 / w2)

    def grad(x):
        x = np.asarray(x, dtype=float)
        d2 = np.sum((x - c) ** 2, axis=-1)
        factor = float(amplitude) * np.exp(-d2 / w2) * (-2.0 / w2)
        return (x - c) * (factor[..., None] if np.ndim(d2) else factor)

    return ParameterField(
        values=values, grad=grad,
        name=f"bump({base},{amplitude},{list(c)},{width})",
    )


# The keys of each parameter field kind's config mapping, besides "kind".
FIELD_KEYS = {"constant": ("value",), "affine": ("offset", "gradient"),
              "bump": ("base", "amplitude", "center", "width")}


def build_field(spec: dict) -> ParameterField:
    """Parameter field from a config mapping {kind: ..., ...}."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind == "constant":
        return constant_field(float(spec["value"]))
    if kind == "affine":
        return affine_field(float(spec["offset"]), spec["gradient"])
    if kind == "bump":
        return gaussian_bump_field(
            float(spec["base"]), float(spec["amplitude"]),
            spec["center"], float(spec["width"]),
        )
    raise ConfigError(f"unknown parameter field kind '{kind}'; choose from {sorted(FIELD_KEYS)}")


def shifted_field(a: ParameterField, delta: ParameterField, scale: float) -> ParameterField:
    """a + scale * delta, used by the one-parameter sweep paths."""

    def values(x):
        return np.asarray(a.values(x)) + scale * np.asarray(delta.values(x))

    def grad(x):
        if a.grad is None or delta.grad is None:
            return None
        return np.asarray(a.grad(x)) + scale * np.asarray(delta.grad(x))

    has_grad = a.grad is not None and delta.grad is not None
    return ParameterField(
        values=values, grad=grad if has_grad else None,
        name=f"{a.name}+{scale}*{delta.name}",
    )

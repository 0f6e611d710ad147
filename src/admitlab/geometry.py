"""Box domains, boundary patches and the enlarged domain with a bump.

The laboratory restricts itself to axis-aligned boxes with the measurement
patch on a single flat face, so the non-tangential field is the constant
outward face normal and every distance used by the checks has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, GeometryError

FACE_NAMES = {"x-": (0, -1), "x+": (0, 1), "y-": (1, -1), "y+": (1, 1),
              "z-": (2, -1), "z+": (2, 1)}


def _rect_distance(point2, lo2, hi2):
    """Distance from 2-vectors (..., 2) to a closed axis-aligned rectangle."""
    p = np.asarray(point2, dtype=float)
    d = np.maximum(np.maximum(lo2 - p, p - hi2), 0.0)
    return np.hypot(d[..., 0], d[..., 1])


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [lo, hi], the computational domain."""

    lo: Tuple[float, float, float]
    hi: Tuple[float, float, float]

    def __post_init__(self):
        lo, hi = np.asarray(self.lo, float), np.asarray(self.hi, float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ConfigError("box corners must be 3-vectors")
        if not np.all(lo < hi):
            raise ConfigError(f"box corners must satisfy lo < hi, got {self.lo}, {self.hi}")

    @property
    def lo_arr(self) -> np.ndarray:
        return np.asarray(self.lo, dtype=float)

    @property
    def hi_arr(self) -> np.ndarray:
        return np.asarray(self.hi, dtype=float)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi_arr - self.lo_arr))

    def contains(self, x, tol=0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo_arr - tol) and np.all(x <= self.hi_arr + tol))

    def boundary_distance(self, x) -> float:
        """Distance to the box surface, valid inside and outside."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.lo_arr, self.hi_arr
        if self.contains(x):
            return float(min(np.min(x - lo), np.min(hi - x)))
        excess = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        return float(np.linalg.norm(excess))


@dataclass(frozen=True)
class BoundaryPatch:
    """Open rectangle on one face of the box, the measurement patch."""

    box: BoxDomain
    face: str
    rect_lo: Tuple[float, float]
    rect_hi: Tuple[float, float]

    def __post_init__(self):
        if self.face not in FACE_NAMES:
            raise ConfigError(f"unknown face '{self.face}', choose from {sorted(FACE_NAMES)}")
        lo2, hi2 = np.asarray(self.rect_lo, float), np.asarray(self.rect_hi, float)
        if not np.all(lo2 < hi2):
            raise ConfigError("patch rectangle must have positive extent")
        flo, fhi = self._face_rect()
        if not (np.all(lo2 > flo) and np.all(hi2 < fhi)):
            raise ConfigError(
                f"patch rectangle {self.rect_lo}..{self.rect_hi} must lie strictly "
                f"inside the face rectangle {tuple(flo)}..{tuple(fhi)}"
            )

    @property
    def axis(self) -> int:
        return FACE_NAMES[self.face][0]

    @property
    def side(self) -> int:
        return FACE_NAMES[self.face][1]

    @property
    def tangent_axes(self) -> Tuple[int, int]:
        return tuple(a for a in range(3) if a != self.axis)

    @property
    def plane_coord(self) -> float:
        box = self.box
        return float(box.hi_arr[self.axis] if self.side > 0 else box.lo_arr[self.axis])

    @property
    def normal(self) -> np.ndarray:
        nu = np.zeros(3)
        nu[self.axis] = float(self.side)
        return nu

    def _face_rect(self):
        t1, t2 = self.tangent_axes
        box = self.box
        return (np.array([box.lo_arr[t1], box.lo_arr[t2]]),
                np.array([box.hi_arr[t1], box.hi_arr[t2]]))

    def lateral(self, x) -> np.ndarray:
        """Tangential coordinates of a 3-point (or array of points)."""
        x = np.asarray(x, dtype=float)
        t1, t2 = self.tangent_axes
        return np.stack([x[..., t1], x[..., t2]], axis=-1)

    def lift(self, uv, offset=0.0) -> np.ndarray:
        """3-point on (or offset from) the face plane from tangential coords."""
        uv = np.asarray(uv, dtype=float)
        out = np.zeros(uv.shape[:-1] + (3,))
        t1, t2 = self.tangent_axes
        out[..., t1] = uv[..., 0]
        out[..., t2] = uv[..., 1]
        out[..., self.axis] = self.plane_coord + self.side * offset
        return out

    def depth(self, x):
        """Signed distance from x to the face plane along the inward direction."""
        x = np.asarray(x, dtype=float)
        return self.side * (self.plane_coord - x[..., self.axis])

    def eta0(self) -> float:
        """Largest margin keeping the shrunken patch nonempty."""
        lo2, hi2 = np.asarray(self.rect_lo), np.asarray(self.rect_hi)
        return float(np.min(hi2 - lo2) / 2.0)


@dataclass(frozen=True)
class EtaSets:
    """Shrunken patch and its thin neighborhood for a margin eta."""

    patch: BoundaryPatch
    eta: float
    sigma_eta_lo: Tuple[float, float]
    sigma_eta_hi: Tuple[float, float]

    def sigma_distance(self, x):
        """Distance from a 3-point (float) or from (N, 3) points (array) to
        the closed shrunken patch."""
        patch = self.patch
        x = np.asarray(x, dtype=float)
        lat = _rect_distance(patch.lateral(x), np.asarray(self.sigma_eta_lo),
                             np.asarray(self.sigma_eta_hi))
        dist = np.hypot(lat, np.abs(x[..., patch.axis] - patch.plane_coord))
        return float(dist) if x.ndim == 1 else dist

    def in_u_eta(self, x) -> bool:
        return self.sigma_distance(x) < self.eta / 4.0

    def on_sigma_eta(self, x, tol=1e-12) -> bool:
        patch = self.patch
        x = np.asarray(x, dtype=float)
        if abs(x[patch.axis] - patch.plane_coord) > tol:
            return False
        uv = patch.lateral(x)
        return bool(np.all(uv >= np.asarray(self.sigma_eta_lo) - tol)
                    and np.all(uv <= np.asarray(self.sigma_eta_hi) + tol))

    def sample_u_eta(self, count: int, seed: int = 0) -> np.ndarray:
        """Quasi-uniform sample of the open neighborhood (rejection sampling)."""
        rng = np.random.default_rng(seed)
        lo2 = np.asarray(self.sigma_eta_lo) - self.eta / 4.0
        hi2 = np.asarray(self.sigma_eta_hi) + self.eta / 4.0
        # Each try reads three uniforms (u, v, offset) from the stream, so
        # drawing tries in batches keeps the accepted points of the
        # one-try-at-a-time loop.
        pts = np.empty((0, 3))
        while len(pts) < count:
            draws = rng.random((2 * (count - len(pts)) + 16, 3))
            uv = lo2 + draws[:, :2] * (hi2 - lo2)
            off = (draws[:, 2] - 0.5) * self.eta / 2.0
            x = self.patch.lift(uv, offset=off)
            pts = np.concatenate([pts, x[self.sigma_distance(x) < self.eta / 4.0]])
        return pts[:count]


def build_eta_sets(patch: BoundaryPatch, eta: float) -> EtaSets:
    """Inset the patch rectangle by eta; error when the inset is empty."""
    if eta <= 0.0:
        raise GeometryError(f"eta must be positive, got {eta}")
    eta0 = patch.eta0()
    if eta >= eta0:
        raise GeometryError(
            f"eta={eta} >= eta0={eta0}: the shrunken patch would be empty"
        )
    lo2 = np.asarray(patch.rect_lo) + eta
    hi2 = np.asarray(patch.rect_hi) - eta
    return EtaSets(patch=patch, eta=eta, sigma_eta_lo=tuple(map(float, lo2)),
                   sigma_eta_hi=tuple(map(float, hi2)))


def make_tau_grid(start: float, ratio: float, count: int) -> tuple:
    if start <= 0.0 or not (0.0 < ratio < 1.0) or count < 1:
        raise ConfigError(f"invalid tau grid: start={start}, ratio={ratio}, count={count}")
    return tuple(start * ratio**i for i in range(count))


@dataclass(frozen=True)
class ProbePath:
    """Exterior probe positions x0 + tau * nu over a decreasing tau grid."""

    eta_sets: EtaSets
    x0: Tuple[float, float, float]
    tau_grid: tuple
    tau0: Optional[float] = None

    def __post_init__(self):
        es = self.eta_sets
        if not es.on_sigma_eta(self.x0):
            raise GeometryError(f"probe anchor {self.x0} is not on the shrunken patch")
        cap = self.tau_cap
        taus = np.asarray(self.tau_grid, dtype=float)
        if taus.size == 0 or np.any(taus <= 0.0) or np.any(taus > cap + 1e-12):
            raise GeometryError(
                f"tau grid must lie in (0, {cap}]; got {self.tau_grid}"
            )
        if np.any(np.diff(taus) >= 0.0):
            raise GeometryError("tau grid must be strictly decreasing")

    @property
    def tau_cap(self) -> float:
        cap = self.eta_sets.eta / 8.0
        if self.tau0 is not None:
            cap = min(cap, self.tau0)
        return cap

    @property
    def nu_tilde(self) -> np.ndarray:
        return self.eta_sets.patch.normal


def probe_point(path: ProbePath, tau: float) -> np.ndarray:
    """z_tau = x0 + tau * nu; lies outside the closed box at distance tau."""
    if not (0.0 < tau <= path.tau_cap + 1e-12):
        raise GeometryError(f"tau={tau} outside admissible interval (0, {path.tau_cap}]")
    z = np.asarray(path.x0, dtype=float) + tau * path.nu_tilde
    box = path.eta_sets.patch.box
    if box.contains(z):
        raise GeometryError(f"probe point {z} fell inside the closed domain")
    return z


def check_probe_points_off_lattice(path: ProbePath, h: float, anchor) -> None:
    """GeometryError naming the first tau whose probe point z_tau is within
    1e-9 of a vertex of the lattice of pitch h through `anchor`, the
    lattice of every mesh of the domain and its enlargement.  A corrector
    cannot take its singular data at a mesh vertex, and this is known from
    h, x0, nu and the tau grid before any mesh is built."""
    anchor = np.asarray(anchor, dtype=float)
    for tau in path.tau_grid:
        offset = probe_point(path, tau) - anchor
        if np.linalg.norm(offset - h * np.rint(offset / h)) < 1e-9:
            raise GeometryError(
                f"probe point at tau={tau:.6g} is a mesh vertex at pitch h={h:.6g}; "
                "change the tau grid or the mesh pitch")


@dataclass(frozen=True)
class EnlargedDomain:
    """Box domain with a grid-compatible bump attached over the patch."""

    box: BoxDomain
    patch: BoundaryPatch
    eta: float
    base_lo: Tuple[float, float]
    base_hi: Tuple[float, float]
    thickness: float

    @property
    def bump_box(self) -> Tuple[np.ndarray, np.ndarray]:
        patch = self.patch
        t1, t2 = patch.tangent_axes
        lo = self.box.lo_arr.copy()
        hi = self.box.hi_arr.copy()
        lo[t1], hi[t1] = self.base_lo[0], self.base_hi[0]
        lo[t2], hi[t2] = self.base_lo[1], self.base_hi[1]
        if patch.side > 0:
            lo[patch.axis] = patch.plane_coord
            hi[patch.axis] = patch.plane_coord + self.thickness
        else:
            lo[patch.axis] = patch.plane_coord - self.thickness
            hi[patch.axis] = patch.plane_coord
        return lo, hi

    def contains(self, x, tol=0.0) -> bool:
        if self.box.contains(x, tol=tol):
            return True
        lo, hi = self.bump_box
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= lo - tol) and np.all(x <= hi + tol))

    def _boundary_pieces(self):
        """Axis-aligned boundary rectangles (axis, coord, lo2, hi2, hole)."""
        pieces = []
        box, patch = self.box, self.patch
        for axis in range(3):
            others = tuple(a for a in range(3) if a != axis)
            lo2 = np.array([box.lo_arr[others[0]], box.lo_arr[others[1]]])
            hi2 = np.array([box.hi_arr[others[0]], box.hi_arr[others[1]]])
            for side, coord in ((-1, box.lo_arr[axis]), (1, box.hi_arr[axis])):
                hole = None
                if axis == patch.axis and side == patch.side:
                    hole = (np.asarray(self.base_lo), np.asarray(self.base_hi))
                pieces.append((axis, coord, lo2, hi2, hole))
        blo, bhi = self.bump_box
        a = patch.axis
        top_coord = bhi[a] if patch.side > 0 else blo[a]
        others = patch.tangent_axes
        pieces.append((a, top_coord, np.asarray(self.base_lo), np.asarray(self.base_hi), None))
        for t_axis in others:
            rest = tuple(x for x in range(3) if x != t_axis)
            lo2 = np.array([blo[rest[0]], blo[rest[1]]])
            hi2 = np.array([bhi[rest[0]], bhi[rest[1]]])
            pieces.append((t_axis, blo[t_axis], lo2, hi2, None))
            pieces.append((t_axis, bhi[t_axis], lo2, hi2, None))
        return pieces

    def boundary_distance(self, x):
        """Exact distance to the boundary of the enlarged domain.

        A 3-point gives a float, an (N, 3) array of points an (N,) array.
        """
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, 3)
        best = np.full(len(pts), np.inf)
        for axis, coord, lo2, hi2, hole in self._boundary_pieces():
            others = [a for a in range(3) if a != axis]
            p2 = pts[:, others]
            plane = np.abs(pts[:, axis] - coord)
            q2 = np.clip(p2, lo2, hi2)
            lat = np.hypot(*(q2 - p2).T)
            if hole is not None:
                in_hole = np.all((q2 > hole[0]) & (q2 < hole[1]), axis=1)
                inner = np.minimum(np.min(q2 - hole[0], axis=1),
                                   np.min(hole[1] - q2, axis=1))
                lat = np.where(in_hole, inner + lat, lat)
            best = np.minimum(best, np.hypot(plane, lat))
        return float(best[0]) if x.ndim == 1 else best


def build_enlarged_domain(
    box: BoxDomain,
    patch: BoundaryPatch,
    eta: float,
    grid_h: Optional[float] = None,
    check_samples: int = 1000,
    seed: int = 0,
) -> EnlargedDomain:
    """Attach a bump of thickness >= eta over the patch inset by eta/4.

    The base inset of eta/4 (not more) is what keeps every point of the thin
    neighborhood at distance >= eta/2 from the enlarged boundary while the
    retained part of the original boundary stays compactly inside the patch.
    When a grid pitch is supplied the base is snapped outward to grid lines
    and the thickness rounded up, so the bump can be meshed conformingly.
    """
    eta_sets = build_eta_sets(patch, eta)
    lo2 = np.asarray(patch.rect_lo) + eta / 4.0
    hi2 = np.asarray(patch.rect_hi) - eta / 4.0
    thickness = eta
    if grid_h is not None:
        if grid_h <= 0.0:
            raise ConfigError(f"grid pitch must be positive, got {grid_h}")
        t1, t2 = patch.tangent_axes
        anchor = np.array([box.lo_arr[t1], box.lo_arr[t2]])
        lo2 = anchor + np.floor((lo2 - anchor) / grid_h + 1e-9) * grid_h
        hi2 = anchor + np.ceil((hi2 - anchor) / grid_h - 1e-9) * grid_h
        thickness = float(np.ceil(eta / grid_h - 1e-9) * grid_h)
    inset = min(
        float(np.min(lo2 - np.asarray(patch.rect_lo))),
        float(np.min(np.asarray(patch.rect_hi) - hi2)),
    )
    if inset <= 1e-12:
        raise GeometryError(
            "bump base would touch or exit the patch; reduce the mesh pitch "
            f"or enlarge the patch (inset {inset:.3e})"
        )
    if not np.all(lo2 < hi2):
        raise GeometryError("bump base is empty; eta too large for this patch")
    domain = EnlargedDomain(
        box=box, patch=patch, eta=eta,
        base_lo=tuple(map(float, lo2)), base_hi=tuple(map(float, hi2)),
        thickness=float(thickness),
    )
    pts = eta_sets.sample_u_eta(check_samples, seed=seed)
    dists = domain.boundary_distance(pts)
    bad = dists < eta / 2.0 - 1e-12
    if np.any(bad):
        first = int(np.argmax(bad))
        raise GeometryError(
            f"containment check failed: point {pts[first]} of the thin "
            f"neighborhood is at distance {dists[first]:.6f} < eta/2 = "
            f"{eta / 2.0:.6f} from the enlarged boundary"
        )
    return domain

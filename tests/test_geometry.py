import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admitlab.errors import ConfigError, GeometryError
from admitlab.geometry import (FACE_NAMES, BoundaryPatch, BoxDomain,
                               EnlargedDomain, ProbePath,
                               build_enlarged_domain, build_eta_sets,
                               make_tau_grid, probe_point)


def test_box_validation():
    with pytest.raises(ConfigError):
        BoxDomain((0, 0, 0), (1, 1, 0))


def test_patch_strictly_inside_face():
    box = BoxDomain((0, 0, 0), (1, 1, 1))
    with pytest.raises(ConfigError):
        BoundaryPatch(box, "z+", (0.0, 0.2), (0.8, 0.8))
    with pytest.raises(ConfigError):
        BoundaryPatch(box, "q+", (0.2, 0.2), (0.8, 0.8))


class TestEtaSets:
    def setup_method(self):
        self.box = BoxDomain((0, 0, 0), (1, 1, 1))
        self.patch = BoundaryPatch(self.box, "z+", (0.2, 0.2), (0.8, 0.8))

    def test_rectangle_inset(self):
        es = build_eta_sets(self.patch, 0.1)
        assert es.sigma_eta_lo == pytest.approx((0.3, 0.3))
        assert es.sigma_eta_hi == pytest.approx((0.7, 0.7))

    def test_overshrunk_patch(self):
        with pytest.raises(GeometryError):
            build_eta_sets(self.patch, 0.31)

    def test_near_full_face(self):
        patch = BoundaryPatch(self.box, "z+", (0.05, 0.05), (0.95, 0.95))
        es = build_eta_sets(patch, 0.02)
        assert es.sigma_eta_lo == pytest.approx((0.07, 0.07))
        assert es.sigma_eta_hi == pytest.approx((0.93, 0.93))

    def test_monotone_nesting(self):
        es1 = build_eta_sets(self.patch, 0.05)
        es2 = build_eta_sets(self.patch, 0.12)
        # Larger margin shrinks the patch: its rectangle is contained.
        assert es2.sigma_eta_lo[0] > es1.sigma_eta_lo[0]
        assert es2.sigma_eta_hi[0] < es1.sigma_eta_hi[0]

    def test_u_eta_membership(self):
        es = build_eta_sets(self.patch, 0.2)
        assert es.in_u_eta(np.array([0.5, 0.5, 1.0]))
        assert es.in_u_eta(np.array([0.5, 0.5, 1.0 + 0.2 / 4 - 1e-9]))
        assert not es.in_u_eta(np.array([0.5, 0.5, 1.0 + 0.2 / 4 + 1e-9]))
        assert not es.in_u_eta(np.array([0.2, 0.2, 1.0]))


class TestProbePath:
    def setup_method(self):
        self.box = BoxDomain((0, 0, 0), (1, 1, 1))
        self.patch = BoundaryPatch(self.box, "z+", (0.2, 0.2), (0.8, 0.8))
        self.es = build_eta_sets(self.patch, 0.25)

    def test_probe_point_on_flat_face(self):
        path = ProbePath(self.es, (0.5, 0.5, 1.0), make_tau_grid(0.03, 0.5, 3))
        z = probe_point(path, 0.05 / 1.6)
        assert np.allclose(z, [0.5, 0.5, 1.0 + 0.05 / 1.6])

    def test_flat_face_distance_is_tau(self):
        # The exterior distance constant is exactly one on a flat face.
        path = ProbePath(self.es, (0.5, 0.5, 1.0), make_tau_grid(0.03, 0.5, 4))
        for tau in path.tau_grid:
            z = probe_point(path, tau)
            assert abs(self.box.boundary_distance(z) - tau) <= 1e-15

    def test_tau_zero_rejected(self):
        path = ProbePath(self.es, (0.5, 0.5, 1.0), make_tau_grid(0.03, 0.5, 3))
        with pytest.raises(GeometryError):
            probe_point(path, 0.0)
        with pytest.raises(GeometryError):
            probe_point(path, 0.25)

    def test_anchor_must_be_on_shrunken_patch(self):
        with pytest.raises(GeometryError):
            ProbePath(self.es, (0.2, 0.2, 1.0), make_tau_grid(0.03, 0.5, 3))

    def test_grid_above_cap_rejected(self):
        with pytest.raises(GeometryError):
            ProbePath(self.es, (0.5, 0.5, 1.0), (0.05,))  # > eta/8

    def test_offset_example(self):
        es = build_eta_sets(self.patch, 0.08)
        path = ProbePath(es, (0.3, 0.6, 1.0), make_tau_grid(0.01, 0.5, 2))
        assert np.allclose(probe_point(path, 0.01), [0.3, 0.6, 1.01])


class TestEnlargedDomain:
    def setup_method(self):
        self.box = BoxDomain((0, 0, 0), (1, 1, 1))
        self.patch = BoundaryPatch(self.box, "z+", (0.2, 0.2), (0.8, 0.8))

    def test_explicit_construction(self):
        dom = build_enlarged_domain(self.box, self.patch, 0.1)
        assert dom.base_lo == pytest.approx((0.225, 0.225))
        assert dom.base_hi == pytest.approx((0.775, 0.775))
        assert dom.thickness == pytest.approx(0.1)
        lo, hi = dom.bump_box
        assert np.allclose(lo, [0.225, 0.225, 1.0])
        assert np.allclose(hi, [0.775, 0.775, 1.1])

    def test_grid_snapping(self):
        dom = build_enlarged_domain(self.box, self.patch, 0.25, grid_h=0.0625)
        assert dom.base_lo == pytest.approx((0.25, 0.25))
        assert dom.base_hi == pytest.approx((0.75, 0.75))
        assert dom.thickness == pytest.approx(0.25)
        # Snapped inset must stay within (0, eta/4].
        inset = dom.base_lo[0] - self.patch.rect_lo[0]
        assert 0.0 < inset <= 0.25 / 4 + 1e-12

    def test_thin_neighborhood_distance(self):
        eta = 0.25
        dom = build_enlarged_domain(self.box, self.patch, eta, grid_h=0.0625)
        es = build_eta_sets(self.patch, eta)
        pts = es.sample_u_eta(500, seed=3)
        dists = np.array([dom.boundary_distance(x) for x in pts])
        assert np.all(dists >= eta / 2.0 - 1e-12)

    def test_center_point_distance_example(self):
        dom = build_enlarged_domain(self.box, self.patch, 0.1)
        assert dom.boundary_distance(np.array([0.5, 0.5, 1.0])) >= 0.05

    def test_retained_boundary_inside_patch(self):
        dom = build_enlarged_domain(self.box, self.patch, 0.2)
        # The bump base (the part of the original boundary interior to the
        # enlargement) is compactly contained in the open patch.
        assert dom.base_lo[0] > self.patch.rect_lo[0]
        assert dom.base_hi[0] < self.patch.rect_hi[0]

    def test_eta_too_large(self):
        with pytest.raises(GeometryError):
            build_enlarged_domain(self.box, self.patch, 0.4)

    def test_grid_snap_exits_patch(self):
        # Coarse grid pushes the snapped base onto the patch edge.
        with pytest.raises(GeometryError):
            build_enlarged_domain(self.box, self.patch, 0.1, grid_h=0.2)

    def test_probe_ball_inside_enlargement(self):
        eta = 0.25
        dom = build_enlarged_domain(self.box, self.patch, eta, grid_h=0.0625)
        es = build_eta_sets(self.patch, eta)
        path = ProbePath(es, (0.5, 0.5, 1.0), make_tau_grid(eta / 8, 0.5, 4))
        rng = np.random.default_rng(0)
        for tau in path.tau_grid:
            z = probe_point(path, tau)
            assert dom.contains(z) and not self.box.contains(z)
            # B_{eta/8}(z) stays inside the enlargement.
            dirs = rng.standard_normal((200, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            for d in dirs[:50]:
                assert dom.contains(z + (eta / 8 - 1e-9) * d)

    def test_depth_coordinate(self):
        assert self.patch.depth(np.array([0.4, 0.4, 0.75])) == pytest.approx(0.25)
        bottom = BoundaryPatch(self.box, "z-", (0.2, 0.2), (0.8, 0.8))
        assert bottom.depth(np.array([0.4, 0.4, 0.25])) == pytest.approx(0.25)


def _scalar_boundary_distance(dom, x):
    """Reference: one point at a time, piece by piece."""
    best = np.inf
    for axis, coord, lo2, hi2, hole in dom._boundary_pieces():
        others = tuple(a for a in range(3) if a != axis)
        p2 = np.array([x[others[0]], x[others[1]]])
        plane = abs(x[axis] - coord)
        q2 = np.clip(p2, lo2, hi2)
        if hole is not None and np.all(q2 > hole[0]) and np.all(q2 < hole[1]):
            lat = float(min(np.min(q2 - hole[0]), np.min(hole[1] - q2)))
            d = float(np.hypot(plane, lat + float(np.linalg.norm(q2 - p2))))
        else:
            d = float(np.hypot(plane, np.linalg.norm(q2 - p2)))
        best = min(best, d)
    return best


def _scalar_sample_u_eta(es, count, seed):
    """Reference rejection sampler: one try (three uniforms) at a time."""
    rng = np.random.default_rng(seed)
    lo2 = np.asarray(es.sigma_eta_lo) - es.eta / 4.0
    hi2 = np.asarray(es.sigma_eta_hi) + es.eta / 4.0
    pts = []
    while len(pts) < count:
        uv = lo2 + rng.random(2) * (hi2 - lo2)
        off = (rng.random() - 0.5) * es.eta / 2.0
        x = es.patch.lift(uv, offset=off)
        if es.in_u_eta(x):
            pts.append(x)
    return np.asarray(pts)


@st.composite
def enlarged_domains(draw):
    box = BoxDomain((0.0, 0.0, 0.0), (1.0, 1.5, 1.25))
    face = draw(st.sampled_from(sorted(FACE_NAMES)))
    axis = FACE_NAMES[face][0]
    extent = [box.hi[a] for a in range(3) if a != axis]
    rect_lo = tuple(draw(st.floats(0.05, 0.3)) * e for e in extent)
    rect_hi = tuple(draw(st.floats(0.7, 0.95)) * e for e in extent)
    patch = BoundaryPatch(box, face, rect_lo, rect_hi)
    eta = draw(st.floats(0.02, 0.9)) * patch.eta0()
    return build_enlarged_domain(box, patch, eta, check_samples=20)


class TestVectorisedDistances:
    @settings(max_examples=40, deadline=None)
    @given(dom=enlarged_domains(), seed=st.integers(0, 2**16))
    def test_boundary_distance_matches_scalar(self, dom, seed):
        rng = np.random.default_rng(seed)
        lo, hi = np.minimum(dom.box.lo_arr, dom.bump_box[0]), np.maximum(
            dom.box.hi_arr, dom.bump_box[1])
        pts = lo - 0.2 + rng.random((64, 3)) * (hi - lo + 0.4)
        # Points on the patch plane probe the hole of the original face.
        pts[:16, dom.patch.axis] = dom.patch.plane_coord
        dists = dom.boundary_distance(pts)
        assert dists.shape == (64,)
        for x, d in zip(pts, dists):
            assert dom.boundary_distance(x) == d
            assert isinstance(dom.boundary_distance(x), float)
            assert d == pytest.approx(_scalar_boundary_distance(dom, x),
                                      rel=1e-15, abs=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(dom=enlarged_domains(), seed=st.integers(0, 2**16),
           count=st.integers(1, 300))
    def test_samples_match_one_try_at_a_time(self, dom, seed, count):
        es = build_eta_sets(dom.patch, dom.eta)
        assert np.array_equal(es.sample_u_eta(count, seed=seed),
                              _scalar_sample_u_eta(es, count, seed))

    def test_containment_failure_names_first_point(self, monkeypatch):
        box = BoxDomain((0, 0, 0), (1, 1, 1))
        patch = BoundaryPatch(box, "z+", (0.2, 0.2), (0.8, 0.8))
        pts = build_eta_sets(patch, 0.2).sample_u_eta(10, seed=0)

        def too_close(self, x):
            d = np.full(len(x), 1.0)
            d[[3, 7]] = 0.01
            return d

        monkeypatch.setattr(EnlargedDomain, "boundary_distance", too_close)
        with pytest.raises(GeometryError) as info:
            build_enlarged_domain(box, patch, 0.2, check_samples=10)
        assert f"point {pts[3]} " in str(info.value)
        assert "distance 0.010000 < eta/2 = 0.100000" in str(info.value)

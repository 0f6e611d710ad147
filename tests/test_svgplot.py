import math
import signal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from admitlab.svgplot import _linear_limits, _ticks, render_scatter

# Per-tau estimates of a stability run at h = 0.125 (criterion 9 config):
# three values within 2.8e-17 of each other around -0.1.
TAUS = [0.015625, 0.0078125, 0.00390625]
NARROW = [-0.10000000000000045, -0.10000000000000046, -0.10000000000000048]


@pytest.fixture
def time_limit():
    """Fail instead of spinning when tick generation does not terminate."""

    def expire(signum, frame):
        raise TimeoutError("tick generation did not finish")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(2)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _tick_lines(svg: str, axis: str) -> int:
    # x ticks hang below the plot frame, y ticks stick out to its left.
    marker = 'y2="430"' if axis == "x" else 'x2="70"'
    return sum(1 for line in svg.splitlines() if line.startswith("<line") and marker in line)


def _circle_heights(svg: str) -> set:
    return {line.split('cy="')[1].split('"')[0]
            for line in svg.splitlines() if line.startswith("<circle")}


def test_sub_ulp_range_finishes(tmp_path, time_limit):
    path = render_scatter(tmp_path / "gap_tau.svg",
                          series=[("per-tau estimate", TAUS, NARROW)],
                          lines=[("fit", TAUS, NARROW)])
    svg = path.read_text(encoding="utf-8")
    assert _tick_lines(svg, "x") >= 3
    assert _tick_lines(svg, "y") >= 1
    assert svg.count("<circle") == 3


def test_sub_ulp_range_is_drawn_flat(tmp_path):
    # Rounding noise must not read as a trend: like equal values, the three
    # estimates sit on one height.
    svg = render_scatter(tmp_path / "gap_tau.svg",
                         series=[("per-tau estimate", TAUS, NARROW)]).read_text(encoding="utf-8")
    assert len(_circle_heights(svg)) == 1
    assert _tick_lines(svg, "y") >= 1


def test_rounding_spread_is_drawn_flat(tmp_path):
    # Per-tau estimates of `stability --config configs/recovery.yaml
    # --mesh-h 0.05 --seed 1`: about 84 ulps apart around -0.1.
    taus = [0.015625, 0.0078125, 0.00390625, 0.001953125, 0.0009765625]
    estimates = [-0.10000000000000012, -0.09999999999999906, -0.1,
                 -0.09999999999999905, -0.09999999999999973]
    svg = render_scatter(tmp_path / "gap_tau.svg",
                         series=[("per-tau estimate", taus, estimates)]).read_text(encoding="utf-8")
    assert len(_circle_heights(svg)) == 1
    y_labels = [line.split(">")[1].split("<")[0] for line in svg.splitlines()
                if line.startswith("<text") and 'text-anchor="end"' in line
                and 'font-size="11"' in line]
    assert len(y_labels) >= 2 and len(set(y_labels)) == len(y_labels)


def _padded_reference(lo, hi):
    """The padding rule before narrow ranges were treated as equal values."""
    pad = 0.05 * (hi - lo or abs(hi) or 1.0)
    return lo - pad, hi + pad


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e3), ulps=st.integers(17, 4096))
def test_padding_of_wider_ranges_unchanged(lo, width, ulps):
    hi = lo + width + ulps * math.ulp(max(abs(lo), 1e-300))
    # Ranges narrower than 1e-10 of their magnitude are drawn as equal values.
    assume(hi - lo > 1e-10 * max(abs(lo), abs(hi)))
    assert _linear_limits(lo, hi) == _padded_reference(lo, hi)
    assert _linear_limits(lo, lo) == _padded_reference(lo, lo)


def test_ticks_of_a_range_a_few_ulps_wide(time_limit):
    lo, hi = NARROW[-1], NARROW[0]
    assert hi - lo < 4 * math.ulp(0.1)
    assert _ticks(lo, hi, False) == []
    assert _ticks(-0.1, -0.1, False) == []
    assert _ticks(1e20, 1e20 + 16384.0, False) == [1e20]
    assert _ticks(0.4, 0.4, False) == [0.4]


def test_linear_ticks():
    assert _ticks(0.0, 1.0, False) == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]
    assert _ticks(-5.3, 12.1, False) == [-5.0, 0.0, 5.0, 10.0]


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e3), ulps=st.integers(0, 64))
def test_linear_ticks_bounded_and_inside(lo, width, ulps):
    hi = lo + width + ulps * math.ulp(lo)
    ticks = _ticks(lo, hi, False)
    assert len(ticks) <= 7
    assert ticks == sorted(set(ticks))
    # Ticks may overshoot the range by the rounding slack of a unit span.
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    for t in ticks:
        assert lo - slack <= t <= hi + slack


def test_log_ticks_are_decades():
    assert _ticks(1e-3, 20.0, True) == [0.001, 0.01, 0.1, 1.0, 10.0, 100.0]


def test_log_axes(tmp_path):
    xs = [1e-3, 1e-2, 1e-1]
    ys = [2e-5, 3e-3, 4e-1]
    svg = render_scatter(tmp_path / "log.svg", series=[("s", xs, ys)],
                         logx=True, logy=True).read_text(encoding="utf-8")
    assert ">1e-3<" in svg and ">1e-2<" in svg and ">1e-1<" in svg
    assert ">1e-5<" in svg and ">1e0<" in svg
    with pytest.raises(ValueError):
        render_scatter(tmp_path / "bad.svg", series=[("s", [0.0, 1.0], ys[:2])], logx=True)


def test_rerun_is_byte_identical(tmp_path):
    kwargs = dict(series=[("per-tau estimate", TAUS, NARROW), ("other", TAUS, [0.1, 0.2, 0.3])],
                  lines=[("fit", TAUS, [0.05, 0.15, 0.25])],
                  title="gap estimate vs tau", xlabel="tau", ylabel="estimate")
    first = render_scatter(tmp_path / "a.svg", **kwargs).read_bytes()
    second = render_scatter(tmp_path / "b.svg", **kwargs).read_bytes()
    assert first == second
    log = dict(series=[("s", [1e-3, 1e-1], [1e-4, 1e2])], logx=True, logy=True)
    assert (render_scatter(tmp_path / "c.svg", **log).read_bytes()
            == render_scatter(tmp_path / "d.svg", **log).read_bytes())

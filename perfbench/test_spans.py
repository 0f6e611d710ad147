"""Tests of the benchmark's own span arithmetic and patching.

    python3 -m pytest perfbench
"""

import json
import sys
import time
import types
from pathlib import Path

import pytest

from spans import Patcher, Recorder, Span, check_nesting, self_times, totals

ROOT = Path(__file__).resolve().parents[1]

TREE_SOURCE = '''
import time

def leaf():
    time.sleep(0.002)

def middle():
    leaf()
    time.sleep(0.001)
    leaf()

def countdown(n):
    time.sleep(0.001)
    if n:
        countdown(n - 1)

def outer():
    middle()
    alias_leaf()
    countdown(2)
'''


@pytest.fixture
def tree_modules():
    """`tree` defines the functions; `user` holds its own reference to `leaf`,
    as ``from tree import leaf`` would."""
    tree = types.ModuleType("tree")
    exec(TREE_SOURCE, vars(tree))
    user = types.ModuleType("user")
    user.leaf = tree.leaf
    tree.alias_leaf = lambda: user.leaf()
    return tree, user


def test_self_times_sum_to_wall_and_wrappers_restore(tree_modules):
    tree, user = tree_modules
    originals = {name: getattr(tree, name) for name in ("leaf", "middle", "countdown", "outer")}
    rec = Recorder("run-1")
    patcher = Patcher()
    patcher.rebind({fn: rec.wrap(name, fn) for name, fn in originals.items()}, [tree, user])
    assert user.leaf is not originals["leaf"]

    root = rec.begin("root")
    tree.outer()
    time.sleep(0.001)
    rec.end(root)
    patcher.restore()

    for name, fn in originals.items():
        assert getattr(tree, name) is fn
    assert user.leaf is originals["leaf"]

    spans = rec.spans
    check_nesting(spans)
    assert {s.run for s in spans} == {"run-1"}
    wall = spans[root].end - spans[root].start
    assert sum(self_times(spans)) == pytest.approx(wall, rel=1e-12, abs=1e-12)

    by_name = totals(spans)
    assert by_name["leaf"]["calls"] == 3  # two from middle, one through the alias
    assert by_name["countdown"]["calls"] == 3
    outermost = [s for s in spans if s.name == "countdown" and spans[s.parent].name != "countdown"]
    assert len(outermost) == 1
    assert by_name["countdown"]["s"] == outermost[0].end - outermost[0].start
    assert by_name["root"]["s"] == wall


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, None, "r"), Span("a", 1.0, 4.0, 0, "r"),
             Span("b", 3.0, 6.0, 0, "r"), Span("c", 8.0, 9.0, 0, "r")]
    assert self_times(spans) == [4.0, 3.0, 3.0, 1.0]


def test_span_outside_parent_is_rejected():
    with pytest.raises(ValueError):
        check_nesting([Span("p", 0.0, 1.0, None, "r"), Span("c", 0.5, 1.5, 0, "r")])


def test_patcher_restores_class_attributes():
    class Box:
        def get(self):
            return 1

    original = vars(Box)["get"]
    patcher = Patcher()
    patcher.set(Box, "get", lambda self: 2)
    assert Box().get() == 2
    patcher.restore()
    assert vars(Box)["get"] is original


def test_layer_spans_reach_aliases_and_come_out():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import admitlab.cli  # noqa: F401  (imports every layer module)
        import admitlab.estimator as estimator
        import admitlab.fem as fem
        from layers import trace_layers
    finally:
        sys.path.remove(str(ROOT / "src"))
    assemble, solve = fem.assemble, fem.BlockSystem.solve_dirichlet
    assert estimator.assemble is assemble
    patcher = trace_layers(Recorder("run"))
    assert estimator.assemble is not assemble
    assert fem.BlockSystem.solve_dirichlet is not solve
    patcher.restore()
    assert estimator.assemble is assemble and fem.assemble is assemble
    assert fem.BlockSystem.solve_dirichlet is solve

    # Every per-layer timing names a span that the tracer can produce.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    class_level = {"fem.factor_solve", "fem.solve_dirichlet", "singular.trace_vector"}
    for metric in bench["per_layer"]:
        span, _, kind = metric["name"].rpartition(".")
        if kind in ("s", "self_s", "calls") and "." in span and span not in class_level:
            module, function = span.split(".")
            assert callable(getattr(sys.modules[f"admitlab.{module}"], function)), span


def test_every_per_layer_metric_has_a_mapping():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((ROOT / "perfbench" / "layers.json").read_text())["metrics"]
    assert [m["name"] for m in bench["per_layer"]] == list(mapping)
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for entry in mapping.values():
        assert set(entry["moves"]) <= end_to_end
        assert all(set(names) <= workloads for names in entry["moves"].values())

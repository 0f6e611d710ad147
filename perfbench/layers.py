"""Spans around the calls into each admitlab layer, set from outside the program.

Every public function defined in a layer module gets a span named
``<module>.<function>``.  Two methods get spans at class level:
``BlockSystem.solve_dirichlet``, where the first call on each system (the
one that pays the lazy ``splu``) is named ``fem.factor_solve``, and
``CorrectedProbe.trace_vector``.  The ``cli`` module is the root layer: its
self time is whatever no other span covers.
"""

from __future__ import annotations

import inspect
import os
import sys
import weakref

from spans import Patcher, Recorder

LAYER_MODULES = ("config", "admittivity", "geometry", "fem", "dtn", "singular",
                 "gegenbauer", "estimator", "reportio", "svgplot")

# Counts that are a size, not work done: a workload reports the largest.
PEAK_COUNTS = frozenset({"dtn.basis_size"})


def _counters(recorder: Recorder) -> dict:
    def file_bytes(path):
        recorder.add("reportio.bytes_written", os.path.getsize(path))

    return {
        "fem.build_mesh": lambda mesh: recorder.add("fem.vertices", mesh.n_vertices),
        "dtn.assemble_dtn": lambda dtn: recorder.peak("dtn.basis_size", dtn.dim),
        "reportio.write_csv": file_bytes,
        "reportio.write_json": file_bytes,
    }


def trace_layers(recorder: Recorder) -> Patcher:
    """Install the spans; call `restore()` on the result to take them out."""
    from admitlab.fem import BlockSystem
    from admitlab.singular import CorrectedProbe

    counters = _counters(recorder)
    wrappers = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"admitlab.{short}"]
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                wrappers[fn] = recorder.wrap(name, fn, counters.get(name))
    patcher = Patcher()
    patcher.rebind(wrappers, [m for n, m in list(sys.modules.items())
                              if n == "admitlab" or n.startswith("admitlab.")])

    solve = BlockSystem.solve_dirichlet
    factored = weakref.WeakSet()

    def solve_dirichlet(system, g):
        name = "fem.solve_dirichlet" if system in factored else "fem.factor_solve"
        factored.add(system)
        index = recorder.begin(name)
        try:
            return solve(system, g)
        finally:
            recorder.end(index)

    patcher.set(BlockSystem, "solve_dirichlet", solve_dirichlet)
    patcher.set(CorrectedProbe, "trace_vector",
                recorder.wrap("singular.trace_vector", CorrectedProbe.trace_vector))
    return patcher

"""admitlab benchmark: fixed CLI workloads, timed as a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/admitlab`` and ``configs/``).
One run.py process runs the workload's commands one at a time, each in a
fresh Python process started through launch.py, so imports and first-call
costs count every time.  Child processes see ``src`` on PYTHONPATH, the
BLAS pool capped at the number of usable cores, the CLI's default
``--threads`` and ``--seed N``.  Passes over the workload repeat while the
next one fits in S seconds (at least one), and each metric is the median
over passes.  Every command's outputs are checked against the acceptance
tolerances; a failure prints the offending value, counts in ``failed`` and
makes ``correct`` false (exit code 1).

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.  With
--trace 1 each pass is an untraced run followed by a traced one (spans from
layers.py), and the metrics are the per-layer ones; ``trace.overhead_s`` is
traced minus untraced wall time.  The last line of stdout is the result
object; run files go to ``.perfbench-runs/<workload>/``.

All workloads with tracing off, and the benchmark's own tests:

    for w in recovery-fine sweep export; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done
    python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import yaml

from layers import LAYER_MODULES, PEAK_COUNTS
from spans import Span, check_nesting, self_times, totals

HERE = Path(__file__).resolve().parent

CONFIGS = ("default", "anisotropic", "derivative", "recovery")

# Argument lists for `admitlab`; run.py appends --seed and --out.  Why
# each workload was chosen is in BENCHMARK.json, and which layer metric
# should move which end-to-end metric on which workload in layers.json.
WORKLOADS = {
    "recovery-fine": [
        ["stability", "--config", "configs/recovery.yaml", "--mesh-h", "0.05"],
        ["derivative", "--config", "configs/derivative.yaml", "--mesh-h", "0.05"],
    ],
    "sweep": [
        ["sweep", "--config", "configs/anisotropic.yaml"],
        ["sweep", "--mode", "derivative", "--config", "configs/derivative.yaml"],
    ],
    "export": (
        [["validate", "--config", f"configs/{c}.yaml"] for c in CONFIGS]
        + [["probe", "--config", f"configs/{c}.yaml"] for c in CONFIGS]
        + [["dtn", "--config", f"configs/{c}.yaml", "--mesh-h", "0.05"]
           for c in ("default", "anisotropic")]
    ),
}

# A run must end within 180 s; commands still running after this are killed.
RUN_LIMIT_S = 170.0


@dataclass
class Command:
    wall_s: float
    setup_s: float
    rss_mb: float
    problems: list
    stats: dict
    launch: float
    exit: float


@dataclass
class Pass:
    commands: list

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if c.problems)


# ---------------------------------------------------------------------------
# Output checks (tolerances from tests/test_acceptance.py)
# ---------------------------------------------------------------------------

def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _asymmetry(path: Path) -> str | None:
    """None when the pairing CSV is a symmetric d x d matrix to 1e-12 relative."""
    entries = {(int(i), int(j)): complex(float(re), float(im))
               for i, j, re, im in _csv_rows(path)}
    d = math.isqrt(len(entries))
    if d == 0 or d * d != len(entries):
        return f"{path.name}: {len(entries)} entries, not a square matrix"
    scale = max(abs(v) for v in entries.values())
    worst = max(abs(entries[i, j] - entries[j, i])
                for i in range(d) for j in range(i + 1, d))
    if not worst <= 1e-12 * scale:
        return f"{path.name}: asymmetry {worst!r} > 1e-12 * {scale!r}"
    return None


def check_outputs(args: list, out: Path, stdout: str) -> list:
    """Problems with one command's outputs, each naming the offending value."""
    cmd = args[0]
    problems = []
    if cmd == "stability":
        rep = _load_json(out / "stability_report.json")
        gap = rep["gap"]["extrapolated"]
        if not abs(gap - (-0.1)) <= 0.01:
            problems.append(f"stability gap {gap!r}, want -0.1 +- 0.01")
        if rep["pair"]["violation"]:
            problems.append("stability reports a Lipschitz violation")
    elif cmd == "derivative":
        est = _load_json(out / "derivative_report.json")["derivative_gap"]["extrapolated"]
        if not abs(est - (-0.1)) <= 0.025:
            problems.append(f"derivative estimate {est!r}, want -0.1 +- 0.025")
    elif cmd == "sweep" and "derivative" in args:
        rep = _load_json(out / "sweep_derivative_report.json")
        floor = rep["delta_1"] - 0.15
        if not rep["loglog_slope"] >= floor:
            problems.append(f"derivative sweep slope {rep['loglog_slope']!r} < {floor!r}")
    elif cmd == "sweep":
        rep = _load_json(out / "sweep_lipschitz_report.json")
        if not 0.8 <= rep["loglog_slope"] <= 1.2:
            problems.append(f"lipschitz sweep slope {rep['loglog_slope']!r} not in [0.8, 1.2]")
        if not rep["ratio_spread"] < 3.0:
            problems.append(f"lipschitz sweep ratio spread {rep['ratio_spread']!r} >= 3")
    elif cmd == "dtn":
        pairings = sorted(out.glob("dtn_pairing_*.csv"))
        if len(pairings) != 2:
            problems.append(f"dtn wrote {len(pairings)} pairing CSVs, want 2")
        problems += [p for p in map(_asymmetry, pairings) if p]
        norm = _load_json(out / "dtn_norm.json")["value"]
        if not norm > 0.0:
            problems.append(f"dtn_norm.json value {norm!r} <= 0")
    elif cmd == "probe":
        files = sorted(out.glob("probe_m*.csv"))
        if not files:
            problems.append("probe wrote no probe_m*.csv")
        for path in files:
            rows = len(_csv_rows(path))
            if rows != 2000:
                problems.append(f"{path.name}: {rows} rows, want 2000")
    elif cmd == "validate":
        if "validation PASSED" not in stdout:
            problems.append("validate did not print 'validation PASSED'")
    return problems


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench-runs" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.blas_threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.blas_threads)
        self.passes = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def warm_up(self) -> None:
        """Compile bytecode and fill the page cache, as an installed copy has."""
        subprocess.run([sys.executable, "-c", "import admitlab.cli"], env=self.env,
                       cwd=self.root, capture_output=True, timeout=RUN_LIMIT_S)

    def run_command(self, args: list, tag: str, trace: bool) -> Command:
        out = self.work / tag
        stats_path = self.work / f"{tag}.json"
        argv = [sys.executable, str(HERE / "launch.py"), str(stats_path),
                "1" if trace else "0", f"{self.workload}/seed{self.seed}/{tag}", "--",
                *args, "--seed", str(self.seed), "--out", str(out)]
        launch = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - launch))
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        exit_ = time.perf_counter()
        problems = []
        stats = {}
        frame_s = 0.0
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {stderr.strip()[-500:]}")
        else:
            try:
                stats = _load_json(stats_path)
                if (out / "manifest.json").exists():
                    stages = _load_json(out / "manifest.json")["stages"]
                    frame_s = sum(s["seconds"] for s in stages if s["name"] == "frame")
                problems += check_outputs(args, out, stdout)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        stats_path.unlink(missing_ok=True)
        for problem in problems:
            print(f"FAILED {' '.join(args)}: {problem}")
        return Command(wall_s=exit_ - launch,
                       setup_s=stats.get("import_s", 0.0) + frame_s,
                       rss_mb=stats.get("maxrss_kb", 0) / 1024.0,
                       problems=problems, stats=stats, launch=launch, exit=exit_)

    def run_pass(self, trace: bool) -> Pass:
        self.passes += 1
        tag = f"p{self.passes}{'t' if trace else ''}"
        return Pass([self.run_command(args, f"{tag}-c{i}", trace)
                     for i, args in enumerate(WORKLOADS[self.workload])])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(p: Pass) -> dict:
    return {
        "wall_s": p.wall_s,
        "setup_s": sum(c.setup_s for c in p.commands),
        "peak_rss_mb": max(c.rss_mb for c in p.commands),
    }


def pass_spans(p: Pass) -> list:
    """All spans of a traced pass; each command's root is a `cli` span that
    runs from process launch to exit, so self times add up to wall time."""
    spans = []
    for c in p.commands:
        root = len(spans)
        spans.append(Span("cli", c.launch, c.exit, None, c.stats["run"]))
        for row in c.stats.get("spans", []):
            span = Span(*row)
            span.parent = root if span.parent is None else root + 1 + span.parent
            spans.append(span)
    return spans


def per_layer(p: Pass, untraced_wall_s: float) -> tuple[dict, list]:
    spans = pass_spans(p)
    check_nesting(spans)
    by_name = totals(spans)
    by_module: dict = {}
    for span, own in zip(spans, self_times(spans)):
        module = span.name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + own
    counts: dict = {}
    for c in p.commands:
        for name, value in c.stats.get("counts", {}).items():
            counts[name] = max(counts.get(name, 0), value) if name in PEAK_COUNTS \
                else counts.get(name, 0) + value
    layer_sum = sum(by_module.values())
    if abs(layer_sum - p.wall_s) > 1e-6 * max(1.0, p.wall_s):
        raise ValueError(f"self times sum to {layer_sum!r}, traced wall is {p.wall_s!r}")
    metrics = {"trace.wall_s": p.wall_s, "trace.overhead_s": p.wall_s - untraced_wall_s}
    metrics.update(counts)
    for module in LAYER_MODULES:
        metrics[f"{module}.self_s"] = by_module.get(module, 0.0)
    for name, entry in by_name.items():
        for kind, value in entry.items():
            metrics[f"{name}.{kind}"] = value
    return metrics, spans


def machine_info(blas_threads: int) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
            "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        info[pkg] = metadata.version(pkg)
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


def workload_info(root: Path, workload: str) -> list:
    """The mesh pitch h of each command (validate and probe build no mesh)."""
    rows = []
    for args in WORKLOADS[workload]:
        if args[0] in ("validate", "probe"):
            h = None
        elif "--mesh-h" in args:
            h = float(args[args.index("--mesh-h") + 1])
        else:
            config = yaml.safe_load((root / args[args.index("--config") + 1]).read_text())
            h = float(config["discretization"]["h"])
        rows.append({"command": " ".join(args), "h": h})
    return rows


def median_metrics(samples: list, names: list) -> dict:
    return {name: statistics.median(s.get(name, 0) for s in samples) for name in names}


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("BENCHMARK.json", "src/admitlab/cli.py", "configs")
               if not (root / p).exists()]
    if missing:
        print(f"error: not an admitlab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    bench = _load_json(root / "BENCHMARK.json")
    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[group]]
    units = {m["name"]: m["unit"] for m in bench[group]}

    runner = Runner(root, args.workload, args.seed)
    runner.warm_up()
    started = time.perf_counter()
    deadline = started + args.seconds
    untraced, traced = [], []
    while True:
        untraced.append(runner.run_pass(trace=False))
        if args.trace:
            traced.append(runner.run_pass(trace=True))
        now = time.perf_counter()
        if now + (now - started) / len(untraced) > deadline:
            break
    passes = untraced + traced
    attempted = sum(len(p.commands) for p in passes)
    failed = sum(p.failed for p in passes)

    samples = [end_to_end(p) for p in untraced]
    all_spans = []
    if args.trace and not failed:
        untraced_wall = statistics.median(p.wall_s for p in untraced)
        samples = []
        for p in traced:
            try:
                metrics, spans = per_layer(p, untraced_wall)
            except ValueError as exc:
                print(f"FAILED span arithmetic: {exc}")
                failed += 1
                break
            samples.append(metrics)
            all_spans += [s.to_list() for s in spans]
    correct = failed == 0
    metrics = median_metrics(samples, names) if correct else {}

    info = {"workload": args.workload, "seed": args.seed, "passes": len(untraced),
            "machine": machine_info(runner.blas_threads),
            "commands": workload_info(root, args.workload)}
    if args.trace and correct:
        info["basis_size"] = metrics.get("dtn.basis_size")
        info["vertices"] = metrics.get("fem.vertices")
    with open(runner.work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": metrics,
                   "passes": [end_to_end(p) for p in untraced]}, fh, indent=1)
    if all_spans:
        with open(runner.work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(all_spans, fh)

    print("# " + json.dumps(info, sort_keys=True))
    for name in names:
        if name in metrics:
            print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} commands)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names
                    if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

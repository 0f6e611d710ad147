"""Deterministic CSV/JSON writers and the run manifest."""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import time
from pathlib import Path

import numpy as np


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _fmt_column(column):
    """Cells of one column as strings, by the `_fmt` rule.

    Float and integer arrays are formatted in one pass over `tolist()`;
    anything else (lists, object or complex arrays) cell by cell.
    """
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map(repr, np.asarray(column, dtype=float).tolist()))
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
    return [_fmt(v) for v in column]


def write_csv(path, header, columns):
    """RFC-4180 CSV, UTF-8, header row, shortest-roundtrip float formatting.

    `columns` holds one equal-length sequence per header entry.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cells = [_fmt_column(col) for col in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))
    return path


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def config_hash(raw_config: dict) -> str:
    canon = json.dumps(_jsonify(raw_config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class RunManifest:
    """Reproducibility record: config hash, seed, versions, stages, files,
    and the linear solvers of the commands that solve systems."""

    def __init__(self, command: str, raw_config: dict, seed: int, out_dir):
        import scipy

        from . import __version__

        self.out_dir = Path(out_dir)
        self.data = {
            "schema": "run-manifest/1",
            "command": command,
            "config_hash": config_hash(raw_config),
            "seed": int(seed),
            "versions": {
                "admitlab": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "stages": [],
            "files": [],
        }
        self._stage_start = None
        self._stage_name = None

    def start(self, name: str):
        self.finish()
        self._stage_name = name
        self._stage_start = time.perf_counter()

    def finish(self):
        """Close the open stage, with the process's peak RSS so far (ru_maxrss
        is in KiB on Linux)."""
        if self._stage_name is not None:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.data["stages"].append({
                "name": self._stage_name,
                "seconds": time.perf_counter() - self._stage_start,
                "peak_rss_mb": peak_kib / 1024.0,
            })
            self._stage_name = None

    def add_solver(self, entry: dict) -> None:
        """One entry of the "solvers" list: which interior solver a linear
        system used, how many dofs it factored, how often it solved and how
        well."""
        self.data.setdefault("solvers", []).append(dict(entry))

    def record(self, path) -> Path:
        rel = str(Path(path).relative_to(self.out_dir))
        if rel not in self.data["files"]:
            self.data["files"].append(rel)
        return Path(path)

    def write(self) -> Path:
        self.finish()
        self.data["files"].sort()
        return write_json(self.out_dir / "manifest.json", self.data)

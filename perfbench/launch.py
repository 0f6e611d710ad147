"""Run one admitlab CLI command as a user does, and report on the process.

    python3 perfbench/launch.py STATS_JSON TRACE RUN_ID -- ARGS...

Imports ``admitlab.cli`` (timed), runs ``admitlab.cli.main(ARGS)`` and exits
with its code.  At exit it writes STATS_JSON once: the exit code, the import
seconds and the peak RSS of this process, and with TRACE=1 the spans and
counts of every call into the layers (see layers.py).
"""

import json
import resource
import sys
import time


def main(argv):
    stats_path, trace, run_id, sep, *args = argv
    if sep != "--" or trace not in ("0", "1"):
        sys.exit("usage: launch.py STATS_JSON TRACE RUN_ID -- ARGS...")
    started = time.perf_counter()
    import admitlab.cli

    stats = {"import_s": time.perf_counter() - started, "rc": 1, "run": run_id}
    recorder = patcher = None
    if trace == "1":
        from layers import trace_layers
        from spans import Recorder

        recorder = Recorder(run_id)
        patcher = trace_layers(recorder)
    try:
        stats["rc"] = admitlab.cli.main(args)
    finally:
        if patcher is not None:
            patcher.restore()
            stats["spans"] = [span.to_list() for span in recorder.spans]
            stats["counts"] = recorder.counts
        stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    return stats["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

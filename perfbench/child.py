"""One ``complerank run`` in a fresh process, timed from outside the program.

Usage (from the repository root, with ``PYTHONPATH=src``):

    python3 perfbench/child.py CONFIG RESULT [--setup-only] [--spans SPANS]

The only hook in an untraced run is the query-phase boundary: entry to and
exit from ``complerank.pipeline.run_all`` as ``cli.cmd_run`` looks it up.
``--setup-only`` stops the run at that entry, so set-up can be sampled
cheaply.  ``--spans`` installs the per-layer tracer (``layers.py``) and writes
its spans at the end.  RESULT receives the timings as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    ``VmHWM`` is reset by exec; ``ru_maxrss`` is not, so a child started by a
    larger parent would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class SetupDone(Exception):
    """Raised at the entry to the query phase of a set-up-only run."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import complerank
    from complerank import cli, pipeline

    src = (Path.cwd() / "src").resolve()
    if src not in Path(complerank.__file__).resolve().parents:
        print(f"complerank imported from {complerank.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        import layers  # this script's directory is first on sys.path

        tracer = layers.Tracer()
        tracer.install()

    phase: dict[str, float] = {}
    run_all = pipeline.run_all

    def timed_run_all(queries, *rest, **kwargs):
        phase["query_start"] = time.perf_counter()
        phase["n_queries"] = len(queries)
        if args.setup_only:
            raise SetupDone
        try:
            return run_all(queries, *rest, **kwargs)
        finally:
            phase["query_end"] = time.perf_counter()

    pipeline.run_all = timed_run_all

    argv = ["run", "--config", args.config]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    if code != 0:
        return code

    result = {"setup_s": phase["query_start"] - t0, "n_queries": phase["n_queries"]}
    if not args.setup_only:
        result.update(
            run_s=t1 - t0,
            query_s=phase["query_end"] - phase["query_start"],
            cpu_s=cpu1 - cpu0,
            peak_rss_mb=peak_rss_mb(),
        )
    if tracer is not None:
        tracer.dump(args.spans, origin=t0)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

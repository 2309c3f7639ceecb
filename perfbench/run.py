"""Benchmark of ``complerank run`` on three workloads (see README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from ``--seed`` once and cached.  Then
whole rounds run until the next would end more than ``--seconds`` after the
invocation started: each round is one full run in a fresh child process
(``child.py``) plus a few set-up-only runs.  Outside
the timed region, the first full run's outputs go through the independent
checker (``check.py``), and every later run's outputs must be byte-identical
to them.  With ``--trace 1`` each round is an untraced run and a
traced one, and the per-layer metrics come from the traced one.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (queries) and ``metrics`` (medians over the
rounds).  Any run that does not finish ends the benchmark with exit code 1
and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
from workloads import (  # noqa: E402
    HOLDOUT, STUB_LATENCY_S, WORK_DIR, WORKLOADS, Workload, mock_policy, prepare_inputs, split_seed,
    stub_faults,
)

CHILD_TIMEOUT_S = 150
BRUTE_FORCE_SAMPLE = 40
PRESETS = {"fig1": (50, 25), "fig2": (100, 50)}  # (n_div, n_acc), as the project README defines them


class RunFailed(Exception):
    """A child run or the stub did not finish."""


def child_env(home: Path) -> dict[str, str]:
    """The fixed environment of every child: no proxies, fixed hash seed."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "HOME": str(home.resolve()),
        "LANG": "C.UTF-8",
        "PYTHONPATH": "src",
        "PYTHONHASHSEED": "0",
    }


class Bench:
    """One workload at one seed: its inputs, run config, checker spec and tallies."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.inputs = prepare_inputs(workload.dataset, seed)
        self.work = WORK_DIR / "work" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "home").mkdir(parents=True)
        self.env = child_env(self.work / "home")
        self.out = self.work / "out"
        n_div, n_acc = PRESETS[workload.preset]
        scores = str(self.inputs / "scores.jsonl") if workload.retriever == "precomputed" else None
        self.stub = None
        if workload.endpoint:
            self.stub = {"seed": seed, "latency_s": STUB_LATENCY_S, "faults": stub_faults(self.inputs, seed)}
            (self.work / "stub.json").write_text(json.dumps(self.stub), encoding="utf-8")
        self.spec = {
            "items": str(self.inputs / "items.jsonl"),
            "edges": str(self.inputs / "edges.jsonl"),
            "holdout": HOLDOUT,
            "retriever": workload.retriever,
            "scores": scores,
            "n_div": n_div,
            "n_acc": n_acc,
            "cutoffs": [1, 3, 5, 10],
            "concurrency": workload.concurrency,
            "audit": workload.audit,
            "stub": self.stub,
            "sample_seed": seed,
            "brute_force_sample": BRUTE_FORCE_SAMPLE,
        }
        (self.work / "spec.json").write_text(json.dumps(self.spec), encoding="utf-8")
        self.n_queries = len(json.loads((self.inputs / "queries.json").read_text(encoding="utf-8")))
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None  # of the first, checked run, less run_config.json
        self.last_digests: dict[str, str] = {}
        self.http: dict | None = None  # the stub's counters for the last run
        self.failed = 0
        self.failed_prompts = 0

    def config(self, endpoint: str | None) -> Path:
        retriever = {"kind": self.workload.retriever}
        if self.spec["scores"]:
            retriever["path"] = self.spec["scores"]
        agents = {"endpoint": endpoint, "model": "stub"} if endpoint else {"mock": mock_policy(self.seed)}
        cfg = {
            "dataset": {"items": self.spec["items"], "edges": self.spec["edges"], "name": "synth"},
            "split": {"holdout_fraction": HOLDOUT, "seed": split_seed(self.seed)},
            "retriever": retriever,
            "pipeline": {"preset": self.workload.preset},
            "agents": agents,
            "audit": self.workload.audit,
            "concurrency": self.workload.concurrency,
            "out": str(self.out),
        }
        path = self.work / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def _child(self, config: Path, *extra: str) -> dict:
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(config), str(result), *extra],
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"child run exceeded {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise RunFailed(f"child run exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(result.read_text(encoding="utf-8"))

    def full_run(self, traced: bool = False) -> tuple[dict, dict | None]:
        """One checked run; returns its timings and, if traced, its layer metrics."""
        shutil.rmtree(self.out, ignore_errors=True)
        spans = self.work / "spans.json"
        extra = ("--spans", str(spans)) if traced else ()
        if self.stub is None:
            timings, stub_stats = self._child(self.config(None), *extra), None
        else:
            with Stub(self.work / "stub.json", self.env) as server:
                timings = self._child(self.config(server.url), *extra)
            stub_stats = server.stats
        self._check_outputs(stub_stats)
        if not traced:
            return timings, None
        layer = layers.summarize(json.loads(spans.read_text(encoding="utf-8")))
        prompts = layer.pop("agents.prompts")
        if stub_stats is None:
            layer["agents.attempts_per_prompt"] = 1.0
            layer["agents.connections_per_request"] = 0.0
        else:
            layer["agents.attempts_per_prompt"] = stub_stats["requests"] / prompts
            layer["agents.connections_per_request"] = stub_stats["connections"] / stub_stats["requests"]
        layer["cli.output_mb"] = sum(p.stat().st_size for p in self.out.iterdir()) / 1e6
        return timings, layer

    def _check_outputs(self, stub_stats: dict | None) -> None:
        """Check the first run in full; every later run must be byte-identical to it."""
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(self.out.iterdir())
        }
        # run_config.json names the stub's port, which changes from run to run.
        stable = {name: d for name, d in digests.items() if name != "run_config.json"}
        if self.digests is None:
            problems = check.check_run(self.out, self.spec)
            self.digests = stable
        elif stable != self.digests:
            problems = ["outputs differ from the checked first run of the same inputs"]
        else:
            problems = []
        self.last_digests = digests
        failed = set()
        with (self.out / "stages.jsonl").open(encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record["failed"]:
                    failed.add(record["query_id"])
                    self.failed_prompts += 1
        self.failed += len(failed)
        if stub_stats is not None:
            planned = {fault: 0 for fault in stub_stats["injected"]}
            for _, _, fault in self.stub["faults"]:
                planned[fault] += 1
            if stub_stats["injected"] != planned:
                problems.append(f"stub injected {stub_stats['injected']}, planned {planned}")
            self.http = stub_stats
        self.problems.extend(problems)

    def setup_probe(self) -> float:
        # A set-up-only run never reaches a request, so no stub is needed.
        endpoint = "http://127.0.0.1:9" if self.stub else None
        return self._child(self.config(endpoint), "--setup-only")["setup_s"]


class Stub:
    """The stub endpoint in its own process, stopped and reaped on exit."""

    def __init__(self, config: Path, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(config)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RunFailed(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.stats: dict | None = None

    def __enter__(self) -> "Stub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RunFailed("stub did not stop")
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RunFailed(f"stub exited with {self.proc.returncode}")
        self.stats = json.loads(lines[-1])


def measure(bench: Bench, deadline: float, traced: bool) -> tuple[dict[str, float], dict[str, list]]:
    """Run whole rounds until the next would end after ``deadline`` (monotonic).

    Returns the metrics (medians over rounds) and the untraced end-to-end
    timings of each round.
    """
    round_times, runs, traced_runs, layer_runs, setups = [], [], [], [], []
    while True:
        began = time.monotonic()
        timings, _ = bench.full_run()
        runs.append(timings)
        setups.append(timings["setup_s"])
        if traced:
            timings, layer = bench.full_run(traced=True)
            traced_runs.append(timings)
            layer_runs.append(layer)
        else:
            setups.extend(bench.setup_probe() for _ in range(bench.workload.setup_probes))
        round_times.append(time.monotonic() - began)
        if time.monotonic() + median(round_times) > deadline:
            break
    per_round = {
        "run_s": [r["run_s"] for r in runs],
        "queries_per_s": [r["n_queries"] / r["query_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    if traced:
        metrics = {name: median(r[name] for r in layer_runs) for name in layer_runs[0]}
        metrics["trace.overhead_s"] = median(r["run_s"] for r in traced_runs) - median(per_round["run_s"])
        return metrics, per_round
    metrics = {name: median(values) for name, values in per_round.items()}
    metrics["setup_s"] = median(setups)
    return metrics, per_round


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark complerank run on one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # --seconds covers the whole invocation: input generation and the first
    # run's full check count against it, so every run takes about as long.
    deadline = time.monotonic() + args.seconds

    if not (Path("src") / "complerank" / "__init__.py").is_file():
        print("error: run from the repository root; src/complerank is missing", file=sys.stderr)
        return 1
    sys.path.insert(0, "src")
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed)
        metrics, per_round = measure(bench, deadline, bool(args.trace))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Metric names and units are declared once, in BENCHMARK.json.
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    rounds = len(per_round["run_s"])
    attempted = bench.n_queries * rounds * (2 if args.trace else 1)
    print(f"{args.workload} seed {args.seed}: {rounds} round(s), "
          f"{attempted} queries attempted, {bench.failed} failed")
    print("untraced runs by round: " + json.dumps(per_round))
    if bench.stub is not None:
        http = bench.http
        print(f"http (last run): {http['requests']} requests, {http['injected']['429']} answered 429 "
              f"and retried, {http['connections']} connections; {bench.failed_prompts} prompts failed in all runs")
    for name, digest in bench.last_digests.items():
        print(f"sha256 {name} {digest}")
    for message in bench.problems:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

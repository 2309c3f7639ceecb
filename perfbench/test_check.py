"""The checker's own test: it passes real runs and fails corrupted ones.

Run from anywhere with ``python3 perfbench/test_check.py`` or
``python3 -m pytest perfbench/test_check.py``.  Each case makes a small run
of the program the way the benchmark does, checks that it passes, then
corrupts a copy of its output directory and checks that it fails.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
from workloads import Dataset, Workload  # noqa: E402

SMALL_MOCK = Workload(
    name="check-test-mock", dataset=Dataset(n_items=200), retriever="heuristic",
    preset="fig1", audit=True, concurrency=1, setup_probes=0,
)
SMALL_STUB = Workload(
    name="check-test-stub", dataset=Dataset(n_items=300, scores_depth=60),
    retriever="precomputed", preset="fig1", audit=True, concurrency=2, setup_probes=0,
    endpoint=True,
)


@contextlib.contextmanager
def small_run(workload: Workload):
    """Yield (bench, copy of a checked run directory) for ``workload``."""
    previous = os.getcwd()
    os.chdir(ROOT)
    sys.path.insert(0, "src")
    try:
        bench = run.Bench(workload, seed=3)
        bench.full_run()
        assert bench.problems == [], bench.problems
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "run"
            shutil.copytree(bench.out, copy)
            yield bench, copy
        shutil.rmtree(bench.work)
    finally:
        sys.path.remove("src")
        os.chdir(previous)


def _rewrite_jsonl(path: Path, edit) -> None:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")


def _swap_ndcg(records) -> None:
    first = next(r for r in records if 0 < r["ndcg"] < 1)
    second = next(r for r in records if r["ndcg"] != first["ndcg"])
    first["ndcg"], second["ndcg"] = second["ndcg"], first["ndcg"]


def _duplicate_in_diversity(records) -> None:
    record = next(r for r in records if r["stage"] == "diversity")
    record["order"][1] = record["order"][0]


def _exclude_ground_truth(records) -> None:
    """Drop a retrieved ground-truth id, as a train graph that kept its edge would."""
    record = next(
        r for r in records if set(r["ground_truth"]) & {c for c, _ in r["candidates"]}
    )
    record["candidates"] = [c for c in record["candidates"] if c[0] not in record["ground_truth"]]


def _drop_repair_flag(records) -> None:
    record = next(r for r in records if r["repairs"])
    record["repairs"] = []


def test_swapped_ndcg_fails():
    with small_run(SMALL_MOCK) as (bench, copy):
        _rewrite_jsonl(copy / "per_query.jsonl", _swap_ndcg)
        problems = check.check_run(copy, bench.spec)
        assert any("ndcg" in p for p in problems), problems


def test_non_permutation_fails():
    with small_run(SMALL_MOCK) as (bench, copy):
        _rewrite_jsonl(copy / "stages.jsonl", _duplicate_in_diversity)
        problems = check.check_run(copy, bench.spec)
        assert any("not a permutation" in p for p in problems), problems


def test_train_graph_leak_fails():
    with small_run(SMALL_MOCK) as (bench, copy):
        _rewrite_jsonl(copy / "retrieval.jsonl", _exclude_ground_truth)
        problems = check.check_run(copy, bench.spec)
        assert any("but was not retrieved" in p for p in problems), problems


def test_stub_repair_flag_mismatch_fails():
    with small_run(SMALL_STUB) as (bench, copy):
        _rewrite_jsonl(copy / "stages.jsonl", _drop_repair_flag)
        problems = check.check_run(copy, bench.spec)
        assert any("repair flags" in p for p in problems), problems


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"PASS {name}")

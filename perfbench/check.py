"""Independent checks of one ``complerank run`` output directory.

Usage:

    python3 perfbench/check.py RUN_DIR SPEC

SPEC is the JSON the benchmark writes next to each run config (input paths,
holdout, retriever, depths, cutoffs, audit, stub settings).  Prints each
problem found and exits 1 if there is any.

Every expected value is recomputed here from the inputs and from the
definitions in the README, never compared with a stored copy of an earlier
run and never computed by calling the program:

* stage outputs are permutations of their inputs, and no stage failed;
* the holdout size, and on heuristic runs that no held-out edge leaked
  into the train graph the retriever excludes;
* heuristic candidates of a seeded sample of queries, by brute force;
* precomputed candidates, from the scores file re-sorted here;
* Hit, NDCG, entropy and vocab per query and their means in metrics.csv;
* on the stub workload, every answer, stage order and repair flag.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from pathlib import Path

import stub

STAGES = ("base", "diversity", "diversity_accuracy")
RUN_FILES = (
    "run_config.json", "retrieval.jsonl", "stages.jsonl", "per_query.jsonl",
    "metrics.csv", "metrics.json", "lift.csv", "lift.json",
)
MAX_PROBLEMS = 20


class CheckFailed(Exception):
    pass


def _jsonl(path: Path) -> list:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def tokens(title: str) -> list[str]:
    """Lowercase, then split on runs of characters that are not letters or digits."""
    return "".join(c if c.isalnum() else " " for c in title.lower()).split()


def heuristic_score(query: dict, cand: dict) -> float:
    """README formula: category-prefix overlap plus 1/(1+|log(p_q/p_c)|), unit weights."""
    qc, cc = query.get("categories", []), cand.get("categories", [])
    longest = max(len(qc), len(cc))
    common = 0
    while common < min(len(qc), len(cc)) and qc[common] == cc[common]:
        common += 1
    score = 1.0 * (common / longest if longest else 0.0)
    pq, pc = query.get("price"), cand.get("price")
    if pq is not None and pc is not None and pq > 0 and pc > 0:
        score += 1.0 / (1.0 + abs(math.log(pq / pc)))
    return score


def ranked(pairs, exclude: str, n: int) -> list[list]:
    """Best score per id, ``exclude`` dropped, by score descending then id, top ``n``."""
    best: dict[str, float] = {}
    for item_id, score in pairs:
        if item_id != exclude and (item_id not in best or score > best[item_id]):
            best[item_id] = score
    return [list(p) for p in sorted(best.items(), key=lambda p: (-p[1], p[0]))[:n]]


def per_query_values(order, truth, title_tokens, k):
    top = order[:k]
    dcg = sum(1.0 / math.log2(pos + 1) for pos, i in enumerate(top, start=1) if i in truth)
    idcg = sum(1.0 / math.log2(pos + 1) for pos in range(1, min(len(truth), k) + 1))
    counts: dict[str, int] = {}
    for item_id in top:
        for token in title_tokens[item_id]:
            counts[token] = counts.get(token, 0) + 1
    total = sum(counts.values())
    entropy = -sum(c / total * math.log(c / total) for c in counts.values()) if total else 0.0
    return {
        "hit": int(any(i in truth for i in top)),
        "ndcg": dcg / idcg,
        "entropy": entropy,
        "vocab": len(counts),
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_run(run_dir: str | Path, spec: dict) -> list[str]:
    """Return the problems found in ``run_dir`` (empty when it passes)."""
    problems: list[str] = []

    def problem(message: str) -> None:
        problems.append(message)
        if len(problems) >= MAX_PROBLEMS:
            raise CheckFailed

    try:
        _check(Path(run_dir), spec, problem)
    except CheckFailed:
        pass
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable run output: {exc!r}")
    return problems


def _check(run: Path, spec: dict, problem) -> None:
    names = list(RUN_FILES) + (["audit.jsonl"] if spec["audit"] else [])
    missing = [name for name in names if not (run / name).is_file()]
    if missing:
        problem(f"missing output files: {missing}")
        return
    n_div, n_acc, cutoffs = spec["n_div"], spec["n_acc"], sorted(spec["cutoffs"])

    items = {rec["id"]: rec for rec in _jsonl(Path(spec["items"]))}
    titles = {item_id: rec["title"] for item_id, rec in items.items()}
    title_tokens = {item_id: tokens(title) for item_id, title in titles.items()}
    edges = {tuple(sorted(pair)) for pair in _jsonl(Path(spec["edges"]))}

    run_config = json.loads((run / "run_config.json").read_text(encoding="utf-8"))
    for key in ("n_div", "n_acc", "cutoffs", "concurrency"):
        if run_config[key] != spec[key]:
            problem(f"run_config.json: {key} is {run_config[key]!r}, expected {spec[key]!r}")

    # Holdout: ground truth is exactly the held-out edges, none left in train.
    retrieval = _jsonl(run / "retrieval.jsonl")
    truth = {rec["query_id"]: set(rec["ground_truth"]) for rec in retrieval}
    if len(truth) != len(retrieval) or run_config["n_queries"] != len(retrieval):
        problem("retrieval.jsonl: query ids are not unique or do not match n_queries")
    held = {(q, g) for q, gts in truth.items() for g in gts}
    expected_held = math.floor(spec["holdout"] * len(edges) + 0.5)
    if len(held) != expected_held:
        problem(f"{len(held)} held-out edges, expected floor(holdout*|E|+0.5) = {expected_held}")
    if not held <= edges or any(q >= g for q, g in held):
        problem("a ground-truth pair is not a dataset edge with the query as its smaller id")
    neighbours: dict[str, set[str]] = {}
    for a, b in edges - held:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)

    # Retrieval.
    scores = None
    if spec["retriever"] == "precomputed":
        scores = {rec["query_id"]: rec["candidates"] for rec in _jsonl(Path(spec["scores"]))}
    sample = set(random.Random(spec["sample_seed"]).sample(sorted(truth), min(len(truth), spec["brute_force_sample"])))
    for rec in retrieval:
        q, cands = rec["query_id"], rec["candidates"]
        if scores is not None:
            if cands != ranked(scores[q], q, n_div):
                problem(f"query {q}: candidates differ from the top {n_div} of the scores file")
        else:
            skip = neighbours.get(q, set()) | {q}
            retrieved = {c for c, _ in cands}
            if retrieved & skip:
                problem(f"query {q}: a train neighbour or the query itself was retrieved")
            # A held-out edge left in the program's train graph makes its
            # retriever exclude that ground-truth id, however well it scores.
            last = (-cands[-1][1], cands[-1][0]) if len(cands) == n_div else None
            for g in sorted(truth[q] - retrieved):
                if last is None or (-heuristic_score(items[q], items[g]), g) < last:
                    problem(f"query {q}: ground-truth id {g} ranks in the top {n_div} but was not retrieved")
            if q in sample:
                brute = ranked(
                    ((i, heuristic_score(items[q], rec_i)) for i, rec_i in items.items() if i not in skip),
                    q, n_div,
                )
                if cands != brute:
                    problem(f"query {q}: heuristic candidates differ from the brute-force top {n_div}")

    # Stages: permutations of their inputs, nothing failed.
    orders: dict[tuple[str, str], list[str]] = {}
    repairs: dict[tuple[str, str], list[str]] = {}
    stage_records = _jsonl(run / "stages.jsonl")
    if len(stage_records) != 3 * len(retrieval):
        problem(f"stages.jsonl has {len(stage_records)} records, expected {3 * len(retrieval)}")
    for rec in stage_records:
        orders[(rec["query_id"], rec["stage"])] = rec["order"]
        repairs[(rec["query_id"], rec["stage"])] = rec["repairs"]
        if rec["failed"]:
            problem(f"query {rec['query_id']} stage {rec['stage']}: flagged failed")
        if spec["stub"] is None and rec["repairs"]:
            problem(f"query {rec['query_id']} stage {rec['stage']}: repairs {rec['repairs']} on a mock answer")
    for rec in retrieval:
        q = rec["query_id"]
        base = orders.get((q, "base"))
        div = orders.get((q, "diversity"))
        final = orders.get((q, "diversity_accuracy"))
        if base is None or div is None or final is None:
            problem(f"query {q}: a stage record is missing")
            continue
        if base != [c for c, _ in rec["candidates"]]:
            problem(f"query {q}: base order is not the retrieved order")
        if sorted(div) != sorted(base) or len(set(div)) != len(div):
            problem(f"query {q}: diversity order is not a permutation of base")
        if sorted(final) != sorted(div[:n_acc]) or len(set(final)) != len(final):
            problem(f"query {q}: final order is not a permutation of the first {n_acc} of diversity")

    # Metrics, recomputed from stage orders, ground truth and titles.
    expected: dict[tuple, dict] = {}
    for (q, stage), order in orders.items():
        for k in cutoffs:
            expected[(q, stage, k)] = per_query_values(order, truth[q], title_tokens, k)
    rows = _jsonl(run / "per_query.jsonl")
    if len(rows) != len(expected):
        problem(f"per_query.jsonl has {len(rows)} rows, expected {len(expected)}")
    for row in rows:
        want = expected.get((row["query_id"], row["stage"], row["k"]))
        if want is None:
            problem(f"per_query.jsonl: unexpected row {row['query_id']} {row['stage']} k={row['k']}")
            continue
        for metric, value in want.items():
            if not _close(row[metric], value):
                problem(f"per_query.jsonl: {row['query_id']} {row['stage']} k={row['k']} {metric} is {row[metric]}, expected {value}")
    with (run / "metrics.csv").open(encoding="utf-8", newline="") as fh:
        means = list(csv.DictReader(fh))
    if len(means) != len(STAGES) * len(cutoffs):
        problem(f"metrics.csv has {len(means)} rows, expected {len(STAGES) * len(cutoffs)}")
    for row in means:
        values = [v for (q, stage, k), v in expected.items() if stage == row["stage"] and k == int(row["k"])]
        for metric in ("hit", "ndcg", "entropy", "vocab"):
            want = math.fsum(v[metric] for v in values) / len(values)
            if not _close(float(row[metric]), want):
                problem(f"metrics.csv: {row['stage']} k={row['k']} {metric} is {row[metric]}, expected {want}")

    if spec["audit"]:
        _check_audit(run, spec, orders, repairs, titles, problem)


def _check_audit(run: Path, spec: dict, orders, repairs, titles, problem) -> None:
    """Every prompt lists its stage's input; on the stub, every answer is the stub's."""
    stub_cfg = spec["stub"]
    faults = {(t, k): f for t, k, f in stub_cfg["faults"]} if stub_cfg else {}
    seen_faults = set()
    records = _jsonl(run / "audit.jsonl")
    if len(records) != 2 * len(orders) // 3:
        problem(f"audit.jsonl has {len(records)} records, expected {2 * len(orders) // 3}")
    for rec in records:
        q, stage, prompt = rec["query_id"], rec["stage"], rec["prompt"]
        inputs = orders[(q, "base")] if stage == "diversity" else orders[(q, "diversity")][: spec["n_acc"]]
        listing = [f"ID:{k} title: {titles[i]}" for k, i in enumerate(inputs)]
        if prompt is None or listing != [line for line in prompt.splitlines() if line.startswith("ID:")]:
            problem(f"audit {q} {stage}: prompt does not list the stage's input in order")
            continue
        if stub_cfg is None:
            continue
        key = stub.prompt_key(prompt)
        fault = faults.get(key)
        if fault:
            seen_faults.add(key)
        answered = None if fault == "429" else fault
        if rec["response"] != stub.answer(prompt, stub_cfg["seed"], answered):
            problem(f"audit {q} {stage}: response is not the stub's answer")
        perm = stub.permutation(prompt, stub_cfg["seed"])
        if answered == "duplicate":
            perm = [perm[0]] + perm[2:] + [perm[1]]
            want_repairs = ["appended_missing", "deduplicated"]
        else:
            want_repairs = []
        if orders[(q, stage)] != [inputs[k] for k in perm]:
            problem(f"audit {q} {stage}: stage order does not follow the stub's answer")
        if rec["repairs"] != want_repairs or repairs[(q, stage)] != want_repairs:
            problem(f"audit {q} {stage}: repair flags differ from {want_repairs}")
    if stub_cfg and len(seen_faults) != len(faults):
        problem(f"{len(seen_faults)} of {len(faults)} fault prompts reached the audit log")


def main() -> int:
    problems = check_run(sys.argv[1], json.loads(Path(sys.argv[2]).read_text(encoding="utf-8")))
    for message in problems:
        print(message)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

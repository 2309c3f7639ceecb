"""Workload definitions and their seeded, cached inputs.

Inputs are built from the program's own generator (``synth``) and holdout
split, outside every timed region, once per (dataset, seed), and cached under
``.perfbench/inputs``.  A run of the program only ever sees the files written
here.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

WORK_DIR = Path(".perfbench")
INPUT_DIR = WORK_DIR / "inputs"

# Make-up of every synthetic catalog and its holdout split (see README).
N_GENRES = 8
EDGES_PER_ITEM = 4.0
HOLDOUT = 0.2

# Fixed shares of the stub's faults, counted in prompts (see README).
STUB_LATENCY_S = 0.010
STUB_FAULTS = {"429": 8, "prose": 8, "duplicate": 8}


@dataclass(frozen=True)
class Dataset:
    """A synthetic catalog, its holdout split and an optional scores file."""

    n_items: int
    scores_depth: int = 0  # 0: no precomputed scores file

    def key(self, seed: int) -> str:
        return f"{self.n_items}i-d{self.scores_depth}-s{seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: Dataset
    retriever: str  # "heuristic" or "precomputed"
    preset: str
    audit: bool
    concurrency: int
    setup_probes: int  # set-up-only child runs per round, for a steady setup_s
    endpoint: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Not in BENCHMARK.json (README, "Why heuristic-fig1 is not listed").
        Workload(
            name="heuristic-fig1",
            dataset=Dataset(n_items=1700),
            retriever="heuristic",
            preset="fig1",
            audit=False,
            concurrency=1,
            setup_probes=4,
        ),
        Workload(
            name="precomputed-fig2-audit",
            dataset=Dataset(n_items=4800, scores_depth=200),
            retriever="precomputed",
            preset="fig2",
            audit=True,
            concurrency=1,
            setup_probes=1,
        ),
        Workload(
            name="endpoint-stub-c2",
            dataset=Dataset(n_items=1600, scores_depth=100),
            retriever="precomputed",
            preset="fig1",
            audit=True,
            concurrency=2,
            endpoint=True,
            setup_probes=2,
        ),
    )
}


def split_seed(seed: int) -> int:
    return 7000 + seed


def mock_policy(seed: int) -> str:
    return f"shuffle:{seed}"


def prepare_inputs(dataset: Dataset, seed: int) -> Path:
    """Return the input directory for ``dataset`` at ``seed``, building it once.

    Holds ``items.jsonl``, ``edges.jsonl``, ``genres.json``, ``queries.json``
    (query ids and titles of the split) and, for a nonzero scores depth,
    ``scores.jsonl``.
    """
    out = INPUT_DIR / dataset.key(seed)
    if (out / "queries.json").exists():
        return out
    from complerank import catalog, synth

    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    graph, genre_of = synth.generate(
        synth.SynthConfig(
            n_items=dataset.n_items,
            n_genres=N_GENRES,
            edges_per_item=EDGES_PER_ITEM,
            seed=seed,
        )
    )
    synth.write_dataset(graph, genre_of, tmp)
    train, queries = catalog.split_holdout(graph, HOLDOUT, split_seed(seed))
    if dataset.scores_depth:
        _write_scores(tmp / "scores.jsonl", graph, train.edges, queries, dataset.scores_depth, seed)
    (tmp / "queries.json").write_text(
        json.dumps([[q.query_id, graph.items[q.query_id].title] for q in queries]) + "\n",
        encoding="utf-8",
    )
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


def _write_scores(path, graph, train_edges, queries, depth, seed) -> None:
    """Stand in for a trained model's export: ``depth`` candidates per query.

    Train-graph neighbours are left out, as a model scoring unseen pairs
    would; each held-out complement is ranked in with probability 1/2, so
    Hit and NDCG are not all zero.  Lines are written best-first, the way an
    exporter would, though the program re-sorts them.
    """
    adjacency: dict[str, set[str]] = {}
    for a, b in train_edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    ids = sorted(graph.items)
    rng = random.Random(f"scores:{seed}")
    with path.open("w", encoding="utf-8") as fh:
        for query in queries:
            skip = adjacency.get(query.query_id, set()) | {query.query_id}
            chosen = [g for g in sorted(query.ground_truth) if rng.random() < 0.5]
            taken = set(chosen) | skip
            while len(chosen) < depth:
                item_id = ids[rng.randrange(len(ids))]
                if item_id not in taken:
                    taken.add(item_id)
                    chosen.append(item_id)
            scored = sorted(((i, rng.random()) for i in chosen), key=lambda p: (-p[1], p[0]))
            fh.write(json.dumps({"query_id": query.query_id, "candidates": scored}) + "\n")


def stub_faults(input_dir: Path, seed: int) -> list[list[str]]:
    """Pick the prompts the stub answers with a fault, as ``[title, kind, fault]``.

    A prompt is named by its query's title and its agent kind.  Only queries
    whose title no other item has are picked, so each fault hits exactly one
    prompt and every seed gets the same number of faults.
    """
    items = (input_dir / "items.jsonl").read_text(encoding="utf-8").splitlines()
    titles = [json.loads(line)["title"] for line in items]
    once = {title for title, n in Counter(titles).items() if n == 1}
    queries = json.loads((input_dir / "queries.json").read_text(encoding="utf-8"))
    candidates = [title for _, title in queries if title in once]
    rng = random.Random(f"faults:{seed}")
    picked = rng.sample(candidates, sum(STUB_FAULTS.values()))
    faults = []
    for fault, count in STUB_FAULTS.items():
        for k in range(count):
            faults.append([picked.pop(), "diversity" if k % 2 == 0 else "accuracy", fault])
    return faults

#!/usr/bin/env python3
"""Export a precomputed-scores file with seeded-random relevance scores.

Stands in for a trained model's exported candidate lists: it replays the same
holdout split as a run (same dataset files, same split settings), then for
each query scores the candidate pool (every item but the query and its
train-graph neighbours) with a seeded RNG and keeps the top ``--depth``.  Feed the output to ``complerank run --retriever precomputed``
with a config whose ``retriever.path`` points at it and whose split settings
match.  Each list is written best-first, with no query id and no repeated
id, the order a run takes as it stands, without sorting.

Usage:
  python scripts/make_mock_scores.py --items items.jsonl --edges edges.jsonl \
      --holdout 0.2 --split-seed 7 --score-seed 101 --depth 100 --out gnnA.jsonl
"""

import argparse
import heapq
import json
import random
from operator import itemgetter

from complerank import catalog


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", required=True)
    parser.add_argument("--edges", required=True)
    parser.add_argument("--holdout", type=float, default=0.2)
    parser.add_argument("--split-seed", type=int, default=0)
    parser.add_argument("--score-seed", type=int, required=True)
    parser.add_argument("--depth", type=int, default=100)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    graph = catalog.load_catalog(args.items, args.edges)
    train, queries = catalog.split_holdout(graph, args.holdout, args.split_seed)

    pool = sorted(train.items)
    rng = random.Random(args.score_seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        for query in queries:
            skip = {query.query_id} | train.neighbors(query.query_id)
            scored = [(item_id, rng.random()) for item_id in pool if item_id not in skip]
            # ``nlargest`` keeps input order among equal scores, and ``pool`` is sorted by id.
            top = heapq.nlargest(args.depth, scored, key=itemgetter(1))
            record = {"query_id": query.query_id, "candidates": [[item_id, score] for item_id, score in top]}
            fh.write(json.dumps(record) + "\n")
    print(args.out)


if __name__ == "__main__":
    main()

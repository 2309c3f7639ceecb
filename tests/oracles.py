"""Test oracles: the per-cutoff reference implementation of each metric.

``metrics.evaluate_results`` computes every metric at every cutoff in one walk down each list; the
tests compare it, value for value, with these straightforward per-cutoff kernels.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Sequence

from complerank.metrics import tokenize


def hit_at_k(order: Sequence[str], ground_truth: frozenset[str] | set[str], k: int) -> int:
    """1 iff any ground-truth id appears in the first min(k, len(order)) positions."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not ground_truth:
        raise ValueError("ground truth must be nonempty")
    return int(any(item_id in ground_truth for item_id in order[:k]))


def ndcg_at_k(order: Sequence[str], ground_truth: frozenset[str] | set[str], k: int) -> float:
    """Binary-relevance NDCG at cutoff k, in [0, 1]."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not ground_truth:
        raise ValueError("ground truth must be nonempty")
    dcg = 0.0
    for position, item_id in enumerate(order[:k], start=1):
        if item_id in ground_truth:
            dcg += 1.0 / math.log2(position + 1)
    ideal_hits = min(len(ground_truth), k)
    # Left to right, as ``evaluate_results`` adds: since Python 3.12 ``sum`` of floats is compensated.
    idcg = functools.reduce(operator.add, (1.0 / math.log2(p + 1) for p in range(1, ideal_hits + 1)))
    return dcg / idcg


def entropy_at_k(titles: Iterable[str]) -> float:
    """Shannon entropy (nats) of the token distribution pooled over titles."""
    counts: dict[str, int] = {}
    for title in titles:
        for token in tokenize(title):
            counts[token] = counts.get(token, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return -math.fsum((c / total) * math.log(c / total) for c in counts.values())


def vocab_at_k(titles: Iterable[str]) -> int:
    """Number of distinct tokens across the given titles."""
    vocabulary: set[str] = set()
    for title in titles:
        vocabulary.update(tokenize(title))
    return len(vocabulary)

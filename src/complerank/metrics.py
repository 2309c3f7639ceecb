"""Ranking metrics: Hit@K, NDCG@K, title-token entropy, vocabulary size, lift.

Accuracy metrics use binary relevance against a per-query ground-truth set.
NDCG discounts by log2 of the 1-based position and normalizes by the ideal
ordering's gain over ``min(|ground truth|, K)`` positions, which makes
NDCG@1 coincide exactly with Hit@1.

Diversity metrics pool the tokens of the top-K recommended titles:
entropy is Shannon entropy in nats of the pooled token distribution,
vocabulary is the count of distinct tokens.  Tokens come from lowercasing
and splitting on runs of non-alphanumeric characters.

Per-query values are averaged (unweighted) into per-method rows; lift is the
percent change of an enhanced stage over a baseline, aggregated across
retrievers with a standard error.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

# ``cli`` writes its JSON tables through ``metrics.write_json``, where the benchmark tracer wraps it.
from .catalog import Item, write_json
from .pipeline import STAGE_BASE, STAGE_DIVERSITY, STAGE_FINAL, QueryResult

METRIC_NAMES = ("hit", "ndcg", "entropy", "vocab")

# (name, enhanced stage, baseline stage) in report order.
COMPARISONS = (
    ("overall_vs_base", STAGE_FINAL, STAGE_BASE),
    ("diversity_vs_base", STAGE_DIVERSITY, STAGE_BASE),
    ("final_vs_diversity", STAGE_FINAL, STAGE_DIVERSITY),
)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(title: str) -> list[str]:
    """Lowercase and split on maximal runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(title.lower())


@dataclass
class PerQueryRow:
    """One query's metrics for one stage at one cutoff."""

    query_id: str
    stage: str
    k: int
    hit: int
    ndcg: float
    entropy: float
    vocab: int


@dataclass
class MetricsRow:
    """Per-method (retriever, stage) means over queries at one cutoff, fields in CSV column order."""

    retriever: str
    dataset: str
    stage: str
    k: int
    hit: float
    ndcg: float
    entropy: float
    vocab: float


@dataclass
class LiftRow:
    """Percent change of one metric between two stages, with cross-retriever spread."""

    metric: str
    dataset: str
    k: int
    comparison: str
    mean_lift_pct: float | None
    std_err: float | None
    n_retrievers: int


# Bounded: a table holds ``total + 1`` floats, and pools of very long titles
# could otherwise keep thousands of large tables alive.
@functools.lru_cache(maxsize=128)
def _entropy_terms(total: int) -> tuple[float, ...]:
    """Entropy terms ``(c / total) * math.log(c / total)`` of a ``total``-token pool, by count c."""
    return (0.0, *((c / total) * math.log(c / total) for c in range(1, total + 1)))


def evaluate_results(
    results: Iterable[QueryResult],
    items: Mapping[str, Item],
    cutoffs: Sequence[int],
) -> Iterator[PerQueryRow]:
    """Per-query rows for every stage of every pipeline result, against its query's ground truth, lazily.

    One walk down each stage's order covers every sorted cutoff, with prefix accumulators.  Each value
    equals, float for float, the one the per-cutoff oracles in ``tests/oracles.py`` give: the dcg and
    the ideal dcg add the same terms left to right, and each entropy term has the same expression,
    under ``math.fsum``, which is exactly rounded, so the order of its terms does not matter.
    """
    ks = sorted(cutoffs)
    if not ks:
        return
    if ks[0] < 1:
        raise ValueError(f"k must be >= 1, got {ks[0]}")
    # Each title is tokenized once, on first use, into a tuple of token strings shared across titles.
    shared: dict[str, str] = {}

    @functools.cache
    def tokens_of(item_id: str) -> tuple[str, ...]:
        tokens = tokenize(items[item_id].title)
        return tuple(map(shared.setdefault, tokens, tokens))

    # ``discounts[p - 1]`` is the gain of a hit at position p, ``ideal_dcg[h - 1]`` that of h hits.
    discounts = [1.0 / math.log2(p + 1) for p in range(1, ks[-1] + 1)]
    ideal_dcg = list(accumulate(discounts))
    for result in results:
        query_id, truth = result.query.query_id, result.query.ground_truth
        for outcome, order in zip(result.stages, result.orders()):
            top = order[: ks[-1]]
            hit_positions = [p for p, item_id in enumerate(top, start=1) if item_id in truth]
            counts: Counter[str] = Counter()
            dcg, depth, next_hit = 0.0, 0, 0  # next_hit counts the hits in the first k
            for k in ks:
                while next_hit < len(hit_positions) and hit_positions[next_hit] <= k:
                    dcg += discounts[hit_positions[next_hit] - 1]
                    next_hit += 1
                counts.update(chain.from_iterable(map(tokens_of, top[depth:k])))
                depth = k
                total = sum(counts.values())
                terms = _entropy_terms(total)
                entropy = -math.fsum(map(terms.__getitem__, counts.values())) if total else 0.0
                ndcg = dcg / ideal_dcg[min(len(truth), k) - 1]
                yield PerQueryRow(query_id, outcome.stage, k, int(next_hit > 0), ndcg, entropy, len(counts))


def aggregate(rows: Iterable[PerQueryRow], retriever: str, dataset: str) -> list[MetricsRow]:
    """Unweighted means over queries of every (stage, k), in the order the rows first name them, in one pass."""
    # (stage, k) -> [row count, *metric totals].  Each total starts at its first row's value (a 0.0 start
    # would turn -0.0 into 0.0) and adds the rest left to right (since Python 3.12 ``sum`` compensates).
    totals: dict[tuple[str, int], list] = {}
    for row in rows:
        values = (1, row.hit, row.ndcg, row.entropy, row.vocab)
        key = row.stage, row.k
        totals[key] = list(map(operator.add, totals[key], values)) if key in totals else list(values)
    if not totals:
        raise ValueError("no per-query rows")
    return [
        MetricsRow(retriever, dataset, stage, k, *(total / count for total in metric_totals))
        for (stage, k), (count, *metric_totals) in totals.items()
    ]


def lift_with_stderr(lifts: Sequence[float]) -> tuple[float, float]:
    """Mean lift and its standard error (sample sd / sqrt(n)) across retrievers.

    A single value yields std_err 0 by convention; callers should surface the
    degenerate count (see ``LiftRow.n_retrievers``).
    """
    if not lifts:
        raise ValueError("cannot aggregate an empty list of lifts")
    mean = math.fsum(lifts) / len(lifts)
    if len(lifts) < 2:
        return mean, 0.0
    from statistics import stdev  # only a report over two or more runs needs it

    return mean, stdev(lifts) / math.sqrt(len(lifts))


def lift_rows_for_runs(
    rows_by_retriever: Mapping[str, Sequence[MetricsRow]],
    dataset: str,
    cutoffs: Sequence[int],
) -> list[LiftRow]:
    """Lift table over one or more retrievers.

    Each retriever's lift is the percent change 100 * (enhanced - base) / base
    against its own baseline stage, then averaged across retrievers with a
    standard error.  A zero base makes the lift undefined: that retriever
    drops out of the cell's aggregate (tracked by ``n_retrievers``), and a
    cell with no retriever left reports ``None``.
    """
    indexed = [
        {(row.stage, row.k): row for row in rows} for _, rows in sorted(rows_by_retriever.items())
    ]
    out: list[LiftRow] = []
    for comparison, enhanced_stage, base_stage in COMPARISONS:
        for metric in METRIC_NAMES:
            for k in sorted(cutoffs):
                values: list[float] = []
                for rows in indexed:
                    base = getattr(rows[base_stage, k], metric)
                    if base != 0:
                        values.append(100.0 * (getattr(rows[enhanced_stage, k], metric) - base) / base)
                mean, std_err = lift_with_stderr(values) if values else (None, None)
                out.append(LiftRow(metric, dataset, k, comparison, mean, std_err, len(values)))
    return out


def _write_csv(rows: Sequence, row_type: type, path: str | Path) -> None:
    """One header of ``row_type``'s field names (``retriever`` as ``method``), then one line per row."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow("method" if f.name == "retriever" else f.name for f in fields(row_type))
        writer.writerows(vars(row).values() for row in rows)


def write_metrics_csv(rows: Sequence[MetricsRow], path: str | Path) -> None:
    _write_csv(rows, MetricsRow, path)


def write_lift_csv(rows: Sequence[LiftRow], path: str | Path) -> None:
    _write_csv(rows, LiftRow, path)


def rows_to_dicts(rows: Sequence) -> list[dict]:
    """Copies of the rows' field dicts (the fields are scalars, so no deep copy as in ``asdict``)."""
    return [dict(vars(row)) for row in rows]

"""Baseline relevance scoring and top-N candidate retrieval.

The reranking stages are agnostic of where relevance scores come from: any
source of per-pair scores can act as the retriever.  Two sources ship here:

  * a heuristic scorer (category-path overlap plus price proximity) that makes
    the pipeline self-contained on synthetic data, and
  * a precomputed-scores reader, so candidate lists exported from any external
    model (e.g. a trained GNN) can be plugged in unchanged.

Candidate lists are always normalized: unique ids, query excluded, scores
non-increasing, ties broken by ascending item id.  ``retrieve`` returns one as
two columns, a tuple of ids and an ``array("d")`` of their scores.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from itertools import islice
from operator import gt, itemgetter
from pathlib import Path
from typing import Any, Iterable, NoReturn, Sequence

from .agents import MAX_CANDIDATES
from .catalog import ComplementGraph, Item, read_json_lines


def category_overlap(a: tuple[str, ...], b: tuple[str, ...]) -> float:
    """Longest common category prefix over the longer path length, in [0, 1].

    Two empty paths share no evidence of relatedness and score 0.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    common = 0
    for level_a, level_b in zip(a, b):
        if level_a != level_b:
            break
        common += 1
    return common / longest


def score_pair(query: Item, candidate: Item) -> float:
    """Heuristic relevance score: higher means more likely complementary.

    ``overlap + 1 / (1 + |log(p_q / p_c)|)``, where the price term contributes
    0 unless both prices are present and positive.  Another scorer comes in as
    a precomputed scores file.
    """
    score = category_overlap(query.categories, candidate.categories)
    p_q, p_c = query.price, candidate.price
    if p_q is not None and p_c is not None and p_q > 0 and p_c > 0:
        ratio = p_q / p_c
        # log(0) raises and log(inf) drops the term, so a ratio past the float range takes
        # the difference of logs.  That can differ from log(ratio) in the last bit: only then.
        log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(p_q) - math.log(p_c)
        score += 1.0 / (1.0 + abs(log_ratio))
    return score


def _normalized(
    query_id: str, ids: Sequence[str], scores: Sequence[float], n: int
) -> tuple[tuple[str, ...], array]:
    """The top ``n`` of the ``(ids, scores)`` columns in the module's order, the scores as a new array."""
    if n < 1:
        raise ValueError(f"retrieval depth must be positive, got {n}")
    # A list whose head is already in this order, as a model exports it, is cut, not sorted: the head's
    # scores strictly decrease (so no tie needs the id order), every later score is below the head's
    # last (so no later entry, a repeat or the query included, can rank in it), and the head's ids are
    # unique and none is the query's.  An unsorted list fails the first check within a few elements.
    head_ids, head_scores = ids[:n], scores[:n]
    if (
        all(map(gt, head_scores, islice(head_scores, 1, None)))
        and (len(scores) <= n or max(scores[n:]) < head_scores[-1])
        and query_id not in head_ids
        and len(set(head_ids)) == len(head_ids)
    ):
        return tuple(head_ids), array("d", head_scores)
    best = dict(zip(ids, scores))
    if len(best) < len(ids):  # a repeated id keeps its highest score
        best = {}
        for item_id, score in zip(ids, scores):
            if item_id not in best or score > best[item_id]:
                best[item_id] = score
    best.pop(query_id, None)
    # Two stable sorts: ascending id, then descending score, which keeps id
    # order among equal scores.  Without ties the id order cannot show.
    ordered = list(best.items())
    if len(set(best.values())) < len(ordered):
        ordered.sort(key=itemgetter(0))
    ordered.sort(key=itemgetter(1), reverse=True)
    head_ids, head_scores = zip(*ordered[:n]) if ordered else ((), ())
    return head_ids, array("d", head_scores)


@dataclass
class HeuristicRetriever:
    """Top-n items of a train graph by :func:`score_pair` against the query.

    The query and the items already linked to it in the train graph are left
    out, since those are known (not predicted) complements.  Returns fewer
    than n candidates when the pool is smaller.
    """

    graph: ComplementGraph
    name: str = "heuristic"

    def retrieve(self, query_id: str, n: int) -> tuple[tuple[str, ...], array]:
        items = self.graph.items
        if query_id not in items:
            raise ValueError(f"unknown query id {query_id!r}")
        query = items[query_id]
        skip = self.graph.neighbors(query_id) | {query_id}
        ids = [item_id for item_id in items if item_id not in skip]
        scores = [score_pair(query, items[item_id]) for item_id in ids]
        return _normalized(query_id, ids, scores, n)


# The decoded JSON types a scores file may use for an id and for a score.  Types are
# compared exactly, so a JSON ``true`` (a bool) is neither.
_ID = frozenset((str, int))
_NUMBER = frozenset((int, float))


def _reject(values: Sequence[object], types: frozenset[type], what: str) -> NoReturn:
    wrong = next(value for value in values if type(value) not in types)
    raise ValueError(f"{what}, got {json.dumps(wrong)}")


class PrecomputedRetriever:
    """Per-query ranked candidate lists loaded from an exported scores file.

    Each JSON Lines record is ``{"query_id": ..., "candidates": [[item_id, score], ...]}``,
    one per query id (``10`` and ``"10"`` name the same one).  Every candidate must be a
    two-element JSON array, its id a string or an integer in ``items`` (the catalog) and its
    score a finite JSON number; a malformed line, a query id that is no string or integer or is
    repeated, a NaN or infinite score, a candidate id or score of another JSON type or an unknown
    id fails at load with ``path:line``, checked in that order.  A line that passes is ranked at
    once and only its head of ``depth`` entries is held, as two columns: a tuple of the catalog's
    own id strings and an ``array("d")`` of the scores.

    :meth:`retrieve` only reads: it returns the held columns, or slices of them for a smaller
    ``n``, so a caller that keeps them holds no copy.
    """

    def __init__(
        self, path: str | Path, items: Iterable[str], name: str | None = None, depth: int = MAX_CANDIDATES
    ):
        if depth < 1:
            raise ValueError(f"retrieval depth must be positive, got {depth}")
        self.path = Path(path)
        self.name = name or self.path.stem
        self.depth = depth
        canonical = {item_id: item_id for item_id in items}
        self._lists: dict[str, tuple[tuple[str, ...], array]] = {}

        def parse(record: Any) -> tuple[str, tuple[tuple[str, ...], array]]:
            try:
                query_id = record["query_id"]
                candidates = record["candidates"]
                if not set(map(type, candidates)) <= {list} or not set(map(len, candidates)) <= {2}:
                    raise ValueError("a candidate is not a two-element array")
                ids, values = zip(*candidates) if candidates else ((), ())
                # The JSON types of each column, found once.  A score of another type goes through
                # ``float``, so a string that spells no number, such as "x", fails here as malformed.
                id_types, score_types = set(map(type, ids)), set(map(type, values))
                scores = array("d", values if score_types <= _NUMBER else map(float, values))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"malformed scores line ({exc})") from exc
            if type(query_id) not in _ID:
                raise ValueError(f"query_id must be a string or an integer, got {json.dumps(query_id)}")
            if str(query_id) in self._lists:
                raise ValueError(f"duplicate query id {str(query_id)!r}")
            # A sum of finite scores is finite unless it overflows; only then look closer.
            if not math.isfinite(sum(scores)):
                for item_id, score in zip(ids, scores):
                    if not math.isfinite(score):
                        raise ValueError(f"candidate {str(item_id)!r} has non-finite score {score}")
            if not id_types <= _ID:
                _reject(ids, _ID, "candidate id must be a string or an integer")
            if not score_types <= _NUMBER:
                _reject(values, _NUMBER, "candidate score must be a number")
            try:
                ids = tuple(map(canonical.__getitem__, map(str, ids) if int in id_types else ids))
            except KeyError as exc:
                raise ValueError(f"candidate id {exc.args[0]!r} is not in the catalog") from None
            return str(query_id), _normalized(str(query_id), ids, scores, depth)

        for query_id, columns in read_json_lines(self.path, parse):
            self._lists[query_id] = columns

    def check_coverage(self, query_ids: Sequence[str]) -> None:
        """Raise unless every query has a line naming some candidate other than itself."""
        lists = self._lists
        uncovered = [query_id for query_id in query_ids if query_id not in lists or not lists[query_id][0]]
        if uncovered:
            raise ValueError(
                f"{self.path}: no candidate for {len(uncovered)} of {len(query_ids)} queries, "
                f"the first {uncovered[0]!r}"
            )

    def retrieve(self, query_id: str, n: int) -> tuple[tuple[str, ...], array]:
        if query_id not in self._lists:
            raise ValueError(f"query {query_id!r} not present in {self.path}")
        if not 1 <= n <= self.depth:
            raise ValueError(f"retrieval depth must be in 1..{self.depth}, got {n}")
        ids, scores = self._lists[query_id]
        return (ids, scores) if n >= len(ids) else (ids[:n], scores[:n])

"""Three-stage reranking flow over a catalog of queries.

Per query: retrieve the top ``n_div`` candidates, let the diversity agent
rerank them, truncate to the top ``n_acc``, let the accuracy agent refine
those.  A :class:`QueryResult` carries the query, its retrieval scores and
one flat :class:`StageOutcome` per stage, in ``STAGES`` order
(base / diversity / diversity_accuracy), so ablations can be evaluated side
by side and each outcome written as one record.

A transport failure that survives its retries does not abort the run: the
stage falls back to identity order and the query is flagged, keeping
evaluation denominators constant across methods.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from .agents import (
    MAX_CANDIDATES,
    NO_REPAIRS,
    AgentKind,
    Transport,
    TransportError,
    build_prompt,
    parse_permutation,
)
from .catalog import Item, QueryInstance

STAGE_BASE = "base"
STAGE_DIVERSITY = "diversity"
STAGE_FINAL = "diversity_accuracy"
STAGES = (STAGE_BASE, STAGE_DIVERSITY, STAGE_FINAL)

_STAGE_BY_KIND = {AgentKind.DIVERSITY: STAGE_DIVERSITY, AgentKind.ACCURACY: STAGE_FINAL}

# Named hyperparameter presets: (rerank depth n_div, refinement depth n_acc).
PRESETS = {"fig1": (50, 25), "fig2": (100, 50)}

class Retriever(Protocol):
    name: str

    def retrieve(self, query_id: str, n: int) -> tuple[tuple[str, ...], array]: ...


@dataclass(frozen=True)
class PipelineConfig:
    n_div: int = PRESETS["fig1"][0]
    n_acc: int = PRESETS["fig1"][1]

    def __post_init__(self) -> None:
        if self.n_div < 1 or self.n_acc < 1:
            raise ValueError("n_div and n_acc must be positive")
        if self.n_div > MAX_CANDIDATES:
            raise ValueError(f"n_div ({self.n_div}) exceeds the prompt limit of {MAX_CANDIDATES}")
        if self.n_acc > self.n_div:
            raise ValueError(f"n_acc ({self.n_acc}) must not exceed n_div ({self.n_div})")


@dataclass(slots=True)
class StageOutcome:
    """One stage's ordered ids plus parse-repair flags and transport bookkeeping.

    No prompt is kept: it is a pure function of the stage's input, which
    :func:`reranked_stages` finds again.
    """

    stage: str
    order: tuple[str, ...]
    repairs: frozenset[str] = NO_REPAIRS
    failed: bool = False
    response: str | None = None


@dataclass(slots=True)
class QueryResult:
    """A query, its stage outcomes in ``STAGES`` order and the score of each id of ``stages[0].order``."""

    query: QueryInstance
    scores: array  # typecode "d"
    stages: tuple[StageOutcome, StageOutcome, StageOutcome]


def rerank_stage(
    query: Item,
    ids: tuple[str, ...],
    items: Mapping[str, Item],
    kind: AgentKind,
    transport: Transport,
    audit: bool = True,
) -> StageOutcome:
    """Prompt the agent with the ``items`` of ``ids`` and map its permutation back to ids.

    The output is always a permutation of ``ids``.  A transport failure (after
    the transport's own retries) keeps ``ids`` itself and marks the outcome
    ``failed``.  Only with ``audit`` does it keep the answer.
    """
    bundle = build_prompt(query, [items[item_id] for item_id in ids], kind)
    stage = _STAGE_BY_KIND[kind]
    try:
        raw = transport(bundle)
    except TransportError:
        return StageOutcome(stage, ids, failed=True)
    parsed = parse_permutation(raw, len(ids))
    order = tuple([ids[k] for k in parsed.order])
    return StageOutcome(stage, order, parsed.repairs, response=raw if audit else None)


def reranked_stages(result: QueryResult) -> tuple[tuple[StageOutcome, AgentKind, tuple[str, ...]], ...]:
    """Each reranked stage's outcome, agent kind and input ids, as :func:`run_pipeline` prompted it.

    The diversity stage reranked the base order; the accuracy stage, the head
    of the diversity order as long as its own order (also after a failed
    diversity stage, or a retrieved list shorter than ``n_acc``).
    """
    base, diversity, final = result.stages
    return (
        (diversity, AgentKind.DIVERSITY, base.order),
        (final, AgentKind.ACCURACY, diversity.order[: len(final.order)]),
    )


def run_pipeline(
    query: QueryInstance,
    retriever: Retriever,
    items: Mapping[str, Item],
    config: PipelineConfig,
    transports: tuple[Transport, Transport],
    audit: bool = True,
) -> QueryResult:
    """Run all three stages for one query, through the (diversity, accuracy) ``transports``.

    Stage order is strictly sequential (diversity before accuracy); the
    accuracy agent only ever sees the first ``n_acc`` survivors of the
    diversity list, so truncated items can never reappear.
    """
    base_order, scores = retriever.retrieve(query.query_id, config.n_div)  # held as returned, not copied
    base = StageOutcome(STAGE_BASE, base_order)
    query_item = items[query.query_id]
    diversity = rerank_stage(query_item, base.order, items, AgentKind.DIVERSITY, transports[0], audit)
    head = diversity.order[: config.n_acc]
    final = rerank_stage(query_item, head, items, AgentKind.ACCURACY, transports[1], audit)
    return QueryResult(query, scores, (base, diversity, final))


def run_all(
    queries: Sequence[QueryInstance],
    retriever: Retriever,
    items: Mapping[str, Item],
    config: PipelineConfig,
    transports: tuple[Transport, Transport],
    concurrency: int = 1,
    audit: bool = True,
) -> list[QueryResult]:
    """Process queries independently with a bounded in-flight limit.

    Results come back in input query order regardless of concurrency, so
    downstream writers stay deterministic.  Every query shares ``transports``.
    """
    if concurrency == 1 or len(queries) <= 1:
        return [run_pipeline(q, retriever, items, config, transports, audit) for q in queries]
    from concurrent.futures import ThreadPoolExecutor  # only a concurrent run needs it

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(lambda q: run_pipeline(q, retriever, items, config, transports, audit), queries))

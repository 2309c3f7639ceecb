"""Three-stage reranking flow over a catalog of queries.

Per query: retrieve the top ``n_div`` candidates, prompt the agent to rerank
them for diversity, truncate to the top ``n_acc``, prompt the same agent to
refine those for accuracy.  A :class:`QueryResult` carries the query, its
retrieved ids and scores and one flat :class:`StageOutcome` per stage, in
``STAGES`` order (base / diversity / diversity_accuracy), so ablations can
be evaluated side by side and each outcome written as one record.

A transport failure that survives its retries does not abort the run: the
stage falls back to identity order and the query is flagged, keeping
evaluation denominators constant across methods.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Protocol, Sequence

from .agents import (
    _IDENTITY,
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
    """One stage's order, as positions into its input, plus parse-repair flags and transport bookkeeping.

    ``positions[k]`` is the index in the stage's input of its ``k``-th id, one byte each; the
    input is the order of the stage before it (of the first stage, the retrieved ids), and
    :meth:`QueryResult.orders` maps the positions back to ids.  No prompt is kept: it is a pure
    function of the stage's input, which :func:`reranked_stages` finds again.
    """

    stage: str
    positions: bytes
    repairs: frozenset[str] = NO_REPAIRS
    failed: bool = False
    response: str | None = None


@dataclass(slots=True)
class QueryResult:
    """A query, its retrieved ids and the score of each, and its stage outcomes in ``STAGES`` order.

    ``ids`` and ``scores`` are held as the retriever returned them, not copied.
    """

    query: QueryInstance
    ids: tuple[str, ...]
    scores: array  # typecode "d"
    stages: tuple[StageOutcome, StageOutcome, StageOutcome]

    def orders(self) -> list[tuple[str, ...]]:
        """Each stage's order as ids, in ``stages`` order: each stage's positions index the order before it."""
        orders, order = [], self.ids
        for outcome in self.stages:
            positions = outcome.positions
            if positions == _IDENTITY[len(positions)]:  # the base stage, or a failed one: no lookup
                order = order[: len(positions)]
            else:  # a permutation of under two positions is the identity, so ``itemgetter`` gives a tuple
                order = itemgetter(*positions)(order)
            orders.append(order)
        return orders


def rerank_stage(
    query: Item,
    ids: tuple[str, ...],
    items: Mapping[str, Item],
    kind: AgentKind,
    transport: Transport,
    audit: bool = True,
) -> StageOutcome:
    """Prompt the agent with the ``items`` of ``ids`` and keep its permutation as positions into ``ids``.

    ``ids`` and ``items`` go into the prompt as they are: ``items`` is read only
    where the prompt text is.  The positions are the parsed answer itself,
    always a permutation of ``range(len(ids))``.  A transport failure (after the
    transport's own retries) keeps the identity positions and marks the outcome
    ``failed``.  Only with ``audit`` does it keep the answer.
    """
    bundle = build_prompt(query, ids, items, kind)
    stage = _STAGE_BY_KIND[kind]
    try:
        raw = transport(bundle)
    except TransportError:
        return StageOutcome(stage, _IDENTITY[len(ids)], failed=True)
    parsed = parse_permutation(raw, len(ids))
    return StageOutcome(stage, parsed.order, parsed.repairs, response=raw if audit else None)


def reranked_stages(result: QueryResult) -> tuple[tuple[StageOutcome, AgentKind, tuple[str, ...]], ...]:
    """Each reranked stage's outcome, agent kind and input ids, as :func:`run_pipeline` prompted it.

    The diversity stage reranked the base order; the accuracy stage, the head
    of the diversity order as long as its own order (also after a failed
    diversity stage, or a retrieved list shorter than ``n_acc``).  The ids come
    from one :meth:`QueryResult.orders` call.
    """
    _, diversity, final = result.stages
    base_order, diversity_order, _ = result.orders()
    return (
        (diversity, AgentKind.DIVERSITY, base_order),
        (final, AgentKind.ACCURACY, diversity_order[: len(final.positions)]),
    )


def run_pipeline(
    query: QueryInstance,
    retriever: Retriever,
    items: Mapping[str, Item],
    config: PipelineConfig,
    transport: Transport,
    audit: bool = True,
) -> QueryResult:
    """Run all three stages for one query, both reranked stages through the one ``transport``.

    Stage order is strictly sequential (diversity before accuracy), and each
    prompt's ``kind`` names its stage; the accuracy prompt lists only the
    first ``n_acc`` survivors of the diversity list, so truncated items can
    never reappear.
    """
    ids, scores = retriever.retrieve(query.query_id, config.n_div)  # held as returned, not copied
    base = StageOutcome(STAGE_BASE, _IDENTITY[len(ids)])
    query_item = items[query.query_id]
    diversity = rerank_stage(query_item, ids, items, AgentKind.DIVERSITY, transport, audit)
    head = tuple([ids[k] for k in diversity.positions[: config.n_acc]])
    final = rerank_stage(query_item, head, items, AgentKind.ACCURACY, transport, audit)
    return QueryResult(query, ids, scores, (base, diversity, final))


def run_all(
    queries: Sequence[QueryInstance],
    retriever: Retriever,
    items: Mapping[str, Item],
    config: PipelineConfig,
    transport: Transport,
    concurrency: int = 1,
    audit: bool = True,
) -> list[QueryResult]:
    """Process queries independently with a bounded in-flight limit.

    Results come back in input query order regardless of concurrency, so
    downstream writers stay deterministic.  Every query shares ``transport``.
    """
    if concurrency == 1 or len(queries) <= 1:
        return [run_pipeline(q, retriever, items, config, transport, audit) for q in queries]
    from concurrent.futures import ThreadPoolExecutor  # only a concurrent run needs it

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(lambda q: run_pipeline(q, retriever, items, config, transport, audit), queries))

import dataclasses
import json
import sys
from array import array
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complerank.agents import (
    MAX_CANDIDATES,
    NO_REPAIRS,
    AgentKind,
    TransportError,
    build_prompt,
    mock_agent,
    render_prompt,
)
from complerank.catalog import Item, QueryInstance, split_holdout
from complerank.pipeline import (
    PRESETS,
    STAGE_BASE,
    STAGE_DIVERSITY,
    STAGE_FINAL,
    STAGES,
    PipelineConfig,
    rerank_stage,
    reranked_stages,
    run_all,
    run_pipeline,
)
from complerank.retriever import HeuristicRetriever, PrecomputedRetriever
from complerank.synth import SynthConfig, generate


def per_stage(diversity, accuracy):
    """One transport that answers each prompt through ``diversity`` or ``accuracy``, by its kind."""
    return lambda bundle: (diversity if bundle.kind is AgentKind.DIVERSITY else accuracy)(bundle)


def mocks(div="identity", acc="identity"):
    """The transport of the mock policy ``div`` for diversity prompts and ``acc`` for accuracy ones."""
    return per_stage(mock_agent(div), mock_agent(acc))


class RecordingRetriever:
    """Passes each retrieve on to ``inner`` and records its arguments and the columns it returned."""

    def __init__(self, inner):
        self.inner, self.name = inner, inner.name
        self.calls = []

    def retrieve(self, query_id, n):
        columns = self.inner.retrieve(query_id, n)
        self.calls.append((query_id, n, columns))
        return columns


class TestPipelineConfig:
    def test_presets(self):
        assert PRESETS["fig1"] == (50, 25)
        assert PRESETS["fig2"] == (100, 50)

    def test_n_acc_bounded_by_n_div(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_div=10, n_acc=20)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PipelineConfig().n_div = 3



def ids_and_items(candidates):
    """The candidates' ids in order and the items map they index."""
    return tuple(item.id for item in candidates), {item.id: item for item in candidates}


def ids_of(ids, outcome):
    """The ids of ``outcome``'s order, its positions looked up in its input ``ids``."""
    return tuple(ids[k] for k in outcome.positions)


class TestRerankStage:
    def test_identity(self, prompt_fixture):
        query, candidates = prompt_fixture
        ids, items = ids_and_items(candidates)
        outcome = rerank_stage(query, ids, items, AgentKind.DIVERSITY, mock_agent("identity"))
        assert ids_of(ids, outcome) == ids
        assert outcome.stage == STAGE_DIVERSITY
        assert not outcome.failed

    def test_reverse(self, prompt_fixture):
        query, candidates = prompt_fixture
        ids, items = ids_and_items(candidates)
        outcome = rerank_stage(query, ids[:3], items, AgentKind.ACCURACY, mock_agent("reverse"))
        assert ids_of(ids, outcome) == ("c3", "c2", "c1")
        assert outcome.stage == STAGE_FINAL

    def test_oracle(self, prompt_fixture):
        query, candidates = prompt_fixture
        ids, items = ids_and_items(candidates)
        transport = mock_agent("oracle", ground_truth={query.id: {"c2"}})
        outcome = rerank_stage(query, ids[:3], items, AgentKind.DIVERSITY, transport)
        assert ids_of(ids, outcome) == ("c2", "c1", "c3")

    def test_transport_error_falls_back_to_identity(self, prompt_fixture):
        query, candidates = prompt_fixture
        ids, items = ids_and_items(candidates)
        sent = []

        def broken(bundle):
            sent.append(bundle.text)
            raise TransportError("down")

        outcome = rerank_stage(query, ids, items, AgentKind.DIVERSITY, broken)
        assert outcome.failed
        assert outcome.positions == bytes(range(len(ids)))
        assert outcome.stage == STAGE_DIVERSITY
        assert outcome.repairs is NO_REPAIRS
        # No prompt is kept; the one sent is rendered again from the stage's input, which the fallback keeps.
        assert not hasattr(outcome, "prompt")
        assert sent == [render_prompt(query, [items[i] for i in ids_of(ids, outcome)], AgentKind.DIVERSITY)]
        assert sent == [build_prompt(query, ids, items, AgentKind.DIVERSITY).text]
        assert outcome.response is None

    def test_empty_candidates_rejected(self, prompt_fixture):
        query, _ = prompt_fixture
        with pytest.raises(ValueError):
            rerank_stage(query, (), {}, AgentKind.DIVERSITY, mock_agent("identity"))


def _answers(n):
    """A model's answer for ``n`` candidates: a clean permutation, an answer wrapped in prose, any text,
    repeated or out-of-range IDs, or None for a transport that raises."""
    clean = st.permutations(range(n)).map(str)
    rendered = st.lists(st.integers(-2, n + 2), max_size=n + 3).map(str)
    prose = st.one_of(clean, rendered).map("Ranked, best first: {}. Done.".format)
    return st.one_of(clean, prose, st.text(max_size=40), rendered, st.none())


def _answering(answer):
    """A transport that gives ``answer``, or raises for None."""

    def transport(bundle):
        if answer is None:
            raise TransportError("down")
        return answer

    return transport


class FixedRetriever:
    """Retrieves the head of ``ids`` for every query, with zero scores."""

    name = "fixed"

    def __init__(self, ids):
        self.ids = ids

    def retrieve(self, query_id, n):
        head = self.ids[:n]
        return head, array("d", [0.0] * len(head))


def test_positions_fit_in_a_byte():
    """A stage holds each position as one byte, so no prompt may list more than 256 candidates."""
    assert MAX_CANDIDATES <= 256


@given(
    ids=st.lists(st.integers(0, 10**6).map(str), min_size=1, max_size=MAX_CANDIDATES, unique=True).map(tuple),
    audit=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_stage_order_is_a_permutation_of_its_ids(ids, audit, data):
    """Whatever the answers, each stage's positions are a permutation of its input's, and ``orders()``
    maps them back to ids: the accuracy order is a permutation of the diversity order's head."""
    answer = data.draw(_answers(len(ids)))
    items = {item_id: Item(item_id, f"title {item_id}") for item_id in ("q", *ids)}
    outcome = rerank_stage(items["q"], ids, items, AgentKind.DIVERSITY, _answering(answer), audit)
    assert type(outcome.positions) is bytes
    assert sorted(outcome.positions) == list(range(len(ids)))
    assert sorted(ids_of(ids, outcome)) == sorted(ids)
    assert outcome.failed == (answer is None)
    if outcome.failed:
        assert outcome.positions == bytes(range(len(ids)))
    assert outcome.response == (answer if audit and not outcome.failed else None)

    n_acc = data.draw(st.integers(1, len(ids)))
    transport = per_stage(_answering(answer), _answering(data.draw(_answers(n_acc))))
    query = QueryInstance("q", frozenset(ids[:1]))
    result = run_pipeline(query, FixedRetriever(ids), items, PipelineConfig(len(ids), n_acc), transport, audit)
    assert result.stages[1] == outcome
    for stage, _, stage_input in reranked_stages(result):
        assert type(stage.positions) is bytes
        assert sorted(stage.positions) == list(range(len(stage_input)))
    base, diversity, final = result.orders()
    assert base == ids
    assert sorted(diversity) == sorted(ids)
    assert sorted(final) == sorted(diversity[:n_acc])


@pytest.fixture
def split_setup(tiny_graph):
    train, queries = split_holdout(tiny_graph, 0.5, seed=7)
    retriever = HeuristicRetriever(train)
    return train, queries, retriever


class CountingItems(Mapping):
    """An items map that records every id looked up in it."""

    def __init__(self, items):
        self.items, self.looked_up = items, []

    def __getitem__(self, item_id):
        self.looked_up.append(item_id)
        return self.items[item_id]

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


class TestRunPipeline:
    @pytest.mark.parametrize("policy", ["identity", "reverse", "shuffle:3", "oracle"])
    def test_mock_query_looks_up_only_the_query_item(self, split_setup, policy):
        """Prompts carry ids: a transport that never reads the text makes no candidate lookup."""
        train, queries, retriever = split_setup
        agent = mock_agent(policy, ground_truth={q.query_id: q.ground_truth for q in queries})
        for query in queries:
            items = CountingItems(train.items)
            run_pipeline(query, retriever, items, PipelineConfig(n_div=4, n_acc=2), agent)
            assert items.looked_up == [query.query_id]

    def test_identity_stages_track_base(self, split_setup):
        train, queries, retriever = split_setup
        config = PipelineConfig(n_div=4, n_acc=2)
        result = run_pipeline(queries[0], retriever, train.items, config, mocks())
        base, diversity, final = result.orders()
        assert result.stages[0].stage == STAGE_BASE
        assert diversity == base
        assert final == base[:2]

    def test_result_carries_query_and_stages_in_order(self, split_setup):
        train, queries, retriever = split_setup
        query = queries[0]
        result = run_pipeline(query, retriever, train.items, PipelineConfig(n_div=4, n_acc=2), mocks())
        assert result.query is query
        assert tuple(outcome.stage for outcome in result.stages) == STAGES
        ids, scores = retriever.retrieve(query.query_id, 4)
        assert result.ids == ids
        assert result.orders()[0] == ids
        assert result.scores == scores

    @pytest.mark.parametrize("n_div", [4, 50])  # 50 keeps the whole 5-item pool
    def test_base_order_and_scores_are_the_retrievers_own(self, split_setup, tmp_path, n_div):
        """Neither is copied: the result holds the precomputed retriever's ranked head itself."""
        train, queries, _ = split_setup
        query = queries[0]
        path = tmp_path / "scores.jsonl"
        candidates = [[item_id, 1.0 / (1 + k)] for k, item_id in enumerate(sorted(train.items))]
        record = {"query_id": query.query_id, "candidates": candidates}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        retriever = RecordingRetriever(PrecomputedRetriever(path, train.items, depth=n_div))
        result = run_pipeline(query, retriever, train.items, PipelineConfig(n_div=n_div, n_acc=2), mocks())
        [(_, _, (ids, scores))] = retriever.calls
        assert len(ids) == min(n_div, 5)
        assert result.ids is ids
        assert result.scores is scores

    def test_small_pool_uses_whole_pool(self, split_setup):
        train, queries, retriever = split_setup
        config = PipelineConfig(n_div=50, n_acc=25)
        base, _, final = run_pipeline(queries[0], retriever, train.items, config, mocks()).orders()
        pool = len(train.items) - 1 - len(train.neighbors(queries[0].query_id))  # less the query and its neighbours
        assert len(base) == pool
        assert len(final) == pool

    def test_conservation(self, split_setup):
        train, queries, retriever = split_setup
        config, transport = PipelineConfig(n_div=4, n_acc=3), mock_agent("reverse")
        base, diversity, final = run_pipeline(queries[0], retriever, train.items, config, transport).orders()
        assert sorted(diversity) == sorted(base)
        assert sorted(final) == sorted(diversity[:3])

    def test_stage_isolation_under_shuffle(self, split_setup):
        train, queries, retriever = split_setup
        config, transport = PipelineConfig(n_div=4, n_acc=2), mocks("shuffle:5", "shuffle:9")
        _, diversity, final = run_pipeline(queries[0], retriever, train.items, config, transport).orders()
        truncated_away = set(diversity[2:])
        assert not truncated_away & set(final)

    def test_oracle_puts_truth_at_head(self, split_setup):
        train, queries, retriever = split_setup
        query = queries[0]
        oracle = mock_agent("oracle", ground_truth={q.query_id: q.ground_truth for q in queries})
        config = PipelineConfig(n_div=5, n_acc=3)
        base, diversity, _ = run_pipeline(query, retriever, train.items, config, oracle).orders()
        reachable = tuple(i for i in base if i in query.ground_truth)
        assert diversity[: len(reachable)] == reachable

    def test_transport_failure_falls_back_to_identity(self, split_setup):
        train, queries, retriever = split_setup

        def broken(bundle):
            raise TransportError("down")

        config, transport = PipelineConfig(n_div=4, n_acc=2), per_stage(broken, mock_agent("identity"))
        result = run_pipeline(queries[0], retriever, train.items, config, transport)
        base, diversity, final = result.orders()
        assert result.stages[1].failed
        assert diversity == base
        assert not result.stages[2].failed
        assert final == base[:2]

    @pytest.mark.parametrize("n_div, n_acc", [(4, 2), (50, 25)])  # 50 retrieves the 5-item pool, under n_acc
    def test_reranked_stages_give_each_prompts_input(self, split_setup, n_div, n_acc):
        train, queries, retriever = split_setup
        sent = []

        def broken(bundle):
            sent.append(bundle.ids)
            raise TransportError("down")

        def reverse(bundle):
            sent.append(bundle.ids)
            return mock_agent("reverse")(bundle)

        for diversity in (broken, reverse):
            sent.clear()
            config = PipelineConfig(n_div, n_acc)
            result = run_pipeline(queries[0], retriever, train.items, config, per_stage(diversity, reverse))
            assert result.stages[1].failed == (diversity is broken)
            assert reranked_stages(result) == (
                (result.stages[1], AgentKind.DIVERSITY, sent[0]),
                (result.stages[2], AgentKind.ACCURACY, sent[1]),
            )

    def test_no_duplicates_and_query_excluded(self, split_setup):
        train, queries, retriever = split_setup
        config, transport = PipelineConfig(n_div=5, n_acc=3), mock_agent("reverse")
        for query in queries:
            result = run_pipeline(query, retriever, train.items, config, transport)
            for order in result.orders():
                assert len(set(order)) == len(order)
                assert query.query_id not in order

    def test_unservable_query_raises(self, split_setup):
        train, _, retriever = split_setup
        ghost = QueryInstance(query_id="ghost", ground_truth=frozenset({"a1"}))
        with pytest.raises(ValueError, match="ghost"):
            run_pipeline(ghost, retriever, train.items, PipelineConfig(n_div=4, n_acc=2), mocks())


class TestRunAll:
    def test_preserves_query_order(self, split_setup):
        train, queries, retriever = split_setup
        results = run_all(queries, retriever, train.items, PipelineConfig(n_div=4, n_acc=2), mocks())
        assert [r.query for r in results] == list(queries)

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_audit_off_keeps_no_prompt_or_response(self, split_setup, concurrency):
        train, queries, retriever = split_setup

        def flaky(bundle):
            if bundle.query.id == queries[0].query_id:
                raise TransportError("down")
            return mock_agent("reverse")(bundle)

        config, transport = PipelineConfig(n_div=4, n_acc=2), per_stage(flaky, mock_agent("identity"))
        kept = run_all(queries, retriever, train.items, config, transport, concurrency)
        dropped = run_all(queries, retriever, train.items, config, transport, concurrency, audit=False)
        assert kept[0].stages[1].failed and dropped[0].stages[1].failed
        # Neither keeps a prompt; with audit on, each is rendered again from the stage's input.
        assert not any(hasattr(o, "prompt") for r in kept + dropped for o in r.stages)
        prompts = [
            render_prompt(train.items[r.query.query_id], [train.items[i] for i in order], kind)
            for r in kept
            for _, kind, order in reranked_stages(r)
        ]
        assert len(prompts) == 2 * len(queries) and all("candidate products" in p for p in prompts)
        assert all(o.response is not None for r in kept for o in r.stages[1:] if not o.failed)
        assert all(o.response is None for r in dropped for o in r.stages)
        assert [r.orders() for r in dropped] == [r.orders() for r in kept]

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_retrieves_each_query_once_at_n_div(self, concurrency):
        """A precomputed retriever keeps no record of the queries it ranked: a run asks for each once."""
        graph, _ = generate(SynthConfig(n_items=60, n_genres=3, edges_per_item=3.0, seed=8))
        train, queries = split_holdout(graph, 0.25, seed=2)
        retriever = RecordingRetriever(HeuristicRetriever(train))
        config = PipelineConfig(n_div=10, n_acc=5)
        run_all(queries, retriever, train.items, config, mocks("shuffle:1", "shuffle:2"), concurrency)
        assert len(queries) > concurrency
        assert sorted(call[:2] for call in retriever.calls) == sorted((q.query_id, 10) for q in queries)

    def test_concurrency_matches_sequential(self):
        graph, _ = generate(SynthConfig(n_items=60, n_genres=3, edges_per_item=3.0, seed=8))
        train, queries = split_holdout(graph, 0.25, seed=2)
        retriever = HeuristicRetriever(train)
        config, transport = PipelineConfig(n_div=10, n_acc=5), mocks("shuffle:1", "shuffle:2")
        sequential = run_all(queries, retriever, train.items, config, transport, concurrency=1)
        parallel = run_all(queries, retriever, train.items, config, transport, concurrency=4)
        assert [r.orders()[-1] for r in sequential] == [r.orders()[-1] for r in parallel]

    def test_one_oracle_shared_across_threads_matches_sequential(self):
        graph, _ = generate(SynthConfig(n_items=60, n_genres=3, edges_per_item=3.0, seed=8))
        train, queries = split_holdout(graph, 0.25, seed=2)
        retriever = HeuristicRetriever(train)
        answer = mock_agent("oracle", ground_truth={q.query_id: q.ground_truth for q in queries})
        calls = []

        def oracle(bundle):
            calls.append(bundle.query.id)
            return answer(bundle)

        config = PipelineConfig(n_div=10, n_acc=5)
        sequential = run_all(queries, retriever, train.items, config, oracle, concurrency=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that they interleave inside the oracle
        try:
            parallel = run_all(queries, retriever, train.items, config, oracle, concurrency=3)
        finally:
            sys.setswitchinterval(interval)
        assert [r.orders() for r in parallel] == [r.orders() for r in sequential]
        assert sorted(calls) == sorted(2 * 2 * [q.query_id for q in queries])
        for r in sequential:
            base, diversity, _ = r.orders()
            reachable = tuple(i for i in base if i in r.query.ground_truth)
            assert diversity[: len(reachable)] == reachable

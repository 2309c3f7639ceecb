import dataclasses
import sys

import pytest

from complerank.agents import AgentKind, TransportError, build_prompt, mock_agent
from complerank.catalog import QueryInstance, split_holdout
from complerank.pipeline import (
    PRESETS,
    STAGE_BASE,
    STAGE_DIVERSITY,
    STAGE_FINAL,
    STAGES,
    PipelineConfig,
    rerank_stage,
    run_all,
    run_pipeline,
)
from complerank.retriever import HeuristicRetriever, RetrievalError
from complerank.synth import SynthConfig, generate


def mocks(div="identity", acc="identity"):
    """The (diversity, accuracy) transports of two mock policies."""
    return mock_agent(div), mock_agent(acc)


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



class TestRerankStage:
    def test_identity(self, prompt_fixture):
        query, candidates = prompt_fixture
        outcome = rerank_stage(query, candidates, AgentKind.DIVERSITY, mock_agent("identity"))
        assert outcome.order == [item.id for item in candidates]
        assert outcome.stage == STAGE_DIVERSITY
        assert not outcome.failed

    def test_reverse(self, prompt_fixture):
        query, candidates = prompt_fixture
        outcome = rerank_stage(query, candidates[:3], AgentKind.ACCURACY, mock_agent("reverse"))
        assert outcome.order == ["c3", "c2", "c1"]
        assert outcome.stage == STAGE_FINAL

    def test_oracle(self, prompt_fixture):
        query, candidates = prompt_fixture
        transport = mock_agent("oracle", ground_truth={query.id: {"c2"}})
        outcome = rerank_stage(query, candidates[:3], AgentKind.DIVERSITY, transport)
        assert outcome.order == ["c2", "c1", "c3"]

    def test_transport_error_falls_back_to_identity(self, prompt_fixture):
        query, candidates = prompt_fixture

        def broken(bundle):
            raise TransportError("down")

        outcome = rerank_stage(query, candidates, AgentKind.DIVERSITY, broken)
        assert outcome.failed
        assert outcome.order == [item.id for item in candidates]
        assert outcome.stage == STAGE_DIVERSITY
        assert outcome.repairs == frozenset()
        assert outcome.prompt == build_prompt(query, candidates, AgentKind.DIVERSITY).text
        assert outcome.response is None

    def test_empty_candidates_rejected(self, prompt_fixture):
        query, _ = prompt_fixture
        with pytest.raises(ValueError):
            rerank_stage(query, [], AgentKind.DIVERSITY, mock_agent("identity"))


@pytest.fixture
def split_setup(tiny_graph):
    train, queries = split_holdout(tiny_graph, 0.5, seed=7)
    retriever = HeuristicRetriever(train, exclude_neighbors=False)
    return train, queries, retriever


class TestRunPipeline:
    def test_identity_stages_track_base(self, split_setup):
        train, queries, retriever = split_setup
        config = PipelineConfig(n_div=4, n_acc=2)
        base, diversity, final = run_pipeline(queries[0], retriever, train.items, config, mocks()).stages
        assert base.stage == STAGE_BASE
        assert diversity.order == base.order
        assert final.order == base.order[:2]

    def test_result_carries_query_and_stages_in_order(self, split_setup):
        train, queries, retriever = split_setup
        query = queries[0]
        result = run_pipeline(query, retriever, train.items, PipelineConfig(n_div=4, n_acc=2), mocks())
        assert result.query is query
        assert tuple(outcome.stage for outcome in result.stages) == STAGES
        assert result.stages[0].order == [item_id for item_id, _ in result.retrieval]

    def test_small_pool_uses_whole_pool(self, split_setup):
        train, queries, retriever = split_setup
        config = PipelineConfig(n_div=50, n_acc=25)
        base, _, final = run_pipeline(queries[0], retriever, train.items, config, mocks()).stages
        assert len(base.order) == 5  # 6 items minus the query
        assert len(final.order) == 5

    def test_conservation(self, split_setup):
        train, queries, retriever = split_setup
        config, transports = PipelineConfig(n_div=4, n_acc=3), mocks("reverse", "reverse")
        base, diversity, final = run_pipeline(queries[0], retriever, train.items, config, transports).stages
        assert sorted(diversity.order) == sorted(base.order)
        assert sorted(final.order) == sorted(diversity.order[:3])

    def test_stage_isolation_under_shuffle(self, split_setup):
        train, queries, retriever = split_setup
        config, transports = PipelineConfig(n_div=4, n_acc=2), mocks("shuffle:5", "shuffle:9")
        _, diversity, final = run_pipeline(queries[0], retriever, train.items, config, transports).stages
        truncated_away = set(diversity.order[2:])
        assert not truncated_away & set(final.order)

    def test_oracle_puts_truth_at_head(self, split_setup):
        train, queries, retriever = split_setup
        query = queries[0]
        oracle = mock_agent("oracle", ground_truth={q.query_id: q.ground_truth for q in queries})
        config = PipelineConfig(n_div=5, n_acc=3)
        base, diversity, _ = run_pipeline(query, retriever, train.items, config, (oracle, oracle)).stages
        reachable = [i for i in base.order if i in query.ground_truth]
        assert diversity.order[: len(reachable)] == reachable

    def test_transport_failure_falls_back_to_identity(self, split_setup):
        train, queries, retriever = split_setup

        def broken(bundle):
            raise TransportError("down")

        config, transports = PipelineConfig(n_div=4, n_acc=2), (broken, mock_agent("identity"))
        base, diversity, final = run_pipeline(queries[0], retriever, train.items, config, transports).stages
        assert diversity.failed
        assert diversity.order == base.order
        assert not final.failed
        assert final.order == base.order[:2]

    def test_no_duplicates_and_query_excluded(self, split_setup):
        train, queries, retriever = split_setup
        config, transports = PipelineConfig(n_div=5, n_acc=3), mocks("reverse", "reverse")
        for query in queries:
            result = run_pipeline(query, retriever, train.items, config, transports)
            for outcome in result.stages:
                assert len(set(outcome.order)) == len(outcome.order)
                assert query.query_id not in outcome.order

    def test_unservable_query_raises(self, split_setup):
        train, _, retriever = split_setup
        ghost = QueryInstance(query_id="ghost", ground_truth=frozenset({"a1"}))
        with pytest.raises(RetrievalError, match="ghost"):
            run_pipeline(ghost, retriever, train.items, PipelineConfig(n_div=4, n_acc=2), mocks())


class TestRunAll:
    def test_preserves_query_order(self, split_setup):
        train, queries, retriever = split_setup
        results = run_all(queries, retriever, train.items, PipelineConfig(n_div=4, n_acc=2), mocks())
        assert [r.query for r in results] == list(queries)

    def test_concurrency_matches_sequential(self):
        graph, _ = generate(SynthConfig(n_items=60, n_genres=3, edges_per_item=3.0, seed=8))
        train, queries = split_holdout(graph, 0.25, seed=2)
        retriever = HeuristicRetriever(train)
        config, transports = PipelineConfig(n_div=10, n_acc=5), mocks("shuffle:1", "shuffle:2")
        sequential = run_all(queries, retriever, train.items, config, transports, concurrency=1)
        parallel = run_all(queries, retriever, train.items, config, transports, concurrency=4)
        assert [r.stages[-1].order for r in sequential] == [r.stages[-1].order for r in parallel]

    def test_one_oracle_shared_across_threads_matches_sequential(self):
        graph, _ = generate(SynthConfig(n_items=60, n_genres=3, edges_per_item=3.0, seed=8))
        train, queries = split_holdout(graph, 0.25, seed=2)
        retriever = HeuristicRetriever(train)
        answer = mock_agent("oracle", ground_truth={q.query_id: q.ground_truth for q in queries})
        calls = []

        def oracle(bundle):
            calls.append(bundle.query_id)
            return answer(bundle)

        config = PipelineConfig(n_div=10, n_acc=5)
        sequential = run_all(queries, retriever, train.items, config, (oracle, oracle), concurrency=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that they interleave inside the oracle
        try:
            parallel = run_all(queries, retriever, train.items, config, (oracle, oracle), concurrency=3)
        finally:
            sys.setswitchinterval(interval)
        assert [[o.order for o in r.stages] for r in parallel] == [[o.order for o in r.stages] for r in sequential]
        assert sorted(calls) == sorted(2 * 2 * [q.query_id for q in queries])
        for r in sequential:
            reachable = [i for i in r.stages[0].order if i in r.query.ground_truth]
            assert r.stages[1].order[: len(reachable)] == reachable

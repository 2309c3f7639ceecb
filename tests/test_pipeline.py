import dataclasses

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
    constant_transport,
    rerank_stage,
    run_all,
    run_pipeline,
)
from complerank.retriever import HeuristicRetriever, RetrievalError
from complerank.synth import SynthConfig, generate


def make_config(div="identity", acc="identity", n_div=4, n_acc=2):
    return PipelineConfig(
        diversity_transport=constant_transport(mock_agent(div)),
        accuracy_transport=constant_transport(mock_agent(acc)),
        n_div=n_div,
        n_acc=n_acc,
    )


class TestPipelineConfig:
    def test_presets(self):
        assert PRESETS["fig1"] == (50, 25)
        assert PRESETS["fig2"] == (100, 50)

    def test_n_acc_bounded_by_n_div(self):
        with pytest.raises(ValueError):
            make_config(n_div=10, n_acc=20)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_config().n_div = 3



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
        transport = mock_agent("oracle", ground_truth={"c2"})
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
        config = make_config(n_div=4, n_acc=2)
        base, diversity, final = run_pipeline(queries[0], retriever, train.items, config).stages
        assert base.stage == STAGE_BASE
        assert diversity.order == base.order
        assert final.order == base.order[:2]

    def test_result_carries_query_and_stages_in_order(self, split_setup):
        train, queries, retriever = split_setup
        query = queries[0]
        result = run_pipeline(query, retriever, train.items, make_config())
        assert result.query is query
        assert tuple(outcome.stage for outcome in result.stages) == STAGES
        assert result.stages[0].order == [item_id for item_id, _ in result.retrieval]

    def test_small_pool_uses_whole_pool(self, split_setup):
        train, queries, retriever = split_setup
        config = make_config(n_div=50, n_acc=25)
        base, _, final = run_pipeline(queries[0], retriever, train.items, config).stages
        assert len(base.order) == 5  # 6 items minus the query
        assert len(final.order) == 5

    def test_conservation(self, split_setup):
        train, queries, retriever = split_setup
        config = make_config(div="reverse", acc="reverse", n_div=4, n_acc=3)
        base, diversity, final = run_pipeline(queries[0], retriever, train.items, config).stages
        assert sorted(diversity.order) == sorted(base.order)
        assert sorted(final.order) == sorted(diversity.order[:3])

    def test_stage_isolation_under_shuffle(self, split_setup):
        train, queries, retriever = split_setup
        config = PipelineConfig(
            diversity_transport=constant_transport(mock_agent("shuffle:5")),
            accuracy_transport=constant_transport(mock_agent("shuffle:9")),
            n_div=4,
            n_acc=2,
        )
        _, diversity, final = run_pipeline(queries[0], retriever, train.items, config).stages
        truncated_away = set(diversity.order[2:])
        assert not truncated_away & set(final.order)

    def test_oracle_puts_truth_at_head(self, split_setup):
        train, queries, retriever = split_setup
        query = queries[0]
        config = PipelineConfig(
            diversity_transport=lambda q: mock_agent("oracle", ground_truth=q.ground_truth),
            accuracy_transport=lambda q: mock_agent("oracle", ground_truth=q.ground_truth),
            n_div=5,
            n_acc=3,
        )
        base, diversity, _ = run_pipeline(query, retriever, train.items, config).stages
        reachable = [i for i in base.order if i in query.ground_truth]
        assert diversity.order[: len(reachable)] == reachable

    def test_transport_failure_falls_back_to_identity(self, split_setup):
        train, queries, retriever = split_setup

        def broken(bundle):
            raise TransportError("down")

        config = PipelineConfig(
            diversity_transport=constant_transport(broken),
            accuracy_transport=constant_transport(mock_agent("identity")),
            n_div=4,
            n_acc=2,
        )
        base, diversity, final = run_pipeline(queries[0], retriever, train.items, config).stages
        assert diversity.failed
        assert diversity.order == base.order
        assert not final.failed
        assert final.order == base.order[:2]

    def test_no_duplicates_and_query_excluded(self, split_setup):
        train, queries, retriever = split_setup
        config = make_config(div="reverse", acc="reverse", n_div=5, n_acc=3)
        for query in queries:
            result = run_pipeline(query, retriever, train.items, config)
            for outcome in result.stages:
                assert len(set(outcome.order)) == len(outcome.order)
                assert query.query_id not in outcome.order

    def test_unservable_query_raises(self, split_setup):
        train, _, retriever = split_setup
        ghost = QueryInstance(query_id="ghost", ground_truth=frozenset({"a1"}))
        with pytest.raises(RetrievalError, match="ghost"):
            run_pipeline(ghost, retriever, train.items, make_config())


class TestRunAll:
    def test_preserves_query_order(self, split_setup):
        train, queries, retriever = split_setup
        results = run_all(queries, retriever, train.items, make_config())
        assert [r.query for r in results] == list(queries)

    def test_concurrency_matches_sequential(self):
        graph, _ = generate(SynthConfig(n_items=60, n_genres=3, edges_per_item=3.0, seed=8))
        train, queries = split_holdout(graph, 0.25, seed=2)
        retriever = HeuristicRetriever(train)
        config = PipelineConfig(
            diversity_transport=constant_transport(mock_agent("shuffle:1")),
            accuracy_transport=constant_transport(mock_agent("shuffle:2")),
            n_div=10,
            n_acc=5,
        )
        sequential = run_all(queries, retriever, train.items, config, concurrency=1)
        parallel = run_all(queries, retriever, train.items, config, concurrency=4)
        assert [r.stages[-1].order for r in sequential] == [r.stages[-1].order for r in parallel]

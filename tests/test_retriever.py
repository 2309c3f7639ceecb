import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from complerank.catalog import Item
from complerank.retriever import (
    HeuristicRetriever,
    PrecomputedRetriever,
    RetrievalError,
    ScoreWeights,
    category_overlap,
    score_pair,
)
from complerank.synth import SynthConfig, generate


def item(id, categories=(), price=None):
    return Item(id=id, title=f"title {id}", categories=tuple(categories), price=price)


class TestScorePair:
    def test_identical_paths_equal_prices_maximal(self):
        weights = ScoreWeights(category=2.0, price=0.5)
        a = item("a", ["x", "y", "z"], price=10.0)
        b = item("b", ["x", "y", "z"], price=10.0)
        assert score_pair(a, b, weights) == pytest.approx(2.0 + 0.5)

    def test_disjoint_paths_no_prices_zero(self):
        assert score_pair(item("a", ["x"]), item("b", ["y"])) == 0.0

    def test_partial_overlap_with_price_term(self):
        weights = ScoreWeights(category=0.7, price=0.3)
        a = item("a", ["x", "y", "p"], price=10.0)
        b = item("b", ["x", "y", "q"], price=10.0)
        assert score_pair(a, b, weights) == pytest.approx(2 / 3 * 0.7 + 1.0 * 0.3)

    def test_missing_price_contributes_zero(self):
        a = item("a", ["x"], price=10.0)
        b = item("b", ["x"])
        assert score_pair(a, b) == pytest.approx(1.0)

    def test_zero_price_treated_as_missing(self):
        a = item("a", ["x"], price=0.0)
        b = item("b", ["x"], price=5.0)
        assert score_pair(a, b) == pytest.approx(1.0)

    def test_both_empty_paths_zero_overlap(self):
        assert category_overlap((), ()) == 0.0

    @given(
        a=st.lists(st.sampled_from("xyz"), max_size=4),
        b=st.lists(st.sampled_from("xyz"), max_size=4),
    )
    def test_overlap_symmetric(self, a, b):
        assert category_overlap(tuple(a), tuple(b)) == category_overlap(tuple(b), tuple(a))


class TestRetrieveHeuristic:
    def make_graph(self):
        from complerank.catalog import ComplementGraph

        items = [
            item("q", ["x"], price=10.0),
            item("c1", ["x"], price=10.0),
            item("c2", ["x"], price=10.0),
        ]
        return ComplementGraph.from_parts(items, [])

    def test_n_exceeding_pool_returns_all(self):
        ranked = HeuristicRetriever(self.make_graph()).retrieve("q", n=10)
        assert len(ranked.candidates) == 2

    def test_n_one_returns_top(self):
        ranked = HeuristicRetriever(self.make_graph()).retrieve("q", n=1)
        assert len(ranked.candidates) == 1

    def test_equal_scores_tie_break_ascending_id(self):
        ranked = HeuristicRetriever(self.make_graph()).retrieve("q", n=5)
        assert ranked.ids == ["c1", "c2"]
        assert ranked.candidates[0][1] == ranked.candidates[1][1]

    def test_unknown_query(self):
        with pytest.raises(RetrievalError, match="'nope'"):
            HeuristicRetriever(self.make_graph()).retrieve("nope", n=1)

    def test_excludes_query_itself(self):
        ranked = HeuristicRetriever(self.make_graph()).retrieve("q", n=10)
        assert "q" not in ranked.ids

    def test_neighbor_exclusion_flag(self):
        graph, _ = generate(SynthConfig(n_items=20, n_genres=2, edges_per_item=2.0, seed=1))
        query_id = sorted(graph.items)[0]
        neighbors = graph.neighbors(query_id)
        if not neighbors:
            pytest.skip("seed produced an isolated first node")
        with_excl = HeuristicRetriever(graph, exclude_neighbors=True).retrieve(query_id, n=19)
        without = HeuristicRetriever(graph, exclude_neighbors=False).retrieve(query_id, n=19)
        assert not neighbors & set(with_excl.ids)
        assert neighbors <= set(without.ids)

    def test_full_depth_is_total_ordering(self):
        graph, _ = generate(SynthConfig(n_items=25, n_genres=3, edges_per_item=1.0, seed=2))
        query_id = sorted(graph.items)[0]
        ranked = HeuristicRetriever(graph, exclude_neighbors=False).retrieve(query_id, n=24)
        assert sorted(ranked.ids) == sorted(set(graph.items) - {query_id})

    def test_truncation_prefix_consistency(self):
        graph, _ = generate(SynthConfig(n_items=30, n_genres=3, edges_per_item=1.0, seed=3))
        query_id = sorted(graph.items)[0]
        retriever = HeuristicRetriever(graph, exclude_neighbors=False)
        full = retriever.retrieve(query_id, n=29)
        for n in (1, 5, 12, 29):
            prefix = retriever.retrieve(query_id, n=n)
            assert prefix.candidates == full.candidates[:n]


class TestRetrievePrecomputed:
    def write_scores(self, path, query_id, pairs):
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"query_id": query_id, "candidates": pairs}) + "\n")

    def test_truncation_after_sort(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        pairs = [[f"c{i:03d}", float(i)] for i in range(50)]
        self.write_scores(path, "q", pairs)
        ranked = PrecomputedRetriever(path, {i for i, _ in pairs}).retrieve("q", n=25)
        assert len(ranked.candidates) == 25
        assert ranked.ids[0] == "c049"

    def test_out_of_order_scores_resorted(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        self.write_scores(path, "q", [["low", 0.1], ["high", 0.9], ["mid", 0.5]])
        ranked = PrecomputedRetriever(path, {"low", "high", "mid"}).retrieve("q", n=3)
        assert ranked.ids == ["high", "mid", "low"]
        scores = [s for _, s in ranked.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_missing_query_named(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        self.write_scores(path, "q", [["c", 1.0]])
        with pytest.raises(RetrievalError, match="'other'"):
            PrecomputedRetriever(path, {"c"}).retrieve("other", n=1)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"query_id": "q"}\n', encoding="utf-8")
        with pytest.raises(RetrievalError, match=r"scores\.jsonl:1"):
            PrecomputedRetriever(path, set())

    def test_retriever_wrapper_name(self, tmp_path):
        path = tmp_path / "gnnA.jsonl"
        self.write_scores(path, "q", [["c", 1.0]])
        assert PrecomputedRetriever(path, {"c"}).name == "gnnA"
        assert PrecomputedRetriever(path, {"c"}, name="other").retrieve("q", 1).source == "other"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", '"nan"', '"-inf"'])
    def test_non_finite_score_reports_position(self, tmp_path, literal):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"query_id": "q", "candidates": [["a", 1.0]]}\n'
            f'{{"query_id": "r", "candidates": [["a", 0.5], ["b", {literal}]]}}\n',
            encoding="utf-8",
        )
        with pytest.raises(RetrievalError, match=r"scores\.jsonl:2: candidate 'b' has non-finite score"):
            PrecomputedRetriever(path, {"a", "b"})

    def test_finite_scores_whose_sum_overflows_accepted(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        self.write_scores(path, "q", [["a", 1e308], ["b", 1e308], ["c", -1e308]])
        assert PrecomputedRetriever(path, {"a", "b", "c"}).retrieve("q", 3).ids == ["a", "b", "c"]

    def test_ties_and_signed_zeros_break_by_ascending_id(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        pairs = [["e", 0.0], ["d", 1.0], ["b", -0.0], ["c", 1.0], ["a", 0.0], ["f", -1.0], ["b", -0.0]]
        self.write_scores(path, "q", pairs)
        ranked = PrecomputedRetriever(path, {"a", "b", "c", "d", "e", "f"}).retrieve("q", 6)
        assert repr(ranked.candidates) == repr(
            [("c", 1.0), ("d", 1.0), ("a", 0.0), ("b", -0.0), ("e", 0.0), ("f", -1.0)]
        )

    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from("abcdefghq"), st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.5])),
            max_size=20,
        ),
        n=st.integers(1, 10),
    )
    def test_order_matches_one_key_sort(self, tmp_path_factory, pairs, n):
        """Repeated ids, the query's own id, ties and signed zeros included."""
        path = tmp_path_factory.mktemp("scores") / "scores.jsonl"
        self.write_scores(path, "q", [list(pair) for pair in pairs])
        best = {}
        for item_id, score in pairs:
            if item_id != "q" and (item_id not in best or score > best[item_id]):
                best[item_id] = score
        expected = sorted(best.items(), key=lambda pair: (-pair[1], pair[0]))[:n]
        ranked = PrecomputedRetriever(path, set("abcdefghq")).retrieve("q", n)
        assert repr(ranked.candidates) == repr(expected)


def test_heuristic_retriever_tags_source(tiny_graph):
    retriever = HeuristicRetriever(tiny_graph, name="tagged")
    assert retriever.retrieve("a1", 3).source == "tagged"

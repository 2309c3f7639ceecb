import itertools
import math
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complerank.catalog import Item, QueryInstance
from complerank.metrics import (
    COMPARISONS,
    METRIC_NAMES,
    MetricsRow,
    PerQueryRow,
    aggregate,
    evaluate_results,
    lift_rows_for_runs,
    lift_with_stderr,
    tokenize,
)
from complerank.pipeline import QueryResult, StageOutcome
from oracles import entropy_at_k, hit_at_k, ndcg_at_k, vocab_at_k


class TestTokenize:
    def test_casing_and_split(self):
        assert tokenize("iPhone 13 Case") == ["iphone", "13", "case"]

    def test_punctuation_runs(self):
        assert tokenize("USB-C Cable (2m)") == ["usb", "c", "cable", "2m"]

    def test_empty(self):
        assert tokenize("") == []

    def test_underscore_is_a_separator(self):
        assert tokenize("snake_case_name") == ["snake", "case", "name"]


class TestHitAtK:
    def test_position_cutoff(self):
        assert hit_at_k(["a", "b", "c"], {"b"}, 1) == 0
        assert hit_at_k(["a", "b", "c"], {"b"}, 3) == 1

    def test_head_hit_any_k(self):
        for k in (1, 2, 10):
            assert hit_at_k(["a", "b"], {"a"}, k) == 1

    def test_disjoint(self):
        assert hit_at_k(["a", "b", "c"], {"z"}, 10) == 0

    def test_preconditions(self):
        for metric in (hit_at_k, ndcg_at_k):
            with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
                metric(["a"], {"a"}, 0)
            with pytest.raises(ValueError, match="^ground truth must be nonempty$"):
                metric(["a"], set(), 1)

    @given(
        order=st.lists(st.sampled_from("abcdefgh"), unique=True, min_size=1, max_size=8),
        truth=st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=4),
    )
    def test_nondecreasing_in_k(self, order, truth):
        values = [hit_at_k(order, truth, k) for k in range(1, len(order) + 2)]
        assert values == sorted(values)


def direct_ndcg(order, truth, k):
    # independent enumeration: explicit DCG and ideal-DCG sums
    gains = [1.0 if item in truth else 0.0 for item in order[:k]]
    dcg = sum(g / math.log2(i + 2) for i, g in enumerate(gains))
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(len(truth), k)))
    return dcg / idcg


class TestNdcgAtK:
    def test_perfect_head(self):
        assert ndcg_at_k(["b", "a", "c"], {"b"}, 1) == 1.0

    def test_single_truth_at_tail(self):
        assert ndcg_at_k(["a", "b", "c"], {"c"}, 3) == pytest.approx(0.5, abs=1e-12)

    def test_two_truths_partial(self):
        value = ndcg_at_k(["a", "b", "c"], {"b", "c"}, 3)
        assert value == pytest.approx(0.6934264036172708, abs=1e-12)

    def test_matches_direct_enumeration_exhaustively(self):
        items = ["a", "b", "c", "d", "e"]
        truth = {"b", "d"}
        best = 0.0
        for perm in itertools.permutations(items):
            for k in (1, 3, 5):
                value = ndcg_at_k(perm, truth, k)
                assert abs(value - direct_ndcg(perm, truth, k)) <= 1e-12
                if k == 5:
                    best = max(best, value)
        assert best == 1.0

    @given(
        order=st.lists(st.sampled_from("abcdefgh"), unique=True, min_size=1, max_size=8),
        truth=st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=4),
    )
    def test_k1_equals_hit1_bit_exact(self, order, truth):
        assert ndcg_at_k(order, truth, 1) == float(hit_at_k(order, truth, 1))

    @given(
        order=st.lists(st.sampled_from("abcdefgh"), unique=True, min_size=1, max_size=8),
        truth=st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=4),
        k=st.integers(1, 10),
    )
    def test_bounded(self, order, truth, k):
        assert 0.0 <= ndcg_at_k(order, truth, k) <= 1.0 + 1e-12


class TestEntropyAndVocab:
    def test_uniform_two_symbols(self):
        assert entropy_at_k(["a", "a", "b", "b"]) == pytest.approx(math.log(2), abs=1e-4)

    def test_degenerate_distribution(self):
        assert entropy_at_k(["tok", "tok", "tok"]) == 0.0

    def test_uniform_four_symbols(self):
        assert entropy_at_k(["a", "b", "c", "d"]) == pytest.approx(math.log(4), abs=1e-12)

    def test_empty_pool(self):
        assert entropy_at_k(["", "  "]) == 0.0
        assert vocab_at_k([""]) == 0

    def test_vocab_counts_distinct(self):
        assert vocab_at_k(["a", "a", "b"]) == 2
        assert vocab_at_k(["red fox runs", "blue bird sings"]) == 6

    def test_multi_token_titles_pool(self):
        assert entropy_at_k(["a b", "a b"]) == pytest.approx(math.log(2), abs=1e-12)

    @given(tokens=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_entropy_bounds(self, tokens):
        entropy = entropy_at_k(tokens)
        vocab = vocab_at_k(tokens)
        assert -1e-12 <= entropy <= math.log(vocab) + 1e-9

    @given(
        symbols=st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=8),
        repeats=st.integers(1, 20),
    )
    def test_entropy_equality_at_uniformity(self, symbols, repeats):
        tokens = [s for s in sorted(symbols) for _ in range(repeats)]
        assert abs(entropy_at_k(tokens) - math.log(len(symbols))) <= 1e-12

    @given(tokens=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=50), seed=st.integers())
    def test_permutation_invariance(self, tokens, seed):
        import random

        shuffled = tokens[:]
        random.Random(seed).shuffle(shuffled)
        assert entropy_at_k(shuffled) == pytest.approx(entropy_at_k(tokens), abs=1e-12)
        assert vocab_at_k(shuffled) == vocab_at_k(tokens)


def per_query(query_id, stage, k, hit, ndcg, entropy, vocab):
    return PerQueryRow(
        query_id=query_id, stage=stage, k=k, hit=hit, ndcg=ndcg, entropy=entropy, vocab=vocab
    )


class TestAggregate:
    def test_mean(self):
        rows = [
            per_query("q1", "base", 1, 0, 0.0, 1.0, 19),
            per_query("q2", "base", 1, 1, 1.0, 2.0, 20),
        ]
        [agg] = aggregate(rows, "r", "ds")
        assert agg.hit == 0.5
        assert agg.vocab == 19.5

    def test_duplicated_queries_idempotent(self):
        row = per_query("q1", "base", 1, 1, 1.0, 2.5, 7)
        [single] = aggregate([row], "r", "ds")
        [doubled] = aggregate([row, row], "r", "ds")
        assert (single.hit, single.ndcg, single.entropy, single.vocab) == (
            doubled.hit,
            doubled.ndcg,
            doubled.entropy,
            doubled.vocab,
        )

    def test_every_stage_and_cutoff_in_row_order(self):
        rows = [
            per_query(query_id, stage, k, 1, 1.0, float(k), k)
            for query_id in ("q1", "q2")
            for stage in ("base", "diversity")
            for k in (1, 3)
        ]
        aggregated = aggregate(rows, "r", "ds")
        assert [(row.stage, row.k) for row in aggregated] == [
            ("base", 1), ("base", 3), ("diversity", 1), ("diversity", 3)
        ]
        assert all(row.entropy == row.k for row in aggregated)
        assert {(row.retriever, row.dataset) for row in aggregated} == {("r", "ds")}

    def test_empty_is_error(self):
        with pytest.raises(ValueError, match="no per-query rows"):
            aggregate([], "r", "ds")
        with pytest.raises(ValueError, match="no per-query rows"):
            aggregate(iter(()), "r", "ds")

    def test_negative_zero_mean_stays_negative(self):
        """Running totals start at the first row's values, as a left-to-right reduce does, not at 0.0."""
        rows = [per_query(f"q{n}", "base", 1, 0, -0.0, -0.0, 0) for n in range(3)]
        (row,) = aggregate(rows, "r", "ds")
        assert math.copysign(1.0, row.entropy) == -1.0
        assert math.copysign(1.0, row.ndcg) == -1.0

    def test_one_shot_generator_equals_list(self):
        rows = [
            per_query(f"q{n}", stage, k, n % 2, n / 7, n / 3 - 1.0, n + k)
            for n in range(5)
            for stage in ("base", "diversity")
            for k in (1, 3)
        ]
        assert aggregate((row for row in rows), "r", "ds") == aggregate(rows, "r", "ds")


def metrics_row(stage, k, hit, ndcg=0.5, entropy=1.0, vocab=10.0, dataset="ds"):
    return MetricsRow(
        retriever="r", stage=stage, dataset=dataset, k=k,
        hit=hit, ndcg=ndcg, entropy=entropy, vocab=vocab,
    )


def overall_lift(enhanced, base):
    """One retriever's ``overall_vs_base`` lift row per metric; its diversity stage copies the base."""
    rows = [base, replace(base, stage="diversity"), replace(enhanced, stage="diversity_accuracy")]
    return {
        row.metric: row
        for row in lift_rows_for_runs({"r": rows}, "ds", [base.k])
        if row.comparison == "overall_vs_base"
    }


class TestLift:
    def test_published_value_spot_checks(self):
        base = metrics_row("base", 1, hit=0.154, entropy=2.86)
        enhanced = metrics_row("diversity_accuracy", 1, hit=0.351, entropy=2.93)
        result = overall_lift(enhanced, base)
        assert result["hit"].mean_lift_pct == pytest.approx(127.9, abs=0.1)
        assert result["entropy"].mean_lift_pct == pytest.approx(2.45, abs=0.1)
        assert (result["hit"].std_err, result["hit"].n_retrievers) == (0.0, 1)

    def test_equal_rows_zero(self):
        row = metrics_row("base", 1, hit=0.3)
        assert all(lift.mean_lift_pct == 0.0 for lift in overall_lift(row, row).values())

    def test_zero_base_reported_absent(self):
        base = metrics_row("base", 1, hit=0.0)
        enhanced = metrics_row("diversity_accuracy", 1, hit=0.2)
        hit = overall_lift(enhanced, base)["hit"]
        assert (hit.mean_lift_pct, hit.std_err, hit.n_retrievers) == (None, None, 0)

    @given(
        base=st.floats(0.01, 100),
        enhanced=st.floats(0.01, 100),
        scale=st.floats(0.001, 1000),
    )
    def test_scale_invariance(self, base, enhanced, scale):
        lift_raw = overall_lift(
            metrics_row("diversity_accuracy", 1, hit=enhanced), metrics_row("base", 1, hit=base)
        )["hit"].mean_lift_pct
        lift_scaled = overall_lift(
            metrics_row("diversity_accuracy", 1, hit=enhanced * scale),
            metrics_row("base", 1, hit=base * scale),
        )["hit"].mean_lift_pct
        assert lift_scaled == pytest.approx(lift_raw, rel=1e-9)


class TestLiftWithStderr:
    def test_no_variability(self):
        assert lift_with_stderr([10, 10, 10]) == (10, 0)

    def test_two_values(self):
        mean, stderr = lift_with_stderr([0, 20])
        assert mean == pytest.approx(10.0, abs=1e-12)
        assert stderr == pytest.approx(10.0, abs=1e-12)

    def test_single_value_convention(self):
        assert lift_with_stderr([7]) == (7, 0.0)

    def test_std_err_is_rounded_once(self):
        """The sample sd of ``statistics.stdev``, correctly rounded from 3.11 on (3.10's gave 127.34999999999998)."""
        assert lift_with_stderr([11.8, 266.5])[1] == 127.35

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            lift_with_stderr([])


class TestLiftRowsForRuns:
    def rows_for(self, name, hit_by_stage):
        rows = []
        for stage, hit in hit_by_stage.items():
            rows.append(
                MetricsRow(
                    retriever=name, stage=stage, dataset="ds", k=1,
                    hit=hit, ndcg=hit, entropy=2.0, vocab=10.0,
                )
            )
        return rows

    def test_cross_retriever_stderr(self):
        stages_a = {"base": 0.1, "diversity": 0.1, "diversity_accuracy": 0.2}   # +100%
        stages_b = {"base": 0.2, "diversity": 0.2, "diversity_accuracy": 0.3}   # +50%
        rows = lift_rows_for_runs(
            {"A": self.rows_for("A", stages_a), "B": self.rows_for("B", stages_b)},
            "ds",
            [1],
        )
        overall_hit = next(
            r for r in rows if r.metric == "hit" and r.comparison == "overall_vs_base"
        )
        assert overall_hit.mean_lift_pct == pytest.approx(75.0)
        assert overall_hit.n_retrievers == 2
        expected = lift_with_stderr([100.0, 50.0])[1]
        assert overall_hit.std_err == pytest.approx(expected)

    def test_covers_all_comparisons_and_metrics(self):
        stages = {"base": 0.1, "diversity": 0.2, "diversity_accuracy": 0.3}
        rows = lift_rows_for_runs({"A": self.rows_for("A", stages)}, "ds", [1])
        seen = {(r.comparison, r.metric) for r in rows}
        expected = {(c, m) for c, _, _ in COMPARISONS for m in METRIC_NAMES}
        assert seen == expected

    def test_zero_base_drops_from_aggregate(self):
        stages_a = {"base": 0.0, "diversity": 0.1, "diversity_accuracy": 0.2}
        stages_b = {"base": 0.1, "diversity": 0.1, "diversity_accuracy": 0.2}
        rows = lift_rows_for_runs(
            {"A": self.rows_for("A", stages_a), "B": self.rows_for("B", stages_b)},
            "ds",
            [1],
        )
        overall_hit = next(
            r for r in rows if r.metric == "hit" and r.comparison == "overall_vs_base"
        )
        assert overall_hit.n_retrievers == 1
        assert overall_hit.mean_lift_pct == pytest.approx(100.0)


def items_titled(titles):
    """The catalog items of ``titles``, an item id -> title map."""
    return {item_id: Item(item_id, title) for item_id, title in titles.items()}


def evaluate_list(order, truth, items, cutoffs):
    """``evaluate_results`` on one query ``q`` whose one stage, ``base``, ranks ``order``."""
    base = StageOutcome("base", bytes(range(len(order))))
    result = QueryResult(QueryInstance("q", frozenset(truth)), tuple(order), array("d"), (base,))
    return list(evaluate_results([result], items, cutoffs))


def test_evaluate_ranking_shapes():
    items = items_titled({"a": "alpha one", "b": "beta two", "c": "gamma three"})
    rows = evaluate_list(["a", "b", "c"], {"b"}, items, [1, 3])
    assert {(r.query_id, r.stage) for r in rows} == {("q", "base")}
    assert [(r.k, r.hit) for r in rows] == [(1, 0), (3, 1)]
    assert rows[0].vocab == 2
    assert rows[1].vocab == 6


_IDS = [f"i{n}" for n in range(12)]
# Titles the one-pass evaluation must score exactly as the kernels do: blank or punctuation
# only (no tokens; an item's title is never empty), non-ASCII, repeated and case-folded duplicates.
_TITLES = st.one_of(
    st.sampled_from(
        [" ", "!!!", "--- / ---", "camera body", "Camera-Body", "camera body", "Straße Ünïcödé",
         "日本語 タイトル", "a a a a", "x_y_z 2m"]
    ),
    st.text(min_size=1, max_size=30),
)


def _kernel_rows(order, truth, items, cutoffs):
    rows = []
    for k in sorted(cutoffs):
        top = [items[item_id].title for item_id in order[:k]]
        rows.append(
            (k, hit_at_k(order, truth, k), ndcg_at_k(order, truth, k), entropy_at_k(top), vocab_at_k(top))
        )
    return rows


@given(
    order=st.lists(st.sampled_from(_IDS), unique=True, max_size=12),
    # Up to 10 ground-truth ids: from 6 on, ``sum`` and ``math.fsum`` of the
    # ideal-dcg terms differ in the last bit.
    truth=st.sets(st.sampled_from(_IDS + ["absent"]), min_size=1, max_size=10),
    titles=st.lists(_TITLES, min_size=len(_IDS), max_size=len(_IDS)),
    cutoffs=st.lists(st.integers(1, 15), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_equals_kernels(order, truth, titles, cutoffs):
    """Orders shorter than k, empty orders, unsorted and duplicate cutoffs included."""
    items = items_titled(dict(zip(_IDS, titles)))
    rows = evaluate_list(order, truth, items, cutoffs)
    got = [(r.k, r.hit, r.ndcg, r.entropy, r.vocab) for r in rows]
    expected = _kernel_rows(order, truth, items, cutoffs)
    assert got == expected
    assert repr(got) == repr(expected)  # the same bits, down to the sign of a zero


def test_one_pass_preconditions_match_kernels():
    items = items_titled({"a": "alpha"})
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        evaluate_list(["a"], {"a"}, items, [3, 0, 1])
    assert evaluate_list(["a"], {"a"}, items, []) == []


def test_evaluate_results_is_lazy():
    """The first row is made from the first result, before the rest are read."""
    items = items_titled({item_id: f"title {item_id}" for item_id in _IDS})
    pulled = []

    def results():
        for n, item_id in enumerate(_IDS[:4]):
            pulled.append(n)
            query = QueryInstance(item_id, frozenset({_IDS[-1]}))
            yield QueryResult(query, tuple(_IDS[4:8]), array("d"), (StageOutcome("base", bytes(range(4))),))

    rows = evaluate_results(results(), items, (1, 3))
    assert pulled == []
    first = next(rows)
    assert (first.query_id, first.k) == ("i0", 1)
    assert pulled == [0]
    assert len(list(rows)) == 2 * 4 - 1
    assert pulled == [0, 1, 2, 3]


def test_evaluate_results_equals_kernels_per_list():
    items = items_titled({item_id: f"Title {n % 3} shared-{n % 2} é{n}" for n, item_id in enumerate(_IDS)})
    queries = [QueryInstance("q1", frozenset({"i3", "i7"})), QueryInstance("q2", frozenset({"i0"}))]
    results, orders = [], []
    for query, order in zip(queries, (_IDS[:8], _IDS[4:])):
        # Each stage's positions index the order before it: the reversed order, then its head of 4.
        stages = (
            StageOutcome("base", bytes(range(len(order)))),
            StageOutcome("diversity", bytes(range(len(order)))[::-1]),
            StageOutcome("diversity_accuracy", bytes(range(4))),
        )
        results.append(QueryResult(query, tuple(order), array("d", [1.0] * len(order)), stages))
        orders.append((list(order), order[::-1], order[::-1][:4]))
    rows = evaluate_results(results, items, (5, 1, 3))
    expected = [
        (r.query.query_id, outcome.stage, *values)
        for r, stage_orders in zip(results, orders)
        for outcome, order in zip(r.stages, stage_orders)
        for values in _kernel_rows(order, r.query.ground_truth, items, (5, 1, 3))
    ]
    assert [(r.query_id, r.stage, r.k, r.hit, r.ndcg, r.entropy, r.vocab) for r in rows] == expected


def _left_to_right(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


def test_means_add_left_to_right():
    """Since Python 3.12 ``sum`` of floats is compensated; the means add left to right on every version."""
    rows = [PerQueryRow(f"q{n}", "base", 1, 0, ndcg, 0.0, 0) for n, ndcg in enumerate([1e16, 1.0, -1e16])]
    (row,) = aggregate(rows, "r", "ds")
    assert row.ndcg == 0.0  # a compensated sum would give 1.0 / 3


@pytest.mark.parametrize("n_truths", [6, 7, 8, 9])
def test_ndcg_adds_left_to_right(n_truths):
    """From 6 held-out complements on, a compensated ideal dcg differs in the last bit."""
    order, truth = _IDS, set(_IDS[1 : n_truths + 1])
    dcg = _left_to_right(1.0 / math.log2(p + 1) for p in range(2, n_truths + 2))
    ideal = _left_to_right(1.0 / math.log2(p + 1) for p in range(1, n_truths + 1))
    (row,) = evaluate_list(order, truth, items_titled({i: i for i in _IDS}), [12])
    assert row.ndcg == ndcg_at_k(order, truth, 12) == dcg / ideal

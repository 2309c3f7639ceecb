import json
import math
import sys
import threading
from array import array
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from complerank.catalog import Item
from complerank.retriever import (
    HeuristicRetriever,
    PrecomputedRetriever,
    RetrievalError,
    _normalized,
    category_overlap,
    score_pair,
)
from complerank.synth import SynthConfig, generate


def as_pairs(ranked):
    """A retrieval's ``(ids, scores)`` columns as the ``(id, score)`` pairs they hold."""
    ids, scores = ranked
    assert type(ids) is tuple and scores.typecode == "d" and len(ids) == len(scores)
    return list(zip(ids, scores))


def ids(ranked):
    return [item_id for item_id, _ in as_pairs(ranked)]


def item(id, categories=(), price=None):
    return Item(id=id, title=f"title {id}", categories=tuple(categories), price=price)


class TestScorePair:
    def test_identical_paths_equal_prices_maximal(self):
        a = item("a", ["x", "y", "z"], price=10.0)
        b = item("b", ["x", "y", "z"], price=10.0)
        assert score_pair(a, b) == 2.0

    def test_disjoint_paths_no_prices_zero(self):
        assert score_pair(item("a", ["x"]), item("b", ["y"])) == 0.0

    def test_partial_overlap_with_price_term(self):
        a = item("a", ["x", "y", "p"], price=10.0)
        b = item("b", ["x", "y", "q"], price=20.0)
        assert score_pair(a, b) == 2 / 3 + 1.0 / (1.0 + math.log(2.0))

    def test_missing_price_contributes_zero(self):
        a = item("a", ["x"], price=10.0)
        b = item("b", ["x"])
        assert score_pair(a, b) == pytest.approx(1.0)

    def test_zero_price_treated_as_missing(self):
        a = item("a", ["x"], price=0.0)
        b = item("b", ["x"], price=5.0)
        assert score_pair(a, b) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "low, high",
        [(1e-300, 1e300), (5e-324, 1.7976931348623157e308), (1e-200, 1e200), (0.5, 2.0)],
    )
    def test_price_term_finite_and_symmetric_at_the_extremes(self, low, high):
        """``low / high`` underflows to 0 (and ``high / low`` overflows) for all but the last pair."""
        a, b = item("a", price=low), item("b", price=high)
        forward, backward = score_pair(a, b), score_pair(b, a)
        assert forward == backward
        assert 0.0 < forward <= 1.0
        gap = math.log(high) - math.log(low)
        assert forward == pytest.approx(1.0 / (1.0 + gap), rel=1e-12)

    def test_in_range_price_ratio_unchanged(self):
        """A ratio inside the float range keeps ``abs(log(p_q / p_c))``, bit for bit."""
        a, b = item("a", price=95.0), item("b", price=35.5)
        assert score_pair(a, b) == 1.0 / (1.0 + abs(math.log(95.0 / 35.5)))

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
        return ComplementGraph(items={i.id: i for i in items}, edges=frozenset())

    def test_n_exceeding_pool_returns_all(self):
        ranked = as_pairs(HeuristicRetriever(self.make_graph()).retrieve("q", n=10))
        assert len(ranked) == 2

    def test_n_one_returns_top(self):
        ranked = as_pairs(HeuristicRetriever(self.make_graph()).retrieve("q", n=1))
        assert len(ranked) == 1

    def test_equal_scores_tie_break_ascending_id(self):
        ranked = as_pairs(HeuristicRetriever(self.make_graph()).retrieve("q", n=5))
        assert [item_id for item_id, _ in ranked] == ["c1", "c2"]
        assert ranked[0][1] == ranked[1][1]

    def test_unknown_query(self):
        with pytest.raises(RetrievalError, match="'nope'"):
            HeuristicRetriever(self.make_graph()).retrieve("nope", n=1)

    def test_depth_must_be_positive(self):
        with pytest.raises(RetrievalError, match="^retrieval depth must be positive, got 0$"):
            HeuristicRetriever(self.make_graph()).retrieve("q", 0)

    def test_excludes_query_itself(self):
        ranked = HeuristicRetriever(self.make_graph()).retrieve("q", n=10)
        assert "q" not in ids(ranked)

    def test_neighbor_exclusion_flag(self):
        """The query's train neighbours are left out: they are known, not predicted, complements."""
        graph, _ = generate(SynthConfig(n_items=20, n_genres=2, edges_per_item=2.0, seed=1))
        query_id = sorted(graph.items)[0]
        neighbors = graph.neighbors(query_id)
        assert neighbors, "the seed must give the first item a neighbour"
        ranked = ids(HeuristicRetriever(graph).retrieve(query_id, n=19))
        assert not neighbors & set(ranked)
        assert sorted(ranked) == sorted(set(graph.items) - neighbors - {query_id})

    def test_full_depth_is_total_ordering(self):
        graph, _ = generate(SynthConfig(n_items=25, n_genres=3, edges_per_item=1.0, seed=2))
        query_id = sorted(graph.items)[0]
        neighbors = graph.neighbors(query_id)
        ranked = HeuristicRetriever(graph).retrieve(query_id, n=24)
        assert not neighbors & set(ids(ranked))
        assert sorted(ids(ranked)) == sorted(set(graph.items) - neighbors - {query_id})

    def test_truncation_prefix_consistency(self):
        graph, _ = generate(SynthConfig(n_items=30, n_genres=3, edges_per_item=1.0, seed=3))
        query_id = sorted(graph.items)[0]
        neighbors = graph.neighbors(query_id)
        retriever = HeuristicRetriever(graph)
        full = as_pairs(retriever.retrieve(query_id, n=29))
        assert len(full) == 29 - len(neighbors)
        assert not neighbors & {item_id for item_id, _ in full}
        for n in (1, 5, 12, 29):
            prefix = as_pairs(retriever.retrieve(query_id, n=n))
            assert prefix == full[:n]


RANKED_POOL = [f"i{k:02d}" for k in range(32)]  # catalog ids; "q" is the query


class TestRetrievePrecomputed:
    def write_scores(self, path, query_id, pairs):
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"query_id": query_id, "candidates": pairs}) + "\n")

    def test_truncation_after_sort(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        pairs = [[f"c{i:03d}", float(i)] for i in range(50)]
        self.write_scores(path, "q", pairs)
        ranked = as_pairs(PrecomputedRetriever(path, {i for i, _ in pairs}).retrieve("q", n=25))
        assert len(ranked) == 25
        assert ranked[0][0] == "c049"

    def test_out_of_order_scores_resorted(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        self.write_scores(path, "q", [["low", 0.1], ["high", 0.9], ["mid", 0.5]])
        ranked = as_pairs(PrecomputedRetriever(path, {"low", "high", "mid"}).retrieve("q", n=3))
        assert [item_id for item_id, _ in ranked] == ["high", "mid", "low"]
        scores = [s for _, s in ranked]
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
        assert PrecomputedRetriever(path, {"c"}, name="other").name == "other"

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
        assert ids(PrecomputedRetriever(path, {"a", "b", "c"}).retrieve("q", 3)) == ["a", "b", "c"]

    def test_ties_and_signed_zeros_break_by_ascending_id(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        pairs = [["e", 0.0], ["d", 1.0], ["b", -0.0], ["c", 1.0], ["a", 0.0], ["f", -1.0], ["b", -0.0]]
        self.write_scores(path, "q", pairs)
        ranked = as_pairs(PrecomputedRetriever(path, {"a", "b", "c", "d", "e", "f"}).retrieve("q", 6))
        assert repr(ranked) == repr(
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
        ranked = as_pairs(PrecomputedRetriever(path, set("abcdefghq")).retrieve("q", n))
        assert repr(ranked) == repr(expected)

    @given(
        ids=st.permutations(RANKED_POOL),
        drawn=st.lists(st.integers(-500, 500).filter(bool), unique=True, max_size=30),
        miss=st.sampled_from(
            ["none", "tie", "signed zeros", "repeat lower", "repeat higher", "query head", "query middle",
             "query tail", "swap"]
        ),
        at=st.integers(0, 29),
    )
    def test_ranked_list_shortcut_matches_one_key_sort(self, tmp_path_factory, ids, drawn, miss, at):
        """A list already in the module's order (strictly decreasing scores, unique ids, no query) of
        up to 30 entries, as given or with one near miss at index ``at``, retrieved at n below, at and
        above its length."""
        spare, ids = ids[-2:], ids[: len(drawn)]
        # Even nonzero scores, so that an odd one fits strictly between two neighbours.
        scores = [2.0 * score for score in sorted(drawn, reverse=True)]
        at = at % len(ids) if ids else 0
        if miss == "tie" and at:
            scores[at] = scores[at - 1]
        elif miss == "signed zeros":
            cut = sum(score > 0 for score in scores)
            ids[cut:cut], scores[cut:cut] = spare, [0.0, -0.0]
        elif miss == "repeat lower" and ids:
            ids.append(ids[at])
            scores.append(scores[-1] - 1.0)
        elif miss == "repeat higher" and ids:
            ids.insert(0, ids[at])
            scores.insert(0, scores[0] + 1.0)
        elif miss == "query head":
            ids.insert(0, "q")
            scores.insert(0, scores[0] + 1.0 if scores else 0.0)
        elif miss == "query middle" and at:
            ids.insert(at, "q")
            scores.insert(at, scores[at - 1] - 1.0)
        elif miss == "query tail":
            ids.append("q")
            scores.append(scores[-1] - 1.0 if scores else 0.0)
        elif miss == "swap" and at:
            ids[at - 1], ids[at] = ids[at], ids[at - 1]
            scores[at - 1], scores[at] = scores[at], scores[at - 1]
        path = tmp_path_factory.mktemp("scores") / "scores.jsonl"
        self.write_scores(path, "q", [list(pair) for pair in zip(ids, scores)])
        best = {}
        for item_id, score in zip(ids, scores):
            if item_id != "q" and (item_id not in best or score > best[item_id]):
                best[item_id] = score
        expected = sorted(best.items(), key=lambda pair: (-pair[1], pair[0]))
        for n in {max(1, len(ids) - 1), max(1, len(ids)), len(ids) + 1}:
            retriever = PrecomputedRetriever(path, [*RANKED_POOL, "q"], depth=n)  # ranks its list at depth n
            assert repr(as_pairs(retriever.retrieve("q", n))) == repr(expected[:n])
        if miss == "none":  # taken as it stands: the very tuple comes back
            held = tuple(ids)
            for n in {max(1, len(held)), len(held) + 1}:
                assert _normalized("q", held, array("d", scores), n)[0] is held


class ListOfTuplesRetriever:
    """Oracle: the loader and ``retrieve`` of ``PrecomputedRetriever`` as they were when each
    list was held as ``(id, score)`` tuples."""

    def __init__(self, path, items, name=None):
        self.path = Path(path)
        self.name = name or self.path.stem
        self._lists = {}
        with self.path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    query_id = record["query_id"]
                    pairs = [
                        (str(item_id), float(score)) for item_id, score in record["candidates"]
                    ]
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise RetrievalError(f"{self.path}:{lineno}: malformed scores line ({exc})")
                if not math.isfinite(sum(map(itemgetter(1), pairs))):
                    for item_id, score in pairs:
                        if not math.isfinite(score):
                            raise RetrievalError(
                                f"{self.path}:{lineno}: candidate {item_id!r} has non-finite "
                                f"score {score}"
                            )
                for item_id, _ in pairs:
                    if item_id not in items:
                        raise RetrievalError(
                            f"{self.path}:{lineno}: candidate id {item_id!r} is not in the catalog"
                        )
                self._lists[str(query_id)] = pairs

    def retrieve(self, query_id, n):
        if query_id not in self._lists:
            raise RetrievalError(f"query {query_id!r} not present in {self.path}")
        best = {}
        for item_id, score in self._lists[query_id]:
            if item_id != query_id and (item_id not in best or score > best[item_id]):
                best[item_id] = score
        return sorted(best.items(), key=lambda pair: (-pair[1], pair[0]))[:n]


CATALOG_IDS = ["a", "b", "c", "d", "q", "7", "10"]
# Ids as a scores file may spell them: the integers 7 and 10 name "7" and "10".
SPELLED_IDS = st.sampled_from(["a", "b", "c", "d", "q", "7", "10", 7, 10])
SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.5, 1e-300, 7])


class TestColumnarMatchesListOfTuples:
    """``PrecomputedRetriever`` against the list-of-tuples oracle above."""

    @given(
        lines=st.lists(
            st.tuples(
                st.sampled_from(["q", "a", "7", 7]),
                st.lists(st.tuples(SPELLED_IDS, SCORES), max_size=12),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda line: str(line[0]),  # a scores file names each query once
        ),
        depth=st.integers(1, 14),
        data=st.data(),
    )
    def test_retrieve_equals_oracle(self, tmp_path_factory, lines, depth, data):
        """Repeated candidate ids, ties, signed zeros, the query's own id, integer ids, depth and n
        above and below length; each query is retrieved several times, a small n before a large one."""
        path = tmp_path_factory.mktemp("scores") / "scores.jsonl"
        path.write_text(
            "".join(json.dumps({"query_id": q, "candidates": pairs}) + "\n" for q, pairs in lines),
            encoding="utf-8",
        )
        columnar = PrecomputedRetriever(path, CATALOG_IDS, depth=depth)
        oracle = ListOfTuplesRetriever(path, set(CATALOG_IDS))
        for query_id in {str(q) for q, _ in lines}:
            ns = data.draw(st.lists(st.integers(1, depth), min_size=1, max_size=4))
            for n in sorted(ns) + ns:
                got, expected = as_pairs(columnar.retrieve(query_id, n)), oracle.retrieve(query_id, n)
                assert repr(got) == repr(expected)
            assert columnar.name == oracle.name

    def test_retrieve_beyond_depth_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"query_id": "q", "candidates": [["a", 1.0], ["b", 2.0]]}\n', encoding="utf-8")
        retriever = PrecomputedRetriever(path, CATALOG_IDS, depth=3)
        for n in (4, 0):
            with pytest.raises(RetrievalError, match=rf"^retrieval depth must be in 1\.\.3, got {n}$"):
                retriever.retrieve("q", n)
        assert ids(retriever.retrieve("q", 3)) == ["b", "a"]  # a depth above the list's length is servable
        with pytest.raises(RetrievalError, match="^retrieval depth must be positive, got 0$"):
            PrecomputedRetriever(path, CATALOG_IDS, depth=0)

    def test_concurrent_first_retrieves_agree(self, tmp_path):
        """Threads that read one query at once each get its ranked head, as the oracle ranks it: the
        lines are ranked at load, and retrieve only reads.  The lines of "q", "a" and "7" carry ties;
        the line of "d" is already in order."""
        path = tmp_path / "scores.jsonl"
        queries = ["q", "a", "7", "d"]
        records = [
            {"query_id": q, "candidates": [[c, float((3 * k + i) % 4)] for k, c in enumerate(CATALOG_IDS)]}
            for i, q in enumerate(queries[:3])
        ]
        in_order = [[c, 0.5 - k] for k, c in enumerate(CATALOG_IDS) if c != "d"]
        records.append({"query_id": "d", "candidates": in_order})
        path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        oracle = ListOfTuplesRetriever(path, set(CATALOG_IDS))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that they interleave inside retrieve
        try:
            for _ in range(20):
                shared, barrier, got = PrecomputedRetriever(path, CATALOG_IDS, depth=4), threading.Barrier(4), []

                def work(n):
                    barrier.wait(timeout=30)
                    for query_id in queries:
                        got.append((query_id, n, as_pairs(shared.retrieve(query_id, n))))

                threads = [threading.Thread(target=work, args=(n,)) for n in (1, 2, 4, 3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(got) == 4 * len(queries)
                for query_id, n, ranked in got:
                    assert repr(ranked) == repr(oracle.retrieve(query_id, n))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("candidate", ['"b2"', '["b", 2.0, 3]', '{"b": 2.0}', '["b"]'])
    def test_candidate_that_is_no_pair_is_malformed(self, tmp_path, candidate):
        """A two-character string would otherwise unpack into an id and a score."""
        path = tmp_path / "scores.jsonl"
        path.write_text(f'{{"query_id": "q", "candidates": [["a", 1.0], {candidate}]}}\n', encoding="utf-8")
        with pytest.raises(RetrievalError) as raised:
            PrecomputedRetriever(path, CATALOG_IDS)
        message = "malformed scores line (a candidate is not a two-element array)"
        assert str(raised.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize("first, again", [('"q"', '"q"'), ("10", '"10"'), ('"7"', "7")])
    def test_repeated_query_id_rejected(self, tmp_path, first, again):
        """The integer 10 and the string "10" name one query, so its second line is refused."""
        path = tmp_path / "scores.jsonl"
        lines = [f'{{"query_id": {query_id}, "candidates": [["a", 1.0]]}}\n' for query_id in (first, again)]
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(RetrievalError) as raised:
            PrecomputedRetriever(path, CATALOG_IDS)
        assert str(raised.value) == f"{path}:2: duplicate query id {str(json.loads(first))!r}"

    def test_ids_are_the_catalogs_own_strings(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"query_id": "q", "candidates": [[17, 1.0], ["item", 0.5]]}\n', encoding="utf-8")
        catalog = ["".join(["it", "em"]), "".join(["1", "7"]), "q"]  # not interned literals
        ranked = PrecomputedRetriever(path, catalog).retrieve("q", 2)
        assert ids(ranked) == ["17", "item"]
        assert ranked[0][0] is catalog[1] and ranked[0][1] is catalog[0]

    # One line per error kind; each line also carries every later kind, so the
    # message shows which check comes first.
    ERRORS = {
        "malformed": '{"query_id": "q", "candidates": [["nope", NaN], ["a", "x"]]}',
        "non-finite": '{"query_id": "q", "candidates": [["nope", 1.0], ["a", Infinity]]}',
        "unknown id": '{"query_id": "q", "candidates": [["a", 1.0], ["nope", 2.0], ["gone", 3.0]]}',
    }

    @pytest.mark.parametrize("kind", list(ERRORS))
    def test_error_message_and_precedence_unchanged(self, tmp_path, kind):
        path = tmp_path / "scores.jsonl"
        first = '{"query_id": "r", "candidates": [["a", 1.0]]}\n'
        path.write_text(first + self.ERRORS[kind] + "\n", encoding="utf-8")
        with pytest.raises(RetrievalError) as expected:
            ListOfTuplesRetriever(path, {"a", "q"})
        with pytest.raises(RetrievalError) as got:
            PrecomputedRetriever(path, ["a", "q"])
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"{path}:2: ")
        assert {
            "malformed": "malformed scores line",
            "non-finite": "candidate 'a' has non-finite score inf",
            "unknown id": "candidate id 'nope' is not in the catalog",
        }[kind] in str(got.value)


def test_heuristic_retriever_tags_source(tiny_graph):
    retriever = HeuristicRetriever(tiny_graph, name="tagged")
    assert retriever.name == "tagged"

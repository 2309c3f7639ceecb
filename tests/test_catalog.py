import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complerank.catalog import (
    CatalogError,
    ComplementGraph,
    Item,
    QueryInstance,
    edge_key,
    load_catalog,
    split_holdout,
    write_catalog,
)
from complerank.retriever import PrecomputedRetriever, RetrievalError
from complerank.synth import SynthConfig, generate


def write_lines(path, lines):
    """UTF-8 lines, where a lone surrogate such as ``"\\udce9"`` writes the byte it escapes (0xE9)."""
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))


def items_lines(*specs):
    return [json.dumps({"id": i, "title": t, "categories": c, **extra}) for i, t, c, extra in specs]


class TestItem:
    def test_valid(self):
        item = Item(id="x", title="thing", categories=("a", "b"), price=3.5)
        assert item.price == 3.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"id": "", "title": "t"},
            {"id": "x", "title": ""},
            {"id": "x", "title": "t", "categories": ("a", "")},
            {"id": "x", "title": "t", "price": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(CatalogError):
            Item(**kwargs)


class TestLoadCatalog:
    def test_minimal_well_formed(self, tmp_path):
        write_lines(
            tmp_path / "items.jsonl",
            items_lines(
                ("A", "alpha", ["x"], {}),
                ("B", "beta", ["x"], {"price": 2}),
                ("C", "gamma", [], {}),
            ),
        )
        write_lines(tmp_path / "edges.jsonl", [json.dumps(["A", "B"])])
        graph = load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")
        assert len(graph.items) == 3
        assert graph.edges == frozenset({("A", "B")})
        assert graph.items["B"].price == 2.0

    def test_reversed_duplicate_edges_collapse(self, tmp_path):
        write_lines(
            tmp_path / "items.jsonl",
            items_lines(("A", "alpha", [], {}), ("B", "beta", [], {})),
        )
        write_lines(
            tmp_path / "edges.jsonl", [json.dumps(["A", "B"]), json.dumps(["B", "A"])]
        )
        graph = load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")
        assert len(graph.edges) == 1

    def test_unknown_edge_endpoint_named(self, tmp_path):
        write_lines(tmp_path / "items.jsonl", items_lines(("A", "alpha", [], {})))
        write_lines(tmp_path / "edges.jsonl", [json.dumps(["A", "Z"])])
        with pytest.raises(CatalogError, match="'Z'"):
            load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")

    def test_malformed_line_reports_line_number(self, tmp_path):
        write_lines(
            tmp_path / "items.jsonl",
            items_lines(("A", "alpha", [], {})) + ["{not json"],
        )
        write_lines(tmp_path / "edges.jsonl", [])
        with pytest.raises(CatalogError, match=r"items\.jsonl:2"):
            load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")

    @pytest.mark.parametrize("bad_file", ["items", "edges"])
    def test_integer_too_long_for_int_reports_line(self, tmp_path, bad_file):
        long_int = "1" * 5001
        items = items_lines(("A", "alpha", [], {}), ("B", "beta", [], {}))
        edges = [json.dumps(["A", "B"])]
        if bad_file == "items":
            items.append('{"id": "C", "title": "gamma", "price": ' + long_int + "}")
        else:
            edges.append('["A", ' + long_int + "]")
        write_lines(tmp_path / "items.jsonl", items)
        write_lines(tmp_path / "edges.jsonl", edges)
        lineno = len(items if bad_file == "items" else edges)
        with pytest.raises(CatalogError, match=rf"{bad_file}\.jsonl:{lineno}: invalid JSON \(Exceeds"):
            load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")

    def test_duplicate_item_id(self, tmp_path):
        write_lines(
            tmp_path / "items.jsonl",
            items_lines(("A", "alpha", [], {}), ("A", "again", [], {})),
        )
        write_lines(tmp_path / "edges.jsonl", [])
        with pytest.raises(CatalogError, match="duplicate item id 'A'"):
            load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")

    def test_self_loop_rejected(self, tmp_path):
        write_lines(tmp_path / "items.jsonl", items_lines(("A", "alpha", [], {})))
        write_lines(tmp_path / "edges.jsonl", [json.dumps(["A", "A"])])
        with pytest.raises(CatalogError, match="self-loop"):
            load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")

    def shared_catalog(self, tmp_path):
        """Ids long enough that each decoded copy is its own string object; two equal category paths."""
        write_lines(
            tmp_path / "items.jsonl",
            items_lines(
                ("item-alpha", "alpha lamp", ["home", "lighting"], {}),
                ("item-beta", "beta bulb", ["home", "lighting"], {}),
                ("item-gamma", "gamma shade", ["home"], {}),
                ("item-delta", "delta cord", [], {}),
            ),
        )
        pairs = [("item-alpha", "item-beta"), ("item-gamma", "item-alpha"), ("item-beta", "item-gamma"),
                 ("item-delta", "item-beta")]
        write_lines(tmp_path / "edges.jsonl", [json.dumps(pair) for pair in pairs])
        return load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")

    def test_edges_and_ground_truth_hold_the_catalogs_id_strings(self, tmp_path):
        graph = self.shared_catalog(tmp_path)
        assert all(item_id is graph.items[item_id].id for edge in graph.edges for item_id in edge)
        train, queries = split_holdout(graph, 0.5, seed=1)
        assert all(item_id is graph.items[item_id].id for edge in train.edges for item_id in edge)
        for query in queries:
            assert query.query_id is graph.items[query.query_id].id
            assert all(item_id is graph.items[item_id].id for item_id in query.ground_truth)

    def test_equal_category_paths_share_one_tuple(self, tmp_path):
        items = self.shared_catalog(tmp_path).items
        assert items["item-alpha"].categories == ("home", "lighting")
        assert items["item-alpha"].categories is items["item-beta"].categories
        assert items["item-gamma"].categories == ("home",)


# One malformed line per row: the file it goes in (as line 3, after a good line
# and a blank one), the exception class, and the message after ``path:line: ``.
LONG_INT_MESSAGE = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
    "use sys.set_int_max_str_digits() to increase the limit"
)
NESTING_MESSAGE = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
LOADER_ERRORS = [
    pytest.param(
        "items", "{not json", CatalogError,
        "invalid JSON (Expecting property name enclosed in double quotes)", id="items-invalid-json",
    ),
    pytest.param(
        "items", '{"id": "C", "title": "gamma", "price": ' + "1" * 5000 + "}", CatalogError,
        f"invalid JSON ({LONG_INT_MESSAGE})", id="items-5000-digits",
    ),
    pytest.param(
        "items", '{"id": "C", "title": ' + "[" * 100_000, CatalogError, f"invalid JSON ({NESTING_MESSAGE})",
        id="items-nested-too-deep",
    ),
    pytest.param(
        "items", '{"id": "C", "title": "gamma", "id": "D"}', CatalogError, 'invalid JSON (repeated key "id")',
        id="items-repeated-key",
    ),
    pytest.param(
        "items", '{"id": "C", "title": "gamma", "categories": [{"x": 1, "x": 2}]}', CatalogError,
        'invalid JSON (repeated key "x")', id="items-repeated-key-nested",
    ),
    pytest.param("items", '["C", "gamma"]', CatalogError, "expected a JSON object", id="items-not-object"),
    pytest.param("items", '{"title": "gamma"}', CatalogError, "missing key 'id'", id="items-missing-id"),
    pytest.param(
        "items", '{"id": "C", "title": 3}', CatalogError, "id and title must be strings",
        id="items-title-not-string",
    ),
    pytest.param(
        "items", '{"id": "C", "title": "gamma", "categories": "x"}', CatalogError,
        "categories must be an array of strings", id="items-categories-not-list",
    ),
    pytest.param(
        "items", '{"id": "C", "title": "gamma", "price": NaN}', CatalogError,
        "price must be a finite number, got NaN", id="items-nan-price",
    ),
    pytest.param(
        "items", '{"id": "C", "title": ""}', CatalogError, "item 'C': title must be nonempty",
        id="items-empty-title",
    ),
    pytest.param(
        "items", '{"id": "A", "title": "again"}', CatalogError, "duplicate item id 'A'",
        id="items-duplicate-id",
    ),
    pytest.param(
        "items", '{"id": "C", "title": "caf\udce9"}', CatalogError,
        "'utf-8' codec can't decode byte 0xe9 in position 25: invalid continuation byte", id="items-not-utf8",
    ),
    pytest.param("edges", '["A", ', CatalogError, "invalid JSON (Expecting value)", id="edges-invalid-json"),
    pytest.param(
        "edges", '["A", "B\udce9"]', CatalogError,
        "'utf-8' codec can't decode byte 0xe9 in position 8: invalid continuation byte", id="edges-not-utf8",
    ),
    pytest.param(
        "edges", '["A"]', CatalogError, "expected a JSON array of two item ids", id="edges-not-pair",
    ),
    pytest.param(
        "edges", '["A", "Z"]', CatalogError, "edge references unknown item id 'Z'", id="edges-unknown-id",
    ),
    pytest.param("edges", '["A", "A"]', CatalogError, "self-loop edge on 'A'", id="edges-self-loop"),
    pytest.param(
        "scores", '{"query_id": ', RetrievalError, "invalid JSON (Expecting value)", id="scores-invalid-json",
    ),
    pytest.param(
        "scores", '{"query_id": "A", "candidates": ' + "[" * 100_000, RetrievalError,
        f"invalid JSON ({NESTING_MESSAGE})", id="scores-nested-too-deep",
    ),
    pytest.param(
        "scores", '{"query_id": "A", "candidates": [], "candidates": [["B", 1.0]]}', RetrievalError,
        'invalid JSON (repeated key "candidates")', id="scores-repeated-key",
    ),
    pytest.param(
        "scores", '{"query_id": "A"}', RetrievalError, "malformed scores line ('candidates')",
        id="scores-missing-key",
    ),
    pytest.param(
        "scores", '{"query_id": "B\udce9", "candidates": []}', RetrievalError,
        "'utf-8' codec can't decode byte 0xe9 in position 15: invalid continuation byte", id="scores-not-utf8",
    ),
    pytest.param(
        "scores", '{"query_id": ["junk"], "candidates": []}', RetrievalError,
        'query_id must be a string or an integer, got ["junk"]', id="scores-query-id-list",
    ),
    pytest.param(
        "scores", '{"query_id": "B", "candidates": [["A", 2.0]]}', RetrievalError, "duplicate query id 'B'",
        id="scores-duplicate-query",
    ),
    pytest.param(
        "scores", '{"query_id": "A", "candidates": [["B", "x"]]}', RetrievalError,
        "malformed scores line (could not convert string to float: 'x')", id="scores-score-x",
    ),
    pytest.param(
        "scores", '{"query_id": "A", "candidates": [["B", Infinity]]}', RetrievalError,
        "candidate 'B' has non-finite score inf", id="scores-non-finite",
    ),
    pytest.param(
        "scores", '{"query_id": "A", "candidates": [["Z", 1.0]]}', RetrievalError,
        "candidate id 'Z' is not in the catalog", id="scores-unknown-id",
    ),
    pytest.param(
        "scores", '{"query_id": "A", "candidates": [["B", ' + "1" * 400 + "]]}", RetrievalError,
        "malformed scores line (int too large to convert to float)", id="scores-400-digits",
    ),
    *(
        pytest.param(
            "scores", '{"query_id": "A", "candidates": ' + candidates + "}", RetrievalError, message, id=f"scores-{name}"
        )
        for name, candidates, message in [
            ("id-null", "[[null, 0.5], [true, 0.7], [7.0, 0.2]]", "candidate id must be a string or an integer, got null"),
            ("id-bool", '[["B", 0.5], [true, 0.7]]', "candidate id must be a string or an integer, got true"),
            ("id-float", "[[7.0, 0.2]]", "candidate id must be a string or an integer, got 7.0"),
            ("score-string", '[["B", "0.93"], ["B", true]]', 'candidate score must be a number, got "0.93"'),
            ("score-bool", '[["B", 0.5], ["B", true]]', "candidate score must be a number, got true"),
            # A wrong type is reported before an unknown id, and after a non-finite score.
            ("type-before-unknown-id", '[["Z", 1.0], ["B", false]]', "candidate score must be a number, got false"),
            ("non-finite-before-type", '[[null, 1.0], ["B", NaN]]', "candidate 'B' has non-finite score nan"),
        ]
    ),
    # Only JSON's whitespace (space, tab, CR, LF) is stripped: a line of other whitespace is no blank line.
    *(
        pytest.param(bad_file, line, error, message, id=f"{bad_file}-{name}")
        for bad_file, error, good in [
            ("items", CatalogError, '{"id": "C", "title": "gamma"}'),
            ("edges", CatalogError, '["A", "B"]'),
            ("scores", RetrievalError, '{"query_id": "A", "candidates": []}'),
        ]
        for name, line, message in [
            ("nbsp-only", "\u00a0", "invalid JSON (Expecting value)"),
            ("vertical-tab-only", "\x0b", "invalid JSON (Expecting value)"),
            ("form-feed-after", good + "\x0c", "invalid JSON (Extra data)"),
        ]
    ),
]


@pytest.mark.parametrize("bad_file, line, error, message", LOADER_ERRORS)
def test_loader_error_message(tmp_path, bad_file, line, error, message):
    files = {
        "items": items_lines(("A", "alpha", [], {}), ("B", "beta", [], {})),
        "edges": [json.dumps(["A", "B"])],
        "scores": [json.dumps({"query_id": "B", "candidates": [["A", 1.0]]})],
    }
    files[bad_file].insert(1, line)
    files[bad_file].insert(1, "")  # a blank line is skipped but counted
    for name, lines in files.items():
        write_lines(tmp_path / f"{name}.jsonl", lines)
    with pytest.raises(error) as raised:
        graph = load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")
        PrecomputedRetriever(tmp_path / "scores.jsonl", graph.items)
    assert str(raised.value) == f"{tmp_path / bad_file}.jsonl:3: {message}"


def test_crlf_and_json_whitespace_padded_lines_load(tmp_path):
    items = items_lines(("A", "alpha", [], {}), ("B", "beta", [], {}))
    write_lines(tmp_path / "items.jsonl", [items[0] + "\r", " \t" + items[1] + " \t\r", " \t\r"])
    write_lines(tmp_path / "edges.jsonl", ['\t["A", "B"] \r'])
    (tmp_path / "scores.jsonl").write_text('{"query_id": "A", "candidates": [["B", 1.0]]} \r\n', encoding="utf-8")
    graph = load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")
    assert sorted(graph.items) == ["A", "B"] and graph.edges == {("A", "B")}
    assert PrecomputedRetriever(tmp_path / "scores.jsonl", graph.items).retrieve("A", 1)[0] == ("B",)


def test_edge_key_normalizes():
    assert edge_key("B", "A", {"A", "B"}) == ("A", "B") == edge_key("A", "B", {"A", "B"})


@pytest.mark.parametrize(
    "a, b, message",
    [
        ("A", "Z", "unknown item id 'Z'"),
        ("Z", "Z", "unknown item id 'Z'"),  # an unknown id is reported before a self-loop
        ("A", "A", "self-loop edge on 'A'"),
    ],
)
def test_edge_key_checks_both_endpoints(a, b, message):
    with pytest.raises(CatalogError, match=message):
        edge_key(a, b, {"A", "B"})


def test_neighbors(tiny_graph):
    assert tiny_graph.neighbors("b2") == {"b1", "b3"}
    assert tiny_graph.neighbors("a2") == {"a1"}
    isolated = ComplementGraph({**tiny_graph.items, "z": Item(id="z", title="z")}, tiny_graph.edges)
    assert isolated.neighbors("z") == frozenset()
    with pytest.raises(CatalogError, match="unknown item id 'nope'"):
        tiny_graph.neighbors("nope")


def test_neighbors_match_an_edge_scan():
    graph, _ = generate(SynthConfig(n_items=60, n_genres=4, edges_per_item=3.0, seed=5))
    train, _ = split_holdout(graph, 0.3, seed=2)  # a train graph's adjacency is its own
    for g in (graph, train):
        for item_id in g.items:
            assert g.neighbors(item_id) == {b if a == item_id else a for a, b in g.edges if item_id in (a, b)}


def test_query_instance_invariants():
    with pytest.raises(CatalogError):
        QueryInstance(query_id="A", ground_truth=frozenset())
    with pytest.raises(CatalogError):
        QueryInstance(query_id="A", ground_truth=frozenset({"A", "B"}))


class TestSplitHoldout:
    def test_counts_and_determinism(self, tiny_graph):
        # 4 edges at 0.5 -> 2 held out
        train_a, queries_a = split_holdout(tiny_graph, 0.5, seed=7)
        train_b, queries_b = split_holdout(tiny_graph, 0.5, seed=7)
        assert len(train_a.edges) == 2
        assert train_a.edges == train_b.edges
        assert queries_a == queries_b

    def test_partition(self, tiny_graph):
        train, queries = split_holdout(tiny_graph, 0.5, seed=3)
        held = {
            (q.query_id, complement) if q.query_id < complement else (complement, q.query_id)
            for q in queries
            for complement in q.ground_truth
        }
        assert train.edges | held == tiny_graph.edges
        assert train.edges & held == set()

    def test_rounds_to_zero_is_error(self, tiny_graph):
        with pytest.raises(CatalogError, match="zero held-out"):
            split_holdout(tiny_graph, 0.01, seed=1)

    def test_single_edge_half_fraction(self):
        graph = ComplementGraph({"A": Item(id="A", title="a"), "B": Item(id="B", title="b")}, frozenset({("A", "B")}))
        train, queries = split_holdout(graph, 0.5, seed=1)
        assert len(train.edges) == 0
        assert queries == [QueryInstance(query_id="A", ground_truth=frozenset({"B"}))]

    def test_invalid_fraction(self, tiny_graph):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(CatalogError):
                split_holdout(tiny_graph, bad, seed=1)

    @given(seed=st.integers(0, 10_000), fraction=st.floats(0.15, 0.85))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, seed, fraction):
        graph, _ = generate(SynthConfig(n_items=30, n_genres=3, edges_per_item=2.0, seed=4))
        train, queries = split_holdout(graph, fraction, seed)
        held = {
            (q.query_id, c) if q.query_id < c else (c, q.query_id)
            for q in queries
            for c in q.ground_truth
        }
        assert train.edges | held == graph.edges
        assert train.edges & held == set()
        # query nodes take the lexicographically smaller endpoint
        assert all(q.query_id < min(q.ground_truth) for q in queries)


def test_write_then_load_round_trip(tmp_path, tiny_graph):
    write_catalog(tiny_graph, tmp_path / "items.jsonl", tmp_path / "edges.jsonl")
    reloaded = load_catalog(tmp_path / "items.jsonl", tmp_path / "edges.jsonl")
    assert reloaded.items == tiny_graph.items
    assert reloaded.edges == tiny_graph.edges
    assert all(a < b and {a, b} <= reloaded.items.keys() for a, b in reloaded.edges)

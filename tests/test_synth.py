import pytest

from complerank.catalog import load_catalog
from complerank.synth import TITLE_TOKENS, TOKEN_POOL, SynthConfig, SynthError, generate, write_dataset


class TestConfigValidation:
    def test_genres_cannot_exceed_items(self):
        with pytest.raises(SynthError):
            SynthConfig(n_items=3, n_genres=5)

    def test_ratio_bounds(self):
        with pytest.raises(SynthError):
            SynthConfig(n_items=10, cross_genre_edge_ratio=1.2)

    def test_edges_beyond_the_pair_capacity(self):
        message = "asks for 1000.0 edges, but 10 items have only 45 distinct pairs"
        with pytest.raises(SynthError, match=message):
            generate(SynthConfig(n_items=10, edges_per_item=200))

    def test_edges_beyond_one_kind_of_pair(self):
        with pytest.raises(SynthError, match="only 0 distinct cross-genre pairs"):
            generate(SynthConfig(n_items=10, n_genres=1))
        with pytest.raises(SynthError, match="only 0 distinct same-genre pairs"):
            generate(SynthConfig(n_items=10, n_genres=10, cross_genre_edge_ratio=0.0))

    def test_edges_at_the_pair_capacity(self):
        config = SynthConfig(n_items=10, n_genres=1, edges_per_item=9, cross_genre_edge_ratio=0.0)
        graph, _ = generate(config)
        assert len(graph.edges) == 45


def genre_pairs(graph, genre_of):
    return [(genre_of[a], genre_of[b]) for a, b in graph.edges]


def test_deterministic_for_fixed_seed():
    config = SynthConfig(n_items=100, n_genres=4, seed=1)
    graph_a, genres_a = generate(config)
    graph_b, genres_b = generate(config)
    assert graph_a.items == graph_b.items
    assert graph_a.edges == graph_b.edges
    assert genres_a == genres_b


def test_different_seeds_differ():
    graph_a, _ = generate(SynthConfig(n_items=100, n_genres=4, seed=1))
    graph_b, _ = generate(SynthConfig(n_items=100, n_genres=4, seed=2))
    assert graph_a.edges != graph_b.edges


def test_ratio_zero_all_same_genre():
    graph, genre_of = generate(
        SynthConfig(n_items=80, n_genres=4, cross_genre_edge_ratio=0.0, seed=3)
    )
    assert all(ga == gb for ga, gb in genre_pairs(graph, genre_of))


def test_ratio_one_all_cross_genre():
    graph, genre_of = generate(
        SynthConfig(n_items=80, n_genres=4, cross_genre_edge_ratio=1.0, seed=3)
    )
    assert all(ga != gb for ga, gb in genre_pairs(graph, genre_of))


def test_generated_graphs_pass_validation():
    for seed in range(5):
        graph, genre_of = generate(SynthConfig(n_items=50, n_genres=5, seed=seed))
        assert all(a < b and {a, b} <= graph.items.keys() for a, b in graph.edges)
        assert set(genre_of) == set(graph.items)
        for item in graph.items.values():
            assert item.categories == (genre_of[item.id],)


def test_titles_use_genre_token_pools():
    graph, genre_of = generate(SynthConfig(n_items=40, n_genres=4, seed=9))
    for item in graph.items.values():
        genre, tokens = genre_of[item.id], item.title.split()
        assert TITLE_TOKENS[0] <= len(tokens) <= TITLE_TOKENS[1]
        assert all(token.startswith(f"{genre}w") and int(token[len(genre) + 1:]) < TOKEN_POOL for token in tokens)


def mean_distinct_complement_genres(graph, genre_of):
    per_node = []
    for node in graph.items:
        genres = {genre_of[n] for n in graph.neighbors(node)}
        if genres:
            per_node.append(len(genres))
    return sum(per_node) / len(per_node)


def test_cross_ratio_raises_complement_genre_diversity():
    # statistical handle: over 100 seeds, ratio 1 yields strictly more distinct
    # genres among true complements than ratio 0
    totals = {0.0: 0.0, 1.0: 0.0}
    for seed in range(100):
        for ratio in (0.0, 1.0):
            graph, genre_of = generate(
                SynthConfig(
                    n_items=40, n_genres=4, edges_per_item=3.0,
                    cross_genre_edge_ratio=ratio, seed=seed,
                )
            )
            totals[ratio] += mean_distinct_complement_genres(graph, genre_of)
    assert totals[1.0] / 100 > totals[0.0] / 100


def test_write_dataset_round_trip(tmp_path):
    graph, genre_of = generate(SynthConfig(n_items=60, n_genres=3, seed=12))
    items_path, edges_path, genres_path = write_dataset(graph, genre_of, tmp_path)
    assert genres_path.exists()
    reloaded = load_catalog(items_path, edges_path)
    assert reloaded.items == graph.items
    assert reloaded.edges == graph.edges

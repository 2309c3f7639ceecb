"""Synthetic product catalogs with planted complementary edges.

Items get genre-specific multi-token titles (so token-entropy and vocabulary
metrics are nondegenerate), ``categories == [genre]`` and a random price.
Edges are planted so that a configurable fraction joins items of different
genres, giving tests a direct handle on ground-truth genre diversity.
Generation is a pure function of the config: the same seed yields byte-identical
datasets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .catalog import ComplementGraph, Item, edge_key, write_catalog, write_json


class SynthError(ValueError):
    """Invalid synthesis config or an unsatisfiable edge-planting request."""


TITLE_TOKENS = (3, 8)  # the fewest and most tokens of a title
TOKEN_POOL = 40  # the tokens of each genre's title pool


@dataclass(frozen=True)
class SynthConfig:
    n_items: int
    n_genres: int = 4
    edges_per_item: float = 3.0
    cross_genre_edge_ratio: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise SynthError("n_items must be positive")
        if self.n_genres < 1:
            raise SynthError("n_genres must be positive")
        if self.n_genres > self.n_items:
            raise SynthError(
                f"n_genres ({self.n_genres}) cannot exceed n_items ({self.n_items})"
            )
        if self.edges_per_item < 0:
            raise SynthError("edges_per_item must be nonnegative")
        if not 0.0 <= self.cross_genre_edge_ratio <= 1.0:
            raise SynthError("cross_genre_edge_ratio must be in [0, 1]")


def generate(config: SynthConfig) -> tuple[ComplementGraph, dict[str, str]]:
    """Build a synthetic catalog plus its item-to-genre assignment.

    Genres are assigned round-robin; titles are sampled (with replacement)
    from a per-genre token pool; the target edge count is
    ``round(n_items * edges_per_item / 2)`` split into same-genre and
    cross-genre pairs per ``cross_genre_edge_ratio``.
    """
    rng = random.Random(config.seed)
    genres = [f"genre{g:02d}" for g in range(config.n_genres)]
    pools = {genre: [f"{genre}w{t:03d}" for t in range(TOKEN_POOL)] for genre in genres}

    items: list[Item] = []
    genre_of: dict[str, str] = {}
    members: dict[str, list[str]] = {genre: [] for genre in genres}
    for i in range(config.n_items):
        item_id = f"it{i:05d}"
        genre = genres[i % config.n_genres]
        length = rng.randint(*TITLE_TOKENS)
        title = " ".join(rng.choices(pools[genre], k=length))
        price = round(rng.uniform(1.0, 100.0), 2)
        items.append(Item(id=item_id, title=title, categories=(genre,), price=price))
        genre_of[item_id] = genre
        members[genre].append(item_id)

    def check_capacity(kind: str, target: float, capacity: int) -> None:
        # Written so that NaN and infinity fail it too.
        if not target <= capacity:
            raise SynthError(
                f"edges_per_item {config.edges_per_item} asks for {target} {kind}edges, but "
                f"{config.n_items} items have only {capacity} distinct {kind}pairs"
            )

    n_pairs = config.n_items * (config.n_items - 1) // 2
    same_pairs = sum(len(ids) * (len(ids) - 1) // 2 for ids in members.values())
    target = config.n_items * config.edges_per_item / 2
    check_capacity("", target, n_pairs)
    n_edges = math.floor(target + 0.5)
    n_cross = math.floor(config.cross_genre_edge_ratio * n_edges + 0.5)
    n_same = n_edges - n_cross
    check_capacity("same-genre ", n_same, same_pairs)
    check_capacity("cross-genre ", n_cross, n_pairs - same_pairs)
    pairable = [genre for genre in genres if len(members[genre]) >= 2]

    edges: set[tuple[str, str]] = set()

    def plant(count: int, sample_pair) -> None:
        attempts = 0
        placed = 0
        limit = 100 * count + 100
        while placed < count:
            attempts += 1
            if attempts > limit:
                raise SynthError(
                    f"could not place {count} edges after {limit} attempts; "
                    "graph too dense for the requested edges_per_item"
                )
            edge = sample_pair()
            if edge not in edges:
                edges.add(edge)
                placed += 1

    def same_pair() -> tuple[str, str]:
        genre = rng.choice(pairable)
        a, b = rng.sample(members[genre], 2)
        return edge_key(a, b, genre_of)

    def cross_pair() -> tuple[str, str]:
        g1, g2 = rng.sample(genres, 2)
        return edge_key(rng.choice(members[g1]), rng.choice(members[g2]), genre_of)

    plant(n_same, same_pair)
    plant(n_cross, cross_pair)

    # Ids are unique and every edge went through ``edge_key``, so nothing is left to check.
    return ComplementGraph(items={item.id: item for item in items}, edges=frozenset(edges)), genre_of


def write_dataset(
    graph: ComplementGraph, genre_of: dict[str, str], out_dir: str | Path
) -> tuple[Path, Path, Path]:
    """Write ``items.jsonl``, ``edges.jsonl`` and the ``genres.json`` sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    items_path = out / "items.jsonl"
    edges_path = out / "edges.jsonl"
    genres_path = out / "genres.json"
    write_catalog(graph, items_path, edges_path)
    write_json(genre_of, genres_path)
    return items_path, edges_path, genres_path

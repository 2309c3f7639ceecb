"""Product-graph data model: items, undirected complementary edges, file IO, holdout splits.

A catalog is a :class:`ComplementGraph`: a set of items (each with a title, a
multi-level category path and an optional price) plus undirected edges between
item ids that mark complementary relationships.  Evaluation instances are
produced by :func:`split_holdout`, which removes a seeded-random fraction of
edges and groups the removed endpoints into per-query ground-truth sets.

File formats (see README for examples):
  * items file: UTF-8 JSON Lines, one object per line with keys ``id`` (str),
    ``title`` (str), ``categories`` (list of str), ``price`` (finite number,
    optional).
  * edges file: one JSON array ``[id_a, id_b]`` per line.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Mapping, TypeVar

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class Item:
    """A product node.

    ``categories`` is an ordered coarse-to-fine path; ``price`` is in
    unit-agnostic currency units and may be absent.
    """

    id: str
    title: str
    categories: tuple[str, ...] = ()
    price: float | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("item id must be nonempty")
        if not self.title:
            raise ValueError(f"item {self.id!r}: title must be nonempty")
        if any(not level for level in self.categories):
            raise ValueError(f"item {self.id!r}: categories must not contain empty strings")
        if self.price is not None and self.price < 0:
            raise ValueError(f"item {self.id!r}: price must be nonnegative")


def edge_key(a: str, b: str, items: Container[str]) -> tuple[str, str]:
    """Normalize an undirected edge between two ids of ``items`` to a sorted id pair.

    Unknown endpoints and self-loops (an item cannot complement itself) are
    rejected, in that order.
    """
    for endpoint in (a, b):
        if endpoint not in items:
            raise ValueError(f"edge references unknown item id {endpoint!r}")
    if a == b:
        raise ValueError(f"self-loop edge on {a!r}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class ComplementGraph:
    """Items plus undirected complementary edges.

    ``edges`` holds normalized (sorted) id pairs of known items (see
    :func:`edge_key`).  Instances are immutable by convention and safe to
    share across concurrent readers.  :func:`load_catalog` is the one validating
    entry: it reports a duplicate id or a bad edge with ``path:line``.
    """

    items: dict[str, Item]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def _adjacency(self) -> dict[str, set[str]]:
        adjacency: dict[str, set[str]] = {}
        for a, b in self.edges:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        return adjacency

    def neighbors(self, item_id: str) -> frozenset[str]:
        """Ids directly linked to ``item_id`` (empty set if isolated)."""
        if item_id not in self.items:
            raise ValueError(f"unknown item id {item_id!r}")
        return frozenset(self._adjacency.get(item_id, ()))


@dataclass(frozen=True, slots=True)
class QueryInstance:
    """A link-prediction query: one item id plus its held-out true complements."""

    query_id: str
    ground_truth: frozenset[str]

    def __post_init__(self) -> None:
        if not self.ground_truth:
            raise ValueError(f"query {self.query_id!r}: ground truth must be nonempty")
        if self.query_id in self.ground_truth:
            raise ValueError(f"query {self.query_id!r} appears in its own ground truth")


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``, as a decoder's ``object_pairs_hook``; a repeated key, which would
    overwrite the first, raises ``ValueError`` naming it."""
    record = dict(pairs)
    if len(record) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {json.dumps(next(k for k in keys if keys.count(k) > 1))}")
    return record


def read_int(token: str) -> int | float:
    """``int(token)``, or ±inf past the digits ``int`` reads: out of every range, and named by key in a config."""
    try:
        return int(token)
    except ValueError:
        return -math.inf if token.startswith("-") else math.inf


_decode = json.JSONDecoder(object_pairs_hook=unique_keys).decode


def read_json_lines(path: Path, parse: Callable[[object], T]) -> Iterator[T]:
    """Yield ``parse(value)`` for each line of a UTF-8 JSON Lines file that holds more than JSON whitespace.

    A line that is not UTF-8 or not JSON, that repeats a key within an object, or whose ``parse``
    raises ``ValueError``, raises a ``ValueError`` prefixed with ``path:line``; what the consumer
    raises passes unchanged.
    """
    with open(path, "rb") as fh:  # decoded line by line, so that a bad byte is reported with its line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip(" \t\r\n")  # JSON's whitespace; UnicodeDecodeError is a ValueError
                if not line:
                    continue
                try:
                    value = _decode(line)
                except (ValueError, RecursionError) as exc:  # also an over-long integer, or too deep a nesting
                    raise ValueError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
                parsed = parse(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield parsed


_encode = json.JSONEncoder(sort_keys=True).encode


def json_line(record: object) -> str:
    """``record`` as one sorted-key JSON line, the format :func:`read_json_lines` reads."""
    return _encode(record) + "\n"


def write_json_lines(path: str | Path, records: Iterable[object]) -> None:
    """Write each of ``records`` to ``path`` as its :func:`json_line`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(json_line, records))


def write_json(payload: object, path: str | Path) -> None:
    """Write ``payload`` as sorted-key JSON indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_item(record: object, items: Container[str], paths: dict[tuple[str, ...], tuple[str, ...]]) -> Item:
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    try:
        item_id = record["id"]
        title = record["title"]
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from exc
    categories = record.get("categories", [])
    price = record.get("price")
    if not isinstance(item_id, str) or not isinstance(title, str):
        raise ValueError("id and title must be strings")
    if not isinstance(categories, list) or any(not isinstance(c, str) for c in categories):
        raise ValueError("categories must be an array of strings")
    # NaN fails the comparison, and JSON's ``true`` is no number here.
    if price is not None and (type(price) not in (int, float) or not abs(price) <= sys.float_info.max):
        raise ValueError(f"price must be a finite number, got {json.dumps(price)}")
    path = tuple(categories)
    item = Item(
        id=item_id,
        title=title,
        categories=paths.setdefault(path, path),  # items with equal paths share one tuple
        price=None if price is None else float(price),
    )
    if item.id in items:
        raise ValueError(f"duplicate item id {item.id!r}")
    return item


def _parse_edge(pair: object, items: Mapping[str, Item]) -> tuple[str, str]:
    if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(x, str) for x in pair):
        raise ValueError("expected a JSON array of two item ids")
    a, b = edge_key(*pair, items)
    return items[a].id, items[b].id  # the catalog's own strings, not the ones decoded from this line


def load_catalog(items_path: str | Path, edges_path: str | Path) -> ComplementGraph:
    """Load and validate a catalog from an items file and an edges file.

    Duplicate edges (including reversed duplicates) collapse to one undirected
    edge.  Errors report the offending file line.  Edges hold the items' own id
    strings, and items with equal category paths share one tuple.
    """
    items: dict[str, Item] = {}
    paths: dict[tuple[str, ...], tuple[str, ...]] = {}
    for item in read_json_lines(Path(items_path), lambda record: _parse_item(record, items, paths)):
        items[item.id] = item
    edges = read_json_lines(Path(edges_path), lambda pair: _parse_edge(pair, items))
    return ComplementGraph(items=items, edges=frozenset(edges))


def write_catalog(graph: ComplementGraph, items_path: str | Path, edges_path: str | Path) -> None:
    """Write a catalog in the items/edges file formats (sorted, reloadable)."""
    # ``price`` is the one item field that may be None; an absent price is left out.
    items = (graph.items[i] for i in sorted(graph.items))
    records = ({f.name: v for f in fields(Item) if (v := getattr(item, f.name)) is not None} for item in items)
    write_json_lines(items_path, records)
    write_json_lines(edges_path, sorted(graph.edges))


def split_holdout(
    graph: ComplementGraph, holdout_fraction: float, seed: int
) -> tuple[ComplementGraph, list[QueryInstance]]:
    """Remove a seeded-random fraction of edges and turn them into queries.

    The held-out count is ``floor(holdout_fraction * |E| + 0.5)`` (half-up, so
    a 0.5 fraction of a single edge holds out that edge).  Each held-out edge
    contributes its lexicographically larger endpoint to the ground truth of
    the smaller one; queries are grouped per query node.  Held-out edges are
    absent from the returned train graph so retrievers cannot leak them.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    if not graph.edges:
        raise ValueError("cannot split a graph with no edges")
    count = math.floor(holdout_fraction * len(graph.edges) + 0.5)
    if count == 0:
        raise ValueError(
            f"holdout_fraction {holdout_fraction} of {len(graph.edges)} edges rounds to zero held-out edges"
        )
    rng = random.Random(seed)
    held = rng.sample(sorted(graph.edges), count)

    train = ComplementGraph(items=graph.items, edges=graph.edges - set(held))
    grouped: dict[str, set[str]] = {}
    for query_id, complement_id in held:
        grouped.setdefault(query_id, set()).add(complement_id)
    queries = [
        QueryInstance(query_id=q, ground_truth=frozenset(grouped[q])) for q in sorted(grouped)
    ]
    return train, queries

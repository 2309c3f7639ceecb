"""Per-layer tracer: wraps the program's public functions from outside.

Each function is replaced where its caller looks it up (for example
``build_prompt`` as ``complerank.pipeline.build_prompt``), so nothing under
``src/`` changes.  A call becomes a span ``(id, parent id, name, start, end,
value)``; spans are kept in memory and written out once, at the end of the
run.  The parent id comes from a per-thread stack, so spans of one query
chain up to its ``pipeline.run_pipeline`` span even at concurrency > 1.

Leaf functions called millions of times (``score_pair``, the metric kernels)
are not timed: a span per call would cost more than the work.  ``score_pair``
is only counted.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.pairs_scored = itertools.count()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, value=None):
        """Return ``fn`` recording a span per call; ``value(result)`` is kept with it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [0])
            span_id = next(self._ids)
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append((span_id, parent, name, start, end, value(result) if value else None))
            return result

        return traced

    def install(self) -> None:
        from complerank import agents, catalog, cli, metrics, pipeline, retriever

        def patch(owner, attr, name, value=None):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), value))

        patch(catalog, "load_catalog", "catalog.load")
        patch(catalog, "split_holdout", "catalog.split")
        patch(catalog.ComplementGraph, "neighbors", "catalog.neighbors")
        for cls in (retriever.HeuristicRetriever, retriever.PrecomputedRetriever):
            patch(cls, "__init__", "retriever.build")
            patch(cls, "retrieve", "retriever.retrieve")
        score_pair = retriever.score_pair
        counter = self.pairs_scored

        def counted_score_pair(*args, **kwargs):
            next(counter)
            return score_pair(*args, **kwargs)

        retriever.score_pair = counted_score_pair

        patch(pipeline, "build_prompt", "agents.render", lambda bundle: len(bundle.text))
        patch(pipeline, "parse_permutation", "agents.parse", lambda parsed: int(bool(parsed.repairs)))
        for factory in ("mock_agent", "http_transport"):
            make = getattr(agents, factory)

            def traced_factory(*args, _make=make, **kwargs):
                return self.wrap("agents.transport", _make(*args, **kwargs))

            setattr(agents, factory, traced_factory)
        patch(pipeline, "run_all", "pipeline.run_all")
        patch(pipeline, "run_pipeline", "pipeline.run_pipeline")

        patch(metrics, "evaluate_results", "metrics.evaluate")
        patch(metrics, "aggregate", "metrics.aggregate")
        patch(metrics, "lift_rows_for_runs", "metrics.lift")
        patch(metrics, "rows_to_dicts", "metrics.serialize")
        for writer in ("write_json", "write_metrics_csv", "write_lift_csv"):
            patch(metrics, writer, "metrics.write")
        patch(cli, "cmd_run", "cli.cmd_run")

    def dump(self, path, origin: float) -> None:
        """Write spans with times relative to ``origin``, plus the counter."""
        payload = {
            "spans": [
                [span_id, parent, name, start - origin, end - origin, value]
                for span_id, parent, name, start, end, value in self.spans
            ],
            "pairs_scored": next(self.pairs_scored),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _quantile_ms(values, q) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (``layer.metric`` -> value)."""
    spans = trace["spans"]
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
        children.setdefault(span[1], []).append(span)

    def total(name):
        return sum(end - start for _, _, _, start, end, _ in by_name.get(name, ()))

    def durations(name):
        return [end - start for _, _, _, start, end, _ in by_name.get(name, ())]

    def self_time(span):
        kids = [(max(s, span[3]), min(e, span[4])) for _, _, _, s, e, _ in children.get(span[0], ())]
        return (span[4] - span[3]) - _union(kids)

    (cmd_run,) = by_name["cli.cmd_run"]
    (run_all,) = by_name["pipeline.run_all"]
    queries = by_name.get("pipeline.run_pipeline", ())
    query_wall = run_all[4] - run_all[3]
    finish = [
        (s[3], s[4]) for s in children.get(cmd_run[0], ()) if s[3] >= run_all[4]
    ]
    return {
        "catalog.load_s": total("catalog.load"),
        "catalog.split_s": total("catalog.split"),
        "catalog.neighbors_s": total("catalog.neighbors"),
        "catalog.neighbors_calls": len(by_name.get("catalog.neighbors", ())),
        "retriever.build_s": total("retriever.build"),
        "retriever.retrieve_s": total("retriever.retrieve"),
        "retriever.retrieve_p50_ms": _quantile_ms(durations("retriever.retrieve"), 0.50),
        "retriever.retrieve_p95_ms": _quantile_ms(durations("retriever.retrieve"), 0.95),
        "retriever.pairs_scored": trace["pairs_scored"],
        "agents.render_s": total("agents.render"),
        "agents.prompt_chars": sum(s[5] for s in by_name.get("agents.render", ())),
        "agents.parse_s": total("agents.parse"),
        "agents.repairs": sum(s[5] for s in by_name.get("agents.parse", ())),
        "agents.transport_s": total("agents.transport"),
        "agents.transport_p50_ms": _quantile_ms(durations("agents.transport"), 0.50),
        "agents.transport_p95_ms": _quantile_ms(durations("agents.transport"), 0.95),
        "agents.prompts": len(by_name.get("agents.transport", ())),
        "pipeline.query_p50_ms": _quantile_ms(durations("pipeline.run_pipeline"), 0.50),
        "pipeline.query_p95_ms": _quantile_ms(durations("pipeline.run_pipeline"), 0.95),
        "pipeline.effective_concurrency": total("pipeline.run_pipeline") / query_wall,
        # Worker threads start their own span stacks, so the queries' cover of
        # the query phase is taken by name rather than by parent id.
        "pipeline.query_uncovered_s": query_wall
        - _union((s[3], s[4]) for s in queries)
        + sum(self_time(s) for s in queries),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.aggregate_s": total("metrics.aggregate"),
        "metrics.serialize_s": total("metrics.serialize"),
        "metrics.write_s": total("metrics.write"),
        "cli.finish_s": cmd_run[4] - run_all[4],
        "cli.finish_uncovered_s": (cmd_run[4] - run_all[4]) - _union(finish),
    }

"""Command-line entry point: ``synth``, ``run`` and ``report`` subcommands.

``synth`` writes a synthetic dataset; ``run`` executes split + retrieval +
three-stage reranking + evaluation for one retriever into an output
directory; ``report`` merges several runs (one per retriever) into a combined
metrics table and a cross-retriever lift table with standard errors.

``run`` is driven by a JSON config file (key set documented in the README);
``--out`` may name another output directory.  Runs with mock agents are fully
deterministic: the same config yields byte-identical CSV outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO, TypeVar

from . import agents, catalog, metrics, pipeline, retriever, synth

T = TypeVar("T")


def _keys_of(cls: type) -> dict[str, type]:
    """The JSON type of each field of the dataclass ``cls``, by name."""
    types = {"int": int, "float": float, "str": str}
    return {f.name: types[f.type] for f in fields(cls)}


# Every key a run config may set, with its JSON type or its allowed values
# (README "Run config").
_SCHEMA = {
    "dataset": {"items": str, "edges": str, "name": str},
    "split": {"holdout_fraction": float, "seed": int},
    "retriever": {"kind": ("heuristic", "precomputed"), "name": str, "path": str},
    "pipeline": {"preset": tuple(pipeline.PRESETS), "n_div": int, "n_acc": int, "cutoffs": [int]},
    "agents": {"mock": str, **_keys_of(agents.LlmConfig)},
    "out": str,
    "concurrency": int,
    "audit": bool,
}
# The keys of a run's metrics.json, each required.
_METRICS_SCHEMA = {"dataset": str, "retriever": str, "cutoffs": [int], "rows": [_keys_of(metrics.MetricsRow)]}
# The keys of a line of a run's retrieval.jsonl, each required.
_RETRIEVAL_SCHEMA = {"query_id": str, "source": str, "ground_truth": [str], "candidates": list}


def _check_schema(value: object, schema: object, key: str, required: bool = False) -> None:
    """Raise a ValueError naming the first key of ``value`` that ``schema`` does not allow.

    ``[element schema]`` is a list schema.  With ``required``, every key of a
    dict schema must be present.  A float key takes only a finite number; an
    integer given for one is replaced by the equal float.
    """
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{key or 'config'}: expected a JSON object")
        missing = sorted(schema.keys() - value.keys()) if required else []
        if missing:
            raise ValueError(f"{key or 'top level'}: missing key(s) {missing}")
        for name in value:
            where = f"{key}.{name}" if key else name
            if name not in schema:
                raise ValueError(f"{where}: unknown key")
            _check_schema(value[name], schema[name], where, required)
            if schema[name] is float:
                value[name] = float(value[name])
    elif isinstance(schema, list):
        _check_schema(value, list, key)
        for n, element in enumerate(value):
            _check_schema(element, schema[0], f"{key}[{n}]", required)
    elif isinstance(schema, tuple):
        if value not in schema:
            raise ValueError(f"{key}: expected one of {list(schema)}, got {json.dumps(value)}")
    elif type(value) not in ((int, float) if schema is float else (schema,)):
        raise ValueError(f"{key}: expected {schema.__name__}, got {json.dumps(value)}")
    elif schema is float and not -sys.float_info.max <= value <= sys.float_info.max:
        # NaN fails both comparisons; an integer past the float range would overflow.
        raise ValueError(f"{key}: expected a finite number, got {json.dumps(value)}")


def _check_cutoffs(cutoffs: list[int], key: str) -> None:
    """Raise a ValueError led by ``key`` unless ``cutoffs`` is nonempty and positive."""
    if not cutoffs:
        raise ValueError(f"{key}: must be nonempty")
    if min(cutoffs) < 1:
        raise ValueError(f"{key}: must be positive, got {cutoffs}")


def _build(cls: type[T], settings: dict, section: str) -> T:
    """``cls(**settings)``, its range errors led by the config key ``section``."""
    try:
        return cls(**settings)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from None


def _agent(settings: dict) -> str | agents.LlmConfig:
    """The agent of both reranked stages from the ``agents`` section: a mock policy, or endpoint settings."""
    if "mock" not in settings:
        if not {"endpoint", "model"} <= settings.keys():
            raise ValueError("agents: needs either 'mock' or 'endpoint' and 'model'")
        return _build(agents.LlmConfig, settings, "agents")
    if "endpoint" in settings:
        raise ValueError("agents: sets both 'mock' and 'endpoint'")
    agents.mock_agent(settings["mock"], ground_truth={})  # an unknown policy fails here, before any input is read
    unused = sorted(settings.keys() - {"mock"})
    if unused:
        raise ValueError(f"agents.{unused[0]}: only an endpoint agent takes this key")
    return settings["mock"]


@dataclass(frozen=True)
class RunConfig:
    """A ``complerank run`` config, validated in full before any input is read.

    ``agent`` prompts both reranked stages, which differ only in the prompt's ``kind``.
    """

    out: Path
    dataset_name: str
    dataset: tuple[Path, Path]  # the items file and the edges file
    holdout_fraction: float
    seed: int
    retriever_name: str | None
    scores: Path | None  # the precomputed retriever's file; None for the heuristic retriever
    pipeline_config: pipeline.PipelineConfig
    cutoffs: tuple[int, ...]  # sorted, without duplicates
    agent: str | agents.LlmConfig  # both reranked stages' mock policy or endpoint settings
    audit: bool
    concurrency: int

    @classmethod
    def parse(cls, raw: dict, out: str | None = None) -> "RunConfig":
        """Check and validate the JSON config; ``out``, when given, replaces its ``out``."""
        _check_schema(raw, _SCHEMA, "")
        if out is not None:
            raw["out"] = out
        dataset, split, retr, pipe, agents_cfg = (
            raw.get(name, {}) for name in ("dataset", "split", "retriever", "pipeline", "agents")
        )
        for section, settings in (("dataset", dataset), ("retriever", retr)):
            if settings.get("name") == "":  # it would label every output row, or give way to the default
                raise ValueError(f"{section}.name: must be nonempty")

        if not {"items", "edges"} <= dataset.keys():
            raise ValueError("dataset: set both 'items' and 'edges'")
        files = (Path(dataset["items"]), Path(dataset["edges"]))

        holdout_fraction = split.get("holdout_fraction", 0.2)
        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError(f"split.holdout_fraction: must be in (0, 1), got {holdout_fraction}")

        precomputed = retr.get("kind") == "precomputed"
        if precomputed and "path" not in retr:
            raise ValueError("retriever.path: the precomputed retriever needs a scores file")
        if "path" in retr and not precomputed:
            raise ValueError("retriever.path: only the precomputed retriever takes this key")

        preset = pipe.get("preset")
        if preset is None:
            depths = {key: pipe[key] for key in ("n_div", "n_acc") if key in pipe}
        elif {"n_div", "n_acc"} & pipe.keys():
            raise ValueError("pipeline.preset: cannot be combined with n_div or n_acc")
        else:
            depths = dict(zip(("n_div", "n_acc"), pipeline.PRESETS[preset]))

        agent = _agent(agents_cfg)
        pipeline_config = _build(pipeline.PipelineConfig, depths, "pipeline")
        given = pipe.get("cutoffs", [1, 3, 5, 10])
        _check_cutoffs(given, "pipeline.cutoffs")
        cutoffs = tuple(sorted(set(given)))
        if cutoffs[-1] > pipeline_config.n_acc:
            raise ValueError(
                f"pipeline.cutoffs: largest cutoff ({cutoffs[-1]}) must not exceed"
                f" n_acc ({pipeline_config.n_acc})"
            )

        if "out" not in raw:
            raise ValueError("out: no output directory; set 'out' in the config or pass --out")
        if raw["out"] == "":  # Path("") is the working directory
            raise ValueError("out: must be nonempty")
        concurrency = raw.get("concurrency", 1)
        if concurrency < 1:
            raise ValueError(f"concurrency: must be positive, got {concurrency}")
        return cls(
            out=Path(raw["out"]),
            dataset_name=dataset.get("name", files[0].stem),
            dataset=files,
            holdout_fraction=holdout_fraction,
            seed=split.get("seed", 0),
            retriever_name=retr.get("name"),
            scores=Path(retr["path"]) if precomputed else None,
            pipeline_config=pipeline_config,
            cutoffs=cutoffs,
            agent=agent,
            audit=raw.get("audit", not isinstance(agent, str)),
            concurrency=concurrency,
        )


def _record(result: pipeline.QueryResult, outcome: pipeline.StageOutcome, **own: object) -> dict:
    """One stage's output record: its query, stage, repairs and failure, then ``own``."""
    return {
        "query_id": result.query.query_id,
        "stage": outcome.stage,
        "repairs": sorted(outcome.repairs),
        "failed": outcome.failed,
        **own,
    }


def _audit_records(
    results: Iterable[pipeline.QueryResult], items: Mapping[str, catalog.Item]
) -> Iterator[dict]:
    """The ``audit.jsonl`` records of the reranked stages, each prompt rendered again from its input."""
    for r in results:
        query = items[r.query.query_id]
        for outcome, kind, order in pipeline.reranked_stages(r):
            prompt = agents.render_prompt(query, [items[item_id] for item_id in order], kind)
            yield _record(r, outcome, prompt=prompt, response=outcome.response)


def _written(rows: Iterable[metrics.PerQueryRow], fh: TextIO) -> Iterator[metrics.PerQueryRow]:
    """``rows``, each passed on once written to ``fh`` as one JSON line: one pass writes and averages them."""
    for row in rows:
        fh.write(catalog.json_line(vars(row)))
        yield row


def _write_tables(
    out: Path, names: tuple[str, str], header: dict, rows_by_retriever: dict[str, list[metrics.MetricsRow]]
) -> None:
    """Write the combined metrics table and the lift table, each as ``<name>.csv`` and ``<name>.json``.

    ``header`` leads the table's JSON and names its ``dataset`` and ``cutoffs``.
    ``out`` is created only once both tables are built.
    """
    table, lift = names
    combined = [
        row
        for name in sorted(rows_by_retriever)
        for row in sorted(rows_by_retriever[name], key=lambda r: (pipeline.STAGES.index(r.stage), r.k))
    ]
    lift_rows = metrics.lift_rows_for_runs(rows_by_retriever, header["dataset"], header["cutoffs"])
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_metrics_csv(combined, out / f"{table}.csv")
    metrics.write_json({**header, "rows": metrics.rows_to_dicts(combined)}, out / f"{table}.json")
    metrics.write_lift_csv(lift_rows, out / f"{lift}.csv")
    metrics.write_json(
        {"dataset": header["dataset"], "rows": metrics.rows_to_dicts(lift_rows)}, out / f"{lift}.json"
    )


def cmd_synth(config: synth.SynthConfig, out_dir: str | Path) -> tuple[Path, Path, Path]:
    if out_dir == "":  # Path("") is the working directory
        raise ValueError("out: must be nonempty")
    graph, genre_of = synth.generate(config)
    paths = synth.write_dataset(graph, genre_of, out_dir)
    for path in paths:
        print(path)
    return paths


def cmd_run(cfg: RunConfig) -> Path:
    # Every input is read before the output directory is created, so a run that fails on one
    # leaves nothing behind.  A run holds only what it reads again: the full graph dies with the
    # split's return, and the train graph lives on only for the heuristic retriever.
    train, queries = catalog.split_holdout(catalog.load_catalog(*cfg.dataset), cfg.holdout_fraction, cfg.seed)
    items = train.items

    if cfg.scores is None:
        retr = retriever.HeuristicRetriever(train, cfg.retriever_name or "heuristic")
    else:
        del train  # before the scores parse, whose end is the set-up peak
        retr = retriever.PrecomputedRetriever(
            cfg.scores, items, name=cfg.retriever_name, depth=cfg.pipeline_config.n_div
        )
        retr.check_coverage([query.query_id for query in queries])
    truth = {query.query_id: query.ground_truth for query in queries}
    if isinstance(cfg.agent, str):
        transport = agents.mock_agent(cfg.agent, ground_truth=truth)
        agent = {"mock": cfg.agent}
    else:
        transport = agents.http_transport(cfg.agent)
        agent = {"endpoint": cfg.agent.endpoint, "model": cfg.agent.model}
    out_dir = cfg.out
    out_dir.mkdir(parents=True, exist_ok=True)
    if not cfg.audit:  # a rerun into the same directory leaves no stale audit log
        (out_dir / "audit.jsonl").unlink(missing_ok=True)
    results = pipeline.run_all(
        queries, retr, items, cfg.pipeline_config, transport, cfg.concurrency, audit=cfg.audit
    )

    metrics.write_json(
        {
            "dataset": cfg.dataset_name,
            "retriever": retr.name,
            "n_queries": len(queries),
            "holdout_fraction": cfg.holdout_fraction,
            "seed": cfg.seed,
            "n_div": cfg.pipeline_config.n_div,
            "n_acc": cfg.pipeline_config.n_acc,
            "cutoffs": list(cfg.cutoffs),
            "agents": {"diversity": agent, "accuracy": agent},
            "concurrency": cfg.concurrency,
        },
        out_dir / "run_config.json",
    )
    catalog.write_json_lines(
        out_dir / "retrieval.jsonl",
        (
            {
                "query_id": r.query.query_id,
                "source": retr.name,
                "ground_truth": sorted(r.query.ground_truth),
                "candidates": list(zip(r.ids, r.scores)),  # tuples encode as arrays
            }
            for r in results
        ),
    )
    stage_records = (
        _record(r, outcome, order=order) for r in results for outcome, order in zip(r.stages, r.orders())
    )
    catalog.write_json_lines(out_dir / "stages.jsonl", stage_records)
    if cfg.audit:
        catalog.write_json_lines(out_dir / "audit.jsonl", _audit_records(results, items))
    rows = metrics.evaluate_results(results, items, cfg.cutoffs)
    with (out_dir / "per_query.jsonl").open("w", encoding="utf-8") as fh:
        metrics_rows = metrics.aggregate(_written(rows, fh), retr.name, cfg.dataset_name)
    header = {"dataset": cfg.dataset_name, "retriever": retr.name, "cutoffs": list(cfg.cutoffs)}
    _write_tables(out_dir, ("metrics", "lift"), header, {retr.name: metrics_rows})
    return out_dir


def _truth_of(record: object) -> tuple[str, frozenset[str]]:
    """A ``retrieval.jsonl`` line's query id and its ground truth."""
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    _check_schema(record, _RETRIEVAL_SCHEMA, "", required=True)
    return record["query_id"], frozenset(record["ground_truth"])


def cmd_report(run_dirs: list[str | Path], out_dir: str | Path) -> Path:
    if out_dir == "":  # Path("") is the working directory
        raise ValueError("out: must be nonempty")
    if not run_dirs:
        raise ValueError("report needs at least one run directory")
    truths_of_first: dict[str, frozenset[str]] | None = None  # the first run's ground truth by query id
    datasets: set[str] = set()
    cutoffs_seen: set[tuple[int, ...]] = set()
    rows_by_retriever: dict[str, list[metrics.MetricsRow]] = {}
    for run_dir in run_dirs:
        path = Path(run_dir) / "metrics.json"
        payload = catalog.read_json(path)
        try:
            _check_schema(payload, _METRICS_SCHEMA, "", required=True)
            name, dataset, cutoffs = payload["retriever"], payload["dataset"], payload["cutoffs"]
            _check_cutoffs(cutoffs, "cutoffs")
            if len(set(cutoffs)) < len(cutoffs):
                raise ValueError(f"cutoffs: repeated values in {cutoffs}")
            rows = [metrics.MetricsRow(**row) for row in payload["rows"]]
            expected = sorted(product([name], [dataset], pipeline.STAGES, cutoffs))
            if sorted((r.retriever, r.dataset, r.stage, r.k) for r in rows) != expected:
                raise ValueError(f"rows: expected one per stage and cutoff, of {name!r} on {dataset!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        truths = dict(catalog.read_json_lines(Path(run_dir) / "retrieval.jsonl", _truth_of))
        if truths_of_first is None:
            truths_of_first = truths
        elif truths != truths_of_first:
            differing = min(
                q for q in truths.keys() | truths_of_first.keys() if truths.get(q) != truths_of_first.get(q)
            )
            raise ValueError(
                f"runs score different queries or ground truths: {run_dirs[0]} has {len(truths_of_first)}"
                f" queries and {run_dir} has {len(truths)}; they first differ at query {differing!r}"
            )
        datasets.add(dataset)
        cutoffs_seen.add(tuple(cutoffs))
        if name in rows_by_retriever:
            raise ValueError(f"duplicate retriever name {name!r} across runs")
        rows_by_retriever[name] = rows

    if len(datasets) > 1:
        raise ValueError(f"runs cover different datasets: {sorted(datasets)}")
    if len(cutoffs_seen) > 1:
        raise ValueError(f"runs use different cutoffs: {sorted(cutoffs_seen)}")
    out = Path(out_dir)
    header = {
        "dataset": datasets.pop(),
        "retrievers": sorted(rows_by_retriever),
        "cutoffs": list(cutoffs_seen.pop()),
    }
    _write_tables(out, ("report", "lift_report"), header, rows_by_retriever)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complerank",
        description="Two-stage LLM reranking for complementary product recommendation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each flag's dest, other than --out, is the SynthConfig field it sets; an
    # absent flag leaves the field's own default.
    p_synth = sub.add_parser(
        "synth", help="generate a synthetic dataset", argument_default=argparse.SUPPRESS
    )
    p_synth.add_argument("--items", dest="n_items", type=int, required=True, help="number of items")
    p_synth.add_argument("--genres", dest="n_genres", type=int)
    p_synth.add_argument("--edges-per-item", type=float)
    p_synth.add_argument("--cross-ratio", dest="cross_genre_edge_ratio", type=float)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out", default=".", help="output directory")

    p_run = sub.add_parser("run", help="run retrieval + reranking + evaluation")
    p_run.add_argument("--config", required=True, help="JSON run config (see README)")
    p_run.add_argument("--out", help="output directory, in place of the config's 'out'")

    p_report = sub.add_parser("report", help="merge runs into combined metric and lift tables")
    p_report.add_argument("run_dirs", nargs="+", help="run output directories")
    p_report.add_argument("--out", required=True, help="report output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            config = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
            cmd_synth(synth.SynthConfig(**config), args.out)
        elif args.command == "run":
            out_dir = cmd_run(RunConfig.parse(catalog.read_json(args.config), args.out))
            print(out_dir)
        else:
            out_dir = cmd_report(args.run_dirs, args.out)
            print(out_dir)
    except (ValueError, OSError) as exc:
        # Bad input of every kind is a ValueError; rerank_stage catches TransportError.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: one line, not a traceback, and the shell's exit code for SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())

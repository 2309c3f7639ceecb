import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import weakref
from array import array
from pathlib import Path

import pytest

from complerank import agents, catalog, cli, pipeline, retriever
from complerank.agents import AgentKind, mock_agent, render_prompt
from complerank.catalog import Item, QueryInstance, load_catalog, split_holdout
from complerank.cli import RunConfig, main
from complerank.pipeline import PipelineConfig, run_all
from complerank.retriever import HeuristicRetriever
from complerank.synth import SynthConfig, generate
from test_pipeline import per_stage

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def src_pythonpath():
    """``PYTHONPATH`` for a subprocess that imports ``complerank`` from this checkout."""
    return os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))


def read_csv(path):
    with Path(path).open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def base_config(tmp_path, out_name, **overrides):
    config = {
        "dataset": {
            "synth": {"n_items": 60, "n_genres": 3, "edges_per_item": 3.0, "seed": 5},
            "name": "synthtest",
        },
        "split": {"holdout_fraction": 0.2, "seed": 7},
        "retriever": {"kind": "heuristic"},
        "pipeline": {"n_div": 10, "n_acc": 5, "cutoffs": [1, 3, 5]},
        "agents": {"mock": "identity"},
        "out": str(tmp_path / out_name),
    }
    config.update(overrides)
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, Path(config["out"])


# A hand-built catalog for the heuristic retriever, with what synth never
# makes: three-level, two-level, one-level and empty category paths, missing
# prices, zero prices (float and integer), an integer price, equal prices
# across categories, and an edge given in both directions.
HEURISTIC_ITEMS = [
    {"id": "h01", "title": "espresso machine steel", "categories": ["home", "kitchen", "coffee"], "price": 420.0},
    {"id": "h02", "title": "coffee grinder burr", "categories": ["home", "kitchen", "coffee"], "price": 95.0},
    {"id": "h03", "title": "milk frothing pitcher", "categories": ["home", "kitchen", "coffee"], "price": 0.0},
    {"id": "h04", "title": "chef knife forged", "categories": ["home", "kitchen", "knives"], "price": 95.0},
    {"id": "h05", "title": "knife sharpening stone", "categories": ["home", "kitchen"]},
    {"id": "h06", "title": "bamboo cutting board", "categories": ["home", "kitchen", "knives"], "price": 35.5},
    {"id": "h07", "title": "road bike helmet", "categories": ["sports", "cycling", "safety"], "price": 60},
    {"id": "h08", "title": "bike floor pump", "categories": ["sports", "cycling"], "price": 35.5},
    {"id": "h09", "title": "water bottle cage", "categories": ["sports"], "price": 9.99},
    {"id": "h10", "title": "gift card", "categories": [], "price": 25.0},
    {"id": "h11", "title": "mystery box", "categories": []},
    {"id": "h12", "title": "wrapping paper roll", "categories": ["home"], "price": 0},
]
HEURISTIC_EDGES = [
    ["h01", "h02"], ["h01", "h03"], ["h02", "h03"], ["h04", "h05"], ["h04", "h06"], ["h05", "h06"],
    ["h01", "h04"], ["h07", "h08"], ["h07", "h09"], ["h08", "h09"], ["h10", "h12"], ["h11", "h10"],
    ["h09", "h11"], ["h03", "h12"], ["h02", "h01"],
]


def write_catalog_files(tmp_path, items, edges, stem):
    """Write an items file and an edges file; return them as a ``dataset`` config section."""
    items_path, edges_path = tmp_path / f"{stem}_items.jsonl", tmp_path / f"{stem}_edges.jsonl"
    items_path.write_text("".join(json.dumps(record) + "\n" for record in items), encoding="utf-8")
    edges_path.write_text("".join(json.dumps(pair) + "\n" for pair in edges), encoding="utf-8")
    return {"items": str(items_path), "edges": str(edges_path), "name": stem}


def heuristic_config(tmp_path, out_name, items=HEURISTIC_ITEMS):
    """A heuristic ``shuffle:3`` audit config on the hand-built catalog."""
    return base_config(
        tmp_path,
        out_name,
        dataset=write_catalog_files(tmp_path, items, HEURISTIC_EDGES, "handbuilt"),
        split={"holdout_fraction": 0.5, "seed": 3},
        retriever={"kind": "heuristic"},
        pipeline={"n_div": 8, "n_acc": 4, "cutoffs": [1, 3]},
        agents={"mock": "shuffle:3"},
        audit=True,
    )


# A hand-made catalog whose ids include integer-like strings, so that a scores
# file can name "7" as the JSON integer 7.
PRECOMPUTED_ITEMS = [
    {"id": "1", "title": "camera body pro", "categories": ["photo", "cameras"], "price": 500.0},
    {"id": "2", "title": "camera lens zoom", "categories": ["photo", "lenses"], "price": 250.0},
    {"id": "7", "title": "camera strap soft", "categories": ["photo"], "price": 25.0},
    {"id": "10", "title": "tripod travel light", "categories": ["photo", "support"]},
    {"id": "a1", "title": "stand mixer large", "categories": ["kitchen"], "price": 300.0},
    {"id": "a2", "title": "mixing bowl steel", "categories": ["kitchen", "tools"], "price": 0.0},
    {"id": "b1", "title": "bread knife sharp", "categories": [], "price": 20.0},
    {"id": "b2", "title": "cutting board oak", "categories": ["kitchen", "tools"], "price": 35.0},
    {"id": "c1", "title": "guitar strings set", "categories": ["music"], "price": 9.5},
    {"id": "c2", "title": "guitar capo", "categories": ["music"], "price": 12.0},
]
PRECOMPUTED_EDGES = [
    ["1", "2"], ["1", "7"], ["2", "a1"], ["7", "10"], ["10", "a2"], ["a1", "a2"],
    ["a2", "b1"], ["b1", "b2"], ["b2", "c1"], ["c1", "c2"], ["c2", "1"], ["a1", "b2"],
]
# One line per catalog item, each hand-written: a repeated id ("a1" on the
# line of "2"), the query's own id, tied scores, 0.0 next to -0.0, integer ids
# for catalog ids ("10", "7" and the query id 10) and lines out of score order.
PRECOMPUTED_SCORES = """\
{"query_id": "1", "candidates": [["2", 0.1], ["7", 0.4], [10, 0.9], ["a1", 0.4], ["1", 5.0], ["b1", 0.2], ["c2", 0.05]]}
{"query_id": "2", "candidates": [["a1", 0.3], ["a1", 0.8], ["c1", 0.0], ["b2", -0.0], ["1", 0.5], [7, 0.5], ["2", 0.7]]}
{"query_id": "7", "candidates": [["10", -0.0], ["a2", 0.0], ["b1", 0.0], ["1", 1.5], ["7", 2.0], ["c1", -0.5]]}
{"query_id": 10, "candidates": [["a2", 0.25], ["7", 0.75], ["c2", 0.75], ["b2", 0.5], ["1", 0.25], ["a1", 1]]}
{"query_id": "a1", "candidates": [["a2", 3.0], ["b2", 2.0], ["2", 2.0], ["b2", 2.5], ["c1", 1.0], ["a1", 9.0]]}
{"query_id": "a2", "candidates": [["b1", -1.0], ["10", -2.0], ["a1", -0.5], ["b2", -0.5], ["c2", -0.0]]}
{"query_id": "b1", "candidates": [["b2", 0.1], ["a2", 0.2], ["c1", 0.3], ["c2", 0.4], [1, 0.5], [2, 0.6]]}
{"query_id": "b2", "candidates": [["c1", 0.9], ["b1", 0.9], ["a1", 0.9], ["b2", 0.9], ["10", 0.9], ["7", 0.8]]}
{"query_id": "c1", "candidates": [["c2", 0.0], ["b2", -0.0], ["1", 0.0], ["2", -0.0], ["c1", 0.0], ["a2", 1e-9]]}
{"query_id": "c2", "candidates": [["c1", 0.5], ["1", 0.6], ["c1", 0.7], ["c1", 0.4], ["a1", 0.1], ["7", 0.2]]}
"""


def precomputed_config(tmp_path, scores_text=PRECOMPUTED_SCORES):
    """Write the hand-made catalog and scores file, and a precomputed ``shuffle:3`` audit config."""
    scores = tmp_path / "scores.jsonl"
    scores.write_text(scores_text, encoding="utf-8")
    return base_config(
        tmp_path,
        "precomputed",
        dataset=write_catalog_files(tmp_path, PRECOMPUTED_ITEMS, PRECOMPUTED_EDGES, "handmade"),
        split={"holdout_fraction": 0.5, "seed": 3},
        retriever={"kind": "precomputed", "path": str(scores)},
        pipeline={"n_div": 5, "n_acc": 3, "cutoffs": [1, 3]},
        agents={"mock": "shuffle:3"},
        audit=True,
    )


def output_digests(out_dir):
    """The sha256 of every file under ``out_dir``, by relative path."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out_dir.rglob("*")
        if path.is_file()
    }


def golden_digests(name):
    """A committed ``sha256sum``-style digest file, by relative path."""
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    return {name: digest for digest, name in (line.split("  ") for line in golden.splitlines())}


def starting_interpreter(python):
    """The path of ``python`` (``"python3.12"``) on PATH and an environment it starts in, or None.

    A pyenv shim of a version that pyenv does not select exits at once; PYENV_VERSION
    set to the newest installed release of that minor version selects it.
    """
    exe, pyenv = shutil.which(python), shutil.which("pyenv")
    if exe is None:
        return None
    envs = [dict(os.environ)]
    if pyenv is not None:
        minor = re.escape(python.removeprefix("python"))
        listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True, timeout=60)
        releases = [version for version in listed.stdout.split() if re.fullmatch(rf"{minor}\.\d+", version)]
        if releases:
            newest = max(releases, key=lambda version: int(version.rpartition(".")[2]))
            envs.append({**os.environ, "PYENV_VERSION": newest})
    for env in envs:
        if subprocess.run([exe, "-c", ""], env=env, capture_output=True, timeout=60).returncode == 0:
            return exe, env
    return None


class TestSynthCommand:
    def test_writes_three_files_deterministically(self, tmp_path):
        args = ["synth", "--items", "50", "--genres", "5", "--seed", "1"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("items.jsonl", "edges.jsonl", "genres.json"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second

    def test_flags_are_the_config_fields_and_out(self):
        """Each flag but ``--out`` sets the ``SynthConfig`` field of its dest: one for no field would
        end ``synth`` in a TypeError, which ``main`` does not catch."""
        parser = cli._build_parser()
        subparsers = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
        dests = {action.dest for action in subparsers.choices["synth"]._actions} - {"help"}
        assert dests == {field.name for field in dataclasses.fields(SynthConfig)} | {"out"}

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        code = main(
            ["synth", "--items", "3", "--genres", "5", "--out", str(tmp_path / "bad")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_identity_run_outputs(self, tmp_path):
        config_path, out_dir = base_config(tmp_path, "run1")
        assert main(["run", "--config", str(config_path)]) == 0
        for name in (
            "run_config.json",
            "retrieval.jsonl",
            "stages.jsonl",
            "per_query.jsonl",
            "metrics.csv",
            "metrics.json",
            "lift.csv",
            "lift.json",
        ):
            assert (out_dir / name).exists()
        lift_rows = read_csv(out_dir / "lift.csv")
        defined = [row for row in lift_rows if row["mean_lift_pct"] != ""]
        assert defined, "expected at least some defined lift rows"
        assert all(float(row["mean_lift_pct"]) == 0.0 for row in defined)

    def test_byte_identical_reruns(self, tmp_path):
        config_a, out_a = base_config(tmp_path, "detA")
        config_b, out_b = base_config(tmp_path, "detB")
        assert main(["run", "--config", str(config_a)]) == 0
        assert main(["run", "--config", str(config_b)]) == 0
        for name in ("metrics.csv", "lift.csv", "stages.jsonl", "per_query.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_mock_run_matches_golden_digests(self, tmp_path):
        """Every output file of a fixed shuffle-mock audit run keeps its committed sha256."""
        config_path, out_dir = base_config(tmp_path, "golden", agents={"mock": "shuffle:3"}, audit=True)
        assert main(["run", "--config", str(config_path)]) == 0
        assert output_digests(out_dir) == golden_digests("mock_run_shuffle3.sha256")

    def test_precomputed_mock_run_matches_golden_digests(self, tmp_path):
        """A hand-made catalog and scores file, run with ``shuffle:3`` and audit on."""
        config_path, out_dir = precomputed_config(tmp_path)
        assert main(["run", "--config", str(config_path)]) == 0
        assert output_digests(out_dir) == golden_digests("mock_run_precomputed.sha256")

    def test_heuristic_mock_run_matches_golden_digests(self, tmp_path):
        """The hand-built catalog, run with ``shuffle:3`` and audit on."""
        config_path, out_dir = heuristic_config(tmp_path, "heuristic")
        assert main(["run", "--config", str(config_path)]) == 0
        assert output_digests(out_dir) == golden_digests("mock_run_heuristic_handmade.sha256")

    @pytest.mark.parametrize("python", ["python3.12", "python3.13"])
    def test_goldens_hold_under_other_pythons(self, tmp_path, python):
        """Outputs, a report over two runs included, do not depend on the CPython version; ``complerank``
        needs no package to run."""
        interpreter = starting_interpreter(python)
        if interpreter is None:
            pytest.skip(f"{python} is not on PATH or does not start, directly or through pyenv")
        exe, env = interpreter
        runs = {
            "mock_run_shuffle3.sha256": base_config(tmp_path, "golden", agents={"mock": "shuffle:3"}, audit=True),
            "mock_run_precomputed.sha256": precomputed_config(tmp_path),
            "mock_run_heuristic_handmade.sha256": heuristic_config(tmp_path, "heuristic"),
        }
        identity_config, identity_out = base_config(
            tmp_path, "identity", retriever={"kind": "heuristic", "name": "identity"}
        )
        report_out = tmp_path / "report"
        commands = [
            *(["run", "--config", str(config_path)] for config_path, _ in runs.values()),
            ["run", "--config", str(identity_config)],
            ["report", str(runs["mock_run_shuffle3.sha256"][1]), str(identity_out), "--out", str(report_out)],
        ]
        for command in commands:
            result = subprocess.run(
                [exe, "-m", "complerank.cli", *command],
                env={**env, "PYTHONPATH": src_pythonpath()},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
        for golden, (_, out_dir) in runs.items():
            assert output_digests(out_dir) == golden_digests(golden)
        # The lift's standard error over two runs, rounded the same on every version.
        assert output_digests(report_out) == golden_digests("report_two_runs.sha256")

    def test_prices_whose_ratio_leaves_the_float_range(self, tmp_path):
        """1e-300 over 1e300 underflows to 0; the price term still scores, finite, without a crash."""
        prices = {"h01": 1e300, "h02": 1e-300, "h04": 1e-300}
        items = [
            {**record, "price": prices[record["id"]]} if record["id"] in prices else record
            for record in HEURISTIC_ITEMS
        ]
        config_path, out_dir = heuristic_config(tmp_path, "extreme", items=items)
        assert main(["run", "--config", str(config_path)]) == 0
        for line in (out_dir / "retrieval.jsonl").read_text(encoding="utf-8").splitlines():
            assert all(math.isfinite(score) for _, score in json.loads(line)["candidates"])

    def test_mock_run_never_imports_http_stack(self, tmp_path):
        """The HTTP client is loaded on the first HTTP request, so a mock run never imports it."""
        config_path, _ = base_config(tmp_path, "lazy")
        script = (
            "import sys\n"
            "import complerank.cli\n"
            "assert complerank.cli.main(['run', '--config', sys.argv[1]]) == 0\n"
            "print(sorted({'requests', 'urllib.request', 'http.client', 'ssl'} & sys.modules.keys()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(config_path)],
            env={**os.environ, "PYTHONPATH": src_pythonpath()},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_modules_only_some_runs_need_load_on_first_use(self, tmp_path):
        """``statistics`` with its ``fractions`` (a lift over two or more runs) and ``concurrent.futures``
        (concurrency above 1) stay unloaded in a plain mock run; the runs that load them still write their
        golden outputs."""
        golden_config, golden_out = base_config(tmp_path, "golden", agents={"mock": "shuffle:3"}, audit=True)
        # Its own "out" gives way to --out.
        concurrent_config, replaced_out = base_config(
            tmp_path, "replaced", agents={"mock": "shuffle:3"}, audit=True, concurrency=3
        )
        identity_config, identity_out = base_config(
            tmp_path, "identity", retriever={"kind": "heuristic", "name": "identity"}
        )
        concurrent_out, report_out = tmp_path / "concurrent", tmp_path / "report"
        script = (
            "import json, sys\n"
            "import complerank.cli\n"
            "golden, concurrent, identity, golden_out, identity_out, concurrent_out, report_out = sys.argv[1:]\n"
            "lazy = {'statistics', 'fractions', 'concurrent.futures', 'ssl', 'http.client', 'urllib.request'}\n"
            "assert complerank.cli.main(['run', '--config', golden]) == 0\n"
            "seen = {'after_mock_run': sorted(lazy & sys.modules.keys())}\n"
            "assert complerank.cli.main(['run', '--config', concurrent, '--out', concurrent_out]) == 0\n"
            "assert complerank.cli.main(['run', '--config', identity]) == 0\n"
            "assert complerank.cli.main(['report', golden_out, identity_out, '--out', report_out]) == 0\n"
            "seen['at_exit'] = sorted(lazy & sys.modules.keys())\n"
            "print(json.dumps(seen))\n"
        )
        args = [golden_config, concurrent_config, identity_config, golden_out, identity_out, concurrent_out, report_out]
        result = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            env={**os.environ, "PYTHONPATH": src_pythonpath()},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.splitlines()[-1])
        assert seen == {"after_mock_run": [], "at_exit": ["concurrent.futures", "fractions", "statistics"]}
        golden = golden_digests("mock_run_shuffle3.sha256")
        assert output_digests(golden_out) == golden
        # The concurrent run differs only in the concurrency its run_config.json records.
        digests = output_digests(concurrent_out)
        run_config = json.loads((concurrent_out / "run_config.json").read_text(encoding="utf-8"))
        assert run_config["concurrency"] == 3
        run_config["concurrency"] = 1
        rewritten = (json.dumps(run_config, indent=2, sort_keys=True) + "\n").encode("utf-8")
        digests["run_config.json"] = hashlib.sha256(rewritten).hexdigest()
        assert digests == golden
        assert not replaced_out.exists()
        assert output_digests(report_out) == golden_digests("report_two_runs.sha256")
        lift = json.loads((report_out / "lift_report.json").read_text(encoding="utf-8"))["rows"]
        assert any(row["n_retrievers"] == 2 and row["std_err"] > 0 for row in lift)

    def test_interrupt_exits_130_without_traceback(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "run_all", interrupted)
        config_path, _ = base_config(tmp_path, "interrupted")
        try:
            code = main(["run", "--config", str(config_path)])
        except KeyboardInterrupt:  # escaping, it would end the whole test session
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130
        captured = capsys.readouterr()
        assert captured.err == "error: interrupted\n"
        assert captured.out == ""

    def test_benchmark_tracer_hooks_still_fire(self, tmp_path):
        """``perfbench/layers.py`` patches functions by name; every hook must still record spans.

        The tracer patches modules for the whole process, so the runs go in a subprocess.
        """
        heuristic, _ = heuristic_config(tmp_path, "traced_heuristic")
        precomputed, _ = precomputed_config(tmp_path)
        script = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import layers\n"
            "from complerank import cli\n"
            "tracer = layers.Tracer()\n"
            "tracer.install()\n"
            "seen = {}\n"
            "for label, config in (('heuristic', sys.argv[2]), ('precomputed', sys.argv[3])):\n"
            "    assert cli.main(['run', '--config', config]) == 0\n"
            "    seen[label] = sorted({span[2] for span in tracer.spans})\n"
            "    seen[label + '_pairs_scored'] = next(tracer.pairs_scored)\n"
            "    tracer.spans.clear()\n"
            "print(json.dumps(seen))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(REPO_ROOT / "perfbench"), str(heuristic), str(precomputed)],
            env={**os.environ, "PYTHONPATH": src_pythonpath()},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.splitlines()[-1])
        assert seen["heuristic"] == sorted(
            f"{layer}.{name}"
            for layer, names in {
                "catalog": ("load", "split", "neighbors"),
                "retriever": ("build", "retrieve"),
                "agents": ("render", "parse", "transport"),
                "pipeline": ("run_all", "run_pipeline"),
                "metrics": ("evaluate", "aggregate", "lift", "serialize", "write"),
                "cli": ("cmd_run",),
            }.items()
            for name in names
        )
        assert seen["heuristic_pairs_scored"] > 0
        assert {"retriever.build", "retriever.retrieve"} <= set(seen["precomputed"])

    def test_stage_records_reparse_with_invariants(self, tmp_path):
        config_path, out_dir = base_config(tmp_path, "run2")
        assert main(["run", "--config", str(config_path)]) == 0
        queries = {}
        with (out_dir / "retrieval.jsonl").open(encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                assert record["source"] == "heuristic"  # the retriever's name
                queries[record["query_id"]] = len(record["candidates"])
        stage_lengths = {}
        with (out_dir / "stages.jsonl").open(encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                order = record["order"]
                assert len(set(order)) == len(order)
                assert record["query_id"] not in order
                stage_lengths[(record["query_id"], record["stage"])] = len(order)
        for query_id, pool in queries.items():
            assert stage_lengths[(query_id, "base")] == min(10, pool)
            assert stage_lengths[(query_id, "diversity")] == min(10, pool)
            assert stage_lengths[(query_id, "diversity_accuracy")] == min(5, pool)

    @pytest.mark.parametrize("kind", ["mock", "endpoint"])
    def test_run_config_names_the_one_agent_under_both_stages(self, tmp_path, chat_server, kind):
        chat_server.set_script([(200, chat_server.completion("[1, 0]"))])
        agent = {"mock": "oracle"} if kind == "mock" else {"endpoint": chat_server.url, "model": "test-model"}
        config_path, out_dir = base_config(tmp_path, kind, agents=agent)
        assert main(["run", "--config", str(config_path)]) == 0
        run_config = json.loads((out_dir / "run_config.json").read_text(encoding="utf-8"))
        assert run_config["agents"] == {"diversity": agent, "accuracy": agent}
        assert bool(chat_server.requests) == (kind == "endpoint")

    def test_preset_flag(self, tmp_path):
        # fig1 needs a pool >= cutoffs; the 60-item synth graph suffices
        config_path, out_dir = base_config(tmp_path, "run4", pipeline={"preset": "fig1"})
        assert main(["run", "--config", str(config_path)]) == 0
        run_config = json.loads((out_dir / "run_config.json").read_text(encoding="utf-8"))
        assert (run_config["n_div"], run_config["n_acc"]) == (50, 25)

    def test_missing_scores_file_names_it(self, tmp_path, capsys):
        config_path, out_dir = base_config(
            tmp_path,
            "run5",
            retriever={"kind": "precomputed", "path": str(tmp_path / "absent.jsonl")},
        )
        assert main(["run", "--config", str(config_path)]) == 1
        assert "absent.jsonl" in capsys.readouterr().err
        assert not out_dir.exists()  # the synth dataset is not written either

    def test_unknown_mock_policy(self, tmp_path, capsys):
        config_path, _ = base_config(tmp_path, "run6", agents={"mock": "bogus"})
        assert main(["run", "--config", str(config_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_shuffle_mock_accepts_seed(self, tmp_path):
        config_path, out_dir = base_config(tmp_path, "run7", agents={"mock": "shuffle:3"})
        assert main(["run", "--config", str(config_path)]) == 0
        assert (out_dir / "metrics.csv").exists()

    def test_endpoint_run_writes_audit_log(self, tmp_path, chat_server):
        chat_server.set_script([(200, chat_server.completion("[1, 0]"))])
        config_path, out_dir = base_config(
            tmp_path,
            "run8",
            agents={"endpoint": chat_server.url, "model": "test-model"},
        )
        assert main(["run", "--config", str(config_path)]) == 0
        audit = [
            json.loads(line)
            for line in (out_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert audit
        assert all(entry["response"] == "[1, 0]" for entry in audit)
        assert all("candidate products" in entry["prompt"] for entry in audit)
        assert chat_server.requests  # the endpoint actually served the run

    def test_null_completion_falls_back_and_writes_every_file(self, tmp_path, chat_server):
        chat_server.set_script([(200, {"choices": [{"message": {"content": None}}]})])
        config_path, out_dir = base_config(
            tmp_path,
            "run10",
            agents={"endpoint": chat_server.url, "model": "test-model"},
        )
        assert main(["run", "--config", str(config_path)]) == 0
        stages = [
            json.loads(line)
            for line in (out_dir / "stages.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        reranked = [record for record in stages if record["stage"] != "base"]
        assert reranked and all(record["failed"] for record in reranked)
        for name in ("audit.jsonl", "metrics.csv", "metrics.json", "lift.csv", "per_query.jsonl"):
            assert (out_dir / name).exists()

    def test_integer_too_long_for_int_is_repaired(self, tmp_path, chat_server):
        chat_server.set_script([(200, chat_server.completion("[" + "9" * 5000 + ", 0]"))])
        config_path, out_dir = base_config(
            tmp_path, "run15", agents={"endpoint": chat_server.url, "model": "test-model"}
        )
        assert main(["run", "--config", str(config_path)]) == 0
        stages = [
            json.loads(line)
            for line in (out_dir / "stages.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        reranked = [record for record in stages if record["stage"] != "base"]
        assert reranked
        assert all("dropped_out_of_range" in record["repairs"] for record in reranked)
        for name in ("audit.jsonl", "metrics.csv", "metrics.json", "lift.csv", "per_query.jsonl"):
            assert (out_dir / name).exists()

    def test_rejected_request_keeps_prompt_in_audit(self, tmp_path, chat_server):
        chat_server.set_script([(400, {"error": "bad request"})])
        config_path, out_dir = base_config(
            tmp_path, "run14", agents={"endpoint": chat_server.url, "model": "test-model"}
        )
        assert main(["run", "--config", str(config_path)]) == 0
        audit = [
            json.loads(line)
            for line in (out_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert audit
        for entry in audit:
            assert entry["failed"] and entry["response"] is None
            assert "candidate products" in entry["prompt"]
        prompts = [request["body"]["messages"][0]["content"] for request in chat_server.requests]
        assert [entry["prompt"] for entry in audit] == prompts  # one request each: 400 is final

    def test_audit_prompts_are_the_bytes_sent(self, tmp_path, chat_server):
        """Each audited prompt, rendered again at write time, is the request's message byte for byte."""
        ok, rejected = (200, chat_server.completion("[1, 0]")), (400, {"error": "bad request"})
        # At concurrency 1 the requests go diversity, accuracy per query; a 400 is final, so one request each.
        chat_server.set_script([rejected, ok, ok, rejected, ok])
        config_path, out_dir = base_config(
            tmp_path, "audit_bytes", agents={"endpoint": chat_server.url, "model": "test-model"}, concurrency=1
        )
        assert main(["run", "--config", str(config_path)]) == 0
        audit = [json.loads(line) for line in (out_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines()]
        requests = chat_server.requests
        assert len(audit) == len(requests) > 4
        assert [entry["failed"] for entry in audit[:5]] == [True, False, False, True, False]
        for entry, request in zip(audit, requests):
            sent = request["body"]["messages"][0]["content"]
            assert entry["prompt"].encode("utf-8") == sent.encode("utf-8")
            assert json.dumps(entry["prompt"]).encode("utf-8") in request["raw"]

        # The accuracy stage after the failed diversity stage reranked the base order's first n_acc ids.
        dataset = out_dir / "dataset"
        items = load_catalog(dataset / "items.jsonl", dataset / "edges.jsonl").items
        query_id = audit[0]["query_id"]
        base = next(
            record["order"]
            for record in map(json.loads, (out_dir / "stages.jsonl").read_text(encoding="utf-8").splitlines())
            if record["query_id"] == query_id and record["stage"] == "base"
        )
        expected = render_prompt(items[query_id], [items[item_id] for item_id in base[:5]], AgentKind.ACCURACY)
        assert (audit[1]["query_id"], audit[1]["stage"]) == (query_id, "diversity_accuracy")
        assert audit[1]["prompt"] == expected

    def test_unknown_candidate_in_scores_names_line(self, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            json.dumps({"query_id": "it00000", "candidates": [["it00001", 1.0]]}) + "\n"
            + json.dumps({"query_id": "it00002", "candidates": [["nope", 1.0]]}) + "\n",
            encoding="utf-8",
        )
        config_path, _ = base_config(
            tmp_path, "run11", retriever={"kind": "precomputed", "path": str(scores)}
        )
        assert main(["run", "--config", str(config_path)]) == 1
        assert "scores.jsonl:2" in capsys.readouterr().err

    def test_cutoffs_normalized(self, tmp_path):
        config_path, out_dir = base_config(
            tmp_path, "run12", pipeline={"n_div": 10, "n_acc": 5, "cutoffs": [5, 1, 3, 3]}
        )
        assert main(["run", "--config", str(config_path)]) == 0
        for name in ("run_config.json", "metrics.json"):
            recorded = json.loads((out_dir / name).read_text(encoding="utf-8"))
            assert recorded["cutoffs"] == [1, 3, 5]
        sorted_path, sorted_dir = base_config(
            tmp_path, "run13", retriever={"kind": "heuristic", "name": "other"}
        )
        assert main(["run", "--config", str(sorted_path)]) == 0
        report = tmp_path / "report12"
        assert main(["report", str(out_dir), str(sorted_dir), "--out", str(report)]) == 0

    def test_rerun_without_audit_drops_the_old_audit_log(self, tmp_path):
        config_path, out_dir = base_config(tmp_path, "rerun", agents={"mock": "shuffle:1"}, audit=True)
        assert main(["run", "--config", str(config_path)]) == 0
        assert (out_dir / "audit.jsonl").read_text(encoding="utf-8")
        rerun_path, _ = base_config(
            tmp_path, "rerun_no_audit", agents={"mock": "identity"}, audit=False, out=str(out_dir)
        )
        assert main(["run", "--config", str(rerun_path)]) == 0
        assert not (out_dir / "audit.jsonl").exists()
        assert (out_dir / "dataset" / "items.jsonl").exists()

    def test_mock_and_endpoint_together_rejected(self, tmp_path, capsys):
        config_path, _ = base_config(
            tmp_path, "run9", agents={"mock": "identity", "endpoint": "http://x"}
        )
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == "error: agents: sets both 'mock' and 'endpoint'\n"

    def test_unsendable_api_key_fails_before_any_input_and_stays_secret(self, tmp_path, capsys, monkeypatch):
        """A key no HTTP header can carry fails at config time, naming its variable, not its value."""
        monkeypatch.setenv("OPENAI_API_KEY", "sk-secret123\r")
        config_path, out_dir = base_config(
            tmp_path, "badkey", agents={"endpoint": "http://127.0.0.1:9", "model": "m", "max_retries": 0}
        )
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "$OPENAI_API_KEY" in err
        assert "secret" not in err
        assert not out_dir.exists()


LONG_INT = "1" * 5001  # more digits than ``int`` reads from a string


def long_int_concurrency(tmp_path):
    """The base config's text with a 5 001-digit ``concurrency`` on its second line."""
    config_path, _ = base_config(tmp_path, "bad")
    return config_path.read_text(encoding="utf-8")[:-1] + ',\n "concurrency": ' + LONG_INT + "}"


def long_negative_holdout(tmp_path):
    """The base config's text with ``split.holdout_fraction`` a negative 5 001-digit integer."""
    config_path, _ = base_config(tmp_path, "bad")
    text = config_path.read_text(encoding="utf-8")
    return text.replace('"holdout_fraction": 0.2', '"holdout_fraction": -' + LONG_INT)


def long_int_price(tmp_path):
    """An items file whose second line has a 5 001-digit ``price``."""
    items, edges = tmp_path / "long_items.jsonl", tmp_path / "long_edges.jsonl"
    items.write_text(
        '{"id": "a", "title": "alpha"}\n{"id": "b", "title": "beta", "price": ' + LONG_INT + "}\n",
        encoding="utf-8",
    )
    edges.write_text('["a", "b"]\n', encoding="utf-8")
    return {"dataset": {"items": str(items), "edges": str(edges)}}


def overrides_of(config_path):
    """A written config as ``base_config`` overrides, its ``out`` dropped for the caller's own."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    del config["out"]
    return config


def bad_price(literal):
    """The hand-built heuristic config, the price on line 5 of its items file written as ``literal``."""

    def overrides(tmp_path):
        config_path, _ = heuristic_config(tmp_path, "price")
        items = Path(overrides_of(config_path)["dataset"]["items"])
        lines = items.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = lines[4][: lines[4].rindex("}")] + ', "price": ' + literal + "}\n"
        items.write_text("".join(lines), encoding="utf-8")
        return overrides_of(config_path)

    return overrides


def scores_without(*query_ids, extra=""):
    """The hand-made precomputed config, its scores file stripped of the lines of ``query_ids``."""

    def overrides(tmp_path):
        lines = [
            line for line in PRECOMPUTED_SCORES.splitlines(keepends=True)
            if str(json.loads(line)["query_id"]) not in query_ids
        ]
        config_path, _ = precomputed_config(tmp_path, "".join(lines) + extra)
        return overrides_of(config_path)

    return overrides


# One malformed config per row: its overrides of base_config and a key the
# error message must name.  A string of overrides replaces the whole config
# file; a function of tmp_path gives the overrides or the string.
MALFORMED = [
    pytest.param({"audit": "no"}, "audit", id="audit-not-bool"),
    pytest.param({"pipline": {"n_div": 10}}, "pipline", id="unknown-key"),
    pytest.param({"pipeline": {"preset": "fig1", "n_div": 10}}, "n_div", id="preset-with-n_div"),
    pytest.param(
        {"pipeline": {"n_div": 150, "n_acc": 5, "cutoffs": [1, 3, 5]}},
        "n_div",
        id="n_div-over-limit",
    ),
    pytest.param({"concurrency": 0}, "concurrency", id="concurrency-zero"),
    pytest.param(
        {"retriever": {"kind": "heuristic", "weights": {"category": 1.0, "price": 1.0}}},
        "retriever.weights: unknown key",
        id="weights-under-heuristic",
    ),
    pytest.param(
        {"retriever": {"kind": "heuristic", "exclude_neighbors": True}},
        "retriever.exclude_neighbors: unknown key",
        id="exclude_neighbors-under-heuristic",
    ),
    # A valid config but for "out" given twice; a plain decoder would run into the second.
    pytest.param(
        lambda tmp_path: json.dumps(overrides_of(base_config(tmp_path, "bad")[0]))[:-1]
        + f', "out": {json.dumps(str(tmp_path / "bad"))}, "out": {json.dumps(str(tmp_path / "other"))}}}',
        'config_bad.json: repeated key "out"',
        id="out-repeated",
    ),
    pytest.param(
        {"dataset": {"synth": {"n_items": 60}, "name": ""}}, "dataset.name: must be nonempty", id="dataset-name-empty"
    ),
    # An empty "out" would name the working directory.
    pytest.param(
        lambda tmp_path: json.dumps({**overrides_of(base_config(tmp_path, "bad")[0]), "out": ""}),
        "out: must be nonempty",
        id="out-empty",
    ),
    pytest.param(
        {"retriever": {"kind": "heuristic", "name": ""}}, "retriever.name: must be nonempty", id="retriever-name-empty"
    ),
    pytest.param(
        {"agents": {"endpoint": "http://127.0.0.1:9", "model": "m", "temperature": float("nan")}},
        "agents.temperature",
        id="temperature-nan",
    ),
    pytest.param(
        {"dataset": {"synth": {"n_items": 60, "edges_per_item": float("inf")}}},
        "dataset.synth.edges_per_item",
        id="edges_per_item-infinity",
    ),
    pytest.param(
        {"dataset": {"synth": {"n_items": 60, "edges_per_item": 1e308}}},
        "edges_per_item 1e+308 asks for inf edges",
        id="edges_per_item-1e308",
    ),
    pytest.param(
        {"agents": {"mock": "identity", "timeout": 10**400}},
        "agents.timeout",
        id="timeout-past-float-range",
    ),
    pytest.param(
        {"agents": {"endpoint": "http://127.0.0.1:9", "model": "m", "temperature": -0.5}},
        "agents: temperature must be nonnegative",
        id="temperature-negative",
    ),
    pytest.param(
        {"agents": {"endpoint": "http://127.0.0.1:9", "model": "m", "temperature": "hot"}},
        "temperature",
        id="temperature-not-number",
    ),
    # http.client refuses a URL with a space or a control character and cannot encode one that is not
    # ASCII; after a "?" or "#", the "/chat/completions" a request appends would be query or fragment.
    *(
        pytest.param(
            {"agents": {"endpoint": url, "model": "m"}},
            "agents: endpoint must be an http:// or https:// URL with a host, in printable ASCII"
            f" without spaces, '?' or '#', got {json.dumps(url)}",
            id=f"endpoint-{name}",
        )
        for name, url in [
            ("no-scheme", "localhost:8000/v1"), ("ftp", "ftp://h/v1"), ("no-host", "http:///v1"),
            ("space", "http://127.0.0.1:9/v 1"), ("newline", "http://127.0.0.1:9/v\n1"),
            ("non-ascii", "http://127.0.0.1:9/v\u00e91"), ("query", "http://127.0.0.1:9/v1?key=abc"),
            ("bad-port", "http://127.0.0.1:80a/v1"),
        ]
    ),
    # Both reranked stages take the one agent section.
    pytest.param(
        {"agents": {"mock": "identity", "diversity": {"mock": "reverse"}}},
        "agents.diversity: unknown key",
        id="stage-section",
    ),
    pytest.param({"agents": {"mock": "shuffle:x"}}, "mock", id="shuffle-seed-not-int"),
    pytest.param(
        {"agents": {"mock": "identity", "timeout": -1, "max_retries": -3, "temperature": -2}},
        "agents.max_retries: only an endpoint agent takes this key",
        id="endpoint-keys-under-mock",
    ),
    pytest.param(
        {"agents": {"model": "m", "mock": "reverse"}},
        "agents.model: only an endpoint agent takes this key",
        id="shared-model-under-two-mocks",
    ),
    pytest.param(
        {"agents": {"mock": "identity", "timeout": 5}},
        "agents.timeout: only an endpoint agent takes this key",
        id="stage-timeout-under-mock",
    ),
    pytest.param(
        '{"out": "x",\n  "dataset": }\n', "config_bad.json:2:14: Expecting value", id="invalid-json"
    ),
    pytest.param(
        "[" * 100_000, "config_bad.json: invalid JSON (maximum recursion depth exceeded", id="nested-too-deep"
    ),
    pytest.param(
        {"retriever": {"kind": "heuristic", "path": "scores.jsonl"}},
        "retriever.path",
        id="path-under-heuristic",
    ),
    pytest.param(
        {"retriever": {"kind": "precomputed", "path": "s.jsonl", "weights": {"price": 0.5}}},
        "retriever.weights",
        id="weights-under-precomputed",
    ),
    pytest.param(
        {"retriever": {"kind": "precomputed", "path": "s.jsonl", "exclude_neighbors": False}},
        "retriever.exclude_neighbors",
        id="exclude_neighbors-under-precomputed",
    ),
    pytest.param(
        long_int_concurrency, "concurrency: expected int, got Infinity", id="concurrency-5001-digits"
    ),
    pytest.param(
        long_negative_holdout,
        "split.holdout_fraction: expected a finite number, got -Infinity",
        id="holdout_fraction-minus-5001-digits",
    ),
    pytest.param(long_int_price, "long_items.jsonl:2: invalid JSON", id="items-price-5001-digits"),
    *(
        pytest.param(
            bad_price(literal), "handbuilt_items.jsonl:5: price must be a finite number", id=f"price-{name}"
        )
        for name, literal in [
            ("nan", "NaN"), ("infinity", "Infinity"), ("minus-infinity", "-Infinity"),
            ("1e400", "1e400"), ("400-digits", "1" * 400), ("bool", "true"),
        ]
    ),
    pytest.param(
        {"pipeline": {"n_div": 10, "n_acc": 5, "cutoffs": [1, 10]}},
        "pipeline.cutoffs: largest cutoff (10) must not exceed n_acc (5)",
        id="cutoffs-over-n_acc",
    ),
    pytest.param({"pipeline": {"cutoffs": []}}, "pipeline.cutoffs: must be nonempty", id="cutoffs-empty"),
    pytest.param(
        {"pipeline": {"cutoffs": [3, 0, 1]}},
        "pipeline.cutoffs: must be positive, got [3, 0, 1]",
        id="cutoffs-zero",
    ),
    pytest.param(
        scores_without("2", "b1"),
        "scores.jsonl: no candidate for 2 of 5 queries, the first '2'",
        id="scores-missing-queries",
    ),
    pytest.param(
        scores_without(
            "10", "a2", extra='{"query_id": 10, "candidates": [[10, 1.0]]}\n{"query_id": "a2", "candidates": []}\n'
        ),
        "scores.jsonl: no candidate for 2 of 5 queries, the first '10'",
        id="scores-query-only-itself",
    ),
    pytest.param(
        scores_without(extra='{"query_id": "1", "candidates": [["2", ' + "1" * 400 + "]]}\n"),
        "scores.jsonl:11: malformed scores line (int too large to convert to float)",
        id="scores-400-digit-score",
    ),
    pytest.param(
        # Read with the last value, the line would stand in for b1's.
        scores_without("b1", extra='{"query_id": "zz", "candidates": [["2", 1.0]], "query_id": "b1"}\n'),
        'scores.jsonl:10: invalid JSON (repeated key "query_id")',
        id="scores-repeated-key",
    ),
    pytest.param(
        {"agents": {"model": "m", "endpoint": "http://127.0.0.1:9", "max_retries": -1}},
        "agents: max_retries must be >= 0",
        id="stage-max_retries-negative",
    ),
    pytest.param(
        {"agents": {"model": "m", "endpoint": "http://127.0.0.1:9", "timeout": 0}},
        "agents: timeout must be positive",
        id="shared-timeout-zero",
    ),
    pytest.param(
        {"agents": {"model": "m", "endpoint": "http://127.0.0.1:9/v1", "timeout": 1e10}},
        "agents: timeout must be positive and at most",
        id="timeout-past-socket-limit",
    ),
    pytest.param({"retriever": {"kind": "foo"}}, "retriever.kind: expected one of", id="retriever-kind-unknown"),
    pytest.param({"split": 3}, "split: expected a JSON object", id="split-not-object"),
    pytest.param("[1]", "expected a JSON object at top level", id="top-level-list"),
    pytest.param(
        {"agents": {"endpoint": "http://127.0.0.1:9"}},
        "agents: needs either 'mock' or 'endpoint' and 'model'",
        id="endpoint-without-model",
    ),
    pytest.param(
        {"dataset": {"synth": {"n_genres": 3}}}, "dataset.synth.n_items: required key is missing", id="synth-no-n_items"
    ),
    *(
        pytest.param({"dataset": {"synth": synth_settings}}, f"dataset.synth: {message}", id=f"synth-{name}")
        for name, synth_settings, message in [
            ("n_items-zero", {"n_items": 0}, "n_items must be positive"),
            ("n_genres-zero", {"n_items": 5, "n_genres": 0}, "n_genres must be positive"),
            ("edges_per_item-negative", {"n_items": 60, "edges_per_item": -1.0}, "edges_per_item must be nonnegative"),
        ]
    ),
    # Title lengths and token pools are fixed (synth.TITLE_TOKENS, synth.TOKEN_POOL).
    pytest.param(
        {"dataset": {"synth": {"n_items": 60, "title_tokens_min": 0}}},
        "dataset.synth.title_tokens_min: unknown key",
        id="synth-title_tokens_min-zero",
    ),
    pytest.param(
        {"dataset": {"synth": {"n_items": 60, "token_pool_per_genre": 0}}},
        "dataset.synth.token_pool_per_genre: unknown key",
        id="synth-token_pool-zero",
    ),
    pytest.param(
        {"pipeline": {"n_div": 0, "n_acc": 5, "cutoffs": [1]}},
        "pipeline: n_div and n_acc must be positive",
        id="n_div-zero",
    ),
    pytest.param(
        '{"out": "caf\udce9"}',
        "config_bad.json: not UTF-8 ('utf-8' codec can't decode byte 0xe9 in position 12",
        id="config-not-utf8",
    ),
    pytest.param(
        {"dataset": {"synth": {"n_items": 60}, "items": "i.jsonl", "edges": "e.jsonl"}},
        "dataset: set either 'synth'",
        id="synth-and-files",
    ),
    pytest.param(
        {"split": {"holdout_fraction": 1.5}}, "split.holdout_fraction: must be in (0, 1)", id="holdout_fraction-1.5"
    ),
    pytest.param(
        {"retriever": {"kind": "precomputed"}},
        "retriever.path: the precomputed retriever needs a scores file",
        id="precomputed-without-path",
    ),
    pytest.param(
        lambda tmp_path: json.dumps(overrides_of(base_config(tmp_path, "bad")[0])),
        "out: no output directory",
        id="no-out",
    ),
    pytest.param(
        lambda tmp_path: {"dataset": write_catalog_files(tmp_path, HEURISTIC_ITEMS, [], "noedges")},
        "cannot split a graph with no edges",
        id="edges-file-empty",
    ),
]


def readme_run_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Run config\n", 1)[1].split("\n## ", 1)[0]


def test_readme_run_config_example_parses():
    """The JSON example under README "Run config" sets only keys the run config takes."""
    example = readme_run_config().split("```json\n", 1)[1].split("```", 1)[0]
    config = RunConfig.parse(json.loads(example))
    assert config.out == Path("runs/identity")


def test_readme_commands_parse():
    """Every ``complerank`` command in README's bash blocks parses, so no removed flag lingers there."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    parser = cli._build_parser()
    seen = set()
    for block in readme.split("```bash\n")[1:]:
        for line in block.split("\n```", 1)[0].replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] != ["complerank"]:
                continue
            try:
                seen.add(parser.parse_args(words[1:]).command)
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(words)}")
    assert seen == {"synth", "run", "report"}


def schema_keys(schema):
    """Every key of a config schema, those of its nested sections included."""
    keys = set(schema)
    for value in schema.values():
        if isinstance(value, dict):
            keys |= schema_keys(value)
    return keys


def test_readme_run_config_names_every_key():
    """README "Run config" names every key the run config takes, as `key`, `"key"` or `key: …`."""
    prose = "".join(readme_run_config().split("```")[::2])  # without the JSON example
    named = {span.strip('"').partition(":")[0] for span in re.findall(r"`([^`]+)`", prose)}
    assert sorted(schema_keys(cli._SCHEMA) - named) == []


@pytest.mark.parametrize("overrides, key", MALFORMED)
def test_malformed_config_fails_before_output(tmp_path, capsys, monkeypatch, overrides, key):
    monkeypatch.chdir(tmp_path)  # where a run given an empty "out" would write
    if callable(overrides):
        overrides = overrides(tmp_path)
    if isinstance(overrides, str):
        config_path, out_dir = base_config(tmp_path, "bad")
        config_path.write_bytes(overrides.encode("utf-8", "surrogateescape"))  # "\udce9" writes the byte 0xE9
    else:
        config_path, out_dir = base_config(tmp_path, "bad", **overrides)
    assert main(["run", "--config", str(config_path)]) == 1
    assert key in capsys.readouterr().err
    assert not out_dir.exists()


def test_empty_out_flag_fails_before_output(tmp_path, capsys, monkeypatch):
    """An empty ``--out`` would name the working directory, as an empty ``"out"`` would."""
    monkeypatch.chdir(tmp_path)
    config_path, _ = base_config(tmp_path, "bad")
    assert main(["run", "--config", str(config_path), "--out", ""]) == 1
    assert "out: must be nonempty" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == [config_path.name]


class TestPromptRendering:
    """A run holds no prompt text: a prompt is rendered where it is read, and only there."""

    @pytest.fixture
    def renders(self, monkeypatch):
        """The (query id, agent kind) of every prompt rendered while the test runs."""
        seen = []
        render = agents.render_prompt

        def counted(query, candidates, kind):
            seen.append((query.id, kind))
            return render(query, candidates, kind)

        monkeypatch.setattr(agents, "render_prompt", counted)
        return seen

    @pytest.mark.parametrize("audit", [False, True])
    def test_mock_run_renders_only_the_audited_prompts_once(self, tmp_path, renders, audit):
        config_path, out_dir = base_config(tmp_path, "renders", agents={"mock": "shuffle:2"}, audit=audit)
        assert main(["run", "--config", str(config_path)]) == 0
        query_ids = [
            json.loads(line)["query_id"]
            for line in (out_dir / "retrieval.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        every_prompt = [(query_id, kind) for query_id in query_ids for kind in AgentKind]
        assert sorted(renders) == (sorted(every_prompt) if audit else [])

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_run_all_holds_no_prompt(self, renders, concurrency):
        graph, _ = generate(SynthConfig(n_items=60, n_genres=3, edges_per_item=3.0, seed=8))
        train, queries = split_holdout(graph, 0.25, seed=2)
        transport = per_stage(mock_agent("shuffle:1"), mock_agent("reverse"))
        results = run_all(
            queries, HeuristicRetriever(train), train.items, PipelineConfig(n_div=10, n_acc=5), transport, concurrency
        )
        assert renders == []
        held = [
            value
            for r in results
            for o in r.stages
            for value in (getattr(o, f.name) for f in dataclasses.fields(o))
            if isinstance(value, str)
        ]
        assert held and not any("candidate products" in value for value in held)  # the stage names and answers


class TestHeldMemory:
    """A run holds only what it reads again: no instance dict per record, and no edge set it is done with."""

    def test_held_records_have_no_instance_dict(self):
        query = QueryInstance("a", frozenset({"b"}))
        outcome = pipeline.StageOutcome(pipeline.STAGE_BASE, bytes(1))
        result = pipeline.QueryResult(query, ("b",), array("d", [1.0]), (outcome, outcome, outcome))
        records = [Item("a", "alpha", ("x",), 2.0), query, outcome, result]
        assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []

    @pytest.fixture
    def graphs(self, monkeypatch):
        """Weak references to the (full, train) graphs of every split made while the test runs."""
        refs = []
        split = catalog.split_holdout

        def recorded(graph, *args):
            train, queries = split(graph, *args)
            refs.append((weakref.ref(graph), weakref.ref(train)))
            return train, queries

        monkeypatch.setattr(catalog, "split_holdout", recorded)
        return refs

    @staticmethod
    def alive_on_entry(monkeypatch, owner, name, graphs):
        """Patch ``owner.name`` to note, on each call, whether each split's (full, train) graphs are alive."""
        seen = []
        fn = getattr(owner, name)

        def noted(*args, **kwargs):
            seen.append([(full() is not None, train() is not None) for full, train in graphs])
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, noted)
        return seen

    def test_precomputed_run_frees_both_graphs_before_the_scores_parse(self, tmp_path, monkeypatch, graphs):
        seen = self.alive_on_entry(monkeypatch, retriever.PrecomputedRetriever, "__init__", graphs)
        config_path, out_dir = precomputed_config(tmp_path)
        assert main(["run", "--config", str(config_path)]) == 0
        assert seen == [[(False, False)]]
        assert output_digests(out_dir) == golden_digests("mock_run_precomputed.sha256")

    def test_precomputed_run_holds_heads_positions_and_the_retrievers_own_columns(self, tmp_path, monkeypatch):
        """The retriever holds each line's head of n_div entries and hands out those very columns; each
        result keeps them as its ids and scores, and every stage's order as bytes positions."""
        held = []
        run_all = pipeline.run_all

        def noted(queries, retr, items, config, *rest, **kwargs):
            results = run_all(queries, retr, items, config, *rest, **kwargs)
            held.append((retr, config.n_div, results))
            return results

        monkeypatch.setattr(pipeline, "run_all", noted)
        config_path, out_dir = precomputed_config(tmp_path)
        assert main(["run", "--config", str(config_path)]) == 0
        [(retr, depth, results)] = held
        lines = [json.loads(line)["candidates"] for line in PRECOMPUTED_SCORES.splitlines()]
        assert max(map(len, lines)) > depth + 1  # a line deeper than n_div even without the query's own id
        assert all(len(ids) <= depth and len(scores) <= depth for ids, scores in retr._lists.values())
        assert results
        for r in results:
            ids, scores = retr.retrieve(r.query.query_id, depth)
            again = retr.retrieve(r.query.query_id, depth)
            assert again[0] is ids and again[1] is scores
            assert r.ids is ids and r.scores is scores
            assert [type(outcome.positions) for outcome in r.stages] == [bytes] * 3
        assert output_digests(out_dir) == golden_digests("mock_run_precomputed.sha256")

    def test_heuristic_retriever_keeps_the_train_graph_alone(self, tmp_path, monkeypatch, graphs):
        seen = []
        run_all = pipeline.run_all

        def noted(queries, retr, *rest, **kwargs):
            seen.extend((full() is not None, train() is retr.graph) for full, train in graphs)
            return run_all(queries, retr, *rest, **kwargs)

        monkeypatch.setattr(pipeline, "run_all", noted)
        config_path, out_dir = heuristic_config(tmp_path, "heuristic")
        assert main(["run", "--config", str(config_path)]) == 0
        assert seen == [(False, True)]
        assert output_digests(out_dir) == golden_digests("mock_run_heuristic_handmade.sha256")

    def test_synthetic_precomputed_run_writes_the_full_dataset(self, tmp_path, monkeypatch, graphs):
        """The full graph of a synthetic catalog lives until dataset/ is written, and not into the query phase."""
        golden_config, golden_out = base_config(tmp_path, "golden", agents={"mock": "shuffle:3"}, audit=True)
        assert main(["run", "--config", str(golden_config)]) == 0
        scores = tmp_path / "scores.jsonl"
        with (golden_out / "retrieval.jsonl").open(encoding="utf-8") as retrieved:
            lines = [json.dumps({k: json.loads(line)[k] for k in ("query_id", "candidates")}) for line in retrieved]
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        seen = self.alive_on_entry(monkeypatch, pipeline, "run_all", graphs)
        config_path, out_dir = base_config(
            tmp_path, "synth_precomputed", retriever={"kind": "precomputed", "path": str(scores)}
        )
        assert main(["run", "--config", str(config_path)]) == 0
        assert seen == [[(False, False), (False, False)]]
        dataset = {name: d for name, d in output_digests(out_dir).items() if name.startswith("dataset/")}
        golden = golden_digests("mock_run_shuffle3.sha256")
        assert len(dataset) == 3 and dataset == {name: golden[name] for name in dataset}


class TestReportCommand:
    def run_one(self, tmp_path, name, retriever_name, cutoffs=(1, 3, 5), dataset="synthtest"):
        config_path, out_dir = base_config(
            tmp_path,
            name,
            dataset={"synth": {"n_items": 60, "n_genres": 3, "edges_per_item": 3.0, "seed": 5}, "name": dataset},
            retriever={"kind": "heuristic", "name": retriever_name},
            pipeline={"n_div": 10, "n_acc": 5, "cutoffs": list(cutoffs)},
        )
        assert main(["run", "--config", str(config_path)]) == 0
        return out_dir

    def test_no_run_directory_fails_before_output(self, tmp_path):
        out = tmp_path / "report0"
        with pytest.raises(ValueError, match="^report needs at least one run directory$"):
            cli.cmd_report([], out)
        assert not out.exists()

    def test_single_run_report(self, tmp_path):
        run_dir = self.run_one(tmp_path, "rep1", "heuristic")
        out = tmp_path / "report1"
        assert main(["report", str(run_dir), "--out", str(out)]) == 0
        rows = read_csv(out / "report.csv")
        assert len(rows) == 3 * 3  # 3 stages x 3 cutoffs
        lift_rows = read_csv(out / "lift_report.csv")
        assert all(row["n_retrievers"] in ("0", "1") for row in lift_rows)

    def test_cutoff_mismatch_rejected(self, tmp_path, capsys):
        run_a = self.run_one(tmp_path, "rep2a", "retA", cutoffs=(1, 3, 5))
        run_b = self.run_one(tmp_path, "rep2b", "retB", cutoffs=(1, 3))
        assert main(["report", str(run_a), str(run_b), "--out", str(tmp_path / "r2")]) == 1
        assert "cutoffs" in capsys.readouterr().err

    def test_dataset_mismatch_fails_before_output(self, tmp_path, capsys):
        run_a = self.run_one(tmp_path, "rep5a", "retA", dataset="dsA")
        run_b = self.run_one(tmp_path, "rep5b", "retB", dataset="dsB")
        out = tmp_path / "r5"
        assert main(["report", str(run_a), str(run_b), "--out", str(out)]) == 1
        assert "runs cover different datasets: ['dsA', 'dsB']" in capsys.readouterr().err
        assert not out.exists()

    def test_runs_on_different_splits_fail_before_output(self, tmp_path, capsys):
        """Two runs of one 300-item catalog with split seeds 1 and 2 score different queries."""
        run_dirs = []
        for seed in (1, 2):
            config_path, out_dir = base_config(
                tmp_path,
                f"split{seed}",
                dataset={"synth": {"n_items": 300, "seed": 5}},
                split={"seed": seed},
                retriever={"kind": "heuristic", "name": f"split{seed}"},
            )
            assert main(["run", "--config", str(config_path)]) == 0
            run_dirs.append(out_dir)
        counts = [len((d / "retrieval.jsonl").read_text(encoding="utf-8").splitlines()) for d in run_dirs]
        assert counts[0] != counts[1]
        out = tmp_path / "report_splits"
        assert main(["report", *map(str, run_dirs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (
            f"runs score different queries or ground truths: {run_dirs[0]} has {counts[0]} queries"
            f" and {run_dirs[1]} has {counts[1]}; they first differ at query " in err
        )
        assert not out.exists()

    def two_runs_one_rewritten(self, tmp_path, rewrite):
        """Two runs of one split, the second's ``retrieval.jsonl`` records passed through ``rewrite``."""
        run_a = self.run_one(tmp_path, "rep6a", "retA")
        run_b = self.run_one(tmp_path, "rep6b", "retB")
        path = run_b / "retrieval.jsonl"
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        ids = [record["query_id"] for record in records]
        assert len(ids) > 2
        path.write_text("".join(json.dumps(record) + "\n" for record in rewrite(records)), encoding="utf-8")
        return run_a, run_b, ids

    def swap_first_query(records):
        records[0]["query_id"] = "zz"  # after every synthetic id
        return records

    def grow_second_truth(records):
        records[1]["ground_truth"].append(records[1]["query_id"])
        return records

    @pytest.mark.parametrize(
        "rewrite, differing, count_change",
        [
            # As many queries as the first run, one of them another: a count alone would pass it.
            (swap_first_query, 0, 0),
            (grow_second_truth, 1, 0),
            (lambda records: records[:-1], -1, -1),
        ],
        ids=["query-swapped", "ground-truth-changed", "query-dropped"],
    )
    def test_runs_on_different_queries_fail_before_output(self, tmp_path, capsys, rewrite, differing, count_change):
        run_a, run_b, ids = self.two_runs_one_rewritten(tmp_path, rewrite)
        out = tmp_path / "report6"
        assert main(["report", str(run_a), str(run_b), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: runs score different queries or ground truths: {run_a} has {len(ids)} queries"
            f" and {run_b} has {len(ids) + count_change}; they first differ at query {ids[differing]!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ({"query_id": 3, "source": "retB", "ground_truth": [], "candidates": []}, "query_id: expected str, got 3"),
            (["it00001"], "expected a JSON object"),
        ],
        ids=["query-id-not-string", "line-not-object"],
    )
    def test_bad_retrieval_line_names_it(self, tmp_path, capsys, line, message):
        run_a, run_b, _ = self.two_runs_one_rewritten(tmp_path, lambda records: [records[0], line])
        out = tmp_path / "report7"
        assert main(["report", str(run_a), str(run_b), "--out", str(out)]) == 1
        assert f"{run_b / 'retrieval.jsonl'}:2: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_out_fails_before_any_run_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where an empty --out would write
        assert main(["report", str(tmp_path / "absent"), "--out", ""]) == 1
        assert capsys.readouterr().err == "error: out: must be nonempty\n"
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_retriever_names_rejected(self, tmp_path, capsys):
        run_a = self.run_one(tmp_path, "rep3a", "same")
        run_b = self.run_one(tmp_path, "rep3b", "same")
        assert main(["report", str(run_a), str(run_b), "--out", str(tmp_path / "r3")]) == 1
        assert "same" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda payload: {}, "top level: missing key(s) ['cutoffs', 'dataset', 'retriever', 'rows']"),
            (
                lambda payload: {**payload, "rows": [dict(row, hit=None) for row in payload["rows"]]},
                "rows[0].hit: expected float, got null",
            ),
            (
                lambda payload: {
                    **payload,
                    "rows": [{k: v for k, v in row.items() if k != "ndcg"} for row in payload["rows"]],
                },
                "rows[0]: missing key(s) ['ndcg']",
            ),
            (
                lambda payload: {**payload, "rows": payload["rows"][1:]},
                "rows: expected one per stage and cutoff",
            ),
            (
                lambda payload: {**payload, "rows": [dict(row, stage="other") for row in payload["rows"]]},
                "rows: expected one per stage and cutoff",
            ),
            (
                lambda payload: {
                    **payload,
                    "cutoffs": [*payload["cutoffs"], 1],
                    "rows": payload["rows"] + [row for row in payload["rows"] if row["k"] == 1],
                },
                "cutoffs: repeated values in [1, 3, 5, 1]",
            ),
            # Each has one row per stage and cutoff, so only the cutoffs' own rule refuses it.
            (lambda payload: {**payload, "cutoffs": [], "rows": []}, "cutoffs: must be nonempty"),
            (
                lambda payload: {
                    **payload,
                    "cutoffs": [0, *payload["cutoffs"]],
                    "rows": payload["rows"] + [dict(row, k=0) for row in payload["rows"] if row["k"] == 1],
                },
                "cutoffs: must be positive, got [0, 1, 3, 5]",
            ),
            (
                # A string is the file's whole text: here rows[0].k has 5 001 digits.
                lambda payload: json.dumps(payload).replace('"k": 1,', f'"k": {LONG_INT},', 1),
                "rows[0].k: expected int, got Infinity",
            ),
            (
                lambda payload: json.dumps(payload).replace('"retriever": ', '"dataset": "other", "retriever": ', 1),
                'repeated key "dataset"',
            ),
        ],
        ids=[
            "empty-object", "row-value-null", "row-missing-key", "row-dropped", "unknown-stage", "repeated-cutoff",
            "no-cutoffs", "cutoff-zero", "k-5001-digits", "repeated-key",
        ],
    )
    def test_bad_metrics_file_fails_before_output(self, tmp_path, capsys, corrupt, message):
        run_dir = self.run_one(tmp_path, "rep4", "heuristic")
        path = run_dir / "metrics.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        corrupted = corrupt(payload)
        path.write_text(corrupted if isinstance(corrupted, str) else json.dumps(corrupted), encoding="utf-8")
        out = tmp_path / "report4"
        assert main(["report", str(run_dir), "--out", str(out)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()

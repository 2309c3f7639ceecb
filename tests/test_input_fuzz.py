"""Malformed input fails before the first query with one ``error: `` line, or the run succeeds.

A seeded mutator changes one input of a small run per case: the items, edges or scores file, a run
config, or, for ``report``, a run's ``metrics.json`` or ``retrieval.jsonl``.  At the JSON-value level
it drops a member of an object or array, adds one, repeats an array element, or puts a junk value in
place of another; at the byte level it inserts, deletes or replaces one byte of one line.  Each case
calls ``cli.main`` in process and must either exit 0, or exit 1 with exactly one stderr line that
starts with ``error: `` and write nothing.  Any other exit code, or an exception, fails the case,
whose id names the mutation.  The seed and the cases are constants, so the suite stays deterministic.
"""

import json
import random
import runpy
import shutil
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from complerank.catalog import write_catalog
from complerank.cli import main
from complerank.synth import SynthConfig, generate

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 18

# JSON text put in place of a value.  ``json.dumps`` writes none of 1e309, NaN, an integer past the
# digits ``int`` reads or nesting past the decoder's recursion limit, so each is kept as text.
JUNK = {
    "2**70": str(2**70),
    "1e309": "1e309",
    "NaN": "NaN",
    "minus-1": "-1",
    "zero": "0",
    "half": "0.5",
    "5000-digits": "9" * 5000,
    "empty-string": '""',
    "string": '"x"',
    "empty-array": "[]",
    "empty-object": "{}",
    "null": "null",
    "true": "true",
    "nested-too-deep": "[" * 100_000 + "]" * 100_000,
}
VALUE_KINDS = ["drop", "add", "repeat", *(f"junk={name}" for name in JUNK)]
BYTE_KINDS = [f"byte-{edit}-{n}" for edit in ("insert", "delete", "replace") for n in range(2)]
# The file each target mutates, and whether it is JSON Lines.
TARGETS = {
    "items": ("items.jsonl", True),
    "edges": ("edges.jsonl", True),
    "scores": ("scores.jsonl", True),
    "precomputed-config": ("precomputed.json", False),
    "heuristic-config": ("heuristic.json", False),
    "metrics": ("metrics.json", False),
    "retrieval": ("retrieval.jsonl", True),
}
CASES = [
    pytest.param(target, kind, id=f"{target}-{kind}") for target in TARGETS for kind in VALUE_KINDS + BYTE_KINDS
]
PLACEHOLDER = "@junk@"
# The nodes each other value-level kind changes.
CONTAINERS = {
    "drop": lambda node: isinstance(node, (dict, list)) and bool(node),
    "add": lambda node: isinstance(node, (dict, list)),
    "repeat": lambda node: isinstance(node, list) and bool(node),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 100-item catalog, its scores file, a precomputed and a heuristic config, and a run of each."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    graph, _ = generate(SynthConfig(n_items=100, n_genres=4, edges_per_item=3.0, seed=SEED))
    write_catalog(graph, root / "items.jsonl", root / "edges.jsonl")
    split = {"holdout_fraction": 0.2, "seed": 7}
    argv = [
        "make_mock_scores.py", "--items", str(root / "items.jsonl"), "--edges", str(root / "edges.jsonl"),
        "--holdout", "0.2", "--split-seed", "7", "--score-seed", "101", "--depth", "20",
        "--out", str(root / "scores.jsonl"),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", argv)
        runpy.run_path(str(REPO_ROOT / "scripts" / "make_mock_scores.py"), run_name="__main__")
    common = {
        "dataset": {"items": str(root / "items.jsonl"), "edges": str(root / "edges.jsonl"), "name": "fuzz"},
        "split": split,
        "pipeline": {"n_div": 10, "n_acc": 5, "cutoffs": [1, 3, 5]},
    }
    configs = {
        "precomputed": {
            **common,
            "retriever": {"kind": "precomputed", "path": str(root / "scores.jsonl")},
            "agents": {"mock": "shuffle:3"},
            "audit": True,
            "concurrency": 1,
        },
        "heuristic": {**common, "retriever": {"kind": "heuristic", "name": "heur"}, "agents": {"mock": "reverse"}},
    }
    for name, config in configs.items():
        (root / f"{name}.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        assert main(["run", "--config", str(root / f"{name}.json"), "--out", str(root / name)]) == 0
    return root, configs


def nodes(value, path=()):
    """Every (path, node) of a decoded JSON value, the value itself first."""
    yield path, value
    members = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, member in members:
        yield from nodes(member, (*path, key))


def pick(doc, rng, wanted):
    """The path of a node that ``wanted`` accepts: first a depth, then a node at that depth, so that
    shallow nodes (a whole line, a key of a record) are picked as often as deep ones."""
    by_depth = {}
    for path, node in nodes(doc):
        if wanted(path, node):
            by_depth.setdefault(len(path), []).append(path)
    return rng.choice(by_depth[rng.choice(sorted(by_depth))])


def mutate_value(doc, kind, rng):
    """Apply one value-level mutation to ``doc`` (a JSON Lines file as the array of its lines) in place;
    return the junk text that its placeholder stands for, if any."""
    if kind.startswith("junk="):
        *parent, last = pick(doc, rng, lambda path, node: bool(path))
        reduce(getitem, parent, doc)[last] = PLACEHOLDER
        return JUNK[kind.removeprefix("junk=")]
    node = reduce(getitem, pick(doc, rng, lambda path, node: CONTAINERS[kind](node)), doc)
    if kind == "drop":
        del node[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))]
    elif kind == "add" and isinstance(node, dict):
        node["unknown"] = 0
    elif kind == "add":
        node.insert(rng.randrange(len(node) + 1), 0)
    else:
        at = rng.randrange(len(node))
        node.insert(at + 1, node[at])
    return None


def mutate_bytes(data, kind, rng):
    """``data`` with one byte inserted, deleted or replaced within one of its nonempty lines."""
    lines = data.split(b"\n")
    n = rng.choice([i for i, line in enumerate(lines) if line])
    line, at, byte = lines[n], rng.randrange(len(lines[n])), bytes([rng.randrange(256)])
    edit = kind.split("-")[1]
    lines[n] = line[:at] + {"insert": byte + line[at:], "delete": line[at + 1:], "replace": byte + line[at + 1:]}[edit]
    return b"\n".join(lines)


def mutated(source, json_lines, kind, rng):
    """The bytes of ``source`` after the mutation ``kind``."""
    data = source.read_bytes()
    if kind.startswith("byte-"):
        return mutate_bytes(data, kind, rng)
    text = data.decode("utf-8")
    doc = [json.loads(line) for line in text.splitlines()] if json_lines else json.loads(text)
    junk = mutate_value(doc, kind, rng)
    text = "".join(json.dumps(line) + "\n" for line in doc) if json_lines else json.dumps(doc, indent=2)
    if junk is not None:
        text = text.replace(json.dumps(PLACEHOLDER), junk)
    return text.encode("utf-8")


@pytest.mark.parametrize("target, kind", CASES)
def test_malformed_input_fails_cleanly_or_runs(inputs, tmp_path, monkeypatch, capsys, target, kind):
    root, configs = inputs
    rng = random.Random(f"{SEED}:{target}:{kind}")
    name, json_lines = TARGETS[target]
    monkeypatch.chdir(tmp_path)
    if target in ("metrics", "retrieval"):
        run = tmp_path / "run"
        run.mkdir()
        for file in ("metrics.json", "retrieval.jsonl"):
            shutil.copy(root / "precomputed" / file, run / file)
        (run / name).write_bytes(mutated(root / "precomputed" / name, json_lines, kind, rng))
        argv = ["report", str(run), str(root / "heuristic"), "--out", "report"]
    elif target.endswith("-config"):
        (tmp_path / name).write_bytes(mutated(root / name, json_lines, kind, rng))
        argv = ["run", "--config", name, "--out", "out"]
    else:
        # A catalog file goes under either config; the scores file only under the precomputed one.
        config = configs["heuristic" if target != "scores" and rng.random() < 0.5 else "precomputed"]
        (tmp_path / name).write_bytes(mutated(root / name, json_lines, kind, rng))
        section, key = ("retriever", "path") if target == "scores" else ("dataset", target)
        config = {**config, section: {**config[section], key: name}}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["run", "--config", "config.json", "--out", "out"]
    before = sorted(tmp_path.rglob("*"))
    code = main(argv)
    err = capsys.readouterr().err
    if code != 0:
        assert code == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert sorted(tmp_path.rglob("*")) == before, err

"""A run's outputs do not depend on how its inputs are laid out.

One 200-item catalog written by ``complerank synth`` and one scores file written by
``scripts/make_mock_scores.py`` are run with each retriever.  Each case runs a transformed copy of
those files and compares every output's bytes with the untransformed run's, ``run_config.json``
aside (it records ``concurrency``).  Where a case changes what a run writes, the untransformed run's
outputs go through the same change first.
"""

import json
import random
import runpy
import sys
from pathlib import Path

import pytest

from complerank.catalog import json_line
from complerank.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 20  # of every shuffle below
SPLIT = {"holdout_fraction": 0.2, "seed": 7}
PREFIX = "zz-"  # put before every id: the ids keep their sort order


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The text of the items, edges and scores files, by name."""
    root = tmp_path_factory.mktemp("metamorphic_inputs")
    assert main(["synth", "--items", "200", "--genres", "4", "--seed", "3", "--out", str(root)]) == 0
    argv = [
        "make_mock_scores.py", "--items", str(root / "items.jsonl"), "--edges", str(root / "edges.jsonl"),
        "--holdout", str(SPLIT["holdout_fraction"]), "--split-seed", str(SPLIT["seed"]), "--score-seed", "11",
        "--depth", "30", "--out", str(root / "scores.jsonl"),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", argv)
        runpy.run_path(str(REPO_ROOT / "scripts" / "make_mock_scores.py"), run_name="__main__")
    return {name: (root / f"{name}.jsonl").read_text(encoding="utf-8") for name in ("items", "edges", "scores")}


def run(directory, files, kind, concurrency=1):
    """Write ``files`` into ``directory`` and run them with the ``kind`` retriever; every output but
    ``run_config.json``, as text by name."""
    directory.mkdir()
    for name, text in files.items():
        (directory / f"{name}.jsonl").write_text(text, encoding="utf-8")
    retriever = {"kind": kind, "name": kind}
    if kind == "precomputed":
        retriever["path"] = str(directory / "scores.jsonl")
    config = {
        "dataset": {"items": str(directory / "items.jsonl"), "edges": str(directory / "edges.jsonl"), "name": "m"},
        "split": SPLIT,
        "retriever": retriever,
        "pipeline": {"n_div": 10, "n_acc": 5, "cutoffs": [1, 3, 5]},
        "agents": {"mock": "shuffle:3"},
        "audit": True,
        "concurrency": concurrency,
        "out": str(directory / "out"),
    }
    (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(directory / "config.json")]) == 0
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((directory / "out").iterdir())
        if path.name != "run_config.json"
    }


@pytest.fixture(scope="module")
def untransformed(inputs, tmp_path_factory):
    """Each retriever's outputs on the untransformed files."""
    root = tmp_path_factory.mktemp("metamorphic_untransformed")
    return {kind: run(root / kind, inputs, kind) for kind in ("heuristic", "precomputed")}


def shuffled_lines(text, rng):
    lines = text.splitlines(keepends=True)
    rng.shuffle(lines)
    return "".join(lines)


def map_lines(text, change):
    """``text`` with each JSON line's value passed through ``change``."""
    return "".join(json.dumps(change(json.loads(line))) + "\n" for line in text.splitlines())


def map_candidates(change):
    """A ``map_lines`` change of each scores line's (or retrieval line's) candidates list."""
    return lambda record: {**record, "candidates": change(record["candidates"])}


def shuffled_candidates(rng):
    return map_candidates(lambda candidates: rng.sample(candidates, len(candidates)))


def affine(candidates):
    return [[item_id, 3 * score + 1] for item_id, score in candidates]


def reversed_and_repeated(text):
    """Every edge reversed, and every third edge given once more as it was."""
    return map_lines(text, lambda pair: pair[::-1]) + "".join(text.splitlines(keepends=True)[::3])


@pytest.mark.parametrize("kind", ["heuristic", "precomputed"])
def test_lines_shuffled(inputs, untransformed, tmp_path, kind):
    rng = random.Random(SEED)
    files = {name: shuffled_lines(text, rng) for name, text in inputs.items()}
    assert run(tmp_path / "run", files, kind) == untransformed[kind]


@pytest.mark.parametrize("kind", ["heuristic", "precomputed"])
def test_edges_reversed_and_repeated(inputs, untransformed, tmp_path, kind):
    files = {**inputs, "edges": reversed_and_repeated(inputs["edges"])}
    assert run(tmp_path / "run", files, kind) == untransformed[kind]


def test_scores_shuffled_and_mapped_increasingly(inputs, untransformed, tmp_path):
    """Each list's candidates shuffled and every score mapped by ``3·s + 1``: the untransformed
    ``retrieval.jsonl`` goes through the same map, which is exact both ways."""
    mapped = map_lines(inputs["scores"], map_candidates(affine))
    files = {**inputs, "scores": map_lines(mapped, shuffled_candidates(random.Random(SEED)))}
    expected = dict(untransformed["precomputed"])
    records = map(json.loads, expected["retrieval.jsonl"].splitlines())
    expected["retrieval.jsonl"] = "".join(json_line(map_candidates(affine)(record)) for record in records)
    assert run(tmp_path / "run", files, "precomputed") == expected


def test_tied_scores_shuffled(inputs, tmp_path):
    """Scores rounded to one decimal, so that each list of 30 has ties: they are broken by id, so the
    order of each list does not matter."""
    rounded = map_lines(inputs["scores"], map_candidates(lambda cs: [[i, round(s, 1)] for i, s in cs]))
    shuffled = map_lines(rounded, shuffled_candidates(random.Random(SEED)))
    first = run(tmp_path / "rounded", {**inputs, "scores": rounded}, "precomputed")
    assert run(tmp_path / "shuffled", {**inputs, "scores": shuffled}, "precomputed") == first


@pytest.mark.parametrize("kind", ["heuristic", "precomputed"])
def test_ids_relabelled_in_order(inputs, untransformed, tmp_path, kind):
    """Every id given a prefix, which keeps their sort order: the outputs, the prefix taken off again."""
    files = {name: text.replace('"it0', f'"{PREFIX}it0') for name, text in inputs.items()}
    outputs = run(tmp_path / "run", files, kind)
    assert PREFIX in outputs["stages.jsonl"]
    assert {name: text.replace(f'"{PREFIX}it0', '"it0') for name, text in outputs.items()} == untransformed[kind]


@pytest.mark.parametrize("kind", ["heuristic", "precomputed"])
def test_concurrency(inputs, untransformed, tmp_path, kind):
    assert run(tmp_path / "run", inputs, kind, concurrency=3) == untransformed[kind]

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything runs desk-scale with mock agents and the synthetic catalog; run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import csv
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complerank.agents import parse_permutation
from complerank.cli import main
from test_cli import golden_digests, output_digests, src_pythonpath
from complerank.metrics import MetricsRow, lift_rows_for_runs
from oracles import entropy_at_k, ndcg_at_k, vocab_at_k

REPO_ROOT = Path(__file__).resolve().parent.parent

# Frozen desk-scale benchmark: all four base metrics are nonzero at every
# cutoff for this seed pair, so every lift cell is defined.
SYNTH = {"n_items": 600, "n_genres": 4, "edges_per_item": 4.0,
         "cross_genre_edge_ratio": 0.25, "seed": 6}
SPLIT = {"holdout_fraction": 0.2, "seed": 7}
CUTOFFS = (1, 3, 5, 10)


class _report:
    def __init__(self, number, name):
        self.line = f"ACCEPTANCE {number} {name}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"{self.line}: {'PASS' if exc_type is None else 'FAIL'}")
        return False


def read_csv(path):
    with Path(path).open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_jsonl(path):
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def dataset(workdir):
    out = workdir / "dataset"
    code = main(
        ["synth",
         "--items", str(SYNTH["n_items"]),
         "--genres", str(SYNTH["n_genres"]),
         "--edges-per-item", str(SYNTH["edges_per_item"]),
         "--cross-ratio", str(SYNTH["cross_genre_edge_ratio"]),
         "--seed", str(SYNTH["seed"]),
         "--out", str(out)]
    )
    assert code == 0
    return out / "items.jsonl", out / "edges.jsonl"


def run_config(workdir, dataset, name, retriever, agents):
    items, edges = dataset
    config = {
        "dataset": {"items": str(items), "edges": str(edges), "name": "synthbench"},
        "split": SPLIT,
        "retriever": retriever,
        "pipeline": {"preset": "fig1"},
        "agents": agents,
        "out": str(workdir / "runs" / name),
    }
    path = workdir / f"config_{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, Path(config["out"])


@pytest.fixture(scope="session")
def identity_run(workdir, dataset):
    config, out = run_config(
        workdir, dataset, "identity", {"kind": "heuristic"}, {"mock": "identity"}
    )
    start = time.monotonic()
    assert main(["run", "--config", str(config)]) == 0
    return out, time.monotonic() - start


@pytest.fixture(scope="session")
def oracle_run(workdir, dataset):
    config, out = run_config(
        workdir, dataset, "oracle", {"kind": "heuristic"}, {"mock": "oracle"}
    )
    assert main(["run", "--config", str(config)]) == 0
    return out


@pytest.fixture(scope="session")
def grid_runs(workdir, dataset, identity_run):
    items, edges = dataset
    run_dirs = [identity_run[0]]
    for name, score_seed in (("gnnA", 101), ("gnnB", 202)):
        scores = workdir / f"{name}.jsonl"
        subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "make_mock_scores.py"),
             "--items", str(items), "--edges", str(edges),
             "--holdout", str(SPLIT["holdout_fraction"]),
             "--split-seed", str(SPLIT["seed"]),
             "--score-seed", str(score_seed), "--depth", "60", "--out", str(scores)],
            check=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src_pythonpath()},
        )
        config, out = run_config(
            workdir, dataset, name,
            {"kind": "precomputed", "path": str(scores), "name": name},
            {"mock": "identity"},
        )
        assert main(["run", "--config", str(config)]) == 0
        run_dirs.append(out)
    return run_dirs


@pytest.fixture(scope="session")
def shuffle_grid(workdir, dataset, grid_runs):
    """The grid's three retrievers rerun with the ``shuffle:97`` mock, then their merged report.

    A shuffled order moves every metric, so unlike the identity grid every
    lift cell is nonzero arithmetic.
    """
    retrievers = {"heuristic": {"kind": "heuristic"}}
    for name in ("gnnA", "gnnB"):  # the scores files grid_runs wrote
        retrievers[name] = {"kind": "precomputed", "path": str(workdir / f"{name}.jsonl"), "name": name}
    run_dirs = []
    for name, retriever in retrievers.items():
        config, out = run_config(workdir, dataset, f"shuffle97_{name}", retriever, {"mock": "shuffle:97"})
        assert main(["run", "--config", str(config)]) == 0
        run_dirs.append(out)
    report = workdir / "shuffle97_report"
    assert main(["report", *[str(d) for d in run_dirs], "--out", str(report)]) == 0
    return [*run_dirs, report]

def test_c1_identity_pipeline_zero_lift(identity_run):
    with _report(1, "identity-pipeline zero lift"):
        out_dir, elapsed = identity_run
        assert elapsed < 10.0, f"run took {elapsed:.1f}s"
        rows = read_csv(out_dir / "lift.csv")
        assert len(rows) == 4 * 4 * 3  # metrics x cutoffs x comparisons
        for row in rows:
            assert row["mean_lift_pct"] != "", f"undefined lift: {row}"
            assert float(row["mean_lift_pct"]) == 0.0, f"nonzero lift: {row}"
        cutoffs = {int(row["k"]) for row in rows}
        assert cutoffs == set(CUTOFFS)


def test_c2_oracle_upper_bound(oracle_run):
    with _report(2, "oracle mock upper bound"):
        retrieval = read_jsonl(oracle_run / "retrieval.jsonl")
        assert retrieval
        truth = {r["query_id"]: set(r["ground_truth"]) for r in retrieval}
        top = {r["query_id"]: {c[0] for c in r["candidates"]} for r in retrieval}

        n_queries = len(retrieval)
        n_hit = sum(1 for q in truth if truth[q] & top[q])
        expected = Fraction(n_hit, n_queries)
        assert 0 < expected < 1  # nondegenerate fixture

        payload = json.loads((oracle_run / "metrics.json").read_text(encoding="utf-8"))
        [hit1] = [
            row["hit"]
            for row in payload["rows"]
            if row["stage"] == "diversity_accuracy" and row["k"] == 1
        ]
        assert hit1 == float(expected)

        per_query = read_jsonl(oracle_run / "per_query.jsonl")
        final_rows = {
            (row["query_id"], row["k"]): row
            for row in per_query
            if row["stage"] == "diversity_accuracy"
        }
        checked = 0
        for query_id in truth:
            reachable = len(truth[query_id] & top[query_id])
            assert final_rows[(query_id, 1)]["hit"] == (1 if reachable else 0), query_id
            for k in CUTOFFS:
                if reachable >= min(len(truth[query_id]), k):
                    assert final_rows[(query_id, k)]["ndcg"] == 1.0
                    checked += 1
        assert checked > 0


def test_c3_ndcg_brute_force_equivalence():
    with _report(3, "NDCG exhaustive-permutation equivalence"):
        def direct(order, truth, k):
            dcg = sum(
                1.0 / math.log2(i + 2)
                for i, item in enumerate(order[:k])
                if item in truth
            )
            idcg = sum(1.0 / math.log2(i + 2) for i in range(min(len(truth), k)))
            return dcg / idcg

        items = list("abcdefgh")
        truth = {"b", "e", "h"}
        for size in range(2, 9):
            pool = items[:size]
            cutoffs = sorted({1, 3, min(5, size), size})
            best = {k: 0.0 for k in cutoffs}
            for perm in itertools.permutations(pool):
                for k in cutoffs:
                    value = ndcg_at_k(perm, truth & set(pool), k)
                    assert abs(value - direct(perm, truth & set(pool), k)) <= 1e-12
                    best[k] = max(best[k], value)
            for k in cutoffs:
                assert best[k] == 1.0


def test_c4_k1_hit_equals_ndcg_everywhere(identity_run, oracle_run, grid_runs):
    with _report(4, "K=1 Hit == NDCG in every configuration"):
        run_dirs = {identity_run[0], oracle_run, *grid_runs}
        rows_checked = 0
        for run_dir in run_dirs:
            payload = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
            for row in payload["rows"]:
                if row["k"] == 1:
                    assert row["hit"] == row["ndcg"], (run_dir, row)
                    rows_checked += 1
        assert rows_checked >= 3 * len(run_dirs)


@given(tokens=st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def _entropy_bounds_property(tokens):
    entropy = entropy_at_k(tokens)
    vocab = vocab_at_k(tokens)
    assert -1e-12 <= entropy <= math.log(vocab) + 1e-9


@given(
    symbols=st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=10),
    repeats=st.integers(1, 30),
)
@settings(max_examples=200, deadline=None)
def _entropy_uniform_property(symbols, repeats):
    tokens = [s for s in sorted(symbols) for _ in range(repeats)]
    assert abs(entropy_at_k(tokens) - math.log(len(symbols))) <= 1e-12


def test_c5_entropy_bounds_and_uniform_case():
    with _report(5, "entropy bounds and uniformity"):
        _entropy_bounds_property()
        _entropy_uniform_property()
        assert entropy_at_k(["a", "a", "b", "b"]) == pytest.approx(0.6931, abs=1e-4)


def test_c6_parser_totality_fuzz():
    with _report(6, "permutation parser totality fuzz"):
        rng = random.Random(99)
        sizes = (1, 5, 50, 100)
        for _ in range(10_000):
            raw = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 200)))
            text = raw.decode("latin-1")
            for n in sizes:
                parsed = parse_permutation(text, n)
                assert sorted(parsed.order) == list(range(n))


def test_c7_prompt_golden_contents(prompt_fixture):
    with _report(7, "prompt verbatim strings and single-sentence diff"):
        from complerank.agents import AgentKind, build_prompt

        query, candidates = prompt_fixture
        ids, items = tuple(item.id for item in candidates), {item.id: item for item in candidates}
        diversity = build_prompt(query, ids, items, AgentKind.DIVERSITY).text
        accuracy = build_prompt(query, ids, items, AgentKind.ACCURACY).text
        assert "it is not a direct substitute" in diversity
        assert "it is not a direct substitute" in accuracy
        assert "focus on the diversity aspect" in diversity
        assert "focus on the accuracy aspect" in accuracy
        assert "Example answer format for 5 candidates: [1, 4, 3, 0, 2]" in diversity
        assert "Example answer format for 5 candidates: [1, 4, 3, 0, 2]" in accuracy
        div_lines = diversity.splitlines()
        acc_lines = accuracy.splitlines()
        assert len(div_lines) == len(acc_lines)
        differing = [
            (a, b) for a, b in zip(div_lines, acc_lines) if a != b
        ]
        assert len(differing) == 1
        assert "diversity aspect" in differing[0][0]
        assert "accuracy aspect" in differing[0][1]


def test_c8_report_shape(workdir, grid_runs):
    with _report(8, "nine-method report shape and lift coverage"):
        out = workdir / "report"
        assert main(["report", *[str(d) for d in grid_runs], "--out", str(out)]) == 0

        rows = read_csv(out / "report.csv")
        methods = {(row["method"], row["stage"]) for row in rows}
        assert len(methods) == 9  # 3 retrievers x 3 stages
        assert len(rows) == 9 * 4  # x 4 cutoffs
        for row in rows:
            assert {int(row["k"])} <= set(CUTOFFS)
            for metric in ("hit", "ndcg", "entropy", "vocab"):
                assert row[metric] != ""

        lift_rows = read_csv(out / "lift_report.csv")
        comparisons = {row["comparison"] for row in lift_rows}
        assert comparisons == {"overall_vs_base", "diversity_vs_base", "final_vs_diversity"}
        assert len(lift_rows) == 3 * 4 * 4  # comparisons x metrics x cutoffs
        assert all(int(row["n_retrievers"]) <= 3 for row in lift_rows)


def test_c9_lift_arithmetic_spot_check():
    with _report(9, "lift arithmetic against published-style values"):
        def row(stage, hit, entropy):
            return MetricsRow(
                retriever="r", stage=stage, dataset="cell_phones", k=1,
                hit=hit, ndcg=hit, entropy=entropy, vocab=19.5,
            )

        # one retriever, so each lift is the mean itself; the diversity stage copies the base
        rows = [
            row("base", hit=0.154, entropy=2.86),
            row("diversity", hit=0.154, entropy=2.86),
            row("diversity_accuracy", hit=0.351, entropy=2.93),
        ]
        result = {
            lift.metric: lift.mean_lift_pct
            for lift in lift_rows_for_runs({"r": rows}, "cell_phones", [1])
            if lift.comparison == "overall_vs_base"
        }
        assert result["hit"] == pytest.approx(127.9, abs=0.1)
        assert result["entropy"] == pytest.approx(2.45, abs=0.1)
        # consistent with the headline claim: at least +50% accuracy, +2% diversity
        assert result["hit"] >= 50.0
        assert result["entropy"] >= 2.0


def test_c10_shuffle_grid_and_report_golden_digests(shuffle_grid):
    with _report(10, "shuffle grid and merged report byte-identical"):
        digests = {
            f"{run_dir.name}/{name}": digest
            for run_dir in shuffle_grid
            for name, digest in output_digests(run_dir).items()
        }
        assert digests == golden_digests("mock_grid_shuffle97.sha256")


def test_c11_oracle_run_golden_digests(oracle_run):
    with _report(11, "oracle run byte-identical"):
        assert output_digests(oracle_run) == golden_digests("mock_run_oracle.sha256")

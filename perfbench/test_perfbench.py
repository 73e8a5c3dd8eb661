"""Tests of the benchmark itself: smoke runs, the report format, the corpus.

    python3 -m pytest perfbench/test_perfbench.py

Not collected by the package's own test run (pyproject sets testpaths).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(workload, trace, section):
    proc = run_bench(["--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_ratio 0.0 ") for line in lines)

    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, better = line.split()
            printed[name] = (unit, better)
    want = {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}
    assert printed == want
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {n: u for n, (u, _) in want.items()}
    for name, metric in result["metrics"].items():
        if want[name][0] in ("count", "tokens", "MB"):
            # a zero count means a wrapper missed the binding its caller uses
            assert metric["value"] > 0, name


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(["--workload", "decode-beam", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_corpus_is_seeded_and_shaped(tmp_path):
    from opinesum.salience import gold_scores
    from opinesum.textcorpus import default_stopwords, load_clusters, substitute_entity

    wl = workloads.WORKLOADS["decode-beam"]
    first = workloads.generate(wl, 3, tmp_path / "a")
    again = workloads.generate(wl, 3, tmp_path / "b")
    other = workloads.generate(wl, 4, tmp_path / "c")
    read = lambda path: open(path, "rb").read()  # noqa: E731
    assert all(read(first[s]) == read(again[s]) for s in first)
    assert read(first["train"]) != read(other["train"])

    stopwords = default_stopwords()
    assert set(workloads.STOPWORDS) <= stopwords
    clusters = [substitute_entity(c) for s in first for c in load_clusters(first[s])]
    assert 0 < sum(1 for c in clusters if c.entity) < len(clusters)
    for c in clusters:
        assert {len(u.tokens) for u in c.units} == {wl.unit_len}
        assert len(c.summary.tokens) == workloads.SUMMARY_LEN
        labels = gold_scores(c, stopwords)
        assert (labels > 0).sum() == wl.pos_units and (labels == 0).any()

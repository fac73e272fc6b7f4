"""Tests of the benchmark itself: the correctness check, tracer, generator
and BENCHMARK.json.  Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lexicon  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import PER_LAYER  # noqa: E402

import pluralbench as pb  # noqa: E402
from pluralbench import classifiers, harness, hybrid  # noqa: E402

PINS = json.loads((BENCH / "expected.json").read_text("utf-8"))


# --------------------------------------------------------------------------
# correctness check
# --------------------------------------------------------------------------


def test_mismatches_compare_structure_and_values():
    pinned = {"a": [1, 0.5, "x"], "b": {"c": None}}
    assert workloads.mismatches({"a": [1, 0.5, "x"], "b": {"c": None}}, pinned) == []
    assert workloads.mismatches({"a": [1, 0.5 + 1e-12, "x"], "b": {"c": None}}, pinned) == []
    assert workloads.mismatches({"a": [1, 0.51, "x"], "b": {"c": None}}, pinned)
    assert workloads.mismatches({"a": [2, 0.5, "x"], "b": {"c": None}}, pinned)
    assert workloads.mismatches({"a": [1, 0.5], "b": {"c": None}}, pinned)
    assert workloads.mismatches({"a": [1, 0.5, "x"], "b": {}}, pinned)
    assert workloads.mismatches({"a": [1, 0.5, "x"], "b": {"c": None}, "d": 1}, pinned)


def _altered_pins(tmp_path, workload, key):
    pins = json.loads(json.dumps(PINS))
    section = pins[workload][str(key)]["results"]["classifiers"]["nn"]
    section["simple_accuracy"] += 0.01
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(pins), encoding="utf-8")
    return path


def test_toy_results_match_pins_and_an_altered_pin_fails(tmp_path, monkeypatch):
    workdir = tmp_path / "work"
    workdir.mkdir()
    workload = workloads.WORKLOADS["report-toy"]
    workload.prepare(1, workdir, ROOT / "src")
    monkeypatch.chdir(workdir)
    results = workloads.normalized(workload.op(pb, 1))
    pinned = PINS["report-toy"]["1"]
    assert workloads.mismatches(results, pinned["results"]) == []
    altered = json.loads(_altered_pins(tmp_path, "report-toy", 1).read_text("utf-8"))
    wrong = workloads.mismatches(results, altered["report-toy"]["1"]["results"])
    assert wrong == [wrong[0]] and "classifiers.nn.simple_accuracy" in wrong[0]


def test_worker_counts_every_operation_against_an_altered_pin_as_failed(tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir()
    workloads.WORKLOADS["report-toy"].prepare(2, workdir, ROOT / "src")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "report-toy", "--seed", "2",
         "--seconds", "0", "--expected", str(_altered_pins(tmp_path, "report-toy", 2))],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["attempted"] == 3
    assert report["failed"] == 3
    assert "result differs" in done.stderr


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    trace = tracing.Tracer()
    trace.spans = [
        (1, 0, "child", 1.0, 3.0),
        (2, 0, "child", 4.0, 5.0),
        (0, -1, "op", 0.0, 10.0),
    ]
    rows = trace.summary()
    assert rows["op"] == {"s": 10.0, "self_s": 7.0, "calls": 1}
    assert rows["child"] == {"s": 3.0, "self_s": 3.0, "calls": 2}


def test_tracer_patches_caller_modules_and_restores_them(monkeypatch):
    original = classifiers.gcm_decide_batch
    assert harness.gcm_decide_batch is original and hybrid.gcm_decide_batch is original
    # a target a later version deletes is skipped, not an error
    monkeypatch.delattr(classifiers, "gcm_optimize_scale")
    trace = tracing.Tracer()
    with trace.installed():
        assert harness.gcm_decide_batch is not original
        assert hybrid.gcm_decide_batch is harness.gcm_decide_batch
        memory = pb.ExemplarMemory.from_pairs([[0.0, 0.0], [1.0, 1.0]], ["a", "b"])
        with trace.root():
            hybrid.grid_search_s_t(
                memory, [pb.EncodedNoun(v, "a", "q") for v in memory.vectors],
                [1.0, 2.0], [0.0, 0.5], "a",
            )
    assert harness.gcm_decide_batch is original and hybrid.gcm_decide_batch is original
    rows = trace.summary()
    assert rows["classifiers.gcm_decide_batch"]["calls"] == 2
    assert rows["hybrid.grid_search_s_t"]["calls"] == 1
    assert trace.counts["classifiers.gcm_decide_batch.pairs"] == 8
    assert trace.counts["hybrid.grid_search_s_t.points"] == 8
    sweep = rows["hybrid.grid_search_s_t"]
    assert sweep["self_s"] == pytest.approx(
        sweep["s"] - rows["classifiers.gcm_decide_batch"]["s"], abs=1e-9
    )


# --------------------------------------------------------------------------
# generator and BENCHMARK.json
# --------------------------------------------------------------------------


def test_lexicon_is_deterministic_and_uses_table_symbols():
    rows = lexicon.generate(5)
    assert rows == lexicon.generate(5)
    assert rows != lexicon.generate(6)
    assert len(rows) == lexicon.INGESTED
    table = pb.default_feature_table()
    for _, singular, plural in rows:
        table.check_word(singular)
        table.check_word(plural)


def test_benchmark_json_names_what_the_code_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    for name in workloads.WORKLOADS:
        assert set(PINS[name]) == {str(k) for k in range(workloads.VARIANTS)}


def test_run_exits_non_zero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-toy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

"""Run one workload's operations in this fresh process and report samples.

Started by ``run.py`` with the working directory as cwd and the checkout's
``src`` on PYTHONPATH.  Runs one untimed warm-up operation, then timed
operations closed-loop (each after the previous one finishes) until the
next one would end past ``--seconds``; at least two are timed.  With
``--trace 1`` the timed operations alternate untraced and traced, and the
per-layer metrics come from the traced ones.  Every operation, warm-up
included, is checked against ``expected.json``.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED = 2

# per-layer metrics: name -> (unit, better); the order is the output order
PER_LAYER = {
    "phonology.default_feature_table.s": ("s", "lower"),
    "phonology.derive_plural_class.s": ("s", "lower"),
    "phonology.derive_plural_class.calls": ("count", "lower"),
    "phonology.encode_word.s": ("s", "lower"),
    "phonology.encode_word.calls": ("count", "lower"),
    "dataset.ingest.s": ("s", "lower"),
    "dataset.ingest.calls": ("count", "lower"),
    "dataset.filter_by_type_frequency.s": ("s", "lower"),
    "dataset.remove_compounds.s": ("s", "lower"),
    "dataset.split.s": ("s", "lower"),
    "dataset.encode_entries.s": ("s", "lower"),
    "classifiers.nn_decide_batch.s": ("s", "lower"),
    "classifiers.nn_decide_batch.calls": ("count", "lower"),
    "classifiers.nn_decide_batch.pairs": ("count", "lower"),
    "classifiers.nn_leave_one_out.s": ("s", "lower"),
    "classifiers.nn_leave_one_out.pairs": ("count", "lower"),
    "classifiers.gcm_decide_batch.s": ("s", "lower"),
    "classifiers.gcm_decide_batch.calls": ("count", "lower"),
    "classifiers.gcm_decide_batch.pairs": ("count", "lower"),
    "classifiers.gcm_optimize_scale.s": ("s", "lower"),
    "classifiers.ExemplarMemory.from_encoded.calls": ("count", "lower"),
    "classifiers.distance.gflop_computed": ("GFLOP", "lower"),
    "classifiers.mlp_grid_sweep.s": ("s", "lower"),
    "classifiers.mlp_grid_sweep.self_s": ("s", "lower"),
    "classifiers.mlp_grid_sweep.updates": ("count", "lower"),
    "classifiers.mlp_train.s": ("s", "lower"),
    "classifiers.mlp_train.calls": ("count", "lower"),
    "classifiers.mlp_train.updates": ("count", "lower"),
    "classifiers.mlp_decide_batch.s": ("s", "lower"),
    "classifiers.mlp_decide_batch.calls": ("count", "lower"),
    "classifiers.mlp.updates_per_s": ("1/s", "higher"),
    "hybrid.threshold_sweep.s": ("s", "lower"),
    "hybrid.threshold_sweep.self_s": ("s", "lower"),
    "hybrid.threshold_sweep.calls": ("count", "lower"),
    "hybrid.threshold_sweep.points": ("count", "lower"),
    "hybrid.grid_search_s_t.s": ("s", "lower"),
    "hybrid.grid_search_s_t.self_s": ("s", "lower"),
    "hybrid.grid_search_s_t.points": ("count", "lower"),
    "hybrid.hybrid_decide_batch.s": ("s", "lower"),
    "hybrid.hybrid_decide_batch.calls": ("count", "lower"),
    "synthetic.generate_language.s": ("s", "lower"),
    "synthetic.compare_simple_vs_hybrid.s": ("s", "lower"),
    "synthetic.compare_simple_vs_hybrid.self_s": ("s", "lower"),
    "synthetic.regular_taxonomy.s": ("s", "lower"),
    "synthetic.regular_taxonomy.pairs": ("count", "lower"),
    "serialize.save_nn.s": ("s", "lower"),
    "serialize.save_gcm.s": ("s", "lower"),
    "serialize.save_mlp.s": ("s", "lower"),
    "serialize.load_model.s": ("s", "lower"),
    "serialize.bytes_written": ("B", "lower"),
    "serialize.bytes_read": ("B", "lower"),
    "harness.run_experiment.s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.artifact_bytes": ("B", "lower"),
    "harness.artifacts_identical": ("count", "higher"),
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.wall_s": ("s", "lower"),
    "proc.tracing_overhead_s": ("s", "lower"),
    "proc.traced_wall_s": ("s", "lower"),
    "proc.root_self_s": ("s", "lower"),
}


@dataclass
class Sample:
    """One operation: wall and CPU seconds (this process and any children it
    waited for), whether it passed, its trace and its output files
    (path -> (bytes, sha256))."""

    wall: float
    cpu: float
    ok: bool
    trace: tracing.Tracer | None
    artifacts: dict


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def attempt(pb, workload, key, expected, traced: bool) -> Sample:
    workloads.clear_outputs(Path.cwd())
    trace = tracing.Tracer() if traced else None
    ok = True
    start_cpu = _cpu_seconds()
    start = time.perf_counter()
    try:
        if trace is None:
            results = workload.op(pb, key)
        else:
            with trace.installed(), trace.root():
                results = workload.op(pb, key)
    except Exception:  # noqa: BLE001 - a raising operation counts as failed
        traceback.print_exc(file=sys.stderr)
        ok = False
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - start_cpu
    if ok:
        wrong = workloads.mismatches(workloads.normalized(results), expected["results"])
        for line in wrong[:20]:
            print(f"{workload.name}: result differs: {line}", file=sys.stderr)
        ok = not wrong
    return Sample(wall, cpu, ok, trace, workloads.artifacts(Path.cwd()))


def _identical(artifacts, expected) -> int:
    pinned = expected["artifacts"]
    return sum(1 for name, (_, digest) in artifacts.items() if pinned.get(name) == digest)


def per_layer(traced: list[Sample], plain: list[Sample], expected) -> dict[str, float]:
    """Mean per traced operation of every per-layer metric."""
    totals = dict.fromkeys(PER_LAYER, 0.0)
    for sample in traced:
        rows = sample.trace.summary()
        for name, row in rows.items():
            for field in ("s", "self_s", "calls"):
                key = f"{name}.{field}"
                if key in totals:
                    totals[key] += row[field]
        for key, value in sample.trace.counts.items():
            if key in totals:
                totals[key] += value
        harness = rows.get("harness.run_experiment")
        totals["harness.self_s"] += harness["self_s"] if harness else 0.0
        totals["harness.artifact_bytes"] += sum(size for size, _ in sample.artifacts.values())
        totals["harness.artifacts_identical"] += _identical(sample.artifacts, expected)
        totals["proc.traced_wall_s"] += rows[tracing.ROOT]["s"]
        totals["proc.root_self_s"] += rows[tracing.ROOT]["self_s"]
        sweep, train = (rows.get(f"classifiers.{n}", {}) for n in ("mlp_grid_sweep", "mlp_train"))
        busy = sweep.get("self_s", 0.0) + train.get("self_s", 0.0)
        updates = (sample.trace.counts["classifiers.mlp_grid_sweep.updates"]
                   + sample.trace.counts["classifiers.mlp_train.updates"])
        totals["classifiers.mlp.updates_per_s"] += updates / busy if busy else 0.0
    out = {key: value / len(traced) for key, value in totals.items()}
    out["proc.cpu_s"] = statistics.median(s.cpu for s in plain)
    out["proc.wall_s"] = statistics.median(s.wall for s in plain)
    out["proc.tracing_overhead_s"] = (
        statistics.median(s.wall for s in traced) - statistics.median(s.wall for s in plain)
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", required=True, help="pinned results file")
    parser.add_argument("--trace-out", help="write the last traced operation's spans here")
    args = parser.parse_args(argv)

    import pluralbench as pb
    import pluralbench.cli  # noqa: F401 - the CLI workload calls pb.cli.main

    workload = workloads.WORKLOADS[args.workload]
    key = workloads.input_key(args.seed)
    expected = json.loads(Path(args.expected).read_text("utf-8"))[workload.name][str(key)]

    warmup = attempt(pb, workload, key, expected, traced=False)
    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        plain.append(attempt(pb, workload, key, expected, traced=False))
        if args.trace:
            traced.append(attempt(pb, workload, key, expected, traced=True))
        now = time.perf_counter()
        # stop when another round like the last would end past --seconds
        if len(plain) + len(traced) >= MIN_TIMED and 2 * now - start - step > args.seconds:
            break

    samples = [warmup, *plain, *traced]
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "walls": [s.wall for s in plain],
        "cpu": [s.cpu for s in plain],
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "peak_rss_mb": (usage_self + usage_children) / 1024.0,
        "artifacts": len(plain[-1].artifacts),
        "artifacts_identical": _identical(plain[-1].artifacts, expected),
    }
    if args.trace:
        report["per_layer"] = per_layer(traced, plain, expected)
        report["count_errors"] = sum(s.trace.counts["trace.count_errors"] for s in traced)
        if args.trace_out:
            traced[-1].trace.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

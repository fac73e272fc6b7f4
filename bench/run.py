"""pluralbench benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload report-toy --seed 0 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, measures set-up time in
fresh interpreters, runs the workload in a fresh worker process
(``worker.py``) and prints every metric by name and unit.  Times are CPU
seconds of one-BLAS-thread processes, so time the shared host gives to
other work does not count; wall seconds are printed beside them.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give the timing quartiles and sample counts and the machine facts.
Exits non-zero without a result when the checkout has no ``src/pluralbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
TRACES = BENCH / ".traces"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from worker import PER_LAYER  # noqa: E402

SETUP_RUNS = 11
SETUP_PROBE = (
    "import time; import pluralbench; pluralbench.default_feature_table(); "
    "print(time.process_time())"
)
WORKER_TIMEOUT = 150.0

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    """Environment of every child: the checkout's package, one BLAS thread.

    A second BLAS thread spins between calls, so its CPU time would grow
    whenever the host is busy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PLURALBENCH_OUTPUT_DIR", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env, cwd) -> list[float]:
    """CPU seconds a fresh interpreter spends until it has imported the
    package and loaded its feature table.  The probe prints its own CPU
    time at that point, so interpreter exit is not counted."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=cwd,
                              check=True, timeout=60, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(done.stdout))
    return times


def machine_facts(env) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
    }


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pluralbench" / "__init__.py").is_file():
        print(f"error: no pluralbench package under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    key = workloads.input_key(args.seed)
    env = _env()
    workdir = WORK / f"{workload.name}-{key}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        # probe set-up before writing the inputs: right after a lexicon was
        # written, the probes' times spread more
        setup = setup_seconds(env, workdir)
        inputs = workload.prepare(key, workdir, SRC)
        TRACES.mkdir(exist_ok=True)
        command = [
            sys.executable, str(BENCH / "worker.py"), "--workload", workload.name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--expected", str(BENCH / "expected.json"),
            "--trace-out", str(TRACES / f"{workload.name}-seed{args.seed}.jsonl"),
        ]
        done = subprocess.run(command, env=env, cwd=workdir, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT, stdin=subprocess.DEVNULL)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(done.stdout.strip().splitlines()[-1])

    walls, cpus = worker["walls"], worker["cpu"]
    wall_q, cpu_q, setup_q = _quartiles(walls), _quartiles(cpus), _quartiles(setup)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "input_key": key,
        "inputs": inputs,
        "machine": machine_facts(env),
        "cpu_s": {"median": statistics.median(cpus), "q1": cpu_q[0], "q3": cpu_q[2],
                  "samples": len(cpus), "values": cpus},
        "wall_s": {"median": statistics.median(walls), "q1": wall_q[0], "q3": wall_q[2],
                   "samples": len(walls), "values": walls},
        "setup_s": {"median": statistics.median(setup), "q1": setup_q[0], "q3": setup_q[2],
                    "samples": len(setup)},
        "failed_ratio": worker["failed"] / worker["attempted"],
        "artifacts": worker["artifacts"],
        "artifacts_identical": worker["artifacts_identical"],
    }
    if args.trace:
        details["trace_count_errors"] = worker["count_errors"]
        metrics = {name: {"value": worker["per_layer"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"wall_s: {details['wall_s']['median']:.6g} s (not a gated metric)")
    print(f"failed_ratio: {details['failed_ratio']:.6g} "
          f"({worker['failed']} of {worker['attempted']} operations)")
    print("details: " + json.dumps(details, ensure_ascii=False))
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

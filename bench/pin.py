"""Pin every workload's results and artifact digests into expected.json.

    python3 bench/pin.py

Runs each workload's operation once per input variant, in this process,
and records what the correctness check compares against.  Re-pinning is
a benchmark change: do it only when a change to the experiment's results
is intended, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import workloads  # noqa: E402


def main() -> int:
    import pluralbench as pb
    import pluralbench.cli  # noqa: F401

    pins = {}
    home = Path.cwd()
    for workload in workloads.WORKLOADS.values():
        pins[workload.name] = {}
        for key in range(workloads.VARIANTS):
            workdir = BENCH / ".work" / f"pin-{workload.name}-{key}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                workload.prepare(key, workdir, SRC)
                os.chdir(workdir)
                results = workloads.normalized(workload.op(pb, key))
                digests = {name: digest for name, (_, digest) in workloads.artifacts(workdir).items()}
            finally:
                os.chdir(home)
                shutil.rmtree(workdir, ignore_errors=True)
            pins[workload.name][str(key)] = {"results": results, "artifacts": digests}
            print(f"{workload.name} {key}: {len(digests)} artifacts", flush=True)
    text = json.dumps(pins, indent=1, sort_keys=True, ensure_ascii=False) + "\n"
    (BENCH / "expected.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

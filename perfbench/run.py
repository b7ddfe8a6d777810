#!/usr/bin/env python3
"""Phase-traced benchmark of the adaptive-reference MPM step.

Run from the repository root:

    python3 perfbench/run.py --workload plate_explicit --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One process runs one workload.  It imports the library from `src/` next to
this directory and drives it only through `load_scene`, `Simulation`,
`Simulation.step` and `Simulation.run`.  A run repeats fixed-length
episodes (set-up, steps, final state) until `--seconds` have passed and at
least 100 steps are timed, so that ten step times lie beyond p90.  Every episode goes through the correctness gate (gate.py); a failed
episode counts in `failed`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
episodes with traced ones, in which the library's internal names are
wrapped (layers.py); it reports per-layer self times, exact counts and the
tracing overhead, and requires every traced final state to be bit-identical
to the untraced one.  End-to-end metrics never come from a traced run.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The full result, the
environment and (traced runs) the spans are written under .perfbench_out/.
`--workload all` runs every workload, untraced then traced, each in its own
child process.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "aulmpm" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    nproc = _cap_threads()
    sys.path.insert(0, str(SRC))
    import bench
    return bench.main(args, nproc, SRC, OUT)


def _run_all(args) -> int:
    import json
    import subprocess

    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                summary["correct"] = False
                summary["failed"] += 1
                summary["attempted"] += 1
                continue
            res = json.loads(lines[-1])
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for key, val in res["metrics"].items():
                summary["metrics"][f"{name}/{key}"] = val
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the committed benchmark: every declared workload runs to a
strict JSON result on the last line of stdout, untraced and traced.

`perfbench/run.py` counts an exception inside an episode as a failed
episode and still prints its result, so a run whose last line is not that
JSON object crashed outside an episode: at import, in the untimed set-ups
before the first episode, or while writing the record.  One shortest run
(`--seconds 0`) per workload and trace setting exercises all three.  The
untraced run must report every end-to-end metric that `BENCHMARK.json`
declares, the traced run every per-layer one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _reject_constant(token):
    raise ValueError(f"result holds the non-JSON number {token}")


@pytest.mark.parametrize("workload, trace",
                         [pytest.param(w, 0, id=w) for w in NAMES]
                         + [pytest.param(w, 1, id=f"{w}-traced") for w in NAMES])
def test_workload_prints_a_correct_result_last(workload, trace):
    run = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
                          "--seconds", "0", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, result
    # a traced run reports the per-layer metrics, an untraced one the end-to-end ones
    missing = ({m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
               - set(result["metrics"]))
    assert not missing, missing

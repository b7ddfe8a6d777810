"""Smoke test of the committed benchmark: every declared workload runs to a
JSON result on the last line of stdout.

`perfbench/run.py` counts an exception inside an episode as a failed
episode and still prints its result, so a run whose last line is not that
JSON object crashed outside an episode: at import, in the untimed set-ups
before the first episode, or while writing the record.  One shortest run
(`--seconds 0`) per workload exercises all three.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_a_correct_result_last(workload):
    run = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
                          "--seconds", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(result["metrics"])

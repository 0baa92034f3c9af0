"""Smoke check of the benchmark harness at tiny sizes.

Kept out of the tier-1 suite (pytest collects only tests/ by default); run it
with

    python -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_every_workload_and_traced_run_at_tiny_sizes():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "outputs identical to the untraced run" in proc.stdout

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        f"{w['name']}/{m['name']}": m["unit"]
        for w in bench["workloads"]
        for m in bench["end_to_end"] + bench["per_layer"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected

"""Smoke runs of the experiment scripts at tiny sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_fibonacci_lab_takes_depth_scale_from_walk_fit(tmp_path):
    out = tmp_path / "fib"
    proc = run_script("run_fibonacci_lab.py", "--out", out, "--trials", 2000,
                      "--walk-length", 40, "--entropy-steps", 4, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    fit = json.loads((out / "walk" / "tail_fit.json").read_text())
    argv = json.loads((out / "entropy" / "manifest.json").read_text())["argv"]
    assert argv[argv.index("--L") + 1] == f"{9.0 * fit['fit']['D']:.6f}"
    assert (out / "entropy" / "entropy.csv").exists()


def test_fibonacci_lab_stops_without_a_tail_fit(tmp_path):
    out = tmp_path / "fib"
    proc = run_script("run_fibonacci_lab.py", "--out", out, "--trials", 1,
                      "--walk-length", 20, "--entropy-steps", 2, cwd=tmp_path)
    assert proc.returncode == 2
    assert "no tail fit" in proc.stderr
    assert not (out / "entropy").exists()


def test_complexity_survey_runs(tmp_path):
    out = tmp_path / "survey"
    proc = run_script("run_complexity_survey.py", "--out", out, "--n-max", 40, "--points", 4,
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "survey.json").read_text())
    assert set(summary) >= {"sturmian_golden", "substitution_golden",
                            "substitution_nonprimitive", "toeplitz_5_2"}
    rows = (out / "sturmian_golden.csv").read_text().splitlines()
    assert rows[0] == "n,rho"
    assert all(int(r) == int(n) + 1 for n, r in (row.split(",") for row in rows[1:]))

#!/usr/bin/env python3
"""Benchmark of the fullgroup-lab command line.

A workload is one CLI command at a fixed size.  A run starts that command
cold, in a fresh single-threaded child process, one run after the other
(closed loop, one client), as many times as fit in --seconds but at least
twice, and reports medians.  Each child pays the import, the language-oracle
and the cocycle warm-up again; nothing is warmed before timing.  Set-up is
measured apart by a probe child that only imports the package and loads the
inputs, once before each of the first SETUP_REPEATS children.

Times are reported at reference speed.  A virtual CPU's speed can drift by
a quarter within seconds, and a drift that lasts a whole run moves its
median as much.  So the benchmark pins itself and its children to one CPU,
times a fixed pure-Python loop on it between children, and scales each
child's time by REF_S over the mean of the loop's timings just before and
just after it.  The workloads are sized so that one child takes one to two
seconds, short enough for those two timings to tell the speed it ran at.
The raw times are printed beside the scaled ones.

With --trace 1 the same command also runs once in-process under the tracer
(tracer.py), which gives the per-layer metrics; its outputs must be
byte-identical to the untraced runs'.

Every CLI run is checked: exit code 0, output files byte-identical to the
digests in expected.json (for the walk, on the default seed only; on other
seeds the tail fit must dominate and the reflection check hold), and every
run's outputs identical to the first run's.

    python3 perfbench/run.py --workload walk-fib --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all             # all workloads, both runs
    python3 perfbench/run.py --workload all --smoke     # tiny sizes, for a smoke check

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Must be started from a source checkout: the
package is imported from its src/ directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 9
MIN_RUNS = 2
DEADLINE_S = 170.0
REF_LOOPS = 200_000
# seconds the reference loop takes at reference speed (2-vCPU Intel Xeon VM,
# Python 3.11); the scaled times read as seconds on that machine
REF_S = 0.035

SPECS = {
    "fib": {"variant": "substitution", "rules": {"a": "ab", "b": "a"}, "seed": "a",
            "point": {"kind": "substitution_fixed_point"}},
    "toeplitz": {"variant": "toeplitz", "pattern": "ab*b*", "hole": "*"},
}

# the child is single-threaded: the sampler's own pool and any BLAS pool
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "FULLGROUP_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    command: str
    spec: str
    args: tuple[str, ...]
    smoke_args: tuple[str, ...]
    gens: bool = False
    seeded: bool = False

    def cli_args(self, smoke: bool) -> tuple[str, ...]:
        return self.smoke_args if smoke else self.args

    def sample_steps(self, smoke: bool) -> int:
        if self.command != "walk":
            return 0
        opts = dict(zip(self.cli_args(smoke)[::2], self.cli_args(smoke)[1::2]))
        return int(opts["--n"]) * int(opts["--trials"])


WORKLOADS = {
    "complexity-toeplitz": Workload(
        "complexity", "toeplitz", ("--n", "68"), ("--n", "24")),
    "walk-fib": Workload(
        "walk", "fib", ("--n", "400", "--trials", "20000"), ("--n", "40", "--trials", "2000"),
        gens=True, seeded=True),
    "entropy-fib": Workload(
        "entropy", "fib", ("--n", "12", "--L", "9", "--cap", "2000000"),
        ("--n", "6", "--L", "9", "--cap", "2000000"), gens=True),
}


class BenchError(Exception):
    """The benchmark cannot run here (no source checkout, broken probe)."""


@dataclass
class ChildRun:
    start: float
    wall_s: float
    returncode: int
    peak_rss_mb: float
    log: Path
    scale: float  # REF_S over the reference loop's time around this child

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


def reference_s() -> float:
    """Time of a fixed pure-Python loop: the CPU's present speed."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(REF_LOOPS):
        acc += i * i % 7
        table[i & 1023] = acc
    return perf_counter() - start


class Session:
    """One benchmark invocation: counts of runs and failures, and the deadline
    by which the current workload's children must have ended."""

    def __init__(self):
        self.deadline = perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, **CHILD_ENV)
        self.last_ref = reference_s()

    def spawn(self, argv: list[str], cwd: Path, log: Path) -> ChildRun:
        """Run one child to completion; wall time from spawn to reaped exit,
        and its scale from the reference loop timed before and after it."""
        timeout = max(1.0, self.deadline - perf_counter())
        with open(log, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        before, self.last_ref = self.last_ref, reference_s()
        return ChildRun(start, wall, os.waitstatus_to_exitcode(status),
                        usage.ru_maxrss / 1024.0, log, 2 * REF_S / (before + self.last_ref))

    def count(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
            print(f"  FAILED: {problem}", flush=True)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg_at_start": _read("/proc/loadavg").strip() or "unknown",
            "python": sys.version.split()[0], "numpy": importlib.metadata.version("numpy")}


def build(session: Session) -> None:
    """Check for the source checkout and byte-compile the package."""
    if not (SRC / "fullgroup_lab" / "cli.py").is_file():
        raise BenchError(f"no fullgroup_lab sources under {SRC}; run from a source checkout")
    WORK.mkdir(exist_ok=True)
    run = session.spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "fullgroup_lab")],
                        WORK, WORK / "build.log")
    if run.returncode != 0:
        raise BenchError(f"byte-compiling the package failed, see {run.log}")


def write_inputs(workdir: Path, wl: Workload) -> list[str]:
    """Write the workload's input documents; return the CLI argument vector
    without --out."""
    spec_name = f"{wl.spec}_spec.json"
    (workdir / spec_name).write_text(json.dumps(SPECS[wl.spec], indent=2) + "\n")
    argv = [wl.command, "--spec", spec_name]
    if wl.gens:
        gens_name = f"{wl.spec}_gens.json"
        (workdir / gens_name).write_text(json.dumps({"spec": spec_name, "builtin": "fibonacci"}))
        argv += ["--gens", gens_name]
    return argv


def digest_outputs(out: Path) -> dict[str, str]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in manifest["outputs"]}


def check_outputs(name: str, wl: Workload, seed: int, out: Path, expected: dict) -> str:
    """Empty string when the run's outputs are right, else what is wrong."""
    try:
        got = digest_outputs(out)
        if sorted(got) != sorted(expected):
            return f"outputs {sorted(got)} differ from expected {sorted(expected)}"
        if not wl.seeded or seed == DEFAULT_SEED:
            wrong = {f: d for f, d in got.items() if d != expected[f]}
            if wrong:
                return f"{name}: output digests differ from expected.json: {wrong}"
        if wl.command == "walk":
            fit = json.loads((out / "tail_fit.json").read_text(encoding="utf-8"))
            if not (fit.get("dominates") is True and fit.get("reflection_holds") is True
                    and fit.get("seed") == seed):
                return "tail_fit.json: fit does not dominate or reflection check fails"
        if wl.command == "entropy":
            fit = json.loads((out / "entropy_fit.json").read_text(encoding="utf-8"))
            if fit.get("partial") is not False:
                return "entropy_fit.json: partial results"
    except (OSError, ValueError, KeyError) as exc:
        return f"cannot read outputs: {exc}"
    return ""


def setup_probe(session: Session, workdir: Path, wl: Workload) -> float:
    argv = [sys.executable, str(HERE / "child.py"), "setup", str(SRC), wl.command,
            f"{wl.spec}_spec.json"]
    if wl.gens:
        argv.append(f"{wl.spec}_gens.json")
    run = session.spawn(argv, workdir, workdir / "setup.log")
    try:
        report = json.loads(run.log.read_text().splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if run.returncode != 0 or report is None:
        session.count(False, f"set-up probe failed, see {run.log}")
        raise BenchError(run.log.read_text()[-2000:])
    session.count(True)
    return (report["ready"] - run.start) * run.scale


def measure(session: Session, name: str, seed: int, seconds: float, e2e: bool,
            layers: bool, smoke: bool) -> dict[str, tuple[float, str]]:
    """Measure one workload; return metric name -> (value, unit)."""
    wl = WORKLOADS[name]
    expected = json.loads(EXPECTED.read_text())["smoke" if smoke else "full"][name]
    session.deadline = perf_counter() + DEADLINE_S
    workdir = WORK / (f"smoke-{name}" if smoke else name)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    base = write_inputs(workdir, wl) + list(wl.cli_args(smoke))
    if wl.seeded:
        base += ["--seed", str(seed)]
    print(f"workload {name}, seed {seed}: fullgroup-lab {' '.join(base)}", flush=True)
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in machine_facts().items()), flush=True)

    setups: list[float] = []
    runs: list[ChildRun] = []
    first_digests = None
    loop_start = perf_counter()
    # start a run only if it should end within the window, but make at least MIN_RUNS
    while len(runs) < MIN_RUNS or (perf_counter() - loop_start
                                   + statistics.fmean(r.wall_s for r in runs) <= seconds):
        if e2e and len(setups) < SETUP_REPEATS:
            setups.append(setup_probe(session, workdir, wl))
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        run = session.spawn([sys.executable, "-m", "fullgroup_lab.cli", *base, "--out", "out"],
                            workdir, workdir / f"run{len(runs)}.log")
        runs.append(run)
        problem = (f"exit code {run.returncode}, see {run.log}" if run.returncode
                   else check_outputs(name, wl, seed, out, expected))
        if not problem:
            digests = digest_outputs(out)
            first_digests = first_digests or digests
            if digests != first_digests:
                problem = "outputs differ from the first run's"
        session.count(not problem, problem)
        print(f"  run {len(runs)}: wall {run.wall_s:.3f} s ({run.scaled_s:.3f} s at reference"
              f" speed), peak RSS {run.peak_rss_mb:.1f} MB"
              f"{', ok' if not problem else ''}", flush=True)

    wall = statistics.median(r.scaled_s for r in runs)
    metrics: dict[str, tuple[float, str]] = {}
    if e2e:
        metrics["wall_s"] = (wall, "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (statistics.median(r.peak_rss_mb for r in runs), "MB")
        raw = [r.wall_s for r in runs]
        print(f"  wall_s median of {len(runs)} runs at reference speed; raw wall median "
              f"{statistics.median(raw):.3f} s (fastest {min(raw):.3f}, slowest {max(raw):.3f}); "
              f"setup_s median of {len(setups)} probes", flush=True)
    if layers:
        record_path = workdir / "trace_record.json"
        shutil.rmtree(workdir / "out-traced", ignore_errors=True)
        traced = session.spawn(
            [sys.executable, str(HERE / "child.py"), "trace", str(SRC), str(record_path),
             *base, "--out", "out-traced"],
            workdir, workdir / "traced.log")
        problem = (f"traced run: exit code {traced.returncode}, see {traced.log}"
                   if traced.returncode
                   else check_outputs(name, wl, seed, workdir / "out-traced", expected))
        if not problem and digest_outputs(workdir / "out-traced") != first_digests:
            problem = "traced run's outputs differ from the untraced run's"
        session.count(not problem, problem)
        print(f"  traced run: wall {traced.wall_s:.3f} s, peak RSS {traced.peak_rss_mb:.1f} MB"
              f"{', outputs identical to the untraced run' if not problem else ''}", flush=True)
        if traced.returncode == 0:
            record = json.loads(record_path.read_text(encoding="utf-8"))
            layer = tracer.summarize(record, wl.sample_steps(smoke), traced.scaled_s - wall)
            for metric, (unit, _) in tracer.LAYER_METRICS.items():
                metrics[metric] = (layer[metric], unit)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:>16.6g} {unit}", flush=True)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default 30, 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else 30.0)

    # one CPU for this process and every child, so the reference loop runs
    # where the children run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    session = Session()
    try:
        build(session)
        if args.workload == "all":
            results = {}
            for name in WORKLOADS:
                for metric, value in measure(session, name, args.seed, seconds, True, True,
                                             args.smoke).items():
                    results[f"{name}/{metric}"] = value
        else:
            results = measure(session, args.workload, args.seed, seconds, not args.trace,
                              bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    print(f"failed_frac {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted} runs)")
    for problem in session.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

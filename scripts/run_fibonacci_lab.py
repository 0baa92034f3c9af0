#!/usr/bin/env python3
"""End-to-end experiment on the golden-ratio substitution subshift.

Writes the spec and generator files, samples the orbit walk to fit the
displacement tail, derives the cylinder-depth scale from the fit the walk
wrote to walk/tail_fit.json, and runs the exact entropy chain with that
scale.  Everything lands in --out as the same CSV/JSON files the CLI
produces.
"""

import argparse
import json
import sys
from pathlib import Path

from fullgroup_lab import default_depth_scale
from fullgroup_lab.cli import main as cli_main
from fullgroup_lab.fileio import write_json
from fullgroup_lab.walks import TailFit


def run(out: Path, trials: int, walk_length: int, entropy_steps: int, seed: int) -> int:
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / "fibonacci_spec.json"
    gens_path = out / "fibonacci_gens.json"
    write_json(spec_path, {
        "variant": "substitution",
        "rules": {"a": "ab", "b": "a"},
        "seed": "a",
        "point": {"kind": "substitution_fixed_point"},
    })
    write_json(gens_path, {"spec": spec_path.name, "builtin": "fibonacci"})

    rc = cli_main([
        "complexity", "--spec", str(spec_path), "--n", "200",
        "--out", str(out / "complexity"),
    ])
    if rc:
        return rc

    rc = cli_main([
        "walk", "--spec", str(spec_path), "--gens", str(gens_path),
        "--n", str(walk_length), "--trials", str(trials), "--seed", str(seed),
        "--out", str(out / "walk"),
    ])
    if rc:
        return rc

    # derive the depth scale from the walk's fitted tail, then run the exact chain
    tail = json.loads((out / "walk" / "tail_fit.json").read_text())
    if "insufficient_data" in tail:
        print(f"error: no tail fit to derive the depth scale from: "
              f"{tail['insufficient_data']}", file=sys.stderr)
        return 2
    doc = tail["fit"]
    fit = TailFit(c=doc["C"], d=doc["D"], a0=doc["a0"], b0=doc["b0"])
    scale = default_depth_scale(fit)
    print(f"tail fit: C={fit.c:.3f} D={fit.d:.3f} a0={fit.a0:.3f} b0={fit.b0:.2f}"
          f" -> depth scale {scale:.2f}")

    rc = cli_main([
        "entropy", "--spec", str(spec_path), "--gens", str(gens_path),
        "--n", str(entropy_steps), "--L", f"{scale:.6f}",
        "--out", str(out / "entropy"),
    ])
    if rc:
        return rc

    chain = json.loads((out / "entropy" / "entropy_fit.json").read_text())
    rates = chain["entropy_rates"]
    print(f"entropy rates H/n: {rates[1]:.4f} -> {rates[-1]:.4f} over n <= {entropy_steps}")
    print(f"envelope constant: {chain['envelope_constant']}")
    print(f"outputs under {out}/")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("runs/fibonacci"))
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--walk-length", type=int, default=400)
    parser.add_argument("--entropy-steps", type=int, default=12)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    return run(args.out, args.trials, args.walk_length, args.entropy_steps, args.seed)


if __name__ == "__main__":
    sys.exit(main())

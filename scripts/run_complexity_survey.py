#!/usr/bin/env python3
"""Complexity survey across the built-in subshift families.

Tabulates rho(n) on a log-spaced grid for a Sturmian slope, the golden
substitution, the non-primitive a->aba, b->bb example, and a coprime
Toeplitz pattern; fits the log-log slope of each and writes one CSV per
family plus a summary JSON.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from fullgroup_lab import (
    SturmianSpec,
    SubstitutionSpec,
    ToeplitzSpec,
    fibonacci_spec,
)

FAMILIES = {
    "sturmian_golden": SturmianSpec((1,)),
    "substitution_golden": fibonacci_spec(),
    "substitution_nonprimitive": SubstitutionSpec.from_rules({"a": "aba", "b": "bb"}, "a"),
    "toeplitz_5_2": ToeplitzSpec("ab*b*"),
}


def log_grid(lo: int, hi: int, count: int) -> list[int]:
    return sorted({int(round(lo * (hi / lo) ** (i / (count - 1)))) for i in range(count)})


def run(out: Path, n_max: int, points: int) -> int:
    out.mkdir(parents=True, exist_ok=True)
    grid = log_grid(8, n_max, points)
    summary = {}
    for name, spec in FAMILIES.items():
        table = spec.language
        rows = [(n, table.complexity(n)) for n in grid]
        path = out / f"{name}.csv"
        path.write_text(
            "n,rho\n" + "\n".join(f"{n},{r}" for n, r in rows) + "\n", encoding="utf-8"
        )
        ns = np.array([n for n, _ in rows], dtype=float)
        rhos = np.array([r for _, r in rows], dtype=float)
        slope = float(np.polyfit(np.log(ns), np.log(rhos), 1)[0])
        summary[name] = {"loglog_slope": slope, "rho_max": int(rhos[-1])}
        print(f"{name:28s} slope={slope:.4f}  rho({grid[-1]})={int(rhos[-1])}")
    summary["toeplitz_reference_exponent"] = math.log(5) / math.log(5 / 2)
    (out / "survey.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"outputs under {out}/")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("runs/complexity"))
    parser.add_argument("--n-max", type=int, default=400)
    parser.add_argument("--points", type=int, default=12)
    args = parser.parse_args()
    return run(args.out, args.n_max, args.points)


if __name__ == "__main__":
    sys.exit(main())

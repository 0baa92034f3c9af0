"""Command-line front end.

Three subcommands cover the reproducible reports:

* ``complexity`` tabulates the word complexity of a subshift;
* ``walk`` samples orbit walks and fits the displacement tail;
* ``entropy`` runs the exact convolution chain with the depth-stability
  and entropy-bound accounting.

Each command computes every output before it writes any; then one step,
:func:`_publish`, makes the output directory, writes the outputs and
writes ``manifest.json`` last, with the exact argument vector.  A refusal
therefore leaves no directory, except for ``entropy``'s partial results,
which are published with exit 3.  Replaying the manifest's arguments (into
any output directory) reproduces the other output files byte for byte.
Exit codes: 0 success, 2 invalid input, 3 resource limit, 4 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .cocycles import DEFAULT_BALL_CAP, ball
from .errors import (
    FullgroupLabError,
    InsufficientData,
    InternalInvariantError,
    ResourceLimit,
    ValidationError,
)
from .points import canonical_point
from .subshifts import ToeplitzSpec
from .walks import (
    ConvolutionCache,
    cylinder_depth,
    entropy_envelope,
    max_displacement_tail,
    measure_from_weights,
    reflection_check,
    return_probability_suite,
    sample_orbit_walks,
    stable_set_report,
    supported_a_grid,
    uniform_measure,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
# Rows of one complexity or entropy table, one a length.  It bounds time: each
# row is at least one count, and an entropy row one convolution step.
MAX_ROWS = 2_000_000


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True, type=Path, help="subshift spec JSON")
    parser.add_argument("--out", required=True, type=Path, help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fullgroup-lab",
        description="Subshift complexity tables and full-group random-walk reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", help="word-complexity table (n, rho)")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="largest factor length")
    p.add_argument("--dump-factors", type=int, default=None, metavar="LEN",
                   help="also dump the factor set of this length, one word per line")

    p = sub.add_parser("walk", help="orbit-walk sampling and displacement tails")
    _add_common(p)
    p.add_argument("--gens", required=True, type=Path, help="generator-set JSON")
    p.add_argument("--n", type=int, default=400, help="walk length (default 400)")
    p.add_argument("--trials", type=int, default=100_000, help="number of walks (default 1e5)")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")

    p = sub.add_parser("entropy", help="exact convolution entropies and bounds")
    _add_common(p)
    p.add_argument("--gens", required=True, type=Path, help="generator-set JSON")
    p.add_argument("--n", type=int, default=10, help="largest convolution power (default 10)")
    p.add_argument("--L", type=float, default=9.0, dest="depth_scale",
                   help="cylinder-depth scale (default 9.0)")
    p.add_argument("--cap", type=int, default=DEFAULT_BALL_CAP,
                   help="ball element cap (default 2e6)")
    return parser


def _load_measure(args, spec):
    gens, weights = fileio.load_generator_set(args.gens, spec)
    if weights is None:
        return uniform_measure(gens), "uniform"
    return measure_from_weights(gens, weights), {k: str(v) for k, v in sorted(weights.items())}


def _resolve_point(args, spec):
    desc = fileio.load_point_descriptor(args.spec)
    if desc is not None:
        return fileio.point_from_dict(spec, desc)
    return canonical_point(spec)


def _check_rows(n: int) -> None:
    """Refuse a table of `n` rows, one per length, past `MAX_ROWS`, before
    any row is computed."""
    if n > MAX_ROWS:
        raise ResourceLimit(f"--n {n} asks for more than {MAX_ROWS} table rows")


def _publish(args, argv, command: str, parameters: dict, tables: dict, files: dict) -> None:
    """Write one run's outputs into ``--out``, the manifest last.

    `tables` maps a base name to its (headers, rows), written in
    ``--format``; `files` maps a file name to its text (a str) or to a JSON
    document.  This is the only function that makes the directory or writes
    a file; it refuses a path that is a file or lies under one.
    """
    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValidationError(f"--out {out} cannot be a directory: {exc.strerror}") from None
    outputs = [fileio.write_table(out / name, headers, rows, args.format).name
               for name, (headers, rows) in tables.items()]
    for name, doc in files.items():
        if isinstance(doc, str):
            (out / name).write_text(doc, encoding="utf-8")
        else:
            fileio.write_json(out / name, doc)
    fileio.write_manifest(out, command, argv, parameters, outputs + list(files))


def cmd_complexity(args, argv) -> int:
    spec = fileio.load_spec(args.spec)
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    _check_rows(args.n)
    if args.dump_factors is not None and args.dump_factors < 0:
        raise ValidationError("--dump-factors must be >= 0")
    oracle = spec.language
    rows = list(fileio.check_cells((n, oracle.complexity(n)) for n in range(1, args.n + 1)))
    files = {}
    if args.dump_factors is not None:
        dump = oracle.words(args.dump_factors)
        files[f"factors_{args.dump_factors}.txt"] = "\n".join(dump) + "\n"

    fit = {"n_range": [2, args.n]}
    fit_rows = rows[1:]  # the log-log fit skips n = 1
    if any(rho == 0 for _, rho in fit_rows):
        fit["insufficient_data"] = "the language is empty: rho(n) = 0 has no logarithm"
    elif len(fit_rows) >= 2:
        ns = np.array([r[0] for r in fit_rows], dtype=float)
        try:
            log_rhos = np.log(np.array([r[1] for r in fit_rows], dtype=float))
        except OverflowError:  # past 2^1024, e.g. a full shift at n >= 1024
            log_rhos = np.array([math.log(r[1]) for r in fit_rows])
        slope, intercept = np.polyfit(np.log(ns), log_rhos, 1)
        fit.update(loglog_slope=float(slope), loglog_intercept=float(intercept))
    else:
        fit["insufficient_data"] = (
            f"the log-log fit needs at least two rows with n >= 2; --n {args.n} gives "
            f"{len(fit_rows)}"
        )
    if isinstance(spec, ToeplitzSpec):
        p, q = len(spec.pattern), spec.pattern.count(spec.hole)
        if math.gcd(p, q) == 1 and p > q:
            fit["coprime_exponent"] = math.log(p) / math.log(p / q)
    files["complexity_fit.json"] = fit

    _publish(args, argv, "complexity",
             {"spec": str(args.spec), "n": args.n, "format": args.format,
              "dump_factors": args.dump_factors},
             {"complexity": (("n", "rho"), rows)}, files)
    return EXIT_OK


def cmd_walk(args, argv) -> int:
    spec = fileio.load_spec(args.spec)
    measure, measure_desc = _load_measure(args, spec)
    point = _resolve_point(args, spec)
    if args.trials < 1 or args.n < 1:
        raise ValidationError("--n and --trials must be >= 1")
    sample = sample_orbit_walks(measure, point, args.n, args.trials, args.seed)
    # debugging aid: the window of the walked point around the start offset
    files = {"point_window.txt": point.window(0, 60) + "\n"}
    # the sampler summarized each step's row of offsets as it made it
    tables = {"walk_summary": (("j", "mean", "std", "mean_abs", "max_abs"), sample.summary)}

    grid = supported_a_grid(sample)
    fit_doc = {
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "max_shift": sample.max_shift,
    }
    try:
        curve = max_displacement_tail(sample, grid)
    except InsufficientData as exc:
        # e.g. a single trajectory: report the run, skip the fit
        fit_doc["insufficient_data"] = str(exc)
    else:
        tables["tail"] = (("a", "tail", "bound"), [
            (a, p, float(curve.fit.envelope(a)))
            for a, p in zip(curve.a_grid, curve.empirical)
        ])
        refl = reflection_check(sample, grid, curve.fit.b0)
        fit_doc.update(
            fit={"C": curve.fit.c, "D": curve.fit.d, "a0": curve.fit.a0, "b0": curve.fit.b0},
            dominates=curve.dominated(),
            reflection_holds=refl.holds,
            reflection_rows=[list(r) for r in refl.rows],
        )
    files["tail_fit.json"] = fit_doc

    _publish(args, argv, "walk",
             {"spec": str(args.spec), "gens": str(args.gens), "measure": measure_desc,
              "n": args.n, "trials": args.trials, "seed": args.seed, "format": args.format},
             tables, files)
    return EXIT_OK


def cmd_entropy(args, argv) -> int:
    spec = fileio.load_spec(args.spec)
    measure, measure_desc = _load_measure(args, spec)
    if args.n < 2:
        raise ValidationError("--n must be >= 2")
    if args.cap < 1:
        raise ValidationError("--cap must be >= 1")
    _check_rows(args.n)
    depths = [cylinder_depth(n, args.depth_scale) for n in range(1, args.n + 1)]

    rows = []
    limit_hit = None
    try:
        chain = ConvolutionCache(measure, ball(measure.generator_set(), args.n, args.cap))
        for n in range(1, args.n + 1):
            rep = stable_set_report(chain, n, args.depth_scale)
            rows.append(
                (
                    n,
                    rep.walk_entropy,
                    rep.walk_entropy / n,
                    float(rep.stable_mass),
                    rep.stable_count,
                    rep.entropy_bound,
                    rep.entropy_slack,
                )
            )
    except ResourceLimit as exc:
        limit_hit = str(exc)

    fit_doc = {
        "partial": limit_hit is not None,
        "depth_scale": args.depth_scale,
        "depths": depths,
    }
    if limit_hit is None:
        envelope = entropy_envelope(chain, args.n)
        returns = return_probability_suite(chain, args.n // 2)
        fit_doc.update(
            envelope_constant=envelope.fitted_constant,
            entropy_rates=list(envelope.entropy_rates),
            return_probabilities=[
                {"n": r.n, "value": str(r.return_prob), "max_at_identity": r.max_at_identity}
                for r in returns.rows
            ],
            returns_monotone=returns.monotone,
            returns_constant=returns.fitted_constant,
        )
    else:
        fit_doc["resource_limit"] = limit_hit

    _publish(args, argv, "entropy",
             {"spec": str(args.spec), "gens": str(args.gens), "measure": measure_desc,
              "n": args.n, "L": args.depth_scale, "cap": args.cap, "format": args.format},
             {"entropy": (("n", "H", "H_over_n", "mu_n_An", "An_size", "bound", "slack"), rows)},
             {"entropy_fit.json": fit_doc})
    if limit_hit is not None:
        print(f"resource limit: {limit_hit} (partial results written)", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


_HANDLERS = {
    "complexity": cmd_complexity,
    "walk": cmd_walk,
    "entropy": cmd_entropy,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FullgroupLabError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run() -> None:
    """Process entry: run :func:`main` on ``sys.argv`` and exit with its code.

    Before the exit it moves every object still tracked by the collector
    into the permanent generation (``gc.freeze``), so the interpreter's
    final collection skips the import-time heap, about 23,000 objects,
    which the operating system reclaims at once anyway.  By then ``main``
    has written and closed every output file; stdout and stderr are still
    flushed and atexit handlers still run, so no output byte and no exit
    code changes.  ``main`` itself never freezes: tests and scripts call it
    in process many times, and each freeze would put the cyclic garbage of
    the calls before it out of the collector's reach for good.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()

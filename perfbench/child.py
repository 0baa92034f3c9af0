"""Child process of the benchmark.

    python3 child.py setup <src> <command> <spec> [<gens>]
        Import the package from <src>, load spec, generators and point the
        way the CLI does, then print one JSON line: the perf_counter reading
        at that moment (CLOCK_MONOTONIC, comparable with the parent's) and
        the versions in use.

    python3 child.py trace <src> <record.json> <cli argument>...
        Run the CLI in this process under the tracer of tracer.py, write the
        trace record at exit and exit with the CLI's code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def _import_package(src: str):
    sys.path.insert(0, src)
    import fullgroup_lab.cli

    where = Path(fullgroup_lab.cli.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"fullgroup_lab imported from {where}, not from {src}")
    return fullgroup_lab.cli


def setup(src: str, command: str, spec_path: str, gens_path: str | None = None) -> int:
    cli = _import_package(src)
    fileio = cli.fileio
    spec = fileio.load_spec(Path(spec_path))
    if gens_path is not None:
        fileio.load_generator_set(Path(gens_path), spec)
    if command == "walk":
        desc = fileio.load_point_descriptor(Path(spec_path))
        if desc is not None:
            fileio.point_from_dict(spec, desc)
        else:
            cli.canonical_point(spec)
    print(json.dumps({"ready": perf_counter(), "package": cli.__file__}))
    return 0


def trace(src: str, record_path: str, argv: list[str]) -> int:
    cli = _import_package(src)
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.run_root(cli.main, argv)
    finally:
        Path(record_path).write_text(json.dumps(tracer.record()), encoding="utf-8")


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup(*rest)
    if mode == "trace":
        return trace(rest[0], rest[1], rest[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Outside-in tracing of one fullgroup-lab CLI run, and its per-layer metrics.

`install` wraps the layers' public functions at the names the CLI reaches
them under (``fullgroup_lab.cli`` for the stage entry points, the defining
modules for helpers the layers call on each other).  No program file is
changed: the wrappers are set on the imported modules of the traced process.

Two kinds of wrapper record the run:

* a *span* keeps name, start, end, parent id and ``ru_maxrss`` before and
  after, for calls that happen a few hundred times at most;
* a *counter* keeps call count and time of the outermost call only, for
  calls made up to millions of times (compose, factors, window).

Everything is kept in memory and written once, when the run ends.
`summarize` turns that record into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import resource
from time import perf_counter

# metric name -> unit and better direction; the per-layer half of BENCHMARK.json
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.rss_rise_mb": ("MB", "lower"),
    "fileio.load_s": ("s", "lower"),
    "fileio.write_s": ("s", "lower"),
    "fileio.bytes_written": ("bytes", "lower"),
    "subshifts.complexity_s": ("s", "lower"),
    "subshifts.complexity_calls": ("count", "lower"),
    "subshifts.rho_sum": ("count", "lower"),
    "subshifts.toeplitz_word_s": ("s", "lower"),
    "subshifts.toeplitz_word_letters": ("count", "lower"),
    "subshifts.factors_s": ("s", "lower"),
    "subshifts.factors_calls": ("count", "lower"),
    "points.window_s": ("s", "lower"),
    "points.window_calls": ("count", "lower"),
    "cocycles.ball_s": ("s", "lower"),
    "cocycles.ball_size": ("count", "lower"),
    "cocycles.compose_s": ("s", "lower"),
    "cocycles.compose_calls": ("count", "lower"),
    "cocycles.compose_unique_ratio": ("ratio", "higher"),
    "cocycles.rss_rise_mb": ("MB", "lower"),
    "walks.convolution_s": ("s", "lower"),
    "walks.support_sum": ("count", "lower"),
    "walks.support_final": ("count", "lower"),
    "walks.reports_s": ("s", "lower"),
    "walks.sample_s": ("s", "lower"),
    "walks.sample_steps_per_s": ("1/s", "higher"),
    "walks.sample_bytes": ("bytes", "lower"),
    "walks.rss_rise_mb": ("MB", "lower"),
    "walks.tail_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

ROOT_SPAN = "cli.main"
SPAN_GROUPS = ("fileio.load", "fileio.write", "subshifts.toeplitz_word", "cocycles.ball",
               "walks.convolution", "walks.reports", "walks.sample", "walks.tail")
COUNTER_GROUPS = ("subshifts.complexity", "subshifts.factors", "points.window",
                  "cocycles.compose")


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory record of spans and counters for one process."""

    def __init__(self):
        # span: [id, name, parent, start, end, rss_before_kb, rss_after_kb,
        #        child_s, child_rss_kb]; child_* sum the outermost calls below it
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counters = {g: {"calls": 0, "seconds": 0.0, "depth": 0} for g in COUNTER_GROUPS}
        self.counter_depth = 0
        self.values = {"rho_sum": 0, "toeplitz_letters": 0, "ball_size": 0,
                       "sample_bytes": 0, "supports": {}}
        self.compose_pairs: set[int] = set()
        self.written: set[str] = set()

    def _close_child(self, seconds: float, rss_kb: int) -> None:
        if self.open:
            parent = self.spans[self.open[-1]]
            parent[7] += seconds
            parent[8] += rss_kb

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(self.spans), name, self.open[-1] if self.open else None,
                   0.0, 0.0, maxrss_kb(), 0, 0.0, 0]
            self.spans.append(rec)
            self.open.append(rec[0])
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                rec[6] = maxrss_kb()
                self.open.pop()
                if self.counter_depth == 0:
                    self._close_child(rec[4] - rec[3], rec[6] - rec[5])
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn, on_call=None, on_result=None):
        stats = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            if on_call is not None:
                on_call(args)
            outermost = self.counter_depth == 0
            # RSS is read only around calls the CLI makes itself, for cli.rss_rise_mb
            at_root = outermost and len(self.open) == 1
            rss0 = maxrss_kb() if at_root else 0
            stats["depth"] += 1
            self.counter_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.counter_depth -= 1
                stats["depth"] -= 1
                if stats["depth"] == 0:
                    stats["seconds"] += dt
                if outermost:
                    self._close_child(dt, maxrss_kb() - rss0 if at_root else 0)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def run_root(self, fn, *args):
        return self.span(ROOT_SPAN, fn)(*args)

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "counters": {g: {"calls": c["calls"], "seconds": c["seconds"]}
                         for g, c in self.counters.items()},
            "values": dict(self.values, compose_unique=len(self.compose_pairs),
                           written={p: os.path.getsize(p) for p in sorted(self.written)}),
        }


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions of the imported fullgroup_lab."""
    import numpy as np
    from fullgroup_lab import cli, cocycles, fileio, points, subshifts, walks

    vals = tracer.values

    def add_written(args, result):
        tracer.written.add(str(result if result is not None else args[0]))

    def add_rho(args, result):
        vals["rho_sum"] += int(result)

    def add_letters(args, result):
        vals["toeplitz_letters"] += len(result)

    def set_ball_size(args, result):
        vals["ball_size"] = max(vals["ball_size"], len(result))

    def add_sample_bytes(args, result):
        vals["sample_bytes"] += sum(v.nbytes for v in vars(result).values()
                                    if isinstance(v, np.ndarray))

    def add_support(args, result):
        vals["supports"][result.n] = result.support_size

    def add_pair(args):
        tracer.compose_pairs.add(hash((hash(args[0]), hash(args[1]))))

    for name in ("load_spec", "load_generator_set", "load_point_descriptor", "point_from_dict"):
        setattr(fileio, name, tracer.span("fileio.load", getattr(fileio, name)))
    for name in ("write_table", "write_json", "write_manifest"):
        setattr(fileio, name, tracer.span("fileio.write", getattr(fileio, name), add_written))

    table = subshifts.LanguageTable
    table.complexity = tracer.counter("subshifts.complexity", table.complexity,
                                      on_result=add_rho)
    table.factors = tracer.counter("subshifts.factors", table.factors)
    subshifts.toeplitz_word = tracer.span("subshifts.toeplitz_word", subshifts.toeplitz_word,
                                          add_letters)

    points.Point.window = tracer.counter("points.window", points.Point.window)

    cli.ball = tracer.span("cocycles.ball", cli.ball, set_ball_size)
    compose = tracer.counter("cocycles.compose", cocycles.compose, on_call=add_pair)
    cocycles.compose = compose
    walks.compose = compose

    cache = cli.ConvolutionCache
    cache.power = tracer.span("walks.convolution", cache.power, add_support)
    cli.sample_orbit_walks = tracer.span("walks.sample", cli.sample_orbit_walks,
                                         add_sample_bytes)
    for name in ("supported_a_grid", "max_displacement_tail", "reflection_check"):
        setattr(cli, name, tracer.span("walks.tail", getattr(cli, name)))
    for name in ("stable_set_report", "entropy_envelope", "return_probability_suite"):
        setattr(cli, name, tracer.span("walks.reports", getattr(cli, name)))


def _outermost(spans: list[list], match) -> list[list]:
    """Spans whose name satisfies `match` and no ancestor's name does."""
    found = []
    for s in spans:
        if match(s[1]):
            parent = s[2]
            while parent is not None and not match(spans[parent][1]):
                parent = spans[parent][2]
            if parent is None:
                found.append(s)
    return found


def _layer_rss_mb(spans: list[list], layer: str) -> float:
    tops = _outermost(spans, lambda name: name.startswith(layer + "."))
    return sum(s[6] - s[5] for s in tops) / 1024.0


def summarize(record: dict, sample_steps: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from a traced run's record.

    `sample_steps` is trials x walk length of the workload (0 when it does not
    sample) and `overhead_s` the traced wall time minus the untraced median,
    both at reference speed.
    """
    spans = record["spans"]
    counters = record["counters"]
    vals = record["values"]
    root = next(s for s in spans if s[1] == ROOT_SPAN)
    group_s = {g: sum(s[4] - s[3] for s in _outermost(spans, lambda n, g=g: n == g))
               for g in SPAN_GROUPS}
    sample_s = group_s["walks.sample"]
    supports = {int(n): size for n, size in vals["supports"].items()}
    compose_calls = counters["cocycles.compose"]["calls"]
    metrics = {
        "cli.self_s": (root[4] - root[3]) - root[7],
        "cli.rss_rise_mb": (root[6] - root[5] - root[8]) / 1024.0,
        "fileio.load_s": group_s["fileio.load"],
        "fileio.write_s": group_s["fileio.write"],
        "fileio.bytes_written": sum(vals["written"].values()),
        "subshifts.complexity_s": counters["subshifts.complexity"]["seconds"],
        "subshifts.complexity_calls": counters["subshifts.complexity"]["calls"],
        "subshifts.rho_sum": vals["rho_sum"],
        "subshifts.toeplitz_word_s": group_s["subshifts.toeplitz_word"],
        "subshifts.toeplitz_word_letters": vals["toeplitz_letters"],
        "subshifts.factors_s": counters["subshifts.factors"]["seconds"],
        "subshifts.factors_calls": counters["subshifts.factors"]["calls"],
        "points.window_s": counters["points.window"]["seconds"],
        "points.window_calls": counters["points.window"]["calls"],
        "cocycles.ball_s": group_s["cocycles.ball"],
        "cocycles.ball_size": vals["ball_size"],
        "cocycles.compose_s": counters["cocycles.compose"]["seconds"],
        "cocycles.compose_calls": compose_calls,
        "cocycles.compose_unique_ratio": (vals["compose_unique"] / compose_calls
                                          if compose_calls else 0.0),
        "cocycles.rss_rise_mb": _layer_rss_mb(spans, "cocycles"),
        "walks.convolution_s": group_s["walks.convolution"],
        "walks.support_sum": sum(size for n, size in supports.items() if n > 0),
        "walks.support_final": supports[max(supports)] if supports else 0,
        "walks.reports_s": group_s["walks.reports"],
        "walks.sample_s": sample_s,
        "walks.sample_steps_per_s": sample_steps / sample_s if sample_s > 0 else 0.0,
        "walks.sample_bytes": vals["sample_bytes"],
        "walks.rss_rise_mb": _layer_rss_mb(spans, "walks"),
        "walks.tail_s": group_s["walks.tail"],
        "trace.overhead_s": overhead_s,
    }
    return metrics

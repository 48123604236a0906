"""In-memory spans around the benchmark's calls into the library.

A traced run wraps every call the benchmark makes into `core`, `models`,
`curves`, `oracle`, `simulate` and `cli` in a span named `<layer>.<call>`,
and every op in a root span `bench.op`.  Spans stay in memory and are
written out once the run ends.  Span times are process CPU time, like the
end-to-end timings.  A span's self time is its duration minus
the time its child spans cover; since spans sit only at the benchmark's
own call sites, library calls are leaves and an op's self time is the
benchmark's own work between calls.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict


class Tracer:
    """Records one span per `call`, with its parent span and op id.

    Spans are stored in columns (plain arrays) rather than one object per
    span, so that a long traced run does not add work to every garbage
    collection of the process it measures.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts, self.ends = array("q"), array("q")  # process CPU ns
        self.parents, self.ops = array("q"), array("q")
        self.failed = bytearray()
        self.tags: dict[int, str] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1  # -1 marks set-up work
        self.last = -1  # index of the most recently closed span
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.failed.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.process_time_ns())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed[idx] = 1
            raise
        finally:
            self.ends[idx] = time.process_time_ns()
            self._stack.pop()
            self.last = idx

    def tag_last(self, tag: str) -> None:
        self.tags[self.last] = tag

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def durations_ns(self) -> list[int]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def child_ns(self) -> list[int]:
        """Per span, the summed duration of its direct children."""
        child = [0] * len(self.names)
        for parent, dur in zip(self.parents, self.durations_ns()):
            if parent >= 0:
                child[parent] += dur
        return child

    def self_times_ns(self) -> list[int]:
        """Per-span duration minus the duration of its direct children."""
        return [dur - c for dur, c in zip(self.durations_ns(), self.child_ns())]

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end (CPU ns), parent index, op id."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                record = {"name": name, "start_ns": self.starts[i], "end_ns": self.ends[i],
                          "parent": self.parents[i], "op": self.ops[i],
                          "failed": bool(self.failed[i])}
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    """The untraced run: calls go straight through and nothing is recorded."""

    op = -1

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def tag_last(self, tag: str) -> None:
        pass

    def count(self, name: str, amount: float) -> None:
        pass


NULL = NullTracer()

LAYERS = ("simulate", "core", "models", "curves", "oracle", "cli")

#: Every span name a workload opens, so that each traced run reports the same keys.
SPAN_NAMES = (
    "simulate.sample_rounds",
    "simulate.empirical_stats",
    "simulate.chsh_standard_error",
    "simulate.rounds_to_csv",
    "simulate.rounds_from_csv",
    "core.save_model",
    "core.load_model",
    "core.chsh_value",
    "core.mutual_information",
    "core.correlations_of",
    "core.is_nonsignaling",
    "models.build",
    "models.flip_lift",
    "models.biased_lift",
    "models.biased_info",
    "curves.curve_point",
    "curves.i_1",
    "curves.i_2_pair",
    "curves.s0",
    "curves.curve_sweep",
    "curves.sweep_to_csv",
    "oracle.retro",
    "oracle.causal",
    "oracle.onesided",
    "oracle.verify_bound_chain",
    "cli.reproduce",
)

#: Counters a workload adds with `Tracer.count`.
COUNT_NAMES = {
    "simulate.sample_rounds.rounds": "count",
    "simulate.rounds_to_csv.bytes": "bytes",
    "oracle.search.options": "count",
}


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Self time per span name and per layer, call and failure counts, and counters."""
    busy: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    failed: dict[str, int] = defaultdict(int)
    i2_ns = 0
    for i, (name, ns) in enumerate(zip(tracer.names, tracer.self_times_ns())):
        if name not in SPAN_NAMES and name != "bench.op":
            raise KeyError(f"span {name!r} is not declared in SPAN_NAMES")
        layer = name.split(".", 1)[0]
        busy[name] += ns
        busy[layer] += ns
        calls[name] += 1
        calls[layer] += 1
        failed[layer] += tracer.failed[i]
        if tracer.tags.get(i) == "I2":
            i2_ns += ns

    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.busy_s"] = (busy[name] / 1e9, "s")
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (busy[layer] / 1e9, "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.failed"] = (failed[layer], "count")
    out["bench.busy_s"] = (busy["bench"] / 1e9, "s")
    out["curves.curve_point.calls"] = (calls["curves.curve_point"], "count")
    cp = busy["curves.curve_point"]
    out["curves.curve_point.i2_share"] = (i2_ns / cp if cp else 0.0, "share")
    for name, unit in COUNT_NAMES.items():
        out[name] = (tracer.counts[name], unit)
    out["trace.spans"] = (len(tracer.names), "count")
    return out


def op_coverage(tracer: Tracer) -> tuple[float, float]:
    """Share of op CPU time that library-call spans cover: over all ops, and the least per op."""
    ops = [(c, d) for name, c, d in zip(tracer.names, tracer.child_ns(), tracer.durations_ns())
           if name == "bench.op" and d > 0]
    if not ops:
        return 0.0, 0.0
    total = sum(c for c, _ in ops) / sum(d for _, d in ops)
    return total, min(c / d for c, d in ops)

"""Span recorder of the traced run and the per-layer metrics it yields.

Spans are opened by the benchmark around each call it makes into a public
function of a shapeforms module; nothing inside the library is
instrumented. They are kept in memory and written out once, at the end of
the run. With tracing off, :class:`NullTracer` stands in and only calls
through.
"""

import contextlib
import json
import statistics
import time

#: Counts recorded per round at the call boundaries inside operations.
ROUND_COUNTS = ("reconstruction.iterations", "reconstruction.unconverged",
                "evaluation.svm_fits")

#: Lie-group kernels timed per element: span name -> metric stem.
KERNELS = {
    "liegroups.polar3": "ns_per_matrix",
    "liegroups.so3_log": "ns_per_matrix",
    "liegroups.so3_exp": "ns_per_vector",
    "liegroups.spd2_log": "ns_per_matrix",
    "liegroups.spd2_exp": "ns_per_matrix",
}


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False
    op_id = None
    counts = {}

    def span(self, name, **attrs):
        return contextlib.nullcontext({})

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def annotate(self, **attrs):
        pass

    def count(self, name, n=1):
        pass


class Tracer(NullTracer):
    """Records spans (name, start, end, parent, operation id) and counts."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = dict.fromkeys(ROUND_COUNTS, 0)
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "op": self.op_id, "start": None, "end": None}
        record.update(attrs)
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def annotate(self, **attrs):
        """Add attributes to the span of the last call."""
        last = next(s for s in reversed(self.spans) if s["end"] is not None)
        last.update(attrs)

    def count(self, name, n=1):
        self.counts[name] += n

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path):
        """Write every span with its self time: its duration minus the
        part covered by its children (children never overlap)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = []
        for s, covered in zip(self.spans, child_time):
            row = dict(s)
            row["self"] = (s["end"] - s["start"]) - covered
            out.append(row)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": out}, handle)
            handle.write("\n")


def per_layer_metrics(tracer, per_layer, round_counts, run_s, operations, scale):
    """Per-layer values from the spans of a traced run, for the metrics
    that ``per_layer`` (the entries of ``BENCHMARK.json``) lists.

    A ``*_s`` metric is the median duration of the spans named like it
    without the suffix. Every time is multiplied by ``scale``, the
    host-speed factor of :mod:`hostspeed`, as the end-to-end times are.
    ``round_counts`` are the counts of the first timed round, so they repeat
    exactly from run to run; ``run_s`` is the traced run's ``run_s``, scaled
    like the untraced one, and ``operations`` its operations per round.
    """
    values = {}
    for name in (m["name"] for m in per_layer):
        if name.endswith("_s") and not name.startswith("traced."):
            durations = tracer.durations(name[:-2])
            if not durations:
                raise RuntimeError(f"no span recorded for {name}")
            values[name] = scale * statistics.median(durations)
    for span_name, stem in KERNELS.items():
        spans = [s for s in tracer.spans if s["name"] == span_name]
        if not spans:
            raise RuntimeError(f"no span recorded for {span_name}")
        values[f"{span_name}_{stem}"] = 1e9 * scale * statistics.median(
            (s["end"] - s["start"]) / s["items"] for s in spans)
        values[f"{span_name}_computed_bytes"] = spans[-1]["bytes"]
    solves = [s for s in tracer.spans
              if s["name"] == "reconstruction.reconstruct" and "rounds" in s]
    if not solves:
        raise RuntimeError("no reconstruction span carries its round count")
    values["reconstruction.s_per_iteration"] = scale * (
        sum(s["end"] - s["start"] for s in solves) / sum(s["rounds"] for s in solves))
    values.update(round_counts)
    values["traced.run_s"] = run_s
    values["traced.operations"] = operations
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in per_layer}

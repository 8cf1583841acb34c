"""Layer spans recorded from outside the package, for the traced benchmark run.

The tracer replaces the public entry points of each layer, in every
``demazure_sl2`` module that refers to them, with a wrapper that records a
span (layer, name, start, end, parent span, job) and a few counters.  Calls
made from one layer into another therefore nest, so each layer's self time
is its span time minus the time of the spans it caused.  A call into a layer
that already has an open span is not recorded again: the open span covers it.

Spans are kept in memory and written out at the end of a pass.  Nothing is
recorded while ``recording`` is false, which is how the benchmark keeps its
own output checks out of the layer numbers.

``demazure.peak_bytes`` is measured separately: after each job, with the
job's clock stopped, the operator call with the largest input is run once
more under ``tracemalloc``, so the allocator hook never slows a timed call.
"""

from __future__ import annotations

import json
import os
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from operator import itemgetter
from time import perf_counter

# layer -> (module, public functions whose calls are spans of that layer)
LAYER_ENTRY_POINTS = {
    "demazure": ("demazure", ("apply_demazure",)),
    "closedform": ("closedform", ("level1_distribution", "gaussian_binomial", "palindromicity_check")),
    "moments": (
        "moments",
        ("raw_moments", "expectation", "covariance", "variance", "covariance_matrix", "pushforward"),
    ),
    "asymptotics": ("asymptotics", ("wlln_series", "conjecture_check", "rescaled_summary")),
    "serialize": ("serialize", ("distribution_csv", "distribution_json", "wlln_csv", "conjecture_json")),
    "render": ("render", ("heatmap", "degree_histogram", "ellipse_document", "ellipse_path")),
    "cli": ("cli", ("main",)),
}

# asymptotics is reported inclusive of the layers it calls; every other
# layer reports self time
INCLUSIVE_LAYERS = {"asymptotics"}

_first_value = itemgetter(0)
_second_value = itemgetter(1)


def _count_demazure(tracer: "Tracer", args, result) -> None:
    j, mu = args[0], args[1]
    counts = tracer.counts
    counts["demazure.points_in"] += len(mu)
    counts["demazure.points_out"] += len(result)
    # a D_j string is the set of points sharing the coordinate alpha_j does not move
    fixed = itemgetter(1 - j)
    counts["demazure.strings"] += len(set(map(fixed, map(_first_value, mu.items()))))
    if len(result):
        bits = max(map(abs, map(_second_value, result.items()))).bit_length()
        counts["demazure.max_mult_bits"] = max(counts["demazure.max_mult_bits"], bits)
    if tracer.largest is None or len(mu) > tracer.largest[0]:
        tracer.largest = (len(mu), j, mu)


def _count_points_in(layer: str):
    def count(tracer: "Tracer", args, result) -> None:
        if args and hasattr(args[0], "__len__"):
            tracer.counts[f"{layer}.points_in"] += len(args[0])

    return count


def _count_points_out(tracer: "Tracer", args, result) -> None:
    if hasattr(result, "support_size"):
        tracer.counts["closedform.points_out"] += len(result)


def _count_bytes(layer: str):
    def count(tracer: "Tracer", args, result) -> None:
        if isinstance(result, str):  # the package emits ASCII only
            tracer.counts[f"{layer}.bytes_out"] += len(result)

    return count


def _count_cli(tracer: "Tracer", args, result) -> None:
    argv = list(args[0]) if args else []
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            tracer.counts["cli.bytes_out"] += os.path.getsize(path)


_COUNTERS = {
    "demazure": _count_demazure,
    "closedform": _count_points_out,
    "moments": _count_points_in("moments"),
    "serialize": _count_bytes("serialize"),
    "render": _count_bytes("render"),
    "cli": _count_cli,
}


class Tracer:
    """In-memory span recorder for one pass of a job list."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, start, end, parent index, job]
        self.stack: list[int] = []
        self.open_layers: set[str] = set()
        self.counts: dict[str, float] = defaultdict(int)
        self.installed = False
        self.recording = False
        self.job = -1
        self.largest: tuple | None = None  # (points in, j, distribution) of the biggest D_j call
        self.peak_bytes = 0
        self.counter_s = 0.0  # time spent computing counters, inside timed segments
        self._apply_demazure = None

    def install(self) -> None:
        """Wrap every layer entry point in all loaded demazure_sl2 modules."""
        self.installed = True
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "demazure_sl2"]
        for layer, (module_name, names) in LAYER_ENTRY_POINTS.items():
            module = sys.modules[f"demazure_sl2.{module_name}"]
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                if layer == "demazure":
                    self._apply_demazure = original
                wrapped = self._wrap(layer, name, original)
                for mod in package:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapped)

    def _wrap(self, layer: str, name: str, fn):
        counter = _COUNTERS.get(layer)

        def wrapper(*args, **kwargs):
            if not self.recording or layer in self.open_layers:
                return fn(*args, **kwargs)
            with self.span(layer, name):
                result = fn(*args, **kwargs)
            if counter is not None:
                start = perf_counter()
                counter(self, args, result)
                self.counter_s += perf_counter() - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def _span(self, layer: str, name: str):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [layer, name, perf_counter(), 0.0, parent, self.job]
        self.spans.append(span)
        self.stack.append(index)
        self.open_layers.add(layer)
        try:
            yield
        finally:
            span[3] = perf_counter()
            self.stack.pop()
            self.open_layers.discard(layer)

    def span(self, layer: str, name: str):
        """Context manager recording one span; a no-op while not recording."""
        if not self.recording:
            return nullcontext()
        return self._span(layer, name)

    def probe_peak(self) -> None:
        """Re-run the largest D_j call of the job under tracemalloc; untimed."""
        if self.largest is None or self._apply_demazure is None:
            return
        _, j, mu = self.largest
        self.largest = None
        tracemalloc.start()
        try:
            self._apply_demazure(j, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.peak_bytes = max(self.peak_bytes, peak)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass whose timed job work took ``wall_s`` raw seconds."""
        durations = [s[3] - s[2] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                child[s[4]] += durations[i]
        out: dict[str, float] = {}
        for layer in LAYER_ENTRY_POINTS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
        out["verify.chain_s"] = 0.0
        out["verify.suite_s"] = 0.0
        for i, (layer, name, *_rest) in enumerate(self.spans):
            if layer == "verify":
                out[f"verify.{name}_s"] += durations[i]
                continue
            out[f"{layer}.calls"] += 1
            own = durations[i] if layer in INCLUSIVE_LAYERS else durations[i] - child[i]
            out[f"{layer}.busy_s"] += own
        for key in (
            "demazure.points_in",
            "demazure.points_out",
            "demazure.strings",
            "demazure.max_mult_bits",
            "moments.points_in",
            "closedform.points_out",
            "serialize.bytes_out",
            "render.bytes_out",
            "cli.bytes_out",
            "verify.checks",
            "verify.failed",
        ):
            out[key] = self.counts.get(key, 0)
        out["demazure.peak_bytes"] = self.peak_bytes
        points_out = out["demazure.points_out"]
        out["demazure.ns_per_point_out"] = out["demazure.busy_s"] * 1e9 / points_out if points_out else 0.0
        # the share of the work an untraced pass would have done
        work_s = wall_s - self.counter_s
        out["demazure.wall_share"] = out["demazure.busy_s"] / work_s if work_s > 0 else 0.0
        points_in = out["moments.points_in"]
        out["moments.ns_per_point"] = out["moments.busy_s"] * 1e9 / points_in if points_in else 0.0
        return out

    def write(self, path: str) -> None:
        """Write the recorded spans, one JSON object per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for layer, name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"layer": layer, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                    )
                    + "\n"
                )

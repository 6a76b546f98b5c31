"""Outside-in tracing of combcube's six layers, from the benchmark's side.

While a Tracer is installed, each public function of a layer module is
replaced by a wrapper wherever the lookup crosses a layer boundary: from
the package root or from another layer, such as
``combcube.gates.geometric_product`` or ``combcube.render.nu_of_x``.  The
wrapper records a span under the layer that defines the function.  A
layer's lookups of its own functions, such as ``apply_gate`` inside
``apply_circuit`` or ``blade_product`` inside ``geometric_product``, keep
the original function, so no wrapper runs in the inner loops being
measured; counts of those calls are derived from the arguments of the
boundary call (a circuit's length, a lattice's cell count).  Private
helpers and classes get no wrapper; ``Multivector.__init__`` and the
callable returned by ``sine_warp`` are counted without a span.

A span is (name index, start, end, parent span index or -1).  A layer's
self time is its spans' duration minus the time covered by their child
spans.  combcube's source is not touched.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import NamedTuple

LAYERS = ("algebra", "coding", "gates", "statevector", "colorwheel", "render")
KEEP_SPANS = 100_000  # spans kept for write_spans, from the first requests

# Per-request metrics of the traced run, with units.  *_ms are medians over
# traced requests, *.share are layer self time over request time, counts and
# bytes are means per request.  <layer>.calls counts calls into the layer from
# outside it; <layer>.<function>.calls also counts the layer's calls to its own
# function.
PER_LAYER_UNITS = {
    **{f"{layer}.{suffix}": unit for layer in LAYERS
       for suffix, unit in (("calls", "count"), ("self_ms", "ms"), ("share", "ratio"))},
    "algebra.geometric_product.calls": "count",
    "algebra.product_pairs": "count",
    "algebra.multivectors_built": "count",
    "gates.apply_gate.calls": "count",
    "gates.apply_circuit.calls": "count",
    "gates.lattice_cells": "count",
    "statevector.sv_apply_gate.calls": "count",
    "statevector.amplitude_pairs": "count",
    "coding.lattice_from_json.self_ms": "ms",
    "coding.lattice_to_json.self_ms": "ms",
    "coding.json_bytes_read": "bytes",
    "coding.json_bytes_written": "bytes",
    "colorwheel.nu_of_x.calls": "count",
    "colorwheel.rgb_to_hex.calls": "count",
    "colorwheel.distinct_colours_ratio": "ratio",
    "render.lattice_scene.self_ms": "ms",
    "render.emit_svg.self_ms": "ms",
    "render.primitives": "count",
    "render.deform_calls": "count",
    "render.svg_bytes": "bytes",
    "other.share": "ratio",
    "trace.overhead_frac": "ratio",
}

_JSON_READERS = ("coding.lattice_from_json", "coding.multivector_from_json")
_JSON_WRITERS = ("coding.lattice_to_json", "coding.multivector_to_json")


class Span(NamedTuple):
    name: int
    start: float
    end: float
    parent: int


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


class Tracer:
    """Wraps combcube's public functions and turns spans into layer metrics.

    Call ``install`` and ``uninstall`` around traced requests, ``begin``
    before each one and ``end`` after it.  Spans of the first requests,
    up to ``KEEP_SPANS`` in all, are kept for ``write_spans``.
    """

    def __init__(self, package):
        self._teleport_network = package.teleport_network()
        self.names: list[str] = []
        self.kept: list[tuple[int, list[Span]]] = []
        self._kept_spans = 0
        # per-request values behind the *_ms medians; sums of everything
        self._per_request = {f"{name[:-len('.self_ms')]}.self_s": array("d")
                             for name in PER_LAYER_UNITS if name.endswith(".self_ms")}
        self._latencies = array("d")
        self._sums: Counter = Counter()
        self._patches = []  # (namespace, attribute, original, wrapper)
        self._spans: list = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._colours: set = set()

        functions = {}  # id -> (function, defining layer, name index)
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self.names.append(f"{layer}.{attr}")
                functions[id(fn)] = (fn, layer, len(self.names) - 1)
        wrappers = {}
        prefix = package.__name__ + "."
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == package.__name__ or modname.startswith(prefix)):
                continue
            for attr, value in vars(module).items():
                if id(value) not in functions:
                    continue
                fn, layer, index = functions[id(value)]
                if modname == f"{prefix}{layer}":
                    continue  # a layer's own lookup: no wrapper inside the layer
                if index not in wrappers:
                    wrappers[index] = self._wrap(index, fn)
                self._patches.append((module, attr, value, wrappers[index]))
        mv = package.Multivector
        original_init = mv.__init__

        def counting_init(obj, *args, **kwargs):
            self._counts["algebra.multivectors_built"] += 1
            original_init(obj, *args, **kwargs)

        self._patches.append((mv, "__init__", original_init, counting_init))

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def _wrap(self, index: int, fn):
        hook = self._hook(self.names[index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._spans, self._stack
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(index)  # an open span holds its name index
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = Span(index, start, end, parent)
            if hook is not None:
                result = hook(args, result)
            return result

        return traced

    def _hook(self, name: str):
        """Counters kept at the boundary of ``name``, or None."""
        def run_circuit(circuit, times: int = 1) -> None:
            self._counts["gates.apply_gate.calls"] += times * len(circuit)

        if name == "algebra.geometric_product":
            def hook(args, result):
                a, b = args[:2]
                self._counts["algebra.product_pairs"] += (
                    int((a.coeffs != 0).sum()) * int((b.coeffs != 0).sum()))
                return result
        elif name == "gates.apply_circuit":
            def hook(args, result):
                run_circuit(args[0])
                return result
        elif name == "gates.apply_circuit_lattice":
            def hook(args, result):
                cells = len(args[1])
                self._counts["gates.lattice_cells"] += cells
                self._counts["gates.apply_circuit.calls"] += cells
                run_circuit(args[0], cells)
                return result
        elif name == "gates.teleport":
            def hook(args, result):
                self._counts["gates.apply_circuit.calls"] += 1
                run_circuit(self._teleport_network)
                return result
        elif name == "statevector.sv_apply_circuit":
            def hook(args, result):
                circuit, size = args[0], args[1].amps.size
                self._counts["statevector.sv_apply_gate.calls"] += len(circuit)
                self._counts["statevector.amplitude_pairs"] += sum(
                    size >> (1 if gate.control is None else 2) for gate in circuit)
                return result
        elif name in _JSON_READERS:
            def hook(args, result):
                self._counts["coding.json_bytes_read"] += len(args[0].encode())
                return result
        elif name in _JSON_WRITERS:
            def hook(args, result):
                self._counts["coding.json_bytes_written"] += len(result.encode())
                return result
        elif name in ("render.lattice_scene", "render.cube_scene"):
            def hook(args, result):
                self._counts["render.primitives"] += len(result.elements)
                return result
        elif name == "render.emit_svg":
            def hook(args, result):
                self._counts["render.svg_bytes"] += len(result.encode())
                return result
        elif name == "render.sine_warp":
            def hook(args, deform):
                def counted(p):
                    self._counts["render.deform_calls"] += 1
                    return deform(p)
                return counted
        elif name == "colorwheel.rgb_to_hex":
            def hook(args, result):
                self._colours.add(result)
                return result
        else:
            hook = None
        return hook

    def begin(self) -> None:
        self._spans, self._stack = [], []
        self._counts, self._colours = Counter(), set()

    def end(self, request_id: int, latency_s: float) -> None:
        """Reduce the current request's spans to its per-layer figures."""
        spans = self._spans
        values = Counter(self._counts)
        layer_self = Counter()
        top_level = 0.0
        for span, own in zip(spans, self_times(spans)):
            name = self.names[span.name]
            layer = name.split(".", 1)[0]
            values[f"{name}.calls"] += 1
            values[f"{layer}.calls"] += 1
            values[f"{name}.self_s"] += own
            layer_self[layer] += own
            if span.parent < 0:
                top_level += span.end - span.start
        calls = values["colorwheel.rgb_to_hex.calls"]
        values["colorwheel.distinct_colours_ratio"] = len(self._colours) / calls if calls else 0.0
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_self[layer]
        values["other.self_s"] = latency_s - top_level
        values["latency_s"] = latency_s
        self._sums.update(values)
        for key, per_request in self._per_request.items():
            per_request.append(values[key])
        self._latencies.append(latency_s)
        if self._kept_spans + len(spans) <= KEEP_SPANS:
            self.kept.append((request_id, spans))
            self._kept_spans += len(spans)

    def metrics(self, untraced_latencies) -> dict[str, float]:
        """Per-layer metrics over every traced request so far."""
        sums, n = self._sums, len(self._latencies)
        out = {}
        for name in PER_LAYER_UNITS:
            base, _, suffix = name.rpartition(".")
            if suffix == "self_ms":
                out[name] = 1e3 * statistics.median(self._per_request[f"{base}.self_s"])
            elif suffix == "share":
                out[name] = sums[f"{base}.self_s"] / sums["latency_s"]
            elif name != "trace.overhead_frac":
                out[name] = sums[name] / n
        # Traced and untraced requests alternate, so their means see the same
        # host; medians would jump between the host's fast and slow modes.
        out["trace.overhead_frac"] = (
            statistics.fmean(self._latencies) / statistics.fmean(untraced_latencies) - 1.0)
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        count = 0
        with open(path, "w") as fh:
            for request_id, spans in self.kept:
                for span_id, span in enumerate(spans):
                    fh.write(json.dumps({
                        "request": request_id, "span": span_id,
                        "name": self.names[span.name], "start": span.start,
                        "end": span.end, "parent": span.parent}) + "\n")
                    count += 1
        return count

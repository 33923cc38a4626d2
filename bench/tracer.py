"""Spans recorded from the benchmark's side of each call into a neca layer.

A span has a name ``<layer>.<call>``, a start, an end, a parent span and the
pass it belongs to.  Spans are kept in memory and written out once, when
the run ends.  Calls the benchmark makes itself are spanned by
``Tracer.call``; calls made inside the library (for example ``train``
inside ``run_pipeline`` and each epoch's ``forward_loss``, ``backward`` and
``adam_step`` inside ``train``) are spanned by temporarily wrapping the
module attribute the library looks them up through, so a traced pass runs
the same code as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

# (module, attribute, span name) for calls the library makes internally.
# A missing attribute is skipped, so a later refactor that removes one only
# empties the metrics of that call.
NESTED_CALLS = (
    ("neca.cli", "build_hetnet", "cavnet.build_hetnet"),
    ("neca.cli", "train", "training.train"),
    ("neca.cavnet", "build_node_set", "cavnet.build_node_set"),
    ("neca.cavnet", "build_inter_network", "cavnet.build_inter_network"),
    ("neca.cavnet", "build_intra_network", "cavnet.build_intra_network"),
    ("neca.encoders", "build_node_set", "cavnet.build_node_set"),
    ("neca.model", "assemble_objects", "model.assemble_objects"),
    ("neca.training", "forward_loss", "training.forward_loss"),
    ("neca.training", "forward_fused", "model.forward_fused"),
    ("neca.autodiff", "backward", "autodiff.backward"),
    ("neca.training", "adam_step", "training.adam_step"),
    ("neca.training", "compute_table", "model.compute_table"),
)


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans = []       # [id, name, parent, pass, start, end]
        self.counts = []      # [span id, name, value]
        self._stack = []
        self._pass = None
        # span name -> hook run once, on the first return of a wrapped call
        self.on_return = {}

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, parent, self._pass, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record[0]
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, value):
        self.counts.append([self._stack[-1] if self._stack else None, name, value])

    @contextlib.contextmanager
    def traced_pass(self, index):
        """Every span opened inside belongs to pass ``index``."""
        self._pass = index
        try:
            with self.span("bench.pass"):
                yield
        finally:
            self._pass = None

    @contextlib.contextmanager
    def nested_calls(self):
        """Span the library's internal calls listed in ``NESTED_CALLS``."""
        saved = []
        try:
            for module_name, attr, span_name in NESTED_CALLS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                value = fn(*args, **kwargs)
            hook = self.on_return.pop(name, None)
            if hook is not None:
                with self.span("bench.on_return"):
                    hook(self, value)
            return value
        return wrapper

    @staticmethod
    def span_cost(repeats=2000, batches=5):
        """Seconds a wrapped call spends on its span: median over batches of a no-op."""
        def noop():
            return None

        wrapped = Tracer()._wrap("probe", noop)
        costs = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(repeats):
                noop()
            t1 = time.perf_counter()
            for _ in range(repeats):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / repeats)
        return statistics.median(costs)

    def durations(self, pass_index):
        """span name -> list of durations in seconds, for one pass."""
        out = defaultdict(list)
        for _, name, _, p, start, end in self.spans:
            if p == pass_index:
                out[name].append(end - start)
        return out

    def start_gaps(self, pass_index, name):
        """Seconds between consecutive starts of spans ``name`` with the same parent."""
        starts = defaultdict(list)
        for _, span_name, parent, p, start, _ in self.spans:
            if p == pass_index and span_name == name:
                starts[parent].append(start)
        return [b - a for s in starts.values() for a, b in zip(s, s[1:])]

    def self_times(self, pass_index, key=lambda name: name.split(".")[0]):
        """key(span name) -> seconds in those spans minus their child spans.

        The default key is the layer, the part of the name before the dot.
        """
        child_time = defaultdict(float)
        for _, _, parent, p, start, end in self.spans:
            if p == pass_index and parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, name, _, p, start, end in self.spans:
            if p == pass_index:
                out[key(name)] += end - start - child_time[sid]
        return out

    def write(self, path):
        keys = ("id", "name", "parent", "pass", "start", "end")
        payload = {"spans": [dict(zip(keys, s)) for s in self.spans],
                   "counts": [dict(zip(("span", "name", "value"), c)) for c in self.counts]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

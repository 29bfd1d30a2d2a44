"""Outside-in tracing: spans recorded around the program's layer functions.

The tracer replaces a function under the name its caller looks it up by
(for example ``feddrift.engine.run_local_round``, which the engine
imported from the federation module) with a wrapper that records one
span per call: name, start, end, parent span, and run id. Spans stay in
memory and are written out once, at the end. The program itself is not
edited; :meth:`Tracer.close` puts every original function back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

import feddrift
from feddrift import cli, data, engine, federation, models

MB = 1e6


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


def self_times(spans) -> list:
    """Per span: its duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's and may nest or overlap;
    covered time is counted once.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        ivals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def unique_nbytes(obj) -> int:
    """Bytes of the distinct numpy buffers reachable from obj.

    Walks lists, tuples and object attributes, so shared vectors count
    once whatever container holds them.
    """
    seen = {}
    stack = [obj]
    visited = set()
    while stack:
        o = stack.pop()
        if isinstance(o, feddrift.ParamVector):
            o = o.values
        if isinstance(o, np.ndarray):
            root = o
            while isinstance(root.base, np.ndarray):
                root = root.base
            seen[id(root)] = root.nbytes
            continue
        if id(o) in visited or isinstance(o, (str, bytes, int, float, bool, type(None))):
            continue
        visited.add(id(o))
        if isinstance(o, (list, tuple)):
            stack.extend(o)
        elif hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return sum(seen.values())


# Layer metrics read from span self times: metric name -> span name.
SELF_TIME_METRICS = {
    "data.generate_synthetic_s": "data.generate_synthetic",
    "data.load_mnist_idx_s": "data.load_mnist_idx",
    "data.partition_s": "data.partition",
    "engine.init_s": "engine.init",
    "engine.round_self_s": "engine.round",
    "engine.checkpoint_save_s": "engine.checkpoint_save",
    "engine.checkpoint_restore_s": "engine.checkpoint_restore",
    "engine.write_outputs_s": "engine.write_outputs",
    "federation.local_round_s": "federation.local_round",
    "federation.aggregate_s": "federation.aggregate",
    "federation.grad_variance_s": "federation.grad_variance",
    "vectors.weighted_mean_s": "vectors.weighted_mean",
    "federation.sample_s": "federation.sample",
    "federation.apply_update_s": "federation.apply_update",
    "models.eval_accuracy_s": "models.eval_accuracy",
    "models.eval_loss_s": "models.eval_loss",
    "rng.stream_s": "rng.stream",
    "cli.build_experiment_s": "cli.build_experiment",
}

# Layer metrics counted or sampled at the wrapped boundaries.
COUNT_METRICS = (
    "data.partition_samples",
    "federation.local_rounds",
    "federation.client_steps",
    "federation.bytes_up",
    "federation.bytes_down",
    "models.eval_samples",
    "rng.streams_opened",
)
GAUGE_METRICS = ("engine.checkpoint_mb", "engine.client_state_mb", "engine.checkpoint_useful_ratio")
DERIVED_METRICS = ("federation.step_us",)
OVERHEAD_METRIC = "trace.overhead_ratio"

LAYER_METRICS = (
    tuple(SELF_TIME_METRICS) + COUNT_METRICS + GAUGE_METRICS + DERIVED_METRICS
)


class Tracer:
    """Records spans, counts and gauges; one run id per benchmark operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)  # (run_id, metric) -> total
        self.gauges = {}  # (run_id, metric) -> max value seen
        self.run_id = 0
        self._stack: list[int] = []
        self._patches = []

    # -- recording -------------------------------------------------------
    def count(self, metric: str, amount=1) -> None:
        self.counts[(self.run_id, metric)] += amount

    def gauge(self, metric: str, value: float) -> None:
        key = (self.run_id, metric)
        self.gauges[key] = max(value, self.gauges.get(key, value))

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        `after(args, result)` runs once the span is closed, so the
        bookkeeping it does is not charged to the layer.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def close(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def trace(self, fn, run_id: int):
        """Call fn() with every layer boundary wrapped; its spans carry run_id."""
        self.run_id = run_id
        instrument(self)
        try:
            with self.span("bench.op"):
                return fn()
        finally:
            self.close()

    # -- results ---------------------------------------------------------
    def layer_metrics(self, run_id: int) -> dict:
        """Every LAYER_METRICS value for one run id."""
        selfs = defaultdict(float)
        for span, st in zip(self.spans, self_times(self.spans)):
            if span.run_id == run_id:
                selfs[span.name] += st
        out = {m: selfs[s] for m, s in SELF_TIME_METRICS.items()}
        for m in COUNT_METRICS:
            out[m] = self.counts.get((run_id, m), 0)
        for m in GAUGE_METRICS:
            out[m] = self.gauges.get((run_id, m), 0.0)
        steps = out["federation.client_steps"]
        out["federation.step_us"] = (
            out["federation.local_round_s"] / steps * 1e6 if steps else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write every span, with its self time, as JSON."""
        rows = []
        for span, st in zip(self.spans, self_times(self.spans)):
            row = asdict(span)
            row["self"] = st
            rows.append(row)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    t = tracer
    w = t.wrap
    w(engine, "generate_synthetic", "data.generate_synthetic")
    w(engine, "load_mnist_idx", "data.load_mnist_idx")
    w(engine, "partition", "data.partition",
      after=lambda a, r: t.count("data.partition_samples", len(a[0])))
    for owner in (engine, data):
        w(owner, "stream", "rng.stream", after=lambda a, r: t.count("rng.streams_opened"))
    w(engine.FederatedRun, "__init__", "engine.init")

    def after_round(args, rec):
        t.count("federation.bytes_up", rec.bytes_up)
        t.count("federation.bytes_down", rec.bytes_down)
        t.gauge("engine.client_state_mb", unique_nbytes(args[0].clients) / MB)

    w(engine.FederatedRun, "run_round", "engine.round", after=after_round)

    def after_save(args, _):
        path, server, clients = args[:3]
        size = os.path.getsize(path)
        t.gauge("engine.checkpoint_mb", size / MB)
        t.gauge("engine.checkpoint_useful_ratio",
                (unique_nbytes(clients) + unique_nbytes(server)) / size)

    w(engine, "checkpoint_save", "engine.checkpoint_save", after=after_save)
    w(engine, "checkpoint_restore", "engine.checkpoint_restore")
    for owner in (engine, cli):
        w(owner, "write_records_csv", "engine.write_outputs")
        w(owner, "write_summary_json", "engine.write_outputs")

    def after_local(args, up):
        t.count("federation.local_rounds")
        t.count("federation.client_steps", up.k_steps)

    w(engine, "run_local_round", "federation.local_round", after=after_local)
    w(engine, "server_aggregate", "federation.aggregate")
    w(engine, "gradient_variance_diagnostic", "federation.grad_variance")
    w(engine, "sample_active_set", "federation.sample")
    w(engine, "apply_update", "federation.apply_update")
    w(federation, "weighted_mean", "vectors.weighted_mean")
    w(models, "accuracy", "models.eval_accuracy",
      after=lambda a, r: t.count("models.eval_samples", len(a[2])))
    w(models, "mean_loss", "models.eval_loss",
      after=lambda a, r: t.count("models.eval_samples", len(a[2])))
    w(cli, "build_experiment", "cli.build_experiment")

"""In-memory span tracing of descnet, applied from outside the package.

The tracer wraps descnet's public functions at the names their callers
resolve (module attributes, names bound inside ``model.py``, class methods),
so the package itself carries no instrumentation. Wrappers are installed only
around traced operations and removed afterwards; an untraced operation runs
the original functions.

Each span records its name, start, end, parent and the id of the benchmark
operation it belongs to. A span's self time is its duration minus the time
its direct child spans cover (calls are single-threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

import descnet.corpus
import descnet.descriptors
import descnet.metrics
import descnet.model
import descnet.nn
import descnet.numerics

now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "child_time", "kind", "extra")

    def __init__(self, name, start, parent, op_id, kind):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op_id = op_id
        self.child_time = 0.0
        self.kind = kind
        self.extra = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans for the operations run under :meth:`op` with ``traced=True``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._next_op = 0
        self.active_tape = None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, kind: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if kind is None and parent is not None:
            kind = parent.kind
        span = Span(name, now(), parent, self._next_op, kind)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = now()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("tracer stack corrupted: unbalanced open/close")
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    # -- operations ----------------------------------------------------------

    @contextmanager
    def op(self, name: str, traced: bool):
        """One benchmark operation; spans are recorded only when ``traced``."""
        if not traced:
            yield
            return
        self._install()
        span = self.open(f"op.{name}")
        try:
            yield
        finally:
            self.close(span)
            self._uninstall()
            self._next_op += 1

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        corpus, descriptors, metrics = descnet.corpus, descnet.descriptors, descnet.metrics
        model, nn, numerics = descnet.model, descnet.nn, descnet.numerics
        timed = {
            corpus: {"load_dataset": "corpus.load_dataset", "build_vocabulary": "corpus.build_vocabulary"},
            model: {
                "encode": "corpus.encode",
                "build_descriptor_channel_input": "descriptors.channel_input",
                "_validation_metric": "model.validation",
                "load_checkpoint": "model.load_checkpoint",
            },
            nn: {
                "dropout": "nn.dropout",
                "max_pool_time": "nn.pool",
                "avg_pool_time": "nn.pool",
                "attention_forward": "nn.attention",
                "categorical_cross_entropy": "nn.loss",
                "binary_cross_entropy": "nn.loss",
            },
            nn.EmbeddingLayer: {"forward": "nn.embedding"},
            nn.DenseLayer: {"forward": "nn.head"},
            numerics: {"adam_step": "numerics.adam"},
            metrics: {"select_threshold": "metrics.select_threshold", "build_report": "metrics.build_report"},
        }
        for owner, names in timed.items():
            for attr, span_name in names.items():
                self._patch(owner, attr, self._timed(span_name, owner.__dict__[attr]))

        self._patch(model.DualChannelModel, "forward", self._forward(model.DualChannelModel.forward))
        self._patch(nn, "bigru_forward", self._bigru(nn.bigru_forward))
        self._patch(numerics, "backward", self._backward(numerics.backward))
        self._patch(model, "Tape", self._tape_class(model.Tape))
        self._patch(descriptors, "build_contingency", self._contingency(descriptors.build_contingency))
        self._patch(descriptors, "extract_descriptors", self._extract(descriptors.extract_descriptors))
        self._patch(metrics, "macro_f1", self._grid_counter(metrics.macro_f1))

    # -- wrappers that record counts -----------------------------------------

    def _forward(self, fn):
        @functools.wraps(fn)
        def forward(model, text_ids, *args, **kwargs):
            training = kwargs.get("training", args[1] if len(args) > 1 else False)
            kind = "train" if training else ("single" if len(text_ids) == 1 else "batch")
            span = self.open("model.forward", kind=kind)
            span.extra["bigru_calls"] = 0
            try:
                return fn(model, text_ids, *args, **kwargs)
            finally:
                self.close(span)

        return forward

    def _bigru(self, fn):
        @functools.wraps(fn)
        def bigru_forward(forward_cell, backward_cell, embedded, lengths, *args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            name = "nn.bigru"
            if parent is not None and parent.name == "model.forward":
                name = ("nn.text_bigru", "nn.desc_bigru")[min(parent.extra["bigru_calls"], 1)]
                parent.extra["bigru_calls"] += 1
            tape = self.active_tape
            before = len(tape) if tape is not None else 0
            span = self.open(name)
            try:
                return fn(forward_cell, backward_cell, embedded, lengths, *args, **kwargs)
            finally:
                self.close(span)
                span.extra["records"] = (len(tape) - before) if tape is not None else 0
                span.extra["valid"] = int(np.asarray(lengths).sum())
                span.extra["padded"] = int(embedded.shape[0] * embedded.shape[1])

        return bigru_forward

    def _backward(self, fn):
        @functools.wraps(fn)
        def backward(loss, tape):
            span = self.open("numerics.backward")
            span.extra["records"] = len(tape)
            try:
                return fn(loss, tape)
            finally:
                self.close(span)

        return backward

    def _tape_class(self, base):
        tracer = self

        class TracedTape(base):
            def __enter__(self):
                tracer.active_tape = self
                return super().__enter__()

            def __exit__(self, *exc):
                tracer.active_tape = None
                return super().__exit__(*exc)

        return TracedTape

    def _contingency(self, fn):
        @functools.wraps(fn)
        def build_contingency(*args, **kwargs):
            span = self.open("descriptors.build_contingency")
            try:
                stats = fn(*args, **kwargs)
            finally:
                self.close(span)
            min_df = span.parent.extra.get("min_df", 2) if span.parent is not None else 2
            span.extra["postings"] = sum(len(p) for p in stats.postings.values())
            span.extra["candidates"] = sum(1 for df in stats.doc_frequency.values() if df >= min_df)
            return stats

        return build_contingency

    def _extract(self, fn):
        @functools.wraps(fn)
        def extract_descriptors(corpus, vocab, labels, test, n, min_doc_frequency=2):
            span = self.open(f"descriptors.score_{test}")
            span.extra["min_df"] = min_doc_frequency
            try:
                return fn(corpus, vocab, labels, test, n, min_doc_frequency)
            finally:
                self.close(span)

        return extract_descriptors

    def _grid_counter(self, fn):
        @functools.wraps(fn)
        def macro_f1(*args, **kwargs):
            for span in reversed(self._stack):
                if span.name == "metrics.select_threshold":
                    span.extra["grid_points"] = span.extra.get("grid_points", 0) + 1
                    break
            return fn(*args, **kwargs)

        return macro_f1

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index.get(id(s.parent)),
                    "run_id": s.op_id,
                    "self": s.self_time,
                }
                if s.kind:
                    record["kind"] = s.kind
                record.update(s.extra)
                fh.write(json.dumps(record) + "\n")


_NN_PER_FORWARD = {
    "nn.text_bigru_ms": "nn.text_bigru",
    "nn.desc_bigru_ms": "nn.desc_bigru",
    "nn.embedding_ms": "nn.embedding",
    "nn.dropout_ms": "nn.dropout",
    "nn.pool_ms": "nn.pool",
    "nn.attention_ms": "nn.attention",
    "nn.head_ms": "nn.head",
}

_PER_CALL = {  # metric: (span name, scale to the metric's unit)
    "nn.loss_ms": ("nn.loss", 1e3),
    "numerics.backward_ms": ("numerics.backward", 1e3),
    "numerics.adam_ms": ("numerics.adam", 1e3),
    "model.load_checkpoint_ms": ("model.load_checkpoint", 1e3),
    "corpus.load_dataset_s": ("corpus.load_dataset", 1.0),
    "corpus.build_vocabulary_s": ("corpus.build_vocabulary", 1.0),
    "corpus.encode_us_per_doc": ("corpus.encode", 1e6),
    "descriptors.channel_input_us_per_doc": ("descriptors.channel_input", 1e6),
    "descriptors.build_contingency_s": ("descriptors.build_contingency", 1.0),
    "descriptors.score_chi2_s": ("descriptors.score_chi2", 1.0),
    "descriptors.score_anova_s": ("descriptors.score_anova", 1.0),
    "metrics.select_threshold_s": ("metrics.select_threshold", 1.0),
    "metrics.build_report_s": ("metrics.build_report", 1.0),
}

_PER_CALL_COUNT = {  # metric: (span name, extra key)
    "numerics.tape_records": ("numerics.backward", "records"),
    "descriptors.candidates": ("descriptors.build_contingency", "candidates"),
    "descriptors.postings": ("descriptors.build_contingency", "postings"),
    "metrics.threshold_grid_points": ("metrics.select_threshold", "grid_points"),
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], primary_kind: str | None) -> dict[str, float]:
    """Per-layer metrics from recorded spans, except the two ``trace.*`` ones.

    BENCHMARK.json lists their names and units. Times of the nn layers are per
    ``model.forward`` call of the workload's primary kind: training steps on
    train-news, batched scoring on serve-short. Other times are self times per
    call of the traced function, except ``model.forward_ms`` and
    ``model.validation_s``, which include their callees. A layer the workload
    never calls reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out: dict[str, float] = {}

    forwards = [s for s in by_name.get("model.forward", []) if s.kind == primary_kind]
    n_forwards = len(forwards)
    out["model.forward_ms"] = 1e3 * _mean([s.duration for s in forwards])
    out["model.validation_s"] = _mean([s.duration for s in by_name.get("model.validation", [])])
    for metric, name in _NN_PER_FORWARD.items():
        total = sum(s.self_time for s in by_name.get(name, []) if s.kind == primary_kind)
        out[metric] = 1e3 * total / n_forwards if n_forwards else 0.0
    for channel in ("text", "desc"):
        calls = [s for s in by_name.get(f"nn.{channel}_bigru", []) if s.kind == primary_kind]
        out[f"nn.{channel}_bigru_records"] = _mean([s.extra["records"] for s in calls])
        padded = sum(s.extra["padded"] for s in calls)
        out[f"nn.{channel}_valid_frac"] = sum(s.extra["valid"] for s in calls) / padded if padded else 0.0
    for metric, (name, scale) in _PER_CALL.items():
        out[metric] = scale * _mean([s.self_time for s in by_name.get(name, [])])
    for metric, (name, key) in _PER_CALL_COUNT.items():
        out[metric] = _mean([s.extra.get(key, 0) for s in by_name.get(name, [])])
    return out


def coverage(spans: list[Span]) -> float:
    """Share of the traced operations' wall time spent inside descnet spans."""
    ops = [s for s in spans if s.parent is None]
    total = sum(s.duration for s in ops)
    return sum(s.child_time for s in ops) / total if total else 0.0

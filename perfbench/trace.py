"""Spans around the public calls of each poselang module, recorded from
outside the program.

`instrument(tracer)` replaces the listed module functions and class methods
with wrappers that open a span, call the original and then add work counts
(frames read, descriptors made, FLOPs, ...).  Spans are kept in memory as
``[name, start, end, parent, command]`` records; `layer_metrics` derives the
per-layer figures from one round's spans and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, COMMAND = range(5)

# Every CLI command a workload runs; `cli.<command>.s` is reported for each.
CLI_COMMANDS = (
    "preprocess", "codebook_train", "exemplars_build", "bodylang_predict",
    "eval", "encoder_train", "emotion_train", "symptom_train",
    "emotion_predict", "symptom_predict",
)


class Tracer:
    """In-memory span recorder for one thread of execution."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.command: str | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.command])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} is open")

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.command = None
        self._stack = []

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, cmd) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "command": cmd}) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic

def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the part
    of the parent they cover is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


class SpanSummary:
    """Per-name totals over a list of spans.

    `inclusive[name]` is the wall time inside spans of that name, counting
    a span nested in another span of the same name once; `self[name]` sums
    self times.
    """

    def __init__(self, spans):
        self.spans = spans
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        for s, own in zip(spans, self_times(spans)):
            name = s[NAME]
            self.self[name] += own
            parent = s[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                self.inclusive[name] += s[END] - s[START]


def validation_seconds(spans) -> float:
    """Time in `neural.predict_proba` spans opened directly by
    `emotion.train_sequence_net`: its per-sample validation scoring."""
    return sum(s[END] - s[START] for s in spans
               if s[NAME] == "neural.predict_proba" and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == "emotion.train_sequence_net")


# ---------------------------------------------------------------------------
# Probes: (module, attribute path, span name, counter)

def _calls(name):
    def count(tracer, args, result):
        tracer.add(name)
    return count


def _frames(tracer, args, result):
    tracer.add("ingest.frames", result.n_frames)


def _preprocessed(tracer, args, result):
    tracer.add("preprocess.clips")
    tracer.add("preprocess.joints_repaired", result[1].total_repaired)


def _descriptors(tracer, args, result):
    tracer.add("ntraj.descriptors",
               sum(b.values.shape[0] * b.values.shape[1]
                   for b in result.values()))


def _kmeans(tracer, args, result):
    points = np.asarray(args[0])
    tracer.add("codebook.kmeans_points", points.shape[0])
    tracer.add("codebook.kmeans_distinct_points",
               np.unique(points, axis=0).shape[0])
    tracer.add("codebook.inertia", result.inertia)


def _windows_featurized(tracer, args, result):
    tracer.add("codebook.windows", len(args[2]))


def _quantized(tracer, args, result):
    tracer.add("codebook.quantized", len(args[0]))


def _classified(tracer, args, result):
    tracer.add("bodylang.windows", 2 * result.n_windows)


def _trained(tracer, args, result):
    _, inputs, _, spec = args[:4]
    tracer.add("neural.train.samples", len(inputs) * spec.epochs)


def _conv2d_fwd(tracer, args, result):
    layer, x = args[0], args[1]
    B, H, W, _ = x.shape
    tracer.add("neural.conv2d.flop", 2.0 * B * H * W * layer.W.size)


def _conv2d_bwd(tracer, args, result):
    layer = args[0]
    B, H, W, _ = layer._shape
    # dW = cols^T dout and dcols = dout W^T, each one forward's worth.
    tracer.add("neural.conv2d.flop", 4.0 * B * H * W * layer.W.size)


def _lstm_steps(tracer, args, result):
    B, T, _ = args[1].shape
    tracer.add("neural.lstm.steps", B * T)


def _epochs(tracer, args, result):
    tracer.add("emotion.train_sequence_net.calls")
    tracer.add("emotion.epochs", len(result[0]))


PROBES = (
    ("pipeline", "load_dataset", "pipeline.load_dataset",
     _calls("pipeline.load_dataset.calls")),
    ("ingest", "load_sequence", "ingest.load_sequence", _frames),
    ("preprocess", "preprocess", "preprocess.preprocess", _preprocessed),
    ("ntraj", "extract_descriptors", "ntraj.extract_descriptors",
     _descriptors),
    ("codebook", "kmeans_restarts", "codebook.kmeans_restarts", _kmeans),
    ("codebook", "window_feature", "codebook.window_feature",
     _windows_featurized),
    ("codebook", "quantize_batch", "codebook.quantize_batch", _quantized),
    ("poseimage", "encode_pose_image", "poseimage.encode_pose_image",
     _calls("poseimage.images")),
    ("bodylang", "predict_sequence", "bodylang.predict_sequence",
     _classified),
    ("bodylang", "knn_classify", "bodylang.knn_classify",
     _calls("bodylang.knn_classify.calls")),
    ("neural", "train", "neural.train", _trained),
    ("neural", "Conv2D.forward", "neural.conv2d.fwd", _conv2d_fwd),
    ("neural", "Conv2D.backward", "neural.conv2d.bwd", _conv2d_bwd),
    ("neural", "AvgPool2.forward", "neural.avgpool2.fwd", None),
    ("neural", "AvgPool2.backward", "neural.avgpool2.bwd", None),
    ("neural", "LSTMCellStack.forward", "neural.lstm.fwd", _lstm_steps),
    ("neural", "LSTMCellStack.backward", "neural.lstm.bwd", None),
    ("neural", "Conv1DNet.forward", "neural.conv1d.fwd", None),
    ("neural", "Conv1DNet.backward", "neural.conv1d.bwd", None),
    ("neural", "sigmoid", "neural.sigmoid", _calls("neural.sigmoid.calls")),
    ("neural", "RecurrentNet.predict_proba", "neural.predict_proba",
     _calls("neural.predict_proba.calls")),
    ("neural", "Conv1DNet.predict_proba", "neural.predict_proba",
     _calls("neural.predict_proba.calls")),
    ("neural", "ConvEncoder.embed", "neural.embed", None),
    ("emotion", "histogram_sequence", "emotion.histogram_sequence", None),
    ("emotion", "train_sequence_net", "emotion.train_sequence_net", _epochs),
    ("emotion", "predict_emotion", "emotion.predict", None),
    ("emotion", "predict_symptom", "emotion.predict", None),
    ("metrics", "multilabel_scores", "metrics.multilabel_scores", None),
)


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if counter is not None:
            counter(tracer, args, result)
        return result
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every probe for the duration of the block, then restore the
    originals."""
    saved = []
    try:
        for module_name, path, span_name, counter in PROBES:
            owner = importlib.import_module(f"poselang.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, span_name, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one round

def _timed(name):
    return (f"{name}.s", "s", lambda summary, counts: summary.inclusive[name])


def _count(name, unit="count"):
    return (name, unit, lambda summary, counts: counts.get(name, 0.0))


def _rate(name, unit, numerator, span_names):
    def value(summary, counts):
        seconds = sum(summary.inclusive[n] for n in span_names)
        return numerator(counts) / seconds if seconds > 0 else 0.0
    return (name, unit, value)


def _self(name):
    return (f"{name}.self_s", "s", lambda summary, counts: summary.self[name])


def _fwd_bwd(layer):
    return [(f"neural.{layer}.{d}_s", "s",
             lambda summary, counts, d=d: summary.inclusive[f"neural.{layer}.{d}"])
            for d in ("fwd", "bwd")]


LAYER_METRICS = [
    *[_timed(f"cli.{cmd}") for cmd in CLI_COMMANDS],
    _timed("pipeline.load_dataset"),
    _count("pipeline.load_dataset.calls"),
    _self("pipeline.load_dataset"),
    _timed("ingest.load_sequence"),
    _count("ingest.frames"),
    _rate("ingest.frames_per_s", "frames/s",
          lambda c: c.get("ingest.frames", 0.0), ["ingest.load_sequence"]),
    _timed("preprocess.preprocess"),
    _count("preprocess.clips"),
    _count("preprocess.joints_repaired"),
    _timed("ntraj.extract_descriptors"),
    _count("ntraj.descriptors"),
    _timed("codebook.kmeans_restarts"),
    _count("codebook.kmeans_points"),
    _count("codebook.kmeans_distinct_points"),
    _count("codebook.inertia", "sum_sq"),
    _timed("codebook.window_feature"),
    _count("codebook.windows"),
    _timed("codebook.quantize_batch"),
    _count("codebook.quantized"),
    _timed("poseimage.encode_pose_image"),
    _count("poseimage.images"),
    _timed("bodylang.predict_sequence"),
    _self("bodylang.predict_sequence"),
    _count("bodylang.windows"),
    _timed("bodylang.knn_classify"),
    _count("bodylang.knn_classify.calls"),
    _timed("neural.train"),
    _self("neural.train"),
    _rate("neural.train.samples_per_s", "samples/s",
          lambda c: c.get("neural.train.samples", 0.0), ["neural.train"]),
    *_fwd_bwd("conv2d"),
    ("neural.conv2d.gflop", "GFLOP",
     lambda summary, counts: counts.get("neural.conv2d.flop", 0.0) / 1e9),
    _rate("neural.conv2d.gflop_per_s", "GFLOP/s",
          lambda c: c.get("neural.conv2d.flop", 0.0) / 1e9,
          ["neural.conv2d.fwd", "neural.conv2d.bwd"]),
    *_fwd_bwd("avgpool2"),
    *_fwd_bwd("lstm"),
    _count("neural.lstm.steps"),
    *_fwd_bwd("conv1d"),
    _timed("neural.sigmoid"),
    _count("neural.sigmoid.calls"),
    _timed("neural.predict_proba"),
    _count("neural.predict_proba.calls"),
    _timed("neural.embed"),
    _timed("emotion.histogram_sequence"),
    _timed("emotion.train_sequence_net"),
    _self("emotion.train_sequence_net"),
    _count("emotion.train_sequence_net.calls"),
    _count("emotion.epochs"),
    ("emotion.validation.s", "s",
     lambda summary, counts: validation_seconds(summary.spans)),
    _timed("emotion.predict"),
    _timed("metrics.multilabel_scores"),
]


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every per-layer metric for one round; a layer the round never
    entered reads 0."""
    summary = SpanSummary(spans)
    return {name: float(fn(summary, counts)) for name, _, fn in LAYER_METRICS}


LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

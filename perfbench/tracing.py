"""Spans around the calls into each soundscan layer, recorded from outside.

The benchmark does not modify the library: it replaces a function or method
at every name its callers look it up by (``soundscan.autodiff.conv2d``,
``soundscan.network.scan_array``, ``SpectrogramEncoder.forward``, ...) with a
wrapper that records a span, and puts the originals back afterwards.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

# span record fields
NAME, START, END, PARENT, ROWS, BYTES = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Each span is (name, start, end, parent index, rows, bytes); the parent
    is the innermost span open when it started (-1 at top level).
    """

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._open = []
        self._clock = clock

    def wrap(self, name, fn, count=None):
        """Wrap `fn` so each call records a span; `count(args, kwargs, result)`
        may return (rows, bytes) for the call."""
        spans, open_, clock = self.spans, self._open, self._clock

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            index = len(spans)
            spans.append(None)
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                # a tuple of numbers and a str: the garbage collector stops
                # tracking it, so a long trace does not slow collections
                spans[index] = (name, start, end, parent, 0, 0)
            if count is not None:
                spans[index] = (name, start, end, parent) + tuple(count(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the time its direct child spans cover.

    Spans of one thread nest, so the children of a span never overlap and
    their durations sum to the covered part of the parent's interval.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def summarize(spans) -> dict:
    """name -> {calls, s, self_s, rows, bytes}.

    `s` counts only outermost spans of a name, so a function that reaches
    itself again through other traced calls is not counted twice.
    """
    selfs = self_times(spans)
    out: dict = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                            "rows": 0, "bytes": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["rows"] += span[ROWS]
        entry["bytes"] += span[BYTES]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["s"] += span[END] - span[START]
    return out


class Patches:
    """Replace soundscan functions and methods at every binding; undo in reverse."""

    def __init__(self):
        self._undo = []

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "soundscan" or name.startswith("soundscan."))]

    def function(self, module: str, attr: str, make_wrapper) -> None:
        """Rebind every module global that holds the function `module.attr`."""
        original = getattr(sys.modules[module], attr)
        wrapper = make_wrapper(original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def method(self, module: str, cls_name: str, attr: str, make_wrapper) -> None:
        cls = getattr(sys.modules[module], cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, make_wrapper(original))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


@contextmanager
def patched():
    patches = Patches()
    try:
        yield patches
    finally:
        patches.restore()


def _rows_of(position, keyword):
    def count(args, kwargs, result):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return len(value), 0
    return count


def _result_bytes(args, kwargs, result):
    return 0, int(result.nbytes)


def _wav_bytes(args, kwargs, result):
    samples, _ = result
    return 0, int(samples.nbytes)


def _saved_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    return 0, os.path.getsize(path)


# (metric prefix, defining module, attribute or "Class.method", counter)
TRACE_POINTS = [
    ("wavio.read_wav", "soundscan.wavio", "read_wav", _wav_bytes),
    ("dsp.stft_magnitude", "soundscan.dsp", "stft_magnitude", None),
    ("dsp.utterance_spectrum", "soundscan.dsp", "utterance_spectrum", None),
    ("scanning.scan_array", "soundscan.scanning", "scan_array", _result_bytes),
    ("autodiff.conv2d", "soundscan.autodiff", "conv2d", None),
    ("autodiff.conv1d", "soundscan.autodiff", "conv1d", None),
    ("autodiff.batch_norm2d", "soundscan.autodiff", "batch_norm2d", None),
    ("autodiff.max_pool2d", "soundscan.autodiff", "max_pool2d", None),
    ("autodiff.stats_pool", "soundscan.autodiff", "stats_pool", None),
    ("autodiff.linear", "soundscan.autodiff", "linear", None),
    ("autodiff.backward", "soundscan.autodiff", "Tensor.backward", None),
    ("autodiff.adam_step", "soundscan.autodiff", "Adam.step", None),
    ("nn.multi_axis_se", "soundscan.nn", "MultiAxisSE.forward", None),
    ("network.spectrogram_encoder", "soundscan.network", "SpectrogramEncoder.forward", None),
    ("network.patch_branch", "soundscan.network", "MultiScaleBranch.forward", None),
    ("network.spectrum_encoder", "soundscan.network", "SpectrumEncoder.forward", None),
    ("network.load_model", "soundscan.network", "load_model", None),
    ("training.features_for_batch", "soundscan.training", "features_for_batch", None),
    ("training.adacos_loss", "soundscan.training", "adacos_loss", None),
    ("checkpoint.load_container", "soundscan.checkpoint", "load_container", None),
    ("checkpoint.save_container", "soundscan.checkpoint", "save_container", _saved_bytes),
    ("scoring.kmeans", "soundscan.scoring", "kmeans", _rows_of(0, "embeddings")),
    ("scoring.anomaly_score", "soundscan.scoring", "anomaly_score", None),
    ("scoring.PrototypeStore.sets_for", "soundscan.scoring", "PrototypeStore.sets_for", None),
    ("scoring.embed_rows", "soundscan.scoring", "embed_rows", _rows_of(1, "rows")),
    ("metrics.evaluate", "soundscan.metrics", "evaluate", None),
    ("data.load_manifest", "soundscan.data", "load_manifest", None),
    ("data.synth_dataset", "soundscan.data", "synth_dataset", None),
    ("cli.main", "soundscan.cli", "main", None),
]


def install(patches: Patches, tracer: Tracer, points=TRACE_POINTS) -> None:
    """Wrap every trace point; the span name is the metric prefix."""
    for name, module, attr, count in points:
        def make(fn, name=name, count=count):
            return tracer.wrap(name, fn, count)
        if "." in attr:
            cls_name, method = attr.split(".")
            patches.method(module, cls_name, method, make)
        else:
            patches.function(module, attr, make)

"""In-memory spans around dialectid's public functions, for the traced run.

`Tracer.install()` replaces every public module-level function of the layer
modules (and every other binding of the same function object inside the
package, such as ``cli.generate``) with a wrapper that records a span:
name, start, end and parent. `uninstall()` puts the originals back, so an
untraced pass runs the unmodified code. Spans stay in memory; the caller
writes them out once, at the end of the run.

A few wrappers also derive counts from argument and result shapes (kernel
flops and bytes, SVM steps, rows). Those counts are computed, not measured,
and their units say so.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from collections import defaultdict

# The package modules the benchmark reports as layers. The metric prefix of
# `_kernels` drops the underscore because metric names must start with a
# letter or a digit.
LAYERS = ("cli", "fileio", "synth", "whitening", "lda", "siamese", "_kernels",
          "svm", "dialect_model", "text_features", "calibration", "metrics")


def layer_prefix(module: str) -> str:
    return module.lstrip("_")


def _span_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        func = func[len("cmd_"):]
    return "%s.%s" % (layer_prefix(module), func)


# --- computed counters: (counts, args, kwargs, result) -> None ---------------

def _conv_forward(counts, args, kwargs, out):
    x, w = args[0], args[1]
    bsz, cin, _ = x.shape
    cout, _, kernel = w.shape
    macs = bsz * cout * out.shape[2] * cin * kernel
    counts["kernels.conv1d_forward.flops"] += 2 * macs
    counts["kernels.conv1d_forward.bytes"] += 8 * (x.size + w.size + args[2].size + out.size)


def _conv_backward(counts, args, kwargs, out):
    x, w, _, gout = args[:4]
    bsz, cin, _ = x.shape
    cout, _, kernel = w.shape
    macs = bsz * cout * gout.shape[2] * cin * kernel
    # one multiply-add per (sample, out channel, position, in channel, tap)
    # for dw and another for dx
    counts["kernels.conv1d_backward.flops"] += 4 * macs
    dx, dw, db = out
    counts["kernels.conv1d_backward.bytes"] += 8 * (
        x.size + w.size + gout.size + dx.size + dw.size + db.size)


def _svm_epochs(counts, args, kwargs, out):
    data, indices, indptr, dim, y, order = args[:6]
    rows = indptr.shape[0] - 1
    steps = order.shape[0] * rows
    counts["svm.steps"] += steps
    # each step reads the row's nnz weights, scales all dim weights and
    # writes the row's nnz weights back
    counts["svm.touched_floats"] += steps * (dim + 2.0 * data.size / max(rows, 1))


def _apply_chain(counts, args, kwargs, out):
    counts["whitening.apply_chain.rows"] += out.shape[0] if out.ndim == 2 else 1


def _result_len(metric):
    def count(counts, args, kwargs, out):
        counts[metric] += len(out)
    return count


def _artifact_bytes(metric):
    def count(counts, args, kwargs, out):
        counts[metric] += os.path.getsize(args[0])
    return count


def _siamese_train(counts, args, kwargs, out):
    counts["siamese.train.epochs"] += args[2].epochs


def _vectorize(counts, args, kwargs, out):
    counts["text_features.vectorize.rows"] += 1
    counts["text_features.vectorize.nnz"] += out.indices.size


COUNTERS = {
    "kernels.conv1d_forward": _conv_forward,
    "kernels.conv1d_backward": _conv_backward,
    "kernels.svm_epochs": _svm_epochs,
    "whitening.apply_chain": _apply_chain,
    "fileio.load_ivector_set": _result_len("fileio.load_ivector_set.rows"),
    "fileio.save_artifact": _artifact_bytes("fileio.save_artifact.bytes"),
    "fileio.load_artifact": _artifact_bytes("fileio.load_artifact.bytes"),
    "siamese.forward_batch": _result_len("siamese.forward_batch.rows"),
    "siamese.train": _siamese_train,
    "text_features.build_vocab": _result_len("text_features.vocab_size"),
    "text_features.featurize_transcripts": _result_len(
        "text_features.featurize_transcripts.rows"),
    "text_features.vectorize": _vectorize,
}


class Tracer:
    """Records spans of wrapped calls; one tracer per process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def take(self):
        """Return the spans and counts recorded so far and start new ones."""
        taken = (self.spans, dict(self.counts))
        self.spans = []
        self.counts = defaultdict(float)
        return taken

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        if self._patches:
            return
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module("dialectid." + layer)
            names = defaultdict(list)
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    names[obj].append(attr)
            for fn, attrs in names.items():
                # aliases (``conv1d_forward = conv1d_forward_np``) share one span name
                wrappers[fn] = self._wrap(_span_name(layer, min(attrs, key=len)), fn)
        package = [m for n, m in sorted(sys.modules.items())
                   if (n == "dialectid" or n.startswith("dialectid.")) and m is not None]
        for module in package:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []


def summarize(spans, start, end):
    """Per-name calls, inclusive and self seconds; per-layer self seconds.

    `start` and `end` bound the timed region. Self time is a span's duration
    minus the durations of its direct children. ``outside_s`` is measured on
    its own, as the gaps before, between and after the top-level spans.
    ``problems`` lists every way the spans break their nesting: a span
    outside its parent or the region, overlapping top-level spans, a
    negative self time, or self times plus ``outside_s`` that miss
    ``end - start``.
    """
    wall_s = end - start
    problems = []
    child = [0.0] * len(spans)
    for name, s0, s1, parent in spans:
        if s1 < s0:
            problems.append("%s ends before it starts" % name)
        if parent >= 0:
            child[parent] += s1 - s0
            p_name, p0, p1, _ = spans[parent]
            if s0 < p0 or s1 > p1:
                problems.append("%s lies outside its parent %s" % (name, p_name))
    per_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    per_layer = defaultdict(float)
    for i, (name, s0, s1, parent) in enumerate(spans):
        self_s = s1 - s0 - child[i]
        if self_s < 0:
            problems.append("%s has negative self time %g s" % (name, self_s))
        entry = per_name[name]
        entry["calls"] += 1
        entry["s"] += s1 - s0
        entry["self_s"] += self_s
        per_layer[name.split(".", 1)[0]] += self_s

    outside_s, cursor = 0.0, start
    for name, s0, s1, parent in sorted((s for s in spans if s[3] < 0), key=lambda s: s[1]):
        if s0 < cursor:
            problems.append("top-level span %s starts before the previous one ends "
                            "or before the region" % name)
        outside_s += max(0.0, s0 - cursor)
        cursor = max(cursor, s1)
    if cursor > end:
        problems.append("spans run past the end of the region")
    outside_s += max(0.0, end - cursor)

    self_total_s = sum(per_layer.values())
    gap = self_total_s + outside_s - wall_s
    if abs(gap) > 1e-6 * max(1.0, wall_s):
        problems.append("self times + outside = wall is off by %g s" % gap)
    return {
        "functions": dict(per_name),
        "layers": dict(per_layer),
        "outside_s": outside_s,
        "self_total_s": self_total_s,
        "wall_s": wall_s,
        "problems": problems,
    }


def nested_calls(spans, name, parent_name):
    """Calls of `name` made directly from a `parent_name` span."""
    return sum(1 for n, _, _, p in spans if n == name and p >= 0 and spans[p][0] == parent_name)

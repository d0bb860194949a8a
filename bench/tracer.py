"""In-memory span tracer and the per-layer metrics derived from its spans.

``Tracer.install`` replaces the public functions and methods the pipeline
calls with delegating timers, from outside the package: a function is
replaced under every ``eventseg`` module attribute that refers to it (so the
names ``cli`` and ``reconstruction`` imported from other modules are covered
too), a method on its class. Each call records one span: name, start, end,
index of the enclosing span, and optional attributes. Spans stay in a list
until the worker writes them out; ``layer_metrics`` turns them into numbers.
A target that no longer exists is listed in ``Tracer.missing`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter


def _info_nce_attrs(args, kwargs, result):
    queue = kwargs.get("queue_entries", args[3] if len(args) > 3 else None)
    return {"queue": 0 if queue is None else len(queue)}


def _trajectory_attrs(args, kwargs, result):
    return {"frames": int(result.values.shape[0])}


def _extrema_attrs(args, kwargs, result):
    return {"fired": len(result)}


def _match_attrs(args, kwargs, result):
    det, gt = args[0], args[1]
    return {"dets": len(det.frames), "pairs": len(det.frames) * len(gt.frames)}


def _segment_attrs(args, kwargs, result):
    return {"gt": len(args[1].frames)}


# span name -> (defining module, qualified name, attribute function, trace
# allocations). Names follow the package's module names, which are the layers.
TARGETS = {
    "data.synth_generate": ("eventseg.data", "synth_generate", None, False),
    "data.load_corpus": ("eventseg.data", "load_corpus", None, False),
    "checkpoint.save_model": ("eventseg.checkpoint", "save_model", None, False),
    "checkpoint.load_model": ("eventseg.checkpoint", "load_model", None, False),
    "training.run_training": ("eventseg.training", "run_training", None, False),
    "training.step": ("eventseg.reconstruction", "train_step", None, False),
    "embedding.sample_batch": ("eventseg.embedding", "sample_batch", None, False),
    "embedding.encode_query": ("eventseg.embedding", "encode_query", None, False),
    "embedding.info_nce": ("eventseg.embedding", "info_nce_loss", _info_nce_attrs, False),
    "embedding.queue_as_array": ("eventseg.embedding", "MemoryQueue.as_array", None, False),
    "embedding.momentum_update": ("eventseg.embedding", "momentum_update", None, False),
    "embedding.enqueue": ("eventseg.embedding", "enqueue_memory", None, False),
    "reconstruction.compute_losses": ("eventseg.reconstruction", "compute_losses", None, False),
    "reconstruction.forward": ("eventseg.reconstruction", "Reconstructor.forward", None, False),
    "reconstruction.attention_block": (
        "eventseg.reconstruction", "AttentionBlock.__call__", None, False),
    "tensor.backward": ("eventseg.tensor", "Tensor.backward", None, False),
    "optim.sgd_step": ("eventseg.optim", "sgd_step", None, False),
    "detection.detect_corpus": ("eventseg.detection", "detect_corpus", None, False),
    "detection.error_trajectory": (
        "eventseg.detection", "error_trajectory", _trajectory_attrs, True),
    "detection.fir_smooth": ("eventseg.detection", "fir_smooth", None, False),
    "detection.gradient": ("eventseg.detection", "gradient", None, False),
    "detection.relative_extrema": (
        "eventseg.detection", "relative_extrema", _extrema_attrs, False),
    "metrics.match_boundaries": ("eventseg.metrics", "match_boundaries", _match_attrs, False),
    "metrics.segment_scores": ("eventseg.metrics", "segment_scores", _segment_attrs, False),
}


class Tracer:
    """Records spans as ``[name, start, end, parent_index, attrs]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields the span record."""
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def _timer(self, name, fn, attrs_fn, trace_memory):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name) as rec:
                if trace_memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if trace_memory:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else {}
            if trace_memory:
                attrs["peak_bytes"] = peak
            rec[4] = attrs or None
            return result

        return timed

    def install(self) -> None:
        for name, (module, qualname, attrs_fn, trace_memory) in TARGETS.items():
            path = qualname.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{qualname}")
                continue
            timed = self._timer(name, original, attrs_fn, trace_memory)
            if len(path) > 1:
                setattr(owner, path[-1], timed)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "eventseg" or mod_name.startswith("eventseg."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, timed)


# -- derived metrics ------------------------------------------------------------


def _commands(spans) -> list[str]:
    """Name of the outermost span enclosing each span (parents come first)."""
    out: list[str] = []
    for name, _, _, parent, _ in spans:
        out.append(out[parent] if parent >= 0 else name)
    return out


def _self_ms(spans) -> list[float]:
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    return [1e3 * (end - start - child_s[i]) for i, (_, start, end, _, _) in enumerate(spans)]


def _p(values, q: int) -> float:
    """q-th percentile (nearest rank); 0.0 when nothing was recorded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]


def layer_metrics(spans, queue_capacity: int) -> dict[str, float]:
    """Per-layer numbers from one traced pipeline run (train, detect, eval).

    Per-call medians are used where calls do the same work every time
    (training steps); totals, or totals per frame, where the calls differ in
    size (detection and evaluation, whose work grows with the videos).
    """
    cmd = _commands(spans)
    self_ms = _self_ms(spans)
    ms: dict[tuple[str, str], list[float]] = {}
    attrs: dict[str, list[dict]] = {}
    for i, (name, start, end, _, a) in enumerate(spans):
        ms.setdefault((name, cmd[i]), []).append(1e3 * (end - start))
        ms.setdefault((name, "*"), []).append(1e3 * (end - start))
        if a:
            attrs.setdefault(name, []).append(a)

    def calls(name, command="*"):
        return ms.get((name, command), [])

    def total(name, command="*"):
        return sum(calls(name, command))

    def attr_sum(name, key):
        return sum(a.get(key, 0) for a in attrs.get(name, []))

    nce = [(1e3 * (e - s), a["queue"]) for n, s, e, _, a in spans if n == "embedding.info_nce"]
    steps = calls("training.step")
    frames = attr_sum("detection.error_trajectory", "frames")
    fired = attr_sum("detection.relative_extrema", "fired")
    gt = attr_sum("metrics.segment_scores", "gt")
    dets = attr_sum("metrics.match_boundaries", "dets")
    out = {
        "training.step_ms_p50": _p(steps, 50),
        "training.step_ms_p90": _p(steps, 90),
        "training.steps": float(len(steps)),
        "tensor.backward_ms": _p(calls("tensor.backward"), 50),
        "tensor.backward_share": total("tensor.backward") / sum(steps) if steps else 0.0,
        "optim.sgd_step_ms": _p(calls("optim.sgd_step"), 50),
        "embedding.info_nce_ms.queue_filling": _p([t for t, q in nce if q < queue_capacity], 50),
        "embedding.info_nce_ms.queue_full": _p([t for t, q in nce if q >= queue_capacity], 50),
        "embedding.queue_as_array_ms": _p(calls("embedding.queue_as_array"), 50),
        "embedding.enqueue_ms": _p(calls("embedding.enqueue"), 50),
        "embedding.momentum_update_ms": _p(calls("embedding.momentum_update"), 50),
        "embedding.sample_batch_ms": _p(calls("embedding.sample_batch"), 50),
        "embedding.queue_fill": (
            statistics.fmean(min(q, queue_capacity) / queue_capacity for _, q in nce)
            if nce else 0.0
        ),
        "embedding.encode_query_ms.train": _p(calls("embedding.encode_query", "cli.train"), 50),
        "embedding.encode_query_ms.detect": total("embedding.encode_query", "cli.detect"),
        "reconstruction.compute_losses_ms": _p(calls("reconstruction.compute_losses"), 50),
        "reconstruction.forward_ms.train": _p(calls("reconstruction.forward", "cli.train"), 50),
        "reconstruction.forward_ms.detect": total("reconstruction.forward", "cli.detect"),
        "reconstruction.attention_block_ms.train": _p(
            calls("reconstruction.attention_block", "cli.train"), 50),
        "reconstruction.attention_block_ms.detect": total(
            "reconstruction.attention_block", "cli.detect"),
        "detection.error_trajectory_us_per_frame": (
            1e3 * total("detection.error_trajectory") / frames if frames else 0.0),
        "detection.relative_extrema_ms_per_10k": (
            1e4 * total("detection.relative_extrema") / frames if frames else 0.0),
        "detection.fir_smooth_ms": total("detection.fir_smooth"),
        "detection.detect_corpus_self_ms": sum(
            self_ms[i] for i, s in enumerate(spans) if s[0] == "detection.detect_corpus"),
        "detection.traced_peak_mb": max(
            (a.get("peak_bytes", 0) for a in attrs.get("detection.error_trajectory", [])),
            default=0) / 2**20,
        "detection.extrema_fired": float(fired),
        "detection.fired_per_gt_boundary": fired / gt if gt else 0.0,
        "metrics.match_boundaries_ms": total("metrics.match_boundaries"),
        "metrics.segment_scores_ms": total("metrics.segment_scores"),
        "metrics.pairs_per_detection": (
            attr_sum("metrics.match_boundaries", "pairs") / dets if dets else 0.0),
        "data.load_corpus_ms": total("data.load_corpus"),
        "data.synth_generate_ms": total("data.synth_generate"),
        "checkpoint.save_model_ms": total("checkpoint.save_model"),
        "checkpoint.load_model_ms": total("checkpoint.load_model"),
    }
    for i, (name, *_rest) in enumerate(spans):
        if name.startswith("cli."):
            key = "cli.self_ms." + name[len("cli."):]
            out[key] = out.get(key, 0.0) + self_ms[i]
    return out

"""Span tracing of the ledgaze layers, done from outside the package.

Each traced function is replaced, for the length of a traced pass, by a
wrapper that records a span (name, start, end, parent) and, optionally,
counts taken from its arguments and result. The replacement is made on the
name the caller looks up: ``regress`` imports ``pairwise`` by name, so the
wrapper goes on ``ledgaze.regress.pairwise`` as well as on
``ledgaze.kernels.pairwise``. Wrappers pass arguments and results through
untouched, so tracing cannot change an output byte.

Spans are kept in flat in-memory arrays and folded into per-layer metrics
when the run ends; ``Tracer.dump`` writes them out on request.
"""

from __future__ import annotations

import functools
import json
import math
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from ledgaze import calib, evaluate, eyesim, kernels, regress, session, sigproc, wire

LAYERS = ("eyesim", "sigproc", "kernels", "regress", "calib", "session", "evaluate", "wire")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        """Swap ``owner.attr`` for ``make_wrapper(original)``.

        A target that no longer exists raises ``AttributeError``: a renamed
        function would otherwise read as a layer whose cost went to zero.
        """
        if attr not in vars(owner):
            raise AttributeError(f"wrap target {getattr(owner, '__name__', owner)}.{attr} does not exist")
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- counters taken at the traced boundaries ------------------------------------


def _rows(counts, prefix):
    def count(args, kwargs, result):
        counts[prefix] += int(np.shape(result)[0])
    return count


def _count_pairwise(counts):
    def count(args, kwargs, result):
        counts["kernels.pairwise.pairs"] += int(np.size(result))
    return count


def _count_sense_block(counts):
    def count(args, kwargs, result):
        _, scales = result
        counts["eyesim.sense_block.blocks"] += 1
        # A block took the per-frame replay when its exposure changed inside it.
        if scales.shape[0] and not np.all(scales == scales[0]):
            counts["eyesim.sense_block.replay_blocks"] += 1
            counts["eyesim.sense_block.replay_frames"] += scales.shape[0]
    return count


def _count_gpr_build(counts):
    def count(args, kwargs, result):
        model = args[0]
        first_eps = model.jitter * getattr(model, "_jitter_base", 1.0)
        counts["regress.gpr_jitter_steps"] += round(math.log10(model.effective_jitter / first_eps))
    return count


def _count_run_calibration(counts):
    def count(args, kwargs, result):
        counts["calib.points_kept"] += result.point_count
    return count


def _count_task_session(counts):
    def count(args, kwargs, result):
        counts["evaluate.tasks"] += len(result.successes)
        counts["evaluate.tasks_failed"] += result.successes.count(False)
    return count


def _count_log_write(counts):
    def count(args, kwargs, result):
        counts["session.log_bytes"] += os.path.getsize(args[1])
    return count


def _count_feed(counts):
    def count(args, kwargs, result):
        counts["wire.bytes"] += len(args[1])
        counts["wire.frames_decoded"] += len(result)
    return count


def _count_finish(counts):
    def count(args, kwargs, result):
        counts["wire.frames_decoded"] += len(result)
    return count


def _count_skip(counts):
    def count(args, kwargs, result):
        n = args[1]
        resync = kwargs.get("resync", args[2] if len(args) > 2 else False)
        counts["wire.bytes_skipped"] += n
        counts["wire.resyncs"] += int(bool(resync))
    return count


def _targets(counts):
    """(owner, attribute, span name or None, counter or None) for every wrap."""
    return [
        (eyesim, "clean_signal", "eyesim.clean_signal", _rows(counts, "eyesim.clean_signal.frames")),
        (eyesim.EyeSimulator, "_sense_block", "eyesim.sense_block", _count_sense_block(counts)),
        (sigproc.IirFilter, "filter_block", "sigproc.filter_block", None),
        (sigproc.IirFilter, "step", "sigproc.iir_step", None),
        (kernels, "pairwise", "kernels.pairwise", _count_pairwise(counts)),
        (regress, "pairwise", "kernels.pairwise", _count_pairwise(counts)),
        (regress.GprModel, "__init__", "regress.gpr_build", _count_gpr_build(counts)),
        (regress.GprModel, "estimate_batch", "regress.estimate", _rows(counts, "regress.estimate.frames")),
        (regress.SvrModel, "estimate_batch", "regress.estimate", _rows(counts, "regress.estimate.frames")),
        (evaluate, "grid_search_sigma", "regress.sigma_search", None),
        (session, "run_calibration", "calib.run_calibration", _count_run_calibration(counts)),
        (calib, "aggregate_point", "calib.aggregate_point", None),
        (session, "calibration_phase", "session.calibration_phase", None),
        (evaluate, "calibration_phase", "session.calibration_phase", None),
        (session, "augmentation_phase", "session.augmentation_phase", None),
        (session, "evaluation_phase", "session.evaluation_phase", None),
        (evaluate, "evaluation_phase", "session.evaluation_phase", None),
        (session, "write_session_log", "session.log_write", _count_log_write(counts)),
        (session, "read_session_log", "session.log_read", None),
        (evaluate, "evaluate_accuracy", "evaluate.accuracy", None),
        (evaluate, "compare_estimators", "evaluate.compare", None),
        (evaluate, "run_task_session", "evaluate.task_session", _count_task_session(counts)),
        (wire, "encode", "wire.encode", None),
        (wire.StreamDecoder, "feed", "wire.decode", _count_feed(counts)),
        (wire.StreamDecoder, "finish", "wire.decode", _count_finish(counts)),
        (wire.StreamDecoder, "_skip", None, _count_skip(counts)),
    ]


class Tracer:
    """Records nested spans around calls into each ledgaze layer."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patches = Patches()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.ends.append(0.0)  # filled in when the span closes; children close first
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def _wrapper(self, name, count):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if name is None:
                    result = fn(*args, **kwargs)
                else:
                    result = self.span(name, fn, *args, **kwargs)
                if count is not None:
                    count(args, kwargs, result)
                return result
            return traced
        return make

    def install(self) -> None:
        for owner, attr, name, count in _targets(self.counts):
            self._patches.replace(owner, attr, self._wrapper(name, count))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- folding spans into metrics -------------------------------------------

    def totals(self, root: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, under ``root`` spans only."""
        n = len(self.names)
        dur = np.frombuffer(self.ends, dtype=float)[:n] - np.frombuffer(self.starts, dtype=float)[:n]
        parents = np.frombuffer(self.parents, dtype=np.int64)[:n]
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        # Which root each span belongs to: roots are opened with no parent.
        owner = np.empty(n, dtype=np.int64)
        for i in range(n):
            owner[i] = i if parents[i] < 0 else owner[parents[i]]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(n):
            if self.names[owner[i]] != root:
                continue
            agg = out[self.names[i]]
            agg["calls"] += 1
            agg["s"] += float(dur[i])
            agg["self_s"] += float(dur[i] - child[i])
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start": self.starts[i], "end": self.ends[i],
                                     "parent": self.parents[i]}) + "\n")


# -- per-layer metric table ---------------------------------------------------------

# (metric, unit, better, span name, field) for metrics read off the spans.
SPAN_METRICS = (
    ("eyesim.clean_signal.s", "s", "lower", "eyesim.clean_signal", "s"),
    ("eyesim.sense_block.self_s", "s", "lower", "eyesim.sense_block", "self_s"),
    ("sigproc.filter_block.s", "s", "lower", "sigproc.filter_block", "s"),
    ("sigproc.iir_step.s", "s", "lower", "sigproc.iir_step", "s"),
    ("kernels.pairwise.s", "s", "lower", "kernels.pairwise", "s"),
    ("kernels.pairwise.calls", "count", "lower", "kernels.pairwise", "calls"),
    ("regress.gpr_build.s", "s", "lower", "regress.gpr_build", "s"),
    ("regress.gpr_build.calls", "count", "lower", "regress.gpr_build", "calls"),
    ("regress.estimate.self_s", "s", "lower", "regress.estimate", "self_s"),
    ("regress.sigma_search.s", "s", "lower", "regress.sigma_search", "s"),
    ("calib.run_calibration.s", "s", "lower", "calib.run_calibration", "s"),
    ("calib.acquires", "count", "lower", "calib.aggregate_point", "calls"),
    ("session.calibration_phase.s", "s", "lower", "session.calibration_phase", "s"),
    ("session.augmentation_phase.s", "s", "lower", "session.augmentation_phase", "s"),
    ("session.evaluation_phase.s", "s", "lower", "session.evaluation_phase", "s"),
    ("session.log_write.s", "s", "lower", "session.log_write", "s"),
    ("session.log_read.s", "s", "lower", "session.log_read", "s"),
    ("evaluate.accuracy.s", "s", "lower", "evaluate.accuracy", "s"),
    ("evaluate.compare.s", "s", "lower", "evaluate.compare", "s"),
    ("evaluate.task_session.s", "s", "lower", "evaluate.task_session", "s"),
    ("wire.encode.s", "s", "lower", "wire.encode", "s"),
    ("wire.decode.self_s", "s", "lower", "wire.decode", "self_s"),
)

# (metric, unit, better) for metrics read off the counters.
COUNT_METRICS = (
    ("eyesim.clean_signal.frames", "count", "lower"),
    ("eyesim.sense_block.blocks", "count", "lower"),
    ("eyesim.sense_block.replay_blocks", "count", "lower"),
    ("eyesim.sense_block.replay_frames", "count", "lower"),
    ("kernels.pairwise.pairs", "count", "lower"),
    ("regress.gpr_jitter_steps", "count", "lower"),
    ("regress.estimate.frames", "count", "lower"),
    ("calib.points_kept", "count", "higher"),
    ("session.log_bytes", "B", "lower"),
    ("evaluate.tasks", "count", "lower"),
    ("evaluate.tasks_failed", "count", "lower"),
    ("wire.bytes", "B", "lower"),
    ("wire.frames_decoded", "count", "higher"),
    ("wire.resyncs", "count", "lower"),
    ("wire.bytes_skipped", "B", "lower"),
)

# Metrics derived from the others, or from the run as a whole.
DERIVED_METRICS = (
    ("eyesim.sense_block.replay_ratio", "ratio", "lower"),
    ("calib.keep_ratio", "ratio", "higher"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("bench.self_s", "s", "lower"),
    ("bench.frame_latency_p99_us", "us", "lower"),
    ("trace.setup_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("evaluate.mean_error_deg", "deg", "lower"),
    ("evaluate.success_ratio", "ratio", "higher"),
    ("src.lines", "lines", "lower"),
)

PER_LAYER = tuple((m, u, b) for m, u, b, _, _ in SPAN_METRICS) + COUNT_METRICS + DERIVED_METRICS


def layer_metrics(tracer: Tracer, setup_counts: dict, n_passes: int) -> dict[str, float]:
    """Per-layer values for one set-up plus one average traced pass.

    Set-up spans (root ``bench.setup``) count once; pass spans (root
    ``bench.pass``) and pass counters are divided by the number of traced
    passes. Returns every span and count metric plus the per-layer self
    times, ``bench.self_s`` (pass time outside every layer) and the traced
    set-up and pass wall times.
    """
    setup = tracer.totals("bench.setup")
    passes = tracer.totals("bench.pass")

    def field(name, key):
        return setup.get(name, {}).get(key, 0.0) + passes.get(name, {}).get(key, 0.0) / n_passes

    out = {m: field(span, key) for m, _, _, span, key in SPAN_METRICS}
    for m, _, _ in COUNT_METRICS:
        out[m] = setup_counts.get(m, 0.0) + (tracer.counts.get(m, 0.0) - setup_counts.get(m, 0.0)) / n_passes
    frames = out["eyesim.clean_signal.frames"]
    out["eyesim.sense_block.replay_ratio"] = out["eyesim.sense_block.replay_frames"] / frames if frames else 0.0
    acquires = out["calib.acquires"]
    out["calib.keep_ratio"] = out["calib.points_kept"] / acquires if acquires else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((field(name, "self_s") for name in set(setup) | set(passes)
                                      if name.split(".")[0] == layer), 0.0)
    out["bench.self_s"] = field("bench.setup", "self_s") + field("bench.pass", "self_s")
    out["trace.setup_s"] = field("bench.setup", "s")
    out["trace.pass_s"] = field("bench.pass", "s")
    return out

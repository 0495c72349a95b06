"""The benchmark still finds every package attribute it wraps.

``bench/`` wraps functions and methods by name (the tracer's per-layer
spans, each workload's recorders). A renamed or moved target raises
``AttributeError`` only when the benchmark runs; these tests install and
undo every wrap so the rename shows up in the test suite instead.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from ledgaze import evaluate, eyesim, regress, session, sigproc, wire
from ledgaze.core import CalibrationSet, DisplayGeometry, ScreenPoint, SensorFrame
from ledgaze.kernels import MeasureSpec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing
import workloads

PINNED = [(eyesim, "clean_signal"), (eyesim.EyeSimulator, "_sense_block"),
          (sigproc.IirFilter, "step"), (regress, "pairwise"),
          (regress.GprModel, "__init__"), (regress.GprModel, "estimate_batch"),
          (wire.StreamDecoder, "feed"), (wire.StreamDecoder, "finish"),
          (wire.StreamDecoder, "_skip"),
          (session, "write_session_log"), (session, "read_session_log"),
          (evaluate, "evaluate_accuracy"), (evaluate, "compare_estimators")]


def _current():
    return [vars(owner)[attr] for owner, attr in PINNED]


def test_tracer_wraps_and_restores_every_target():
    before = _current()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(_current(), before))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(_current(), before))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_recorders_install_and_restore(name, tmp_path):
    before = vars(eyesim.EyeSimulator)["run"]
    patches = tracing.Patches()
    try:
        workloads.WORKLOADS[name](tmp_path).install(patches)
    finally:
        patches.restore()
    assert vars(eyesim.EyeSimulator)["run"] is before


def test_traced_engine_run_counts_its_sense_block_and_spans_the_iir():
    # the tracer unpacks _sense_block's (raw, scales) and times the chain's IIR
    # through IirFilter.filter_block; a change to either would miscount or
    # drop the simulator's sigproc time without an error
    layout = eyesim.LedLayout.prototype1()
    engine = eyesim.EyeSimulator(layout, eyesim.SubjectProfile.generate(1),
                                 eyesim.SimConfig(DisplayGeometry(800, 600)), seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        engine.run(eyesim.GazeScript.fixations([ScreenPoint(400, 300)], 100_000).events)
    finally:
        tracer.uninstall()
    assert tracer.counts["eyesim.sense_block.blocks"] == 1
    assert "sigproc.filter_block" in tracer.names


def test_traced_device_path_spans_every_layer_it_crosses():
    # the one-frame path must go through the wrapped names, or a traced
    # stream pass loses its wire, sigproc, regress or kernels time
    rng = np.random.default_rng(5)
    model = regress.GprModel(CalibrationSet(rng.uniform(0, 1, (6, 4)), rng.uniform(0, 800, (6, 2))),
                             MeasureSpec())
    blob = wire.encode(SensorFrame(7, (10, 500, 1000, 3)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        decoder = wire.StreamDecoder()
        frame, = decoder.feed(blob)
        model.estimate(sigproc.IirFilter(0.5).step(frame.normalized()), frame.timestamp_us)
        assert decoder.finish() == []
    finally:
        tracer.uninstall()
    assert {"wire.decode", "sigproc.iir_step", "regress.estimate", "kernels.pairwise"} <= set(tracer.names)
    assert tracer.counts["wire.frames_decoded"] == tracer.counts["regress.estimate.frames"] == 1


def test_traced_gpr_builds_count_jitter_steps_and_span_every_rebuild():
    # the tracer reads GprModel._jitter_base by name and falls back to 1.0,
    # so a renamed attribute would miscount escalations without an error; a
    # kernel scale far from 1 makes that fallback count a different number
    rng = np.random.default_rng(43)
    means = rng.uniform(0, 1e-3, (12, 4))
    edge = 1e298  # targets this large overflow alpha at the first jitter level
    cal = CalibrationSet(means, rng.uniform(0, 1, (12, 2)) * edge)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = regress.GprModel(cal, MeasureSpec())
        model.augmented(means[0] + 1e-12, ScreenPoint(-edge, edge))
    finally:
        tracer.uninstall()
    assert tracer.counts["regress.gpr_jitter_steps"] == 1
    assert tracer.names.count("regress.gpr_build") == 2  # augmented() rebuilds through __init__


# The bench scenarios digest of one pass per seed; the simulator path of these
# outputs keeps its bits across OpenBLAS kernels.
SCENARIOS_DIGESTS = {
    1: "25c716380ef182e3632fdcd8957596be4e881cffd1a4fc991ac540ccfe7ed188",
    9001: "fe4fbfbd817b259e9d1ff04b015de01c629fdce90616298e4db4f1db26e5abd1",
}


@pytest.mark.parametrize("seed", sorted(SCENARIOS_DIGESTS))
def test_scenarios_workload_pass_keeps_its_digest(seed, tmp_path):
    wl = workloads.ScenariosWorkload(tmp_path)
    patches = tracing.Patches()
    try:
        wl.install(patches)
        wl.setup(seed)
        res = wl.run_pass()
    finally:
        patches.restore()
    assert res.failed == 0, res.problems
    assert res.digest == SCENARIOS_DIGESTS[seed]

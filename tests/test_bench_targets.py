"""The benchmark still finds every package attribute it wraps.

``bench/`` wraps functions and methods by name (the tracer's per-layer
spans, each workload's recorders). A renamed or moved target raises
``AttributeError`` only when the benchmark runs; these tests install and
undo every wrap so the rename shows up in the test suite instead.
"""

import sys
from pathlib import Path

import pytest

from ledgaze import evaluate, eyesim, regress, session, wire

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing
import workloads

PINNED = [(eyesim, "clean_signal"), (eyesim.EyeSimulator, "_sense_block"),
          (regress.GprModel, "__init__"), (regress.GprModel, "estimate_batch"),
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

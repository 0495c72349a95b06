import logging

import numpy as np
import pytest

from ledgaze.calib import (
    CalibrationGridSpec,
    aggregate_point,
    run_calibration,
    schedule_targets,
)
from ledgaze.core import (
    CalibrationError,
    ConfigError,
    DisplayGeometry,
    InsufficientDataError,
)

GEOM = DisplayGeometry(1000, 1000)
THRESHOLD = 0.2


# -- target scheduling ----------------------------------------------------------


def test_two_by_two_grid_corners():
    grid = CalibrationGridSpec(2, 2, margin=100)
    points = schedule_targets(grid, GEOM, seed=0)
    assert sorted((p.x, p.y) for p in points) == [
        (100.0, 100.0), (100.0, 900.0), (900.0, 100.0), (900.0, 900.0)]


def test_schedule_deterministic_for_seed():
    grid = CalibrationGridSpec(3, 3)
    assert schedule_targets(grid, GEOM, 7) == schedule_targets(grid, GEOM, 7)
    assert schedule_targets(grid, GEOM, 7) != schedule_targets(grid, GEOM, 8)


def test_schedule_is_permutation_of_grid():
    grid = CalibrationGridSpec(4, 4)
    points = schedule_targets(grid, GEOM, 99)
    assert len(points) == 16
    assert len(set((p.x, p.y) for p in points)) == 16
    for p in points:
        assert GEOM.contains(p)


def test_grid_must_fit_display():
    with pytest.raises(ConfigError):
        schedule_targets(CalibrationGridSpec(2, 2, margin=600), GEOM, 0)


def test_grid_spec_bounds():
    with pytest.raises(ConfigError):
        CalibrationGridSpec(1, 4)
    with pytest.raises(ConfigError):
        CalibrationGridSpec(4, 9)
    with pytest.raises(ConfigError):
        CalibrationGridSpec(4, 4, margin=0)


@pytest.mark.parametrize("threshold", [0.0, -0.1, float("nan")], ids=["zero", "negative", "nan"])
def test_variance_threshold_must_be_positive(threshold):
    with pytest.raises(ConfigError, match="variance threshold must be positive"):
        aggregate_point([[0.3, 0.7]] * 5, threshold)
    with pytest.raises(ConfigError, match="variance threshold must be positive"):
        run_calibration(CleanSource(), CalibrationGridSpec(2, 2), GEOM, threshold, seed=1)


# -- dwell aggregation -------------------------------------------------------------


def test_aggregate_identical_frames_accepted():
    agg = aggregate_point([[0.3, 0.7]] * 5, THRESHOLD)
    assert agg.accepted
    assert np.allclose(agg.mean, [0.3, 0.7])
    assert np.allclose(agg.stds, 0.0)


def test_aggregate_hand_arithmetic():
    agg = aggregate_point([[0.2, 0.4], [0.4, 0.6]], THRESHOLD)
    assert agg.accepted
    assert np.allclose(agg.mean, [0.3, 0.5])
    # sample standard deviation with the n-1 denominator
    assert np.allclose(agg.stds, np.sqrt(2 * 0.01 / 1))


def test_aggregate_alternating_channel_rejected():
    frames = [[0.0, 0.5], [1.0, 0.5]] * 4
    agg = aggregate_point(frames, 0.1)
    assert not agg.accepted
    assert agg.bad_channels == (0,)
    assert agg.mean is None


def test_aggregate_needs_two_frames():
    with pytest.raises(InsufficientDataError):
        aggregate_point([[0.1, 0.2]], THRESHOLD)


def test_aggregate_mean_within_channel_extremes():
    rng = np.random.default_rng(61)
    for _ in range(50):
        X = rng.uniform(0, 1, (int(rng.integers(2, 20)), 5))
        agg = aggregate_point(X, 10.0)
        assert agg.accepted
        assert np.all(agg.mean >= X.min(axis=0) - 1e-15)
        assert np.all(agg.mean <= X.max(axis=0) + 1e-15)


def test_rejection_monotone_in_threshold():
    rng = np.random.default_rng(62)
    X = rng.uniform(0, 1, (12, 3))
    thresholds = np.linspace(0.01, 1.0, 25)
    accepted = [aggregate_point(X, float(t)).accepted
                for t in thresholds]
    # once accepted at some threshold, accepted at every larger one
    first = accepted.index(True)
    assert all(accepted[first:])


# -- calibration run ------------------------------------------------------------


class CleanSource:
    """Signal is a deterministic function of the target; tiny jitter."""

    def __init__(self, noisy_targets=(), fail_always=False):
        self.noisy = {(t.x, t.y) for t in noisy_targets}
        self.fail_always = fail_always
        self.visits = []
        self.rounds = []

    def acquire(self, targets):
        self.rounds.append(len(targets))
        return [self.dwell(t) for t in targets]

    def dwell(self, target):
        self.visits.append((target.x, target.y))
        base = np.array([target.x / 1000.0, target.y / 1000.0, 0.5])
        n = 10
        X = np.tile(base, (n, 1))
        if self.fail_always or (target.x, target.y) in self.noisy:
            X[::2, 2] = 0.99  # alternating channel blows the variance gate
            self.noisy.discard((target.x, target.y))  # one-shot unless fail_always
        return X


def test_run_calibration_clean_4x4_yields_16_points():
    grid = CalibrationGridSpec(4, 4)
    src = CleanSource()
    cal = run_calibration(src, grid, GEOM, THRESHOLD, seed=1)
    assert cal.point_count == 16
    assert cal.channel_count == 3
    assert src.rounds == [16]  # nothing rejected, so no retry round
    assert src.visits == [(t.x, t.y) for t in schedule_targets(grid, GEOM, seed=1)]


def test_run_calibration_2x2_minimal():
    cal = run_calibration(CleanSource(), CalibrationGridSpec(2, 2), GEOM, THRESHOLD, seed=1)
    assert cal.point_count == 4


def test_run_calibration_retries_transient_rejection():
    grid = CalibrationGridSpec(2, 2)
    noisy = schedule_targets(grid, GEOM, seed=3)[0]
    src = CleanSource(noisy_targets=[noisy])
    cal = run_calibration(src, grid, GEOM, THRESHOLD, seed=3)
    assert cal.point_count == 4  # recovered on the retry
    assert src.visits.count((noisy.x, noisy.y)) == 2
    # the retried target was dwelt on again after the whole schedule
    assert src.visits[-1] == (noisy.x, noisy.y)
    assert src.rounds == [4, 1]


def test_run_calibration_retry_round_keeps_schedule_order():
    grid = CalibrationGridSpec(3, 3)
    schedule = schedule_targets(grid, GEOM, seed=4)
    noisy = [schedule[1], schedule[4], schedule[7]]
    src = CleanSource(noisy_targets=noisy)
    cal = run_calibration(src, grid, GEOM, THRESHOLD, seed=4)
    assert cal.point_count == 9
    assert src.rounds == [9, 3]
    assert src.visits[9:] == [(t.x, t.y) for t in noisy]


def test_run_calibration_drops_persistently_noisy_target(caplog):
    class TwiceNoisy(CleanSource):
        def __init__(self, target):
            super().__init__()
            self.target = (target.x, target.y)

        def dwell(self, t):
            X = super().dwell(t)
            if (t.x, t.y) == self.target:
                X[::2, 2] = 0.99
            return X

    grid = CalibrationGridSpec(4, 4)
    bad = schedule_targets(grid, GEOM, seed=5)[2]
    src = TwiceNoisy(bad)
    with caplog.at_level(logging.WARNING, logger="ledgaze.calib"):
        cal = run_calibration(src, grid, GEOM, THRESHOLD, seed=5)
    assert cal.point_count == 15
    assert src.rounds == [16, 1]
    assert any("rejected twice" in r.message for r in caplog.records)


def test_run_calibration_all_rejected_raises():
    src = CleanSource(fail_always=True)
    with pytest.raises(CalibrationError):
        run_calibration(src, CalibrationGridSpec(2, 2), GEOM, THRESHOLD, seed=1)
    assert src.rounds == [4, 4]


def test_run_calibration_deterministic():
    grid = CalibrationGridSpec(3, 3)
    c1 = run_calibration(CleanSource(), grid, GEOM, THRESHOLD, seed=9)
    c2 = run_calibration(CleanSource(), grid, GEOM, THRESHOLD, seed=9)
    assert np.array_equal(c1.means, c2.means)
    assert np.array_equal(c1.targets, c2.targets)

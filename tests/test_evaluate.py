import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledgaze.core import ConfigError, InsufficientDataError
from ledgaze.evaluate import (
    HOLDOUT_FRACTION,
    _ScoredFrames,
    compare_estimators,
    evaluate_accuracy,
    excluded_mask,
    exclusion_masks,
    rank_channels_by_variance,
    run_scenario_session,
    run_scenarios,
    run_task_session,
    sweep,
    trace_rows,
)
from ledgaze.core import CalibrationSet, ScreenPoint
from ledgaze import evaluate, eyesim, session
from ledgaze.eyesim import GazeScript, ScriptEvent, SessionLog, run_script
from ledgaze.kernels import MeasureSpec
from ledgaze.regress import GprModel, SvrModel, grid_search_sigma
from ledgaze.session import (
    SessionConfig,
    calibration_phase,
    evaluation_phase,
    read_session_log,
    run_benchmark_session,
    write_session_log,
)

from oracles import ScoredFramesReference, mean_median_std


def small_config(**kw):
    base = dict(seed=11, grid_rows=2, grid_cols=2, augment_points=3,
                eval_fixations=6, fix_duration_ms=300.0,
                eval_fixation_min_ms=300.0, eval_fixation_max_ms=500.0,
                augment_dwell_ms=200.0, task_count=6, task_dwell_ms=800.0)
    base.update(kw)
    return SessionConfig(**base)


class PerfectEstimator:
    """Returns the ground-truth targets it was wired with."""

    name = "perfect"

    def __init__(self, answers):
        self._answers = np.asarray(answers, dtype=float)
        self._cursor = 0

    def estimate_batch(self, X):
        out = self._answers[self._cursor:self._cursor + len(X)]
        self._cursor += len(X)
        return out


class ConstantEstimator:
    name = "constant"

    def __init__(self, point):
        self.point = point

    def estimate_batch(self, X):
        return np.tile(self.point, (len(X), 1))


def eval_log(cfg):
    return evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)


def test_perfect_estimator_zero_statistics():
    cfg = small_config()
    log = eval_log(cfg)
    mask = ~excluded_mask(log)
    rep = evaluate_accuracy(log, PerfectEstimator(log.target[mask]), cfg.geometry())
    assert rep.mean_deg == 0.0
    assert rep.median_deg == 0.0
    assert rep.std_deg == 0.0


def test_constant_estimator_matches_hand_computed_statistics():
    cfg = small_config()
    log = eval_log(cfg)
    center = [cfg.display_width / 2, cfg.display_height / 2]
    rep = evaluate_accuracy(log, ConstantEstimator(center), cfg.geometry())
    mask = ~excluded_mask(log)
    dists = [0.12 * float(np.hypot(t[0] - center[0], t[1] - center[1]))
             for t in log.target[mask]]
    mean, median, std = mean_median_std(dists)
    assert rep.mean_deg == pytest.approx(mean, rel=1e-12)
    assert rep.median_deg == pytest.approx(median, rel=1e-12)
    assert rep.std_deg == pytest.approx(std, rel=1e-12)
    assert rep.n_used == len(dists)


def test_deleting_excluded_frames_leaves_report_unchanged():
    cfg = small_config()
    log = eval_log(cfg)
    keep = ~excluded_mask(log)
    trimmed = log.subset(keep)
    center = [400.0, 300.0]
    r_full = evaluate_accuracy(log, ConstantEstimator(center), cfg.geometry())
    r_trim = evaluate_accuracy(trimmed, ConstantEstimator(center), cfg.geometry())
    assert r_full.mean_deg == r_trim.mean_deg
    assert r_full.median_deg == r_trim.median_deg
    assert r_full.std_deg == r_trim.std_deg
    assert r_full.n_used == r_trim.n_used


def test_exclusion_windows_cover_blinks_and_moves():
    cfg = small_config()
    script = GazeScript((
        ScriptEvent("fixation", 400_000, ScreenPoint(250, 200)),
        ScriptEvent("blink", 200_000),
        ScriptEvent("fixation", 300_000, ScreenPoint(250, 200)),
        ScriptEvent("saccade", 0, ScreenPoint(550, 400)),
        ScriptEvent("fixation", 400_000, ScreenPoint(550, 400)),
    ))
    log = run_script(cfg.layout(), cfg.subject(), script, cfg.sim_config(), cfg.seed)
    blink_mask, move_mask = exclusion_masks(log)
    moves = [e for e in log.events if e["kind"] == "target_move"]
    blinks = [e for e in log.events if e["kind"] == "blink"]
    assert moves
    assert blinks
    assert np.array_equal(excluded_mask(log), blink_mask | move_mask)
    for ev in moves:
        inside = (log.t_us >= ev["t_move_us"]) & (log.t_us <= ev["t_settle_us"])
        assert np.all(move_mask[inside])
    for ev in blinks:
        inside = (log.t_us >= ev["t0_us"]) & (log.t_us <= ev["t1_us"])
        assert np.all(blink_mask[inside])


def test_histogram_mass_sums_to_one():
    cfg = small_config()
    log = eval_log(cfg)
    rep = evaluate_accuracy(log, ConstantEstimator([100.0, 100.0]), cfg.geometry())
    assert sum(rep.hist_mass) == pytest.approx(1.0, abs=1e-9)
    assert rep.mean_deg >= 0 and rep.median_deg >= 0 and rep.std_deg >= 0


def test_all_frames_excluded_raises():
    cfg = small_config()
    log = eval_log(cfg)
    log = dataclasses.replace(log, events=[*log.events, {"kind": "blink", "t0_us": 0,
                                                         "t1_us": int(log.t_us[-1])}])
    with pytest.raises(InsufficientDataError):
        evaluate_accuracy(log, ConstantEstimator([0.0, 0.0]), cfg.geometry())


@pytest.mark.parametrize("event, problem", [
    ({"kind": "Blink", "t0_us": 0, "t1_us": 100_000}, "unknown event kind 'Blink'"),
    ({"t0_us": 0, "t1_us": 100_000}, "unknown event kind None"),
    ({"kind": "blink", "t0_us": 0, "t1_us": 1e5}, "blink event has no integer t1_us"),
    ({"kind": "blink", "t0_us": 100_000, "t1_us": 99_999}, "blink event t1_us is before its t0_us"),
    ({"kind": "target_move", "t_move_us": 100_000, "t_settle_us": None, "from": [1.0, 2.0]},
     "target_move event 'to' is not a pair of finite numbers"),
    ({"kind": "target_move", "t_move_us": 100_000, "t_settle_us": 99_999, "from": [1.0, 2.0],
      "to": [3.0, 4.0]}, "target_move event t_settle_us is before its t_move_us"),
])
def test_scoring_refuses_an_unscorable_event(event, problem):
    # A misspelt blink would leave its frames scored, and a move without 'to' would
    # fail inside gaze_target; the log is refused when it is built, naming the event,
    # so neither scoring nor the log writer sees it.
    log = eval_log(small_config())
    message = f"log event {len(log.events)} cannot be scored: {problem}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(log, events=[*log.events, event])


def test_a_session_round_trip_checks_its_events_twice(monkeypatch, tmp_path):
    # Once for the engine's snapshot and once for the log read back: the writer and
    # scoring take a built SessionLog's events as checked.
    checked = []
    for module in (eyesim, session, evaluate):  # each module that holds a name for the rule
        rule = getattr(module, "_event_fault", None)
        if rule is not None:
            monkeypatch.setattr(module, "_event_fault",
                                lambda events, rule=rule: checked.append(len(events)) or rule(events))
    cfg = small_config()
    log, cal = run_benchmark_session(cfg)
    path = tmp_path / "session.jsonl"
    write_session_log(log, path, calibration=cal)
    back, back_cal = read_session_log(path)
    evaluate_accuracy(back, cfg.build_estimator(back_cal), cfg.geometry())
    compare_estimators(back, back_cal, cfg)
    assert checked == [len(log.events)] * 2


class IdentityEstimator:
    """Takes each frame's processed vector for its estimate."""

    name = "identity"

    def estimate_batch(self, X):
        return X


_coordinate = st.sampled_from([100.0, 250.5]) | st.floats(0.0, 800.0)


@st.composite
def grouped_logs(draw):
    """A log of runs of frames on one target each, whose proc is each frame's estimate.

    The targets come from a small pool whose points often share an x, runs
    revisit targets, and one run holds 321 to 340 frames, at least 300 after
    a blink, where a sequential sum parts from numpy's. Estimates sit at one
    of three offsets from their target, so that errors tie, or at random
    ones. A blink may exclude a few frames; no move excludes any, since a
    move settles between two frames and the filter (alpha 1) adds no pad.
    """
    pool = draw(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=5))
    target = st.integers(0, len(pool) - 1)
    runs = draw(st.lists(st.tuples(target, st.integers(1, 6)), max_size=12))
    runs.insert(draw(st.integers(0, len(runs))), (draw(target), draw(st.integers(321, 340))))
    points = [list(pool[k]) for k, _ in runs]
    targets = np.repeat(np.array(points), [n for _, n in runs], axis=0)
    n = len(targets)
    t_us = 10 * np.arange(n, dtype=np.int64)
    starts = np.cumsum([n for _, n in runs])[:-1].tolist()
    events = [{"kind": "target_move", "t_move_us": 10 * b - 5, "t_settle_us": 10 * b - 5,
               "from": frm, "to": to} for b, frm, to in zip(starts, points, points[1:])]
    if draw(st.booleans()):
        first = draw(st.integers(0, n - 1))
        events.append({"kind": "blink", "t0_us": 10 * first,
                       "t1_us": 10 * (first + draw(st.integers(0, 20)))})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        offsets = rng.choice([0.0, 0.5, 3.0], size=(n, 2))
    else:
        offsets = rng.normal(0.0, 20.0, (n, 2))
    meta = {"start_target": points[0], "iir_alpha": 1.0, "cycle_us": 10}
    return SessionLog(t_us, np.zeros((n, 2), dtype=np.int64), targets + offsets, events, meta)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(grouped_logs())
def test_scored_frames_report_matches_the_per_target_reference(log):
    geom = small_config().geometry()
    got = _ScoredFrames.of(log).report(IdentityEstimator(), geom).to_dict()
    want = ScoredFramesReference.of(log).report(IdentityEstimator(), geom).to_dict()
    assert got == want
    # bit for bit: the shortest repr of a float names its one double
    assert json.dumps(got) == json.dumps(want)


def test_trace_rows_fields_and_count():
    cfg = small_config()
    log = eval_log(cfg)
    rows = list(trace_rows(log, ConstantEstimator([1.0, 2.0])))
    assert len(rows) == log.n_frames
    assert rows[0].keys() == {"t_us", "target_x", "target_y", "gaze_x", "gaze_y",
                              "estimate_x", "estimate_y", "excluded"}
    assert {r["excluded"] for r in rows} <= {0, 1}


def test_rank_channels_by_variance():
    means = np.array([[0.0, 0.5, 0.1], [1.0, 0.5, 0.2], [0.0, 0.5, 0.3]])
    cal = CalibrationSet(means, np.zeros((3, 2)))
    assert rank_channels_by_variance(cal)[0] == 0
    assert rank_channels_by_variance(cal)[-1] == 1


def test_sweep_argument_errors():
    cfg = small_config()
    with pytest.raises(ConfigError):
        sweep(cfg, "led_count", [])
    with pytest.raises(ConfigError):
        sweep(cfg, "led_count", [2, 6])
    with pytest.raises(ConfigError):
        sweep(cfg, "led_count", [4, 20])
    with pytest.raises(ConfigError):
        sweep(cfg, "calibration_points", [5])
    with pytest.raises(ConfigError):
        sweep(cfg, "wavelength", [1])


def test_sweep_single_value_matches_direct_evaluation():
    cfg = small_config()
    from ledgaze.session import run_benchmark_session
    from ledgaze.regress import GprModel
    result = sweep(cfg, "led_count", [12])
    log, cal = run_benchmark_session(cfg)
    direct = evaluate_accuracy(log, GprModel(cal, cfg.measure(), jitter=cfg.jitter),
                               cfg.geometry())
    assert result["rows"][0]["mean_deg"] == pytest.approx(direct.mean_deg, rel=1e-12)
    assert result["rows"][0]["value"] == 12


def test_compare_reports_match_evaluate_accuracy_of_each_model():
    # every compared estimator is scored on one shared frame selection; each
    # report must still equal that model's own evaluate_accuracy report
    cfg = small_config(augment_points=8)
    log, cal = run_benchmark_session(cfg)
    result = compare_estimators(log, cal, cfg, all_measures=True)
    models = [GprModel(cal, MeasureSpec("minkowski", m=cfg.minkowski_m), jitter=cfg.jitter),
              SvrModel(cal, result["svr_sigma"], normalize=cfg.svr_normalize,
                       rbf_squared=cfg.rbf_squared),
              *(GprModel(cal, MeasureSpec(kind), jitter=cfg.jitter)
                for kind in ("cosine", "manhattan", "canberra"))]
    assert len(result["reports"]) == len(models)
    for got, model in zip(result["reports"], models):
        want = evaluate_accuracy(log, model, cfg.geometry()).to_dict()
        assert got.keys() == want.keys()
        for field in want:
            assert got[field] == want[field], (want["method"], field)


def test_compare_searches_sigma_on_the_kernel_of_the_svr_it_reports():
    cfg = small_config(augment_points=30, rbf_squared=True)
    log, cal = run_benchmark_session(cfg)
    result = compare_estimators(log, cal, cfg)
    # the same seeded holdout split as compare_estimators
    P = cal.point_count
    n_val = max(1, round(P * HOLDOUT_FRACTION))
    order = np.random.default_rng(np.random.SeedSequence([cfg.seed, 51])).permutation(P)
    val, fit = np.sort(order[:n_val]), np.sort(order[n_val:])
    fit_cal = CalibrationSet(cal.means[fit], cal.targets[fit])
    validation = (cal.means[val], cal.targets[val])

    def search(squared):
        return grid_search_sigma(fit_cal, validation, cfg.sigma_grid,
                                 normalize=cfg.svr_normalize, rbf_squared=squared)

    assert search(True) != search(False)  # the kernels disagree on this split
    assert result["svr_sigma"] == search(True)
    assert result["sigma_selection"]["fraction"] == HOLDOUT_FRACTION


@pytest.mark.parametrize("axis, values", [("led_count", [4, 12]),
                                          ("calibration_points", [4, 9])])
def test_sweep_scores_the_configured_estimator(axis, values):
    cfg = small_config(estimator="svr")
    result = sweep(cfg, axis, values)
    if axis == "led_count":
        log, cal = run_benchmark_session(cfg)
        cases = [(SessionLog(log.t_us, log.raw[:, row["channels"]], log.proc[:, row["channels"]],
                             log.events, log.meta),
                  cal.select_channels(row["channels"])) for row in result["rows"]]
    else:
        log = evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
        sides = [math.isqrt(v) for v in values]
        cases = [(log, calibration_phase(cfg.replace(grid_rows=side, grid_cols=side),
                                         cfg.subject(), cfg.layout(), cfg.seed))
                 for side in sides]
    assert [row["value"] for row in result["rows"]] == values
    for row, (scored_log, cal) in zip(result["rows"], cases):
        want = evaluate_accuracy(scored_log, cfg.build_estimator(cal), cfg.geometry())
        assert want.method == "svr-rbf"
        assert (row["mean_deg"], row["median_deg"], row["std_deg"], row["n_used"]) == (
            want.mean_deg, want.median_deg, want.std_deg, want.n_used)


def test_task_session_requires_calibration():
    cfg = small_config()
    with pytest.raises(ConfigError):
        run_task_session(cfg, None, cfg.subject(), seed=0)


def test_task_session_counts_and_augmentation():
    cfg = small_config(task_count=8)
    from ledgaze.session import calibration_phase
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    res = run_task_session(cfg, cal, cfg.subject(), seed=0)
    assert len(res.successes) == 8
    failures = res.successes.count(False)
    assert res.final_points == cal.point_count + failures
    for t in res.tasks:
        assert 3 <= t["candidates"] <= 8
        assert 0.0 <= t["inside_fraction"] <= 1.0


def test_task_dwell_too_short_to_sample_rejected():
    # a zero-length dwell would judge each task on an empty window
    with pytest.raises(ConfigError, match="'task_dwell_ms', 'step_us': a 0.0 ms dwell"):
        small_config(task_dwell_ms=0.0)


def test_task_success_never_leaks_truth_without_failure():
    # a session with a perfect-by-construction estimator never augments
    cfg = small_config(task_count=5, noise_std=0.0)
    from ledgaze.session import calibration_phase, augmentation_phase
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    cal = augmentation_phase(cfg, cfg.subject(), cfg.layout(), cal, cfg.seed)
    res = run_task_session(cfg, cal, cfg.subject(), seed=1)
    if all(res.successes):
        assert res.final_points == cal.point_count


def test_scenario_unknown_name_rejected():
    cfg = small_config()
    with pytest.raises(ConfigError):
        run_scenario_session(cfg, "uncalibrated", 0)
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_scenarios(cfg, ("uncalibrated",), n_seeds=1)


def test_scenario_session_row_shape():
    cfg = small_config(task_count=4)
    row = run_scenario_session(cfg, "calibrated", 0)
    assert row["scenario"] == "calibrated"
    assert 0.0 <= row["success_ratio"] <= 1.0
    assert row.keys() == {"scenario", "seed", "success_ratio", "first_half",
                          "second_half", "final_points"}

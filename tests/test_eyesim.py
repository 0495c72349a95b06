import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledgaze.calib import CalibrationGridSpec, schedule_targets
from ledgaze.core import ConfigError, DisplayGeometry, ScreenPoint
from ledgaze.eyesim import (
    EyeSimulator,
    GazeScript,
    LedLayout,
    OpticsModel,
    ScriptEvent,
    SimConfig,
    SubjectProfile,
    clean_signal,
    expose_block,
    run_script,
    sense,
)
from ledgaze.kernels import MeasureSpec
from ledgaze.regress import GprModel
from ledgaze.session import SimulatorDwellSource
from ledgaze.sigproc import adapt_exposure, replay_exposure
from oracles import StepwiseSimulator, clean_signal_oracle, exposure_replay

GEOM = DisplayGeometry(800, 600)
OPTICS = OpticsModel()


def quiet_subject(seed=1, noise=0.0, layout=None):
    layout = layout or LedLayout.prototype1()
    return SubjectProfile.generate(seed, channels=layout.total_channels, noise_std=noise)


# -- layout ------------------------------------------------------------------


def test_prototype1_roles_and_counts():
    lay = LedLayout.prototype1()
    illuminators = set().union(*(illum for _, illum in lay.steps))
    assert illuminators == {2, 5, 8}
    assert illuminators.isdisjoint(lay.sensing_indices)
    assert lay.channels_per_eye == 6
    assert lay.total_channels == 12
    assert lay.sensing_indices == (0, 1, 3, 4, 6, 7)


def test_prototype2_roles_and_counts():
    lay = LedLayout.prototype2()
    # every LED both senses and illuminates
    assert lay.sensing_indices == tuple(range(6))
    assert set().union(*(illum for _, illum in lay.steps)) == set(range(6))
    assert lay.total_channels == 12


def test_layout_one_eye():
    lay = LedLayout.prototype1(eyes=1)
    assert lay.total_channels == 6


def test_layout_validation():
    with pytest.raises(ConfigError, match="distinct"):
        LedLayout("prototype1", (0.0, 0.0), ((0, frozenset({1})),))
    with pytest.raises(ConfigError):
        LedLayout.prototype1(eyes=3)


@pytest.mark.parametrize("steps", [((3, frozenset({1})),), ((0, frozenset({1, 3})),),
                                   ((-1, frozenset({1})),)],
                         ids=["sensing", "illuminating", "negative"])
def test_layout_rejects_led_off_the_ring(steps):
    with pytest.raises(ConfigError, match="off the 3-position ring"):
        LedLayout("prototype2", (0.0, 120.0, 240.0), steps)


def test_led_positions_second_eye_mirrors_x():
    lay = LedLayout.prototype2()
    p0 = lay.led_positions(0)
    p1 = lay.led_positions(1)
    assert np.allclose(p1[:, 0], -p0[:, 0])
    assert np.allclose(p1[:, 1:], p0[:, 1:])


# -- headset shift ------------------------------------------------------------


def test_shift_translates_all_leds_rigidly():
    lay = LedLayout.prototype1()
    shifted = replace(lay, shift_mm=(1.0, 2.0))
    delta = shifted.led_positions(0) - lay.led_positions(0)
    assert np.allclose(delta[:, 0], 1.0)
    assert np.allclose(delta[:, 1], 2.0)
    assert np.allclose(delta[:, 2], 0.0)


def test_midsession_shift_degrades_prior_calibration():
    # calibrate on the unshifted mount, then compare the same script with and
    # without a 2 mm slip; the slipped run must be strictly worse
    from ledgaze.session import SessionConfig, calibration_phase, evaluation_phase
    from ledgaze.evaluate import evaluate_accuracy
    cfg = SessionConfig(seed=77)
    subj = cfg.subject()
    lay = cfg.layout()
    cal = calibration_phase(cfg, subj, lay, cfg.seed)
    model = GprModel(cal, MeasureSpec("minkowski"))
    log_same = evaluation_phase(cfg, subj, lay, cfg.seed)
    log_shifted = evaluation_phase(cfg, subj, replace(lay, shift_mm=(2.0, 1.0)), cfg.seed)
    err_same = evaluate_accuracy(log_same, model, cfg.geometry()).mean_deg
    err_shifted = evaluate_accuracy(log_shifted, model, cfg.geometry()).mean_deg
    assert err_shifted > err_same


# -- subject profiles -----------------------------------------------------------


def test_subject_generation_deterministic():
    assert SubjectProfile.generate(5) == SubjectProfile.generate(5)
    assert SubjectProfile.generate(5) != SubjectProfile.generate(6)


def test_subject_validation():
    with pytest.raises(ConfigError):
        SubjectProfile(corneal_gain=(1.0, -1.0))
    with pytest.raises(ConfigError):
        SubjectProfile(noise_std=-0.1, corneal_gain=(1.0,) * 12)
    with pytest.raises(ConfigError):
        SubjectProfile(srt_mean_ms=0.0, corneal_gain=(1.0,) * 12)


def test_subjects_with_different_eye_offsets_have_distinct_signals():
    lay = LedLayout.prototype1()
    a = quiet_subject(1)
    b = replace(a, eye_center_offset_mm=(a.eye_center_offset_mm[0] + 1.0,
                                         a.eye_center_offset_mm[1]))
    pts = np.array([[200.0, 300.0], [600.0, 200.0], [400.0, 450.0]])
    sa = clean_signal(lay, a, GEOM, OPTICS, pts)
    sb = clean_signal(lay, b, GEOM, OPTICS, pts)
    assert np.all(np.linalg.norm(sa - sb, axis=1) > 0)


# -- sense() contract -------------------------------------------------------------


def test_sense_deterministic_without_noise():
    lay = LedLayout.prototype1()
    subj = quiet_subject()
    g = ScreenPoint(300, 200)
    r1 = sense(lay, subj, GEOM, g, 0, {2}, 400.0)
    r2 = sense(lay, subj, GEOM, g, 0, {2}, 400.0)
    assert r1 == r2


def test_sense_toward_led_reads_higher_than_away():
    lay = LedLayout.prototype1()
    subj = quiet_subject()
    for step_idx, (led, illum) in enumerate(lay.steps):
        ang = math.radians(lay.ring_angles_deg[led])
        dx, dy = math.cos(ang), math.sin(ang)
        toward = ScreenPoint(400 + 250 * dx, 300 + 200 * dy)
        away = ScreenPoint(400 - 250 * dx, 300 - 200 * dy)
        r_toward = sense(lay, subj, GEOM, toward, step_idx, illum, 400.0)
        r_away = sense(lay, subj, GEOM, away, step_idx, illum, 400.0)
        assert r_toward > r_away


def test_sense_halved_exposure_halves_midrange_reading():
    lay = LedLayout.prototype1()
    subj = quiet_subject()
    g = ScreenPoint(500, 300)
    full = sense(lay, subj, GEOM, g, 0, {2}, 400.0)
    half = sense(lay, subj, GEOM, g, 0, {2}, 200.0)
    assert 100 < full < 900  # mid-range, clamp not in play
    assert abs(half - full / 2) <= 1.0


def test_sense_more_illuminators_never_decrease_reading():
    lay = LedLayout.prototype2()
    subj = quiet_subject(layout=lay)
    g = ScreenPoint(350, 250)
    r_one = sense(lay, subj, GEOM, g, 0, {1}, 400.0)
    r_two = sense(lay, subj, GEOM, g, 0, {1, 3}, 400.0)
    r_all = sense(lay, subj, GEOM, g, 0, {1, 2, 3, 4, 5}, 400.0)
    assert r_one <= r_two <= r_all


def test_sense_gain_affects_only_its_channel():
    lay = LedLayout.prototype1()
    a = quiet_subject()
    gains = list(a.corneal_gain)
    gains[4] = 1e-9  # effectively dark channel, still positive
    b = replace(a, corneal_gain=tuple(gains))
    pts = np.array([[250.0, 350.0], [550.0, 150.0]])
    sa = clean_signal(lay, a, GEOM, OPTICS, pts)
    sb = clean_signal(lay, b, GEOM, OPTICS, pts)
    diff = np.abs(sa - sb)
    assert np.all(diff[:, 4] > 0)
    untouched = [c for c in range(12) if c != 4]
    assert np.all(diff[:, untouched] == 0)


def test_sense_requires_gaze_on_display():
    lay = LedLayout.prototype1()
    with pytest.raises(ConfigError):
        sense(lay, quiet_subject(), GEOM, ScreenPoint(900, 300), 0, {2}, 400.0)


# -- scripts ----------------------------------------------------------------------


def test_script_validation():
    with pytest.raises(ConfigError):
        GazeScript(())
    with pytest.raises(ConfigError):
        GazeScript((ScriptEvent("fixation", 0, ScreenPoint(1, 1)),))
    with pytest.raises(ConfigError):
        GazeScript((ScriptEvent("saccade", 10, ScreenPoint(1, 1)),))
    with pytest.raises(ConfigError):
        GazeScript((ScriptEvent("blink", 0),))
    with pytest.raises(ConfigError):
        GazeScript((ScriptEvent("wink", 100),))


def test_script_duration_and_fixation_builder():
    s = GazeScript.fixations([ScreenPoint(1, 2), ScreenPoint(3, 4)], 500_000)
    assert s.duration_us == 1_000_000


def test_random_script_targets_stay_inside_margin():
    rng = np.random.default_rng(70)
    s = GazeScript.random(rng, GEOM, 100, 20, (200_000, 400_000), 15.0)
    for ev in s.events:
        if ev.kind == "fixation":
            assert 100 <= ev.target.x <= 700
            assert 100 <= ev.target.y <= 500


# -- run_script / engine ------------------------------------------------------------


def cfg():
    return SimConfig(geom=GEOM)


def test_run_script_too_short_raises():
    script = GazeScript((ScriptEvent("fixation", 1000, ScreenPoint(100, 100)),))
    with pytest.raises(ConfigError):
        run_script(LedLayout.prototype1(), quiet_subject(), script, cfg(), seed=0)


def test_single_fixation_no_noise_all_frames_identical():
    script = GazeScript.fixations([ScreenPoint(333, 222)], 400_000)
    log = run_script(LedLayout.prototype1(), quiet_subject(), script, cfg(), seed=0)
    assert log.n_frames == 40
    assert np.all(log.raw == log.raw[0])
    assert np.all(log.gaze == log.gaze[0])


def test_full_determinism_bit_identical_logs():
    lay = LedLayout.prototype1()
    subj = quiet_subject(noise=0.01)
    script = GazeScript((
        ScriptEvent("fixation", 400_000, ScreenPoint(200, 200)),
        ScriptEvent("blink", 150_000),
        ScriptEvent("fixation", 400_000, ScreenPoint(600, 400)),
    ))
    a = run_script(lay, subj, script, cfg(), seed=42)
    b = run_script(lay, subj, script, cfg(), seed=42)
    assert np.array_equal(a.raw, b.raw)
    assert np.array_equal(a.proc, b.proc)
    assert np.array_equal(a.t_us, b.t_us)
    assert a.events == b.events
    c = run_script(lay, subj, script, cfg(), seed=43)
    assert not np.array_equal(a.raw, c.raw)


def test_blink_is_annotated_and_frames_differ_from_flanks():
    script = GazeScript((
        ScriptEvent("fixation", 500_000, ScreenPoint(400, 300)),
        ScriptEvent("blink", 200_000),
        ScriptEvent("fixation", 500_000, ScreenPoint(400, 300)),
    ))
    log = run_script(LedLayout.prototype1(), quiet_subject(), script, cfg(), seed=1)
    blinks = [e for e in log.events if e["kind"] == "blink"]
    assert len(blinks) == 1
    t0, t1 = blinks[0]["t0_us"], blinks[0]["t1_us"]
    inside = (log.t_us >= t0) & (log.t_us < t1)
    mid_blink = log.raw[inside][len(log.raw[inside]) // 2]
    before = log.raw[~inside][10]
    assert not np.array_equal(mid_blink, before)


def test_srt_delay_deterministic_gaze_switch():
    lay = LedLayout.prototype1()
    subj = replace(quiet_subject(), srt_mean_ms=200.0, srt_std_ms=0.0)
    script = GazeScript((
        ScriptEvent("fixation", 500_000, ScreenPoint(150, 150)),
        ScriptEvent("fixation", 600_000, ScreenPoint(650, 450)),
    ))
    log = run_script(lay, subj, script, cfg(), seed=3)
    moves = [e for e in log.events if e["kind"] == "target_move"]
    assert len(moves) == 1
    mv = moves[0]
    cycle = log.meta["cycle_us"]
    # the gaze lands on the new target at the first frame after the reaction time
    assert mv["t_settle_us"] >= mv["t_move_us"] + 200_000
    assert mv["t_settle_us"] - (mv["t_move_us"] + 200_000) < cycle
    switched = log.gaze[:, 0] == 650
    assert np.array_equal(log.t_us[switched] >= mv["t_settle_us"],
                          np.ones(switched.sum(), dtype=bool))
    # stimulus target stepped immediately at the move
    at_move = log.t_us >= mv["t_move_us"]
    assert np.all(log.target[at_move, 0] == 650)


def test_saccade_event_is_zero_duration_target_change():
    script = GazeScript((
        ScriptEvent("fixation", 300_000, ScreenPoint(100, 100)),
        ScriptEvent("saccade", 0, ScreenPoint(700, 500)),
        ScriptEvent("fixation", 300_000, ScreenPoint(700, 500)),
    ))
    log = run_script(LedLayout.prototype1(), quiet_subject(), script, cfg(), seed=4)
    moves = [e for e in log.events if e["kind"] == "target_move"]
    assert len(moves) == 1  # the fixation at the same target adds no second move


def test_exposure_adaptation_recovers_saturated_channel():
    # bright optics saturate at the reference exposure; adaptation must bring
    # readings back under the ceiling within a few frames
    bright = OpticsModel(signal_scale=3.0)
    config = SimConfig(geom=GEOM, optics=bright)
    lay = LedLayout.prototype1()
    script = GazeScript.fixations([ScreenPoint(400, 300)], 600_000)
    log = run_script(lay, quiet_subject(), script, config, seed=5)
    assert log.raw[:3].max() >= 1000  # clipped at first
    assert log.raw[-1].max() < 1000  # settled after adaptation


def test_exposure_compensation_keeps_processed_scale():
    # the same gaze with bright optics and adapted-down exposure should land
    # near (clean signal / reference scaling), not at the clipped value
    bright = OpticsModel(signal_scale=1.3)
    config = SimConfig(geom=GEOM, optics=bright)
    lay = LedLayout.prototype1()
    subj = quiet_subject()
    script = GazeScript.fixations([ScreenPoint(150, 300)], 2_000_000)
    log = run_script(lay, subj, script, config, seed=6)
    expected = clean_signal(lay, subj, GEOM, bright, np.array([[150.0, 300.0]]))[0]
    assert expected.max() > 1.0  # would clip without adaptation
    assert np.allclose(log.proc[-1], expected, atol=0.01)


@pytest.mark.parametrize("make_layout,exposure_us", [
    (LedLayout.prototype1, 400.0),
    (LedLayout.prototype2, 1600.0),  # saturates: exposures halve
    (LedLayout.prototype1, 25.0),    # starved: exposures double
], ids=["prototype1-400us", "prototype2-1600us", "prototype1-25us"])
def test_engine_block_path_matches_sense_and_adapt_exposure(make_layout, exposure_us):
    # Differential check of the engine's block exposure/optics path against
    # the one-channel reference: sense() at the current exposure, then
    # adapt_exposure(), frame by frame and channel by channel.
    lay = make_layout()
    subj = quiet_subject(seed=3, layout=lay)
    config = SimConfig(geom=GEOM, exposure_init_us=exposure_us)
    points = [ScreenPoint(150, 120), ScreenPoint(650, 480), ScreenPoint(400, 300),
              ScreenPoint(700, 100)]
    sim = EyeSimulator(lay, subj, config, seed=8, start_target=points[0])
    sim.run(GazeScript.fixations(points, 200_000).events)
    log = sim.snapshot()
    assert log.n_frames == 80
    state = np.full(lay.total_channels, exposure_us)
    steps = lay.steps
    adaptations = np.zeros(lay.total_channels, dtype=np.int64)
    for i in range(log.n_frames):
        gaze = ScreenPoint(*log.gaze[i])
        for ch in range(lay.total_channels):
            illum = steps[ch % lay.channels_per_eye][1]
            reading = sense(lay, subj, GEOM, gaze, ch, illum, state[ch],
                            optics=config.optics)
            assert log.raw[i, ch] == reading, (i, ch)
            adapted = adapt_exposure(state[ch], reading, config.exposure_min_us,
                                     config.exposure_max_us)
            adaptations[ch] += adapted != state[ch]
            state[ch] = adapted
    assert adaptations.sum() > 0
    assert np.array_equal(sim.exposure_changes, adaptations)


def test_run_output_does_not_depend_on_how_a_span_is_split():
    # One 3 s fixation and three 1 s fixations on the same target, as one
    # run() or three, give the same frames and events: noise is drawn in
    # sequence, the IIR carries its state, the exposure rule its exposures
    # and the move its reaction time; the exposure changes add up alike.
    lay = LedLayout.prototype1()
    subj = replace(quiet_subject(noise=0.05), srt_mean_ms=1500.0, srt_std_ms=0.0)
    config = SimConfig(geom=GEOM, optics=OpticsModel(signal_scale=3.0))
    target = ScreenPoint(650, 450)
    changes = []

    def simulate(rounds):
        sim = EyeSimulator(lay, subj, config, seed=12, start_target=ScreenPoint(150, 150))
        for us in rounds:
            sim.run([ScriptEvent("fixation", u, target) for u in us])
        changes.append(sim.exposure_changes.tolist())
        return sim.snapshot()

    whole = simulate([[3_000_000]])
    # the reaction time lands in the second second and the exposures adapt
    assert whole.n_frames == 300
    assert 1_000_000 <= whole.events[0]["t_settle_us"] < 2_000_000
    assert whole.raw[:3].max() >= 1000 and whole.raw[-1].max() < 1000
    for split in (simulate([[1_000_000] * 3]), simulate([[1_000_000]] * 3)):
        for col in ("t_us", "raw", "proc", "gaze", "target"):
            assert np.array_equal(getattr(whole, col), getattr(split, col)), col
        assert whole.events == split.events
    assert changes[0] == changes[1] == changes[2] and sum(changes[0]) > 0


def _assert_same_log(got, want):
    for col in ("t_us", "raw", "proc", "gaze", "target"):
        assert np.array_equal(getattr(got, col), getattr(want, col)), col
    assert got.events == want.events


def _simulate_rounds(lay, subj, config, rounds, stepwise, start=None):
    """Engine after the rounds, each simulated as one run() call or by the per-event path."""
    sim = EyeSimulator(lay, subj, config, seed=21, start_target=start)
    ref = StepwiseSimulator(sim)
    for events in rounds:
        if stepwise:
            for ev in events:
                ref.run_event(ev)
        else:
            sim.run(events)
    return sim


def _dwell_targets(phase):
    if phase == "calibration":  # the schedule, then a retry round
        schedule = schedule_targets(CalibrationGridSpec(4, 4), GEOM, seed=3)
        return 1500.0, [schedule, [schedule[i] for i in (2, 5, 11)]]
    rng = np.random.default_rng(4)
    count, dwell_ms = {"augmentation": (20, 600.0), "task": (8, 3000.0)}[phase]
    return dwell_ms, [[ScreenPoint(float(x), float(y)) for x, y in
                       zip(rng.uniform(100, 700, count), rng.uniform(100, 500, count))]]


def _random_events(rng, n):
    """Fixations, saccades and blinks, with repeats of the current target."""
    pool = [ScreenPoint(float(x), float(y)) for x, y in
            zip(rng.uniform(0, 800, 3), rng.uniform(0, 600, 3))]
    events = []
    for _ in range(n):
        kind = rng.choice(["fixation", "fixation", "saccade", "blink"])
        target = pool[rng.integers(3)]
        if kind == "fixation":
            events.append(ScriptEvent("fixation", int(rng.integers(1, 500_000)), target))
        elif kind == "saccade":
            events.append(ScriptEvent("saccade", 0, target))
        else:
            events.append(ScriptEvent("blink", int(rng.integers(1, 300_000))))
    return pool[0], events


SIM_CASES = {
    "noise0": (0.0, OpticsModel()),
    "noise0.01": (0.01, OpticsModel()),  # the default regime: few exposure changes
    "noise0.05-bright": (0.05, OpticsModel(signal_scale=3.0)),  # exposures adapt
}


@pytest.mark.parametrize("case", list(SIM_CASES))
@pytest.mark.parametrize("make_layout", [LedLayout.prototype1, LedLayout.prototype2],
                         ids=["prototype1", "prototype2"])
@pytest.mark.parametrize("phase", ["calibration", "augmentation", "task", "script"])
def test_run_timeline_matches_stepwise_reference(phase, make_layout, case):
    noise, optics = SIM_CASES[case]
    lay = make_layout()
    subj = quiet_subject(seed=2, noise=noise, layout=lay)
    config = SimConfig(geom=GEOM, optics=optics)
    if phase == "script":
        script = GazeScript.random(np.random.default_rng(5), GEOM, 100, 25,
                                   (150_000, 900_000), 40.0)
        events = list(script.events)
        events.insert(7, ScriptEvent("saccade", 0, ScreenPoint(50, 40)))
        rounds = [events[:10], events[10:]]
    else:
        dwell_ms, target_rounds = _dwell_targets(phase)
        probe = EyeSimulator(lay, subj, config, seed=0)
        settle_us = SimulatorDwellSource(probe, dwell_ms).settle_us()
        rounds = [[ScriptEvent("fixation", us, t) for t in targets
                   for us in (settle_us, int(dwell_ms * 1000))] for targets in target_rounds]
    got = _simulate_rounds(lay, subj, config, rounds, stepwise=False)
    want = _simulate_rounds(lay, subj, config, rounds, stepwise=True)
    assert got.frame_index == want.frame_index > 0
    assert np.array_equal(got.exposure_us, want.exposure_us)
    assert np.array_equal(got.exposure_changes, want.exposure_changes)
    _assert_same_log(got.snapshot(), want.snapshot())
    assert got.exposure_changes.sum() > 0  # every case walks some exposure changes
    if case == "noise0.05-bright":
        assert np.any(got.exposure_us != config.exposure_init_us)


@pytest.mark.parametrize("phase", ["calibration", "augmentation", "task"])
def test_dwell_source_windows_match_stepwise_acquire(phase):
    lay = LedLayout.prototype1()
    subj = quiet_subject(seed=2, noise=0.05, layout=lay)
    config = SimConfig(geom=GEOM, optics=OpticsModel(signal_scale=3.0))
    dwell_ms, target_rounds = _dwell_targets(phase)
    source = SimulatorDwellSource(EyeSimulator(lay, subj, config, seed=21), dwell_ms)
    ref = StepwiseSimulator(EyeSimulator(lay, subj, config, seed=21))
    settle_us, dwell_us = source.settle_us(), int(dwell_ms * 1000)
    for targets in target_rounds:
        windows = source.acquire(targets)
        assert len(windows) == len(targets)
        for target, got in zip(targets, windows):
            want = ref.acquire(target, settle_us, dwell_us)
            assert want.shape[0] == source.engine.frame_count(dwell_us)
            assert np.array_equal(got, want)
    assert source.engine.events == ref.sim.events


# (mean, std) reaction times in ms: 300 ms is exactly 50 cycles of 6 ms, so
# the switch falls on a frame time; a 1 ms mean with a 1 s spread is often
# clipped to 0, a switch on the move's own frame.
SRT_CASES = [(1.0, 1000.0), (50.0, 12.5), (250.0, 62.5), (900.0, 225.0), (300.0, 0.0)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 14), st.sampled_from(SRT_CASES),
       st.lists(st.integers(0, 14), max_size=3))
def test_random_timelines_match_stepwise_reference(seed, n, srt, cuts):
    # Moves superseded before the eye switches, zero-frame events, repeats of
    # the current target and moves still unsettled at the end of a round.
    rng = np.random.default_rng(seed)
    start, events = _random_events(rng, n)
    cuts = sorted({min(c, n) for c in cuts} | {0, n})
    rounds = [events[a:b] for a, b in zip(cuts, cuts[1:])]
    lay = LedLayout.prototype1()
    subj = replace(quiet_subject(noise=0.05), srt_mean_ms=srt[0], srt_std_ms=srt[1])
    config = SimConfig(geom=GEOM, step_us=1000, optics=OpticsModel(signal_scale=3.0))
    got = _simulate_rounds(lay, subj, config, rounds, stepwise=False, start=start)
    want = _simulate_rounds(lay, subj, config, rounds, stepwise=True, start=start)
    assert got.frame_index == want.frame_index
    _assert_same_log(got.snapshot(), want.snapshot())


def test_move_superseded_before_the_eye_switches():
    lay = LedLayout.prototype1()
    subj = replace(quiet_subject(), srt_mean_ms=500.0, srt_std_ms=0.0)
    a, b, c = ScreenPoint(150, 150), ScreenPoint(650, 450), ScreenPoint(400, 100)
    sim = EyeSimulator(lay, subj, cfg(), seed=3, start_target=a)
    # b is shown for 200 ms, shorter than the 500 ms reaction time
    sim.run([ScriptEvent("fixation", 300_000, a), ScriptEvent("fixation", 200_000, b),
             ScriptEvent("fixation", 800_000, c)])
    to_b, to_c = sim.events
    assert to_b["to"] == [b.x, b.y] and to_c["to"] == [c.x, c.y]
    # 30 + 20 frames in, before b's switch at 30 frames + 500 ms
    assert to_b["t_settle_us"] == to_c["t_move_us"] == 50 * sim.cycle_us
    t, _, _, gaze, target = sim.take_frames()
    assert not np.any(np.all(gaze == [b.x, b.y], axis=1))
    assert np.all(gaze[t < to_c["t_settle_us"]] == [a.x, a.y])
    assert np.all(gaze[t >= to_c["t_settle_us"]] == [c.x, c.y])
    assert np.any(target == [b.x, b.y])
    # a fixation on the current stimulus target draws no reaction time and logs nothing
    state = sim._srt_rng.bit_generator.state
    sim.run([ScriptEvent("fixation", 100_000, c), ScriptEvent("saccade", 0, c)])
    assert sim._srt_rng.bit_generator.state == state
    assert sim.events == [to_b, to_c]


def test_run_returns_none_and_counts_its_frames():
    # Results leave the engine through take_frames(); callers count frames
    # from frame_index.
    sim = EyeSimulator(LedLayout.prototype1(), quiet_subject(noise=0.01), cfg(), seed=1)
    events = [ScriptEvent("fixation", 250_000, ScreenPoint(200, 200)),
              ScriptEvent("blink", 120_000), ScriptEvent("saccade", 0, ScreenPoint(600, 400)),
              ScriptEvent("fixation", 1_000, ScreenPoint(600, 400))]
    expected = sum(sim.frame_count(ev.duration_us) for ev in events)
    assert expected == 25 + 12
    for _ in range(2):
        before = sim.frame_index
        assert sim.run(events) is None
        assert sim.frame_index - before == expected
    assert sim.run([]) is None
    assert sim.take_frames()[0].shape[0] == sim.frame_index == 2 * expected


def _gaze_block(kind, n=24, seed=0):
    rng = np.random.default_rng(seed)
    g = np.column_stack([rng.uniform(0, GEOM.width, n), rng.uniform(0, GEOM.height, n)])
    if kind == "equal":
        g[:] = g[0]
    elif kind == "switch":
        g[: n // 2] = g[0]
        g[n // 2:] = g[-1]
    return g


@pytest.mark.parametrize("kind", ["distinct", "equal", "switch"])
@pytest.mark.parametrize("eyes", [1, 2])
@pytest.mark.parametrize("make_layout", [LedLayout.prototype1, LedLayout.prototype2],
                         ids=["prototype1", "prototype2"])
def test_clean_signal_matches_oracle(make_layout, eyes, kind):
    # The batched pair kernel, computed once per run of equal gaze rows,
    # equals the per-(step, illuminator) lobe sum bit for bit.
    lay = make_layout(eyes=eyes, shift_mm=(0.7, -0.4))
    subj = SubjectProfile.generate(11, channels=lay.total_channels)
    gaze = _gaze_block(kind, seed=eyes)
    got = clean_signal(lay, subj, GEOM, OPTICS, gaze)
    assert np.array_equal(got, np.array(clean_signal_oracle(lay, subj, GEOM, OPTICS, gaze.tolist())))


EMIN, EMAX, REF = 25.0, 1600.0, 400.0
# Unit of the long drawn block lengths, in frames.
_EXPOSE_LOOKAHEAD = 256


@st.composite
def exposure_blocks(draw):
    """Blocks for the exposure recurrence, biased toward its edge cases.

    Some blocks are empty and some run from one to 2.5 windows of 256
    frames; their drawn columns repeat with a period of at most 40 frames.
    A plateau channel holds one clean level after an optional first frame
    that moves it to a neighbouring exposure, and on a few frames its noise
    reads exactly on, or one count inside, a threshold at that exposure: the
    extremes of a constant run sit on the edge of certification. A blink
    blend holds a constant plateau between two ramps. 300 us lies off the
    power-of-two chain of the other start exposures, so its halvings and
    doublings end in a clamp to EMIN or EMAX that is less than a factor of
    two.
    """
    long_n = st.integers(_EXPOSE_LOOKAHEAD - 2, 5 * _EXPOSE_LOOKAHEAD // 2)
    n = draw(st.integers(0, 40) | long_n)
    m = draw(st.integers(1, 5))

    def column(elements):
        period = min(n, 40)
        return np.resize(np.array(draw(st.lists(elements, min_size=period, max_size=period))), n)

    exp = np.array(draw(st.lists(st.sampled_from([EMIN, 50.0, 300.0, 400.0, 800.0, EMAX]),
                                 min_size=m, max_size=m)))
    scale0 = exp / REF
    noise_std = draw(st.sampled_from([0.0, 0.01, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    noise = rng.normal(0.0, noise_std, (n, m))
    # Clean levels that read exactly on, or one count inside, each threshold
    # at the channel's first exposure; plus dark and saturating light.
    on_edge = [23 / 1023, 24 / 1023, 999 / 1023, 1000 / 1023, 0.0, 100.0]
    clean = np.empty((n, m))
    for ch in range(m):
        kind = draw(st.sampled_from(["edge", "toggle", "free", "step", "plateau"]))
        if kind == "edge":
            clean[:, ch] = column(st.sampled_from(on_edge)) / scale0[ch]
        elif kind == "toggle":  # high, low, high, ...: adapts on every frame
            clean[:, ch] = np.where(np.arange(n) % 2 == 0, 100.0, 0.0)
        elif kind == "free":
            clean[:, ch] = column(st.floats(0.0, 3.0))
        elif kind == "step":  # dead band, then saturating light from one frame on, often a window edge
            edges = [w * _EXPOSE_LOOKAHEAD + d for w in (1, 2) for d in (-1, 0, 1)]
            at = draw(st.sampled_from(edges) | st.integers(0, n))
            clean[:, ch] = np.where(np.arange(n) < at, 512 / 1023 / scale0[ch], 100.0)
        else:  # plateau: halve, keep or double the exposure on frame 0, then hold
            shift = draw(st.sampled_from([0.5, 1.0, 2.0]))
            scale = min(max(exp[ch] * shift, EMIN), EMAX) / REF
            count = draw(st.sampled_from([23, 24, 999, 1000]))
            inside = 40 if count < 512 else -40  # the other frames read between here and the edge
            clean[:, ch] = (count + inside) / 1023 / scale
            kick = int(shift != 1.0)
            edge_noise = count / 1023 - clean[-1:, ch] * scale
            noise[:, ch] = edge_noise * rng.uniform(0.0, 1.0, n)
            if n > kick:
                at = draw(st.lists(st.just(n - 1) | st.integers(kick, n - 1), min_size=1, max_size=3))
                noise[at, ch] = edge_noise
            if kick and n:  # saturating light halves the exposure, darkness doubles it
                clean[0, ch], noise[0, ch] = (100.0 if shift < 1 else 0.0), 0.0
    blend = np.zeros(n)
    shape = draw(st.sampled_from(["none", "column", "blink"]))
    if shape == "column":
        blend = column(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
    elif shape == "blink":
        lo, hi = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        ramp = draw(st.integers(1, 8))
        peak = draw(st.sampled_from([0.5, 1.0]) | st.floats(0.05, 1.0))
        t = np.arange(n)
        blend = peak * np.clip(np.minimum(t + 1 - lo, hi - t) / ramp, 0.0, 1.0)
    return clean, noise, blend, exp


@settings(derandomize=True, max_examples=300, deadline=None)
@given(exposure_blocks(), st.sampled_from([0.85, 0.0]))
def test_expose_block_matches_per_frame_replay(block, eyelid):
    clean, noise, blend, exp = block
    raw, scales, exp_out, changes = expose_block(clean, noise, blend, exp, EMIN, EMAX, REF, eyelid)
    ref_raw, ref_scales, ref_exp, ref_changes = exposure_replay(
        clean.tolist(), noise.tolist(), blend.tolist(), exp.tolist(), EMIN, EMAX, REF, eyelid)
    n, m = clean.shape
    assert raw.dtype == np.int64 and raw.shape == scales.shape == (n, m)
    assert np.array_equal(raw, np.array(ref_raw, dtype=np.int64).reshape(n, m))
    assert np.array_equal(scales, np.array(ref_scales).reshape(n, m))
    assert np.array_equal(exp_out, np.array(ref_exp))
    assert changes.dtype == np.int64 and changes.tolist() == ref_changes
    # the exposures replayed from the readings alone, as a session log's reader finds them
    replayed, replayed_exp = replay_exposure(raw, exp, EMIN, EMAX, REF)
    assert np.array_equal(replayed.view(np.int64), scales.view(np.int64))
    assert np.array_equal(replayed_exp, exp_out)


def test_expose_block_toggling_channel_adapts_every_frame():
    clean = np.where(np.arange(9) % 2 == 0, 100.0, 0.0)[:, None]
    raw, scales, exp, changes = expose_block(clean, np.zeros_like(clean), np.zeros(9), np.array([400.0]),
                                             EMIN, EMAX, REF, 0.85)
    assert raw[:, 0].tolist() == [1023, 0] * 4 + [1023]
    assert (scales[:, 0] * REF).tolist() == [400.0, 200.0] * 4 + [400.0]
    assert exp.tolist() == [200.0]
    assert changes.tolist() == [9]


def test_expose_block_counts_a_change_on_the_last_frame():
    # Channel 0 saturates only on the last frame, which is still read at the
    # old scale; channel 1 reads exactly the low threshold at the minimum
    # exposure, so it doubles once, and channel 2 reads 0 at the maximum
    # exposure, which cannot double.
    clean = np.full((6, 3), 0.5)
    clean[-1, 0] = 100.0
    clean[:, 1] = 23 / 1023 / (EMIN / REF)
    clean[:, 2] = 0.0
    exp = np.array([400.0, EMIN, EMAX])
    raw, scales, exp_out, changes = expose_block(clean, np.zeros_like(clean), np.zeros(6), exp,
                                                 EMIN, EMAX, REF, 0.85)
    ref = exposure_replay(clean.tolist(), np.zeros_like(clean).tolist(), [0.0] * 6, exp.tolist(),
                          EMIN, EMAX, REF, 0.85)
    assert raw.tolist() == ref[0] and scales.tolist() == ref[1]
    assert exp_out.tolist() == ref[2] == [200.0, 2 * EMIN, EMAX]
    assert changes.tolist() == ref[3] == [1, 1, 0]
    assert np.all(scales[:, 0] == 1.0)


def test_expose_block_empty_block_keeps_exposures():
    exp = np.array([300.0, EMAX])
    raw, scales, exp_out, changes = expose_block(np.empty((0, 2)), np.empty((0, 2)), np.empty(0), exp,
                                                 EMIN, EMAX, REF, 0.85)
    assert raw.shape == scales.shape == (0, 2) and raw.dtype == np.int64
    assert exp_out.tolist() == [300.0, EMAX] and changes.tolist() == [0, 0]


def test_engine_rejects_gain_count_mismatch():
    lay = LedLayout.prototype1(eyes=1)
    subj = SubjectProfile.generate(1, channels=12)
    with pytest.raises(ConfigError):
        EyeSimulator(lay, subj, cfg(), seed=0)

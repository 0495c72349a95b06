import base64
import builtins
import dataclasses
import io
import json
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledgaze.calib import CalibrationGridSpec
from ledgaze.core import (
    ADC_MAX,
    CalibrationSet,
    ConfigError,
    DisplayGeometry,
    ScreenPoint,
    SensorFrame,
)
from ledgaze.eyesim import (
    EyeSimulator,
    GazeScript,
    LedLayout,
    OpticsModel,
    ScriptEvent,
    SessionLog,
    SimConfig,
    gaze_target,
    run_script,
)
from ledgaze.kernels import MeasureSpec
from ledgaze.session import (
    CONFIG_VERSION,
    LOG_VERSION,
    SessionConfig,
    SimulatorDwellSource,
    augmentation_phase,
    calibration_phase,
    derive_seed,
    evaluation_phase,
    iir_settle_frames,
    read_session_log,
    run_benchmark_session,
    write_session_log,
)
from ledgaze.sigproc import SATURATION_HIGH, SATURATION_LOW

from oracles import (
    chain_reference,
    gaze_target_reference,
    pack_frames_reference,
    read_session_log_reference,
    sealed,
    unpack_frames_reference,
    write_session_log_reference,
)


def small_config(**kw):
    base = dict(seed=5, grid_rows=2, grid_cols=2, augment_points=4,
                eval_fixations=5, fix_duration_ms=300.0,
                eval_fixation_min_ms=300.0, eval_fixation_max_ms=500.0,
                augment_dwell_ms=200.0)
    base.update(kw)
    return SessionConfig(**base)


def test_config_roundtrip_json(tmp_path):
    cfg = small_config(noise_std=0.02, estimator="svr")
    path = tmp_path / "config.json"
    cfg.save(path)
    loaded = SessionConfig.load(path)
    assert loaded == cfg
    raw = json.loads(path.read_text())
    assert raw["config_version"] == CONFIG_VERSION


GOLDEN_CONFIG = Path(__file__).parent / "data" / "config_v2.json"


def test_config_golden_file_pins_the_saved_format(tmp_path):
    # A field added, removed or renamed changes these bytes: bump CONFIG_VERSION
    # and write the fixture again with SessionConfig().save().
    path = tmp_path / "config.json"
    SessionConfig().save(path)
    assert path.read_bytes() == GOLDEN_CONFIG.read_bytes()
    assert SessionConfig.load(GOLDEN_CONFIG) == SessionConfig()
    old = json.loads(GOLDEN_CONFIG.read_text())
    old["config_version"] = 1
    path.write_text(json.dumps(old))
    with pytest.raises(ConfigError, match="config_version 1 is not readable here"):
        SessionConfig.load(path)


@pytest.mark.parametrize("keys", [["future_field"], ["noise_sd"], ["sample_interval_ms"],
                                  ["noise_sd", "sample_interval_ms"]],
                         ids=["future-field", "misspelt", "version-1-field", "two-keys"])
def test_config_from_dict_rejects_unknown_keys(keys):
    with pytest.raises(ConfigError, match="unknown config field") as err:
        SessionConfig.from_dict({"seed": 3, **{k: 0.2 for k in keys}})
    assert all(repr(k) in str(err.value) for k in keys)


def test_config_from_dict_rejects_newer_version():
    assert SessionConfig.from_dict({"config_version": CONFIG_VERSION, "seed": 3}).seed == 3
    with pytest.raises(ConfigError):
        SessionConfig.from_dict({"config_version": CONFIG_VERSION + 1, "seed": 3})


def test_config_validation():
    with pytest.raises(ConfigError, match="'estimator'"):
        SessionConfig(estimator="mlp")
    with pytest.raises(ConfigError, match="'layout_mode'"):
        SessionConfig(layout_mode="prototype9")
    with pytest.raises(ConfigError, match="'task_candidates_min'"):
        SessionConfig(task_candidates_min=2)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("subject_seed", -1), ("noise_std", -0.01),
    ("variance_threshold", 0.0), ("augment_points", -5),
    ("eval_fixations", -1), ("eval_fixations", 0), ("eval_fixation_min_ms", 0.0),
    ("jitter", 0.0), ("sigma_grid", ()), ("sigma_grid", (0.1, -0.2)), ("task_count", -3),
    ("task_count", 0), ("task_count", 1), ("target_radius_deg", -1.0), ("target_radius_deg", 0.0),
    ("task_window_threshold", 2.0), ("task_window_threshold", 0.0),
    ("remount_shift_std_mm", -1.0), ("grid_margin", 300), ("grid_margin", 400),
])
def test_config_from_dict_rejects_a_value_out_of_range(field, value):
    d = {field: list(value) if isinstance(value, tuple) else value}
    with pytest.raises(ConfigError, match=f"config field {field!r} must be"):
        SessionConfig.from_dict(d)


def test_config_accepts_the_edges_of_each_range():
    SessionConfig(seed=0, subject_seed=0, noise_std=0.0, iir_alpha=1.0, augment_points=0,
                  eval_fixations=1, eval_fixation_min_ms=800.0, eval_fixation_max_ms=800.0,
                  task_count=2, task_window_threshold=1.0, remount_shift_std_mm=0.0)


def test_config_rejects_eval_fixation_bounds_out_of_order():
    with pytest.raises(ConfigError, match="'eval_fixation_min_ms' must not exceed "
                                          "'eval_fixation_max_ms'"):
        SessionConfig.from_dict({"eval_fixation_min_ms": 900.0, "eval_fixation_max_ms": 800.0})


_SIM_FIELDS = "'step_us', 'iir_alpha', 'exposure_init_us', 'exposure_min_us', 'exposure_max_us'"
_MEASURE_FIELDS = "'measure_kind', 'minkowski_m', 'rbf_sigma'"
_OPTICS_FIELDS = "'lobe_sharpness', 'signal_scale', 'eyelid_level'"


@pytest.mark.parametrize("field, value, names", [
    ("display_width", 0, "'display_width', 'display_height', 'degrees_per_pixel'"),
    ("eyes", 3, "'eyes', 'ring_radius_mm', 'eye_relief_mm'"),
    ("step_us", 0, _SIM_FIELDS),
    ("exposure_min_us", 500.0, _SIM_FIELDS),
    ("exposure_init_us", -400.0, _SIM_FIELDS),
    ("iir_alpha", 0.0, _SIM_FIELDS),
    ("iir_alpha", 1.5, _SIM_FIELDS),
    ("grid_rows", 9, "'grid_rows', 'grid_cols', 'grid_margin'"),
    ("measure_kind", "chebyshev", _MEASURE_FIELDS),
    ("minkowski_m", 0.5, _MEASURE_FIELDS),
    ("rbf_sigma", 0.0, _MEASURE_FIELDS),
    ("lobe_sharpness", 0.0, _OPTICS_FIELDS),
    ("signal_scale", -1.0, _OPTICS_FIELDS),
    ("eyelid_level", -0.1, _OPTICS_FIELDS),
    ("eyelid_level", 1.5, _OPTICS_FIELDS),
])
def test_config_builds_its_objects_at_load_naming_their_fields(field, value, names):
    with pytest.raises(ConfigError, match=f"^config fields {names}: "):
        SessionConfig.from_dict({field: value})


def test_config_accepts_the_edges_of_the_optics_and_margin_ranges():
    for eyelid in (0.0, 1.0):
        assert SessionConfig(eyelid_level=eyelid).sim_config().optics.eyelid_level == eyelid
    assert SessionConfig(grid_margin=299).grid().margin == 299  # 2 * 299 < 600
    assert SessionConfig(display_height=1000, grid_margin=399).grid().margin == 399


def test_config_builds_each_object_once():
    cfg = small_config(layout_mode="prototype2")
    for build in (cfg.geometry, cfg.layout, cfg.sim_config, cfg.grid, cfg.measure):
        assert build() is build()
    assert cfg.sim_config().geom is cfg.geometry()
    assert cfg.layout() == LedLayout.prototype2()
    assert cfg.replace(grid_rows=3).grid() == CalibrationGridSpec(3, 2, cfg.grid_margin)
    assert cfg.replace(grid_rows=3) == small_config(layout_mode="prototype2", grid_rows=3)


@pytest.mark.parametrize("field", ["fix_duration_ms", "augment_dwell_ms", "task_dwell_ms"])
@pytest.mark.parametrize("layout_mode, step_us", [("prototype1", 1666), ("prototype2", 1000)])
def test_dwell_too_short_to_sample_is_refused_at_load(field, layout_mode, step_us):
    # The load check and SimulatorDwellSource.acquire apply one rule, on the
    # capture cycle of the configured layout: at least two frames per dwell.
    base = small_config(layout_mode=layout_mode, step_us=step_us)
    cycle_us = base.sim_config().cycle_us(base.layout())
    engine = EyeSimulator(base.layout(), base.subject(), base.sim_config(), seed=1)
    for frames in (0, 1.0, 1.4, 1.6, 2.0, 3.0):
        dwell_ms = frames * cycle_us / 1000.0
        source = SimulatorDwellSource(engine, dwell_ms=dwell_ms)
        if round(frames) < 2:
            with pytest.raises(ConfigError, match=rf"^config fields {field!r}, 'step_us': "
                                                  rf"a {dwell_ms} ms dwell spans \d frames"):
                base.replace(**{field: dwell_ms})
            with pytest.raises(ConfigError, match="fewer than 2"):
                source.acquire([ScreenPoint(200, 200)])
        else:
            assert getattr(base.replace(**{field: dwell_ms}), field) == dwell_ms
            x, = source.acquire([ScreenPoint(200, 200)])
            assert x.shape[0] == round(frames)


_FIELD_TYPES = {f.name: f.type for f in fields(SessionConfig)}
# Values of another JSON type than each field's annotation takes.
_WRONG_TYPES = {"int": ["x", 1.5, True, None, [1]], "float": ["x", True, None, [1.0]],
                "bool": [1, 0, "true", None], "str": [1, None, True, ["gpr"]],
                "tuple[float, ...]": [0.1, "0.1", ["0.1"], [True], None]}
# Values that lie outside some field's range, of the type the field takes.
_OUT_OF_RANGE = {"int": [-1, 0, 1, 2, 9, 10**6], "float": [-1.0, 0.0, 0.5, 2.0, 1e6],
                 "bool": [False, True], "str": ["", "bogus", "prototype2", "svr", "cosine"],
                 "tuple[float, ...]": [[], [0.0], [-1.0, 0.5], [1e6]]}


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(sorted(_FIELD_TYPES)),
       mutation=st.sampled_from(["wrong-type", "nan", "out-of-range", "misspelt"]),
       data=st.data())
def test_config_mutation_is_refused_naming_its_field_or_loads_whole(field, mutation, data):
    d = SessionConfig().to_dict()
    kind = _FIELD_TYPES[field]
    named = field
    if mutation == "wrong-type":
        d[field] = data.draw(st.sampled_from(_WRONG_TYPES[kind]))
    elif mutation == "nan":
        d[field] = [0.1, math.nan] if kind.startswith("tuple") else math.nan
    elif mutation == "out-of-range":
        d[field] = data.draw(st.sampled_from(_OUT_OF_RANGE[kind]))
    else:
        i = data.draw(st.integers(0, len(field) - 1))
        named = field[:i] + field[i + 1:]
        assert named not in _FIELD_TYPES
        d[named] = d.pop(field)
    try:
        cfg = SessionConfig.from_dict(d)
    except ConfigError as exc:
        assert repr(named) in str(exc)
        return
    assert mutation == "out-of-range"  # the others are always refused
    sim = cfg.sim_config()
    built = (cfg.geometry(), cfg.layout(), sim.optics, sim, cfg.grid(), cfg.measure())
    kinds = (DisplayGeometry, LedLayout, OpticsModel, SimConfig, CalibrationGridSpec, MeasureSpec)
    assert all(type(obj) is kind for obj, kind in zip(built, kinds))
    assert SessionConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("field, value", [("noise_std", math.nan), ("degrees_per_pixel", math.inf),
                                          ("minkowski_m", -math.inf), ("grid_rows", math.nan),
                                          ("sigma_grid", (0.1, math.nan))])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigError, match=f"field '{field}' must be finite"):
        SessionConfig(**{field: value})


@pytest.mark.parametrize("field, value, noun", [
    ("seed", "x", "an integer"), ("seed", 1.5, "an integer"), ("grid_rows", True, "an integer"),
    ("minkowski_m", True, "a number"), ("minkowski_m", "2", "a number"),
    ("rbf_squared", 1, "a boolean"), ("layout_mode", 1, "a string"),
    ("sigma_grid", ["0.1"], "a list of numbers"), ("sigma_grid", [0.1, False], "a list of numbers"),
    ("sigma_grid", 0.1, "a list of numbers"),
])
def test_config_from_dict_rejects_a_field_of_the_wrong_type(field, value, noun):
    with pytest.raises(ConfigError, match=f"field {field!r} must be {noun}"):
        SessionConfig.from_dict({field: value})


def test_config_from_dict_rejects_an_integer_too_large_for_a_float():
    # json.load reads a long integer literal as an int, which no float holds
    for field, value, noun in (("noise_std", 10**400, "a number"),
                               ("sigma_grid", [10**400], "a list of numbers")):
        with pytest.raises(ConfigError, match=f"field {field!r} must be {noun}"):
            SessionConfig.from_dict({field: value})


def test_config_from_dict_keeps_an_integer_in_a_float_field():
    cfg = SessionConfig.from_dict({"noise_std": 0, "sigma_grid": [1, 0.5]})
    assert type(cfg.noise_std) is int and cfg.to_dict()["noise_std"] == 0
    assert cfg.sigma_grid == (1.0, 0.5) and type(cfg.sigma_grid[0]) is float


def test_config_file_with_non_finite_tokens_rejected(tmp_path):
    # json.load reads these tokens; a NaN noise_std used to run as a noiseless session
    path = tmp_path / "config.json"
    path.write_text('{"seed": 3, "sigma_grid": [0.1, Infinity]}')
    with pytest.raises(ConfigError, match="'sigma_grid' must be finite"):
        SessionConfig.load(path)
    path.write_text('{"seed": 3, "noise_std": NaN}')
    with pytest.raises(ConfigError, match="'noise_std' must be finite"):
        SessionConfig.load(path)


def test_config_builders_consistent():
    cfg = small_config()
    assert cfg.layout().total_channels == 12
    assert cfg.subject().noise_std == cfg.noise_std
    assert cfg.grid().rows * cfg.grid().cols == 4
    assert cfg.measure().kind == "minkowski"
    assert cfg.target_radius_px() == pytest.approx(1.5 / 0.12)


def test_prototype2_default_exposure_is_shorter():
    c1 = SessionConfig(layout_mode="prototype1").sim_config()
    c2 = SessionConfig(layout_mode="prototype2").sim_config()
    assert c2.exposure_init_us < c1.exposure_init_us


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


def test_iir_settle_frames():
    assert iir_settle_frames(1.0, 0.01) == 0
    n = iir_settle_frames(0.3, 0.01)
    assert (0.7 ** n) <= 0.01 < (0.7 ** (n - 1))


def test_dwell_source_collects_after_settling():
    cfg = small_config(noise_std=0.0)
    from ledgaze.eyesim import EyeSimulator
    engine = EyeSimulator(cfg.layout(), cfg.subject(), cfg.sim_config(), seed=1)
    src = SimulatorDwellSource(engine, dwell_ms=200.0)
    x1, x2 = src.acquire([ScreenPoint(200, 200), ScreenPoint(600, 400)])
    assert x1.shape == x2.shape == (20, 12)
    # noise-free and settled: only a sub-1e-4 filter-transient remnant is left,
    # far below the 0.05 variance gate
    assert np.allclose(x1.std(axis=0), 0.0, atol=1e-4)
    assert np.allclose(x2.std(axis=0), 0.0, atol=1e-4)
    assert np.linalg.norm(x1.mean(axis=0) - x2.mean(axis=0)) > 0.01


def test_dwell_source_needs_two_samples_per_dwell():
    cfg = small_config()
    engine = EyeSimulator(cfg.layout(), cfg.subject(), cfg.sim_config(), seed=1)
    cycle_ms = engine.cycle_us / 1000.0
    with pytest.raises(ConfigError, match="dwell"):
        SimulatorDwellSource(engine, dwell_ms=cycle_ms).acquire([ScreenPoint(200, 200)])
    x, = SimulatorDwellSource(engine, dwell_ms=2 * cycle_ms).acquire([ScreenPoint(200, 200)])
    assert x.shape == (2, 12)


def test_a_task_block_holds_few_full_size_arrays_at_once():
    # One block of 50 dwell tasks, as a scenario's task session acquires them:
    # 17,550 frames of 12 channels. Its traced peak, in units of one (n, M)
    # float64 array, counts the full-size arrays alive at once: the noise, the
    # scales (in which the chain divides and filters), the counts and the
    # filtered vectors, plus less than one unit of smaller arrays. It reads
    # 3.83; a per-frame copy of the clean signal, or a divide or solve out of
    # the scales, would add a unit.
    config = SessionConfig(seed=1)
    geom, margin = config.geometry(), config.grid_margin
    rng = np.random.default_rng(5)
    targets = [ScreenPoint(float(x), float(y)) for x, y in
               zip(rng.uniform(margin, geom.width - margin, 50),
                   rng.uniform(margin, geom.height - margin, 50))]

    def task_source(seed):
        engine = EyeSimulator(config.layout(), config.subject(), config.sim_config(), seed)
        return engine, SimulatorDwellSource(engine, config.task_dwell_ms)

    task_source(60)[1].acquire(targets)  # tables built on first use are not the block's
    engine, source = task_source(61)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        source.acquire(targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, m = engine.frame_index, config.layout().total_channels
    assert (n, m) == (17_550, 12)
    assert (peak - before) / (n * m * 8) <= 3.9


def test_augmentation_dwell_too_short_to_sample_rejected():
    # a zero-length dwell has no samples, so its mean would be NaN
    with pytest.raises(ConfigError, match="'augment_dwell_ms', 'step_us': a 0.0 ms dwell"):
        small_config(augment_dwell_ms=0.0)


def test_calibration_phase_counts():
    cfg = small_config()
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    assert cal.point_count == 4
    assert cal.channel_count == 12


def test_augmentation_phase_appends_requested_points():
    cfg = small_config()
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    grown = augmentation_phase(cfg, cfg.subject(), cfg.layout(), cal, cfg.seed)
    assert grown.point_count == 8


def test_benchmark_session_standard_point_count():
    cfg = SessionConfig(seed=2)
    log, cal = run_benchmark_session(cfg)
    assert cal.point_count == 16 + 66
    assert log.raw.shape[1] == 12
    assert log.meta["phase"] == "evaluation"
    assert log.meta["config"]["seed"] == 2


def test_session_log_roundtrip(tmp_path):
    cfg = small_config()
    log = evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    path = tmp_path / "session.jsonl"
    write_session_log(log, path, calibration=cal)
    back, back_cal = read_session_log(path)
    assert np.array_equal(back.t_us, log.t_us)
    assert np.array_equal(back.raw, log.raw)
    assert np.array_equal(back.proc, log.proc)
    assert np.array_equal(back.gaze, log.gaze)
    assert np.array_equal(back.target, log.target)
    assert back.events == log.events
    assert back.meta == log.meta
    assert np.array_equal(back_cal.means, cal.means)
    assert np.array_equal(back_cal.targets, cal.targets)


def test_session_log_write_is_deterministic(tmp_path):
    cfg = small_config()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    log1 = evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    log2 = evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    write_session_log(log1, p1)
    write_session_log(log2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_session_log_requires_frames(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps({"type": "meta", "log_version": LOG_VERSION}) + "\n")
    with pytest.raises(ConfigError, match="no frames"):
        read_session_log(path)


def test_read_session_log_rejects_newer_version(tmp_path):
    cfg = small_config()
    log = evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    path = tmp_path / "session.jsonl"
    write_session_log(log, path)
    lines = path.read_text().splitlines(keepends=True)
    meta = json.loads(lines[0])
    assert meta["log_version"] == LOG_VERSION
    meta["log_version"] = LOG_VERSION + 1
    path.write_text(json.dumps(meta) + "\n" + "".join(lines[1:]))
    with pytest.raises(ConfigError):
        read_session_log(path)


# -- codec against the reference writer and reader ------------------------------

# Log version 3 wrote and read its frames 128 rows at a time. The codec cases
# keep logs of about that many frames, and the malformed-line cases put a
# fault past the first 128 frames, to pin that nothing depends on that size.
_V3_SLICE_ROWS = 128


@pytest.fixture(scope="module")
def codec_logs():
    log, cal = run_benchmark_session(SessionConfig(seed=1))
    cfg = small_config()
    a, b = ScreenPoint(200, 200), ScreenPoint(600, 400)
    script = GazeScript((ScriptEvent("fixation", 300_000, a), ScriptEvent("blink", 100_000),
                         ScriptEvent("fixation", 200_000, a), ScriptEvent("saccade", 0, b),
                         ScriptEvent("fixation", 20_000, b)))
    scripted = run_script(cfg.layout(), cfg.subject(), script, cfg.sim_config(), seed=3)
    assert any(ev["kind"] == "blink" for ev in scripted.events)
    assert scripted.events[-1]["kind"] == "target_move"
    assert scripted.events[-1]["t_settle_us"] is None  # still unsettled at the end
    narrow = _frames_log(5, 3)
    return {"seed1-with-calibration": (log, cal), "seed1-no-calibration": (log, None),
            "script-unsettled-move": (scripted, None),
            "no-frames": (_frames_log(0, 12), None),
            "one-frame": (_frames_log(1, 12), None),
            "slice-less-one": (_frames_log(_V3_SLICE_ROWS - 1, 12), None),
            "one-slice": (_frames_log(_V3_SLICE_ROWS, 12), None),
            "slice-and-one": (_frames_log(_V3_SLICE_ROWS + 1, 12), None),
            # consecutive targets equal under == but not bit for bit
            "signed-zero-rows": (_frames_log(6, 2, values=[0.0, 5.0, -0.0, 5.0]), None),
            "row-held-across-slice": (_held_log(_V3_SLICE_ROWS + 4, 2,
                                                slice(_V3_SLICE_ROWS - 2, _V3_SLICE_ROWS + 3)),
                                      None),
            "one-channel": (_frames_log(40, 1), None),
            "exponent-floats": (_frames_log(3, 4, values=[1e-05, 1e+16, 5e-324, -2.5e-300]), None),
            "negative-zero": (_frames_log(3, 4, values=[-0.0, 0.0]), None),
            "t-above-2-53": (_frames_log(3, 4, t0=2**53 + 1), None),
            # the sign and the top of the packed int64 times
            "t-negative": (_frames_log(3, 4, t0=-2**62), None),
            "t-at-int64-max": (_frames_log(3, 4, t0=2**63 - 1 - 2 * 1666), None),
            # columns of narrower signed dtypes pack as the int64 ones do
            "narrow-dtypes": (dataclasses.replace(narrow, t_us=narrow.t_us.astype(np.int32),
                                                  raw=narrow.raw.astype(np.int16)), None)}


# The meta of a log's capture cycle and signal chain, in the prototype1 defaults.
_CHAIN_META = {"exposure_init_us": 400.0, "exposure_min_us": 25.0, "exposure_max_us": 1600.0,
               "iir_alpha": 0.3, "optics": {"reference_exposure_us": 400.0}, "cycle_us": 9996}


def _chain_log(t_us, raw, start: list, events: list[dict], meta: dict) -> SessionLog:
    """A log whose proc is what the reference chain gives for its raw counts under
    ``meta``, and whose gaze and target start at ``start``."""
    proc = chain_reference(raw.tolist(), meta["exposure_init_us"], meta["exposure_min_us"],
                           meta["exposure_max_us"], meta["optics"]["reference_exposure_us"],
                           meta["iir_alpha"])
    proc = np.reshape(np.asarray(proc, dtype=float), raw.shape)
    return SessionLog(t_us, raw, proc, events, {**meta, "start_target": start})


def _move(t_move: int, t_settle: int | None, frm: list, to: list) -> dict:
    return {"kind": "target_move", "t_move_us": t_move, "t_settle_us": t_settle,
            "from": frm, "to": to}


def _counts(n: int, m: int) -> np.ndarray:
    """Raw counts that run through every reading, so exposures adapt often."""
    return np.arange(n * m, dtype=np.int64).reshape(n, m) % (ADC_MAX + 1)


def _frames_log(n: int, m: int, values=(0.25, -1.5, 3.0), t0: int = 0) -> SessionLog:
    """A log of ``n`` frames over ``m`` channels whose target moves at every odd frame,
    through points that cycle through ``values``, with the gaze one frame behind."""
    points = np.resize(np.asarray(values, dtype=float), 2 * (n + 1)).reshape(-1, 2).tolist()
    t_us = t0 + 1666 * np.arange(n, dtype=np.int64)
    times = t_us.tolist()
    events = [_move(times[i], times[i + 1] if i + 1 < n else None, points[k], points[k + 1])
              for k, i in enumerate(range(1, n, 2))]
    return _chain_log(t_us, _counts(n, m), points[0], events, {"phase": "synthetic", **_CHAIN_META})


def _held_log(n: int, m: int, held: slice) -> SessionLog:
    """A log whose raw rows in ``held`` repeat the row before them, and whose target
    moves, to a point that differs only by a zero's sign, at the first held frame."""
    raw = _counts(n, m)
    raw[held] = raw[held.start - 1]
    t_us = 1666 * np.arange(n, dtype=np.int64)
    move = _move(int(t_us[held.start]), int(t_us[held.stop - 1]), [0.0, 5.0], [-0.0, 5.0])
    return _chain_log(t_us, raw, [0.0, 5.0], [move], {"phase": "synthetic", **_CHAIN_META})


@pytest.mark.parametrize("case", ["seed1-with-calibration", "seed1-no-calibration",
                                  "script-unsettled-move", "no-frames", "one-frame",
                                  "slice-less-one", "one-slice", "slice-and-one",
                                  "signed-zero-rows", "row-held-across-slice", "one-channel",
                                  "exponent-floats", "negative-zero", "t-above-2-53",
                                  "t-negative", "t-at-int64-max", "narrow-dtypes"])
def test_session_log_codec_matches_reference(codec_logs, case, tmp_path):
    log, cal = codec_logs[case]
    path, ref_path = tmp_path / "new.jsonl", tmp_path / "ref.jsonl"
    write_session_log_reference(log, ref_path, calibration=cal)
    if log.n_frames == 0:  # the writer refuses what the reader refuses
        with pytest.raises(ConfigError, match=f"cannot write session log {path}: the log holds "
                                              "no frames"):
            write_session_log(log, path, calibration=cal)
        assert not path.exists()
        with pytest.raises(ConfigError, match=rf"line \d+: the log holds no frames"):
            read_session_log(ref_path)
        return
    write_session_log(log, path, calibration=cal)
    assert path.read_bytes() == ref_path.read_bytes()
    got, got_cal = read_session_log(path)
    want, want_cal = read_session_log_reference(path)
    for field in ("t_us", "raw", "proc", "gaze", "target"):
        column, ref_column = getattr(got, field), getattr(want, field)
        assert column.dtype == ref_column.dtype
        assert column.shape == ref_column.shape
        assert np.array_equal(column, ref_column)
    assert got.events == want.events
    assert got.meta == want.meta
    if cal is None:
        assert got_cal is None and want_cal is None
    else:
        assert np.array_equal(got_cal.means, want_cal.means)
        assert np.array_equal(got_cal.targets, want_cal.targets)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def chain_metas(draw):
    """Capture cycle and chain settings as a log's meta holds them: 0 < min <= init <= max."""
    emin = draw(st.sampled_from([25.0, 1.0]) | st.floats(0.5, 100.0))
    emax = emin * draw(st.sampled_from([1.0, 2.0, 64.0]) | st.floats(1.0, 1000.0))
    init = draw(st.sampled_from([emin, emax]) | st.floats(emin, emax))
    return {"exposure_init_us": init, "exposure_min_us": emin, "exposure_max_us": emax,
            "iir_alpha": draw(st.sampled_from([0.3, 1.0]) | st.floats(0.01, 1.0)),
            "optics": {"reference_exposure_us": draw(st.sampled_from([400.0, 100.0])
                                                     | st.floats(1.0, 1000.0))},
            "cycle_us": 9996}


@st.composite
def target_moves(draw, t_us: list[int]):
    """A start point and target_move events over frames at ``t_us``: moves at frame
    times or between them, each settled, superseded by the next, or (the last) unsettled."""
    point = st.lists(_finite, min_size=2, max_size=2)
    lo, hi = t_us[0] - 3, t_us[-1] + 3
    times = sorted(draw(st.lists(st.sampled_from(t_us) | st.integers(lo, hi), max_size=4)))
    start = here = draw(point)
    events = []
    for i, t in enumerate(times):
        last = i + 1 == len(times)
        upper = hi if last else times[i + 1] - 1  # a settled move settles before the next
        ways = (["settled"] if upper >= t else []) + (["unsettled"] if last else ["superseded"])
        how = draw(st.sampled_from(ways))
        if how == "settled":
            settle = draw(st.sampled_from([v for v in t_us if t <= v <= upper] or [t])
                          | st.integers(t, upper))
        else:
            settle = None if last else times[i + 1]
        to = draw(point)
        events.append(_move(t, settle, here, to))
        here = to
    return start, events


@st.composite
def small_logs(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    steps = draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n))
    t_us = draw(st.integers(0, 2**62)) + np.cumsum(steps, dtype=np.int64)
    # readings at either end of the range adapt the exposure
    reading = st.integers(0, 30) | st.integers(990, ADC_MAX) | st.integers(0, ADC_MAX)
    raw = draw(st.lists(reading, min_size=n * m, max_size=n * m))
    raw = np.reshape(raw, (n, m)).astype(np.int64)
    start, events = draw(target_moves(t_us.tolist()))
    return _chain_log(t_us, raw, start, events, draw(chain_metas()))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(small_logs())
def test_session_log_codec_matches_reference_on_random_logs(tmp_path_factory, log):
    path = tmp_path_factory.getbasetemp() / "random-new.jsonl"
    ref_path = tmp_path_factory.getbasetemp() / "random-ref.jsonl"
    write_session_log(log, path)
    write_session_log_reference(log, ref_path)
    assert path.read_bytes() == ref_path.read_bytes()
    back, _ = read_session_log(path)
    for field in ("t_us", "raw", "proc", "gaze", "target"):
        assert np.array_equal(getattr(back, field), getattr(log, field))
    # -0.0 == 0.0 above; the sign bit must survive as well
    for field in ("proc", "gaze", "target"):
        assert np.array_equal(np.signbit(getattr(back, field)), np.signbit(getattr(log, field)))
    start = log.meta["start_target"]
    for column, reference in zip((log.gaze, log.target),
                                 gaze_target_reference(log.t_us.tolist(), log.events, start)):
        assert column.tobytes() == np.asarray(reference, dtype=float).tobytes()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(small_logs(), st.data())
def test_subset_keeps_each_kept_frames_gaze_and_target(log, data):
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=log.n_frames,
                                       max_size=log.n_frames)), dtype=bool)
    part = log.subset(mask)
    # bit for bit, so a zero keeps its sign
    assert part.gaze.tobytes() == log.gaze[mask].tobytes()
    assert part.target.tobytes() == log.target[mask].tobytes()


@pytest.mark.parametrize("start", [None, [1.0], [1.0, 2.0, 3.0], [1.0, float("nan")],
                                   [1.0, "2"], [True, 2.0], (1.0, 2.0)],
                         ids=["missing", "one-number", "three-numbers", "nan", "a-string",
                              "a-boolean", "a-tuple"])
def test_session_log_refuses_a_start_target_that_is_not_a_point(seed5_log, start):
    meta = {k: v for k, v in seed5_log.meta.items() if k != "start_target"}
    if start is not None:
        meta["start_target"] = start
    with pytest.raises(ConfigError, match="meta field 'start_target' is not a pair of finite numbers"):
        SessionLog(seed5_log.t_us, seed5_log.raw, seed5_log.proc, seed5_log.events, meta)


def test_session_log_keeps_its_checked_events_as_a_tuple(seed5_log):
    assert type(seed5_log.events) is tuple
    with pytest.raises(AttributeError):
        seed5_log.events.append({"kind": "Blink", "t0_us": 0, "t1_us": 1})


def test_session_log_keeps_each_checked_event_read_only(seed5_log, tmp_path):
    events = seed5_log.events
    i = next(i for i, ev in enumerate(events) if ev["kind"] == "target_move")
    with pytest.raises(TypeError):
        events[0]["kind"] = "Blink"
    with pytest.raises(TypeError):
        events[i]["to"][0] = 0.0
    with pytest.raises(TypeError):
        del events[i]["t_settle_us"]
    assert all(type(ev[f]) is tuple for ev in events if ev["kind"] == "target_move"
               for f in ("from", "to"))
    # the events' copies, points as tuples, rebuild an equal log, which writes the same bytes
    copies = [dict(ev) for ev in events]
    rebuilt = dataclasses.replace(seed5_log, events=copies)
    assert rebuilt.events == events
    assert np.array_equal(rebuilt.gaze, seed5_log.gaze)
    assert np.array_equal(rebuilt.target, seed5_log.target)
    copies[0]["kind"] = "Blink"  # a copy is the caller's own; the log keeps its events
    assert rebuilt.events == events
    for name, log in (("given", seed5_log), ("rebuilt", rebuilt)):
        write_session_log(log, tmp_path / f"{name}.jsonl")
    assert (tmp_path / "given.jsonl").read_bytes() == (tmp_path / "rebuilt.jsonl").read_bytes()


@pytest.fixture(scope="module")
def seed5_log():
    cfg = small_config()
    return evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)


@pytest.mark.parametrize("field", ["t_us", "raw"])
def test_write_session_log_rejects_ragged_fields(seed5_log, field):
    # A SessionLog checks its frame columns when it is built, so no writer sees this log.
    n = seed5_log.n_frames
    with pytest.raises(ConfigError, match=rf"^frame {n - 10} has '\w+' but no {field!r}$"):
        dataclasses.replace(seed5_log, **{field: getattr(seed5_log, field)[:n - 10]})


def _t_us_swapped(log: SessionLog) -> SessionLog:
    t_us = log.t_us.copy()
    t_us[[40, 41]] = t_us[[41, 40]]
    return dataclasses.replace(log, t_us=t_us)


@pytest.mark.parametrize("edit, problem, at_build", [
    (_t_us_swapped, "frame 41 has a t_us not greater than the previous frame's", True),
    (lambda log: dataclasses.replace(log, meta={**log.meta, "cycle_us": 0}),
     "meta field 'cycle_us' is not a positive integer: 0", False),
    (lambda log: dataclasses.replace(log, t_us=log.t_us.astype(float)),
     "'t_us' is of dtype float64, not a signed integer", True),
    (lambda log: dataclasses.replace(log, raw=log.raw.astype(float)),
     "'raw' is of dtype float64, not a signed integer", True),
    # every time fits, but a uint64 column could hold one that wraps in int64
    (lambda log: dataclasses.replace(log, t_us=log.t_us.astype(np.uint64)),
     "'t_us' is of dtype uint64, not a signed integer", True),
], ids=["t-us-swapped", "cycle-zero", "t-us-floats", "raw-floats", "t-us-uint64"])
def test_write_session_log_refuses_a_log_its_reader_refuses(seed5_log, edit, problem, at_build,
                                                            tmp_path):
    """A fault in the frame columns stops the SessionLog being built; the writer refuses the rest."""
    path = tmp_path / "refused.jsonl"
    if at_build:
        with pytest.raises(ConfigError, match=f"^{problem}$"):
            edit(seed5_log)
    else:
        with pytest.raises(ConfigError, match=f"^cannot write session log {path}: {problem}$"):
            write_session_log(edit(seed5_log), path)
    assert not path.exists()


@pytest.mark.parametrize("field, value", [("gaze", -np.inf), ("target", np.inf),
                                          ("target", np.nan)])
def test_write_session_log_rejects_non_finite_numbers(seed5_log, field, value):
    # A gaze or target follows from a move's point, so a non-finite point would reach
    # the column; the log is refused when it is built, naming the move, so no writer sees it.
    events = [dict(ev) for ev in seed5_log.events]
    i = next(i for i, ev in enumerate(events) if ev["kind"] == "target_move")
    events[i]["to"] = [events[i]["to"][0], value]
    columns = dict(zip(("gaze", "target"),
                       gaze_target(seed5_log.t_us, events, seed5_log.meta["start_target"])))
    assert not np.isfinite(columns[field]).all()
    with pytest.raises(ConfigError, match=f"^log event {i} cannot be scored: target_move event "
                                          "'to' is not a pair of finite numbers$"):
        dataclasses.replace(seed5_log, events=events)


def _moved_one_ulp(log: SessionLog) -> SessionLog:
    proc = log.proc.copy()
    proc[200, 3] = np.nextafter(proc[200, 3], np.inf)
    return dataclasses.replace(log, proc=proc)


def _with_a_gap(log: SessionLog) -> SessionLog:
    keep = np.ones(log.n_frames, dtype=bool)
    keep[100:110] = False
    return log.subset(keep)


@pytest.mark.parametrize("edit, frame", [(_moved_one_ulp, 200), (_with_a_gap, 100)],
                         ids=["proc-one-ulp", "subset-with-a-gap"])
def test_write_session_log_rejects_proc_its_raw_counts_do_not_give(seed5_log, edit, frame, tmp_path):
    path = tmp_path / "edited.jsonl"
    with pytest.raises(ConfigError, match=rf"frame {frame} holds a proc row other than"):
        write_session_log(edit(seed5_log), path)
    assert not path.exists()


@pytest.mark.parametrize("field", ["proc"])
def test_write_session_log_rejects_a_zero_of_the_other_sign(codec_logs, field, tmp_path):
    log, _ = codec_logs["signed-zero-rows"]
    column = getattr(log, field).copy()
    frame = int(np.flatnonzero((column == 0).any(axis=1))[0])
    column[frame] = np.where(column[frame] == 0, -column[frame], column[frame])
    path = tmp_path / "signs.jsonl"
    with pytest.raises(ConfigError, match=rf"frame {frame} holds a {field} row other than"):
        write_session_log(dataclasses.replace(log, **{field: column}), path)
    assert not path.exists()


def _moves_swapped(log: SessionLog) -> SessionLog:
    events = [dict(ev) for ev in log.events]
    first, second = [i for i, ev in enumerate(events) if ev["kind"] == "target_move"][:2]
    events[first], events[second] = events[second], events[first]
    return dataclasses.replace(log, events=events)


@pytest.mark.parametrize("edit, problem", [
    (_moves_swapped, r"log event \d+ cannot be scored: target_move event t_move_us \d+ is before "
                     "the previous move settled"),
], ids=["moves-swapped"])
def test_write_session_log_rejects_events_it_cannot_rebuild_from(seed5_log, edit, problem):
    # The log is refused when it is built, so no writer sees it.
    with pytest.raises(ConfigError, match=f"^{problem}"):
        edit(seed5_log)


_A, _B, _C = ScreenPoint(200, 200), ScreenPoint(600, 400), ScreenPoint(300, 450)


@pytest.mark.parametrize("events", [
    # B is on screen for about 5 frames, well inside the subject's reaction time
    (ScriptEvent("fixation", 300_000, _A), ScriptEvent("fixation", 50_000, _B),
     ScriptEvent("fixation", 400_000, _C)),
    # B spans no frame: the stimulus moves to B and on to C at the same time
    (ScriptEvent("fixation", 300_000, _A), ScriptEvent("fixation", 1_000, _B),
     ScriptEvent("fixation", 400_000, _C)),
], ids=["second-target-before-the-reaction", "zero-frame-event-between-moves"])
def test_session_log_rebuilds_gaze_past_a_superseded_move(events, tmp_path):
    cfg = small_config()
    log = run_script(cfg.layout(), cfg.subject(), GazeScript(events), cfg.sim_config(), seed=3)
    moves = [ev for ev in log.events if ev["kind"] == "target_move"]
    assert [ev["to"] for ev in moves] == [(_B.x, _B.y), (_C.x, _C.y)]
    assert moves[0]["t_settle_us"] == moves[1]["t_move_us"]  # superseded
    assert not (log.gaze == [_B.x, _B.y]).all(axis=1).any()  # the eye never went to B
    path = tmp_path / "superseded.jsonl"
    write_session_log(log, path)
    back, _ = read_session_log(path)
    for field in ("t_us", "raw", "proc", "gaze", "target"):
        column, written = getattr(back, field), getattr(log, field)
        assert column.dtype == written.dtype
        assert column.tobytes() == written.tobytes()
    assert back.events == log.events
    assert back.meta == log.meta


def test_read_session_log_refuses_a_log_with_one_raw_digit_changed(codec_logs, tmp_path):
    log, cal = codec_logs["seed1-with-calibration"]
    path = tmp_path / "seed1.jsonl"
    write_session_log(log, path, calibration=cal)
    lines = path.read_text().splitlines(keepends=True)
    k, rec = _frames_record(lines)
    t_us, raw = unpack_frames_reference(rec)
    count = raw[1000][3]
    raw[1000][3] = count - 1 if count % 10 else count + 1  # one digit, still a valid count
    changed = json.dumps({**rec, **pack_frames_reference(t_us, raw)}, sort_keys=True) + "\n"
    assert len(changed) == len(lines[k]) and changed != lines[k]
    lines[k] = changed
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=f"session log {path} does not match its digest"):
        read_session_log(path)


def test_read_session_log_refuses_a_log_cut_short_before_its_digest(small_log_lines, tmp_path):
    path = tmp_path / "cut.jsonl"
    path.write_text("".join(small_log_lines[:-1]))
    with pytest.raises(ConfigError, match=f"session log {path} does not end with its digest"):
        read_session_log(path)


def test_read_session_log_refuses_a_byte_that_is_not_utf8(small_log_lines, tmp_path):
    # inside a JSON string, so every line still parses: only the digest sees it
    data = "".join(small_log_lines).encode()
    k = data.index(b'"phase": "evaluation"') + len(b'"phase": "eval')
    path = tmp_path / "byte.jsonl"
    path.write_bytes(data[:k] + b"\xff" + data[k + 1:])
    with pytest.raises(ConfigError, match=f"session log {path} does not match its digest"):
        read_session_log(path)


def test_session_log_rebuilds_proc_where_exposures_adapt_often(tmp_path):
    cfg = small_config(layout_mode="prototype2", noise_std=0.2, signal_scale=3.0)
    log = evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    outside = (log.raw >= SATURATION_HIGH) | (log.raw <= SATURATION_LOW)
    assert outside.sum() > log.n_frames  # on average more than one adapting reading a frame
    path = tmp_path / "adapting.jsonl"
    write_session_log(log, path)
    back, _ = read_session_log(path)
    assert back.proc.dtype == log.proc.dtype
    assert np.array_equal(back.proc.view(np.int64), log.proc.view(np.int64))


@pytest.mark.parametrize("record,line", [("meta", 1), ("calibration", 2), ("event", 4)])
def test_write_session_log_rejects_non_finite_header_records(seed5_log, record, line, tmp_path):
    cfg = small_config()
    log = seed5_log
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    if record == "meta":
        log = dataclasses.replace(log, meta={**log.meta, "cycle_us": float("nan")})
    elif record == "calibration":
        means = cal.means.copy()
        means[2, 1] = np.nan
        cal = CalibrationSet(means, cal.targets)
    else:  # the second event, on line 4, in a field the event rule does not read
        events = [dict(ev) for ev in log.events]
        events[1]["note"] = float("-inf")
        log = dataclasses.replace(log, events=events)
    path = tmp_path / "nonfinite.jsonl"
    with pytest.raises(ConfigError, match=rf"line {line}, the {record} record, holds a value JSON cannot"):
        write_session_log(log, path, calibration=cal)
    assert not path.exists()


@pytest.fixture(scope="module")
def small_log_lines(tmp_path_factory):
    cfg = small_config()
    log = evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    path = tmp_path_factory.mktemp("log") / "session.jsonl"
    write_session_log(log, path, calibration=cal)
    assert log.n_frames > _V3_SLICE_ROWS + 3  # a bad frame fits past the first 128
    return path.read_text().splitlines(keepends=True)


def _frames_record(lines: list[str]) -> tuple[int, dict]:
    """The index of a log's frames record among its ``lines``, and the record."""
    k = next(i for i, line in enumerate(lines) if '"type": "frames"' in line)
    return k, json.loads(lines[k])


def _frame_count(lines: list[str]) -> int:
    return len(unpack_frames_reference(_frames_record(lines)[1])[0])


def _rebytes(edit):
    """An edit of a frames record's column that applies ``edit`` to the bytes its text packs."""
    return lambda text: base64.b64encode(edit(base64.b64decode(text))).decode()


_DELETE = object()

# (record type corrupted, field, replacement of the field's value or _DELETE,
# and optionally the problem the reader must name after the line); with no
# field, the replacement of the whole record. A "frame" fault replaces one
# frame's value in a column of the frames record, unpacked and packed again,
# and the reader must name its problem with that frame.
MALFORMED = {
    "no-type": ("frames", "type", _DELETE),
    "frame-missing-field": ("frames", "raw", _DELETE, "frames record has no 'raw' field"),
    "t-not-a-string": ("frames", "t_us", lambda text: [0, 1666],
                       "frames record's 't_us' is not a string"),
    # base64 without validation would skip the "*" and read the counts as written
    "raw-not-base64": ("frames", "raw", lambda text: text[:8] + "*" + text[8:],
                       "frames record's 'raw' is not base64"),
    "t-bytes-not-whole-frames": ("frames", "t_us", _rebytes(lambda data: data[:-4]),
                                 r"'t_us' holds \d+ bytes, not 8 per frame"),
    "raw-not-whole-rows": ("frames", "raw", _rebytes(lambda data: data[:-2]),
                           r"'raw' holds \d+ bytes, not a whole number of rows"),
    "gaze-not-a-pair": ("event", "to", lambda to: to[:1]),
    "raw-above-adc-max": ("frame", "raw", lambda row: row[:-1] + [ADC_MAX + 1],
                          rf"raw count outside \[0, {ADC_MAX}\]"),
    # -1 has no uint16 form: its two's-complement bytes read as the largest count
    "raw-negative": ("frame", "raw", lambda row: [2**16 - 1] + row[1:], "raw count outside"),
    "target-infinity": ("event", "to", lambda to: [to[0], float("inf")]),
    "calibration-missing-means": ("calibration", "means", _DELETE),
    "calibration-mean-nan": ("calibration", "means",
                             lambda means: [[means[0][0], float("nan"), *means[0][2:]], *means[1:]]),
    "meta-nan": ("meta", "cycle_us", lambda cycle: float("nan")),
    "meta-without-cycle": ("meta", "cycle_us", _DELETE),
    "meta-cycle-not-an-integer": ("meta", "cycle_us", lambda cycle: 9996.5),
    "meta-cycle-boolean": ("meta", "cycle_us", lambda cycle: True),
    "blink-without-t1": ("event", None, lambda ev: {
        "type": "event", "kind": "blink", "t0_us": ev["t_move_us"]}),
    "blink-t0-not-an-integer": ("event", None, lambda ev: {
        "type": "event", "kind": "blink", "t0_us": float(ev["t_move_us"]),
        "t1_us": ev["t_settle_us"]}),
    "blink-ends-before-it-starts": ("event", None, lambda ev: {
        "type": "event", "kind": "blink", "t0_us": ev["t_settle_us"], "t1_us": ev["t_move_us"]},
        "blink event t1_us is before its t0_us"),
    "move-without-t-move": ("event", "t_move_us", _DELETE),
    "move-t-move-not-an-integer": ("event", "t_move_us", float),
    "move-t-move-boolean": ("event", "t_move_us", lambda t: True),
    "move-settle-neither-integer-nor-null": ("event", "t_settle_us", str),
    "move-without-settle": ("event", "t_settle_us", _DELETE),
    "event-kind-misspelt": ("event", "kind", lambda kind: "target_mvoe"),
    "move-from-not-a-pair": ("event", "from", lambda point: [*point, 0.0]),
    "move-to-a-string": ("event", "to", lambda point: [str(point[0]), point[1]]),
    "move-settles-before-it-moves": ("event", None, lambda ev: {
        **ev, "t_settle_us": ev["t_move_us"] - 1}),
    "meta-without-start-target": ("meta", "start_target", _DELETE),
    "meta-start-target-not-a-pair": ("meta", "start_target", lambda point: point[:1]),
}
FRAME_FAULTS = [case for case, (kind, *_) in MALFORMED.items() if kind == "frame"]


def _corrupted(lines: list[str], case: str, frame: int) -> tuple[list[str], str]:
    """``lines`` with the fault ``case``, placed at frame ``frame`` if it is a frame's fault;
    and what the reader's message must say after the file: the line, then the problem,
    and for a frame's fault the frame.

    A duplicated frame is inserted as frame ``frame``, a copy of the frame before it.
    The digest record is rebuilt after the fault, so the fault is the log's only one;
    a truncated write ends halfway through its frames record, before the digest record.
    """
    lines = list(lines)
    if case == "truncated-write":
        lines.pop()
        k = len(lines) - 1
        lines[k] = lines[k][:len(lines[k]) // 2]
        return lines, f"line {k + 1}: invalid JSON"
    kind, field, edit, *problem = MALFORMED.get(
        case, ("frame", None, None, "t_us not greater than the previous frame's"))
    record = "frames" if kind == "frame" else kind
    k = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == record)
    rec = json.loads(lines[k])
    if kind == "frame":
        columns = dict(zip(("t_us", "raw"), unpack_frames_reference(rec)))
        if case == "duplicated-frame":  # the copy repeats its original's t_us
            for column in columns.values():
                column.insert(frame, column[frame - 1])
        else:
            columns[field][frame] = edit(columns[field][frame])
        rec.update(pack_frames_reference(columns["t_us"], columns["raw"]))
        problem = [f"frame {frame} has a {problem[0]}"]
    elif field is None:
        rec = edit(rec)
    elif edit is _DELETE:
        del rec[field]
    else:
        rec[field] = edit(rec[field])
    lines[k] = json.dumps(rec) + "\n"
    return _resealed(lines), f"line {k + 1}: {''.join(problem)}"


def _resealed(lines: list[str]) -> list[str]:
    """A written log's ``lines``, edited since, with its digest record rebuilt."""
    return sealed("".join(lines[:-1])).splitlines(keepends=True)


def _assert_refused(lines: list[str], named: str, tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=f"^malformed session log {path}, {named}"):
        read_session_log(path)


@pytest.mark.parametrize("case", ["truncated-write", "duplicated-frame", *MALFORMED])
def test_read_session_log_rejects_malformed_line(small_log_lines, case, tmp_path):
    _assert_refused(*_corrupted(small_log_lines, case, 3), tmp_path)


@pytest.mark.parametrize("case", ["truncated-write", "duplicated-frame", *MALFORMED])
def test_read_session_log_rejects_malformed_line_in_a_later_slice(small_log_lines, case, tmp_path):
    # a frame's fault past the first _V3_SLICE_ROWS frames
    _assert_refused(*_corrupted(small_log_lines, case, _V3_SLICE_ROWS + 3), tmp_path)


def test_read_session_log_rejects_duplicated_frame_across_a_slice_seam(small_log_lines, tmp_path):
    # the copy is appended as the last frame, which no frame follows
    n = _frame_count(small_log_lines)
    _assert_refused(*_corrupted(small_log_lines, "duplicated-frame", n), tmp_path)


@pytest.mark.parametrize("case", FRAME_FAULTS)
def test_read_session_log_rejects_a_fault_in_the_last_frame(small_log_lines, case, tmp_path):
    n = _frame_count(small_log_lines)
    _assert_refused(*_corrupted(small_log_lines, case, n - 1), tmp_path)


def test_read_session_log_refuses_a_second_frames_record(small_log_lines, tmp_path):
    k, _ = _frames_record(small_log_lines)
    lines = _resealed([*small_log_lines[:k + 1], small_log_lines[k], *small_log_lines[k + 1:]])
    _assert_refused(lines, f"line {k + 2}: a second frames record, after line {k + 1}", tmp_path)


def test_read_session_log_refuses_a_second_meta_record(small_log_lines, tmp_path):
    # which of two signal chains would rebuild the proc?
    second = json.dumps({**json.loads(small_log_lines[0]), "iir_alpha": 0.5}) + "\n"
    lines = _resealed([small_log_lines[0], second, *small_log_lines[1:]])
    _assert_refused(lines, "line 2: a second meta record, after line 1", tmp_path)


def test_read_session_log_refuses_a_second_calibration_record(small_log_lines, tmp_path):
    assert json.loads(small_log_lines[1])["type"] == "calibration"
    lines = _resealed([*small_log_lines[:2], small_log_lines[1], *small_log_lines[2:]])
    _assert_refused(lines, "line 3: a second calibration record, after line 2", tmp_path)


def test_read_session_log_reads_the_file_once(small_log_lines, tmp_path, monkeypatch):
    # the lines are parsed from the very bytes the digest covers
    path = tmp_path / "once.jsonl"
    path.write_text("".join(small_log_lines))
    opened = []

    def counting_open(file, *args, real_open=io.open, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    read_session_log(path)
    assert opened.count(str(path)) == 1


def test_read_session_log_rejects_a_number_too_large_for_a_float(small_log_lines, tmp_path):
    # 1e999 is valid JSON that parses to inf: only the event check catches it
    lines = list(small_log_lines)
    k = [i for i, line in enumerate(lines) if '"kind": "target_move"' in line][0]
    rec = json.loads(lines[k])
    lines[k] = lines[k].replace(json.dumps(rec["to"]), f"[1e999, {rec['to'][1]!r}]")
    assert json.loads(lines[k])["to"][0] == float("inf")
    path = tmp_path / "overflow.jsonl"
    path.write_text("".join(_resealed(lines)))
    with pytest.raises(ConfigError, match=rf"line {k + 1}: target_move event 'to' is not a pair "
                                          "of finite numbers"):
        read_session_log(path)


def test_read_session_log_rejects_an_integer_too_large_for_a_float(small_log_lines, tmp_path):
    # a long integer literal parses to an int, which no float holds
    lines = list(small_log_lines)
    k = [i for i, line in enumerate(lines) if '"kind": "target_move"' in line][0]
    rec = json.loads(lines[k])
    lines[k] = lines[k].replace(json.dumps(rec["to"]), f"[{10**400}, {rec['to'][1]!r}]")
    path = tmp_path / "long-int.jsonl"
    path.write_text("".join(_resealed(lines)))
    with pytest.raises(ConfigError, match=rf"line {k + 1}: target_move event 'to' is not a pair "
                                          "of finite numbers"):
        read_session_log(path)


def test_read_session_log_rejects_moves_out_of_order(small_log_lines, tmp_path):
    lines = list(small_log_lines)
    first, second = [i for i, line in enumerate(lines) if '"kind": "target_move"' in line][:2]
    lines[first], lines[second] = lines[second], lines[first]
    path = tmp_path / "swapped.jsonl"
    path.write_text("".join(_resealed(lines)))
    with pytest.raises(ConfigError, match=rf"line {second + 1}: target_move event t_move_us "
                                          r"\d+ is before the previous move settled"):
        read_session_log(path)


@pytest.mark.parametrize("edit, problem", [
    (lambda meta: meta.pop("exposure_min_us"), "'exposure_min_us' is not a finite number"),
    (lambda meta: meta.update(exposure_min_us=meta["exposure_init_us"] * 2), "0 < exposure_min_us <="),
    (lambda meta: meta["optics"].pop("reference_exposure_us"), "'optics.reference_exposure_us'"),
    (lambda meta: meta.update(iir_alpha="0.3"), "'iir_alpha' is not a finite number"),
], ids=["no-exposure-min", "min-above-init", "no-reference-exposure", "alpha-a-string"])
def test_read_session_log_rejects_meta_without_a_signal_chain(small_log_lines, edit, problem, tmp_path):
    with pytest.raises(ConfigError, match=rf"line 1: .*{problem}"):
        read_session_log(_meta_edited(small_log_lines, edit, tmp_path))


# Settings a signal chain refuses: each is set on the SimConfig defaults (exposures
# init 400, min 25, max 1600 and reference 400 us; iir_alpha 0.3), or on the meta
# of a log written with them.
BAD_CHAIN_SETTINGS = [
    *((name, value) for name in ("exposure_init_us", "exposure_min_us", "exposure_max_us",
                                 "reference_exposure_us")
      for value in (0, -400.0, math.nan, math.inf)),
    ("exposure_min_us", 500.0),  # above init
    pytest.param("exposure_max_us", 10**400, id="exposure_max_us-10**400"),  # beyond every float
    ("iir_alpha", 0.0), ("iir_alpha", 1.5),
    ("iir_alpha", True),  # equal to 1, which is in range, but a bool
]


@pytest.mark.parametrize("name, value", BAD_CHAIN_SETTINGS)
def test_simulator_and_log_reader_refuse_the_same_chain_settings(small_log_lines, name, value,
                                                                 tmp_path):
    """One check, SignalChain's, refuses a setting on both sides, naming it."""
    in_optics = name == "reference_exposure_us"
    with pytest.raises(ConfigError, match=f"^{name!r} "):
        SimConfig(DisplayGeometry(800, 600), **({"optics": OpticsModel(reference_exposure_us=value)}
                                                if in_optics else {name: value}))
    meta = json.loads(small_log_lines[0])
    assert (meta["optics"]["reference_exposure_us"], meta["exposure_init_us"], meta["exposure_min_us"],
            meta["exposure_max_us"], meta["iir_alpha"]) == (400.0, 400.0, 25.0, 1600.0, 0.3)
    (meta["optics"] if in_optics else meta)[name] = value
    # JSON has no NaN, so that meta fails as JSON; 1e999 reads back as an infinity.
    line = json.dumps(meta).replace("Infinity", "1e999") + "\n"
    path = tmp_path / "chain.jsonl"
    path.write_text("".join(_resealed([line, *small_log_lines[1:]])))
    problem = "invalid JSON" if value != value else f"meta field {'optics.' * in_optics + name!r} "
    with pytest.raises(ConfigError, match=f"^malformed session log {path}, line 1: {re.escape(problem)}"):
        read_session_log(path)


def test_read_session_log_refuses_version_1(small_log_lines, tmp_path):
    path = _meta_edited(small_log_lines, lambda meta: meta.update(log_version=1), tmp_path)
    with pytest.raises(ConfigError, match="log_version 1 is not readable"):
        read_session_log(path)


def test_read_session_log_refuses_version_2(small_log_lines, tmp_path):
    # version 2 logs stored gaze and target in every frame and had no digest record
    path = _meta_edited(small_log_lines, lambda meta: meta.update(log_version=2), tmp_path)
    with pytest.raises(ConfigError, match=r"log_version 2 is not readable here \(this code reads 5\)"):
        read_session_log(path)


def test_read_session_log_refuses_version_3(small_log_lines, tmp_path):
    # version 3 logs held one frame record per line
    k, frames = _frames_record(small_log_lines)
    v3 = [json.dumps({"raw": row, "t_us": t, "type": "frame"}, sort_keys=True) + "\n"
          for t, row in zip(*unpack_frames_reference(frames))]
    path = _meta_edited([*small_log_lines[:k], *v3, *small_log_lines[k + 1:]],
                        lambda meta: meta.update(log_version=3), tmp_path)
    with pytest.raises(ConfigError, match=r"^log_version 3 is not readable here \(this code reads 5\)$"):
        read_session_log(path)


def test_read_session_log_refuses_version_4(small_log_lines, tmp_path):
    # version 4 logs held the frame columns as JSON lists of numbers
    k, frames = _frames_record(small_log_lines)
    t_us, raw = unpack_frames_reference(frames)
    v4 = json.dumps({"raw": raw, "t_us": t_us, "type": "frames"}, sort_keys=True) + "\n"
    path = _meta_edited([*small_log_lines[:k], v4, *small_log_lines[k + 1:]],
                        lambda meta: meta.update(log_version=4), tmp_path)
    with pytest.raises(ConfigError, match=r"^log_version 4 is not readable here \(this code reads 5\)$"):
        read_session_log(path)


def _meta_edited(lines: list[str], edit, tmp_path):
    """The log ``lines`` written out with ``edit`` applied to its meta record, on line 1."""
    meta = json.loads(lines[0])
    edit(meta)
    path = tmp_path / "meta.jsonl"
    path.write_text("".join(_resealed([json.dumps(meta) + "\n", *lines[1:]])))
    return path


def test_read_session_log_skips_unknown_record_types(small_log_lines, tmp_path):
    path = tmp_path / "extra.jsonl"
    path.write_text("".join(_resealed([small_log_lines[0],
                                       '{"type": "annotation", "note": "later format"}\n',
                                       *small_log_lines[1:]])))
    log, cal = read_session_log(path)
    assert log.n_frames == _frame_count(small_log_lines)
    assert cal is not None


def test_timestamps_strictly_increase():
    cfg = small_config()
    log = evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    assert np.all(np.diff(log.t_us) > 0)


def test_log_raw_rows_are_sensor_frames():
    cfg = small_config()
    lay = cfg.layout()
    script = GazeScript.fixations([ScreenPoint(400, 300)], 100_000)
    log = run_script(lay, cfg.subject(), script, cfg.sim_config(), seed=0)
    frames = [SensorFrame(int(t), tuple(int(v) for v in row))
              for t, row in zip(log.t_us, log.raw)]
    assert len(frames) == log.n_frames
    assert frames[0].channel_count == 12

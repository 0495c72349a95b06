import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledgaze.core import ADC_MAX, CalibrationSet, ConfigError, ScreenPoint, SensorFrame
from ledgaze.eyesim import EyeSimulator, GazeScript, ScriptEvent, SessionLog, run_script
from ledgaze.session import (
    _SLICE_ROWS,
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

from oracles import chain_reference, read_session_log_reference, write_session_log_reference


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
    assert raw["config_version"] == 1


def test_config_from_dict_ignores_unknown_keys():
    cfg = SessionConfig.from_dict({"seed": 3, "future_field": "whatever"})
    assert cfg.seed == 3


def test_config_from_dict_rejects_newer_version():
    assert SessionConfig.from_dict({"config_version": CONFIG_VERSION, "seed": 3}).seed == 3
    with pytest.raises(ConfigError):
        SessionConfig.from_dict({"config_version": CONFIG_VERSION + 1, "seed": 3})


def test_config_validation():
    with pytest.raises(ConfigError):
        SessionConfig(estimator="mlp")
    with pytest.raises(ConfigError):
        SessionConfig(layout_mode="prototype9")
    with pytest.raises(ConfigError):
        SessionConfig(task_candidates_min=2)


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
    assert cfg.grid().point_count == 4
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


def test_augmentation_dwell_too_short_to_sample_rejected():
    # a zero-length dwell has no samples, so its mean would be NaN
    cfg = small_config(augment_dwell_ms=0.0)
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    with pytest.raises(ConfigError, match="dwell"):
        augmentation_phase(cfg, cfg.subject(), cfg.layout(), cal, cfg.seed)


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
    assert log.channel_count == 12
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
    return {"seed1-with-calibration": (log, cal), "seed1-no-calibration": (log, None),
            "script-unsettled-move": (scripted, None),
            "no-frames": (_frames_log(0, 12), None),
            "one-frame": (_frames_log(1, 12), None),
            "slice-less-one": (_frames_log(_SLICE_ROWS - 1, 12), None),
            "one-slice": (_frames_log(_SLICE_ROWS, 12), None),
            "slice-and-one": (_frames_log(_SLICE_ROWS + 1, 12), None),
            # consecutive gaze and target rows equal under == but not bit for bit
            "signed-zero-rows": (_frames_log(6, 2, values=[0.0, 5.0, -0.0, 5.0]), None),
            "row-held-across-slice": (_held_log(_SLICE_ROWS + 4, 2,
                                                slice(_SLICE_ROWS - 2, _SLICE_ROWS + 3)), None),
            "one-channel": (_frames_log(40, 1), None),
            "exponent-floats": (_frames_log(3, 4, values=[1e-05, 1e+16, 5e-324, -2.5e-300]), None),
            "negative-zero": (_frames_log(3, 4, values=[-0.0, 0.0]), None),
            "t-above-2-53": (_frames_log(3, 4, t0=2**53 + 1), None)}


# The meta of a log's signal chain, in the prototype1 defaults.
_CHAIN_META = {"exposure_init_us": 400.0, "exposure_min_us": 25.0, "exposure_max_us": 1600.0,
               "iir_alpha": 0.3, "optics": {"reference_exposure_us": 400.0}}


def _chain_log(t_us, raw, gaze, target, meta: dict) -> SessionLog:
    """A log whose proc is what ``chain_reference`` gives for ``raw`` under ``meta``."""
    proc = chain_reference(raw.tolist(), meta["exposure_init_us"], meta["exposure_min_us"],
                           meta["exposure_max_us"], meta["optics"]["reference_exposure_us"],
                           meta["iir_alpha"])
    proc = np.reshape(np.asarray(proc, dtype=float), raw.shape)
    return SessionLog(t_us, raw, proc, gaze, target, [], meta)


def _frames_log(n: int, m: int, values=(0.25, -1.5, 3.0), t0: int = 0) -> SessionLog:
    """A log of ``n`` frames over ``m`` channels whose gaze and target cycle through ``values``.

    Its raw counts run through every reading, so exposures adapt often.
    """
    floats = np.resize(np.asarray(values, dtype=float), n * 4)
    gaze, target = np.split(floats.reshape(n, 4), [2], axis=1)
    raw = np.arange(n * m, dtype=np.int64).reshape(n, m) % (ADC_MAX + 1)
    t_us = t0 + 1666 * np.arange(n, dtype=np.int64)
    return _chain_log(t_us, raw, gaze, target, {"phase": "synthetic", **_CHAIN_META})


def _held_log(n: int, m: int, held: slice) -> SessionLog:
    """A signed-zero _frames_log whose float rows in ``held`` repeat the row before them."""
    log = _frames_log(n, m, values=[0.0, 5.0, -0.0, 5.0])
    for column in (log.gaze, log.target):
        column[held] = column[held.start - 1]
    return log


@pytest.mark.parametrize("case", ["seed1-with-calibration", "seed1-no-calibration",
                                  "script-unsettled-move", "no-frames", "one-frame",
                                  "slice-less-one", "one-slice", "slice-and-one",
                                  "signed-zero-rows", "row-held-across-slice", "one-channel",
                                  "exponent-floats", "negative-zero", "t-above-2-53"])
def test_session_log_codec_matches_reference(codec_logs, case, tmp_path):
    log, cal = codec_logs[case]
    path, ref_path = tmp_path / "new.jsonl", tmp_path / "ref.jsonl"
    write_session_log(log, path, calibration=cal)
    write_session_log_reference(log, ref_path, calibration=cal)
    assert path.read_bytes() == ref_path.read_bytes()
    if log.n_frames == 0:
        with pytest.raises(ConfigError, match="no frames"):
            read_session_log(path)
        return
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
    """Signal chain settings as a log's meta holds them: 0 < min <= init <= max."""
    emin = draw(st.sampled_from([25.0, 1.0]) | st.floats(0.5, 100.0))
    emax = emin * draw(st.sampled_from([1.0, 2.0, 64.0]) | st.floats(1.0, 1000.0))
    init = draw(st.sampled_from([emin, emax]) | st.floats(emin, emax))
    return {"exposure_init_us": init, "exposure_min_us": emin, "exposure_max_us": emax,
            "iir_alpha": draw(st.sampled_from([0.3, 1.0]) | st.floats(0.01, 1.0)),
            "optics": {"reference_exposure_us": draw(st.sampled_from([400.0, 100.0])
                                                     | st.floats(1.0, 1000.0))}}


@st.composite
def small_logs(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    steps = draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n))
    t_us = draw(st.integers(0, 2**62)) + np.cumsum(steps, dtype=np.int64)
    # readings at either end of the range adapt the exposure
    reading = st.integers(0, 30) | st.integers(990, ADC_MAX) | st.integers(0, ADC_MAX)
    raw = draw(st.lists(reading, min_size=n * m, max_size=n * m))
    floats = draw(st.lists(_finite, min_size=n * 4, max_size=n * 4))
    gaze, target = np.split(np.reshape(floats, (n, 4)), [2], axis=1)
    # a float row may repeat the row before it, exactly or with its zeros' signs flipped
    repeats = st.lists(st.sampled_from(("new", "copy", "flip")), min_size=n - 1, max_size=n - 1)
    for column in (gaze, target):
        for i, how in enumerate(draw(repeats), 1):
            if how != "new":
                prev = column[i - 1]
                column[i] = prev if how == "copy" else np.where(prev == 0, -prev, prev)
    raw = np.reshape(raw, (n, m)).astype(np.int64)
    return _chain_log(t_us, raw, gaze, target, draw(chain_metas()))


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


@pytest.fixture(scope="module")
def seed5_log():
    cfg = small_config()
    return evaluation_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)


@pytest.mark.parametrize("field", ["t_us", "raw", "gaze", "target"])
def test_write_session_log_rejects_ragged_fields(seed5_log, field, tmp_path):
    n = seed5_log.n_frames
    ragged = dataclasses.replace(seed5_log, **{field: getattr(seed5_log, field)[:n - 10]})
    path = tmp_path / "ragged.jsonl"
    with pytest.raises(ConfigError, match=rf"frame {n - 10} .*no {field!r}"):
        write_session_log(ragged, path)
    assert not path.exists()


@pytest.mark.parametrize("field, value", [("gaze", -np.inf), ("target", np.inf),
                                          ("target", np.nan)])
def test_write_session_log_rejects_non_finite_numbers(seed5_log, field, value, tmp_path):
    log = dataclasses.replace(seed5_log, **{field: getattr(seed5_log, field).copy()})
    getattr(log, field)[100, -1] = value
    path = tmp_path / "nonfinite.jsonl"
    with pytest.raises(ConfigError, match=rf"frame 100 .*non-finite.*{field!r}"):
        write_session_log(log, path)
    assert not path.exists()


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
    else:  # the second event, on line 4
        events = [dict(ev) for ev in log.events]
        events[1]["to"] = [events[1]["to"][0], float("-inf")]
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
    assert log.n_frames > _SLICE_ROWS + 3  # a bad frame fits into the second slice
    return path.read_text().splitlines(keepends=True)


_DELETE = object()

# (record type corrupted, field, replacement of the field's value or _DELETE);
# with no field, the replacement of the whole record
MALFORMED = {
    "no-type": ("frame", "type", _DELETE),
    "frame-missing-field": ("frame", "gaze", _DELETE),
    "ragged-raw": ("frame", "raw", lambda raw: raw[:-1]),
    "gaze-not-a-pair": ("frame", "gaze", lambda gaze: gaze[:1]),
    "raw-above-adc-max": ("frame", "raw", lambda raw: raw[:-1] + [ADC_MAX + 1]),
    "raw-negative": ("frame", "raw", lambda raw: [-1] + raw[1:]),
    "raw-not-an-integer": ("frame", "raw", lambda raw: [raw[0] + 0.5] + raw[1:]),
    "t-not-an-integer": ("frame", "t_us", float),
    "target-infinity": ("frame", "target", lambda target: [target[0], float("inf")]),
    "calibration-missing-means": ("calibration", "means", _DELETE),
    "calibration-mean-nan": ("calibration", "means",
                             lambda means: [[means[0][0], float("nan"), *means[0][2:]], *means[1:]]),
    "meta-nan": ("meta", "cycle_us", lambda cycle: float("nan")),
    "blink-without-t1": ("event", None, lambda ev: {
        "type": "event", "kind": "blink", "t0_us": ev["t_move_us"]}),
    "blink-t0-not-an-integer": ("event", None, lambda ev: {
        "type": "event", "kind": "blink", "t0_us": float(ev["t_move_us"]),
        "t1_us": ev["t_settle_us"]}),
    "move-without-t-move": ("event", "t_move_us", _DELETE),
    "move-t-move-not-an-integer": ("event", "t_move_us", float),
    "move-t-move-boolean": ("event", "t_move_us", lambda t: True),
    "move-settle-neither-integer-nor-null": ("event", "t_settle_us", str),
    "move-without-settle": ("event", "t_settle_us", _DELETE),
    "event-kind-misspelt": ("event", "kind", lambda kind: "target_mvoe"),
}


def _corrupted(lines: list[str], case: str, frame: int) -> tuple[list[str], int]:
    """``lines`` with the fault ``case``, placed at frame ``frame`` if it is a frame's fault;
    and the index of the line the reader must name.

    A duplicated frame is inserted as frame ``frame``, a copy of the frame before it.
    """
    lines = list(lines)
    if case == "truncated-write":
        k = len(lines) - 1
        lines[k] = lines[k][:len(lines[k]) // 2]
        return lines, k
    kind, field, edit = MALFORMED.get(case, ("frame", None, None))
    of_kind = [i for i, line in enumerate(lines) if json.loads(line)["type"] == kind]
    k = of_kind[frame if kind == "frame" else 0]
    if case == "duplicated-frame":  # the copy repeats its original's t_us
        lines.insert(k, lines[k - 1])
        return lines, k
    rec = json.loads(lines[k])
    if field is None:
        rec = edit(rec)
    elif edit is _DELETE:
        del rec[field]
    else:
        rec[field] = edit(rec[field])
    lines[k] = json.dumps(rec) + "\n"
    return lines, k


def _assert_names_line(lines: list[str], k: int, tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=rf"line {k + 1}:") as err:
        read_session_log(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("case", ["truncated-write", "duplicated-frame", *MALFORMED])
def test_read_session_log_rejects_malformed_line(small_log_lines, case, tmp_path):
    _assert_names_line(*_corrupted(small_log_lines, case, 3), tmp_path)


@pytest.mark.parametrize("case", ["truncated-write", "duplicated-frame", *MALFORMED])
def test_read_session_log_rejects_malformed_line_in_a_later_slice(small_log_lines, case, tmp_path):
    _assert_names_line(*_corrupted(small_log_lines, case, _SLICE_ROWS + 3), tmp_path)


def test_read_session_log_rejects_duplicated_frame_across_a_slice_seam(small_log_lines, tmp_path):
    # the copy opens the second slice, so only the whole-column t_us check sees it
    _assert_names_line(*_corrupted(small_log_lines, "duplicated-frame", _SLICE_ROWS), tmp_path)


def test_read_session_log_rejects_a_number_too_large_for_a_float(small_log_lines, tmp_path):
    # 1e999 is valid JSON that parses to inf: only the column check catches it
    lines = list(small_log_lines)
    k = [i for i, line in enumerate(lines) if '"type": "frame"' in line][3]
    rec = json.loads(lines[k])
    lines[k] = lines[k].replace(json.dumps(rec["gaze"]), f"[1e999, {rec['gaze'][1]!r}]")
    assert json.loads(lines[k])["gaze"][0] == float("inf")
    path = tmp_path / "overflow.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=rf"line {k + 1}: frame field 'gaze' holds a non-finite"):
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


def test_read_session_log_refuses_version_1(small_log_lines, tmp_path):
    path = _meta_edited(small_log_lines, lambda meta: meta.update(log_version=1), tmp_path)
    with pytest.raises(ConfigError, match="log_version 1 is not readable"):
        read_session_log(path)


def _meta_edited(lines: list[str], edit, tmp_path):
    """The log ``lines`` written out with ``edit`` applied to its meta record, on line 1."""
    meta = json.loads(lines[0])
    edit(meta)
    path = tmp_path / "meta.jsonl"
    path.write_text(json.dumps(meta) + "\n" + "".join(lines[1:]))
    return path


def test_read_session_log_skips_unknown_record_types(small_log_lines, tmp_path):
    path = tmp_path / "extra.jsonl"
    path.write_text(small_log_lines[0] + '{"type": "annotation", "note": "later format"}\n'
                    + "".join(small_log_lines[1:]))
    log, cal = read_session_log(path)
    assert log.n_frames == sum('"type": "frame"' in line for line in small_log_lines)
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

"""Session configuration, simulated session phases, and log serialization.

A full benchmark session mirrors the experimental procedure: a dwell
calibration over a grid, an online-augmentation phase that visits extra
targets during "gameplay", and a scripted evaluation run with saccades and
blinks. Each phase runs on its own engine with a seed derived from the
session seed, so every artifact is replayable bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .calib import CalibrationGridSpec, DwellConfig, run_calibration
from .core import ADC_MAX, CalibrationSet, ConfigError, DisplayGeometry, ScreenPoint
from .eyesim import (
    EyeSimulator,
    GazeScript,
    LedLayout,
    OpticsModel,
    ScriptEvent,
    SessionLog,
    SimConfig,
    SubjectProfile,
    run_script,
)
from .kernels import MeasureSpec
from .regress import GprModel, SvrModel
from .sigproc import IirFilter, compensate, replay_exposure

CONFIG_VERSION = 1
LOG_VERSION = 2

DEFAULT_SIGMA_GRID = (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 2.0)


def derive_seed(*parts: int) -> int:
    """Stable child seed for a subsystem, derived from integer labels."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def _check_version(name: str, found, supported: int) -> None:
    """Reject files written by any other format than the one this code reads."""
    if type(found) is not int or found != supported:
        raise ConfigError(f"{name} {found!r} is not readable here (this code reads {supported})")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What a config field of each annotated type takes: the check, and its noun.
_FIELD_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, ...]": (lambda v: isinstance(v, tuple) and all(map(_is_number, v)),
                          "a list of numbers"),
}


def iir_settle_frames(alpha: float, attenuation: float) -> int:
    """Frames until a first-order IIR step transient decays to the given fraction."""
    if alpha >= 1.0:
        return 0
    return int(math.ceil(math.log(attenuation) / math.log(1.0 - alpha)))


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce a session, flat and JSON-friendly."""

    seed: int = 0
    # display
    display_width: int = 800
    display_height: int = 600
    degrees_per_pixel: float = 0.12
    # LED layout
    layout_mode: str = "prototype1"
    ring_radius_mm: float = 16.0
    eye_relief_mm: float = 27.0
    eyes: int = 2
    # synthetic subject
    subject_seed: int = 1
    noise_std: float = 0.01
    # capture timing and signal chain
    step_us: int = 1666
    iir_alpha: float = 0.3
    exposure_init_us: float = 0.0  # 0 selects the per-mode default
    exposure_min_us: float = 25.0
    exposure_max_us: float = 1600.0
    # simulator optics
    lobe_sharpness: float = 1.5
    signal_scale: float = 0.65
    eyelid_level: float = 0.85
    # calibration grid and dwell
    grid_rows: int = 4
    grid_cols: int = 4
    grid_margin: int = 100
    fix_duration_ms: float = 1500.0
    sample_interval_ms: float = 10.0
    variance_threshold: float = 0.05
    # online augmentation phase
    augment_points: int = 66
    augment_dwell_ms: float = 600.0
    # evaluation script
    eval_fixations: int = 40
    eval_fixation_min_ms: float = 800.0
    eval_fixation_max_ms: float = 1400.0
    # estimator
    estimator: str = "gpr"  # "gpr" | "svr"
    measure_kind: str = "minkowski"
    minkowski_m: float = 2.0
    rbf_sigma: float = 0.3
    rbf_squared: bool = False
    svr_normalize: bool = True
    jitter: float = 1e-8
    sigma_grid: tuple[float, ...] = DEFAULT_SIGMA_GRID
    # selection tasks
    task_count: int = 50
    task_dwell_ms: float = 3000.0
    task_candidates_min: int = 3
    task_candidates_max: int = 8
    target_radius_deg: float = 1.5
    task_window_threshold: float = 0.95
    # scenario machinery
    remount_shift_std_mm: float = 0.7

    def __post_init__(self):
        for f in fields(self):  # json.load reads NaN and Infinity tokens as floats
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"config field {f.name!r} must be finite, got {value!r}")
            takes, noun = _FIELD_KINDS[f.type]
            if not takes(value):
                raise ConfigError(f"config field {f.name!r} must be {noun}, got {value!r}")
        if self.estimator not in ("gpr", "svr"):
            raise ConfigError("estimator must be 'gpr' or 'svr'")
        if self.layout_mode not in ("prototype1", "prototype2"):
            raise ConfigError("layout_mode must be 'prototype1' or 'prototype2'")
        if not (3 <= self.task_candidates_min <= self.task_candidates_max <= 8):
            raise ConfigError("task candidate counts must lie in [3, 8]")

    # -- constructors for the domain objects --------------------------------

    def geometry(self) -> DisplayGeometry:
        return DisplayGeometry(self.display_width, self.display_height,
                               self.degrees_per_pixel)

    def layout(self) -> LedLayout:
        maker = LedLayout.prototype1 if self.layout_mode == "prototype1" else LedLayout.prototype2
        return maker(eyes=self.eyes, ring_radius_mm=self.ring_radius_mm,
                     eye_relief_mm=self.eye_relief_mm)

    def subject(self, seed: int | None = None) -> SubjectProfile:
        return SubjectProfile.generate(
            self.subject_seed if seed is None else seed,
            channels=self.layout().total_channels,
            noise_std=self.noise_std,
        )

    def optics(self) -> OpticsModel:
        return OpticsModel(lobe_sharpness=self.lobe_sharpness,
                           signal_scale=self.signal_scale,
                           eyelid_level=self.eyelid_level)

    def sim_config(self) -> SimConfig:
        exposure = self.exposure_init_us
        if exposure <= 0:
            # prototype2 sums several illuminators per capture, so it needs a
            # shorter integration window to stay off the ADC ceiling
            exposure = 400.0 if self.layout_mode == "prototype1" else 100.0
        return SimConfig(
            geom=self.geometry(),
            step_us=self.step_us,
            iir_alpha=self.iir_alpha,
            exposure_init_us=exposure,
            exposure_min_us=self.exposure_min_us,
            exposure_max_us=self.exposure_max_us,
            optics=self.optics(),
        )

    def grid(self) -> CalibrationGridSpec:
        return CalibrationGridSpec(self.grid_rows, self.grid_cols, self.grid_margin)

    def dwell(self) -> DwellConfig:
        return DwellConfig(self.fix_duration_ms, self.sample_interval_ms,
                           self.variance_threshold)

    def measure(self) -> MeasureSpec:
        return MeasureSpec(kind=self.measure_kind, m=self.minkowski_m,
                           sigma=self.rbf_sigma, rbf_squared=self.rbf_squared)

    def target_radius_px(self) -> float:
        return self.target_radius_deg / self.degrees_per_pixel

    def build_estimator(self, calibration: CalibrationSet):
        if self.estimator == "gpr":
            return GprModel(calibration, self.measure(), jitter=self.jitter)
        return SvrModel(calibration, self.rbf_sigma, normalize=self.svr_normalize,
                        rbf_squared=self.rbf_squared)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        d = {"config_version": CONFIG_VERSION}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SessionConfig":
        _check_version("config_version", d.get("config_version", CONFIG_VERSION), CONFIG_VERSION)
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in d.items() if k in known}
        grid = kwargs.get("sigma_grid")
        if isinstance(grid, list) and all(map(_is_number, grid)):
            kwargs["sigma_grid"] = tuple(float(s) for s in grid)
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "SessionConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def replace(self, **kw) -> "SessionConfig":
        return dataclasses.replace(self, **kw)


SETTLE_ATTENUATION = 1e-3  # IIR transient left when dwell sampling starts


@dataclass
class SimulatorDwellSource:
    """Adapter feeding dwell samples from a live engine to the calibrator.

    After the stimulus moves, the source waits out the subject's reaction
    time plus the low-pass transient before sampling, mirroring how a real
    operator would only record once the gaze indicator steadies.
    """

    engine: EyeSimulator
    dwell_ms: float

    def settle_us(self) -> int:
        subj = self.engine.subject
        cycle = self.engine.cycle_us
        frames = iir_settle_frames(self.engine.config.iir_alpha, SETTLE_ATTENUATION)
        return int((subj.srt_mean_ms + 4 * subj.srt_std_ms) * 1000.0
                   + frames * cycle + 2 * cycle)

    def acquire(self, targets: Sequence[ScreenPoint]) -> list[np.ndarray]:
        """Dwell on each target in turn, in one engine run; the sampled frames per target."""
        settle_us, dwell_us = self.settle_us(), int(self.dwell_ms * 1000.0)
        settle, dwell = self.engine.frame_count(settle_us), self.engine.frame_count(dwell_us)
        if dwell < 2:  # the fewest samples a dwell mean and spread need
            raise ConfigError(f"a {self.dwell_ms} ms dwell spans {dwell} frames, fewer than 2")
        self.engine.run([ScriptEvent("fixation", us, target)
                         for target in targets for us in (settle_us, dwell_us)])
        _, _, proc, _, _ = self.engine.take_frames()
        step = settle + dwell
        # Settle-in frames are not sampled.
        return [proc[i * step + settle:(i + 1) * step] for i in range(len(targets))]


def calibration_phase(config: SessionConfig, subject: SubjectProfile,
                      layout: LedLayout, seed: int) -> CalibrationSet:
    """Dwell over the scheduled grid and build the calibration matrix."""
    engine = EyeSimulator(layout, subject, config.sim_config(), derive_seed(seed, 21))
    source = SimulatorDwellSource(engine, config.fix_duration_ms)
    return run_calibration(source, config.grid(), config.geometry(),
                           config.dwell(), seed=derive_seed(seed, 22))


def augmentation_phase(config: SessionConfig, subject: SubjectProfile,
                       layout: LedLayout, calibration: CalibrationSet,
                       seed: int) -> CalibrationSet:
    """Visit random gameplay targets, appending each dwell mean as training."""
    engine = EyeSimulator(layout, subject, config.sim_config(), derive_seed(seed, 31))
    source = SimulatorDwellSource(engine, config.augment_dwell_ms)
    rng = np.random.default_rng(np.random.SeedSequence([derive_seed(seed, 32)]))
    geom = config.geometry()
    m = config.grid_margin
    targets = [ScreenPoint(float(rng.uniform(m, geom.width - m)),
                           float(rng.uniform(m, geom.height - m)))
               for _ in range(config.augment_points)]
    for target, samples in zip(targets, source.acquire(targets)):
        calibration = calibration.append(samples.mean(axis=0), target)
    return calibration


def evaluation_phase(config: SessionConfig, subject: SubjectProfile,
                     layout: LedLayout, seed: int) -> SessionLog:
    """Scripted run with random fixations, saccade lags, and blinks."""
    geom = config.geometry()
    rng = np.random.default_rng(np.random.SeedSequence([derive_seed(seed, 41)]))
    script = GazeScript.random(
        rng, geom, config.grid_margin, config.eval_fixations,
        (int(config.eval_fixation_min_ms * 1000), int(config.eval_fixation_max_ms * 1000)),
        subject.blink_rate_per_min,
    )
    log = run_script(layout, subject, script, config.sim_config(), derive_seed(seed, 42))
    log.meta.update({"phase": "evaluation", "config": config.to_dict()})
    return log


def run_benchmark_session(config: SessionConfig):
    """Calibrate, augment online, then record the scripted evaluation run.

    Returns (session log, augmented calibration set).
    """
    layout = config.layout()
    subject = config.subject()
    cal = calibration_phase(config, subject, layout, config.seed)
    cal = augmentation_phase(config, subject, layout, cal, config.seed)
    log = evaluation_phase(config, subject, layout, config.seed)
    return log, cal


# -- session log serialization (line-delimited JSON) --------------------------

# The fields of a frame record; the writer and the reader both iterate this tuple.
# A frame's processed vector is not one: the reader rebuilds it from raw.
_FRAME_FIELDS = ("t_us", "raw", "gaze", "target")
_INTEGER_FIELDS = ("t_us", "raw")

# A frame record's line as json.dumps(sort_keys=True) writes it: keys sorted,
# t_us a bare number, every other field a list. Each frame field fills one
# str.format slot; _FRAME_SLOTS names them in slot order.
_FRAME_SLOTS = sorted(_FRAME_FIELDS)
_FRAME_LINE = "{{" + ", ".join(f'"{key}": ' + {"type": '"frame"', "t_us": "{}"}.get(key, "[{}]")
                               for key in sorted((*_FRAME_FIELDS, "type"))) + "}}\n"

# Frames per slice, in both directions: the writer formats a field's rows a
# slice at a time, and the reader moves a slice's parsed rows into arrays, so
# neither holds a Python object per value for the whole log.
_SLICE_ROWS = 128


def write_session_log(log: SessionLog, path, calibration: CalibrationSet | None = None) -> None:
    """One JSON record per line: meta, calibration, events, then frames.

    A frame record holds the frame's time, raw counts, gaze and target. Its
    processed vector is not written: the reader rebuilds it from the raw
    counts through the signal chain that the meta sets (``_rebuilt_proc``).
    Frames are formatted a slice of _SLICE_ROWS at a time, one json.dumps
    per field; a row equal bit for bit to the one before it reuses its text.

    A log the file cannot hold faithfully raises ConfigError before the file
    is opened: frame fields of unequal length, or a non-finite number, which
    JSON cannot express, naming the field and the frame; a non-finite number
    in the meta, calibration or an event record, naming the record's line;
    and a proc other than the one its raw counts and meta give, naming the
    first frame that differs.
    """
    columns = {f: getattr(log, f) for f in _FRAME_FIELDS}
    _check_writable(path, columns)
    head = [_header_line(path, n, rec) for n, rec in enumerate(_records(log, calibration), 1)]
    _check_proc(path, log)
    with open(path, "w") as fh:
        fh.writelines(head)
        for start in range(0, log.n_frames, _SLICE_ROWS):
            rows = slice(start, start + _SLICE_ROWS)
            fh.writelines(map(_FRAME_LINE.format,
                              *(_row_texts(columns[f][rows]) for f in _FRAME_SLOTS)))


def _records(log: SessionLog, calibration: CalibrationSet | None):
    """The log's records before its frames; their values are JSON-native already."""
    yield {"type": "meta", "log_version": LOG_VERSION, **log.meta}
    if calibration is not None:
        yield {"type": "calibration", **calibration.to_dict()}
    for ev in log.events:
        yield {"type": "event", **ev}


def _header_line(path, line: int, rec: dict) -> str:
    try:
        return json.dumps(rec, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or an infinity
        raise ConfigError(f"cannot write session log {path}: line {line}, the {rec['type']} "
                          f"record, holds a value JSON cannot express ({exc})") from None


def _check_writable(path, columns: dict[str, np.ndarray]) -> None:
    """Raise ConfigError for frame columns that no log line could hold as written."""
    lengths = {f: len(column) for f, column in columns.items()}
    short, long = min(lengths, key=lengths.get), max(lengths, key=lengths.get)
    if lengths[short] != lengths[long]:
        raise _unwritable(path, lengths[short], f"has {long!r} but no {short!r}: the frame "
                          f"fields hold {lengths[long]} and {lengths[short]} rows")
    for f, column in columns.items():
        bad = ~np.isfinite(column)
        bad = np.flatnonzero(bad.any(axis=1) if bad.ndim == 2 else bad)
        if bad.size:
            raise _unwritable(path, int(bad[0]), f"holds a non-finite number in {f!r}")


def _check_proc(path, log: SessionLog) -> None:
    """Raise ConfigError unless reading the log back gives its proc."""
    try:
        proc = _rebuilt_proc(log.raw, log.meta)
    except ConfigError as exc:
        raise ConfigError(f"cannot write session log {path}: {exc}") from None
    if np.shape(log.proc) != proc.shape:
        raise ConfigError(f"cannot write session log {path}: its proc has shape "
                          f"{np.shape(log.proc)}, its raw counts give {proc.shape}")
    bad = np.flatnonzero((log.proc != proc).any(axis=1))
    if bad.size:
        raise _unwritable(path, int(bad[0]), "holds a proc row other than the one its raw "
                          "counts give through the meta's signal chain")


def _rebuilt_proc(raw: np.ndarray, meta: dict) -> np.ndarray:
    """The processed vectors of a log's raw counts: the chain ``EyeSimulator.run`` applies.

    Exposures replayed from the initial one, compensation, then one fresh IIR
    pass, with the settings in the meta. A setting that is missing, not a
    finite number or out of range raises ConfigError naming it.
    """
    optics = meta.get("optics")
    chain = {name: meta.get(name) for name in
             ("exposure_init_us", "exposure_min_us", "exposure_max_us", "iir_alpha")}
    chain["optics.reference_exposure_us"] = (optics.get("reference_exposure_us")
                                             if isinstance(optics, dict) else None)
    for name, value in chain.items():
        if not (_is_number(value) and math.isfinite(value)):
            raise ConfigError(f"meta field {name!r} is not a finite number: {value!r}")
    init, emin, emax, alpha, ref = chain.values()
    if not (0 < emin <= init <= emax and ref > 0):
        raise ConfigError("meta exposures must satisfy 0 < exposure_min_us <= exposure_init_us "
                          "<= exposure_max_us, with a positive reference_exposure_us")
    iir = IirFilter(alpha)
    scales, _ = replay_exposure(raw, np.full(raw.shape[1], float(init)), emin, emax, ref)
    return iir.filter_block(compensate(raw, scales, out=scales))


def _unwritable(path, frame: int, problem: str) -> ConfigError:
    return ConfigError(f"cannot write session log {path}: frame {frame} {problem}")


def _row_texts(rows: np.ndarray) -> list[str]:
    """The JSON text of each row, without a vector's brackets, from one json.dumps.

    Only the rows that differ bit for bit from the row before them are
    formatted; a repeat reuses the text before it. Comparing bits, not
    values, keeps a -0.0 after a 0.0 apart. Splitting is exact because the
    rows hold only numbers, whose text has no comma or bracket.
    """
    if rows.ndim == 1:
        return json.dumps(rows.tolist())[1:-1].split(", ")
    bits = np.ascontiguousarray(rows).view(f"i{rows.itemsize}")
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    texts = json.dumps(rows[new].tolist())[2:-2].split("], [")
    return [texts[i] for i in (np.cumsum(new) - 1).tolist()]


def read_session_log(path):
    """Inverse of write_session_log; returns (log, calibration-or-None).

    Each frame's proc is rebuilt from the raw counts through the signal
    chain that the meta record sets (``_rebuilt_proc``). A log of any other
    ``log_version`` than LOG_VERSION raises ConfigError naming the version.

    A malformed log raises ConfigError naming the file and line: invalid
    JSON (a truncated write, or a NaN or Infinity token in any record), a
    record with no type, a frame missing a field or holding the wrong number
    or kind of values, a raw count outside [0, ADC_MAX], a number in gaze or
    target too large for a float (1e999), a frame whose t_us is not greater
    than the previous frame's, an event of unknown kind or without its
    integer times, and a meta record whose signal chain settings are
    missing or out of range. Records of unknown type are skipped.

    Frame fields move into arrays a slice of _SLICE_ROWS frames at a time,
    where each row's shape and kind are checked; the value checks (raw
    range, non-finite numbers, t_us order) run once on the whole columns.
    A log with one fault is named by its line whatever the slicing; with
    several, the faults of the earlier slices are reported first.
    """
    meta: dict = {}
    meta_line = None
    events: list[dict] = []
    cal = None
    columns: dict[str, list] = {f: [] for f in _FRAME_FIELDS}  # the current slice's rows
    parts: dict[str, list] = {f: [] for f in _FRAME_FIELDS}  # the arrays of the slices before
    lines: list[int] = []  # file line of each frame record
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = _DECODER.decode(line)
            except ValueError as exc:
                raise _malformed(path, n, f"invalid JSON ({exc})") from None
            kind = rec.pop("type", None) if isinstance(rec, dict) else None
            if kind == "frame":
                try:
                    for f, column in columns.items():
                        column.append(rec[f])
                except KeyError as exc:
                    raise _malformed(path, n, f"frame has no {exc} field") from None
                lines.append(n)
                if len(lines) % _SLICE_ROWS == 0:
                    _take_slice(path, lines, columns, parts)
            elif kind == "event":
                problem = _event_problem(rec)
                if problem:
                    raise _malformed(path, n, problem)
                events.append(rec)
            elif kind == "meta":
                _check_version("log_version", rec.pop("log_version", LOG_VERSION), LOG_VERSION)
                meta, meta_line = rec, n
            elif kind == "calibration":
                try:
                    cal = CalibrationSet.from_dict(rec)
                except (KeyError, TypeError, ValueError) as exc:
                    raise _malformed(path, n, f"bad calibration ({exc})") from None
            elif kind is None:
                raise _malformed(path, n, "record has no type")
    if not lines:
        raise ConfigError(f"no frames found in session log {path}")
    if columns["t_us"]:
        _take_slice(path, lines, columns, parts)
    arrays = {f: np.concatenate(parts[f]) for f in _FRAME_FIELDS}
    bad = np.flatnonzero(((arrays["raw"] < 0) | (arrays["raw"] > ADC_MAX)).any(axis=1))
    if bad.size:
        raise _malformed(path, lines[bad[0]], f"raw count outside [0, {ADC_MAX}]")
    for f in ("gaze", "target"):  # JSON integers are finite already
        bad = np.flatnonzero(~np.isfinite(arrays[f]).all(axis=1))
        if bad.size:
            raise _malformed(path, lines[bad[0]], f"frame field {f!r} holds a non-finite number")
    bad = np.flatnonzero(np.diff(arrays["t_us"]) <= 0)
    if bad.size:
        raise _malformed(path, lines[bad[0] + 1], "t_us is not greater than the previous frame's")
    if meta_line is None:
        raise ConfigError(f"no meta record found in session log {path}")
    try:
        proc = _rebuilt_proc(arrays["raw"], meta)
    except ConfigError as exc:
        raise _malformed(path, meta_line, str(exc)) from None
    return SessionLog(**arrays, proc=proc, events=events, meta=meta), cal


def _take_slice(path, lines: list[int], columns: dict[str, list],
                parts: dict[str, list]) -> None:
    """Move the rows in ``columns`` into one checked array per field in ``parts``.

    The first frame of the log fixes the channel count of every slice.
    """
    rows = lines[len(lines) - len(columns["t_us"]):]
    if not parts["raw"]:
        first = columns["raw"][0]
        if not isinstance(first, list):
            raise _malformed(path, rows[0], "frame field 'raw' is not a list")
        m = len(first)
    else:
        m = parts["raw"][0].shape[1]
    shapes = {"t_us": (), "raw": (m,), "gaze": (2,), "target": (2,)}
    for f, values in columns.items():
        parts[f].append(_frame_column(path, rows, f, values, shapes[f]))
        values.clear()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# json.loads without arguments, except that it rejects the NaN, Infinity and
# -Infinity tokens; built once, where json.loads(line, parse_constant=...)
# would build a decoder per line.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _malformed(path, line: int, problem: str) -> ConfigError:
    return ConfigError(f"malformed session log {path}, line {line}: {problem}")


# The integer times each event kind must hold; a target_move also holds
# t_settle_us, never absent: an integer, or null if not settled when the log ends.
_EVENT_TIMES = {"blink": ("t0_us", "t1_us"), "target_move": ("t_move_us",)}


def _event_problem(ev: dict) -> str | None:
    """Why an event record cannot be scored, or None if it can."""
    kind = ev.get("kind")
    if kind not in _EVENT_TIMES:
        return f"unknown event kind {kind!r}"
    missing = [f for f in _EVENT_TIMES[kind] if type(ev.get(f)) is not int]  # rejects bool too
    if missing:
        return f"{kind} event has no integer {', '.join(missing)}"
    if kind == "target_move" and type(ev.get("t_settle_us", "absent")) not in (int, type(None)):
        return "target_move event t_settle_us is neither an integer nor null"
    return None


def _frame_column(path, lines: list[int], name: str, values: list, row_shape: tuple) -> np.ndarray:
    """One frame field as an array; a row of the wrong shape or kind names its line.

    Integer fields must hold JSON integers: converting a float there to the
    integer dtype would truncate it rather than reject it.
    """
    integer = name in _INTEGER_FIELDS
    kinds = "i" if integer else "if"
    arr = _fitting(values, kinds, (len(values), *row_shape))
    if arr is None:
        line = next(n for n, v in zip(lines, values) if _fitting(v, kinds, row_shape) is None)
        noun = "integer" if integer else "number"
        what = f"a list of {row_shape[0]} {noun}s" if row_shape else f"a single {noun}"
        raise _malformed(path, line, f"frame field {name!r} is not {what}")
    return arr.astype(np.int64 if integer else float, copy=False)


def _fitting(values, kinds: str, shape: tuple) -> np.ndarray | None:
    """``values`` as an array if it has this shape and dtype kind, else None."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        return None
    return arr if arr.dtype.kind in kinds and arr.shape == shape else None

"""Session configuration, simulated session phases, and log serialization.

A full benchmark session mirrors the experimental procedure: a dwell
calibration over a grid, an online-augmentation phase that visits extra
targets during "gameplay", and a scripted evaluation run with saccades and
blinks. Each phase runs on its own engine with a seed derived from the
session seed, so every artifact is replayable bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .calib import CalibrationGridSpec, run_calibration
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
    _is_number,
    _is_point,
    frames_spanned,
    run_script,
)
from .kernels import MeasureSpec
from .regress import GprModel, SvrModel
from .sigproc import IirFilter, compensate, replay_exposure

CONFIG_VERSION = 2
LOG_VERSION = 4

DEFAULT_SIGMA_GRID = (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 2.0)


def derive_seed(*parts: int) -> int:
    """Stable child seed for a subsystem, derived from integer labels."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def _check_version(name: str, found, supported: int) -> None:
    """Reject files written by any other format than the one this code reads."""
    if type(found) is not int or found != supported:
        raise ConfigError(f"{name} {found!r} is not readable here (this code reads {supported})")


# What a config field of each annotated type takes: the check, and its noun.
_FIELD_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, ...]": (lambda v: isinstance(v, tuple) and all(map(_is_number, v)),
                          "a list of numbers"),
}

# The bound of each field that no object built from the config checks: the
# check, and its words.
_BOUNDS = {
    "seed": (lambda v: v >= 0, ">= 0"),  # numpy seeds are non-negative
    "subject_seed": (lambda v: v >= 0, ">= 0"),
    "noise_std": (lambda v: v >= 0, ">= 0"),
    "iir_alpha": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "variance_threshold": (lambda v: v > 0, "> 0"),
    "augment_points": (lambda v: v >= 0, ">= 0"),
    "eval_fixations": (lambda v: v >= 1, ">= 1"),
    "eval_fixation_min_ms": (lambda v: v > 0, "> 0"),
    "jitter": (lambda v: v > 0, "> 0"),
    "sigma_grid": (lambda v: v and min(v) > 0, "a non-empty list of positive numbers"),
    "task_count": (lambda v: v >= 1, ">= 1"),
    "target_radius_deg": (lambda v: v > 0, "> 0"),
    "task_window_threshold": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "remount_shift_std_mm": (lambda v: v >= 0, ">= 0"),
}


@contextmanager
def _naming(*names: str):
    """Name the config fields an object is built from in the ConfigError it raises."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"config field{'s' * (len(names) > 1)} "
                          f"{', '.join(map(repr, names))}: {exc}") from None


def dwell_frames(dwell_ms: float, cycle_us: int) -> int:
    """Frames a dwell samples; ConfigError below 2, the fewest its mean and spread need."""
    frames = frames_spanned(int(dwell_ms * 1000.0), cycle_us)
    if frames < 2:
        raise ConfigError(f"a {dwell_ms} ms dwell spans {frames} frames of {cycle_us} us, "
                          "fewer than 2")
    return frames


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
        """Check every field, then build once the objects that depend only on the config."""
        for f in fields(self):  # json.load reads NaN and Infinity tokens as floats
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"config field {f.name!r} must be finite, got {value!r}")
            takes, noun = _FIELD_KINDS[f.type]
            if not takes(value):
                raise ConfigError(f"config field {f.name!r} must be {noun}, got {value!r}")
            holds, bound = _BOUNDS.get(f.name, (None, None))
            if holds and not holds(value):
                raise ConfigError(f"config field {f.name!r} must be {bound}, got {value!r}")
        if self.estimator not in ("gpr", "svr"):
            raise ConfigError("config field 'estimator' must be 'gpr' or 'svr'")
        if self.layout_mode not in ("prototype1", "prototype2"):
            raise ConfigError("config field 'layout_mode' must be 'prototype1' or 'prototype2'")
        if not (3 <= self.task_candidates_min <= self.task_candidates_max <= 8):
            raise ConfigError("config fields 'task_candidates_min', 'task_candidates_max' "
                              "must satisfy 3 <= min <= max <= 8")
        if self.eval_fixation_min_ms > self.eval_fixation_max_ms:
            raise ConfigError("config field 'eval_fixation_min_ms' must not exceed "
                              "'eval_fixation_max_ms'")
        with _naming("display_width", "display_height", "degrees_per_pixel"):
            geometry = DisplayGeometry(self.display_width, self.display_height,
                                       self.degrees_per_pixel)
        maker = LedLayout.prototype1 if self.layout_mode == "prototype1" else LedLayout.prototype2
        with _naming("eyes", "ring_radius_mm", "eye_relief_mm"):
            layout = maker(eyes=self.eyes, ring_radius_mm=self.ring_radius_mm,
                           eye_relief_mm=self.eye_relief_mm)
        with _naming("lobe_sharpness", "signal_scale", "eyelid_level"):
            optics = OpticsModel(lobe_sharpness=self.lobe_sharpness,
                                 signal_scale=self.signal_scale, eyelid_level=self.eyelid_level)
        exposure = self.exposure_init_us
        if exposure <= 0:
            # prototype2 sums several illuminators per capture, so it needs a
            # shorter integration window to stay off the ADC ceiling
            exposure = 400.0 if self.layout_mode == "prototype1" else 100.0
        with _naming("step_us", "exposure_init_us", "exposure_min_us", "exposure_max_us"):
            sim_config = SimConfig(geom=geometry, step_us=self.step_us, iir_alpha=self.iir_alpha,
                                   exposure_init_us=exposure, exposure_min_us=self.exposure_min_us,
                                   exposure_max_us=self.exposure_max_us, optics=optics)
        if 2 * self.grid_margin >= min(self.display_width, self.display_height):
            raise ConfigError(f"config field 'grid_margin' must be less than half of "
                              f"'display_width' ({self.display_width}) and 'display_height' "
                              f"({self.display_height}), got {self.grid_margin!r}")
        with _naming("grid_rows", "grid_cols", "grid_margin"):
            grid = CalibrationGridSpec(self.grid_rows, self.grid_cols, self.grid_margin)
        with _naming("measure_kind", "minkowski_m", "rbf_sigma"):
            measure = MeasureSpec(kind=self.measure_kind, m=self.minkowski_m,
                                  sigma=self.rbf_sigma, rbf_squared=self.rbf_squared)
        for name in ("fix_duration_ms", "augment_dwell_ms", "task_dwell_ms"):
            with _naming(name, "step_us"):
                dwell_frames(getattr(self, name), sim_config.cycle_us(layout))
        # Not fields: equality, repr and to_dict see only the settings.
        vars(self).update(_geometry=geometry, _layout=layout, _sim_config=sim_config,
                          _grid=grid, _measure=measure)

    # -- the domain objects, built once in __post_init__ ---------------------

    def geometry(self) -> DisplayGeometry:
        return self._geometry

    def layout(self) -> LedLayout:
        return self._layout

    def subject(self, seed: int | None = None) -> SubjectProfile:
        return SubjectProfile.generate(
            self.subject_seed if seed is None else seed,
            channels=self.layout().total_channels,
            noise_std=self.noise_std,
        )

    def sim_config(self) -> SimConfig:
        return self._sim_config

    def grid(self) -> CalibrationGridSpec:
        return self._grid

    def measure(self) -> MeasureSpec:
        return self._measure

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
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object, not {type(d).__name__}")
        _check_version("config_version", d.get("config_version", CONFIG_VERSION), CONFIG_VERSION)
        known = {f.name for f in fields(cls)}
        unknown = [k for k in d if k not in known and k != "config_version"]
        if unknown:
            raise ConfigError(f"unknown config field{'s' * (len(unknown) > 1)} "
                              f"{', '.join(map(repr, unknown))}")
        kwargs = {k: v for k, v in d.items() if k != "config_version"}
        grid = kwargs.get("sigma_grid")
        if isinstance(grid, list) and all(map(_is_number, grid)):
            kwargs["sigma_grid"] = tuple(float(s) for s in grid)
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "SessionConfig":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON ({exc})") from None
        return cls.from_dict(d)

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
        settle = frames_spanned(settle_us, self.engine.cycle_us)
        dwell = dwell_frames(self.dwell_ms, self.engine.cycle_us)
        self.engine.run([ScriptEvent("fixation", us, target)
                         for target in targets for us in (settle_us, dwell_us)])
        _, _, proc = self.engine.take_frames()
        step = settle + dwell
        # Settle-in frames are not sampled.
        return [proc[i * step + settle:(i + 1) * step] for i in range(len(targets))]


def calibration_phase(config: SessionConfig, subject: SubjectProfile,
                      layout: LedLayout, seed: int) -> CalibrationSet:
    """Dwell over the scheduled grid and build the calibration matrix."""
    engine = EyeSimulator(layout, subject, config.sim_config(), derive_seed(seed, 21))
    source = SimulatorDwellSource(engine, config.fix_duration_ms)
    return run_calibration(source, config.grid(), config.geometry(),
                           config.variance_threshold, seed=derive_seed(seed, 22))


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

# The last line of a log: the sha256 of every byte before it.
_DIGEST_LINE = '{{"sha256": "{}", "type": "digest"}}\n'


def write_session_log(log: SessionLog, path, calibration: CalibrationSet | None = None) -> None:
    """One JSON record per line: meta, calibration, events, frames, then the digest.

    The one ``frames`` record holds the log's ``t_us`` and ``raw`` columns,
    what was measured. Its proc is not written: the reader rebuilds it from
    the raw counts through the signal chain that the meta sets
    (``_rebuilt_proc``). Its gaze and target follow from the meta's
    ``start_target`` and the target_move events, in a ``SessionLog`` in
    memory as on disk. The last line is a ``digest`` record holding the
    sha256 of every line before it.

    A log that the reader would refuse, or that the file cannot hold
    faithfully, raises ConfigError before the file is opened: frame columns
    that ``_frame_columns`` refuses, naming the frame; a non-finite number
    in the meta, calibration or an event record, or an event that cannot be
    scored, naming the record's line; a meta whose capture cycle or chain
    settings are missing or out of range; and a proc other than the one the
    reader rebuilds, down to a zero's sign, naming the first frame that
    differs.
    """
    try:
        _frame_columns(log.t_us, log.raw)
    except ConfigError as exc:
        raise ConfigError(f"cannot write session log {path}: {exc}") from None
    lines = [_line(path, n, rec) for n, rec in enumerate(_records(log, calibration), 1)]
    fault = _event_fault(log.events)
    if fault:
        event, problem = fault
        line = len(lines) - len(log.events) + event  # the frames record follows the events
        raise ConfigError(f"cannot write session log {path}: line {line}, {problem}")
    _check_proc(path, log)
    data = "".join(lines).encode()
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(_DIGEST_LINE.format(hashlib.sha256(data).hexdigest()).encode())


def _records(log: SessionLog, calibration: CalibrationSet | None):
    """The log's records before its digest; their values are JSON-native already."""
    yield {"type": "meta", "log_version": LOG_VERSION, **log.meta}
    if calibration is not None:
        yield {"type": "calibration", **calibration.to_dict()}
    for ev in log.events:
        yield {"type": "event", **ev}
    yield {"type": "frames", "t_us": log.t_us.tolist(), "raw": log.raw.tolist()}


def _line(path, line: int, rec: dict) -> str:
    try:
        return json.dumps(rec, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or an infinity
        raise ConfigError(f"cannot write session log {path}: line {line}, the {rec['type']} "
                          f"record, holds a value JSON cannot express ({exc})") from None


def _frame_columns(t_us, raw) -> tuple[np.ndarray, np.ndarray]:
    """A log's frame columns as integer arrays; ConfigError names the first frame at fault.

    The one check of the frame columns, for the writer and the reader alike:
    the columns are a ``SessionLog``'s arrays, or the lists of a frames
    record. ``t_us`` holds an integer per frame, each greater than the
    previous frame's. ``raw`` holds a row per frame of as many integer
    counts as the first row, at least one, each within [0, ADC_MAX]. A
    float is not an integer, since converting it would truncate it; nor is
    a JSON true or false, which numpy would read as 1 or 0.
    """
    t = _integers(t_us)
    if t is None or t.ndim != 1:
        raise _row_fault(t_us, "t_us", _is_int64, "an integer")
    if not t.size:
        raise ConfigError("the log holds no frames")
    counts = _integers(raw)
    if counts is None or counts.ndim != 2 or not counts.shape[1]:
        rows = raw.tolist() if isinstance(raw, np.ndarray) else raw
        m = len(rows[0]) if isinstance(rows, list) and rows and isinstance(rows[0], list) else 0
        raise _row_fault(rows, "raw", lambda row: (type(row) is list and len(row) == m > 0
                                                   and all(map(_is_int64, row))),
                         f"a list of {m} integers" if m else "a non-empty list of integers")
    n = min(len(t), len(counts))
    if len(t) != len(counts):
        has, lacks = ("t_us", "raw") if len(t) > n else ("raw", "t_us")
        raise ConfigError(f"frame {n} has {has!r} but no {lacks!r}")
    bad = np.flatnonzero(((counts < 0) | (counts > ADC_MAX)).any(axis=1))
    if bad.size:
        raise ConfigError(f"frame {bad[0]} has a raw count outside [0, {ADC_MAX}]")
    bad = np.flatnonzero(t[1:] <= t[:-1])
    if bad.size:
        raise ConfigError(f"frame {bad[0] + 1} has a t_us not greater than the previous frame's")
    return t, counts


def _integers(values) -> np.ndarray | None:
    """``values`` as an array if it holds only integers, else None.

    Rows of unequal length are not an array, and a JSON true or false in a
    list is not an integer, though numpy would read it as one.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # rows of unequal length
        return None
    if arr.dtype.kind != "i" and arr.size:  # an empty list holds no other value
        return None
    if isinstance(values, list):
        flat = itertools.chain.from_iterable(values) if arr.ndim == 2 else values
        if bool in set(map(type, flat)):
            return None
    return arr


def _is_int64(value) -> bool:
    """Whether ``value`` is an integer, not a bool, that fits an int64."""
    return type(value) is int and -2**63 <= value < 2**63


def _row_fault(rows, name: str, fits, what: str) -> ConfigError:
    """The error naming the first row of the frame column ``rows`` that ``fits`` refuses."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    if not isinstance(rows, list):
        return ConfigError(f"{name!r} is not a list")
    # Every row fits only when the dtype is at fault (an unsigned array): name the first frame.
    frame = next((i for i, row in enumerate(rows) if not fits(row)), 0)
    return ConfigError(f"frame {frame} has a {name!r} that is not {what}")


def _check_proc(path, log: SessionLog) -> None:
    """Raise ConfigError unless reading the log back gives its proc."""
    try:
        rebuilt = _rebuilt_proc(log.raw, log.meta)
    except ConfigError as exc:
        raise ConfigError(f"cannot write session log {path}: {exc}") from None
    chain = "raw counts give through the meta's signal chain"
    if np.shape(log.proc) != rebuilt.shape:
        raise ConfigError(f"cannot write session log {path}: its proc has shape "
                          f"{np.shape(log.proc)}, its {chain} {rebuilt.shape}")
    # The signs as well: a 0.0 where the reader gives -0.0 would read back as -0.0.
    bad = (log.proc != rebuilt) | (np.signbit(log.proc) != np.signbit(rebuilt))
    bad = np.flatnonzero(bad.any(axis=1))
    if bad.size:
        raise ConfigError(f"cannot write session log {path}: frame {bad[0]} holds a proc row "
                          f"other than the one its {chain}")


def _rebuilt_proc(raw: np.ndarray, meta: dict) -> np.ndarray:
    """The processed vectors of a log's raw counts: the chain ``EyeSimulator.run`` applies.

    Exposures replayed from the initial one, compensation, then one fresh IIR
    pass, with the settings in the meta. A setting that is missing, not a
    finite number or out of range raises ConfigError naming it. So does a
    meta whose ``cycle_us`` (the capture cycle, which the reports' exclusion
    pad needs) is not a positive integer: the writer and the reader both
    come here.
    """
    cycle = meta.get("cycle_us")
    if type(cycle) is not int or cycle <= 0:  # rejects bool too
        raise ConfigError(f"meta field 'cycle_us' is not a positive integer: {cycle!r}")
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


def read_session_log(path):
    """Inverse of write_session_log; returns (log, calibration-or-None).

    The proc is rebuilt from the raw counts through the signal chain that
    the meta record sets (``_rebuilt_proc``); the gaze and target follow
    from the meta's ``start_target`` and the target_move events
    (``SessionLog``). A log of any other ``log_version`` than LOG_VERSION
    raises ConfigError naming the version.

    A malformed log raises ConfigError naming the file and line: invalid
    JSON (a truncated write, or a NaN or Infinity token in any record), a
    record with no type, a second frames record, a frames record missing a
    column or holding one that ``_frame_columns`` refuses (the message
    names the frame, its index in the columns), an event that cannot be
    scored (``_event_problem``), and a meta record whose cycle_us is not a
    positive integer, whose signal chain settings are missing or out of
    range, or whose start_target is not a pair of finite numbers. Records
    of unknown type are skipped. The file is read once. Once every line has
    passed, a log whose last line is not a digest of the bytes before it
    raises ConfigError: it was cut short, or changed after it was written.
    """
    data = Path(path).read_bytes()
    meta: dict = {}
    meta_line = frames_line = None
    frames: dict = {}
    events: list[dict] = []
    event_lines: list[int] = []
    cal = None
    # A byte that is not UTF-8 reads as U+FFFD: the line then fails as JSON,
    # or the log against its digest, each a ConfigError.
    for n, line in enumerate(data.decode(errors="replace").split("\n"), 1):
        if not line.strip():
            continue
        try:
            rec = _DECODER.decode(line)
        except ValueError as exc:
            raise _malformed(path, n, f"invalid JSON ({exc})") from None
        kind = rec.pop("type", None) if isinstance(rec, dict) else None
        if kind == "frames":
            if frames_line is not None:
                raise _malformed(path, n, f"a second frames record, after line {frames_line}")
            frames, frames_line = rec, n
        elif kind == "event":
            events.append(rec)
            event_lines.append(n)
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
    fault = _event_fault(events)
    if fault:
        raise _malformed(path, event_lines[fault[0]], fault[1])
    if frames_line is None:
        raise ConfigError(f"no frames found in session log {path}")
    try:
        columns = frames["t_us"], frames["raw"]
    except KeyError as exc:
        raise _malformed(path, frames_line, f"frames record has no {exc} field") from None
    try:
        t_us, raw = _frame_columns(*columns)
    except ConfigError as exc:
        raise _malformed(path, frames_line, str(exc)) from None
    if meta_line is None:
        raise ConfigError(f"no meta record found in session log {path}")
    try:
        log = SessionLog(t_us, raw, _rebuilt_proc(raw, meta), events, meta)
    except ConfigError as exc:
        raise _malformed(path, meta_line, str(exc)) from None
    _check_digest(path, data)
    return log, cal


def _check_digest(path, data: bytes) -> None:
    """Raise ConfigError unless the log's last line is the digest of every byte before it."""
    end = data.rstrip()
    cut = end.rfind(b"\n") + 1
    try:
        trailer = json.loads(end[cut:])
    except ValueError:
        trailer = None
    if not (isinstance(trailer, dict) and trailer.get("type") == "digest"):
        raise ConfigError(f"session log {path} does not end with its digest record: "
                          "it was cut short")
    if trailer.get("sha256") != hashlib.sha256(data[:cut]).hexdigest():
        raise ConfigError(f"session log {path} does not match its digest: it was changed "
                          "after it was written")


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


def _event_fault(events: list[dict]) -> tuple[int, str] | None:
    """The first event that cannot be scored, as (its index, why), or None."""
    last_move = None
    for i, ev in enumerate(events):
        problem = _event_problem(ev, last_move)
        if problem:
            return i, problem
        if ev["kind"] == "target_move":
            last_move = ev
    return None


def _event_problem(ev: dict, last_move: dict | None) -> str | None:
    """Why an event record cannot be scored after the target_move ``last_move``, or None.

    A target_move's target and gaze are scoring data (``eyesim.gaze_target``):
    it must hold ``from`` and ``to`` as screen points, settle at or after it
    moves, and move at or after the move before it settled.
    """
    kind = ev.get("kind")
    if kind not in _EVENT_TIMES:
        return f"unknown event kind {kind!r}"
    missing = [f for f in _EVENT_TIMES[kind] if type(ev.get(f)) is not int]  # rejects bool too
    if missing:
        return f"{kind} event has no integer {', '.join(missing)}"
    if kind == "blink":
        return None
    settle = ev.get("t_settle_us", "absent")
    if type(settle) not in (int, type(None)):
        return "target_move event t_settle_us is neither an integer nor null"
    for f in ("from", "to"):
        if not _is_point(ev.get(f)):
            return f"target_move event {f!r} is not a pair of finite numbers"
    if settle is not None and settle < ev["t_move_us"]:
        return "target_move event t_settle_us is before its t_move_us"
    if last_move is not None and (last_move["t_settle_us"] is None
                                  or last_move["t_settle_us"] > ev["t_move_us"]):
        return (f"target_move event t_move_us {ev['t_move_us']} is before the previous move "
                f"settled (t_settle_us {json.dumps(last_move['t_settle_us'])})")
    return None

"""Session configuration, simulated session phases, and log serialization.

A full benchmark session mirrors the experimental procedure: a dwell
calibration over a grid, an online-augmentation phase that visits extra
targets during "gameplay", and a scripted evaluation run with saccades and
blinks. Each phase runs on its own engine with a seed derived from the
session seed, so every artifact is replayable bit for bit.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .calib import CalibrationGridSpec, run_calibration
from .core import CalibrationSet, ConfigError, DisplayGeometry, ScreenPoint, _is_finite
from .eyesim import (
    EyeSimulator,
    GazeScript,
    LedLayout,
    OpticsModel,
    ScriptEvent,
    SessionLog,
    SimConfig,
    SubjectProfile,
    _event_fault,
    _is_point,
    frames_spanned,
    run_script,
)
from .kernels import MeasureSpec
from .regress import GprModel, SvrModel
from .sigproc import SignalChain

CONFIG_VERSION = 2
LOG_VERSION = 5

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
    "float": (_is_finite, "a number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, ...]": (lambda v: isinstance(v, tuple) and all(map(_is_finite, v)),
                          "a list of numbers"),
}

# The bound of each field that no object built from the config checks: the
# check, and its words.
_BOUNDS = {
    "seed": (lambda v: v >= 0, ">= 0"),  # numpy seeds are non-negative
    "subject_seed": (lambda v: v >= 0, ">= 0"),
    "noise_std": (lambda v: v >= 0, ">= 0"),
    "variance_threshold": (lambda v: v > 0, "> 0"),
    "augment_points": (lambda v: v >= 0, ">= 0"),
    "eval_fixations": (lambda v: v >= 1, ">= 1"),
    "eval_fixation_min_ms": (lambda v: v > 0, "> 0"),
    "jitter": (lambda v: v > 0, "> 0"),
    "sigma_grid": (lambda v: v and min(v) > 0, "a non-empty list of positive numbers"),
    "task_count": (lambda v: v >= 2, ">= 2"),  # scenarios score each half of the tasks
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
        if exposure == 0:
            # prototype2 sums several illuminators per capture, so it needs a
            # shorter integration window to stay off the ADC ceiling
            exposure = 400.0 if self.layout_mode == "prototype1" else 100.0
        with _naming("step_us", "iir_alpha", "exposure_init_us", "exposure_min_us", "exposure_max_us"):
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
        if isinstance(grid, list) and all(isinstance(s, float) or _is_finite(s) for s in grid):
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
    """Visit random gameplay targets, appending each dwell mean as training.

    The grown set is built once, its new rows in visiting order.
    """
    engine = EyeSimulator(layout, subject, config.sim_config(), derive_seed(seed, 31))
    source = SimulatorDwellSource(engine, config.augment_dwell_ms)
    rng = np.random.default_rng(np.random.SeedSequence([derive_seed(seed, 32)]))
    geom = config.geometry()
    m = config.grid_margin
    targets = [ScreenPoint(float(rng.uniform(m, geom.width - m)),
                           float(rng.uniform(m, geom.height - m)))
               for _ in range(config.augment_points)]
    means = [samples.mean(axis=0) for samples in source.acquire(targets)]
    return CalibrationSet(np.vstack([calibration.means, *means]),
                          np.vstack([calibration.targets, *([t.x, t.y] for t in targets)]))


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
    what was measured, each as the base64 text of its little-endian
    integers (``_FRAME_DTYPES``). Its proc is not written: the reader
    rebuilds it from the raw counts through the signal chain that the meta
    sets (``_rebuilt_proc``). Its gaze and target follow from the meta's
    ``start_target`` and the target_move events, in a ``SessionLog`` in
    memory as on disk. The last line is a ``digest`` record holding the
    sha256 of every line before it.

    A log that the reader would refuse, or that the file cannot hold
    faithfully, raises ConfigError before the file is opened: a log of no
    frames (a ``SessionLog`` checks its columns and events when it is built,
    ``eyesim._frame_columns`` and ``_event_fault``); a non-finite number in
    the meta, calibration or an event record, naming the record's line; a
    meta whose capture cycle or chain settings are missing or out of range;
    and a proc other than the one the reader rebuilds, down to a zero's
    sign, naming the first frame that differs.
    """
    if not log.n_frames:
        raise ConfigError(f"cannot write session log {path}: the log holds no frames")
    lines = [_line(path, n, rec) for n, rec in enumerate(_records(log, calibration), 1)]
    _check_proc(path, log)
    data = "".join(lines).encode()
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(_DIGEST_LINE.format(hashlib.sha256(data).hexdigest()).encode())


# The dtype each frame column is packed in: int64 times, and uint16 counts,
# which hold every count in [0, ADC_MAX].
_FRAME_DTYPES = {"t_us": np.dtype("<i8"), "raw": np.dtype("<u2")}


def _records(log: SessionLog, calibration: CalibrationSet | None):
    """The log's records before its digest; their values are JSON-native already."""
    yield {"type": "meta", "log_version": LOG_VERSION, **log.meta}
    if calibration is not None:
        yield {"type": "calibration", **calibration.to_dict()}
    for ev in log.events:
        yield {"type": "event", **ev}
    yield {"type": "frames", **{
        name: base64.b64encode(np.ascontiguousarray(getattr(log, name), dtype)).decode()
        for name, dtype in _FRAME_DTYPES.items()}}


def _line(path, line: int, rec: dict) -> str:
    try:
        return json.dumps(rec, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or an infinity
        raise ConfigError(f"cannot write session log {path}: line {line}, the {rec['type']} "
                          f"record, holds a value JSON cannot express ({exc})") from None


def _unpacked(frames: dict) -> tuple[np.ndarray, np.ndarray]:
    """A frames record's ``t_us`` and ``raw`` columns, as int64 arrays.

    ConfigError if a column is missing, not a string or not base64, if the
    ``t_us`` bytes are not 8 per frame or hold no frame, or if the raw counts
    are not a whole number of rows, one per frame. The columns are not
    checked further.
    """
    data = {}
    for name in _FRAME_DTYPES:
        text = frames.get(name)
        if not isinstance(text, str):
            raise ConfigError(f"frames record has no {name!r} field" if name not in frames else
                              f"frames record's {name!r} is not a string")
        try:
            data[name] = base64.b64decode(text, validate=True)
        except binascii.Error as exc:
            raise ConfigError(f"frames record's {name!r} is not base64 ({exc})") from None
    n, extra = divmod(len(data["t_us"]), 8)
    if extra:
        raise ConfigError(f"'t_us' holds {len(data['t_us'])} bytes, not 8 per frame")
    if not n:
        raise ConfigError("the log holds no frames")
    m = len(data["raw"]) // (2 * n)
    if len(data["raw"]) != 2 * n * m:
        raise ConfigError(f"'raw' holds {len(data['raw'])} bytes, not a whole number of rows "
                          f"of 2-byte counts over {n} frames")
    t_us, raw = (np.frombuffer(data[name], dtype).astype(np.int64)
                 for name, dtype in _FRAME_DTYPES.items())
    return t_us, raw.reshape(n, m)


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

    A fresh ``SignalChain`` of the meta's settings replays the exposures
    (``SignalChain.replay``); a setting it refuses raises ConfigError naming
    the meta field. So does a ``cycle_us`` (the capture cycle, which the
    reports' exclusion pad needs) that is not a positive integer.
    """
    cycle = meta.get("cycle_us")
    if type(cycle) is not int or cycle <= 0:  # rejects bool too
        raise ConfigError(f"meta field 'cycle_us' is not a positive integer: {cycle!r}")
    optics = meta["optics"] if isinstance(meta.get("optics"), dict) else {}
    try:
        chain = SignalChain(*map(meta.get, ("exposure_init_us", "exposure_min_us", "exposure_max_us")),
                            optics.get("reference_exposure_us"), meta.get("iir_alpha"))
    except ConfigError as exc:  # the meta keeps the reference exposure in its optics
        raise ConfigError("meta field " + str(exc).replace("'reference_exposure_us'",
                                                           "'optics.reference_exposure_us'", 1)) from None
    return chain.replay(raw)


def read_session_log(path):
    """Inverse of write_session_log; returns (log, calibration-or-None).

    The proc is rebuilt from the raw counts through the signal chain that
    the meta record sets (``_rebuilt_proc``); the gaze and target follow
    from the meta's ``start_target`` and the target_move events
    (``SessionLog``). A log of any other ``log_version`` than LOG_VERSION
    raises ConfigError naming the version.

    A malformed log raises ConfigError naming the file and line: invalid
    JSON (a truncated write, or a NaN or Infinity token in any record), a
    record with no type, a second meta, calibration or frames record, a
    frames record that ``_unpacked`` refuses, and a meta record whose
    cycle_us is not a positive integer or whose chain settings are missing
    or out of range. The ``SessionLog`` is built once; if it is refused,
    the event rule runs again to name the line of an event that cannot be
    scored (``_event_fault``), else the meta line for a start_target that
    is not a pair of finite numbers, or the frames line and the frame's
    index for a column fault (``_frame_columns``). Records of unknown type
    are skipped. The file is read once. Once every line has passed, a log
    whose last line is not a digest of the bytes before it raises
    ConfigError: it was cut short, or changed after it was written.
    """
    data = Path(path).read_bytes()
    once: dict[str, tuple[int, dict]] = {}  # the line and record of each kind a log holds once
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
        if kind == "event":
            events.append(rec)
            event_lines.append(n)
        elif kind in ("meta", "calibration", "frames"):
            if kind in once:
                raise _malformed(path, n, f"a second {kind} record, after line {once[kind][0]}")
            once[kind] = n, rec
            if kind == "meta":
                _check_version("log_version", rec.pop("log_version", LOG_VERSION), LOG_VERSION)
            elif kind == "calibration":
                try:
                    cal = CalibrationSet.from_dict(rec)
                except (KeyError, TypeError, ValueError) as exc:
                    raise _malformed(path, n, f"bad calibration ({exc})") from None
        elif kind is None:
            raise _malformed(path, n, "record has no type")
    if "frames" not in once:
        raise ConfigError(f"no frames found in session log {path}")
    if "meta" not in once:
        raise ConfigError(f"no meta record found in session log {path}")
    (frames_line, frames), (meta_line, meta) = once["frames"], once["meta"]
    n = frames_line  # the line of the record that each check below reads
    try:
        t_us, raw = _unpacked(frames)
        # A SessionLog checks its start_target, its frame columns, then its events.
        n = frames_line if _is_point(meta.get("start_target")) else meta_line
        log = SessionLog(t_us, raw, None, events, meta)
    except ConfigError as exc:
        fault = _event_fault(events)  # an event's fault is named by the event's line
        line, problem = (event_lines[fault[0]], fault[1]) if fault else (n, str(exc))
        raise _malformed(path, line, problem) from None
    try:
        log.proc = _rebuilt_proc(raw, meta)
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

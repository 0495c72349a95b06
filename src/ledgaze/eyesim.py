"""Deterministic synthetic eye/LED-ring stand-in for the tracker hardware.

Generates per-LED readings from ground-truth gaze using a cosine-lobe
specular reflectance proxy: the eye is a sphere whose front pole (the
"cornea") mirrors light from each illuminating LED toward each sensing LED,
with the lobe falling off smoothly as the reflected ray misses the sensor.
This is not glint physics; it only has to be a smooth, subject-dependent,
gaze-dependent channel response so the estimation pipeline has something
honest to regress against. All magnitudes are simulator parameters, recorded
in output metadata, not claims about hardware.

Also provides gaze-behavior scripting (fixations, saccades with reaction-time
lag, blinks) and the session engine that simulates a timeline of script
events in one pass through the signal-processing chain and logs everything
needed for evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import ADC_MAX, ConfigError, DisplayGeometry, ScreenPoint, _is_finite
from .sigproc import SignalChain, _exposure_levels

# Seed-stream discriminators so subsystems never share a generator.
_STREAM_NOISE = 101
_STREAM_SRT = 102

# Rows per slice of a block's final readings pass; keeps its temporaries in cache.
_READ_ROWS = 1024

_BLINK_US = 150_000  # length of each blink a random script inserts


@dataclass(frozen=True)
class OpticsModel:
    """Simulator optics constants (artifact parameters, not hardware claims)."""

    lobe_sharpness: float = 1.5       # cosine-lobe exponent; higher = peakier
    signal_scale: float = 0.65        # maps summed lobe response to ADC fraction
    eyelid_level: float = 0.85        # normalized signal of a closed eyelid
    reference_exposure_us: float = 400.0
    blink_ramp_ms: float = 50.0       # eyelid close/open ramp duration

    def __post_init__(self):
        if not self.lobe_sharpness > 0:
            raise ConfigError(f"lobe sharpness must be positive, got {self.lobe_sharpness!r}")
        if not self.signal_scale > 0:
            raise ConfigError(f"signal scale must be positive, got {self.signal_scale!r}")
        if not 0 <= self.eyelid_level <= 1:
            raise ConfigError(f"eyelid level must be in [0, 1], got {self.eyelid_level!r}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LedLayout:
    """Ring of LEDs around each magnifier lens, and one eye's capture cycle.

    ``steps`` is the capture cycle: each step is (sensing LED, frozenset of
    illuminating LEDs), every LED named by its ring position, and the
    frame's channel order is the order of the sensing LEDs in the cycle.
    ``shift_mm`` is a rigid headset translation applied to every LED; a
    remount is a layout with it set.
    """

    mode: str
    ring_angles_deg: tuple[float, ...]
    steps: tuple[tuple[int, frozenset[int]], ...]
    ring_radius_mm: float = 16.0
    eye_relief_mm: float = 27.0
    eyes: int = 2
    shift_mm: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        ring = range(len(self.ring_angles_deg))
        if len(set(self.ring_angles_deg)) != len(ring):
            raise ConfigError("ring positions must be distinct")
        if self.eyes not in (1, 2):
            raise ConfigError("eyes must be 1 or 2")
        if not self.steps:
            raise ConfigError("the capture cycle needs at least one step")
        if len(set(self.sensing_indices)) != len(self.steps):
            raise ConfigError("a sensing LED repeats within one cycle")
        for led, illum in self.steps:
            if led in illum:
                raise ConfigError(f"LED {led} cannot sense and illuminate in the same step")
            if any(i not in ring for i in (led, *illum)):
                raise ConfigError(f"a capture step names an LED off the {len(ring)}-position ring")
        if self.ring_radius_mm <= 0 or self.eye_relief_mm <= 0:
            raise ConfigError("ring radius and eye relief must be positive")

    @classmethod
    def prototype1(cls, eyes: int = 2, **kw) -> "LedLayout":
        """Nine LEDs in sense/sense/illuminate triplets; each illuminator lights its pair."""
        angles = tuple(i * 40.0 for i in range(9))
        steps = tuple((base + k, frozenset({base + 2})) for base in (0, 3, 6) for k in (0, 1))
        return cls("prototype1", angles, steps, eyes=eyes, **kw)

    @classmethod
    def prototype2(cls, eyes: int = 2, **kw) -> "LedLayout":
        """Six dual-role LEDs: each senses once per cycle while the other five illuminate."""
        angles = tuple(i * 60.0 for i in range(6))
        ring = frozenset(range(6))
        steps = tuple((i, ring - {i}) for i in range(6))
        return cls("prototype2", angles, steps, eyes=eyes, **kw)

    @property
    def sensing_indices(self) -> tuple[int, ...]:
        return tuple(led for led, _ in self.steps)

    @property
    def channels_per_eye(self) -> int:
        return len(self.steps)

    @property
    def total_channels(self) -> int:
        return self.eyes * self.channels_per_eye

    def led_positions(self, eye: int) -> np.ndarray:
        """(L, 3) LED coordinates in the given eye's local frame, mm.

        The second eye's frame is the first mirrored in x, so the shared
        headset shift flips its x component there.
        """
        mx = 1.0 if eye == 0 else -1.0
        ang = np.radians(np.asarray(self.ring_angles_deg, dtype=float))
        x = mx * (self.ring_radius_mm * np.cos(ang) + self.shift_mm[0])
        y = self.ring_radius_mm * np.sin(ang) + self.shift_mm[1]
        z = np.full_like(x, self.eye_relief_mm)
        return np.stack([x, y, z], axis=1)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "ring_radius_mm": self.ring_radius_mm,
            "eye_relief_mm": self.eye_relief_mm,
            "eyes": self.eyes,
            "shift_mm": list(self.shift_mm),
        }


@dataclass(frozen=True)
class SubjectProfile:
    """Synthetic-subject parameters driving the reflectance model."""

    eye_center_offset_mm: tuple[float, float] = (0.0, 0.0)
    second_eye_asym_mm: tuple[float, float] = (0.0, 0.0)
    eye_radius_mm: float = 12.0
    corneal_gain: tuple[float, ...] = (1.0,) * 12
    noise_std: float = 0.01
    srt_mean_ms: float = 200.0
    srt_std_ms: float = 20.0
    blink_rate_per_min: float = 12.0
    seed: int = 0

    def __post_init__(self):
        if any(g <= 0 for g in self.corneal_gain):
            raise ConfigError("corneal gains must be positive")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")
        if self.srt_mean_ms <= 0:
            raise ConfigError("srt_mean_ms must be positive")
        if self.eye_radius_mm <= 0:
            raise ConfigError("eye radius must be positive")

    @classmethod
    def generate(cls, seed: int, channels: int = 12, noise_std: float = 0.01) -> "SubjectProfile":
        """Draw a plausible subject; deterministic for a fixed seed."""
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7]))
        offset = tuple(np.clip(rng.normal(0.0, 2.5, 2), -5.0, 5.0))
        asym = tuple(rng.normal(0.0, 0.8, 2))
        radius = float(np.clip(rng.normal(12.0, 1.0), 9.5, 14.5))
        gains = tuple(rng.uniform(0.6, 1.4, channels))
        srt_mean = float(np.clip(rng.normal(200.0, 30.0), 120.0, 320.0))
        blink_rate = float(np.clip(rng.normal(12.0, 4.0), 4.0, 28.0))
        return cls(
            eye_center_offset_mm=(float(offset[0]), float(offset[1])),
            second_eye_asym_mm=(float(asym[0]), float(asym[1])),
            eye_radius_mm=radius,
            corneal_gain=tuple(float(g) for g in gains),
            noise_std=float(noise_std),
            srt_mean_ms=srt_mean,
            srt_std_ms=20.0,
            blink_rate_per_min=blink_rate,
            seed=int(seed),
        )

    def eye_center(self, eye: int) -> tuple[float, float]:
        ox, oy = self.eye_center_offset_mm
        if eye == 0:
            return ox, oy
        ax, ay = self.second_eye_asym_mm
        return -ox + ax, oy + ay

    def as_dict(self) -> dict:
        """The profile with its tuples as lists, as a session log's meta reads back."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class ScriptEvent:
    kind: str  # "fixation" | "saccade" | "blink"
    duration_us: int = 0
    target: ScreenPoint | None = None


@dataclass(frozen=True)
class GazeScript:
    """Timeline of non-overlapping gaze-behavior events."""

    events: tuple[ScriptEvent, ...]

    def __post_init__(self):
        if not self.events:
            raise ConfigError("script must contain at least one event")
        for ev in self.events:
            if ev.kind == "fixation":
                if ev.target is None or ev.duration_us <= 0:
                    raise ConfigError("fixation needs a target and positive duration")
            elif ev.kind == "saccade":
                if ev.target is None or ev.duration_us != 0:
                    raise ConfigError("saccade is a zero-duration target change")
            elif ev.kind == "blink":
                if ev.duration_us <= 0:
                    raise ConfigError("blink needs a positive duration")
            else:
                raise ConfigError(f"unknown script event {ev.kind!r}")

    @property
    def duration_us(self) -> int:
        return sum(ev.duration_us for ev in self.events)

    @staticmethod
    def fixations(points, each_us: int) -> "GazeScript":
        return GazeScript(tuple(ScriptEvent("fixation", int(each_us), p) for p in points))

    @staticmethod
    def random(rng: np.random.Generator, geom: DisplayGeometry, margin: int,
               n_fixations: int, fixation_us: tuple[int, int],
               blink_rate_per_min: float) -> "GazeScript":
        """Random fixation sequence with rate-matched blinks in between."""
        events: list[ScriptEvent] = []
        lo, hi = fixation_us
        mean_fix_s = (lo + hi) / 2e6
        p_blink = min(0.9, blink_rate_per_min * mean_fix_s / 60.0)
        for i in range(n_fixations):
            x = rng.uniform(margin, geom.width - margin)
            y = rng.uniform(margin, geom.height - margin)
            dur = int(rng.integers(lo, hi + 1))
            events.append(ScriptEvent("fixation", dur, ScreenPoint(float(x), float(y))))
            if i < n_fixations - 1 and rng.random() < p_blink:
                events.append(ScriptEvent("blink", _BLINK_US))
        return GazeScript(tuple(events))


@dataclass(frozen=True)
class SimConfig:
    """Session-level simulator and signal-chain configuration."""

    geom: DisplayGeometry
    step_us: int = 1666
    iir_alpha: float = 0.3
    exposure_init_us: float = 400.0
    exposure_min_us: float = 25.0
    exposure_max_us: float = 1600.0
    optics: OpticsModel = OpticsModel()

    def __post_init__(self):
        if self.step_us <= 0:
            raise ConfigError("step_us must be positive")
        self.chain()

    def chain(self) -> SignalChain:
        """A fresh signal chain of these settings; ConfigError names one out of range."""
        return SignalChain(self.exposure_init_us, self.exposure_min_us, self.exposure_max_us,
                           self.optics.reference_exposure_us, self.iir_alpha)

    def cycle_us(self, layout: LedLayout) -> int:
        # Both eyes' chains run in parallel, one microcontroller each.
        return self.step_us * layout.channels_per_eye


def frames_spanned(duration_us: int, cycle_us: int) -> int:
    """Frames an event of the given duration spans on a capture cycle of ``cycle_us``."""
    return int(round(duration_us / cycle_us))


def _is_point(value) -> bool:
    """Whether a record's value is a screen point: a list or tuple of two finite numbers."""
    return type(value) in (list, tuple) and len(value) == 2 and all(map(_is_finite, value))


# The integer times each event kind must hold; a target_move also holds
# t_settle_us, never absent: an integer, or null if not settled when the log ends.
_EVENT_TIMES = {"blink": ("t0_us", "t1_us"), "target_move": ("t_move_us",)}


def _event_fault(events: Sequence[Mapping]) -> tuple[int, str] | None:
    """The first event that cannot be scored, as (its index, why), or None."""
    last_move = None
    for i, ev in enumerate(events):
        problem = _event_problem(ev, last_move)
        if problem:
            return i, problem
        if ev["kind"] == "target_move":
            last_move = ev
    return None


def _event_problem(ev: Mapping, last_move: Mapping | None) -> str | None:
    """Why an event record cannot be scored after the target_move ``last_move``, or None.

    A blink must end at or after it starts. A target_move's target and gaze
    are scoring data (``gaze_target``): it must hold ``from`` and ``to`` as
    screen points, settle at or after it moves, and move at or after the
    move before it settled.
    """
    kind = ev.get("kind")
    if kind not in _EVENT_TIMES:
        return f"unknown event kind {kind!r}"
    missing = [f for f in _EVENT_TIMES[kind] if type(ev.get(f)) is not int]  # rejects bool too
    if missing:
        return f"{kind} event has no integer {', '.join(missing)}"
    if kind == "blink":
        return "blink event t1_us is before its t0_us" if ev["t1_us"] < ev["t0_us"] else None
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


def gaze_target(t_us: np.ndarray, events: Sequence[Mapping], start) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's gaze and stimulus target, (n, 2) each: the session timeline's rule.

    Both start at ``start``. The target takes a move's ``to`` from the first
    frame at or after its t_move_us, the gaze from the first frame at or
    after its t_settle_us. A move that the next one superseded before the
    eye switched has its t_settle_us at that move's t_move_us
    (``EyeSimulator._move``): the eye never went to its target, so the gaze
    stays where it was. A move not settled yet (t_settle_us null) moves no
    gaze. Scorable events keep both kinds of switch times in order.
    """
    moves = [ev for ev in events if ev["kind"] == "target_move"]
    # Row 0 is the start; row i is the i-th move's target.
    points = np.array([start, *(ev["to"] for ev in moves)], dtype=float)
    settles, rows = [], [0]
    for i, ev in enumerate(moves, 1):
        settle = ev["t_settle_us"]
        if settle is not None and (i == len(moves) or settle != moves[i]["t_move_us"]):
            settles.append(settle)
            rows.append(i)
    # np.take, because indexing a 2-D array with an index array costs about ten times more.
    gaze = np.take(points[rows], np.searchsorted(settles, t_us, side="right"), axis=0)
    target = np.take(points, np.searchsorted([ev["t_move_us"] for ev in moves], t_us, side="right"),
                     axis=0)
    return gaze, target


def _frame_columns(t_us: np.ndarray, raw: np.ndarray) -> None:
    """Raise ConfigError unless the arrays can be a log's frame columns.

    The one check of the frame columns, run on every ``SessionLog``. Both
    are of a signed integer dtype (an unsigned ``t_us`` could wrap in
    int64). ``t_us`` holds a time per frame, each greater than the previous
    frame's; ``raw`` a row per frame of at least one count, each within [0,
    ADC_MAX]. A fault in one frame is named by its index. Columns of no
    frames pass; the log codec refuses them.
    """
    for name, column, ndim in (("t_us", t_us, 1), ("raw", raw, 2)):
        if column.dtype.kind != "i":
            raise ConfigError(f"{name!r} is of dtype {column.dtype}, not a signed integer")
        if column.ndim != ndim:
            raise ConfigError(f"{name!r} has {column.ndim} dimensions, not {ndim}")
    n = min(len(t_us), len(raw))
    if len(t_us) != len(raw):
        has, lacks = ("t_us", "raw") if len(t_us) > n else ("raw", "t_us")
        raise ConfigError(f"frame {n} has {has!r} but no {lacks!r}")
    if not raw.shape[1]:
        raise ConfigError("the log's frames hold no raw counts")
    bad = np.flatnonzero((raw < 0) | (raw > ADC_MAX))  # row-major: count k is in frame k // m
    if bad.size:
        raise ConfigError(f"frame {bad[0] // raw.shape[1]} has a raw count outside [0, {ADC_MAX}]")
    bad = np.flatnonzero(t_us[1:] <= t_us[:-1])
    if bad.size:
        raise ConfigError(f"frame {bad[0] + 1} has a t_us not greater than the previous frame's")


@dataclass
class SessionLog:
    """Complete record of one simulated run, column-oriented for speed.

    ``t_us`` and ``raw`` are checked when the log is built
    (``_frame_columns``), so every log has ordered frames and counts in
    range, and so are the events (``_event_fault``, the one check of
    events: ConfigError names the first unscorable one). The checked events
    are kept as a tuple of read-only copies, a target_move's ``from`` and
    ``to`` as tuples, so no event is added or changed after the check;
    ``[dict(e) for e in log.events]`` gives events that build an equal log.
    ``gaze`` and ``target`` are not arguments: they follow from ``t_us``,
    the target_move events and the meta's ``start_target`` (``gaze_target``),
    which must be a pair of finite numbers, else ConfigError names it.
    """

    t_us: np.ndarray        # (N,) int64 frame timestamps
    raw: np.ndarray         # (N, M) int ADC counts
    proc: np.ndarray        # (N, M) float regression-ready vectors
    events: tuple[Mapping, ...]  # given as any sequence of mappings
    meta: dict
    gaze: np.ndarray = field(init=False)    # (N, 2) ground-truth gaze, px
    target: np.ndarray = field(init=False)  # (N, 2) stimulus target, px

    def __post_init__(self):
        start = self.meta.get("start_target")
        if type(start) is not list or not _is_point(start):  # the meta a reader gets back holds a list
            raise ConfigError(f"meta field 'start_target' is not a pair of finite numbers: {start!r}")
        _frame_columns(self.t_us, self.raw)
        events = tuple(self.events)
        fault = _event_fault(events)
        if fault:
            raise ConfigError(f"log event {fault[0]} cannot be scored: {fault[1]}")
        frozen = []
        for ev in events:
            ev = dict(ev)
            if ev["kind"] == "target_move":
                ev["from"], ev["to"] = tuple(ev["from"]), tuple(ev["to"])
            frozen.append(MappingProxyType(ev))
        self.events = tuple(frozen)
        self.gaze, self.target = gaze_target(self.t_us, self.events, start)

    @property
    def n_frames(self) -> int:
        return self.t_us.shape[0]

    def subset(self, mask: np.ndarray) -> "SessionLog":
        """Log restricted to the masked frames (events kept verbatim)."""
        return SessionLog(self.t_us[mask], self.raw[mask], self.proc[mask], self.events,
                          dict(self.meta))


class EyeSimulator:
    """Stateful session engine: event timelines, optics, signal chain, log.

    One instance is single-threaded; parallel sweeps use one instance per
    worker with distinct seeds. All randomness comes from generators derived
    from the constructor seed, so identical inputs replay bit-identically.
    """

    def __init__(self, layout: LedLayout, subject: SubjectProfile, config: SimConfig,
                 seed: int, start_target: ScreenPoint | None = None):
        if len(subject.corneal_gain) != layout.total_channels:
            raise ConfigError(
                f"subject has {len(subject.corneal_gain)} channel gains, "
                f"layout needs {layout.total_channels}"
            )
        self.layout = layout
        self.subject = subject
        self.config = config
        self.seed = int(seed)
        self.geom = config.geom
        self.cycle_us = config.cycle_us(layout)
        self._noise_rng = np.random.default_rng(np.random.SeedSequence([self.seed, _STREAM_NOISE]))
        self._srt_rng = np.random.default_rng(np.random.SeedSequence([self.seed, _STREAM_SRT]))
        self.exposure_us = np.full(layout.total_channels, float(config.exposure_init_us))
        self.exposure_changes = np.zeros(layout.total_channels, dtype=np.int64)
        self.chain = config.chain()
        start = start_target if start_target is not None else self.geom.center
        self.start_target = start
        self.stim_target = start
        # A move the eye has not followed yet: (switch time, its event).
        self._unsettled: tuple[float, dict] | None = None
        self.frame_index = 0
        self._blocks: list[tuple] = []
        self.events: list[dict] = []

    # -- optics core --------------------------------------------------------

    def _sense_block(self, gaze_xy: np.ndarray, blink_blend: np.ndarray):
        """Quantized ADC readings plus per-frame exposure scales, (n, M).

        The block's optics and noise are drawn up front; ``expose_block``
        applies the exposure rule after every capture and the channels'
        exposure changes are added to ``exposure_changes``. It skips a run of
        equal rows wherever the readings at the run's extreme noise keep the
        exposure, which is exact because a reading never decreases as its
        noise grows. The runs are found here, from the gaze rows and the
        blink blend: a clean row is a function of its gaze row, so every row
        of a run shares one clean row and one blend, the precondition of
        ``expose_block``'s ``starts``. So the optics run on each run's first
        gaze row alone, and ``expose_block`` takes their (R, M) clean rows.
        The scales are in Fortran order.
        """
        config, optics = self.config, self.config.optics
        starts = _run_starts(gaze_xy, blink_blend)
        clean = clean_signal(self.layout, self.subject, self.geom, optics, gaze_xy[starts])
        shape = (gaze_xy.shape[0], self.layout.total_channels)
        if self.subject.noise_std > 0:
            # The values normal(0.0, std) draws: it scales the same standard normal stream.
            noise = self._noise_rng.standard_normal(shape)
            noise *= self.subject.noise_std
        else:
            noise = np.zeros(shape)
        raw, scales, self.exposure_us, changes = expose_block(
            clean, noise, blink_blend, starts, self.exposure_us, config.exposure_min_us,
            config.exposure_max_us, optics.reference_exposure_us, optics.eyelid_level)
        self.exposure_changes += changes
        return raw, scales

    # -- session loop -------------------------------------------------------

    def run(self, events: Sequence[ScriptEvent]) -> None:
        """Simulate a timeline of script events in one pass.

        A fixation or saccade on a new target steps the stimulus at once and
        draws the subject's reaction time; the eye lands on the target at the
        first frame past it, unless the next move comes first. A move whose
        reaction time outlasts the timeline carries over to the next call.
        The eye's gaze on each frame then follows from the events
        (``gaze_target``). The frames are drained with ``take_frames()``.
        """
        cycle = self.cycle_us
        counts = [frames_spanned(ev.duration_us, cycle) for ev in events]
        n = sum(counts)
        t = (self.frame_index + np.arange(n, dtype=np.int64)) * cycle
        blend = np.zeros(n)
        ramp_us = self.config.optics.blink_ramp_ms * 1000.0
        f = 0
        for ev, k in zip(events, counts):
            t0 = (self.frame_index + f) * cycle
            if ev.kind != "blink" and ev.target != self.stim_target:
                self._move(ev.target, t0)
            if k == 0:
                continue
            span = slice(f, f + k)
            if ev.kind == "blink":
                t1 = t0 + k * cycle
                self.events.append({"kind": "blink", "t0_us": t0, "t1_us": t1})
                blend[span] = np.clip(np.minimum((t[span] - t0) / ramp_us,
                                                 (t1 - t[span]) / ramp_us), 0.0, 1.0)
            if self._unsettled is not None:
                switch_us, event = self._unsettled
                after = t[span] >= switch_us
                if after.any():
                    event["t_settle_us"] = int(t[f + int(after.argmax())])
                    self._unsettled = None
            f += k
        if n == 0:
            return
        gaze_xy, _ = gaze_target(t, self.events, [self.start_target.x, self.start_target.y])
        raw, scales = self._sense_block(gaze_xy, blend)
        proc = self.chain.block(raw, scales)
        self._blocks.append((t, raw, proc))
        self.frame_index += n

    def _move(self, target: ScreenPoint, t_us: int) -> None:
        """Step the stimulus and draw the reaction time after which the eye follows."""
        if self._unsettled is not None:
            # Superseded before the eye switched; close its exclusion window
            # where the new one begins.
            self._unsettled[1]["t_settle_us"] = t_us
        srt_us = max(0.0, self._srt_rng.normal(self.subject.srt_mean_ms * 1000.0,
                                               self.subject.srt_std_ms * 1000.0))
        event = {
            "kind": "target_move",
            "t_move_us": t_us,
            "t_settle_us": None,
            "from": [self.stim_target.x, self.stim_target.y],
            "to": [target.x, target.y],
        }
        self.events.append(event)
        self._unsettled = (t_us + srt_us, event)
        self.stim_target = target

    def take_frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drain and return the (t, raw, proc) of the frames simulated since the last call."""
        blocks, self._blocks = self._blocks, []
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            m = self.layout.total_channels
            return (np.empty(0, dtype=np.int64), np.empty((0, m), dtype=np.int64),
                    np.empty((0, m)))
        return tuple(np.concatenate([b[i] for b in blocks]) for i in range(3))

    def snapshot(self) -> SessionLog:
        """Session log of everything simulated so far."""
        t, raw, proc = self.take_frames()
        self._blocks = [(t, raw, proc)]  # keep for later snapshots
        meta = {
            "seed": self.seed,
            "cycle_us": self.cycle_us,
            "adc_max": ADC_MAX,
            "layout": self.layout.as_dict(),
            "subject": self.subject.as_dict(),
            "optics": self.config.optics.as_dict(),
            "iir_alpha": self.config.iir_alpha,
            "exposure_init_us": self.config.exposure_init_us,
            "exposure_min_us": self.config.exposure_min_us,
            "exposure_max_us": self.config.exposure_max_us,
            "display": asdict(self.geom),
            # The stimulus and the eye start here; the target_move events
            # give every later position of both.
            "start_target": [self.start_target.x, self.start_target.y],
        }
        return SessionLog(t, raw, proc, self.events, meta)


def gaze_directions(geom: DisplayGeometry, gaze_xy: np.ndarray, eye: int) -> np.ndarray:
    """Unit gaze direction vectors in the given eye's local frame, (n, 3).

    The second eye's frame is the first mirrored in x.
    """
    mx = 1.0 if eye == 0 else -1.0
    dpp = math.radians(geom.degrees_per_pixel)
    tx = np.tan((gaze_xy[:, 0] - geom.width / 2.0) * dpp) * mx
    ty = np.tan((gaze_xy[:, 1] - geom.height / 2.0) * dpp)
    d = np.stack([tx, ty, np.ones_like(tx)], axis=1)
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _eye_frame(layout: LedLayout, subject: SubjectProfile, geom: DisplayGeometry,
               gaze_xy: np.ndarray, eye: int):
    """Shared per-eye geometry: gaze normals and cornea->LED unit vectors."""
    leds = layout.led_positions(eye)
    cx, cy = subject.eye_center(eye)
    dirs = gaze_directions(geom, gaze_xy, eye)
    cornea = dirs * subject.eye_radius_mm
    cornea[:, 0] += cx
    cornea[:, 1] += cy
    v = leds[None, :, :] - cornea[:, None, :]  # cornea -> LED, (n, L, 3)
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    vdotn = np.einsum("nlk,nk->nl", v, dirs)
    return dirs, v, vdotn


def _lobe_sums(layout: LedLayout, subject: SubjectProfile, geom: DisplayGeometry,
               gaze_xy: np.ndarray, eye: int, steps: tuple, q: float) -> np.ndarray:
    """Summed cosine-lobe response of each step's sensing LED, (n, steps) pre-gain."""
    dirs, v, vdotn = _eye_frame(layout, subject, geom, gaze_xy, eye)
    # One (sensing LED, illuminator, step) triple per lit pair, each step's
    # illuminators in ascending order.
    led, illum, step = np.array([(sensing, j, k) for k, (sensing, lit) in enumerate(steps)
                                 for j in sorted(lit)], dtype=np.intp).reshape(-1, 3).T
    # Mirror-reflect the ray arriving from each illuminator about the corneal
    # normal, then score alignment with the sensing LED direction.
    r = 2.0 * vdotn[:, illum, None] * dirs[:, None, :] - v[:, illum, :]
    cos_beta = np.clip(np.einsum("npk,npk->np", r, v[:, led, :]), -1.0, 1.0)
    lobes = ((1.0 + cos_beta) / 2.0) ** q
    acc = np.zeros((gaze_xy.shape[0], len(steps)))
    np.add.at(acc, (slice(None), step), lobes)  # adds in pair order, which fixes the sums' bits
    return acc


def clean_signal(layout: LedLayout, subject: SubjectProfile, geom: DisplayGeometry,
                 optics: OpticsModel, gaze_xy: np.ndarray) -> np.ndarray:
    """Noise-free pre-exposure channel response for each gaze row, (n, M).

    A row's response is a function of its gaze alone, so the engine passes
    one row per run of frames (``EyeSimulator._sense_block``).
    """
    gain = optics.signal_scale * np.asarray(subject.corneal_gain, dtype=float)
    per_eye = layout.channels_per_eye
    out = np.empty((gaze_xy.shape[0], layout.total_channels), dtype=float)
    for eye in range(layout.eyes):
        cols = slice(eye * per_eye, (eye + 1) * per_eye)
        out[:, cols] = gain[cols] * _lobe_sums(layout, subject, geom, gaze_xy, eye,
                                               layout.steps, optics.lobe_sharpness)
    return out


def sense(layout: LedLayout, subject: SubjectProfile, geom: DisplayGeometry,
          gaze: ScreenPoint, sensing_channel: int, illuminators_on,
          exposure_us: float, optics: OpticsModel = OpticsModel()) -> int:
    """One noise-free ADC reading for a single channel and illuminator set.

    Contract-level entry point mirroring one step of the engine's block
    path: cosine-lobe response summed over illuminators, then the block
    path's own exposure scaling, clamping and quantization to 10 bits.
    """
    if not geom.contains(gaze):
        raise ConfigError("gaze must lie within the display")
    for name, value in (("exposure_us", exposure_us),
                        ("reference_exposure_us", optics.reference_exposure_us)):
        if not (_is_finite(value) and value > 0):
            raise ConfigError(f"{name!r} must be a finite number > 0, got {value!r}")
    eye, step_idx = divmod(sensing_channel, layout.channels_per_eye)
    if eye >= layout.eyes:
        raise ConfigError(f"channel {sensing_channel} out of range")
    steps = ((layout.sensing_indices[step_idx], illuminators_on),)
    gaze_xy = np.array([[gaze.x, gaze.y]], dtype=float)
    acc = _lobe_sums(layout, subject, geom, gaze_xy, eye, steps, optics.lobe_sharpness)[0, 0]
    clean = optics.signal_scale * subject.corneal_gain[sensing_channel] * acc
    pre = _exposed(clean, exposure_us / optics.reference_exposure_us, 0.0, optics.eyelid_level)
    return int(_readings(pre, 0.0))


def _row_changes(rows: np.ndarray) -> np.ndarray:
    """Whether each row of ``rows`` (n, k), k >= 1, after the first differs from the row before, (n - 1,).

    Compared column by column: ``np.any`` along a short axis costs several times more.
    """
    changed = rows[1:, 0] != rows[:-1, 0]
    for j in range(1, rows.shape[1]):
        changed |= rows[1:, j] != rows[:-1, j]
    return changed


def _run_starts(rows: np.ndarray, blend: np.ndarray) -> np.ndarray:
    """First row of each run of consecutive rows equal in both ``rows`` (n, k) and ``blend`` (n,)."""
    new_run = np.ones(rows.shape[0], dtype=bool)
    new_run[1:] = _row_changes(rows) | (blend[1:] != blend[:-1])
    return np.flatnonzero(new_run)


def _exposed(clean, scale, blend, eyelid: float):
    """Signal before noise: clean times the exposure scale, blended toward the closed eyelid."""
    pre = clean * scale
    if np.any(blend > 0):
        pre = (1.0 - blend) * pre + blend * (eyelid * scale)
    return pre


def _readings(pre, noise):
    """ADC counts of an exposed signal plus noise, as indices into a reading table.

    ``rint(clip(pre + noise, 0, 1) * ADC_MAX)``, with the clip as a maximum
    and a minimum: ``np.clip`` costs more in Python dispatch than a few
    hundred values cost to compute.
    """
    return np.rint(np.minimum(np.maximum(pre + noise, 0.0), 1.0) * ADC_MAX).astype(np.intp)


def expose_block(clean: np.ndarray, noise: np.ndarray, blend: np.ndarray, starts: np.ndarray,
                 exp: np.ndarray, emin: float, emax: float, ref: float, eyelid: float):
    """Exposed, noisy, quantized readings of a block under the exposure rule.

    ``noise`` is (n, M), ``blend`` the (n,) eyelid closure and ``exp`` the
    (M,) exposures before the first frame. ``starts`` holds the ascending
    first rows of the block's R runs, beginning with 0 when n > 0, and
    ``clean`` the (R, M) clean row of each run. The caller vouches that
    every row of a run has the run's clean row and the blend of its first
    row; any such partition gives the same result, down to one run per row,
    and a coarser one is faster. Returns the int64 ADC counts and each
    frame's exposure scale, both (n, M), the scales in Fortran order, the
    exposures after the last frame and each channel's number of exposure
    changes, (M,).

    Each channel's exposure depends only on its own readings. Within a run
    at one exposure, a reading ``rint(clip(pre + z, 0, 1) *
    ADC_MAX)`` is a non-decreasing function of the noise ``z``, because IEEE
    add, clip and rint are monotone and the exposure scale is positive. So if
    ``adapt_exposure`` keeps the exposure for the readings at the run's
    smallest and largest noise, it keeps it on every frame of the run: the
    run is certified at that exposure. Certification is evaluated at once
    for every run, channel and reachable exposure. Each channel walks its
    runs in order: it keeps its exposure through a run certified at it and
    steps through any other run one trip at a time, until it reaches a
    certified exposure or the run ends, writing each exposure span into the
    channel's contiguous column of the scales as soon as the span ends. The
    counts are then computed from the scales, slice by slice, each slice's
    clean rows expanded from their runs' rows there.
    """
    n, m = noise.shape
    n_runs = starts.size
    if clean.shape != (n_runs, m):
        raise ConfigError(f"clean holds {clean.shape} values, not one row of {m} per run "
                          f"({n_runs} runs)")
    exp = np.asarray(exp, dtype=float)
    if n == 0:
        return (np.empty((0, m), dtype=np.int64), np.empty((0, m), order="F"), exp,
                np.zeros(m, dtype=np.int64))
    bounds = np.append(starts, n).tolist()
    levels, after = _exposure_levels(tuple(np.unique(exp).tolist()), float(emin), float(emax))
    level_scale = levels / ref
    # Each run's signal before noise at every level, (L, R, M).
    pre = _exposed(clean, level_scale[:, None, None], blend[starts, None], eyelid)
    stay = np.arange(levels.size)[:, None, None]
    certified = ((after[stay, _readings(pre, np.minimum.reduceat(noise, starts))] == stay)
                 & (after[stay, _readings(pre, np.maximum.reduceat(noise, starts))] == stay))
    # The level after each run's first frame, where most walks trip.
    first = after[stay, _readings(pre, noise[starts])]
    level = np.searchsorted(levels, exp)
    scales = np.empty((n, m), order="F")
    changes = np.zeros(m, dtype=np.int64)
    for c in range(m):
        e, start = int(level[c]), 0  # the channel's level since row ``start``
        kept = certified[:, :, c].tolist()  # kept[e][r]: run r keeps level e; a list indexes faster
        for r in range(n_runs):
            s, t = bounds[r], bounds[r + 1]
            i, tables = 0, {}
            while not kept[e][r] and i < t - s:
                if i == 0 and first[e, r, c] != e:
                    k, to = 0, int(first[e, r, c])
                else:
                    if e not in tables:
                        dest = after[e, _readings(pre[e, r, c], noise[s:t, c])]
                        tables[e] = dest, iter(np.flatnonzero(dest != e).tolist())
                    dest, trips = tables[e]
                    k = next((j for j in trips if j >= i), None)
                    if k is None:
                        break
                    to = int(dest[k])
                scales[start:s + k + 1, c] = level_scale[e]
                start, i, e = s + k + 1, k + 1, to
                changes[c] += 1
        scales[start:, c] = level_scale[e]
        level[c] = e
    run = np.repeat(np.arange(n_runs), np.diff(bounds))  # each row's run
    raw = np.empty((n, m), dtype=np.int64)
    for a in range(0, n, _READ_ROWS):
        rows = slice(a, a + _READ_ROWS)
        raw[rows] = _readings(_exposed(np.take(clean, run[rows], axis=0), scales[rows],
                                       blend[rows, None], eyelid), noise[rows])
    return raw, scales, levels[level], changes


def run_script(layout: LedLayout, subject: SubjectProfile, script: GazeScript,
               config: SimConfig, seed: int) -> SessionLog:
    """Simulate a full scripted session and return its log."""
    if script.duration_us < config.cycle_us(layout):
        raise ConfigError("script shorter than one capture cycle")
    first = next(ev.target for ev in script.events if ev.target is not None)
    sim = EyeSimulator(layout, subject, config, seed, start_target=first)
    sim.run(script.events)
    return sim.snapshot()

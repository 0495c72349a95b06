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

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import ADC_MAX, ConfigError, DisplayGeometry, ScreenPoint
from .sigproc import IirFilter, _exposure_levels, compensate

# Seed-stream discriminators so subsystems never share a generator.
_STREAM_NOISE = 101
_STREAM_SRT = 102

# Rows per slice of a block's final readings pass; keeps its temporaries in cache.
_READ_ROWS = 1024


@dataclass(frozen=True)
class OpticsModel:
    """Simulator optics constants (artifact parameters, not hardware claims)."""

    lobe_sharpness: float = 1.5       # cosine-lobe exponent; higher = peakier
    signal_scale: float = 0.65        # maps summed lobe response to ADC fraction
    eyelid_level: float = 0.85        # normalized signal of a closed eyelid
    reference_exposure_us: float = 400.0
    blink_ramp_ms: float = 50.0       # eyelid close/open ramp duration

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
        return asdict(self)


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
               blink_rate_per_min: float, blink_us: int = 150_000) -> "GazeScript":
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
                events.append(ScriptEvent("blink", int(blink_us)))
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
        if not 0 < self.exposure_min_us <= self.exposure_init_us <= self.exposure_max_us:
            raise ConfigError("exposures must satisfy 0 < min <= init <= max")

    def cycle_us(self, layout: LedLayout) -> int:
        # Both eyes' chains run in parallel, one microcontroller each.
        return self.step_us * layout.channels_per_eye


@dataclass
class SessionLog:
    """Complete record of one simulated run, column-oriented for speed."""

    t_us: np.ndarray        # (N,) int64 frame timestamps
    raw: np.ndarray         # (N, M) int ADC counts
    proc: np.ndarray        # (N, M) float regression-ready vectors
    gaze: np.ndarray        # (N, 2) ground-truth gaze, px
    target: np.ndarray      # (N, 2) stimulus target, px
    events: list[dict]
    meta: dict

    @property
    def n_frames(self) -> int:
        return self.t_us.shape[0]

    @property
    def channel_count(self) -> int:
        return self.raw.shape[1]

    def subset(self, mask: np.ndarray) -> "SessionLog":
        """Log restricted to the masked frames (events kept verbatim)."""
        return SessionLog(
            self.t_us[mask], self.raw[mask], self.proc[mask],
            self.gaze[mask], self.target[mask],
            [dict(e) for e in self.events], dict(self.meta),
        )


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
        self.iir = IirFilter(config.iir_alpha)
        start = start_target if start_target is not None else self.geom.center
        self.stim_target = start
        self.gaze_target = start
        # A move the eye has not followed yet: (switch time, its event, target).
        self._unsettled: tuple[float, dict, ScreenPoint] | None = None
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
        noise grows.
        """
        config, optics = self.config, self.config.optics
        clean = clean_signal(self.layout, self.subject, self.geom, optics, gaze_xy)
        if self.subject.noise_std > 0:
            noise = self._noise_rng.normal(0.0, self.subject.noise_std, clean.shape)
        else:
            noise = np.zeros_like(clean)
        raw, scales, self.exposure_us, changes = expose_block(
            clean, noise, blink_blend, self.exposure_us, config.exposure_min_us,
            config.exposure_max_us, optics.reference_exposure_us, optics.eyelid_level)
        self.exposure_changes += changes
        return raw, scales

    # -- session loop -------------------------------------------------------

    def frame_count(self, duration_us: int) -> int:
        """Frames an event of the given duration spans."""
        return int(round(duration_us / self.cycle_us))

    def run(self, events: Sequence[ScriptEvent]) -> None:
        """Simulate a timeline of script events in one pass.

        A fixation or saccade on a new target steps the stimulus at once and
        draws the subject's reaction time; the eye lands on the target at the
        first frame past it, unless the next move comes first. A move whose
        reaction time outlasts the timeline carries over to the next call.
        The frames are drained with ``take_frames()``.
        """
        cycle = self.cycle_us
        counts = [self.frame_count(ev.duration_us) for ev in events]
        n = sum(counts)
        t = (self.frame_index + np.arange(n, dtype=np.int64)) * cycle
        gaze_xy = np.empty((n, 2))
        tgt = np.empty((n, 2))
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
            tgt[span] = [self.stim_target.x, self.stim_target.y]
            gaze_xy[span] = [self.gaze_target.x, self.gaze_target.y]
            if self._unsettled is not None:
                switch_us, event, to = self._unsettled
                after = t[span] >= switch_us
                if after.any():
                    switch = f + int(after.argmax())
                    event["t_settle_us"] = int(t[switch])
                    gaze_xy[switch:f + k] = [to.x, to.y]
                    self.gaze_target = to
                    self._unsettled = None
            f += k
        if n == 0:
            return
        raw, scales = self._sense_block(gaze_xy, blend)
        # The scales are not kept, so their buffer holds the compensated
        # readings and a whole phase needs one less array.
        proc = self.iir.filter_block(compensate(raw, scales, out=scales))
        self._blocks.append((t, raw, proc, gaze_xy, tgt))
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
        self._unsettled = (t_us + srt_us, event, target)
        self.stim_target = target

    def take_frames(self) -> tuple[np.ndarray, ...]:
        """Drain and return frames logged since the last call."""
        blocks, self._blocks = self._blocks, []
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            m = self.layout.total_channels
            return (np.empty(0, dtype=np.int64), np.empty((0, m), dtype=np.int64),
                    np.empty((0, m)), np.empty((0, 2)), np.empty((0, 2)))
        return tuple(np.concatenate([b[i] for b in blocks]) for i in range(5))

    def snapshot(self, extra_meta: dict | None = None) -> SessionLog:
        """Session log of everything simulated so far."""
        t, raw, proc, gaze, tgt = self.take_frames()
        self._blocks = [(t, raw, proc, gaze, tgt)]  # keep for later snapshots
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
            "display": {
                "width": self.geom.width,
                "height": self.geom.height,
                "degrees_per_pixel": self.geom.degrees_per_pixel,
            },
        }
        if extra_meta:
            meta.update(extra_meta)
        return SessionLog(t, raw, proc, gaze, tgt, [dict(e) for e in self.events], meta)


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


@lru_cache(maxsize=64)
def _led_positions(layout: LedLayout, eye: int) -> np.ndarray:
    """``layout.led_positions(eye)``, computed once per layout and eye; read-only."""
    leds = layout.led_positions(eye)
    leds.flags.writeable = False
    return leds


def _eye_frame(layout: LedLayout, subject: SubjectProfile, geom: DisplayGeometry,
               gaze_xy: np.ndarray, eye: int):
    """Shared per-eye geometry: gaze normals and cornea->LED unit vectors."""
    leds = _led_positions(layout, eye)
    cx, cy = subject.eye_center(eye)
    dirs = gaze_directions(geom, gaze_xy, eye)
    cornea = dirs * subject.eye_radius_mm
    cornea[:, 0] += cx
    cornea[:, 1] += cy
    v = leds[None, :, :] - cornea[:, None, :]  # cornea -> LED, (n, L, 3)
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    vdotn = np.einsum("nlk,nk->nl", v, dirs)
    return dirs, v, vdotn


@lru_cache(maxsize=64)
def _lobe_pairs(steps: tuple) -> tuple:
    """Lit (sensing LED, illuminator) pairs of a capture cycle, cached per cycle.

    Returns the pairs' sensing and illuminating ring indices, (P,) each, and
    for each rank r the pairs that are the r-th illuminator of their step in
    ascending order, with those steps' indices. All arrays are read-only.
    """
    table = np.array([(led, j, step, rank) for step, (led, illum) in enumerate(steps)
                      for rank, j in enumerate(sorted(illum))], dtype=np.intp).reshape(-1, 4)
    led, illum, step, rank = table.T
    ranks = tuple((np.flatnonzero(rank == r), step[rank == r]) for r in range(rank.max(initial=-1) + 1))
    for arr in (led, illum, *sum(ranks, ())):
        arr.flags.writeable = False
    return led, illum, ranks


def _lobe_sums(layout: LedLayout, subject: SubjectProfile, geom: DisplayGeometry,
               gaze_xy: np.ndarray, eye: int, steps: tuple, q: float) -> np.ndarray:
    """Summed cosine-lobe response of each step's sensing LED, (n, steps) pre-gain."""
    dirs, v, vdotn = _eye_frame(layout, subject, geom, gaze_xy, eye)
    led, illum, ranks = _lobe_pairs(steps)
    # Mirror-reflect the ray arriving from each illuminator about the corneal
    # normal, then score alignment with the sensing LED direction.
    r = 2.0 * vdotn[:, illum, None] * dirs[:, None, :] - v[:, illum, :]
    cos_beta = np.clip(np.einsum("npk,npk->np", r, v[:, led, :]), -1.0, 1.0)
    lobes = ((1.0 + cos_beta) / 2.0) ** q
    acc = np.zeros((gaze_xy.shape[0], len(steps)))
    for pair_idx, step_idx in ranks:  # ascending illuminator order fixes the sum's bits
        acc[:, step_idx] += lobes[:, pair_idx]
    return acc


def clean_signal(layout: LedLayout, subject: SubjectProfile, geom: DisplayGeometry,
                 optics: OpticsModel, gaze_xy: np.ndarray) -> np.ndarray:
    """Noise-free pre-exposure channel response for each frame, (n, M).

    Gaze holds still between switches, so the optics run once per run of
    equal consecutive rows and the result is expanded back to every frame.
    """
    new_run = np.ones(gaze_xy.shape[0], dtype=bool)
    new_run[1:] = np.any(gaze_xy[1:] != gaze_xy[:-1], axis=1)
    points = gaze_xy[new_run]
    gain = optics.signal_scale * np.asarray(subject.corneal_gain, dtype=float)
    per_eye = layout.channels_per_eye
    out = np.empty((points.shape[0], layout.total_channels), dtype=float)
    for eye in range(layout.eyes):
        cols = slice(eye * per_eye, (eye + 1) * per_eye)
        out[:, cols] = gain[cols] * _lobe_sums(layout, subject, geom, points, eye,
                                               layout.steps, optics.lobe_sharpness)
    return out[np.cumsum(new_run) - 1]


def sense(layout: LedLayout, subject: SubjectProfile, geom: DisplayGeometry,
          gaze: ScreenPoint, sensing_channel: int, illuminators_on,
          exposure_us: float, rng: np.random.Generator | None = None,
          optics: OpticsModel = OpticsModel()) -> int:
    """One ADC reading for a single channel and illuminator set.

    Contract-level entry point mirroring one step of the engine's block
    path: cosine-lobe response summed over illuminators, exposure-scaled,
    noise-added, clamped, and quantized to 10 bits.
    """
    if not geom.contains(gaze):
        raise ConfigError("gaze must lie within the display")
    eye, step_idx = divmod(sensing_channel, layout.channels_per_eye)
    if eye >= layout.eyes:
        raise ConfigError(f"channel {sensing_channel} out of range")
    steps = ((layout.sensing_indices[step_idx], tuple(sorted(illuminators_on))),)
    gaze_xy = np.array([[gaze.x, gaze.y]], dtype=float)
    acc = _lobe_sums(layout, subject, geom, gaze_xy, eye, steps, optics.lobe_sharpness)[0, 0]
    pre = optics.signal_scale * subject.corneal_gain[sensing_channel] * acc
    pre *= exposure_us / optics.reference_exposure_us
    if rng is not None and subject.noise_std > 0:
        pre += rng.normal(0.0, subject.noise_std)
    pre = min(max(pre, 0.0), 1.0)
    return int(np.rint(pre * ADC_MAX))


def _exposed(clean, scale, blend, eyelid: float):
    """Signal before noise: clean times the exposure scale, blended toward the closed eyelid."""
    pre = clean * scale
    if np.any(blend > 0):
        pre = (1.0 - blend) * pre + blend * (eyelid * scale)
    return pre


def _readings(pre, noise):
    """ADC counts of an exposed signal plus noise, as indices into a reading table."""
    return np.rint(np.clip(pre + noise, 0.0, 1.0) * ADC_MAX).astype(np.intp)


def expose_block(clean: np.ndarray, noise: np.ndarray, blend: np.ndarray, exp: np.ndarray,
                 emin: float, emax: float, ref: float, eyelid: float):
    """Exposed, noisy, quantized readings of a block under the exposure rule.

    ``clean`` and ``noise`` are (n, M), ``blend`` the (n,) eyelid closure and
    ``exp`` the (M,) exposures before the first frame. Returns the int64 ADC
    counts and each frame's exposure scale, both (n, M), the exposures after
    the last frame and each channel's number of exposure changes, (M,).

    Each channel's exposure depends only on its own readings, and the block
    splits into runs of rows whose clean row and blend are both constant.
    Within a run at one exposure, a reading ``rint(clip(pre + z, 0, 1) *
    ADC_MAX)`` is a non-decreasing function of the noise ``z``, because IEEE
    add, clip and rint are monotone and the exposure scale is positive. So if
    ``adapt_exposure`` keeps the exposure for the readings at the run's
    smallest and largest noise, it keeps it on every frame of the run: the
    run is certified at that exposure. Certification is evaluated at once
    for every run, channel and reachable exposure. A channel skips each run
    certified at its exposure and steps through any other one trip at a
    time, until it reaches a certified exposure or the run ends. The counts
    are then computed from the exposures found, slice by slice.
    """
    n, m = clean.shape
    exp = np.asarray(exp, dtype=float)
    if n == 0:
        return np.empty((0, m), dtype=np.int64), np.empty_like(clean), exp, np.zeros(m, dtype=np.int64)
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = np.any(clean[1:] != clean[:-1], axis=1) | (blend[1:] != blend[:-1])
    starts = np.flatnonzero(new_run)
    bounds = np.append(starts, n).tolist()
    n_runs = starts.size
    levels, after = _exposure_levels(tuple(np.unique(exp).tolist()), float(emin), float(emax))
    level_scale = levels / ref
    # Each run's signal before noise at every level, (L, R, M).
    pre = _exposed(clean[starts], level_scale[:, None, None], blend[starts, None], eyelid)
    stay = np.arange(levels.size)[:, None, None]
    certified = ((after[stay, _readings(pre, np.minimum.reduceat(noise, starts))] == stay)
                 & (after[stay, _readings(pre, np.maximum.reduceat(noise, starts))] == stay))
    # The level after each run's first frame, where most walks trip.
    first = after[stay, _readings(pre, noise[starts])]
    # The first run from each run on that is not certified, per level and channel.
    walk_at = np.where(certified, n_runs, np.arange(n_runs)[:, None])
    walk_at = np.minimum.accumulate(walk_at[:, ::-1], axis=1)[:, ::-1]
    level = np.searchsorted(levels, exp)
    run_level = np.empty((n_runs, m), dtype=np.intp)
    changes = np.zeros(m, dtype=np.int64)
    held = []  # (first row, end row, channel, level) of each exposure set within a run
    for c in range(m):
        e, r = int(level[c]), 0
        while r < n_runs and (w := int(walk_at[e, r, c])) < n_runs:
            run_level[r:w + 1, c] = e
            s, t = bounds[w], bounds[w + 1]
            i, tables = 0, {}
            while not certified[e, w, c] and i < t - s:
                if i == 0 and first[e, w, c] != e:
                    k, to = 0, int(first[e, w, c])
                else:
                    if e not in tables:
                        dest = after[e, _readings(pre[e, w, c], noise[s:t, c])]
                        tables[e] = dest, iter(np.flatnonzero(dest != e).tolist())
                    dest, trips = tables[e]
                    k = next((j for j in trips if j >= i), None)
                    if k is None:
                        break
                    to = int(dest[k])
                if i:
                    held.append((s + i, s + k + 1, c, e))
                i, e = k + 1, to
                changes[c] += 1
            if i:
                held.append((s + i, t, c, e))
            r = w + 1
        run_level[r:, c] = e
        level[c] = e
    scales = np.repeat(level_scale[run_level], np.diff(bounds), axis=0)
    for a, z, c, e in held:
        scales[a:z, c] = level_scale[e]
    raw = np.empty((n, m), dtype=np.int64)
    for a in range(0, n, _READ_ROWS):
        rows = slice(a, a + _READ_ROWS)
        raw[rows] = _readings(_exposed(clean[rows], scales[rows], blend[rows, None], eyelid), noise[rows])
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

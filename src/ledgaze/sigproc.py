"""Signal path between raw LED physics and regression-ready vectors.

Covers the time-multiplexed capture schedule (one sensing LED at a time),
per-channel adaptive exposure with saturation avoidance, and the first-order
IIR low-pass filter applied to normalized channel values before regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .core import ADC_MAX, ConfigError

# Readings at or beyond these counts trigger exposure adaptation.
SATURATION_HIGH = 1000
SATURATION_LOW = 23


@dataclass(frozen=True)
class CaptureSchedule:
    """Ordered capture steps for one LED ring (one eye's chain).

    Each step senses exactly one LED while a designated set of LEDs
    illuminates. Indices refer to positions in the ring; the frame channel
    order is the order sensing steps appear in one cycle.
    """

    steps: tuple[tuple[int, frozenset[int]], ...]
    mode: str

    def __post_init__(self):
        seen = [ch for ch, _ in self.steps]
        if len(set(seen)) != len(seen):
            raise ConfigError("a sensing channel repeats within one cycle")
        for ch, illum in self.steps:
            if ch in illum:
                raise ConfigError(f"LED {ch} cannot sense and illuminate in the same step")

    @property
    def cycle_length(self) -> int:
        return len(self.steps)

    @property
    def sensing_leds(self) -> tuple[int, ...]:
        return tuple(ch for ch, _ in self.steps)

    @classmethod
    def prototype1(cls, groups: int = 3) -> "CaptureSchedule":
        """Ring of sense/sense/illuminate triplets; the group's dedicated
        illuminator lights both of its neighbouring sensing LEDs."""
        steps = []
        for g in range(groups):
            base = 3 * g
            illum = frozenset({base + 2})
            steps.append((base, illum))
            steps.append((base + 1, illum))
        return cls(tuple(steps), "prototype1")

    @classmethod
    def prototype2(cls, led_count: int = 6) -> "CaptureSchedule":
        """Dual-role ring: every LED senses once per cycle while all the
        remaining LEDs illuminate."""
        all_leds = frozenset(range(led_count))
        steps = tuple((i, all_leds - {i}) for i in range(led_count))
        return cls(steps, "prototype2")


@dataclass(frozen=True)
class ExposureState:
    """Per-channel exposure times in microseconds, bounded to [lo, hi]."""

    exposures_us: tuple[float, ...]
    exp_min_us: float
    exp_max_us: float

    def __post_init__(self):
        if not 0 < self.exp_min_us <= self.exp_max_us:
            raise ConfigError("exposure bounds must satisfy 0 < min <= max")
        for e in self.exposures_us:
            if not self.exp_min_us <= e <= self.exp_max_us:
                raise ConfigError(f"exposure {e} outside [{self.exp_min_us}, {self.exp_max_us}]")

    @classmethod
    def uniform(cls, channels: int, exposure_us: float,
                exp_min_us: float, exp_max_us: float) -> "ExposureState":
        return cls((float(exposure_us),) * channels, float(exp_min_us), float(exp_max_us))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.exposures_us, dtype=float)


def adapt_exposure(state: ExposureState, channel: int, raw_reading: int) -> ExposureState:
    """Halve a near-saturated channel's exposure, double a starved one.

    Mid-range readings leave the state untouched; adapted values clamp to
    the configured bounds.
    """
    if not 0 <= raw_reading <= ADC_MAX:
        raise ConfigError(f"reading {raw_reading} outside ADC range")
    cur = state.exposures_us[channel]
    if raw_reading >= SATURATION_HIGH:
        new = cur / 2.0
    elif raw_reading <= SATURATION_LOW:
        new = cur * 2.0
    else:
        return state
    new = min(max(new, state.exp_min_us), state.exp_max_us)
    if new == cur:
        return state
    exposures = list(state.exposures_us)
    exposures[channel] = new
    return ExposureState(tuple(exposures), state.exp_min_us, state.exp_max_us)


class IirFilter:
    """First-order low-pass y_t = alpha*x_t + (1-alpha)*y_{t-1}, per channel.

    The first frame ever seen initializes the state to itself, so the filter
    has unit DC gain from the start.
    """

    def __init__(self, alpha: float):
        if not 0 < alpha <= 1:
            raise ConfigError("alpha must be in (0, 1]")
        self.alpha = float(alpha)
        self.state: np.ndarray | None = None

    def step(self, frame) -> np.ndarray:
        x = np.asarray(frame, dtype=float)
        if self.state is None:
            self.state = x.copy()
        else:
            if x.shape != self.state.shape:
                raise ConfigError("frame shape changed mid-stream")
            self.state = self.alpha * x + (1.0 - self.alpha) * self.state
        return self.state.copy()

    def filter_block(self, X) -> np.ndarray:
        """Filter a whole (n, M) block; identical to n sequential step() calls."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            return X.copy()
        b = [self.alpha]
        a = [1.0, -(1.0 - self.alpha)]
        if self.state is None:
            y0 = X[0].copy()
            rest = X[1:]
            if rest.shape[0] == 0:
                self.state = y0
                return y0[None, :]
            zi = ((1.0 - self.alpha) * y0)[None, :]
            yr, _ = lfilter(b, a, rest, axis=0, zi=zi)
            out = np.vstack([y0[None, :], yr])
        else:
            zi = ((1.0 - self.alpha) * self.state)[None, :]
            out, _ = lfilter(b, a, X, axis=0, zi=zi)
        self.state = out[-1].copy()
        return out


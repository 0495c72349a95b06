"""Shared domain types, display geometry, and unit conversions.

Conventions used across the package:
  - Timestamps are integer microseconds since session start.
  - Raw sensor readings are 10-bit ADC counts in [0,.. 1023].
  - Regression-facing vectors are real-valued, normalized to roughly [0, 1]
    (ADC counts divided by ADC_MAX after exposure compensation).
  - Screen coordinates are pixels on the virtual image plane, origin top-left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from sys import float_info
from typing import Sequence

import numpy as np

ADC_MAX = 1023  # 10-bit converter full scale
_ADC_COUNTS = frozenset(range(ADC_MAX + 1))


def _is_finite(value) -> bool:
    """Whether ``value`` is an int or a float, not a bool, that a finite float holds (NaN is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= float_info.max


class LedGazeError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(LedGazeError, ValueError):
    """Vector lengths or channel counts do not match."""


class DegenerateInputError(LedGazeError, ValueError):
    """Input is degenerate for the requested operation (e.g. zero vector)."""


class ConfigError(LedGazeError, ValueError):
    """Invalid configuration or arguments."""


class InsufficientDataError(LedGazeError, ValueError):
    """Not enough samples to compute the requested statistic."""


class EstimationError(LedGazeError, RuntimeError):
    """Gaze estimation failed (singular system, vanishing weights, ...)."""


class CalibrationError(LedGazeError, RuntimeError):
    """Calibration could not produce a usable set of entries."""


class WireError(LedGazeError, ValueError):
    """Frame cannot be encoded in the wire format."""


@dataclass(frozen=True)
class SensorFrame:
    """One timestamped capture vector of per-channel ADC readings."""

    timestamp_us: int
    channels: tuple[int, ...]

    def __post_init__(self):
        if len(self.channels) < 1:
            raise DimensionError("frame must carry at least one channel")
        # One C-level membership pass clears the usual whole counts. Anything
        # else (a NaN, an out-of-range count, an in-range float) gets the exact
        # range test, which names the first bad channel.
        if not _ADC_COUNTS.issuperset(self.channels):
            for i, v in enumerate(self.channels):
                if not 0 <= v <= ADC_MAX:
                    raise WireError(f"channel {i} reading {v} outside [0, {ADC_MAX}]")

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    def normalized(self) -> np.ndarray:
        """Channel readings scaled to [0, 1]."""
        # the same bits as dividing the converted tuple, without numpy's slow tuple conversion
        return np.array([v / ADC_MAX for v in self.channels])


@dataclass(frozen=True)
class ScreenPoint:
    """A position on the virtual image plane, in pixels, origin top-left."""

    x: float
    y: float

    def distance_to(self, other: "ScreenPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class DisplayGeometry:
    """Virtual image plane extent and the pixel-to-visual-angle conversion."""

    width: int
    height: int
    degrees_per_pixel: float = 0.12

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("display dimensions must be positive")
        if self.degrees_per_pixel <= 0:
            raise ConfigError("degrees_per_pixel must be positive")

    @property
    def center(self) -> ScreenPoint:
        return ScreenPoint(self.width / 2.0, self.height / 2.0)

    def contains(self, p: ScreenPoint) -> bool:
        return 0 <= p.x < self.width and 0 <= p.y < self.height


class CalibrationSet:
    """Ordered (mean sensor vector, target) pairs: the calibration matrix.

    Mean vectors are stored row-wise in normalized units; duplicate targets
    are allowed, since online augmentation may revisit a location.
    """

    def __init__(self, means, targets, channel_count: int | None = None):
        means = np.atleast_2d(np.asarray(means, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if means.shape[0] < 1:
            raise ConfigError("calibration set needs at least one entry")
        if targets.shape != (means.shape[0], 2):
            raise DimensionError(
                f"targets shape {targets.shape} does not match {means.shape[0]} entries"
            )
        if channel_count is not None and means.shape[1] != channel_count:
            raise DimensionError(
                f"mean vectors have {means.shape[1]} channels, expected {channel_count}"
            )
        self.means = means
        self.targets = targets

    @classmethod
    def from_entries(cls, entries: Sequence[tuple[Sequence[float], ScreenPoint]]):
        means = [np.asarray(vec, dtype=float) for vec, _ in entries]
        targets = [(p.x, p.y) for _, p in entries]
        return cls(np.vstack(means), np.asarray(targets))

    @property
    def channel_count(self) -> int:
        return self.means.shape[1]

    @property
    def point_count(self) -> int:
        return self.means.shape[0]

    def append(self, mean_vector, target: ScreenPoint) -> "CalibrationSet":
        """New set with one appended entry; the original is unchanged."""
        vec = np.asarray(mean_vector, dtype=float).reshape(-1)
        if vec.shape[0] != self.channel_count:
            raise DimensionError(
                f"vector has {vec.shape[0]} channels, set has {self.channel_count}"
            )
        return CalibrationSet(
            np.vstack([self.means, vec]),
            np.vstack([self.targets, [target.x, target.y]]),
        )

    def select_channels(self, indices: Sequence[int]) -> "CalibrationSet":
        """Restrict every mean vector to the given channel indices."""
        idx = list(indices)
        if not idx:
            raise ConfigError("at least one channel must be selected")
        return CalibrationSet(self.means[:, idx], self.targets.copy())

    def to_dict(self) -> dict:
        return {
            "channel_count": self.channel_count,
            "means": self.means.tolist(),
            "targets": self.targets.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationSet":
        return cls(d["means"], d["targets"], channel_count=d.get("channel_count"))


@dataclass(frozen=True)
class GazeEstimate:
    """Estimated screen position; deliberately not clamped to display bounds."""

    timestamp_us: int
    position: ScreenPoint
    method: str


def angular_error(estimate: ScreenPoint, target: ScreenPoint, geom: DisplayGeometry) -> float:
    """Visual angle, in degrees, between an estimate and its gaze target.

    Euclidean pixel distance scaled by the display's flat degrees-per-pixel
    constant. Symmetric in its two point arguments.
    """
    return geom.degrees_per_pixel * estimate.distance_to(target)


def angular_error_px(estimates: np.ndarray, targets: np.ndarray, geom: DisplayGeometry) -> np.ndarray:
    """Vectorized angular error for (n, 2) arrays of estimates and targets."""
    estimates = np.asarray(estimates, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if estimates.shape != targets.shape:
        raise DimensionError("estimate and target arrays must have identical shape")
    d = np.hypot(estimates[..., 0] - targets[..., 0], estimates[..., 1] - targets[..., 1])
    return geom.degrees_per_pixel * d

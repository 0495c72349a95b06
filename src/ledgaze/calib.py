"""Calibration-matrix construction from dwell sessions.

Targets are highlighted in seeded-random order; while the subject dwells on
one, sampled vectors are aggregated to a per-channel mean, with the whole
location rejected when any channel's spread exceeds the variance gate.
Calibration runs in two rounds: the whole schedule, then the rejected
locations once more in the same order; a location rejected twice is dropped
with a warning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .core import (
    CalibrationError,
    CalibrationSet,
    ConfigError,
    DisplayGeometry,
    InsufficientDataError,
    ScreenPoint,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CalibrationGridSpec:
    """Evenly spaced rows x cols grid inset from the display edges."""

    rows: int
    cols: int
    margin: int = 100

    def __post_init__(self):
        if not (2 <= self.rows <= 8 and 2 <= self.cols <= 8):
            raise ConfigError("grid rows and cols must be in [2, 8]")
        if self.margin < 1:
            raise ConfigError("margin must be at least 1 pixel")


def schedule_targets(grid: CalibrationGridSpec, geom: DisplayGeometry,
                     seed: int) -> list[ScreenPoint]:
    """All grid points exactly once, in a seeded-random order."""
    if 2 * grid.margin >= geom.width or 2 * grid.margin >= geom.height:
        raise ConfigError("grid margin leaves no room inside the display")
    xs = grid.margin + np.arange(grid.cols) * (geom.width - 2 * grid.margin) / (grid.cols - 1)
    ys = grid.margin + np.arange(grid.rows) * (geom.height - 2 * grid.margin) / (grid.rows - 1)
    points = [ScreenPoint(float(x), float(y)) for y in ys for x in xs]
    if any(not geom.contains(p) for p in points):
        raise ConfigError("grid does not fit inside the display")
    order = np.random.default_rng(np.random.SeedSequence([int(seed), 11])).permutation(len(points))
    return [points[i] for i in order]


@dataclass(frozen=True)
class DwellAggregate:
    """Outcome of aggregating one dwell: a mean vector or a rejection."""

    accepted: bool
    mean: np.ndarray | None
    stds: np.ndarray
    bad_channels: tuple[int, ...] = ()


def aggregate_point(frames: Sequence, variance_threshold: float) -> DwellAggregate:
    """Per-channel mean of the dwell samples, gated on per-channel spread.

    ``frames`` are processed (n, M) vectors. Spread is the sample standard
    deviation (n-1 denominator), gated at ``variance_threshold`` (normalized units).
    """
    if not variance_threshold > 0:  # NaN fails too
        raise ConfigError(f"variance threshold must be positive, got {variance_threshold!r}")
    X = np.atleast_2d(np.asarray(frames, dtype=float))
    if X.shape[0] < 2:
        raise InsufficientDataError("need at least two samples per dwell")
    stds = np.std(X, axis=0, ddof=1)
    bad = tuple(int(i) for i in np.nonzero(stds > variance_threshold)[0])
    if bad:
        return DwellAggregate(False, None, stds, bad)
    return DwellAggregate(True, X.mean(axis=0), stds)


class DwellSource(Protocol):
    """Delivers the sampled vectors for a sequence of highlighted targets."""

    def acquire(self, targets: Sequence[ScreenPoint]) -> list[np.ndarray]:
        """Sampled (n, M) vectors per target, dwelt on in the given order."""
        ...


def run_calibration(source: DwellSource, grid: CalibrationGridSpec,
                    geom: DisplayGeometry, variance_threshold: float,
                    seed: int) -> CalibrationSet:
    """Build a calibration set by dwelling on every scheduled target.

    Targets failing the variance gate are dwelt on again in a second round
    after the schedule; a second failure drops them with a logged warning.
    """
    entries: list[tuple[np.ndarray, ScreenPoint]] = []
    targets = schedule_targets(grid, geom, seed)
    for retry in (False, True):
        if not targets:
            break
        rejected = []
        for target, frames in zip(targets, source.acquire(targets)):
            agg = aggregate_point(frames, variance_threshold)
            if agg.accepted:
                entries.append((agg.mean, target))
            elif not retry:
                rejected.append(target)
            else:
                log.warning(
                    "calibration target (%.0f, %.0f) rejected twice "
                    "(channels %s over threshold); dropping it",
                    target.x, target.y, list(agg.bad_channels),
                )
        targets = rejected
    if not entries:
        raise CalibrationError("every calibration target was rejected")
    return CalibrationSet.from_entries(entries)

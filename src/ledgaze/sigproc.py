"""Signal chain between ADC readings and regression-ready vectors.

Covers the per-channel exposure rule with saturation avoidance
(``adapt_exposure``), its replay from recorded readings
(``replay_exposure``), the exposure compensation (``compensate``) and the
first-order IIR low-pass filter applied to the compensated values before
regression, one LAPACK ``dgtsv`` solve per block. The simulator and the
session log reader both run this chain. The capture cycle that decides which
LED senses is ``eyesim.LedLayout.steps``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgtsv

from .core import ADC_MAX, ConfigError

# Readings at or beyond these counts trigger exposure adaptation.
SATURATION_HIGH = 1000
SATURATION_LOW = 23


def adapt_exposure(exposures_us, readings, exp_min_us: float, exp_max_us: float) -> np.ndarray:
    """Exposures after each reading: halve a near-saturated channel's, double a starved one's.

    ``readings`` holds one frame's counts, (M,), or a stack of frames, (n, M),
    each taken at ``exposures_us``; the result has the readings' shape.
    Mid-range readings keep their channel's exposure; adapted values clamp to
    [exp_min_us, exp_max_us].
    """
    readings = np.asarray(readings)
    if np.any((readings < 0) | (readings > ADC_MAX)):
        raise ConfigError(f"reading outside ADC range [0, {ADC_MAX}]")
    exp = np.asarray(exposures_us, dtype=float)
    new = np.where(readings >= SATURATION_HIGH, exp / 2.0,
                   np.where(readings <= SATURATION_LOW, exp * 2.0, exp))
    return np.clip(new, exp_min_us, exp_max_us)


@lru_cache(maxsize=64)
def _exposure_levels(start: tuple, emin: float, emax: float) -> tuple:
    """Every exposure ``adapt_exposure`` reaches from the start exposures, cached.

    Returns the levels in ascending order, (L,), and for each level the index
    of the level that each reading 0..ADC_MAX leads to, (L, ADC_MAX + 1).
    Both arrays are read-only. With 0 < emin <= emax, as ``SimConfig``
    requires, the levels are finitely many: halvings and doublings of the
    start exposures, emin and emax, within [emin, emax].
    """
    every_reading = np.arange(ADC_MAX + 1)
    levels = np.array(start, dtype=float)
    while True:
        moves = adapt_exposure(levels[:, None], every_reading, emin, emax)
        reach = np.union1d(levels, moves)
        if reach.size == levels.size:
            break
        levels = reach
    after = np.searchsorted(levels, moves)
    for arr in (levels, after):
        arr.flags.writeable = False
    return levels, after


def replay_exposure(raw, exposures_us, exp_min_us: float, exp_max_us: float,
                    reference_us: float) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's exposure scale, replayed from the readings alone.

    ``raw`` holds (n, M) counts, the first frame read at ``exposures_us``
    (M,) and each later one at the exposures ``adapt_exposure`` set from the
    frame before. Returns the (n, M) scales exposure / ``reference_us`` and
    the (M,) exposures after the last frame. Only a reading outside the dead
    band can change an exposure, so each channel walks those readings alone.
    """
    raw = np.asarray(raw)
    n, m = raw.shape
    bad = np.flatnonzero(((raw < 0) | (raw > ADC_MAX)).any(axis=1))
    if bad.size:
        raise ConfigError(f"frame {bad[0]} holds a reading outside ADC range [0, {ADC_MAX}]")
    exp = np.asarray(exposures_us, dtype=float)
    levels, after = _exposure_levels(tuple(np.unique(exp).tolist()), float(exp_min_us),
                                     float(exp_max_us))
    level_scale = levels / reference_us
    level = np.searchsorted(levels, exp)
    channel, frame = np.nonzero(((raw >= SATURATION_HIGH) | (raw <= SATURATION_LOW)).T)
    reading = raw[frame, channel].tolist()
    bounds = np.searchsorted(channel, np.arange(m + 1)).tolist()
    frame = frame.tolist()
    to_level = after.tolist()
    scales = np.empty((n, m))
    for c in range(m):
        e, start = int(level[c]), 0
        for i in range(bounds[c], bounds[c + 1]):
            to = to_level[e][reading[i]]
            if to != e:
                scales[start:frame[i] + 1, c] = level_scale[e]
                e, start = to, frame[i] + 1
        scales[start:, c] = level_scale[e]
        level[c] = e
    return scales, levels[level]


def compensate(raw, scales, out=None) -> np.ndarray:
    """Readings undone of their exposure: raw / ADC_MAX / scale, (n, M).

    ``out`` may be ``scales`` itself, which then holds the result.
    """
    return np.divide(raw / ADC_MAX, scales, out=out)


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
        """Filter one frame (M,) and return the new state, a copy the filter does not keep.

        A non-finite frame raises ``ConfigError`` and leaves the state as it
        was, as ``filter_block`` does for a block. The Python sum of one
        frame's values is the cheap test: NaN or an infinity makes it
        non-finite; an overflowing sum of finite values is checked entry by entry.
        """
        x = np.asarray(frame, dtype=float)
        state = self.state
        if state is not None and x.shape != state.shape:
            raise ConfigError("frame shape changed mid-stream")
        if not math.isfinite(sum(x.ravel().tolist())) and not np.isfinite(x).all():
            raise ConfigError(f"frame channel {np.isfinite(x).argmin()} is not finite")
        if state is None:
            self.state = x.copy()
            return x.copy()
        y = self.alpha * x
        y += (1.0 - self.alpha) * state
        self.state = y
        return y.copy()

    def filter_block(self, X) -> np.ndarray:
        """Filter a whole (n, M) block; identical to n sequential step() calls.

        One ``dgtsv`` solve, which rounds as step() does. Its back-substitution would spread a
        non-finite value to earlier rows, so a non-finite block raises ``ConfigError`` naming its
        first bad row. It may return +0.0 for an exact -0.0; the package filters only values >= 0.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.state is not None and X.shape[1:] != self.state.shape:
            raise ConfigError("frame shape changed mid-stream")
        if not np.isfinite(X).all():
            raise ConfigError(f"block row {np.isfinite(X).all(axis=1).argmin()} is not finite")
        n = X.shape[0]
        if n == 0:
            return X.copy()
        # alpha*X with the state in row 0, in the Fortran order dgtsv solves in place
        y = np.multiply(self.alpha, X, out=np.empty(X.shape, order="F"))
        y[0] = X[0] if self.state is None else y[0] + (1.0 - self.alpha) * self.state
        if n > 1:  # f2py rejects empty off-diagonals; one row is its own solution
            y, info = dgtsv(np.full(n - 1, self.alpha - 1.0), np.ones(n), np.zeros(n - 1), y,
                            overwrite_b=True)[3:]
            if info != 0:
                raise ConfigError(f"LAPACK dgtsv rejected argument {-info}")
        self.state = y[-1].copy()
        return np.ascontiguousarray(y)

"""Signal chain between ADC readings and regression-ready vectors.

Covers the per-channel exposure rule with saturation avoidance
(``adapt_exposure``) and the first-order IIR low-pass filter applied to
normalized channel values before regression. The capture cycle that decides
which LED senses when is ``eyesim.LedLayout.steps``.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

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


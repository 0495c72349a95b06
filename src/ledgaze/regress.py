"""Gaze estimation by kernel regression over a calibration matrix.

Two estimators share the same kernel machinery (``kernels.pairwise``):

  - GPR: e = k . alpha with predictive weights alpha = (C + eps*I)^-1 U,
    where C holds the pairwise measure values between stored calibration
    vectors, U their targets and k the measure values between the incoming
    frame and each stored vector. C built from a distance measure is
    generally not positive definite, so a small diagonal jitter keeps the
    solve honest; it escalates tenfold on failure up to a hard cap before
    giving up. A model factors once, solves for the predictive weights, and
    every estimate is one kernel evaluation and one product.
  - SVR: e = k . U with RBF similarities, optionally normalized by sum(k)
    so the output is a convex combination of stored targets.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from .core import (
    CalibrationSet,
    ConfigError,
    DimensionError,
    EstimationError,
    GazeEstimate,
    ScreenPoint,
)
from .kernels import MeasureSpec, pairwise

JITTER_CAP = 1e-2
_SUM_EPS = 1e-300  # below this, normalized SVR weights are considered vanished
# Up to this many frame and estimate values, a Python float sum is cheaper
# than two numpy reductions (a one-frame call holds a few dozen).
_FEW_VALUES = 64


def _require_finite(X, E: np.ndarray) -> None:
    """Raise instead of returning a number for a non-finite frame or estimate.

    Checking the frames as well as the estimates matters: an infinite reading
    drives every RBF similarity to zero, which yields a finite but meaningless
    estimate.

    One sum covers both in the common case: a NaN or an infinity makes it
    non-finite (inf - inf is NaN). Finite entries can also overflow it, so
    only a non-finite sum is checked entry by entry. A few values are summed
    as Python floats, a batch by numpy, which also warns of the overflow or
    of inf - inf in the sum.
    """
    X = np.asarray(X)
    if X.size + E.size <= _FEW_VALUES:
        total = sum(X.ravel().tolist()) + sum(E.ravel().tolist())
    else:
        total = np.add.reduce(X, None) + np.add.reduce(E, None)
    if not math.isfinite(total) and not (np.isfinite(X).all() and np.isfinite(E).all()):
        raise EstimationError("frame or gaze estimate is not finite")


class _KernelRegressor:
    """What the two estimators share: one frame is a one-row batch."""

    name: str

    def estimate(self, frame_vector, timestamp_us: int = 0) -> GazeEstimate:
        """One frame (M,) as a one-row estimate_batch.

        Within 1e-9 px of the frame's row in a larger batch on the seed-1 session.
        """
        x = np.asarray(frame_vector, dtype=float)
        if x.ndim != 1:
            raise DimensionError(f"a frame must be 1-d, got shape {x.shape}")
        return GazeEstimate(timestamp_us, ScreenPoint(*self.estimate_batch(x[None, :]).tolist()[0]),
                            self.name)


class GprModel(_KernelRegressor):
    """Gaussian-process-style regressor over a calibration set.

    Construction factors (C + eps*I) once and keeps the predictive weights
    alpha (P, 2). A calibration row with a non-finite mean or target raises
    EstimationError here, before any factorization: no jitter makes alpha
    finite. ``effective_jitter`` is the eps accepted and ``rcond`` the
    reciprocal 1-norm condition number of (C + eps*I), from LAPACK
    ``dgecon`` on the factors: near 0 means the estimates amplify rounding
    in the kernel values.
    """

    def __init__(self, calibration: CalibrationSet, measure: MeasureSpec, jitter: float = 1e-8):
        if not 0 < jitter < math.inf:  # a NaN would escalate forever, an infinity fail late
            raise ConfigError(f"jitter must be positive and finite, got {jitter!r}")
        self.calibration = calibration
        self.measure = measure
        self.jitter = jitter
        self.name = f"gpr-{measure.kind}"
        if not (np.isfinite(calibration.means).all() and np.isfinite(calibration.targets).all()):
            finite = np.isfinite(calibration.means).all(axis=1) & np.isfinite(calibration.targets).all(axis=1)
            raise EstimationError(f"calibration row {int(finite.argmin())} is not finite")
        C = pairwise(measure, calibration.means, calibration.means)
        # Jitter scales with the magnitude of C so normalized and raw-unit
        # calibrations behave alike; an all-zero C falls back to absolute.
        base = float(np.mean(np.abs(C)))
        self._jitter_base = base if base > 0 else 1.0
        self._factorize(C)

    def _factorize(self, C: np.ndarray) -> None:
        """LU-factor (C + eps*I), escalating eps until factors and alpha are finite.

        LAPACK is called directly, with the arithmetic of ``scipy.linalg.lu_factor``,
        ``C + eps*np.eye(n)`` and ``np.linalg.norm(A, 1)``.
        """
        n = C.shape[0]
        scale = self.jitter
        while True:
            eps = scale * self._jitter_base
            A = C.copy()
            A.ravel()[:: n + 1] += eps  # the diagonal, through a view of the fresh copy
            lu, piv, info = dgetrf(A)
            if info < 0:
                raise EstimationError(f"LAPACK dgetrf rejected argument {-info}")
            ok = bool(np.isfinite(lu).all())
            if ok:
                alpha, info = dgetrs(lu, piv, self.calibration.targets)
                if info != 0:
                    raise EstimationError(f"LAPACK dgetrs rejected argument {-info}")
                ok = bool(np.isfinite(alpha).all())
            if ok:
                self._alpha = alpha
                self.effective_jitter = eps
                self.rcond = float(dgecon(lu, np.abs(A).sum(axis=0).max())[0])
                return
            scale *= 10.0
            if scale > JITTER_CAP:
                raise EstimationError(
                    "covariance solve failed even at maximum diagonal jitter"
                )

    def estimate_batch(self, X) -> np.ndarray:
        """Estimated screen positions, one row per row of X (n, M)."""
        E = pairwise(self.measure, X, self.calibration.means) @ self._alpha  # (n, 2)
        _require_finite(X, E)
        return E

    def augmented(self, frame_vector, true_target: ScreenPoint) -> "GprModel":
        """New model fitted on the calibration set grown by one point."""
        return GprModel(self.calibration.append(frame_vector, true_target), self.measure, self.jitter)


class SvrModel(_KernelRegressor):
    """Kernel-weighted-sum regressor with RBF similarities.

    ``normalize=True`` (the default) divides by the weight sum, making the
    estimate a convex combination of stored targets; ``normalize=False``
    reproduces the bare weighted sum.
    """

    def __init__(self, calibration: CalibrationSet, sigma: float,
                 normalize: bool = True, rbf_squared: bool = False):
        if sigma <= 0:
            raise ConfigError("sigma must be positive")
        self.calibration = calibration
        self.sigma = sigma
        self.normalize = normalize
        self.measure = MeasureSpec(kind="rbf", sigma=sigma, rbf_squared=rbf_squared)
        self.name = "svr-rbf"

    def estimate_batch(self, X) -> np.ndarray:
        K = pairwise(self.measure, X, self.calibration.means)  # (n, P)
        E = K @ self.calibration.targets
        if self.normalize:
            s = K.sum(axis=1)
            if np.any(s <= _SUM_EPS):
                raise EstimationError(
                    "all similarity weights vanished; sigma too small for this frame"
                )
            E = E / s[:, None]
        _require_finite(X, E)
        return E

    def augmented(self, frame_vector, true_target: ScreenPoint) -> "SvrModel":
        return SvrModel(self.calibration.append(frame_vector, true_target),
                        self.sigma, self.normalize, self.measure.rbf_squared)


def grid_search_sigma(calibration: CalibrationSet, validation, grid,
                      normalize: bool = True, rbf_squared: bool = False) -> float:
    """Grid sigma minimizing mean SVR error over a validation set.

    ``validation`` is an (X, targets) pair of arrays: frame vectors (n, M)
    and their screen targets (n, 2). Ties break toward the smaller sigma.
    The pixel-space mean error is minimized; the fixed degrees-per-pixel
    scale cannot change the argmin.
    """
    grid = [float(s) for s in grid]
    if not grid:
        raise ConfigError("sigma grid must be non-empty")
    if any(s <= 0 for s in grid):
        raise ConfigError("all sigma candidates must be positive")
    X, T = (np.atleast_2d(np.asarray(a, dtype=float)) for a in validation)
    if X.shape[0] == 0:
        raise ConfigError("validation set must be non-empty")
    if T.shape != (X.shape[0], 2):
        raise ConfigError(f"validation targets shape {T.shape} does not match {X.shape[0]} frames")

    best_sigma = None
    best_err = None
    for s in grid:
        model = SvrModel(calibration, s, normalize=normalize, rbf_squared=rbf_squared)
        try:
            E = model.estimate_batch(X)
        except EstimationError:
            continue
        err = float(np.mean(np.hypot(E[:, 0] - T[:, 0], E[:, 1] - T[:, 1])))
        if best_err is None or err < best_err or (err == best_err and s < best_sigma):
            best_err = err
            best_sigma = s
    if best_sigma is None:
        raise EstimationError("no sigma candidate produced finite estimates")
    return best_sigma

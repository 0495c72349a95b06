"""Distance measures and kernel functions for comparing sensor vectors.

All measures operate on real-valued vectors (normalized channel readings),
never on raw ADC integers. ``pairwise`` is the one implementation of every
measure, over batches of vectors: one ``scipy.spatial.distance.cdist`` call
per measure, behind this module's own error contract. The scalar pair
functions evaluate it on a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .core import ConfigError, DegenerateInputError, DimensionError

MEASURE_KINDS = ("minkowski", "rbf", "cosine", "manhattan", "canberra")
_CDIST_METRIC = {"cosine": "cosine", "manhattan": "cityblock", "canberra": "canberra"}
_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class MeasureSpec:
    """Configuration for one distance measure.

    ``m`` and ``weights`` apply to minkowski only; ``sigma`` and
    ``rbf_squared`` apply to rbf only. ``rbf_squared`` switches from the
    plain-norm exponent (the default) to the textbook squared-norm Gaussian.
    """

    kind: str = "minkowski"
    m: float = 2.0
    weights: tuple[float, ...] | None = None
    sigma: float = 1.0
    rbf_squared: bool = False

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ConfigError(f"unknown measure kind {self.kind!r}")
        if not self.m >= 1:  # NaN fails too; +inf is the Chebyshev distance
            raise ConfigError(f"minkowski norm degree m must be >= 1, got {self.m!r}")
        if not 0 < self.sigma < np.inf:
            raise ConfigError(f"rbf sigma must be positive and finite, got {self.sigma!r}")
        if self.weights is not None and not all(0 <= w < np.inf for w in self.weights):
            raise ConfigError(f"minkowski weights must be non-negative and finite, "
                              f"got {self.weights!r}")

    def distance(self, a, b) -> float:
        """Evaluate this measure on one pair of vectors."""
        a, b = _pair(a, b)
        return float(pairwise(self, a[None, :], b[None, :])[0, 0])


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(f"vectors must be 1-d and equal length, got {a.shape} vs {b.shape}")
    return a, b


def minkowski(a, b, m: float = 2.0, w: Sequence[float] | None = None) -> float:
    """Weighted l_m norm of the coordinate differences."""
    return MeasureSpec("minkowski", m=m, weights=None if w is None else tuple(w)).distance(a, b)


def rbf(a, b, sigma: float, squared: bool = False) -> float:
    """Radial-basis similarity exp(-||a-b|| / (2 sigma^2)), in (0, 1].

    ``squared=True`` uses the squared Euclidean norm in the exponent instead
    of the plain norm.
    """
    return MeasureSpec("rbf", sigma=sigma, rbf_squared=squared).distance(a, b)


def cosine(a, b) -> float:
    """Cosine distance 1 - a.b / (|a||b|); requires non-zero vectors."""
    return MeasureSpec("cosine").distance(a, b)


def manhattan(a, b) -> float:
    """Sum of absolute coordinate differences."""
    return MeasureSpec("manhattan").distance(a, b)


def canberra(a, b) -> float:
    """Sum of |a_i - b_i| / (|a_i| + |b_i|); 0/0 terms contribute 0."""
    return MeasureSpec("canberra").distance(a, b)


def _rows(A) -> np.ndarray:
    """A as a 2-D float array, returned unconverted when it already is one."""
    if type(A) is np.ndarray and A.ndim == 2 and A.dtype == _FLOAT:
        return A
    return np.atleast_2d(np.asarray(A, dtype=float))


def pairwise(spec: MeasureSpec, A, B) -> np.ndarray:
    """Measure evaluated between every row of A (n, M) and of B (P, M).

    Returns an (n, P) array whose row i, column p is the measure between
    A[i] and B[p]. Mismatched channel or weight counts raise
    ``DimensionError`` and a zero row under cosine ``DegenerateInputError``,
    where ``cdist`` would raise ``ValueError`` or return NaN.
    """
    A = _rows(A)
    B = _rows(B)
    if A.shape[1] != B.shape[1]:
        raise DimensionError(
            f"channel counts differ: {A.shape[1]} vs {B.shape[1]}"
        )
    if spec.kind == "minkowski":
        if spec.weights is None:
            return cdist(A, B, "minkowski", p=spec.m)
        if len(spec.weights) != A.shape[1]:
            raise DimensionError("weights must match channel count")
        return cdist(A, B, "minkowski", p=spec.m, w=spec.weights)
    if spec.kind == "rbf":
        # exp(-d / (2 sigma^2)), each step in cdist's output
        d = cdist(A, B, "sqeuclidean" if spec.rbf_squared else "euclidean")
        np.negative(d, out=d)
        d /= 2.0 * spec.sigma * spec.sigma
        return np.exp(d, out=d)
    if spec.kind == "cosine":
        if not (np.linalg.norm(A, axis=1).all() and np.linalg.norm(B, axis=1).all()):
            raise DegenerateInputError("cosine distance is undefined for zero vectors")
    return cdist(A, B, _CDIST_METRIC[spec.kind])

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from ledgaze.core import ConfigError, DegenerateInputError, DimensionError
from ledgaze.kernels import (
    MeasureSpec,
    canberra,
    cosine,
    manhattan,
    minkowski,
    pairwise,
    rbf,
)
from ledgaze.session import SessionConfig, run_benchmark_session

from oracles import (
    canberra_scalar,
    cosine_scalar,
    manhattan_scalar,
    minkowski_scalar,
    pairwise_oracle,
    rbf_scalar,
)

ORACLES = {
    "minkowski": lambda a, b, spec: minkowski_scalar(a, b, spec.m, spec.weights),
    "rbf": lambda a, b, spec: rbf_scalar(a, b, spec.sigma, spec.rbf_squared),
    "cosine": lambda a, b, spec: cosine_scalar(a, b),
    "manhattan": lambda a, b, spec: manhattan_scalar(a, b),
    "canberra": lambda a, b, spec: canberra_scalar(a, b),
}


def test_minkowski_euclidean_345():
    assert minkowski((0, 0), (3, 4), 2, (1, 1)) == pytest.approx(5.0)


def test_minkowski_identity():
    assert minkowski((7, 7, 7), (7, 7, 7), 2, (1, 1, 1)) == 0.0


def test_minkowski_m1_is_manhattan_special_case():
    assert minkowski((1, 1), (4, 5), 1, (1, 1)) == pytest.approx(7.0)


def test_minkowski_against_scalar_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        a, b = rng.normal(size=n), rng.normal(size=n)
        w = rng.uniform(0, 2, n)
        m = float(rng.uniform(1, 4))
        assert minkowski(a, b, m, w) == pytest.approx(minkowski_scalar(a, b, m, w), rel=1e-12)


def test_minkowski_errors():
    with pytest.raises(DimensionError):
        minkowski((1, 2), (1, 2, 3))
    with pytest.raises(DimensionError):
        minkowski((1, 2), (1, 2), w=(1, 1, 1))
    with pytest.raises(ConfigError):
        minkowski((1, 2), (3, 4), m=0.5)


def test_rbf_self_similarity_is_one():
    a = np.array([0.3, 0.9, 0.1])
    assert rbf(a, a, sigma=0.7) == 1.0


def test_rbf_hand_evaluated_value():
    # ||a-b|| = 5 and 2 sigma^2 = 5 gives exp(-1)
    val = rbf((0, 0), (3, 4), sigma=math.sqrt(2.5))
    assert val == pytest.approx(math.exp(-1), rel=1e-12)
    assert val == pytest.approx(0.367879441, rel=1e-8)


def test_rbf_large_sigma_limit():
    assert rbf((0, 0), (3, 4), sigma=1e9) == pytest.approx(1.0, abs=1e-12)


def test_rbf_squared_variant():
    a, b = np.zeros(2), np.array([3.0, 4.0])
    assert rbf(a, b, sigma=1.0, squared=True) == pytest.approx(math.exp(-25 / 2))
    assert rbf(a, b, sigma=1.0, squared=False) == pytest.approx(math.exp(-5 / 2))


def test_rbf_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a, b = rng.normal(size=5), rng.normal(size=5)
        v = rbf(a, b, sigma=float(rng.uniform(0.1, 3)))
        assert 0.0 < v <= 1.0


def test_cosine_colinear_is_zero():
    a = np.array([1.0, 2.0, 3.0])
    assert cosine(a, 2 * a) == pytest.approx(0.0, abs=1e-12)


def test_cosine_zero_vector_rejected():
    with pytest.raises(DegenerateInputError):
        cosine((0, 0), (1, 2))


def test_manhattan_example():
    assert manhattan((1, 2), (4, 6)) == pytest.approx(7.0)


def test_canberra_zero_term_convention():
    # the 0/0 coordinate contributes nothing; |1-3|/(1+3) remains
    assert canberra((0, 1), (0, 3)) == pytest.approx(0.5)


def test_canberra_all_zero_vectors():
    assert canberra((0, 0), (0, 0)) == 0.0


def test_minkowski_m1_equals_manhattan_property():
    rng = np.random.default_rng(13)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        a, b = rng.normal(size=n) * 10, rng.normal(size=n) * 10
        assert minkowski(a, b, 1.0) == manhattan(a, b)


def test_all_measures_symmetric():
    rng = np.random.default_rng(14)
    for _ in range(200):
        a, b = rng.uniform(0.01, 1, 6), rng.uniform(0.01, 1, 6)
        assert minkowski(a, b, 2) == minkowski(b, a, 2)
        assert manhattan(a, b) == manhattan(b, a)
        assert canberra(a, b) == canberra(b, a)
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-15)
        assert rbf(a, b, 0.5) == rbf(b, a, 0.5)


def test_self_distance_zero_and_self_similarity_one():
    rng = np.random.default_rng(15)
    for _ in range(100):
        a = rng.uniform(0.01, 1, 8)
        assert minkowski(a, a) == 0.0
        assert manhattan(a, a) == 0.0
        assert canberra(a, a) == 0.0
        assert cosine(a, a) == pytest.approx(0.0, abs=1e-12)
        assert rbf(a, a, 0.3) == 1.0


def test_minkowski_triangle_inequality_m2():
    rng = np.random.default_rng(16)
    for _ in range(300):
        a, b, c = (rng.normal(size=7) for _ in range(3))
        assert minkowski(a, c, 2) <= minkowski(a, b, 2) + minkowski(b, c, 2) + 1e-12


def test_measure_spec_validation():
    with pytest.raises(ConfigError):
        MeasureSpec(kind="chebyshev")
    with pytest.raises(ConfigError):
        MeasureSpec(m=0.2)
    with pytest.raises(ConfigError):
        MeasureSpec(kind="rbf", sigma=0.0)
    with pytest.raises(ConfigError):
        MeasureSpec(weights=(1.0, -0.5))


@pytest.mark.parametrize("kw", [
    {"m": math.nan},
    {"kind": "rbf", "sigma": math.nan},
    {"kind": "rbf", "sigma": math.inf},
    {"weights": (1.0, math.nan)},
    {"weights": (math.inf, 1.0)},
])
def test_measure_spec_rejects_non_finite_parameters(kw):
    # each passed the sign checks before, and every kernel value came out NaN or inf
    with pytest.raises(ConfigError):
        MeasureSpec(**kw)


def test_minkowski_m_infinity_is_chebyshev():
    assert minkowski([0.0, 0.0, 1.0], [3.0, -4.0, 1.0], m=math.inf) == 4.0


@pytest.mark.parametrize("kind,kw", [
    ("minkowski", {"m": 2.0}),
    ("minkowski", {"m": 3.0, "weights": (0.5, 1.0, 2.0, 0.1)}),
    ("rbf", {"sigma": 0.4}),
    ("rbf", {"sigma": 0.4, "rbf_squared": True}),
    ("cosine", {}),
    ("manhattan", {}),
    ("canberra", {}),
])
def test_pairwise_matches_scalar(kind, kw):
    rng = np.random.default_rng(17)
    A = rng.uniform(0.05, 1, (9, 4))
    B = rng.uniform(0.05, 1, (5, 4))
    spec = MeasureSpec(kind=kind, **kw)
    K = pairwise(spec, A, B)
    assert K.shape == (9, 5)
    for i in range(9):
        for j in range(5):
            expected = ORACLES[kind](list(A[i]), list(B[j]), spec)
            assert K[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_pairwise_matches_oracle_with_zero_coordinates(kind):
    # Zero coordinates hit canberra's 0/0 convention; rows stay non-zero for cosine.
    rng = np.random.default_rng(18)
    A = rng.uniform(0.0, 1, (6, 5)) * (rng.random((6, 5)) < 0.6)
    B = rng.uniform(0.0, 1, (4, 5)) * (rng.random((4, 5)) < 0.6)
    A[:, 0] = B[:, 0] = 0.5
    spec = (MeasureSpec(kind=kind, m=1.5, weights=(1.0, 0.2, 0.0, 2.0, 0.7))
            if kind == "minkowski" else MeasureSpec(kind=kind))
    K = pairwise(spec, A, B)
    for i in range(6):
        for j in range(4):
            expected = ORACLES[kind](list(A[i]), list(B[j]), spec)
            assert K[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_pairwise_dimension_error():
    # DimensionError, not the bare ValueError cdist raises for either case
    with pytest.raises(DimensionError):
        pairwise(MeasureSpec(), np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(DimensionError):
        pairwise(MeasureSpec(m=1.5, weights=(1.0,) * 11), np.ones((3, 12)), np.ones((2, 12)))


# -- cdist path against the broadcast oracle at benchmark shapes ----------------

_WEIGHTS = tuple(np.linspace(0.2, 2.0, 12))
_BENCH_SPECS = [MeasureSpec("minkowski", m=m, weights=w)
                for m in (1.0, 1.5, 2.0, 3.0) for w in (None, _WEIGHTS)] + [
    MeasureSpec("rbf", sigma=0.3),
    MeasureSpec("rbf", sigma=0.3, rbf_squared=True),
    MeasureSpec("cosine"),
    MeasureSpec("manhattan"),
    MeasureSpec("canberra"),
]


@pytest.fixture(scope="module")
def session_readings():
    """Evaluation-run readings (~4.4k x 12) and the 82 augmented calibration means."""
    log, cal = run_benchmark_session(SessionConfig(seed=1))
    assert log.proc.shape[1] == cal.means.shape[1] == 12 and cal.point_count == 82
    return log.proc, cal.means


@pytest.mark.parametrize("spec", _BENCH_SPECS, ids=lambda s: (
    f"{s.kind}-m{s.m}-{'w' if s.weights else 'unw'}" if s.kind == "minkowski"
    else f"rbf-{'sq' if s.rbf_squared else 'plain'}" if s.kind == "rbf" else s.kind))
def test_pairwise_matches_broadcast_oracle_at_benchmark_shapes(spec, session_readings):
    X, B = session_readings
    # Cosine is 1 minus a ratio, so its rounding is absolute: a few ulps of 1.
    atol = 8 * np.finfo(float).eps if spec.kind == "cosine" else 0.0
    K = pairwise(spec, X, B)
    assert K.shape == (X.shape[0], 82)
    np.testing.assert_allclose(K, pairwise_oracle(spec, X, B), rtol=1e-12, atol=atol)
    for i in (0, X.shape[0] // 2, X.shape[0] - 1):
        one = pairwise(spec, X[i], B)
        np.testing.assert_allclose(one, pairwise_oracle(spec, X[i], B), rtol=1e-12, atol=atol)
        assert np.array_equal(one, K[i:i + 1])  # one frame is one row of the batch


@pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_weighted_pairwise_equals_cdist_on_the_weight_tuple_bit_for_bit(m, session_readings):
    # pairwise hands the spec's weight tuple to cdist as it is
    X, B = session_readings
    spec = MeasureSpec("minkowski", m=m, weights=_WEIGHTS)
    expected = cdist(X, B, "minkowski", p=m, w=np.asarray(_WEIGHTS, dtype=float))
    assert np.array_equal(pairwise(spec, X, B), expected)
    assert np.array_equal(pairwise(spec, X[:1], B), expected[:1])


@st.composite
def rbf_batches(draw):
    """(A, B, sigma, squared): two batches of vectors with one channel count, and an rbf spec."""
    m = draw(st.integers(1, 12))
    coords = st.floats(-1e3, 1e3, allow_subnormal=False)
    A = draw(hnp.arrays(float, (draw(st.integers(1, 40)), m), elements=coords))
    B = draw(hnp.arrays(float, (draw(st.integers(1, 40)), m), elements=coords))
    sigma = draw(st.floats(1e-3, 1e3))
    return A, B, sigma, draw(st.booleans())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rbf_batches())
def test_rbf_pairwise_equals_the_textbook_expression_bit_for_bit(batch):
    # pairwise negates, divides and exponentiates in cdist's output array
    A, B, sigma, squared = batch
    d = cdist(A, B, "sqeuclidean" if squared else "euclidean")
    expected = np.exp(-d / (2.0 * sigma * sigma))
    got = pairwise(MeasureSpec("rbf", sigma=sigma, rbf_squared=squared), A, B)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_pairwise_cosine_zero_row_inside_batch_raises():
    A = np.random.default_rng(19).uniform(0.05, 1, (50, 12))
    A[25] = 0.0
    with pytest.raises(DegenerateInputError):
        pairwise(MeasureSpec("cosine"), A, np.ones((4, 12)))
    with pytest.raises(DegenerateInputError):
        pairwise(MeasureSpec("cosine"), np.ones((4, 12)), A)

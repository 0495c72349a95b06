import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ledgaze.core import (
    CalibrationSet,
    ConfigError,
    DimensionError,
    EstimationError,
    ScreenPoint,
)
from ledgaze.kernels import MeasureSpec, pairwise
from ledgaze import regress
from ledgaze.regress import GprModel, SvrModel, _require_finite, grid_search_sigma
from ledgaze.session import SessionConfig, run_benchmark_session

from oracles import gpr_oracle

MINK = MeasureSpec(kind="minkowski")


def _random_calibration(rng, P, M, spread=600.0):
    means = rng.uniform(0, 1, (P, M))
    targets = rng.uniform(0, spread, (P, 2))
    return CalibrationSet(means, targets)


# -- similarity vector: measure values between one frame and every entry ------


def _similarity(frame, cal):
    return pairwise(MINK, np.asarray(frame, dtype=float)[None, :], cal.means)[0]


def test_similarity_vector_zero_at_matching_entry():
    rng = np.random.default_rng(21)
    cal = _random_calibration(rng, 6, 4)
    k = _similarity(cal.means[3], cal)
    assert k.shape == (6,)
    assert k[3] == 0.0


def test_similarity_vector_single_entry():
    cal = CalibrationSet([[0.5, 0.5]], [[10, 10]])
    k = _similarity([0.1, 0.1], cal)
    assert k.shape == (1,)


def test_similarity_vector_hand_values():
    cal = CalibrationSet([[0, 0], [3, 4]], [[0, 0], [1, 1]])
    k = _similarity([1.0, 1.0], cal)
    assert k[0] == pytest.approx(math.sqrt(2))
    assert k[1] == pytest.approx(math.sqrt(13))


def test_similarity_vector_dimension_error():
    cal = CalibrationSet([[0.1, 0.2]], [[0, 0]])
    with pytest.raises(DimensionError):
        _similarity([0.1, 0.2, 0.3], cal)
    for model in (GprModel(cal, MINK), SvrModel(cal, sigma=0.3)):
        with pytest.raises(DimensionError):
            model.estimate([0.1, 0.2, 0.3])


# -- GPR -----------------------------------------------------------------------


def test_gpr_interpolates_calibration_inputs():
    rng = np.random.default_rng(22)
    cal = _random_calibration(rng, 16, 12)
    model = GprModel(cal, MINK, jitter=1e-8)
    E = model.estimate_batch(cal.means)
    assert np.max(np.abs(E - cal.targets)) < 1e-4


def test_gpr_single_point_closed_form():
    # with one entry the solve is k1*u1 / (C11 + eps)
    cal = CalibrationSet([[0.2, 0.4]], [[120.0, 80.0]])
    model = GprModel(cal, MINK, jitter=1e-8)
    frame = np.array([0.5, 0.8])
    k1 = math.hypot(0.3, 0.4)
    expected = np.array([120.0, 80.0]) * k1 / (0.0 + model.effective_jitter)
    est = model.estimate(frame, timestamp_us=5)
    assert est.timestamp_us == 5
    assert est.method == "gpr-minkowski"
    assert est.position.x == pytest.approx(expected[0], rel=1e-9)
    assert est.position.y == pytest.approx(expected[1], rel=1e-9)


def test_gpr_matches_gaussian_elimination_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        P = int(rng.integers(2, 12))
        cal = _random_calibration(rng, P, 5)
        model = GprModel(cal, MINK, jitter=1e-8)
        frame = rng.uniform(0, 1, 5)
        got = model.estimate_batch(frame[None, :])[0]
        ex, ey = gpr_oracle(cal.means.tolist(), cal.targets.tolist(),
                            frame.tolist(), model.effective_jitter)
        assert got[0] == pytest.approx(ex, rel=1e-9, abs=1e-9)
        assert got[1] == pytest.approx(ey, rel=1e-9, abs=1e-9)


def test_gpr_solver_residual_on_random_spd_perturbed_systems():
    from scipy.linalg import lu_factor, lu_solve
    rng = np.random.default_rng(24)
    for P in (5, 20, 50, 100):
        A = rng.normal(size=(P, P))
        C = A @ A.T + 1e-8 * np.eye(P)
        k = rng.normal(size=P)
        z = lu_solve(lu_factor(C), k)
        resid = np.max(np.abs(C @ z - k))
        assert resid <= 1e-9 * max(np.max(np.abs(k)), 1.0)


def _with_near_duplicates(cal, rng, spread=1e-7):
    """``cal`` with its last five rows replaced by rows within ``spread`` of one another."""
    means = cal.means.copy()
    means[-5:] = means[-5] + rng.uniform(-spread, spread, (5, means.shape[1]))
    return CalibrationSet(means, cal.targets)


GPR_MEASURES = pytest.mark.parametrize("measure", [MINK, MeasureSpec(kind="cosine")],
                                       ids=["minkowski", "cosine"])
GPR_KINDS = pytest.mark.parametrize("kind", ["random", "near-singular"])


def _gpr_case(kind, measure):
    """A 40-point model, its (C + eps*I) LU factors and 300 frames."""
    from scipy.linalg import lu_factor
    rng = np.random.default_rng(37)
    cal = _random_calibration(rng, 40, 12)
    if kind == "near-singular":
        cal = _with_near_duplicates(cal, rng)
    model = GprModel(cal, measure)
    C = pairwise(measure, cal.means, cal.means)
    lu = lu_factor(C + model.effective_jitter * np.eye(cal.point_count), check_finite=False)
    return model, lu, rng.uniform(0.05, 1, (300, 12))


@GPR_MEASURES
@GPR_KINDS
def test_gpr_estimates_equal_lu_solve_reference_bit_for_bit(kind, measure):
    from scipy.linalg import lu_solve
    model, lu, X = _gpr_case(kind, measure)
    cal = model.calibration

    def reference(X):
        return pairwise(measure, X, cal.means) @ lu_solve(lu, cal.targets, check_finite=False)

    assert np.array_equal(model.estimate_batch(X), reference(X))
    for i in (0, 299):  # the one-frame call against a one-row reference
        e = model.estimate(X[i])
        assert (e.position.x, e.position.y) == tuple(reference(X[i:i + 1])[0])


@GPR_MEASURES
@GPR_KINDS
def test_gpr_predictive_weights_agree_with_per_frame_solve(kind, measure):
    # k . ((C + eps*I)^-1 U) against ((C + eps*I)^-1 k) . U: equal for the
    # symmetric C, apart from rounding amplified by the condition number
    from scipy.linalg import lu_solve
    model, lu, X = _gpr_case(kind, measure)
    targets = model.calibration.targets
    K = pairwise(measure, X, model.calibration.means)
    per_frame = lu_solve(lu, K.T, check_finite=False).T @ targets
    bound = np.finfo(float).eps / model.rcond * np.abs(targets).max()
    assert np.max(np.abs(model.estimate_batch(X) - per_frame)) <= bound


@GPR_MEASURES
@GPR_KINDS
def test_gpr_rcond_equals_the_scipy_reference_bit_for_bit(kind, measure):
    # the direct LAPACK calls keep the arithmetic of lu_factor, C + eps*I and norm(A, 1)
    from scipy.linalg.lapack import dgecon
    model, lu, _ = _gpr_case(kind, measure)
    cal = model.calibration
    A = pairwise(measure, cal.means, cal.means) + model.effective_jitter * np.eye(cal.point_count)
    assert model.rcond == float(dgecon(lu[0], np.linalg.norm(A, 1))[0])


def test_gpr_one_frame_estimate_within_1e9_px_of_batch_row():
    # BLAS may sum a (1, P) and an (n, P) product in different orders, so the
    # two paths agree to a stated tolerance, not bit for bit
    config = SessionConfig(seed=1)
    log, cal = run_benchmark_session(config)
    model = config.build_estimator(cal)
    assert isinstance(model, GprModel) and cal.point_count == 82
    E = model.estimate_batch(log.proc)
    one = np.array([(e.position.x, e.position.y) for e in map(model.estimate, log.proc)])
    assert np.max(np.abs(one - E)) <= 1e-9


def test_gpr_solve_failure_raises_estimation_error(monkeypatch):
    import ledgaze.regress as regress
    rng = np.random.default_rng(38)
    cal = _random_calibration(rng, 6, 4)
    monkeypatch.setattr(regress, "dgetrs", lambda lu, piv, b: (b, -3))
    with pytest.raises(EstimationError, match="argument 3"):
        GprModel(cal, MINK)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_gpr_non_finite_targets_raise_at_construction(bad):
    rng = np.random.default_rng(40)
    cal = _random_calibration(rng, 6, 4)
    cal.targets[2, 1] = bad
    with pytest.raises(EstimationError, match="calibration row 2 is not finite"):
        GprModel(cal, MINK)


def test_gpr_rcond_small_for_near_duplicate_rows():
    rng = np.random.default_rng(39)
    cal = _random_calibration(rng, 20, 12)
    spread = GprModel(cal, MINK)
    tight = GprModel(_with_near_duplicates(cal, rng), MINK)
    assert 0.0 < tight.rcond < 1e-4 * spread.rcond


def test_gpr_permutation_equivariance():
    rng = np.random.default_rng(25)
    cal = _random_calibration(rng, 10, 6)
    perm = rng.permutation(10)
    cal_p = CalibrationSet(cal.means[perm], cal.targets[perm])
    X = rng.uniform(0, 1, (7, 6))
    e1 = GprModel(cal, MINK).estimate_batch(X)
    e2 = GprModel(cal_p, MINK).estimate_batch(X)
    assert np.max(np.abs(e1 - e2)) < 1e-12 * max(1.0, np.max(np.abs(e1)))


def test_gpr_jitter_must_be_positive():
    # a NaN jitter never reaches the escalation cap, and an infinite one fails every solve
    cal = CalibrationSet([[0.1, 0.2]], [[0, 0]])
    for jitter in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ConfigError, match=f"^jitter must be positive and finite, got {jitter}$"):
            GprModel(cal, MINK, jitter=jitter)


def test_gpr_unrecoverable_solve_raises_after_escalation():
    # a non-finite mean is rejected by row before any jitter level is tried;
    # test_gpr_escalation_stops_at_jitter_cap reaches the cap
    cal = CalibrationSet([[np.inf, 0.2], [0.1, 0.4]], [[0, 0], [10, 10]])
    with pytest.raises(EstimationError, match="calibration row 0 is not finite"):
        GprModel(cal, MINK)


def test_gpr_escalation_stops_at_jitter_cap(monkeypatch):
    # finite data whose factors are never finite: one factorization per
    # jitter level, 1e-8 up to the 1e-2 cap, then the cap error
    calls = []

    def dgetrf(A):
        calls.append(A)
        return np.full_like(A, np.nan), np.arange(1, A.shape[0] + 1, dtype=np.int32), 0

    monkeypatch.setattr(regress, "dgetrf", dgetrf)
    cal = _random_calibration(np.random.default_rng(41), 6, 4)
    with pytest.raises(EstimationError, match="maximum diagonal jitter"):
        GprModel(cal, MINK)
    assert len(calls) == 7


def test_gpr_factorization_argument_error_raises_estimation_error(monkeypatch):
    monkeypatch.setattr(regress, "dgetrf", lambda A: (A, np.zeros(A.shape[0], np.int32), -4))
    with pytest.raises(EstimationError, match="dgetrf rejected argument 4"):
        GprModel(_random_calibration(np.random.default_rng(42), 6, 4), MINK)


def test_gpr_rebuild_required_after_augment():
    rng = np.random.default_rng(26)
    cal = _random_calibration(rng, 8, 4)
    model = GprModel(cal, MINK)
    grown = model.augmented(rng.uniform(0, 1, 4), ScreenPoint(5.0, 6.0))
    assert grown.calibration.point_count == 9
    assert model.calibration.point_count == 8
    # the new entry interpolates exactly in the rebuilt model
    e = grown.estimate_batch(grown.calibration.means[-1][None, :])[0]
    assert np.allclose(e, [5.0, 6.0], atol=1e-4)


# -- SVR -----------------------------------------------------------------------


def test_svr_dominant_weight_limit():
    rng = np.random.default_rng(27)
    cal = _random_calibration(rng, 5, 4)
    model = SvrModel(cal, sigma=0.01, normalize=True)
    e = model.estimate_batch(cal.means[2][None, :])[0]
    assert np.allclose(e, cal.targets[2], atol=1e-6)


def test_svr_equidistant_midpoint():
    cal = CalibrationSet([[0.0, 0.0], [1.0, 0.0]], [[100, 200], [300, 400]])
    model = SvrModel(cal, sigma=0.5, normalize=True)
    e = model.estimate_batch(np.array([[0.5, 0.0]]))[0]
    assert np.allclose(e, [200.0, 300.0], atol=1e-9)


def test_svr_unnormalized_large_sigma_sums_targets():
    rng = np.random.default_rng(28)
    cal = _random_calibration(rng, 6, 3)
    model = SvrModel(cal, sigma=1e8, normalize=False)
    e = model.estimate_batch(rng.uniform(0, 1, (1, 3)))[0]
    assert np.allclose(e, cal.targets.sum(axis=0), rtol=1e-6)


def test_svr_convex_combination_property():
    rng = np.random.default_rng(29)
    cal = _random_calibration(rng, 8, 5)
    model = SvrModel(cal, sigma=0.3, normalize=True)
    X = rng.uniform(0, 1, (40, 5))
    E = model.estimate_batch(X)
    lo = cal.targets.min(axis=0) - 1e-9
    hi = cal.targets.max(axis=0) + 1e-9
    assert np.all(E >= lo) and np.all(E <= hi)


def test_svr_vanishing_weights_raise():
    cal = CalibrationSet([[0.0, 0.0]], [[10, 10]])
    model = SvrModel(cal, sigma=1e-3, normalize=True)
    with pytest.raises(EstimationError):
        model.estimate_batch(np.array([[1.0, 1.0]]))


def test_svr_permutation_equivariance():
    rng = np.random.default_rng(30)
    cal = _random_calibration(rng, 9, 4)
    perm = rng.permutation(9)
    cal_p = CalibrationSet(cal.means[perm], cal.targets[perm])
    X = rng.uniform(0, 1, (5, 4))
    e1 = SvrModel(cal, 0.4).estimate_batch(X)
    e2 = SvrModel(cal_p, 0.4).estimate_batch(X)
    assert np.max(np.abs(e1 - e2)) < 1e-12 * max(1.0, np.max(np.abs(e1)))


# -- sigma grid search -----------------------------------------------------------


def test_grid_search_single_candidate():
    cal = CalibrationSet([[0.1, 0.1], [0.9, 0.9]], [[0, 0], [100, 100]])
    val = (np.array([[0.1, 0.1]]), np.array([[0.0, 0.0]]))
    assert grid_search_sigma(cal, val, [0.37]) == 0.37


def test_grid_search_finds_known_best():
    # validation targets generated by an SVR model at a known sigma; the
    # exhaustive evaluation over the grid is the oracle
    rng = np.random.default_rng(31)
    cal = CalibrationSet(rng.uniform(0, 1, (12, 4)), rng.uniform(0, 500, (12, 2)))
    true_sigma = 0.3
    gen = SvrModel(cal, true_sigma, normalize=True)
    X = rng.uniform(0, 1, (30, 4))
    E = gen.estimate_batch(X)
    val = (X, E)
    grid = [0.05, 0.1, 0.3, 0.9, 2.0]
    errs = {}
    for s in grid:
        Es = SvrModel(cal, s, normalize=True).estimate_batch(X)
        errs[s] = float(np.mean(np.hypot(Es[:, 0] - E[:, 0], Es[:, 1] - E[:, 1])))
    best_by_enumeration = min(grid, key=lambda s: (errs[s], s))
    assert best_by_enumeration == true_sigma  # sanity of the construction
    assert grid_search_sigma(cal, val, grid) == true_sigma


def test_grid_search_tie_breaks_to_smaller_sigma():
    # one calibration point: every sigma predicts the stored target exactly,
    # so all errors tie and the smaller sigma must win
    cal = CalibrationSet([[0.5, 0.5]], [[50, 50]])
    val = (np.array([[0.2, 0.2]]), np.array([[50.0, 50.0]]))
    assert grid_search_sigma(cal, val, [0.9, 0.3, 0.6]) == 0.3


def test_grid_search_result_is_grid_member():
    rng = np.random.default_rng(32)
    cal = CalibrationSet(rng.uniform(0, 1, (6, 3)), rng.uniform(0, 100, (6, 2)))
    val = (rng.uniform(0, 1, (10, 3)), rng.uniform(0, 100, (10, 2)))
    grid = [0.07, 0.21, 0.63]
    assert grid_search_sigma(cal, val, grid) in grid


def test_grid_search_argument_errors():
    cal = CalibrationSet([[0.5, 0.5]], [[50, 50]])
    val = (np.array([[0.1, 0.1]]), np.array([[0.0, 0.0]]))
    with pytest.raises(ConfigError):
        grid_search_sigma(cal, (np.empty((0, 2)), np.empty((0, 2))), [0.1])
    with pytest.raises(ConfigError):
        grid_search_sigma(cal, val, [])
    with pytest.raises(ConfigError):
        grid_search_sigma(cal, val, [-1.0])


def test_grid_search_rejects_mismatched_validation_rows():
    cal = CalibrationSet([[0.5, 0.5]], [[50, 50]])
    val = (np.array([[0.1, 0.1], [0.2, 0.2]]), np.array([[0.0, 0.0]]))
    with pytest.raises(ConfigError):
        grid_search_sigma(cal, val, [0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("make", [
    lambda cal: GprModel(cal, MINK),
    lambda cal: GprModel(cal, MeasureSpec(kind="rbf", sigma=0.3)),
    lambda cal: SvrModel(cal, sigma=0.3),
    lambda cal: SvrModel(cal, sigma=0.3, normalize=False),
], ids=["gpr", "gpr-rbf", "svr", "svr-unnormalized"])
def test_non_finite_frame_raises(make, bad):
    rng = np.random.default_rng(36)
    model = make(_random_calibration(rng, 8, 4))
    frame = rng.uniform(0, 1, 4)
    frame[1] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(EstimationError):
            model.estimate_batch(frame[None, :])


ALL_ESTIMATORS = pytest.mark.parametrize("make", [
    *(lambda cal, kind=kind: GprModel(cal, MeasureSpec(kind=kind, sigma=0.5))
      for kind in ("minkowski", "rbf", "cosine", "manhattan", "canberra")),
    lambda cal: SvrModel(cal, sigma=0.3),
    lambda cal: SvrModel(cal, sigma=0.3, normalize=False),
], ids=["gpr-minkowski", "gpr-rbf", "gpr-cosine", "gpr-manhattan", "gpr-canberra",
        "svr", "svr-unnormalized"])


@ALL_ESTIMATORS
def test_estimate_is_its_one_row_batch_bit_for_bit(make):
    rng = np.random.default_rng(39)
    model = make(_random_calibration(rng, 30, 12))
    for x in rng.uniform(0.05, 1, (20, 12)):
        e = model.estimate(x, timestamp_us=9)
        assert (e.position.x, e.position.y) == tuple(model.estimate_batch(x[None, :])[0])
        assert (e.timestamp_us, e.method) == (9, model.name)
        assert type(e.position.x) is float and type(e.position.y) is float


@ALL_ESTIMATORS
@pytest.mark.parametrize("frame", [0.5, [[0.5] * 12], [[0.5] * 6] * 2], ids=["0-d", "1x12", "2x6"])
def test_estimate_rejects_a_frame_that_is_not_1d(make, frame):
    model = make(_random_calibration(np.random.default_rng(41), 8, 12))
    with pytest.raises(DimensionError, match="frame must be 1-d"):
        model.estimate(frame)


_ENTRY = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.5, -0.25, 0.0])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(_ENTRY, min_size=1, max_size=8), st.lists(_ENTRY, min_size=1, max_size=4))
@example([1e308, 1e308, 1e308], [0.5, 0.5])
@example([math.inf, -math.inf], [0.5, 0.5])
@example([0.5], [-math.inf, math.inf])
@example([math.inf], [-math.inf])
def test_require_finite_raises_iff_an_entry_is_not_finite(xs, es):
    # +inf/-inf pairs sum to NaN and rows near 1e308 overflow the sum: only
    # the entries decide
    X, E = np.array(xs)[None, :], np.array(es)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        if all(map(math.isfinite, xs + es)):
            _require_finite(X, E)
        else:
            with pytest.raises(EstimationError):
                _require_finite(X, E)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(_ENTRY, min_size=1, max_size=8), st.lists(_ENTRY, min_size=1, max_size=4),
       st.integers(1, 12))
@example([1e308, 1e308], [0.5, 0.5], 1)
@example([math.nan], [0.5, 0.5], 1)
@example([0.5, math.inf], [0.5, 0.5], 12)
@example([0.5], [-math.inf, 0.5], 12)
def test_require_finite_small_and_batch_routes_agree(xs, es, rows):
    # the Python float sum of a few values and the numpy sums of a batch
    # raise on the same inputs, whichever route the size would choose
    X, E = np.tile(xs, (rows, 1)), np.tile(es, (rows, 1))
    raised = []
    for few in (0, 10**6):  # every input a batch, every input small
        with mock.patch.object(regress, "_FEW_VALUES", few), \
                np.errstate(over="ignore", invalid="ignore"):
            try:
                _require_finite(X, E)
            except EstimationError:
                raised.append(True)
            else:
                raised.append(False)
    assert raised[0] == raised[1] == (not all(map(math.isfinite, xs + es)))


# -- augmentation -----------------------------------------------------------------


def test_augment_appends_one_entry():
    rng = np.random.default_rng(33)
    cal = _random_calibration(rng, 16, 4)
    vec = rng.uniform(0, 1, 4)
    grown = cal.append(vec, ScreenPoint(1, 2))
    assert grown.point_count == 17
    assert cal.point_count == 16
    assert np.array_equal(grown.means[-1], vec)
    assert np.array_equal(grown.targets[-1], [1.0, 2.0])
    with pytest.raises(DimensionError):
        cal.append(rng.uniform(0, 1, 5), ScreenPoint(1, 2))


def test_augment_sixteen_plus_sixtysix_is_eightytwo():
    rng = np.random.default_rng(34)
    cal = _random_calibration(rng, 16, 4)
    for _ in range(66):
        cal = cal.append(rng.uniform(0, 1, 4), ScreenPoint(3, 4))
    assert cal.point_count == 82


_RANGE_EDGE = 1e302  # targets this large overflow alpha at the first jitter levels

def _same_model(a, b):
    return (np.array_equal(a._alpha, b._alpha) and a.rcond == b.rcond
            and a.effective_jitter == b.effective_jitter)


@pytest.mark.parametrize("kind", ["minkowski", "rbf", "cosine", "canberra"])
def test_augmented_model_equals_a_fresh_model(kind):
    rng = np.random.default_rng(45)
    measure = MeasureSpec(kind=kind, sigma=0.5)
    model = GprModel(_random_calibration(rng, 10, 12), measure)
    for step in range(30):
        frame = rng.uniform(0, 1, 12)
        if step % 5 == 0:
            frame = model.calibration.means[step] + 1e-9
        model = model.augmented(frame, ScreenPoint(*rng.uniform(0, 600, 2)))
        assert _same_model(model, GprModel(model.calibration, measure))


def test_augmented_model_equals_a_fresh_model_when_the_jitter_escalates():
    rng = np.random.default_rng(43)
    cal = CalibrationSet(rng.uniform(0, 1, (12, 4)), rng.uniform(0, 1, (12, 2)) * _RANGE_EDGE)
    model = GprModel(cal, MINK)
    assert model.effective_jitter == model.jitter * model._jitter_base
    grown = model.augmented(cal.means[0] + 1e-9, ScreenPoint(-_RANGE_EDGE, _RANGE_EDGE))
    assert grown.effective_jitter >= 100 * grown.jitter * grown._jitter_base
    assert _same_model(grown, GprModel(grown.calibration, MINK))


def test_augmented_with_a_non_finite_frame_names_the_new_row():
    model = GprModel(_random_calibration(np.random.default_rng(46), 6, 4), MINK)
    with pytest.raises(EstimationError, match="calibration row 6 is not finite"):
        model.augmented([0.5, math.nan, 0.5, 0.5], ScreenPoint(1.0, 2.0))


def test_augment_duplicate_entry_barely_perturbs_estimates():
    rng = np.random.default_rng(35)
    cal = _random_calibration(rng, 12, 6)
    m1 = GprModel(cal, MINK)
    m2 = m1.augmented(cal.means[3], ScreenPoint(*cal.targets[3]))
    X = rng.uniform(0, 1, (50, 6))
    assert np.max(np.abs(m1.estimate_batch(X) - m2.estimate_batch(X))) < 1e-4

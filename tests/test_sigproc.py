import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledgaze.core import ConfigError, DisplayGeometry
from ledgaze.eyesim import LedLayout, SimConfig
from ledgaze.sigproc import IirFilter, SignalChain, adapt_exposure, replay_exposure

from oracles import iir_reference, lfilter_reference


# -- capture cycle (LedLayout.steps) ------------------------------------------------


RING6 = tuple(i * 60.0 for i in range(6))


def test_prototype2_step_zero_illuminates_all_others():
    ch, illum = LedLayout.prototype2().steps[0]
    assert ch == 0
    assert illum == frozenset({1, 2, 3, 4, 5})


def test_prototype1_pair_shares_group_illuminator():
    steps = LedLayout.prototype1().steps
    assert steps[0] == (0, frozenset({2}))
    assert steps[1] == (1, frozenset({2}))
    assert steps[2] == (3, frozenset({5}))
    assert tuple(ch for ch, _ in steps) == (0, 1, 3, 4, 6, 7)


def test_schedule_periodicity():
    # One frame is one full capture cycle, repeated frame after frame.
    config = SimConfig(DisplayGeometry(800, 600), step_us=1000)
    for layout in (LedLayout.prototype1(), LedLayout.prototype2()):
        assert len(layout.steps) == layout.channels_per_eye
        assert config.cycle_us(layout) == 1000 * len(layout.steps)


def test_schedule_fairness_over_cycles():
    for layout in (LedLayout.prototype1(), LedLayout.prototype2()):
        k = 5
        counts = {}
        for ch, _ in layout.steps * k:
            counts[ch] = counts.get(ch, 0) + 1
        assert all(c == k for c in counts.values())
        assert len(counts) == len(layout.steps)


def test_schedule_rejects_sensing_while_illuminating():
    with pytest.raises(ConfigError, match="cannot sense and illuminate"):
        LedLayout("prototype2", RING6, ((0, frozenset({0, 1})),))


def test_schedule_rejects_empty_cycle():
    with pytest.raises(ConfigError, match="at least one step"):
        LedLayout("prototype2", (0.0, 60.0), (), eyes=1)


def test_schedule_rejects_duplicate_sensing_channel():
    with pytest.raises(ConfigError, match="repeats"):
        LedLayout("prototype2", RING6, ((0, frozenset({1})), (0, frozenset({2}))))


# -- adaptive exposure -------------------------------------------------------------


EMIN, EMAX = 25.0, 1600.0


def _adapt(readings, exp=400.0):
    return adapt_exposure(np.full(len(readings), exp), readings, EMIN, EMAX)


def test_saturated_reading_halves_exposure():
    out = _adapt([512, 1023, 512, 512])
    assert out[1] == 200.0
    assert out.tolist() == [400.0, 200.0, 400.0, 400.0]  # others untouched


def test_midrange_reading_is_dead_band():
    exp = np.full(4, 400.0)
    once = adapt_exposure(exp, [512, 24, 999, 500], EMIN, EMAX)
    assert np.array_equal(once, exp)


def test_exposure_idempotent_for_midrange():
    exp = np.full(4, 400.0)
    once = adapt_exposure(exp, [512, 24, 999, 500], EMIN, EMAX)
    twice = adapt_exposure(once, [512, 24, 999, 500], EMIN, EMAX)
    assert np.array_equal(twice, once)
    assert np.array_equal(twice, exp)


def test_starved_reading_doubles_exposure():
    out = _adapt([512, 512, 10, 512])
    assert out[2] == 800.0


def test_exposure_clamps_at_bounds():
    assert _adapt([1023, 1000], exp=EMIN).tolist() == [EMIN, EMIN]
    assert _adapt([3, 23], exp=EMAX).tolist() == [EMAX, EMAX]
    assert _adapt([1023, 0], exp=40.0).tolist() == [EMIN, 80.0]


def test_exposure_never_leaves_bounds_under_random_readings():
    rng = np.random.default_rng(41)
    exp = np.full(4, 400.0)
    for _ in range(500):
        ch = int(rng.integers(0, 4))
        readings = np.full(4, 512)
        readings[ch] = rng.integers(0, 1024)
        exp = adapt_exposure(exp, readings, EMIN, EMAX)
        assert np.all((EMIN <= exp) & (exp <= EMAX))


def test_adapt_exposure_applies_to_each_frame_of_a_stack():
    exp = np.array([400.0, 25.0, 1600.0])
    readings = np.array([[1023, 1023, 0], [0, 512, 1023], [512, 0, 512]])
    out = adapt_exposure(exp, readings, EMIN, EMAX)
    assert out.shape == readings.shape
    for frame, row in zip(readings, out):
        assert np.array_equal(row, adapt_exposure(exp, frame, EMIN, EMAX))


def test_exposure_validation():
    geom = DisplayGeometry(800, 600)
    with pytest.raises(ConfigError):  # init below min
        SimConfig(geom, exposure_init_us=10.0, exposure_min_us=25.0)
    with pytest.raises(ConfigError):  # min above max
        SimConfig(geom, exposure_init_us=100.0, exposure_min_us=200.0, exposure_max_us=100.0)
    with pytest.raises(ConfigError):
        _adapt([512, 2000])
    with pytest.raises(ConfigError):
        _adapt([-1, 512])


# -- IIR low-pass -------------------------------------------------------------------


def test_iir_alpha_one_is_passthrough():
    f = IirFilter(1.0)
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.normal(size=3)
        assert np.array_equal(f.step(x), x)


def test_iir_first_frame_initializes_state():
    f = IirFilter(0.3)
    x = np.array([1.0, -2.0])
    assert np.array_equal(f.step(x), x)


def test_iir_half_alpha_single_step():
    f = IirFilter(0.5)
    f.step(np.array([0.0]))
    assert f.step(np.array([1.0]))[0] == pytest.approx(0.5)


def test_iir_geometric_convergence_closed_form():
    alpha = 0.3
    f = IirFilter(alpha)
    f.step(np.array([0.0]))  # y0 = 0
    c = 1.0
    for n in range(1, 40):
        y = f.step(np.array([c]))[0]
        assert abs(y - c) == pytest.approx((1 - alpha) ** n * c, rel=1e-9)


def test_iir_dc_gain_is_unity():
    f = IirFilter(0.3)
    f.step(np.array([0.7]))
    y = None
    for _ in range(400):
        y = f.step(np.array([0.25]))
    assert abs(y[0] - 0.25) < 1e-12


def test_iir_linearity():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(30, 4))
    z = rng.normal(size=(30, 4))
    a, b = 2.5, -1.25
    fa, fb, fc = IirFilter(0.4), IirFilter(0.4), IirFilter(0.4)
    ya = fa.filter_block(x)
    yb = fb.filter_block(z)
    yc = fc.filter_block(a * x + b * z)
    assert np.allclose(yc, a * ya + b * yb, atol=1e-12)


def test_iir_block_equals_sequential_steps():
    rng = np.random.default_rng(44)
    x = rng.normal(size=(64, 5))
    f_block, f_step = IirFilter(0.3), IirFilter(0.3)
    yb = f_block.filter_block(x)
    ys = np.vstack([f_step.step(row) for row in x])
    assert np.array_equal(yb, ys)
    # continue with a second block to exercise carried state
    x2 = rng.normal(size=(17, 5))
    yb2 = f_block.filter_block(x2)
    ys2 = np.vstack([f_step.step(row) for row in x2])
    assert np.array_equal(yb2, ys2)


def test_iir_matches_reference_filter():
    rng = np.random.default_rng(45)
    xs = list(rng.normal(size=50))
    f = IirFilter(0.2)
    got = [float(f.step(np.array([x]))[0]) for x in xs]
    ref = iir_reference(0.2, xs)
    assert got == pytest.approx(ref, rel=1e-12)


def test_iir_step_first_frame_passes_through():
    f = IirFilter(0.5)
    x = np.array([2.0])
    y = f.step(x)
    assert np.array_equal(y, x)
    y[0] = 5.0  # the returned state is a copy
    assert np.array_equal(f.step(np.array([4.0])), np.array([3.0]))


@st.composite
def iir_blocks(draw):
    """(alpha, warm state or None, (n, M) block) with finite values of both signs."""
    n = draw(st.sampled_from([1, 2]) | st.integers(1, 3000))
    m = draw(st.integers(1, 24))
    alpha = draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    state = rng.normal(0.0, scale, m) if draw(st.booleans()) else None
    return alpha, state, rng.normal(0.0, scale, (n, m))


def _iir(alpha, state):
    f = IirFilter(alpha)
    f.state = None if state is None else state.copy()
    return f


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(iir_blocks(), st.floats(0.0, 1.0))
def test_filter_block_matches_lfilter_reference(block, cut):
    # The solve and lfilter round alike; only the sign of an exact zero may differ.
    alpha, state, X = block
    f = _iir(alpha, state)
    y = f.filter_block(X.copy())  # a one-channel block is in Fortran order too, and consumed
    ref = lfilter_reference(alpha, X, state)
    assert y.flags.c_contiguous
    assert (y + 0.0).tobytes() == (ref + 0.0).tobytes()
    assert f.state.tobytes() == y[-1].tobytes()
    k = int(cut * len(X))
    g = _iir(alpha, state)
    split = np.concatenate([g.filter_block(X[:k]), g.filter_block(X[k:])])
    assert (split + 0.0).tobytes() == (y + 0.0).tobytes()


def test_filter_block_may_return_positive_zero_for_negative_zero():
    # Back-substitution computes -0.0 - 0.0 * (-0.3) = +0.0 for the first row.
    X = np.array([[-0.0], [-1.0]])
    y = IirFilter(0.3).filter_block(X.copy())  # a one-channel block is consumed
    assert y.tolist() == [[0.0], [-0.3]]
    assert not np.signbit(y[0, 0])
    assert np.signbit(lfilter_reference(0.3, X)[0, 0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_filter_block_rejects_non_finite_rows(bad):
    f = IirFilter(0.3)
    f.filter_block(np.ones((3, 2)))
    X = np.ones((4, 2), order="F")  # a block it would solve in
    X[2, 1] = bad
    given = X.tobytes(order="F")
    with pytest.raises(ConfigError, match="block row 2 is not finite"):
        f.filter_block(X)
    assert f.state.tolist() == [1.0, 1.0]  # the refused block and the state are left as they were
    assert X.flags.f_contiguous and X.tobytes(order="F") == given


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [1, 12])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("n", [0, 1, 2, 17_550])
def test_filter_block_consumes_only_a_writeable_fortran_order_block(n, warm, m, order):
    rng = np.random.default_rng(48)
    state = rng.uniform(0.0, 1.0, m) if warm else None
    X = np.asarray(rng.uniform(0.0, 1.0, (n, m)), order=order)
    given = X.copy(order="K")
    frozen = X.copy(order="K")
    frozen.flags.writeable = False  # read-only, so it is copied
    w = _iir(0.3, state)
    want = w.filter_block(frozen)
    f = _iir(0.3, state)
    got = f.filter_block(X)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    assert (f.state is None) if w.state is None else f.state.tobytes() == w.state.tobytes()
    if n and X.flags.f_contiguous:  # consumed; a one-row or one-channel C-order block is F-order too
        assert np.array_equal(X, got)
        assert np.shares_memory(X, got) == (n == 1 or m == 1)
    else:  # no row to solve, or not in Fortran order: left as it was
        assert X.tobytes(order="A") == given.tobytes(order="A") and not np.shares_memory(X, got)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "first-frame"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_iir_step_rejects_non_finite_frame_and_recovers(bad, warm):
    frames = np.random.default_rng(47).uniform(0, 1, (4, 3))
    f, clean = IirFilter(0.3), IirFilter(0.3)
    if warm:
        f.step(frames[0])
        clean.step(frames[0])
    x = frames[1].copy()
    x[2] = bad
    with pytest.raises(ConfigError, match="frame channel 2 is not finite"):
        f.step(x)
    if warm:
        assert f.state.tobytes() == clean.state.tobytes()
    else:
        assert f.state is None
    for row in frames[2:]:
        assert f.step(row).tobytes() == clean.step(row).tobytes()


def test_iir_step_accepts_finite_frame_whose_sum_overflows():
    f = IirFilter(0.5)
    x = np.array([1e308, 1e308])
    assert np.array_equal(f.step(x), x)
    assert np.array_equal(f.step(x), x)


def test_iir_step_result_does_not_alias_the_state():
    f = IirFilter(0.5)
    f.step(np.array([2.0]))
    y = f.step(np.array([4.0]))
    y[0] = 100.0
    assert f.state.tolist() == [3.0]
    assert f.step(np.array([5.0])).tolist() == [4.0]


@pytest.mark.parametrize("first,then", [(12, 1), (1, 12), (12, 6)])
def test_iir_rejects_channel_count_change(first, then):
    for warm in ("step", "filter_block"):
        for call in ("step", "filter_block"):
            f = IirFilter(0.3)
            getattr(f, warm)(np.ones(first))
            with pytest.raises(ConfigError, match="frame shape changed mid-stream"):
                getattr(f, call)(np.ones(then) if call == "step" else np.ones((5, then)))


def test_iir_alpha_validation():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            IirFilter(bad)


# -- frame-rate accounting ------------------------------------------------------------


def test_default_frame_rate_meets_100hz():
    # default step of 1666 us across a 6-channel chain
    config = SimConfig(DisplayGeometry(800, 600))
    for layout in (LedLayout.prototype1(), LedLayout.prototype2()):
        assert 1e6 / config.cycle_us(layout) >= 100.0


def test_cycle_time_formula():
    config = SimConfig(DisplayGeometry(800, 600), step_us=1000)
    # The two eyes' chains run in parallel, so a second eye adds no time.
    assert config.cycle_us(LedLayout.prototype1(eyes=1)) == 6000
    assert config.cycle_us(LedLayout.prototype1(eyes=2)) == 6000
    with pytest.raises(ConfigError):
        SimConfig(DisplayGeometry(800, 600), step_us=0)


def _chain():
    return SignalChain(400.0, 25.0, 1600.0, 400.0, 0.3)


# Frame 0 saturates channel 0 and frame 1 starves channel 1, so the exposures move.
_RAW = np.array([[1010, 500], [500, 10], [500, 500], [500, 500]])


def test_signal_chain_block_matches_the_c_order_divide():
    scales, _ = replay_exposure(_RAW, np.full(2, 400.0), 25.0, 1600.0, 400.0)
    assert scales.flags.f_contiguous and not np.all(scales == scales[0])
    expected = IirFilter(0.3).filter_block(_RAW / 1023 / scales)
    assert np.array_equal(_chain().replay(_RAW), expected)
    assert np.array_equal(_chain().block(_RAW, scales), expected)


@pytest.mark.parametrize("first", ["replay", "block"])
def test_signal_chain_replay_refuses_a_used_chain(first):
    # replay restarts every exposure at exposure_init_us, so on a chain whose
    # IIR carries state it would read the frames at the wrong exposures.
    chain = _chain()
    if first == "replay":
        chain.replay(_RAW[:1])
    else:
        chain.block(_RAW[:1], np.ones((1, 2)))
    state = chain.iir.state.copy()
    with pytest.raises(ConfigError, match="^replay runs a whole log on a fresh chain"):
        chain.replay(_RAW[1:])
    assert np.array_equal(chain.iir.state, state)

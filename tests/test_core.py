import math

import numpy as np
import pytest

from ledgaze.core import (
    CalibrationSet,
    ConfigError,
    DimensionError,
    DisplayGeometry,
    ScreenPoint,
    SensorFrame,
    WireError,
    angular_error,
    angular_error_px,
)

GEOM = DisplayGeometry(1000, 1000, 0.12)


def test_angular_error_identity():
    p = ScreenPoint(100, 100)
    assert angular_error(p, p, GEOM) == 0.0


def test_angular_error_345_triangle():
    assert angular_error(ScreenPoint(103, 104), ScreenPoint(100, 100), GEOM) == pytest.approx(0.6)


def test_angular_error_ten_pixels_at_default_scale():
    # 10 px at 0.12 degrees per pixel
    assert angular_error(ScreenPoint(110, 100), ScreenPoint(100, 100), GEOM) == pytest.approx(1.2)


def test_angular_error_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b, c = (ScreenPoint(*rng.uniform(0, 1000, 2)) for _ in range(3))
        assert angular_error(a, b, GEOM) == angular_error(b, a, GEOM)
        assert angular_error(a, c, GEOM) <= angular_error(a, b, GEOM) + angular_error(b, c, GEOM) + 1e-12


def test_angular_error_scales_with_degrees_per_pixel():
    a, b = ScreenPoint(10, 20), ScreenPoint(40, 60)
    e1 = angular_error(a, b, DisplayGeometry(1000, 1000, 0.12))
    e2 = angular_error(a, b, DisplayGeometry(1000, 1000, 0.24))
    assert e2 == pytest.approx(2 * e1)


def test_angular_error_px_matches_scalar():
    rng = np.random.default_rng(4)
    E = rng.uniform(0, 1000, (50, 2))
    T = rng.uniform(0, 1000, (50, 2))
    batch = angular_error_px(E, T, GEOM)
    for i in range(50):
        scalar = angular_error(ScreenPoint(*E[i]), ScreenPoint(*T[i]), GEOM)
        assert batch[i] == pytest.approx(scalar, abs=1e-12)


def test_sensor_frame_validation():
    f = SensorFrame(0, (0, 1023, 512, 7))
    assert f.channel_count == 4
    assert np.allclose(f.normalized(), np.array([0, 1023, 512, 7]) / 1023)
    with pytest.raises(WireError):
        SensorFrame(0, (0, 1024))
    with pytest.raises(WireError):
        SensorFrame(0, (-1,))
    with pytest.raises(DimensionError):
        SensorFrame(0, ())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1, 1024], ids=["nan", "inf", "minus-one", "1024"])
@pytest.mark.parametrize("position", range(5))
def test_sensor_frame_rejects_bad_reading_at_any_position(bad, position):
    # a NaN compares false both ways, so a min/max test would pass it unless it came first
    channels = [0, 1023, 512, 7, 3]
    channels[position] = bad
    with pytest.raises(WireError, match=rf"^channel {position} reading {bad} outside"):
        SensorFrame(0, tuple(channels))


def test_sensor_frame_accepts_in_range_values_that_are_not_counts():
    # the exact range test decides: in-range floats and numpy integers pass as before
    assert SensorFrame(0, (0.5, 1023.0, np.int64(3), np.uint16(1023), True)).channel_count == 5


def test_normalized_equals_array_division_for_every_count():
    counts = tuple(range(1024))
    x = SensorFrame(0, counts).normalized()
    assert x.dtype == np.float64
    assert x.tobytes() == (np.asarray(counts, dtype=float) / 1023).tobytes()


def test_display_geometry_validation():
    with pytest.raises(ConfigError):
        DisplayGeometry(0, 100)
    with pytest.raises(ConfigError):
        DisplayGeometry(100, 100, degrees_per_pixel=0.0)
    assert GEOM.contains(ScreenPoint(0, 0))
    assert not GEOM.contains(ScreenPoint(1000, 10))


def test_calibration_set_basics():
    cal = CalibrationSet.from_entries([
        ((0.1, 0.2), ScreenPoint(10, 20)),
        ((0.3, 0.4), ScreenPoint(30, 40)),
    ])
    assert cal.point_count == 2 and cal.channel_count == 2
    assert cal.means.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert cal.targets.tolist() == [[10.0, 20.0], [30.0, 40.0]]

    grown = cal.append((0.5, 0.6), ScreenPoint(50, 60))
    assert grown.point_count == 3 and cal.point_count == 2  # original untouched
    with pytest.raises(DimensionError):
        cal.append((0.5, 0.6, 0.7), ScreenPoint(0, 0))


def test_calibration_set_duplicate_targets_allowed():
    cal = CalibrationSet.from_entries([
        ((0.1, 0.2), ScreenPoint(10, 20)),
        ((0.3, 0.4), ScreenPoint(10, 20)),
    ])
    assert cal.point_count == 2


def test_calibration_set_roundtrip_and_channel_selection():
    cal = CalibrationSet([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], [[1, 2], [3, 4]])
    back = CalibrationSet.from_dict(cal.to_dict())
    assert np.array_equal(back.means, cal.means)
    assert np.array_equal(back.targets, cal.targets)
    sliced = cal.select_channels([2, 0])
    assert sliced.channel_count == 2
    assert np.array_equal(sliced.means, cal.means[:, [2, 0]])


def test_calibration_set_shape_errors():
    with pytest.raises(DimensionError):
        CalibrationSet([[0.1, 0.2]], [[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        CalibrationSet([[0.1, 0.2]], [[1, 2]], channel_count=3)


def test_screen_point_distance():
    assert ScreenPoint(0, 0).distance_to(ScreenPoint(3, 4)) == pytest.approx(5.0)
    assert math.isclose(ScreenPoint(-1, -1).distance_to(ScreenPoint(-1, -1)), 0.0)

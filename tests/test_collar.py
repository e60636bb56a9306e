import math

import numpy as np
import pytest

from hypcross.collar import (
    CUSP_HOROCYCLE_LENGTH,
    collar_width,
    generalized_width,
    hexagon_gap,
    wide_width,
    width_scan,
)


def test_width_at_unit_sinh_core():
    # sinh(x/2) = 1 at x = 2*asinh(1), so the width is asinh(1) = log(1+sqrt 2)
    x = 2 * math.asinh(1.0)
    assert abs(collar_width(x) - math.asinh(1.0)) < 1e-12
    assert abs(collar_width(x) - math.log(1 + math.sqrt(2))) < 1e-12


def test_width_diverges_at_short_cores():
    assert collar_width(1e-6) > 14.0


def test_width_direct_value():
    assert abs(collar_width(2.3) - math.asinh(1.0 / math.sinh(1.15))) < 1e-15


def test_generalized_width_values():
    x = 2 * math.asinh(1.0)
    w1, narrow = generalized_width(x)
    assert abs(w1 - math.asinh(1.0 / math.sinh(x / 4))) < 1e-15
    assert abs(w1 - 1.5285709194809982) < 1e-12
    assert w1 > collar_width(x)
    assert narrow > 0.0


def test_generalized_width_at_threshold():
    w1, narrow = generalized_width(2.3)
    assert w1 > 0.0 and narrow > 0.0
    # the stated short-core regime ends past log(5+2 sqrt 6) < 2.3
    assert math.log(5 + 2 * math.sqrt(6)) < 2.3


def test_generalized_width_degenerates_for_long_cores():
    w1, narrow = generalized_width(10.0)
    assert narrow < 0.0


def test_profile_short_core():
    w = collar_width(1.0)
    w1, narrow = generalized_width(1.0)
    assert w1 > w > narrow > 0.0
    assert abs(narrow - (2 * w - w1)) < 1e-15


def test_hexagon_gap_closed_form():
    x = 4 * math.log(3.0)
    assert abs(hexagon_gap(x) - 2 * math.log(2.0)) < 1e-12


def test_hexagon_gap_identity():
    for x in (0.5, 1.06, 2.3):
        assert abs(hexagon_gap(x) - 2 * wide_width(x)) < 1e-12


def test_hexagon_gap_vanishes_at_infinity():
    assert 0.0 < hexagon_gap(80.0) < 1e-8
    assert hexagon_gap(40.0) > hexagon_gap(80.0)


def test_domain_errors():
    # winding's argument rule, which refuses inf and nan as well
    for fn in (collar_width, wide_width, hexagon_gap, generalized_width):
        for x in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^core_length must be finite and > 0, got "):
                fn(x)


@pytest.mark.parametrize(
    "fn, x, message",
    [
        (collar_width, 1e-308, "1/sinh(core_length/2) overflows at core_length=1e-308"),
        (collar_width, 5e-324, "1/sinh(core_length/2) overflows at core_length=5e-324"),  # x/2 is 0
        (wide_width, 2e-308, "1/sinh(core_length/4) overflows at core_length=2e-308"),
        (wide_width, 3000.0, "sinh(core_length/4) overflows at core_length=3000.0"),
        (generalized_width, 2e-308, "1/sinh(core_length/4) overflows at core_length=2e-308"),
        (hexagon_gap, 4e-308, "2/expm1(core_length/4) overflows at core_length=4e-308"),
        (hexagon_gap, 5e-324, "2/expm1(core_length/4) overflows at core_length=5e-324"),
        (hexagon_gap, 3000.0, "expm1(core_length/4) overflows at core_length=3000.0"),  # was a bare math range error
    ],
)
def test_tiny_and_huge_cores_overflow_by_name(fn, x, message):
    # the tiny cores used to give inf, or ZeroDivisionError at 5e-324
    with pytest.raises(OverflowError) as exc:
        fn(x)
    assert str(exc.value) == message


def test_widths_are_finite_just_above_the_overflow():
    assert math.isfinite(collar_width(1.2e-308))
    assert math.isfinite(wide_width(2.3e-308))
    assert math.isfinite(hexagon_gap(4.5e-308))


def test_cusp_horocycle_bound():
    assert CUSP_HOROCYCLE_LENGTH == 4.0


def test_width_scan():
    scan = width_scan()
    assert scan["w1_gt_w_on_0_20"]
    assert scan["w1_lt_2w_on_0_2.3"]
    assert scan["gap_identity_max_abs_dev"] < 1e-12
    assert scan["w_decreasing"] and scan["w1_decreasing"]
    # the crossover where the wide side eats the whole collar sits past 2.3
    x = scan["w1_eq_2w_crossover"]
    assert x > 2.3
    assert abs(x - 2.4375114537440243) < 1e-9
    # the closed form: u = e^(x/4) is the tribonacci constant
    u = math.exp(x / 4)
    assert abs(u**3 - u**2 - u - 1) < 1e-12
    assert wide_width(x - 1e-6) < 2 * collar_width(x - 1e-6)
    assert wide_width(x + 1e-6) > 2 * collar_width(x + 1e-6)


def test_widths_strictly_decreasing_dense():
    xs = np.linspace(20.0 / 10_000, 20.0, 10_000)
    w = np.arcsinh(1.0 / np.sinh(xs / 2.0))
    w1 = np.arcsinh(1.0 / np.sinh(xs / 4.0))
    assert np.all(np.diff(w) < 0.0)
    assert np.all(np.diff(w1) < 0.0)
    assert np.all(w1 > w)

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcross.winding import (
    MAX_ARC_LENGTH,
    collar_arc_length,
    cusp_arc_length,
    cusp_winding_from_length,
    saccheri_top_length,
    verify_cusp_lemma_geometrically,
    winding_from_length,
)


def test_collar_arc_hugs_core_at_zero_width():
    # cosh 0 = 1: the arc length approaches W * core
    assert abs(collar_arc_length(3.0, 0.7, 1e-9) - 3.0 * 0.7) < 1e-8


def test_collar_arc_double_angle_value():
    # sinh(2t) = 2 sinh t cosh t = 2 sqrt 2 at sinh t = 1; cosh(asinh 1) = sqrt 2
    length = collar_arc_length(2.0, 2 * math.asinh(1.0), math.asinh(1.0))
    assert abs(length - 2 * math.asinh(4.0)) < 1e-12


def test_collar_arc_monotone():
    base = collar_arc_length(1.0, 1.0, 1.0)
    assert collar_arc_length(1.2, 1.0, 1.0) > base
    assert collar_arc_length(1.0, 1.2, 1.0) > base
    assert collar_arc_length(1.0, 1.0, 1.2) > base


def test_collar_arc_strictly_increasing_on_grids():
    grid = np.linspace(0.05, 4.0, 40)
    for axis in range(3):
        args = np.full((len(grid), 3), 0.8)
        args[:, axis] = grid
        vals = [collar_arc_length(*row) for row in args]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cusp_arc_values():
    assert abs(cusp_arc_length(1.0) - math.acosh(9.0)) < 1e-12
    assert abs(cusp_arc_length(1.0) - 2 * math.log(2 + math.sqrt(5))) < 1e-12
    assert abs(cusp_arc_length(0.5) - 2 * math.log(1 + math.sqrt(2))) < 1e-12


def test_cusp_arc_vanishes():
    assert cusp_arc_length(1e-12) < 1e-10


def test_cusp_arc_asinh_identity():
    for W in (0.1, 0.7, 1.0, 3.0, 12.0):
        assert abs(cusp_arc_length(W) - 2 * math.asinh(2 * W)) < 1e-12


@pytest.mark.parametrize("W", [1e154, 1e200, 1e300, 4e307])
def test_cusp_arc_far_out(W):
    # 4W^2 overflows past W about 6.7e153; the length stays finite while 4W does
    expected = 2 * math.asinh(2 * W)
    assert abs(cusp_arc_length(W) - expected) <= 1e-15 * expected


def test_overflow_is_refused_loudly():
    # the length passes MAX_ARC_LENGTH: the closed forms do not return inf,
    # and the oracle, whose corner height underflows, does not divide by 0
    with pytest.raises(OverflowError, match="710.4"):
        collar_arc_length(800.0, 1.0, 710.4)
    with pytest.raises(OverflowError, match="710.4"):
        saccheri_top_length(800.0, 1.0, 710.4)
    with pytest.raises(OverflowError, match="1e\\+308"):
        cusp_arc_length(1e308)


def test_collar_arc_where_cosh_overflows():
    # cosh(width) overflows, and the closed form answers in log space: each
    # length against a 50-digit evaluation; a tiny W*core keeps the length
    # under MAX_ARC_LENGTH far past width 711
    assert abs(collar_arc_length(1.0, 1.0, 711.0) - 1420.69635534810595) < 1e-9
    assert abs(collar_arc_length(1e-300, 1.0, 1000.0) - 617.0626498424527) < 1e-9
    assert abs(collar_arc_length(1e-10, 1e-7, 740.0) - 1400.3258124770826) < 1e-9
    # W*core/2 underflows to 0 here; the length does not
    assert abs(collar_arc_length(5e-324, 1.0, 745.0) - 0.8494986030894956) < 1e-12
    # there the oracle's corner height is a subnormal with under 32 bits,
    # which would put it 5e-3 short at width 740: it refuses
    for args in ((1e-10, 1e-7, 740.0), (1e-300, 1.0, 1000.0)):
        with pytest.raises(OverflowError, match="^collar arc length overflows at W="):
            saccheri_top_length(*args)


@pytest.mark.parametrize("args", [(2000.0, 1.0, 1.0), (800.0, 1.0, 710.4), (1.0, 1.0, 1e4), (1e300, 1e300, 1.0)])
def test_collar_overflow_is_one_error(args):
    # past MAX_ARC_LENGTH the closed form and the oracle raise the same
    # OverflowError, which names the arguments
    with pytest.raises(OverflowError, match="^collar arc length overflows at W=") as closed:
        collar_arc_length(*args)
    with pytest.raises(OverflowError) as oracle:
        saccheri_top_length(*args)
    assert str(oracle.value) == str(closed.value)


@pytest.mark.parametrize("args", [(1e-170, 1e-170, 1.0), (1e-300, 1e-300, 1.0)])
def test_collar_underflow_is_one_error(args):
    # true lengths about 1.5e-340 and 1.5e-600: both used to return 0.0; the
    # closed form and the oracle raise the same ValueError, which names the
    # arguments
    with pytest.raises(ValueError, match="^collar arc length underflows at W=") as closed:
        collar_arc_length(*args)
    with pytest.raises(ValueError) as oracle:
        saccheri_top_length(*args)
    assert str(oracle.value) == str(closed.value)


def test_collar_roundtrip():
    W, core, width = 1.7, 1.0, 0.5
    length = collar_arc_length(W, core, width)
    assert abs(winding_from_length(length, core, width) - W) < 1e-10


@pytest.mark.parametrize("W, core, width", [(1.0, 1.0, 711.0), (1e-100, 1.0, 900.0), (1e-250, 1e-10, 1300.0)])
def test_collar_roundtrip_past_cosh_overflow(W, core, width):
    # cosh(width) overflows; the inverse answers in log space
    length = collar_arc_length(W, core, width)
    assert abs(winding_from_length(length, core, width) - W) <= 1e-13 * W


def test_collar_arc_where_half_w_core_underflows():
    # s = W*core/2 is 0 or subnormal; the log-space form keeps the length,
    # which used to come out 0.0: W*core*cosh(width) to first order
    assert collar_arc_length(1e-200, 1e-200, 600.0) == pytest.approx(1e-200 * math.cosh(600.0) * 1e-200, rel=1e-12)
    assert collar_arc_length(5e-324, 1.0, 700.0) == pytest.approx(math.ldexp(math.cosh(700.0), -1074), rel=1e-12)  # about 2.5e-20


def test_collar_roundtrip_of_a_tiny_winding_number():
    # sinh(l/2)/cosh(width) is about 5e-401; the inverse answers in log space
    length = collar_arc_length(1e-200, 1e-200, 600.0)
    assert winding_from_length(length, 1e-200, 600.0) == pytest.approx(1e-200, rel=1e-12)


@pytest.mark.parametrize("args", [(1e-300, 1.0, 700.0), (1e-310, 1.0, 1.0)])
def test_subnormal_winding_numbers_are_refused_at_every_width(args):
    # these used to return 0.0 and the subnormal 6.48e-311
    with pytest.raises(ValueError, match="^winding number underflows at l="):
        winding_from_length(*args)


def test_winding_number_that_overflows_is_refused():
    # 2*asinh(y)/core_length is inf here; this used to return inf
    with pytest.raises(OverflowError, match=r"^winding number overflows at l=1.0, core_length=5e-324, width=1.0$"):
        winding_from_length(1.0, 5e-324, 1.0)


def test_winding_never_negative():
    assert winding_from_length(1e-9, 1.0, 2.0) > 0.0


def test_cusp_roundtrip():
    length = cusp_arc_length(3.0)
    assert abs(cusp_winding_from_length(length) - 3.0) < 1e-10


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_saccheri_quadrilateral_oracle(W, core, width):
    got = collar_arc_length(W, core, width)
    oracle = saccheri_top_length(W, core, width)
    assert abs(got - oracle) < 1e-9


@pytest.mark.parametrize("width", [372.0, 373.0, 400.0, 600.0, 700.0, 710.4])
def test_saccheri_oracle_on_wide_collars(width):
    # both top corners sit near height e^-width: the product of their heights
    # is subnormal at 372 and 0 from 373 on, and the oracle still meets the
    # closed form exactly
    assert saccheri_top_length(1.0, 1.0, width) == collar_arc_length(1.0, 1.0, width)


@pytest.mark.parametrize(
    "W, core, width",
    [(W, core, width) for W, core in [(1e-300, 1.0), (1e-17, 1.0), (1e-10, 1e-7)] for width in (1e-3, 40.0, 710.4)]
    + [(800.0, 1.0, 1.0), (1400.0, 1.0, 1.0), (1.0, 1.0, 711.0)],
)
def test_saccheri_oracle_on_short_and_long_arcs(W, core, width):
    # arcs far shorter and far longer than the suite's samples: W*core from
    # 1e-300, where the feet nearly coincide, up to 1400
    got = collar_arc_length(W, core, width)
    assert abs(saccheri_top_length(W, core, width) - got) <= 1e-12 * got


@pytest.mark.parametrize("args", [(1e-200, 1e-200, 600.0), (5e-324, 1.0, 700.0), (3e-320, 3e-3, 100.0)])
def test_collar_oracle_where_half_w_core_underflows(args):
    # W*core/2 is 0 or subnormal and the length is not: the oracle used to
    # return 0.0 against 1.89e-140 and 2.5e-20, and to fall 12 % short of
    # 1.21e-279 where W*core/2 kept a few digits
    closed = collar_arc_length(*args)
    assert abs(saccheri_top_length(*args) - closed) <= 1e-12 * closed


def test_collar_oracle_meets_the_closed_form_or_one_refuses():
    # W, core and width log-uniform from 1e-320 to 1e308: where both answer,
    # neither is 0.0 and they agree; the oracle used to give 0.0 where
    # W*core/2 underflowed, in about a quarter of the inputs where both answered
    rng = random.Random(20261020)
    answered = 0
    for _ in range(3000):
        args = tuple(10.0 ** rng.uniform(-320.0, 308.0) for _ in range(3))
        try:
            closed = collar_arc_length(*args)
            oracle = saccheri_top_length(*args)
        except (ValueError, OverflowError):
            continue
        answered += 1
        assert closed > 0.0 and oracle > 0.0, args
        assert abs(oracle - closed) <= 1e-9 * closed, args
    assert answered > 300


@pytest.mark.parametrize("W", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_cusp_distance_oracle(W):
    assert verify_cusp_lemma_geometrically(W) < 1e-12


def test_cusp_oracle_grid_and_small_regime():
    # one call per winding number of the log-spaced grid from 1e-2 to 10
    for W in np.geomspace(1e-2, 10.0, 6):
        assert verify_cusp_lemma_geometrically(float(W)) < 1e-12
    assert verify_cusp_lemma_geometrically(1e-8) < 1e-12


def test_query_validation():
    with pytest.raises(ValueError, match="^W must be finite and > 0, got 0.0$"):
        collar_arc_length(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="^core_length must be finite and > 0, got -1.0$"):
        collar_arc_length(1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="^W must be finite and > 0, got 0.0$"):
        cusp_arc_length(0.0)
    # each inverse outside its domain; winding_from_length used to raise
    # ZeroDivisionError at core 0, return -0.66 at core -1 and 0.0 at width
    # inf, and both used to return nan for nan
    past = math.nextafter(MAX_ARC_LENGTH, math.inf)  # sinh(l/2) overflows
    for args in [
        (0.0, 1.0, 1.0),
        (-1.0, 1.0, 1.0),
        (past, 1.0, 1.0),
        (math.inf, 1.0, 1.0),
        (math.nan, 1.0, 1.0),
        (1.0, 0.0, 1.0),
        (1.0, -1.0, 1.0),
        (1.0, math.inf, 1.0),
        (1.0, math.nan, 1.0),
        (1.0, 1.0, 0.0),
        (1.0, 1.0, math.nextafter(0.5 * MAX_ARC_LENGTH, math.inf)),  # W = 5.8e-309 is subnormal
        (1.0, 1.0, math.inf),
        (1.0, 1.0, math.nan),
    ]:
        with pytest.raises(ValueError):
            winding_from_length(*args)
    for l in (0.0, -1.0, past, math.inf, math.nan):
        with pytest.raises(ValueError):
            cusp_winding_from_length(l)


def test_inverses_at_their_domain_ends():
    # the largest arc length and width still give a finite winding number
    assert math.isfinite(winding_from_length(MAX_ARC_LENGTH, 1.0, 0.5 * MAX_ARC_LENGTH))
    assert math.isfinite(winding_from_length(MAX_ARC_LENGTH, 1.0, 1.0))
    assert math.isfinite(cusp_winding_from_length(MAX_ARC_LENGTH))


_REFUSED = [(-1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0)] + [
    args for bad in (math.nan, math.inf) for args in [(bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)]
]


@pytest.mark.parametrize("args", _REFUSED)
def test_collar_oracle_refuses_what_the_closed_form_refuses(args):
    # the oracle used to return 1.4717 at W -1 or width -1 and 0.0 at W 0,
    # and to raise OverflowError at a nan
    with pytest.raises(ValueError) as closed:
        collar_arc_length(*args)
    with pytest.raises(ValueError) as oracle:
        saccheri_top_length(*args)
    assert str(oracle.value) == str(closed.value)


@pytest.mark.parametrize("W, error", [(0.0, ValueError), (-1.0, ValueError), (math.nan, ValueError), (math.inf, ValueError), (9e307, OverflowError)])
def test_cusp_oracle_refuses_what_the_closed_form_refuses(W, error):
    # nan, inf and 9e307 used to reach Point, which refused them with its own
    # message; 2W overflows at 9e307
    with pytest.raises(error) as closed:
        cusp_arc_length(W)
    with pytest.raises(error) as oracle:
        verify_cusp_lemma_geometrically(W)
    assert str(oracle.value) == str(closed.value)

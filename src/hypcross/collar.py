"""Collar half-widths around short geodesics, the asymmetric (widened) collar
widths, the hexagon gap identity, and the embedded cusp-neighborhood constant.

Only widths and gap values are computed here; the embeddedness statements they
come from enter the test suite as inequality checks over grids.  A core
length that is not finite and > 0 raises winding's ValueError, by name.
"""

from __future__ import annotations

import math

import numpy as np

from .winding import _check_positive


def _asinh_csch(x: float, k: int) -> float:
    """asinh(1/sinh(x/k)) at core length x.  Where sinh(x/k) overflows, or
    its reciprocal does, an OverflowError names core_length."""
    _check_positive(core_length=x)
    try:
        inv = 1.0 / math.sinh(x / k)
    except OverflowError:
        raise OverflowError(f"sinh(core_length/{k}) overflows at core_length={x!r}") from None
    except ZeroDivisionError:  # x / k underflows to 0
        inv = math.inf
    if inv == math.inf:
        raise OverflowError(f"1/sinh(core_length/{k}) overflows at core_length={x!r}")
    return math.asinh(inv)


def collar_width(x: float) -> float:
    """Symmetric collar half-width asinh(1/sinh(x/2)); strictly decreasing.
    Where sinh(x/2) overflows (x past about 1421) or its reciprocal does (x
    below about 1.1e-308), an OverflowError names core_length."""
    return _asinh_csch(x, 2)


def wide_width(x: float) -> float:
    """Half-width asinh(1/sinh(x/4)) of the wide side of the asymmetric
    collar; an OverflowError names core_length where sinh(x/4) overflows (x
    past about 2842) or its reciprocal does (x below about 2.2e-308)."""
    return _asinh_csch(x, 4)


def generalized_width(x: float) -> tuple[float, float]:
    """Asymmetric half-width pair (wide, narrow) = (w1(x), 2 w(x) - w1(x)).

    The narrow side is returned unclamped; it goes negative once the core is
    long enough that the widened side eats the whole symmetric collar (the
    crossover in width_scan); hypcross collar reports it clamped at zero.
    """
    w1 = wide_width(x)
    return w1, 2.0 * collar_width(x) - w1


def hexagon_gap(x: float) -> float:
    """Twice the distance 2*log((e^{x/4}+1)/(e^{x/4}-1)) between the core chord
    and the far side of the right-angled hexagon pair bounding the pants around
    a core of length x.  Equals 2*wide_width(x) exactly (asinh(1/sinh t) =
    log coth(t/2)).  Where expm1(x/4) overflows (x past about 2839) or 2 over
    it does (x below about 4.4e-308), an OverflowError names core_length."""
    _check_positive(core_length=x)
    try:
        gap = 2.0 * math.log1p(2.0 / math.expm1(0.25 * x))
    except OverflowError:
        raise OverflowError(f"expm1(core_length/4) overflows at core_length={x!r}") from None
    except ZeroDivisionError:  # x / 4 underflows to 0
        gap = math.inf
    if gap == math.inf:
        raise OverflowError(f"2/expm1(core_length/4) overflows at core_length={x!r}")
    return gap


CUSP_HOROCYCLE_LENGTH = 4.0  # boundary length of the horocycle neighborhood embedded around any cusp


GRID_POINTS = 10_000


def width_scan() -> dict:
    """Grid audit of the width inequalities and the gap identity.

    Checks, each over GRID_POINTS uniform points:
      * w1 > w on (0, 20]
      * w1 < 2w on (0, 2.3]
      * hexagon_gap == 2*w1 to 1e-12
      * w and w1 strictly decreasing (negative finite differences)
    and gives the crossover core length where w1 = 2w (it lies beyond 2.3) in
    closed form.  With u = e^(x/4), w1 = 2w reads coth(x/8) = coth(x/4)^2,
    which reduces to u^3 = u^2 + u + 1; so the crossover is 4*log(tau), tau
    the tribonacci constant (1 + cbrt(19 + 3 sqrt 33) + cbrt(19 - 3 sqrt 33))/3.
    """
    xs = np.linspace(20.0 / GRID_POINTS, 20.0, GRID_POINTS)
    w = np.arcsinh(1.0 / np.sinh(xs / 2.0))
    w1 = np.arcsinh(1.0 / np.sinh(xs / 4.0))
    gap = 2.0 * np.log1p(2.0 / np.expm1(xs / 4.0))

    xs_short = np.linspace(2.3 / GRID_POINTS, 2.3, GRID_POINTS)
    w_s = np.arcsinh(1.0 / np.sinh(xs_short / 2.0))
    w1_s = np.arcsinh(1.0 / np.sinh(xs_short / 4.0))

    root = 3.0 * math.sqrt(33.0)
    tau = (1.0 + (19.0 + root) ** (1 / 3) + (19.0 - root) ** (1 / 3)) / 3.0

    return {
        "grid_points": GRID_POINTS,
        "w1_minus_w_min": float(np.min(w1 - w)),
        "w1_gt_w_on_0_20": bool(np.all(w1 > w)),
        "twow_minus_w1_min_short": float(np.min(2.0 * w_s - w1_s)),
        "w1_lt_2w_on_0_2.3": bool(np.all(w1_s < 2.0 * w_s)),
        "gap_identity_max_abs_dev": float(np.max(np.abs(gap - 2.0 * w1))),
        "w_decreasing": bool(np.all(np.diff(w) < 0.0)),
        "w1_decreasing": bool(np.all(np.diff(w1) < 0.0)),
        "w1_eq_2w_crossover": 4.0 * math.log(tau),
    }

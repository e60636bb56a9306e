"""Length of a geodesic arc that winds through a collar or a cusp neighborhood.

The dictionary runs both ways (winding number <-> arc length), and each closed
form has an independent geometric oracle: an explicit Saccheri quadrilateral
built in the half-plane for collar arcs, and the point-pair distance on the
height-one horocycle for cusp arcs, one winding number per call.  Arguments
are plain floats; each oracle refuses what its closed form refuses, a length
past MAX_ARC_LENGTH with the same OverflowError.  No numpy, no dataclasses.
"""

from __future__ import annotations

import math
import sys

from .halfplane import Point, complex_dist, dist


def _check_positive(**args: float) -> None:
    """ValueError naming the first argument that is not finite and > 0."""
    for name, v in args.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {v}")


MAX_ARC_LENGTH = 2.0 * math.asinh(sys.float_info.max)  # about 1421: the l with sinh(l/2) finite; cosh(w) is finite for w up to half of it
_COLLAR_OVERFLOW = "collar arc length overflows at W={!r}, core_length={!r}, width={!r}"
_COLLAR_UNDERFLOW = "collar arc length underflows at W={!r}, core_length={!r}, width={!r}"


def collar_arc_length(W: float, core_length: float, width: float) -> float:
    """2*asinh(sinh(W*core/2) * cosh(width)) for an arc winding W times
    through a collar, endpoints at distance width from the core; increasing in
    every argument.  In log space where sinh or cosh overflows, or where s =
    W*core/2 is below the least normal float, it answers up to
    MAX_ARC_LENGTH; past it, an OverflowError names its three arguments, and
    so does a ValueError where the length is below the least normal float."""
    _check_positive(W=W, core_length=core_length, width=width)
    s = 0.5 * W * core_length
    length = None
    if s >= sys.float_info.min:  # else s has lost digits or is 0
        try:
            length = 2.0 * math.asinh(math.sinh(s) * math.cosh(width))
        except OverflowError:
            pass
    if length is None:  # log y, y = sinh(s)*cosh(width); asinh(y) = log(2y) to the last bit past y = 1e154
        log_sinh = s + math.log(-0.5 * math.expm1(-2.0 * s)) if s > 1e-8 else math.log(W) + math.log(core_length) - math.log(2.0)
        log_y = log_sinh + width + math.log1p(math.exp(-2.0 * width)) - math.log(2.0)
        length = 2.0 * (log_y + math.log(2.0)) if log_y > 354.6 else 2.0 * math.asinh(math.exp(log_y))
    if not length <= MAX_ARC_LENGTH:
        raise OverflowError(_COLLAR_OVERFLOW.format(W, core_length, width))
    if length < sys.float_info.min:
        raise ValueError(_COLLAR_UNDERFLOW.format(W, core_length, width))
    return length


def cusp_arc_length(W: float) -> float:
    """2*log(2W + sqrt(4W^2 + 1)), the length of an arc of winding W whose
    endpoints sit on the length-4 boundary horocycle.  hypot keeps it finite
    while 4W is (W up to about 4.49e307); past that, an OverflowError names W."""
    _check_positive(W=W)
    w2 = 2.0 * W
    length = 2.0 * math.log(w2 + math.hypot(w2, 1.0))
    if length == math.inf:
        raise OverflowError(f"cusp arc length overflows at W={W!r}")
    return length


def winding_from_length(l: float, core_length: float, width: float) -> float:
    """Exact inverse of collar_arc_length in W.

    Domain: 0 < l <= MAX_ARC_LENGTH, and core_length and width finite and
    > 0.  Where y = sinh(l/2)/cosh(width) is below the least normal float,
    or cosh(width) overflows (past width MAX_ARC_LENGTH / 2), it inverts in
    log space.  At every width it refuses a winding number that would be
    subnormal or 0, and one that overflows (a tiny core_length) with an
    OverflowError.  Outside the domain, a ValueError."""
    if not 0.0 < l <= MAX_ARC_LENGTH:
        raise ValueError(f"arc length must be > 0 and <= {MAX_ARC_LENGTH}, got {l}")
    _check_positive(core_length=core_length, width=width)
    y = math.sinh(0.5 * l) / math.cosh(width) if width <= 0.5 * MAX_ARC_LENGTH else 0.0
    if y < sys.float_info.min:
        # log y = log sinh(l/2) - log cosh(width), with sinh(l/2) =
        # e^(l/2) (-expm1(-l)) / 2 and cosh(width) = e^width (1 + e^(-2 width)) / 2
        log_y = 0.5 * l - width + math.log(-math.expm1(-l)) - math.log1p(math.exp(-2.0 * width))
        y = math.exp(log_y)
    if y >= sys.float_info.min:
        W = 2.0 * math.asinh(y) / core_length
    else:  # asinh(y) = y, so W = 2y/core, in log space
        W = math.exp(log_y + math.log(2.0) - math.log(core_length))
    if not W >= sys.float_info.min:
        raise ValueError(f"winding number underflows at l={l!r}, core_length={core_length!r}, width={width!r}")
    if W == math.inf:
        raise OverflowError(f"winding number overflows at l={l!r}, core_length={core_length!r}, width={width!r}")
    return W


def cusp_winding_from_length(l: float) -> float:
    """Exact inverse of cusp_arc_length in W.

    Domain: 0 < l <= MAX_ARC_LENGTH.  Outside it, a ValueError."""
    if not 0.0 < l <= MAX_ARC_LENGTH:
        raise ValueError(f"arc length must be > 0 and <= {MAX_ARC_LENGTH}, got {l}")
    return 0.5 * math.sinh(0.5 * l)


def saccheri_top_length(W: float, core_length: float, width: float) -> float:
    """Independent oracle for collar_arc_length.

    Realize the core lift as the unit semicircle and put the Saccheri
    quadrilateral's symmetry axis on the imaginary axis: its feet sit at
    signed distance +-s from i along the core, s = W*core/2.  The point i*y,
    y = e^{-width}, lies at distance `width` from i on the perpendicular
    through i; translating it by +-s along the core gives the top corners
    (+-X, Y), with D = cosh(s/2)^2 + sinh(s/2)^2 y^2, X = sinh(s)(1 + y^2)/(2D)
    and Y = y/D.  Measure the top side between them with complex_dist.  The
    corners are mirror images, so their difference 2X keeps every digit
    however small s is; halving sinh(s) first keeps X finite wherever
    sinh(s) is.  Where s is below the least normal float it has lost digits
    or is 0, while cosh(s/2) = 1 and sinh(s) = s to the last bit, so D = 1:
    there X is built from the mantissas and exponents of W and core_length,
    already dilated by the power of 2 (an isometry) that puts Y in [1/2, 1).
    It raises collar_arc_length's ValueError, including where the length is
    below the least normal float, and, past MAX_ARC_LENGTH, its
    OverflowError; that OverflowError also where Y, a subnormal below
    2^-1042, keeps under 32 bits (widths past about 722)."""
    _check_positive(W=W, core_length=core_length, width=width)
    s = 0.5 * W * core_length
    y = math.exp(-width)
    try:
        if s >= sys.float_info.min:
            c, h = math.cosh(0.5 * s), math.sinh(0.5 * s)
            D = c * c + h * h * y * y
            X = 0.5 * math.sinh(s) * (1.0 + y * y) / D
            Y = top = y / D
        else:  # D = 1, and the quadrilateral is dilated by 2^-e (see above)
            (mW, eW), (mC, eC), (top, e) = math.frexp(W), math.frexp(core_length), math.frexp(y)
            X, Y = math.ldexp(0.25 * mW * mC, eW + eC - e) * (1.0 + y * y), y
        length = complex_dist(complex(X, top), complex(-X, top)) if Y >= 2.0**-1042 else math.inf
    except OverflowError:
        length = math.inf
    if not length <= MAX_ARC_LENGTH:
        raise OverflowError(_COLLAR_OVERFLOW.format(W, core_length, width))
    if length < sys.float_info.min:
        raise ValueError(_COLLAR_UNDERFLOW.format(W, core_length, width))
    return length


def verify_cusp_lemma_geometrically(W: float) -> float:
    """Deviation (float noise) between cusp_arc_length(W), which goes first
    and so sets the domain, and the half-plane distance of (-2W, 1), (2W, 1)."""
    length = cusp_arc_length(W)
    return abs(dist(Point(-2.0 * W, 1.0), Point(2.0 * W, 1.0)) - length)

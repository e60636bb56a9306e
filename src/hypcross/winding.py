"""Length of a geodesic arc that winds through a collar or a cusp neighborhood.

The dictionary runs both ways (winding number <-> arc length), and each closed
form has an independent geometric oracle: an explicit Saccheri quadrilateral
built in the half-plane for collar arcs, and the point-pair distance on the
height-one horocycle for cusp arcs, one winding number per call.  Arguments
are plain floats, and each oracle refuses what its closed form refuses.  The
module needs neither numpy nor dataclasses.
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


def collar_arc_length(W: float, core_length: float, width: float) -> float:
    """2*asinh(sinh(W*core/2) * cosh(width)) for an arc winding W times
    through a collar, endpoints at distance width from the core; increasing
    in every argument.  Past MAX_ARC_LENGTH, an OverflowError: math's own
    where sinh or cosh alone overflows, else one naming the arguments."""
    _check_positive(W=W, core_length=core_length, width=width)
    length = 2.0 * math.asinh(math.sinh(0.5 * W * core_length) * math.cosh(width))
    if length == math.inf:
        raise OverflowError(f"collar arc length overflows at W={W!r}, core_length={core_length!r}, width={width!r}")
    return length


def cusp_arc_length(W: float) -> float:
    """2*log(2W + sqrt(4W^2 + 1)), the length of an arc of winding W whose
    endpoints sit on the length-4 boundary horocycle.  hypot keeps the root
    finite wherever 2W is, so the length is finite while 4W is (W up to
    about 4.49e307); past that, an OverflowError names W."""
    _check_positive(W=W)
    w2 = 2.0 * W
    length = 2.0 * math.log(w2 + math.hypot(w2, 1.0))
    if length == math.inf:
        raise OverflowError(f"cusp arc length overflows at W={W!r}")
    return length


MAX_ARC_LENGTH = 2.0 * math.asinh(sys.float_info.max)  # about 1421: the l with sinh(l/2) finite; cosh(w) is finite for w up to half of it


def winding_from_length(l: float, core_length: float, width: float) -> float:
    """Exact inverse of collar_arc_length in W.

    Domain: 0 < l <= MAX_ARC_LENGTH, core_length finite and > 0, and
    0 < width <= MAX_ARC_LENGTH / 2, where cosh(width) is finite (the widths
    collar_arc_length accepts).  Outside it, a ValueError."""
    if not 0.0 < l <= MAX_ARC_LENGTH:
        raise ValueError(f"arc length must be > 0 and <= {MAX_ARC_LENGTH}, got {l}")
    _check_positive(core_length=core_length)
    if not 0.0 < width <= 0.5 * MAX_ARC_LENGTH:
        raise ValueError(f"width must be > 0 and <= {0.5 * MAX_ARC_LENGTH}, got {width}")
    return 2.0 * math.asinh(math.sinh(0.5 * l) / math.cosh(width)) / core_length


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
    sinh(s) is (past that, math.sinh raises OverflowError).  Where Y
    underflows to 0 or the length overflows, the closed form overflows too,
    and an OverflowError names the inputs; what collar_arc_length refuses
    raises its ValueError.
    """
    _check_positive(W=W, core_length=core_length, width=width)
    s = 0.5 * W * core_length
    y = math.exp(-width)
    c, h = math.cosh(0.5 * s), math.sinh(0.5 * s)
    D = c * c + h * h * y * y
    X = 0.5 * math.sinh(s) * (1.0 + y * y) / D
    Y = y / D
    length = complex_dist(complex(X, Y), complex(-X, Y)) if Y > 0.0 else math.inf
    if length == math.inf:
        raise OverflowError(f"quadrilateral top side overflows at W={W!r}, core_length={core_length!r}, width={width!r}")
    return length


def verify_cusp_lemma_geometrically(W: float) -> float:
    """Deviation (float noise) between cusp_arc_length at winding W, which
    goes first and so sets the domain, and the half-plane distance of the
    endpoint pair (-2W, 1), (2W, 1)."""
    length = cusp_arc_length(W)
    return abs(dist(Point(-2.0 * W, 1.0), Point(2.0 * W, 1.0)) - length)

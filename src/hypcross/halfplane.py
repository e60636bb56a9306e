"""Upper half-plane primitives: the 2x2 matrix kernel, distance, and the
trace-length dictionary.

The kernel (mat_mul, moebius, fixed_points) works on plain tuples
(a, b, c, d) for [[a, b], [c, d]].  The product uses only +, - and *, so int
and float entries both work and int entries stay exact.  moebius acts on
finite points only, real or complex: the tracer's lines never end at
infinity.  The tracer goes through the kernel; words applies its
generators as column steps of its own, and selfint's boundary count steps
each rotation to the next by a column and a row step.

Point is a named tuple, not a dataclass, which keeps dataclasses and inspect
out of ``import hypcross``.  It checks its arguments in ``__new__`` (``_make``
and ``_replace`` skip the checks).
"""

import math
import sys
from collections import namedtuple

PARABOLIC_TOL = 1e-12


class NotHyperbolic(ValueError):
    """Raised when an operation needs |trace| > 2 and the input fails that."""


# ------------------------------------------------------------ 2x2 kernel

def mat_mul(m, n):
    """Product m*n of (a, b, c, d) tuples."""
    a, b, c, d = m
    p, q, r, s = n
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def moebius(m, z):
    """Moebius action z -> (a z + b)/(c z + d) on a finite point: a real
    boundary point or a complex interior one.  A pole raises
    ZeroDivisionError."""
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def fixed_points(m) -> tuple[float, float]:
    """Real fixed points of a hyperbolic matrix with c != 0, unsorted: the
    roots of c x^2 + (d - a) x - b = 0 by the cancellation-free pair
    t/c, -b/t.  The discriminant is (d-a)^2 + 4bc = tr^2 - 4 > 0, so t != 0."""
    a, b, c, d = m
    tr = a + d
    bq = d - a
    sq = math.sqrt(tr * tr - 4.0)
    t = -0.5 * (bq + math.copysign(sq, bq)) if bq != 0.0 else 0.5 * sq
    return (t / c, -b / t)


class Point(namedtuple("Point", "x y")):
    """Point x + iy of the open upper half-plane, y > 0 strictly."""

    __slots__ = ()

    def __new__(cls, x, y):
        if not (math.isfinite(x) and math.isfinite(y)) or y <= 0.0:
            raise ValueError(f"upper half-plane requires finite x and y > 0, got ({x}, {y})")
        return tuple.__new__(cls, (x, y))


def length_from_trace(t: float) -> float:
    """Trace-length dictionary: 2*acosh(|t|/2) for |t| > 2."""
    if abs(t) <= 2.0 + PARABOLIC_TOL:
        raise NotHyperbolic(f"|trace| = {abs(t)} is not > 2")
    return 2.0 * math.acosh(abs(t) / 2.0)


def complex_dist(z: complex, w: complex) -> float:
    """Hyperbolic distance between points z, w of the half-plane,
    cosh d = 1 + |z-w|^2 / (2 y1 y2), evaluated in the equivalent form
    2*asinh(|z-w| / (2 sqrt(y1 y2))) which stays accurate when the points
    nearly coincide.  Where y1 y2 is below the least normal float (a wide
    collar puts both points at heights near e^-width) it has lost digits or
    underflowed to 0, so sqrt(y1) sqrt(y2) replaces sqrt(y1 y2)."""
    d = z - w
    yy = z.imag * w.imag
    root = math.sqrt(yy) if yy >= sys.float_info.min else math.sqrt(z.imag) * math.sqrt(w.imag)
    return 2.0 * math.asinh(0.5 * math.hypot(d.real, d.imag) / root)


def dist(p: Point, q: Point) -> float:
    """Hyperbolic distance between two Points (see complex_dist)."""
    return complex_dist(complex(p.x, p.y), complex(q.x, q.y))

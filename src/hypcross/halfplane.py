"""Upper half-plane primitives: isometries, distance, axes, trace-length dictionary.

The 2x2 matrix kernel (mat_mul, mat_inv, moebius, moebius_point,
fixed_points) works on plain tuples (a, b, c, d) for [[a, b], [c, d]].  The
product and inverse use only +, - and *, so int and float entries both work
and int entries stay exact.  Words, selfint and Isometry, itself an
(a, b, c, d) tuple, all go through it.

Isometry, Point and Axis are named tuples, not dataclasses, which keeps
dataclasses and inspect out of ``import hypcross``.  Each checks its arguments
in ``__new__`` (``_make`` and ``_replace`` skip the checks).
"""

from __future__ import annotations

import math
from collections import namedtuple

# Boundary points of the half-plane are reals, with math.inf as the point at
# infinity.  Every consumer of a boundary value handles INFINITY explicitly.
INFINITY = math.inf

DET_TOL = 1e-12
PARABOLIC_TOL = 1e-12


class NotHyperbolic(ValueError):
    """Raised when an operation needs |trace| > 2 and the input fails that."""


class SharedEndpoint(ValueError):
    """Two axes share a boundary endpoint; the configuration is not transverse."""


# ------------------------------------------------------------ 2x2 kernel

def mat_mul(m, n):
    """Product m*n of (a, b, c, d) tuples."""
    a, b, c, d = m
    p, q, r, s = n
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def mat_inv(m):
    """Adjugate (d, -b, -c, a): the inverse of a unit-determinant matrix."""
    a, b, c, d = m
    return (d, -b, -c, a)


def moebius(m, x):
    """Moebius action x -> (a x + b)/(c x + d) on a boundary point
    (INFINITY-aware: a pole maps to INFINITY, INFINITY maps to a/c)."""
    a, b, c, d = m
    if x == INFINITY:
        return a / c if c != 0.0 else INFINITY
    den = c * x + d
    if den == 0.0:
        return INFINITY
    return (a * x + b) / den


def moebius_point(m, z: complex) -> complex:
    """Moebius action on an interior point z of the half-plane."""
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


class Isometry(namedtuple("Isometry", "a b c d")):
    """Orientation-preserving isometry of the half-plane as a unit-determinant
    2x2 real matrix [[a, b], [c, d]].  Construction renormalizes determinant
    drift larger than DET_TOL."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        det = a * d - b * c
        if not math.isfinite(det) or det <= 0.0:
            raise ValueError(f"matrix determinant must be positive, got {det}")
        if abs(det - 1.0) > DET_TOL:
            s = math.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        return tuple.__new__(cls, (a, b, c, d))

    @property
    def trace(self) -> float:
        return self.a + self.d

    def classify(self) -> str:
        t = abs(self.trace)
        if abs(t - 2.0) <= PARABOLIC_TOL:
            return "parabolic"
        return "elliptic" if t < 2.0 else "hyperbolic"

    def inverse(self) -> "Isometry":
        return Isometry(*mat_inv(self))


IDENTITY = Isometry(1.0, 0.0, 0.0, 1.0)


def compose(g: Isometry, h: Isometry) -> Isometry:
    """Matrix product g*h, renormalized to unit determinant."""
    return Isometry(*mat_mul(g, h))


class Point(namedtuple("Point", "x y")):
    """Point x + iy of the open upper half-plane, y > 0 strictly."""

    __slots__ = ()

    def __new__(cls, x, y):
        if not (math.isfinite(x) and math.isfinite(y)) or y <= 0.0:
            raise ValueError(f"upper half-plane requires finite x and y > 0, got ({x}, {y})")
        return tuple.__new__(cls, (x, y))


class Axis(namedtuple("Axis", "p q")):
    """Unordered endpoint pair of a complete geodesic, stored canonically:
    finite endpoints ascending, INFINITY last."""

    __slots__ = ()

    def __new__(cls, p, q):
        if p == q:
            raise ValueError("axis endpoints must be distinct")
        return tuple.__new__(cls, sorted((p, q)))


def apply_boundary(g: Isometry, x: float) -> float:
    """Moebius action on a boundary point (INFINITY-aware)."""
    return moebius(g, x)


def apply_axis(g: Isometry, axis: Axis) -> Axis:
    return Axis(apply_boundary(g, axis.p), apply_boundary(g, axis.q))


def length_from_trace(t: float) -> float:
    """Trace-length dictionary: 2*acosh(|t|/2) for |t| > 2."""
    if abs(t) <= 2.0 + PARABOLIC_TOL:
        raise NotHyperbolic(f"|trace| = {abs(t)} is not > 2")
    return 2.0 * math.acosh(abs(t) / 2.0)


def translation_length(g: Isometry) -> float:
    """Length 2*acosh(|tr|/2) of the closed geodesic of a hyperbolic isometry."""
    if g.classify() != "hyperbolic":
        raise NotHyperbolic(f"|trace| = {abs(g.trace)} is not > 2")
    return length_from_trace(g.trace)


def complex_dist(z: complex, w: complex) -> float:
    """Hyperbolic distance between points z, w of the half-plane,
    cosh d = 1 + |z-w|^2 / (2 y1 y2), evaluated in the equivalent form
    2*asinh(|z-w| / (2 sqrt(y1 y2))) which stays accurate when the points
    nearly coincide."""
    d = z - w
    return 2.0 * math.asinh(0.5 * math.hypot(d.real, d.imag) / math.sqrt(z.imag * w.imag))


def dist(p: Point, q: Point) -> float:
    """Hyperbolic distance between two Points (see complex_dist)."""
    return complex_dist(complex(p.x, p.y), complex(q.x, q.y))


def axis_of(g: Isometry) -> Axis:
    """Axis of a hyperbolic isometry: the real fixed points, roots of
    c x^2 + (d - a) x - b = 0.  When c = 0 one endpoint is INFINITY."""
    if g.classify() != "hyperbolic":
        raise NotHyperbolic(f"|trace| = {abs(g.trace)} is not > 2")
    scale = max(abs(g.a), abs(g.b), abs(g.d), 1.0)
    if abs(g.c) <= 1e-14 * scale:
        return Axis(g.b / (g.d - g.a), INFINITY)
    return Axis(*fixed_points(g))


def _theta(x: float) -> float:
    """Circle chart of the boundary: finite x -> atan(x), INFINITY -> pi/2."""
    return math.pi / 2.0 if x == INFINITY else math.atan(x)


def _same_endpoint(u: float, v: float) -> bool:
    if u == INFINITY or v == INFINITY:
        return u == v
    return abs(u - v) <= 1e-12 * max(1.0, abs(u), abs(v))


def axes_cross(alpha: Axis, beta: Axis) -> bool:
    """True iff the endpoint pairs interleave on the boundary circle, i.e. the
    two geodesics cross transversely at one interior point."""
    for u in (alpha.p, alpha.q):
        for v in (beta.p, beta.q):
            if _same_endpoint(u, v):
                raise SharedEndpoint(f"axes share endpoint {u}")
    lo, hi = sorted((_theta(alpha.p), _theta(alpha.q)))
    inside = sum(1 for v in (beta.p, beta.q) if lo < _theta(v) < hi)
    return inside == 1

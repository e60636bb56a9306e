"""Float tracer for self-intersection counts on the three-cusp sphere: an
oracle for the two exact counts of hypcross.selfint, which are what
hypcross.spectrum uses.  ``import hypcross`` does not load this module.

March the axis through the standard fundamental domain
{|Re z| <= 1, |2z-1| >= 1, |2z+1| >= 1}, re-entering through the side
pairings, for exactly one period.  The resulting chain of circular arcs is the
geodesic drawn on the surface; transverse crossings among the arcs, merged by
proximity and counted with the n-choose-2 convention at merged points, give
the count.  One wall table (_WALLS) holds each wall as a geodesic with its
side pairing, a generator from words.GEN_MAT: exits are the axis's crossings
with the wall geodesics, and the on-wall and outside-the-domain tests loop
over the table.  Every hyperbolic distance is halfplane.complex_dist, the
formula behind halfplane.dist.

Traced lines are half-circles: a hyperbolic axis has c != 0 and |tr| >= 6,
so its endpoints are finite quadratic irrationals, and the integer side
pairings keep them finite.  Only the walls x = -1 and x = +1 are vertical.

Each arc's record (_Arc) is built once after the trace: both endpoints and
the sorted parameter range, bare and widened by the merge slack, which the
crossing loop and the strand count read.  Before its three exact tests (arc
start, arc end, or the arc's nearest chart point within the merge radius of a
copy p of a merged point), the strand count drops p when the sinh of its
distance to the arc's whole line is at least 2*sinh(merge radius) (_screen).
The screen is exact: all three tested points lie on that line, and no point
of a line is nearer p than the line is, so a dropped p is one where all three
tests are false.  The factor 2 covers rounding.

Validity range: tol in [1e-8, 1e-6], checked at 1e-8, 1e-7 and 1e-6 against
the exact count on all 12,741 primitive classes through word length 11, and
at 1e-8 on all 22,110 of length 12; tracer_count refuses any other tol.  The
word checks are selfint._check_word, which builds the integer word matrix
that the tracer reads as floats.
"""

from __future__ import annotations

import math
from math import comb

from .halfplane import complex_dist, fixed_points, length_from_trace, mat_mul, moebius
from .selfint import _check_word
from .words import GEN_MAT


class DegenerateCrossing(RuntimeError):
    """Two arcs cross at an angle below 1e-6 radians; counts are unreliable."""


class TracerError(RuntimeError):
    """The traced chain failed to close up or to leave the domain cleanly."""


# --------------------------------------------------------------- tracer

# default tracer tolerance: crossings merge at 10*TRACER_TOL (hyperbolic)
TRACER_TOL = 1e-6


class _Line:
    """Complete geodesic: a half-circle (kind "c", center c, radius r), or
    for the walls x = -1 and x = +1 only, a vertical line (kind "v", x = c)."""

    __slots__ = ("kind", "c", "r")

    def __init__(self, kind: str, c: float, r: float = 0.0):
        self.kind = kind
        self.c = c
        self.r = r

    @classmethod
    def through(cls, p: float, q: float) -> "_Line":
        """The traced half-circle with boundary points p and q."""
        if math.isinf(p) or math.isinf(q):
            raise TracerError(f"traced line ends at infinity: {p!r}, {q!r}")
        return cls("c", 0.5 * (p + q), 0.5 * abs(q - p))

    def endpoints(self) -> tuple[float, float]:
        return (self.c - self.r, self.c + self.r)

    def param(self, z: complex) -> float:
        """Monotone coordinate along the line: the angle at the center."""
        return math.atan2(z.imag, z.real - self.c)

    def point(self, t: float) -> complex:
        return complex(self.c + self.r * math.cos(t), self.r * math.sin(t))

    def advance(self, t: float, dist: float, sign: float) -> float:
        """Parameter after moving hyperbolic distance `dist` in direction sign."""
        return 2.0 * math.atan(math.tan(0.5 * t) * math.exp(sign * dist))

    def gap(self, t1: float, t2: float) -> float:
        """Hyperbolic distance between parameters t1, t2."""
        return abs(math.log(math.tan(0.5 * t2) / math.tan(0.5 * t1)))

    def offset(self, z: complex) -> float:
        """Euclidean distance from z to the line."""
        if self.kind == "v":
            return abs(z.real - self.c)
        return abs(abs(z - self.c) - self.r)

    def sinh_dist(self, z: complex) -> float:
        """sinh of the hyperbolic distance from z to the line."""
        if self.kind == "v":
            return abs(z.real - self.c) / z.imag
        return abs(abs(z - self.c) ** 2 - self.r**2) / (2.0 * self.r * z.imag)

    def same_as(self, other: "_Line", tol: float) -> bool:
        return abs(self.c - other.c) <= tol and abs(self.r - other.r) <= tol


# the domain's walls, each with the side pairing (a generator) that carries a
# point leaving through it to its re-entry point on the partner wall
_WALLS = {
    "L": (_Line("v", -1.0), GEN_MAT["a"]),  # x = -1, re-enter at x = +1
    "R": (_Line("v", 1.0), GEN_MAT["A"]),  # x = +1
    "Cm": (_Line("c", -0.5, 0.5), GEN_MAT["b"]),  # |2z+1| = 1, re-enter on |2z-1| = 1
    "Cp": (_Line("c", 0.5, 0.5), GEN_MAT["B"]),  # |2z-1| = 1
}


def _line_crossing(line: _Line, other: _Line) -> complex | None:
    """Crossing of the traced half-circle `line` with a wall or traced line."""
    if other.kind == "v":
        x, y2 = other.c, line.r * line.r - (other.c - line.c) ** 2
    elif line.c == other.c:
        return None
    else:
        x = (line.r**2 - other.r**2 + other.c**2 - line.c**2) / (2.0 * (other.c - line.c))
        y2 = line.r**2 - (x - line.c) ** 2
    if y2 <= 0.0:
        return None
    return complex(x, math.sqrt(y2))


def _map_line(m, line: _Line) -> _Line:
    p, q = line.endpoints()
    return _Line.through(moebius(m, p), moebius(m, q))


def _wall_images(z: complex, tol: float) -> list[complex]:
    """The point together with its side-pairing copies across every wall
    within hyperbolic distance asinh(tol) of it."""
    return [z] + [moebius(pair, z) for wall, pair in _WALLS.values() if wall.sinh_dist(z) < tol]


def _containing_wall(z: complex) -> str | None:
    """Name of the first wall within Euclidean distance 1e-9 of z."""
    return next((name for name, (wall, _) in _WALLS.items() if wall.offset(z) < 1e-9), None)


def _reduce_to_domain(z: complex):
    """Translate a point into the fundamental domain, returning the applied map."""
    m = (1.0, 0.0, 0.0, 1.0)
    for _ in range(10_000):
        k = math.floor((z.real + 1.0) / 2.0)
        if k != 0:
            shift = (1.0, -2.0 * k, 0.0, 1.0)
            z = moebius(shift, z)
            m = mat_mul(shift, m)
        # inside the strip; leave any half-disk cut off by a circle wall
        for wall, step in _WALLS.values():
            if wall.kind == "c" and abs(z - wall.c) < wall.r - 1e-13:
                z = moebius(step, z)
                m = mat_mul(step, m)
                break
        else:
            return z, m
    raise TracerError("point reduction did not terminate")


def _direction(line: _Line, goal: float) -> float:
    """Sign of the parameter increment when marching toward the boundary
    point `goal`, which is one of the line's two endpoints."""
    # circle chart: angle 0 at c+r, pi at c-r
    return -1.0 if abs(goal - (line.c + line.r)) < abs(goal - (line.c - line.r)) else 1.0


def _trace_arcs(w: str):
    """One period of the geodesic of w as wall-to-wall arcs in the domain.

    Returns a list of (line, t_from, t_to) in traversal order.
    """
    g = tuple(float(x) for x in _check_word(w))
    p_lo, p_hi = sorted(fixed_points(g))
    ell = length_from_trace(g[0] + g[3])
    # attracting endpoint: the Moebius derivative 1/(c x + d)^2 is < 1 there
    att = p_hi if abs(g[2] * p_hi + g[3]) > 1.0 else p_lo
    z, m = _reduce_to_domain(complex(0.5 * (p_lo + p_hi), 0.5 * (p_hi - p_lo)))
    line = _map_line(m, _Line.through(p_lo, p_hi))
    goal = moebius(m, att)
    sign = _direction(line, goal)

    arcs = []
    traveled = 0.0
    t = line.param(z)
    start_z = z
    for _ in range(100_000):
        best = None
        for name, (wall, _) in _WALLS.items():
            hit = _line_crossing(line, wall)
            if hit is None:
                continue
            th = line.param(hit)
            if (th - t) * sign <= 1e-12:
                continue
            if best is None or (th - best[1]) * sign < 0.0:
                best = (name, th)
        if best is None:
            # on a wall pointing straight out of the domain: step through the
            # pairing with a zero-length transition and retry
            name, th = _containing_wall(line.point(t)), t
            if name is None:
                raise TracerError(f"no forward wall exit found for {w!r}")
        else:
            name, th = best
            seg = line.gap(t, th)
            if traveled + seg >= ell - 1e-9:
                arcs.append((line, t, line.advance(t, ell - traveled, sign)))
                break
            arcs.append((line, t, th))
            traveled += seg
        # carry the march through the exit wall's side pairing
        pair = _WALLS[name][1]
        z = moebius(pair, line.point(th))
        goal = moebius(pair, goal)
        line = _map_line(pair, line)
        sign = _direction(line, goal)
        t = line.param(z)
        if not arcs:
            start_z = z
    else:
        raise TracerError(f"period not exhausted after 100000 wall crossings for {w!r}")

    # start and end may sit on paired walls: compare orbit representatives
    end_z = arcs[-1][0].point(arcs[-1][2])
    if not any(complex_dist(p, q) < 1e-6 for p in _wall_images(end_z, 1e-6) for q in _wall_images(start_z, 1e-6)):
        raise TracerError(f"chain failed to close for {w!r}: gap {complex_dist(end_z, start_z):.3e}")
    # first and last arc lie on the same line split at the starting point; fuse
    if len(arcs) > 1 and arcs[0][0].same_as(arcs[-1][0], 1e-9):
        line0, t0a, t0b = arcs[0]
        _, tka, _ = arcs[-1]
        arcs = [(line0, tka, t0b)] + arcs[1:-1]
    return arcs


def _tangent(line: _Line, z: complex) -> complex:
    v = complex(-(z.imag), z.real - line.c)
    return v / abs(v)


class _Arc:
    """One traced arc, read by the crossing and strand tests: its line, its
    endpoints, and its sorted parameter range, bare (a, b) and widened by
    the merge slack (wa, wb)."""

    __slots__ = ("line", "start", "end", "a", "b", "wa", "wb")

    def __init__(self, line: _Line, t_from: float, t_to: float, merge_tol: float):
        self.line = line
        self.start, self.end = line.point(t_from), line.point(t_to)
        self.a, self.b = min(t_from, t_to), max(t_from, t_to)
        slack = merge_tol / line.r
        self.wa, self.wb = self.a - slack, self.b + slack

    def holds(self, z: complex) -> bool:
        """Is z's chart parameter within the widened range?"""
        return self.wa <= self.line.param(z) <= self.wb

    def dist(self, z: complex) -> float:
        """Hyperbolic distance from z to the arc's point nearest in the chart."""
        return complex_dist(z, self.line.point(min(max(self.line.param(z), self.a), self.b)))


def _screen(merge_tol: float) -> float:
    """sinh-distance from a line beyond which a point is farther than
    merge_tol from every point of it; the factor 2 covers rounding."""
    return 2.0 * math.sinh(merge_tol)


def tracer_count(w: str, tol: float = TRACER_TOL) -> int:
    """Self-intersection number by tracing the geodesic through the
    fundamental domain and counting transverse arc crossings, merged at
    10*tol (hyperbolic) with the n-choose-2 convention at merged points.

    tol must lie in [1e-8, 1e-6]; a ValueError is raised otherwise (nan
    included).  Checked at 1e-8, 1e-7 and 1e-6, the count equals the exact
    count on all 12,741 primitive classes through word length 11; at 1e-6 it
    fails on 10 of the 22,110 of length 12.  Outside the range it silently
    goes wrong within lengths 9-11: at 1e-5 aaaBaBBABB gives 14 (true 11), at
    1e-10 aaabaaabab gives 20 (true 19) and ababbbabbb raises TracerError.

    A proper power v^k runs k times along the geodesic of v, so each crossing
    of v is a merged point passed by 2k strands: the count is the frozen
    convention C(2k, 2) * i(v), not the standard k^2 * i(v) + k - 1 of a
    perturbed k-fold curve."""
    if not 1e-8 <= tol <= 1e-6:
        raise ValueError(f"tol must be in [1e-8, 1e-6], got {tol!r}")
    merge_tol = 10.0 * tol
    arcs = [_Arc(line, lo, hi, merge_tol) for line, lo, hi in _trace_arcs(w)]

    points: list[complex] = []
    for i, arc in enumerate(arcs):
        li = arc.line
        for other in arcs[i + 1 :]:
            lj = other.line
            if li.same_as(lj, 1e-9):
                continue
            z = _line_crossing(li, lj)
            if z is None or not (arc.holds(z) and other.holds(z)):
                continue
            ang = abs((_tangent(li, z).conjugate() * _tangent(lj, z)).imag)
            if ang < 1e-6:
                raise DegenerateCrossing(f"crossing angle {ang:.2e} at {z} for {w!r}")
            points.append(min(_wall_images(z, merge_tol), key=lambda p: (round(p.real, 9), round(p.imag, 9))))

    clusters: list[complex] = []
    for z in sorted(points, key=lambda p: (p.real, p.imag)):
        if not any(complex_dist(z, c) < merge_tol for c in clusters):
            clusters.append(z)

    reach = _screen(merge_tol)
    total = 0
    for center in clusters:
        copies = _wall_images(center, merge_tol)
        # the copies near each arc's whole line: those screened out are too
        # far from it for any of the three exact tests below to hold
        near: dict[int, list[complex]] = {}
        for p in copies:
            for k, arc in enumerate(arcs):
                if arc.line.sinh_dist(p) < reach:
                    near.setdefault(k, []).append(p)
        passes = 0
        starts, ends = set(), set()  # arcs that start / end at a copy of the point
        for k, ps in near.items():
            arc = arcs[k]
            near_s = any(complex_dist(arc.start, p) < merge_tol for p in ps)
            near_e = any(complex_dist(arc.end, p) < merge_tol for p in ps)
            if near_s:
                starts.add(k)
            if near_e:
                ends.add(k)
            # an arc may touch the merged point at both of its wall endpoints
            if near_s or near_e:
                passes += near_s + near_e
            elif any(arc.dist(p) < merge_tol for p in ps):
                passes += 1
        # an arc ending where the next one starts is one strand crossing a wall
        continuations = sum((k + 1) % len(arcs) in starts for k in ends)
        strands = passes - continuations
        if strands < 2:
            raise TracerError(f"cluster at {center} resolved to {strands} strands for {w!r}")
        total += comb(strands, 2)
    return total

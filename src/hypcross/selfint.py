"""Self-intersection counts of closed geodesics on the three-cusp sphere,
computed three ways: two exact integer counts and a float tracer.

Exact method (linked pairs; Cohen & Lustig 1987): the surface retracts onto
a one-vertex ribbon graph with the two loops a and b, whose four half-edges
sit round the vertex in the cyclic order a, A, B, b.  Traversing a letter x
leaves the vertex by half-edge x and returns by half-edge x^-1.  At the
corner before position i of the cyclic word, a strand enters by the inverse
of the letter before i and leaves by the letter at i.  For every ordered pair
of distinct corners (X, Y) that does not continue a shared stretch backward
(X's incoming half-edge is not one of Y's), the pair either
  * shares X's outgoing half-edge with Y, read forward or backward: the
    stretch the two strands then run along together is followed to its far
    end, and the pair is linked when the strands lie on the same side there
    as at its start, seen from the shared half-edge; or
  * uses all four half-edges, and is linked when the two pairs interleave.
Each crossing is found from both of its corners, so the count is half the
number of linked pairs.  It uses only integers and costs O(n^2) per word
plus the stretch lengths, which stay below n for a primitive word.

Boundary method (interleaving; exact): the rotation r_i = w[i:] + w[:i] is
the lift of the geodesic through the corner before position i, and its axis
has the endpoints (a - d +- sqrt(D)) / 2c on the real line, where (a, b, c, d)
is the integer matrix of r_i and D = t^2 - 4 for the common trace t (c is
never 0 for a hyperbolic element of the group).  Two axes cross exactly when
their endpoint pairs interleave, that is when their half-circles, of centres
(a - d) / 2c and radii sqrt(D) / 2|c|, meet: the distance between the
centres lies strictly between the difference and the sum of the radii.
Scaled by 2|c c'|, that is (|c| - |c'|)^2 D < p^2 < (|c| + |c'|)^2 D with the
integer p = (a - d) c' - (a' - d') c, so the test needs no square root.
The ordered pairs of corners are screened by the linked-pairs pair rule
(X's incoming half-edge is not one of Y's), which keeps one corner pair of
each crossing from each side; the count is half the interleaved pairs.
Each rotation's matrix is the previous one conjugated by one generator.
This count reads linkage from the group's action on the boundary, the
linked-pairs count from the ribbon order: only the pair rule is shared.

Tracer method: march the axis through the standard fundamental domain
{|Re z| <= 1, |2z-1| >= 1, |2z+1| >= 1}, re-entering through the side
pairings, for exactly one period.  The resulting chain of circular arcs is the
geodesic drawn on the surface; transverse crossings among the arcs, merged by
proximity and counted with the n-choose-2 convention at merged points, give
the count.  One wall table (_WALLS) holds each wall as a geodesic with its
side pairing: exits are the axis's crossings with the wall geodesics, and the
on-wall and outside-the-domain tests loop over the table.  Every hyperbolic
distance is halfplane.complex_dist, the formula behind halfplane.dist.

Each arc's record (_Arc) is built once after the trace: both endpoints and
the sorted parameter range, bare and widened by the merge slack, which the
crossing loop and the strand count read.  Before its three exact tests (arc
start, arc end, or the arc's nearest chart point within the merge radius of a
copy p of a merged point), the strand count drops p when the sinh of its
distance to the arc's whole line is at least 2*sinh(merge radius) (_screen).
The screen is exact: all three tested points lie on that line, and no point
of a line is nearer p than the line is, so a dropped p is one where all three
tests are false.  The factor 2 covers rounding.

All three counters share the word checks (_check_word), which build the
integer word matrix once; the boundary count reads it exactly, the tracer as
floats, and the linked-pairs count not at all.
"""

from __future__ import annotations

import math
from math import comb, inf as INF

from .halfplane import complex_dist, fixed_points, length_from_trace, mat_mul, moebius, moebius_point
from .words import GEN_MAT, INVERSE, LETTERS, is_cyclically_reduced, is_primitive, word_matrix


class DegenerateCrossing(RuntimeError):
    """Two arcs cross at an angle below 1e-6 radians; counts are unreliable."""


class TracerError(RuntimeError):
    """The traced chain failed to close up or to leave the domain cleanly."""


class NotPrimitiveWord(ValueError):
    """The exact counts require a primitive (non-power) word."""


def _check_word(w: str) -> tuple[int, int, int, int]:
    """Shared start of all three counters: w must be a cyclically reduced
    hyperbolic word over LETTERS.  Returns its integer matrix."""
    if not w or any(ch not in LETTERS for ch in w):
        raise ValueError(f"not a word over {LETTERS!r}: {w!r}")
    if not is_cyclically_reduced(w):
        raise ValueError(f"word must be cyclically reduced: {w!r}")
    m = word_matrix(w)
    tr = abs(m[0] + m[3])
    if tr <= 2:
        raise ValueError(f"word is not hyperbolic (|trace| = {tr}): {w!r}")
    return m


# ---------------------------------------------------------- exact count

# position of each half-edge going round the vertex
_AROUND = {"a": 0, "A": 1, "B": 2, "b": 3}


def _before(s: str, p: str, q: str) -> bool:
    """Does p come before q going round the vertex from s?"""
    return (_AROUND[p] - _AROUND[s]) % 4 < (_AROUND[q] - _AROUND[s]) % 4


def self_intersection_count(w: str) -> int:
    """Self-intersection number of the closed geodesic of a primitive
    cyclically reduced hyperbolic word, by the exact linked-pairs count (see
    the module docstring).  Raises NotPrimitiveWord for a proper power."""
    _check_word(w)
    if not is_primitive(w):
        raise NotPrimitiveWord(f"word is a proper power: {w!r}")
    n = len(w)
    # out2[k]: half-edge leaving the corner before position k mod n;
    # in2[k - 1]: half-edge entering it (negative indices wrap too)
    out2 = w + w
    in2 = "".join(INVERSE[ch] for ch in out2)
    linked = 0
    for i in range(n):
        x_in, x_out = in2[i - 1], w[i]
        for j in range(n):
            y_in, y_out = in2[j - 1], w[j]
            if j == i or x_in == y_in or x_in == y_out:
                continue
            if x_out == y_out:  # Y runs along X forward
                m = 1
                while out2[i + m] == out2[j + m]:
                    m += 1
                start = (x_in, y_in)
                far = (out2[i + m], out2[j + m])
            elif x_out == y_in:  # Y runs along X backward
                m = 1
                while out2[i + m] == in2[j - 1 - m]:
                    m += 1
                start = (x_in, y_out)
                far = (out2[i + m], in2[j - 1 - m])
            else:
                linked += _before(x_in, y_in, x_out) != _before(x_in, y_out, x_out)
                continue
            linked += _before(x_out, *start) == _before(in2[i + m - 1], *far)
    if linked % 2:
        raise RuntimeError(f"odd number {linked} of linked pairs for {w!r}")
    return linked // 2


# ------------------------------------------------------- boundary count

def boundary_count(w: str) -> int:
    """Self-intersection number of the closed geodesic of a primitive
    cyclically reduced hyperbolic word, by exact interleaving of the axes of
    its rotations on the boundary (see the module docstring).  Integers
    only.  Raises NotPrimitiveWord for a proper power."""
    m = _check_word(w)
    if not is_primitive(w):
        raise NotPrimitiveWord(f"word is a proper power: {w!r}")
    disc = (m[0] + m[3]) ** 2 - 4
    # per rotation r_i: a - d, c and |c|, which fix its axis's centre and radius
    axes = []
    for ch in w:
        axes.append((m[0] - m[3], m[2], abs(m[2])))
        m = mat_mul(mat_mul(GEN_MAT[INVERSE[ch]], m), GEN_MAT[ch])  # r_(i+1)
    # the pair rule: corner j is paired with corner i when i's incoming
    # half-edge is neither of j's, which leaves out j == i itself
    ins = [INVERSE[ch] for ch in w[-1] + w[:-1]]
    paired = {x: [ax for ax, y_in, y_out in zip(axes, ins, w) if x != y_in and x != y_out] for x in set(ins)}
    linked = 0
    for (e, c, r), x_in in zip(axes, ins):
        for f, g, s in paired[x_in]:
            p = e * g - f * c
            linked += (r - s) ** 2 * disc < p * p < (r + s) ** 2 * disc
    if linked % 2:
        raise RuntimeError(f"odd number {linked} of interleaved pairs for {w!r}")
    return linked // 2


# --------------------------------------------------------------- tracer

# default tracer tolerance: crossings merge at 10*TRACER_TOL (hyperbolic)
TRACER_TOL = 1e-6


class _Line:
    """Complete geodesic: vertical (x = v) or half-circle (center c, radius r)."""

    __slots__ = ("kind", "c", "r")

    def __init__(self, kind: str, c: float, r: float = 0.0):
        self.kind = kind
        self.c = c
        self.r = r

    @classmethod
    def through(cls, p: float, q: float) -> "_Line":
        if p == INF:
            return cls("v", q)
        if q == INF:
            return cls("v", p)
        return cls("c", 0.5 * (p + q), 0.5 * abs(q - p))

    def endpoints(self) -> tuple[float, float]:
        if self.kind == "v":
            return (self.c, INF)
        return (self.c - self.r, self.c + self.r)

    def param(self, z: complex) -> float:
        """Monotone coordinate along the line: log-height or angle."""
        if self.kind == "v":
            return math.log(z.imag)
        return math.atan2(z.imag, z.real - self.c)

    def point(self, t: float) -> complex:
        if self.kind == "v":
            return complex(self.c, math.exp(t))
        return complex(self.c + self.r * math.cos(t), self.r * math.sin(t))

    def advance(self, t: float, dist: float, sign: float) -> float:
        """Parameter after moving hyperbolic distance `dist` in direction sign."""
        if self.kind == "v":
            return t + sign * dist
        return 2.0 * math.atan(math.tan(0.5 * t) * math.exp(sign * dist))

    def gap(self, t1: float, t2: float) -> float:
        """Hyperbolic distance between parameters t1, t2."""
        if self.kind == "v":
            return abs(t2 - t1)
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
        if self.kind != other.kind:
            return False
        if self.kind == "v":
            return abs(self.c - other.c) <= tol
        return abs(self.c - other.c) <= tol and abs(self.r - other.r) <= tol


# the domain's walls, each with the side pairing that carries a point leaving
# through it to its re-entry point on the partner wall
_WALLS = {
    "L": (_Line("v", -1.0), (1.0, 2.0, 0.0, 1.0)),  # x = -1, re-enter at x = +1
    "R": (_Line("v", 1.0), (1.0, -2.0, 0.0, 1.0)),  # x = +1
    "Cm": (_Line("c", -0.5, 0.5), (1.0, 0.0, 2.0, 1.0)),  # |2z+1| = 1, re-enter on |2z-1| = 1
    "Cp": (_Line("c", 0.5, 0.5), (1.0, 0.0, -2.0, 1.0)),  # |2z-1| = 1
}


def _line_crossing(l1: _Line, l2: _Line) -> complex | None:
    if l1.kind == "v" and l2.kind == "v":
        return None
    if l1.kind == "v":
        l1, l2 = l2, l1
    if l2.kind == "v":
        y2 = l1.r * l1.r - (l2.c - l1.c) ** 2
        if y2 <= 0.0:
            return None
        return complex(l2.c, math.sqrt(y2))
    if l1.c == l2.c:
        return None
    x = (l1.r**2 - l2.r**2 + l2.c**2 - l1.c**2) / (2.0 * (l2.c - l1.c))
    y2 = l1.r**2 - (x - l1.c) ** 2
    if y2 <= 0.0:
        return None
    return complex(x, math.sqrt(y2))


def _map_line(m, line: _Line) -> _Line:
    p, q = line.endpoints()
    return _Line.through(moebius(m, p), moebius(m, q))


def _wall_images(z: complex, tol: float) -> list[complex]:
    """The point together with its side-pairing copies across every wall
    within hyperbolic distance asinh(tol) of it."""
    return [z] + [moebius_point(pair, z) for wall, pair in _WALLS.values() if wall.sinh_dist(z) < tol]


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
            z = moebius_point(shift, z)
            m = mat_mul(shift, m)
        # inside the strip; leave any half-disk cut off by a circle wall
        for wall, step in _WALLS.values():
            if wall.kind == "c" and abs(z - wall.c) < wall.r - 1e-13:
                z = moebius_point(step, z)
                m = mat_mul(step, m)
                break
        else:
            return z, m
    raise TracerError("point reduction did not terminate")


def _direction(line: _Line, goal: float) -> float:
    """Sign of the parameter increment when marching toward the boundary
    point `goal`, which is one of the line's two endpoints."""
    if line.kind == "v":
        return 1.0 if goal == INF else -1.0
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
        z = moebius_point(pair, line.point(th))
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
    if line.kind == "v":
        return 1j
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
        slack = merge_tol / line.r if line.kind == "c" else merge_tol
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

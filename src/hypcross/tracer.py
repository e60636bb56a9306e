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
over the table.  Every hyperbolic distance is the formula of
halfplane.complex_dist, which tracer_count evaluates on plain floats.

Traced lines are half-circles (c, r), center c and radius r, parametrised by
the angle at the center: a hyperbolic axis has c != 0 and |tr| >= 6, so its
endpoints are finite quadratic irrationals, and the integer side pairings
keep them finite.  Only the walls x = -1 and x = +1 are vertical.

Each arc's record (_arc) is a flat tuple built once after the trace: its
line, r**2, 2*r and c**2, the sorted parameter range bare and widened by the
merge slack, and both endpoints, which the crossing loop and the strand count
read.  Before its three exact tests (arc start, arc end, or the arc's nearest
chart point within the merge radius of a copy p of a merged point), the
strand count drops p when the sinh of its distance to the arc's whole line is
at least 2*sinh(merge radius) (_near_lines).  The screen is exact: all three
tested points lie on that line, and no point of a line is nearer p than the
line is, so a dropped p is one where all three tests are false.  The factor 2
covers rounding.

Validity range: tol in [1e-8, 1e-6], checked at 1e-8, 1e-7 and 1e-6 against
the exact count on all 12,741 primitive classes through word length 11, and
at 1e-8 on all 22,110 of length 12 (pytest -m exhaustive); tracer_count
refuses any other tol.  The word checks are selfint._check_word, which builds
the integer word matrix that the tracer reads as floats.
"""

from __future__ import annotations

import math
import sys
from math import asinh, atan2, comb, cos, hypot, sin, sqrt

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

# the domain's walls as (c, r, side pairing): the half-circle with center c
# and radius r, or for r = 0.0 the vertical line x = c; the pairing (a
# generator) carries a point leaving through the wall to its re-entry point
# on the partner wall
_WALLS = (
    (-1.0, 0.0, GEN_MAT["a"]),  # x = -1, re-enter at x = +1
    (1.0, 0.0, GEN_MAT["A"]),  # x = +1
    (-0.5, 0.5, GEN_MAT["b"]),  # |2z+1| = 1, re-enter on |2z-1| = 1
    (0.5, 0.5, GEN_MAT["B"]),  # |2z-1| = 1
)


def _line_through(p: float, q: float) -> tuple[float, float]:
    """Center and radius of the traced half-circle with boundary points p, q."""
    if math.isinf(p) or math.isinf(q):
        raise TracerError(f"traced line ends at infinity: {p!r}, {q!r}")
    return 0.5 * (p + q), 0.5 * abs(q - p)


def _map_line(m, c: float, r: float) -> tuple[float, float]:
    """The traced line (c, r) carried by the Moebius map m."""
    return _line_through(moebius(m, c - r), moebius(m, c + r))


def _wall_images(z: complex, tol: float) -> list[complex]:
    """The point together with its side-pairing copies across every wall
    within hyperbolic distance asinh(tol) of it (sinh of the distance to a
    wall: |x - c| / y, or |(|z - c|^2 - r^2)| / (2 r y))."""
    images = [z]
    for c, r, pair in _WALLS:
        if (abs(z.real - c) / z.imag if r == 0.0 else abs(abs(z - c) ** 2 - r**2) / (2.0 * r * z.imag)) < tol:
            images.append(moebius(pair, z))
    return images


def _containing_wall(z: complex):
    """Side pairing of the first wall within Euclidean distance 1e-9 of z,
    or None."""
    for c, r, pair in _WALLS:
        if (abs(z.real - c) if r == 0.0 else abs(abs(z - c) - r)) < 1e-9:
            return pair
    return None


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
        for c, r, step in _WALLS:
            if r != 0.0 and abs(z - c) < r - 1e-13:
                z = moebius(step, z)
                m = mat_mul(step, m)
                break
        else:
            return z, m
    raise TracerError("point reduction did not terminate")


def _direction(c: float, r: float, goal: float) -> float:
    """Sign of the parameter increment when marching toward the boundary
    point `goal`, which is one of the line's two endpoints."""
    # circle chart: angle 0 at c+r, pi at c-r
    return -1.0 if abs(goal - (c + r)) < abs(goal - (c - r)) else 1.0


def _trace_arcs(w: str):
    """One period of the geodesic of w as wall-to-wall arcs in the domain.

    Returns a list of (c, r, t_from, t_to) in traversal order: the arc's
    line and its chart parameters at the two ends.
    """
    g = tuple(float(x) for x in _check_word(w))
    p_lo, p_hi = sorted(fixed_points(g))
    ell = length_from_trace(g[0] + g[3])
    # attracting endpoint: the Moebius derivative 1/(c x + d)^2 is < 1 there
    att = p_hi if abs(g[2] * p_hi + g[3]) > 1.0 else p_lo
    z, m = _reduce_to_domain(complex(0.5 * (p_lo + p_hi), 0.5 * (p_hi - p_lo)))
    c, r = _map_line(m, *_line_through(p_lo, p_hi))
    goal = moebius(m, att)
    sign = _direction(c, r, goal)

    arcs = []
    traveled = 0.0
    t = atan2(z.imag, z.real - c)
    start_z = z
    # one step per wall crossing: no class through length 12, and no word of
    # a seeded sample of lengths 13-32 whose march used up its period, takes
    # more than len(w) + 1; twice that is headroom
    max_steps = 2 * len(w) + 2
    for _ in range(max_steps):
        # the nearest forward crossing of the line with a wall
        best = None
        rr, r2, c2 = r * r, r**2, c**2
        for wc, wr, pair in _WALLS:
            if wr == 0.0:
                x, y2 = wc, rr - (wc - c) ** 2
            elif c == wc:
                continue
            else:
                x = (r2 - wr**2 + wc**2 - c2) / (2.0 * (wc - c))
                y2 = r2 - (x - c) ** 2
            if y2 <= 0.0:
                continue
            th = atan2(sqrt(y2), x - c)
            if (th - t) * sign <= 1e-12:
                continue
            if best is None or (th - best_th) * sign < 0.0:
                best, best_th = pair, th
        if best is None:
            # on a wall pointing straight out of the domain: step through the
            # pairing with a zero-length transition and retry
            pair, th = _containing_wall(complex(c + r * cos(t), r * sin(t))), t
            if pair is None:
                raise TracerError(f"no forward wall exit found for {w!r}")
        else:
            pair, th = best, best_th
            # hyperbolic length of the arc from t to th
            seg = abs(math.log(math.tan(0.5 * th) / math.tan(0.5 * t)))
            if traveled + seg >= ell - 1e-9:
                # the period ends inside this arc
                dist = ell - traveled
                arcs.append((c, r, t, 2.0 * math.atan(math.tan(0.5 * t) * math.exp(sign * dist))))
                break
            arcs.append((c, r, t, th))
            traveled += seg
        # carry the march through the exit wall's side pairing
        z = moebius(pair, complex(c + r * cos(th), r * sin(th)))
        goal = moebius(pair, goal)
        c, r = _map_line(pair, c, r)
        sign = _direction(c, r, goal)
        t = atan2(z.imag, z.real - c)
        if not arcs:
            start_z = z
    else:
        raise TracerError(f"period not exhausted after {max_steps} wall crossings for {w!r}")

    # start and end may sit on paired walls: compare orbit representatives
    c, r, _, t = arcs[-1]
    end_z = complex(c + r * cos(t), r * sin(t))
    if not any(complex_dist(p, q) < 1e-6 for p in _wall_images(end_z, 1e-6) for q in _wall_images(start_z, 1e-6)):
        raise TracerError(f"chain failed to close for {w!r}: gap {complex_dist(end_z, start_z):.3e}")
    # first and last arc lie on the same line split at the starting point; fuse
    if len(arcs) > 1 and abs(arcs[0][0] - c) <= 1e-9 and abs(arcs[0][1] - r) <= 1e-9:
        c0, r0, _, t0b = arcs[0]
        arcs = [(c0, r0, arcs[-1][2], t0b)] + arcs[1:-1]
    return arcs


def _arc(c: float, r: float, t_from: float, t_to: float, merge_tol: float) -> tuple:
    """One traced arc as the flat record that the crossing loop and the
    strand count read: (c, r, r**2, c**2, wa, wb, 2*r, a, b, sx, sy, ex, ey),
    its line, its sorted parameter range widened by the merge slack (wa, wb)
    and bare (a, b), and its start and end points."""
    a, b = min(t_from, t_to), max(t_from, t_to)
    slack = merge_tol / r
    return (c, r, r**2, c**2, a - slack, b + slack, 2.0 * r, a, b,
            c + r * cos(t_from), r * sin(t_from), c + r * cos(t_to), r * sin(t_to))


def _screen(merge_tol: float) -> float:
    """sinh-distance from a line beyond which a point is farther than
    merge_tol from every point of it; the factor 2 covers rounding."""
    return 2.0 * math.sinh(merge_tol)


def _near_lines(arcs, p: complex, reach: float) -> list[int]:
    """Indices of the arcs whose whole line passes the strand count's screen
    for p: the sinh of the distance from p to the line is below reach."""
    y = p.imag
    return [k for k, (c, _, r2, _, _, _, rr, _, _, _, _, _, _) in enumerate(arcs) if abs(abs(p - c) ** 2 - r2) / (rr * y) < reach]


def tracer_count(w: str, tol: float = TRACER_TOL) -> int:
    """Self-intersection number by tracing the geodesic through the
    fundamental domain and counting transverse arc crossings, merged at
    10*tol (hyperbolic) with the n-choose-2 convention at merged points.

    tol must lie in [1e-8, 1e-6]; a ValueError is raised otherwise (nan
    included).  Checked at 1e-8, 1e-7 and 1e-6, the count equals the exact
    count on all 12,741 primitive classes through word length 11; at 1e-6 it
    fails on 10 of the 22,110 of length 12.  Past length 12 it raises
    TracerError on more and more words, nearly all because the chain fails
    to close: of 1,000 seeded words a length, none at 13 and 14, 24 at 16,
    365 at 18, 803 at 20, 956 at 22 and 989 at 24, the same at 1e-6 and
    1e-8.  Of the 3,863 counts it returned, every one was exact at 1e-8, and
    two were overcounts at 1e-6: AABaBABAAbaabb gives 32 (true 31) and
    AbaBabbbbbbAbaabbaBBBB 44 (true 43).  Outside the range it silently
    goes wrong within lengths 9-11: at 1e-5 aaaBaBBABB gives 14 (true 11), at
    1e-10 aaabaaabab gives 20 (true 19) and ababbbabbb raises TracerError.

    A proper power v^k runs k times along the geodesic of v, so each crossing
    of v is a merged point passed by 2k strands: the count is the frozen
    convention C(2k, 2) * i(v), not the standard k^2 * i(v) + k - 1 of a
    perturbed k-fold curve."""
    if not 1e-8 <= tol <= 1e-6:
        raise ValueError(f"tol must be in [1e-8, 1e-6], got {tol!r}")
    merge_tol = 10.0 * tol
    arcs = [_arc(c, r, t_from, t_to, merge_tol) for c, r, t_from, t_to in _trace_arcs(w)]
    fmin = sys.float_info.min

    def close(zx, zy, qx, qy):
        # complex_dist(complex(zx, zy), complex(qx, qy)) < merge_tol
        yy = zy * qy
        root = sqrt(yy) if yy >= fmin else sqrt(zy) * sqrt(qy)
        return 2.0 * asinh(0.5 * hypot(zx - qx, zy - qy) / root) < merge_tol

    # transverse crossings of pairs of arcs, each as its least wall image
    points: list[complex] = []
    lines = [arc[:6] for arc in arcs]  # c, r, r**2, c**2, wa, wb
    for i, (ci, ri, r2i, c2i, wai, wbi) in enumerate(lines):
        for cj, rj, r2j, c2j, waj, wbj in lines[i + 1 :]:
            if abs(ci - cj) <= 1e-9 and abs(ri - rj) <= 1e-9 or ci == cj:
                continue
            x = (r2i - r2j + c2j - c2i) / (2.0 * (cj - ci))
            y2 = r2i - (x - ci) ** 2
            if y2 <= 0.0:
                continue
            y = sqrt(y2)
            if not (wai <= atan2(y, x - ci) <= wbi and waj <= atan2(y, x - cj) <= wbj):
                continue
            z = complex(x, y)
            # the unit tangents of the two lines at z
            vi, vj = complex(-(z.imag), z.real - ci), complex(-(z.imag), z.real - cj)
            ang = abs(((vi / abs(vi)).conjugate() * (vj / abs(vj))).imag)
            if ang < 1e-6:
                raise DegenerateCrossing(f"crossing angle {ang:.2e} at {z} for {w!r}")
            points.append(min(_wall_images(z, merge_tol), key=lambda p: (round(p.real, 9), round(p.imag, 9))))

    clusters: list[complex] = []
    for z in sorted(points, key=lambda p: (p.real, p.imag)):
        zx, zy = z.real, z.imag
        for q in clusters:
            if close(zx, zy, q.real, q.imag):
                break
        else:
            clusters.append(z)

    reach = _screen(merge_tol)
    total = 0
    for center in clusters:
        # arcs that start / end at a copy of the point, and arcs that pass it
        # between their ends; the copies screened out for an arc's line are
        # too far from it for any of these three exact tests to hold
        starts, ends, middles = set(), set(), set()
        for p in _wall_images(center, merge_tol):
            px, py = p.real, p.imag
            for k in _near_lines(arcs, p, reach):
                c, r, _, _, _, _, _, a, b, sx, sy, ex, ey = arcs[k]
                at_start, at_end = close(sx, sy, px, py), close(ex, ey, px, py)
                if at_start:
                    starts.add(k)
                if at_end:
                    ends.add(k)
                if not (at_start or at_end):
                    # the arc's point nearest p in the chart
                    t = min(max(atan2(py, px - c), a), b)
                    if close(px, py, c + r * cos(t), r * sin(t)):
                        middles.add(k)
        # an arc may touch the merged point at both of its wall endpoints; it
        # passes between them only if it touches it at neither
        passes = len(starts) + len(ends) + len(middles - starts - ends)
        # an arc ending where the next one starts is one strand crossing a wall
        continuations = sum((k + 1) % len(arcs) in starts for k in ends)
        strands = passes - continuations
        if strands < 2:
            raise TracerError(f"cluster at {center} resolved to {strands} strands for {w!r}")
        total += comb(strands, 2)
    return total

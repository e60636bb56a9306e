"""Self-intersection counts of closed geodesics on the three-cusp sphere,
computed two independent ways.

Double-coset method: normalize the axis of the word to the imaginary axis.
Conjugates of the word correspond to the other lifts of the geodesic; a lift
crossing the axis with crossing height inside one fundamental period is one
incidence (crossing point, crossing branch), and incidences come in ordered
pairs, so the count is half the number of distinct branch orbits.  Branch
orbits are deduplicated symbolically (canonical representative of the
conjugation orbit under the word itself), and the conjugate search is pruned
exactly with nested ping-pong intervals, so a pruned subtree provably holds no
crossing branch.

Tracer method: march the axis through the standard fundamental domain
{|Re z| <= 1, |2z-1| >= 1, |2z+1| >= 1}, re-entering through the side
pairings, for exactly one period.  The resulting chain of circular arcs is the
geodesic drawn on the surface; transverse crossings among the arcs, merged by
proximity and counted with the n-choose-2 convention at merged points, give
the count.
"""

from __future__ import annotations

import math
from math import comb, inf as INF

from .halfplane import fixed_points, length_from_trace, mat_inv, mat_mul, moebius, moebius_point
from .words import (
    INVERSE,
    LETTERS,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    is_primitive,
    word_key,
    word_matrix,
    word_trace,
    rotations,
)


class CutoffTooSmall(RuntimeError):
    """Conjugator search did not stabilize under a cutoff increase of 2."""


class DegenerateCrossing(RuntimeError):
    """Two arcs cross at an angle below 1e-6 radians; counts are unreliable."""


class TracerError(RuntimeError):
    """The traced chain failed to close up or to leave the domain cleanly."""


class NotPrimitiveWord(ValueError):
    """Double-coset counting requires a primitive (non-power) word."""


class BranchDegeneracy(RuntimeError):
    """A conjugate branch endpoint collided with the axis endpoints."""


def _check_word(w: str) -> None:
    if not w or any(ch not in LETTERS for ch in w):
        raise ValueError(f"not a word over {LETTERS!r}: {w!r}")
    if not is_cyclically_reduced(w):
        raise ValueError(f"word must be cyclically reduced: {w!r}")
    if abs(word_trace(w)) <= 2:
        raise ValueError(f"word is not hyperbolic (|trace| = {abs(word_trace(w))}): {w!r}")


# ------------------------------------------------------------ mat helpers

def _fmat(w: str) -> tuple[float, float, float, float]:
    a, b, c, d = word_matrix(w)
    return float(a), float(b), float(c), float(d)


# ------------------------------------------------- double-coset counting

# ping-pong intervals on the boundary circle, as (from, to) swept in the
# increasing-atan direction: each generator maps the complement of the
# interval of its inverse inside its own interval
_BASE_ARC = {"a": (1.0, INF), "A": (INF, -1.0), "b": (0.0, 1.0), "B": (-1.0, 0.0)}


def _hull_meets_segment(u: float, v: float, ylo: float, yhi: float) -> bool:
    """Does the hyperbolic hull of the boundary arc (u -> v, positive sweep)
    meet the vertical segment {x = 0, ylo <= y <= yhi}?"""
    if not (math.isfinite(u) or u == INF) or not (math.isfinite(v) or v == INF):
        return True  # degenerate image; never prune on bad floats
    if u == INF and v == INF:
        return True
    if u == INF:  # arc is {x <= v} plus infinity: a Euclidean half-plane
        return v >= 0.0
    if v == INF:  # arc is {x >= u} plus infinity
        return u <= 0.0
    if u == v:
        return True
    if u < v:  # half-disk over [u, v]
        m = 0.5 * (u + v)
        rho = 0.5 * (v - u)
        return m * m + ylo * ylo <= rho * rho
    # wraps through infinity: complement of the open half-disk over [v, u]
    m = 0.5 * (u + v)
    rho = 0.5 * (u - v)
    return m * m + yhi * yhi >= rho * rho


def _orbit_canonical(v: str, w: str, wi: str) -> str:
    """Canonical representative of {w^k v w^-k}: length-minimal, then least."""
    def fwd(x: str) -> str:
        return free_reduce(w + x + wi)

    def bwd(x: str) -> str:
        return free_reduce(wi + x + w)

    cur = v
    for _ in range(10_000):
        nf, nb = fwd(cur), bwd(cur)
        if len(nf) < len(cur):
            cur = nf
        elif len(nb) < len(cur):
            cur = nb
        else:
            break
    else:
        raise RuntimeError(f"orbit reduction did not terminate for {v!r}")
    plateau = {cur}
    for step in (fwd, bwd):
        x = cur
        for _ in range(10_000):
            x = step(x)
            if len(x) != len(cur) or x in plateau:
                break
            plateau.add(x)
    return min(plateau, key=word_key)


def self_intersection_count(w: str, cutoff: int | None = None) -> int:
    """Self-intersection number of the closed geodesic of a primitive
    cyclically reduced hyperbolic word, by the axis double-coset method.

    Conjugators are searched to word length `cutoff` (default: len(w) + 8).
    Raises CutoffTooSmall if two extra levels of search still add crossings.
    """
    _check_word(w)
    if not is_primitive(w):
        raise NotPrimitiveWord(f"word is a proper power: {w!r}")
    n = len(w)
    if cutoff is None:
        cutoff = n + 8

    g = _fmat(w)
    ell = length_from_trace(g[0] + g[3])
    p_lo, p_hi = sorted(fixed_points(g))
    # send the axis to {0, infinity}: x -> (x - p_lo)/(p_hi - x)
    s = 1.0 / math.sqrt(p_hi - p_lo)
    phi = (s, -p_lo * s, -s, p_hi * s)
    gens = {y: mat_mul(mat_mul(phi, _fmat(y)), mat_inv(phi)) for y in LETTERS}
    arcs = {y: (moebius(phi, u), moebius(phi, v)) for y, (u, v) in _BASE_ARC.items()}

    seeds = []
    for r in rotations(w):
        e1, e2 = fixed_points(_fmat(r))
        seeds.append((r, moebius(phi, e1), moebius(phi, e2)))

    ylo, yhi = 0.99, 1.01 * math.exp(ell)
    wi = inverse_word(w)
    crossings: set[str] = set()

    def visit(qmat, qword: str, last: str | None) -> None:
        for r, e1, e2 in seeds:
            if last is None and r == w:
                continue  # the branch of w itself is the axis, not a crosser
            if last is not None and (last == INVERSE[r[0]] or last == r[-1]):
                continue
            p1 = moebius(qmat, e1)
            p2 = moebius(qmat, e2)
            if p1 == INF or p2 == INF or min(abs(p1), abs(p2)) < 1e-15:
                raise BranchDegeneracy(f"branch endpoint degenerated for conjugate of {r!r}")
            if p1 * p2 < 0.0:
                crossings.add(_orbit_canonical(qword + r + inverse_word(qword), w, wi))

    ident = (1.0, 0.0, 0.0, 1.0)
    visit(ident, "", None)
    frontier = [(ident, "", None)]
    depth = 0
    count_at_cutoff: int | None = None
    while frontier and depth < cutoff + 2:
        if depth == cutoff:
            count_at_cutoff = len(crossings)
        depth += 1
        nxt = []
        for qmat, qword, last in frontier:
            for y in LETTERS:
                if last is not None and y == INVERSE[last]:
                    continue
                cmat = mat_mul(qmat, gens[y])
                au, av = arcs[INVERSE[y]]
                img_u, img_v = moebius(cmat, au), moebius(cmat, av)
                # allowed region for this subtree: complement of the image arc
                if _hull_meets_segment(img_v, img_u, ylo, yhi):
                    visit(cmat, qword + y, y)
                    nxt.append((cmat, qword + y, y))
        frontier = nxt

    if count_at_cutoff is not None and len(crossings) != count_at_cutoff:
        raise CutoffTooSmall(
            f"count moved from {count_at_cutoff} to {len(crossings)} within two levels past cutoff {cutoff}"
        )
    total = len(crossings)
    if total % 2 != 0:
        raise RuntimeError(f"incidence set has odd size {total}; pairing convention violated")
    return total // 2


# --------------------------------------------------------------- tracer

_PAIRING = {
    "L": (1.0, 2.0, 0.0, 1.0),   # exit x = -1, re-enter at x = +1
    "R": (1.0, -2.0, 0.0, 1.0),  # exit x = +1
    "Cm": (1.0, 0.0, 2.0, 1.0),  # exit |2z+1| = 1, re-enter on |2z-1| = 1
    "Cp": (1.0, 0.0, -2.0, 1.0), # exit |2z-1| = 1
}


def _hyp_dist(z1: complex, z2: complex) -> float:
    d2 = abs(z1 - z2) ** 2
    c = 1.0 + d2 / (2.0 * z1.imag * z2.imag)
    return math.acosh(max(c, 1.0))


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

    def same_as(self, other: "_Line", tol: float) -> bool:
        if self.kind != other.kind:
            return False
        if self.kind == "v":
            return abs(self.c - other.c) <= tol
        return abs(self.c - other.c) <= tol and abs(self.r - other.r) <= tol


def _map_line(m, line: _Line) -> _Line:
    p, q = line.endpoints()
    return _Line.through(moebius(m, p), moebius(m, q))


def _wall_hits(line: _Line):
    """Intersections of the full line with the four domain walls."""
    hits = []
    if line.kind == "v":
        for wall, s in (("Cm", -0.5), ("Cp", 0.5)):
            y2 = 0.25 - (line.c - s) ** 2
            if y2 > 0.0:
                hits.append((wall, complex(line.c, math.sqrt(y2))))
        return hits
    c, r = line.c, line.r
    for wall, v in (("L", -1.0), ("R", 1.0)):
        u = (v - c) / r
        if -1.0 < u < 1.0:
            hits.append((wall, complex(v, r * math.sqrt(1.0 - u * u))))
    for wall, s in (("Cm", -0.5), ("Cp", 0.5)):
        if c == s:
            continue
        x = (r * r - 0.25 + s * s - c * c) / (2.0 * (s - c))
        y2 = r * r - (x - c) ** 2
        if y2 > 0.0:
            hits.append((wall, complex(x, math.sqrt(y2))))
    return hits


def _reduce_to_domain(z: complex, maxiter: int = 10_000):
    """Translate a point into the fundamental domain, returning the applied map."""
    m = (1.0, 0.0, 0.0, 1.0)
    for _ in range(maxiter):
        k = math.floor((z.real + 1.0) / 2.0)
        if k != 0:
            shift = (1.0, -2.0 * k, 0.0, 1.0)
            z = moebius_point(shift, z)
            m = mat_mul(shift, m)
        if abs(z + 0.5) < 0.5 - 1e-13:
            step = _PAIRING["Cm"]
        elif abs(z - 0.5) < 0.5 - 1e-13:
            step = _PAIRING["Cp"]
        else:
            return z, m
        z = moebius_point(step, z)
        m = mat_mul(step, m)
    raise TracerError("point reduction did not terminate")


def _containing_wall(z: complex, tol: float = 1e-9) -> str | None:
    if abs(z.real + 1.0) < tol:
        return "L"
    if abs(z.real - 1.0) < tol:
        return "R"
    if abs(abs(z + 0.5) - 0.5) < tol:
        return "Cm"
    if abs(abs(z - 0.5) - 0.5) < tol:
        return "Cp"
    return None


def _direction(line: _Line, goal: float) -> float:
    """Sign of the parameter increment when marching toward the boundary
    point `goal`, which is one of the line's two endpoints."""
    if line.kind == "v":
        return 1.0 if goal == INF else -1.0
    # circle chart: angle 0 at c+r, pi at c-r
    return -1.0 if abs(goal - (line.c + line.r)) < abs(goal - (line.c - line.r)) else 1.0


def _trace_arcs(w: str, tol: float):
    """One period of the geodesic of w as wall-to-wall arcs in the domain.

    Returns a list of (line, t_from, t_to) in traversal order.
    """
    g = _fmat(w)
    ell = length_from_trace(g[0] + g[3])
    p_lo, p_hi = sorted(fixed_points(g))
    a, b, c, d = g
    # attracting endpoint: the Moebius derivative 1/(c x + d)^2 is < 1 there
    att = p_hi if abs(c * p_hi + d) > 1.0 else p_lo
    apex = complex(0.5 * (p_lo + p_hi), 0.5 * (p_hi - p_lo))

    z, m = _reduce_to_domain(apex)
    line = _map_line(m, _Line.through(p_lo, p_hi))
    goal = moebius(m, att)
    sign = _direction(line, goal)

    arcs = []
    traveled = 0.0
    t = line.param(z)
    start_z = z
    for _ in range(100_000):
        best = None
        for wall, hit in _wall_hits(line):
            th = line.param(hit)
            if (th - t) * sign <= 1e-12:
                continue
            if best is None or (th - best[1]) * sign < 0.0:
                best = (wall, th)
        if best is None:
            # on a wall pointing straight out of the domain: step through the
            # pairing with a zero-length transition and retry
            pt = line.point(t)
            wall = _containing_wall(pt)
            if wall is None:
                raise TracerError(f"no forward wall exit found for {w!r}")
            pair = _PAIRING[wall]
            z = moebius_point(pair, pt)
            goal = moebius(pair, goal)
            line = _map_line(pair, line)
            sign = _direction(line, goal)
            t = line.param(z)
            if not arcs:
                start_z = z
            continue
        wall, th = best
        seg = line.gap(t, th)
        if traveled + seg >= ell - 1e-9:
            t_end = line.advance(t, ell - traveled, sign)
            arcs.append((line, t, t_end))
            break
        arcs.append((line, t, th))
        traveled += seg
        pair = _PAIRING[wall]
        z = moebius_point(pair, line.point(th))
        goal = moebius(pair, goal)
        line = _map_line(pair, line)
        sign = _direction(line, goal)
        t = line.param(z)
    else:
        raise TracerError(f"period not exhausted after 100000 wall crossings for {w!r}")

    end_z = arcs[-1][0].point(arcs[-1][2])
    if _hyp_dist(end_z, start_z) > 1e-6:
        # start/end may sit on paired walls; compare orbit representatives
        closed = any(
            _hyp_dist(p, q) < 1e-6
            for p in _wall_images(end_z, 1e-6)
            for q in _wall_images(start_z, 1e-6)
        )
        if not closed:
            raise TracerError(f"chain failed to close for {w!r}: gap {_hyp_dist(end_z, start_z):.3e}")
    # first and last arc lie on the same line split at the starting point; fuse
    if len(arcs) > 1 and arcs[0][0].same_as(arcs[-1][0], 1e-9):
        line0, t0a, t0b = arcs[0]
        _, tka, _ = arcs[-1]
        arcs = [(line0, tka, t0b)] + arcs[1:-1]
    return arcs


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


def _tangent(line: _Line, z: complex) -> complex:
    if line.kind == "v":
        return 1j
    v = complex(-(z.imag), z.real - line.c)
    return v / abs(v)


def _on_arc(line: _Line, lo: float, hi: float, z: complex, tol: float) -> bool:
    t = line.param(z)
    a, b = min(lo, hi), max(lo, hi)
    slack = tol / line.r if line.kind == "c" else tol
    return a - slack <= t <= b + slack


def _arc_hyp_dist(line: _Line, lo: float, hi: float, z: complex) -> float:
    a, b = min(lo, hi), max(lo, hi)
    if line.kind == "c":
        t = math.atan2(z.imag, z.real - line.c)
    else:
        t = math.log(z.imag) if z.imag > 0 else a
    t = min(max(t, a), b)
    return _hyp_dist(z, line.point(t))


def _wall_images(z: complex, tol: float) -> list[complex]:
    """The point together with its side-pairing copies when it sits on a wall
    (proximity measured hyperbolically: sinh d of point-to-geodesic)."""
    out = [z]
    y = z.imag
    if abs(z.real + 1.0) / y < tol:
        out.append(moebius_point(_PAIRING["L"], z))
    if abs(z.real - 1.0) / y < tol:
        out.append(moebius_point(_PAIRING["R"], z))
    if abs(abs(z + 0.5) ** 2 - 0.25) / y < tol:
        out.append(moebius_point(_PAIRING["Cm"], z))
    if abs(abs(z - 0.5) ** 2 - 0.25) / y < tol:
        out.append(moebius_point(_PAIRING["Cp"], z))
    return out


def tracer_count(w: str, tol: float = 1e-6) -> int:
    """Self-intersection number by tracing the geodesic through the
    fundamental domain and counting transverse arc crossings, merged at
    10*tol (hyperbolic) with the n-choose-2 convention at merged points."""
    _check_word(w)
    merge_tol = 10.0 * tol
    arcs = _trace_arcs(w, tol)

    points: list[complex] = []
    for i in range(len(arcs)):
        li, ai, bi = arcs[i]
        for j in range(i + 1, len(arcs)):
            lj, aj, bj = arcs[j]
            if li.same_as(lj, 1e-9):
                continue
            z = _line_crossing(li, lj)
            if z is None:
                continue
            if not (_on_arc(li, ai, bi, z, merge_tol) and _on_arc(lj, aj, bj, z, merge_tol)):
                continue
            ang = abs((_tangent(li, z).conjugate() * _tangent(lj, z)).imag)
            if ang < 1e-6:
                raise DegenerateCrossing(f"crossing angle {ang:.2e} at {z} for {w!r}")
            points.append(min(_wall_images(z, merge_tol), key=lambda p: (round(p.real, 9), round(p.imag, 9))))

    clusters: list[complex] = []
    for z in sorted(points, key=lambda p: (p.real, p.imag)):
        if not any(_hyp_dist(z, c) < merge_tol for c in clusters):
            clusters.append(z)

    total = 0
    for center in clusters:
        copies = _wall_images(center, merge_tol)
        passes = 0
        for line, lo, hi in arcs:
            # an arc may touch the merged point at both of its wall endpoints
            near_s = any(_hyp_dist(line.point(lo), p) < merge_tol for p in copies)
            near_e = any(_hyp_dist(line.point(hi), p) < merge_tol for p in copies)
            touches = int(near_s) + int(near_e)
            if touches == 0 and any(_arc_hyp_dist(line, lo, hi, p) < merge_tol for p in copies):
                touches = 1
            passes += touches
        continuations = 0
        for i in range(len(arcs)):
            li, ai, bi = arcs[i]
            lj, aj, bj = arcs[(i + 1) % len(arcs)]
            end_i = li.point(bi)
            start_j = lj.point(aj)
            if any(_hyp_dist(end_i, p) < merge_tol for p in copies) and any(
                _hyp_dist(start_j, p) < merge_tol for p in copies
            ):
                continuations += 1
        strands = passes - continuations
        if strands < 2:
            raise TracerError(f"cluster at {center} resolved to {strands} strands for {w!r}")
        total += comb(strands, 2)
    return total

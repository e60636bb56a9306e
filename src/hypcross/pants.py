"""Lengths of closed curves winding around two boundaries of a pair of pants.

The closed-form length (a product of Chebyshev-type sinh ratios and cosh
terms) is paired with an independent trace oracle: the trace of the word
a^m b^n as an integer polynomial in the boundary traces, built from the trace
identities alone and evaluated in binary64 without cancellation.  Both must
agree to 1e-9.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .words import INVERSE, canonical_class, inverse_word


@dataclass(frozen=True)
class PantsBoundary:
    """Boundary geodesic lengths (l1, l2, l3), all >= 0; 0 encodes a cusp."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        for v in (self.l1, self.l2, self.l3):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"boundary lengths must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class CurveClass:
    """Winding pair: m turns around boundary 1, then n turns around boundary 2."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"winding counts must be >= 1, got ({self.m}, {self.n})")


def chebyshev_ratio(m: int, l: float) -> float:
    """sinh(m*l/2)/sinh(l/2), extended by its exact limit m at l = 0.

    Strictly greater than m whenever l > 0 and m >= 2.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (math.isfinite(l) and l >= 0.0):
        raise ValueError(f"l must be finite and >= 0, got {l}")
    if l == 0.0:
        return float(m)
    t = 0.5 * l
    return math.sinh(m * t) / math.sinh(t)


def gamma_mn_length(P: PantsBoundary, C: CurveClass) -> float:
    """Length of the curve winding m times around boundary 1 and n times
    around boundary 2: 2*acosh of the sinh-ratio/cosh combination of the
    half-length hyperbolic functions, whose argument is always >= 2mn+1.
    Where that overflows, an OverflowError names l1, l2, l3, m and n."""
    l1, l2, l3, m, n = P.l1, P.l2, P.l3, C.m, C.n
    try:
        r1, r2 = chebyshev_ratio(m, l1), chebyshev_ratio(n, l2)
        c1, c2, c3 = math.cosh(0.5 * l1), math.cosh(0.5 * l2), math.cosh(0.5 * l3)
        length = 2.0 * math.acosh(r1 * r2 * (c3 + c1 * c2) + math.cosh(0.5 * m * l1) * math.cosh(0.5 * n * l2))
    except OverflowError:
        length = math.inf
    if length == math.inf:
        raise OverflowError(f"curve length overflows at l1={l1!r}, l2={l2!r}, l3={l3!r}, m={m}, n={n}")
    return length


# ------------------------------------------------ Fricke trace polynomials
#
# With boundary traces tr a = x = 2cosh(l1/2), tr b = y and tr aB = -z (so
# tr ab = xy + z), every word's trace is an integer polynomial in x, y, z
# (Goldman, "Trace coordinates on Fricke spaces of some simple hyperbolic
# surfaces", 2009), kept as {(i, j, k): coefficient of u^i v^j s^k} in the
# shifted x = 2 + u, y = 2 + v, z = 2 + s, which vanish on the three-cusp sphere.

MAX_WINDING = 80  # the oracle's range m + n <= MAX_WINDING bounds its build time and recursion depth

# classes the trace memo keeps: a sweep of every class through length 12, as
# pytest -m exhaustive runs, fills it and peaks near 123 MB with it (439 MB
# unbounded); the oracle's a^m b^n fit in it
TRACE_MEMO_SIZE = 8192

_BASE_TRACES = {
    "": {(0, 0, 0): 2},
    "a": {(0, 0, 0): 2, (1, 0, 0): 1},
    "b": {(0, 0, 0): 2, (0, 1, 0): 1},
    "ab": {(0, 0, 0): 6, (1, 0, 0): 2, (0, 1, 0): 2, (1, 1, 0): 1, (0, 0, 1): 1},
    "aB": {(0, 0, 0): -2, (0, 0, 1): -1},
}


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j, k), c in p.items():
        for (i2, j2, k2), c2 in q.items():
            e = (i + i2, j + j2, k + k2)
            out[e] = out.get(e, 0) + c * c2
    return out


def _trace(w: str) -> dict:
    """Signed trace polynomial of the class of w (a trace is invariant under
    conjugation and inversion).  The dict may be shared with the memo: do not
    mutate it."""
    return _class_trace(canonical_class(w))


@functools.lru_cache(maxsize=TRACE_MEMO_SIZE)
def _class_trace(w: str) -> dict:
    """Signed trace polynomial of the canonical class w, memoised in a
    least-recently-used cache of TRACE_MEMO_SIZE classes.

    The closest pair of equal letters c, w = cPcQ up to rotation, gives
    tr(cP)*tr(cQ) - tr(PQ^-1), three shorter words.  With no letter repeated,
    w = cPCQ gives tr(cP)*tr(CQ) - tr(cPQ^-1c), whose last word is no longer
    than w and repeats c."""
    if w in _BASE_TRACES:
        return _BASE_TRACES[w]
    n = len(w)
    pairs = [(j - i, i) for i in range(n) for j in range(i + 1, n) if w[j] == w[i]]
    d, i = min(pairs) if pairs else (w.index(INVERSE[w[0]]), 0)
    r = w[i:] + w[:i]
    c, p, q = r[0], r[1:d], r[d + 1:]
    if r[d] == c:
        poly, rest = _poly_mul(_trace(c + p), _trace(c + q)), _trace(p + inverse_word(q))
    else:
        poly, rest = _poly_mul(_trace(c + p), _trace(r[d:])), _trace(c + p + inverse_word(q) + c)
    for e, coef in rest.items():
        poly[e] = poly.get(e, 0) - coef
    return {e: coef for e, coef in poly.items() if coef}


def trace_polynomial(w: str) -> dict:
    """Trace polynomial of the word w, signed so that its constant term (the
    trace on the three-cusp sphere) is positive.  Every coefficient is then a
    non-negative integer (tested through word length 8, and 12 by pytest -m
    exhaustive): |tr w| grows with each boundary length, as Parlier proves
    ("Lengths of geodesics on Riemann surfaces with boundary", 2005), and
    binary64 evaluation adds positive terms only, with nothing lost to
    cancellation."""
    poly = _trace(w)
    sign = 1 if poly[(0, 0, 0)] > 0 else -1
    return {e: sign * c for e, c in poly.items()}


def trace_length_oracle(P: PantsBoundary, C: CurveClass) -> float:
    """Independent length of the (m, n) curve: 2*acosh(|tr|/2) of the word
    a^m b^n, its trace polynomial evaluated at u = 2cosh(l1/2) - 2 =
    4sinh(l1/4)^2 and so on.  Refuses m + n > MAX_WINDING.  Must match
    gamma_mn_length to 1e-9."""
    if C.m + C.n > MAX_WINDING:
        raise ValueError(f"the trace oracle covers m + n <= {MAX_WINDING}, got m + n = {C.m + C.n}")
    u, v, s = (4.0 * math.sinh(0.25 * l) ** 2 for l in (P.l1, P.l2, P.l3))
    tr = sum(c * u**i * v**j * s**k for (i, j, k), c in trace_polynomial("a" * C.m + "b" * C.n).items())
    return 2.0 * math.acosh(0.5 * tr)


MIN_GRID_STEP = 6.7e-8  # below 6.665e-8, binary64 cannot see the (1, 2) curve's length grow one step from the cusp


def minimize_over_moduli(
    mn_cap: int, length_cap: float, grid: int
) -> tuple[PantsBoundary, CurveClass, float]:
    """Grid search of the curve length over (l1, l2, l3) in [0, length_cap]^3
    and all winding pairs with m + n >= 3, m*n <= mn_cap.

    Domain: length_cap is finite, its grid step length_cap / (grid - 1) is at
    least MIN_GRID_STEP, and no grid cell overflows binary64; the largest,
    the (mn_cap, 1) curve at the corner, grows like
    exp((mn_cap + 1) * length_cap / 2).  Outside it, a ValueError.

    Zero is always a grid point, so the cusp boundary of moduli space is
    scanned exactly.  Ties are broken lexicographically on (l1, l2, l3, m, n).
    Raises if any evaluated cell violates the 2mn+1 floor of the acosh
    argument, or if the objective fails to increase in each l_i at the
    minimizer (forward differences at the grid step).
    """
    if mn_cap < 3:
        raise ValueError(f"mn_cap must be >= 3, got {mn_cap}")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    if not (math.isfinite(length_cap) and length_cap > 0.0):
        raise ValueError(f"length_cap must be finite and > 0, got {length_cap}")
    h = length_cap / (grid - 1)
    if h < MIN_GRID_STEP:
        raise ValueError(f"grid step length_cap / (grid - 1) must be >= {MIN_GRID_STEP}, got {h}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            value, l1, l2, l3, m, n = _grid_minimum(mn_cap, length_cap, grid)
    except FloatingPointError:
        x = 0.5 * (mn_cap + 1) * length_cap
        raise ValueError(
            f"the grid overflows binary64: its largest cell grows like exp((mn_cap + 1) * length_cap / 2) "
            f"= exp({x}), which must stay below about exp(710)"
        ) from None

    P = PantsBoundary(l1, l2, l3)
    C = CurveClass(m, n)
    for i in (1, 2, 3):
        bumped = [l1, l2, l3]
        bumped[i - 1] += h
        up = gamma_mn_length(PantsBoundary(*bumped), C)
        if not up > value:
            raise ArithmeticError(f"objective not increasing in l{i} at the minimizer")
    return P, C, value


def _grid_minimum(mn_cap: int, length_cap: float, grid: int) -> tuple[float, float, float, float, int, int]:
    """(length, l1, l2, l3, m, n) of the least grid cell, first in that order."""
    ls = np.linspace(0.0, length_cap, grid)
    x, y, z = (grid, 1, 1), (1, grid, 1), (1, 1, grid)  # the l1, l2 and l3 axes of the cube
    c = np.cosh(0.5 * ls)
    base = c.reshape(z) + c.reshape(x) * c.reshape(y)
    t = 0.5 * ls[1:]

    def ratio(k: int) -> np.ndarray:
        """chebyshev_ratio(k, l) over ls, the exact limit k at l = 0."""
        out = np.full(grid, float(k))
        out[1:] = np.sinh(k * t) / np.sinh(t)
        return out

    pairs = [
        (m, n)
        for m in range(1, mn_cap + 1)
        for n in range(1, mn_cap + 1)
        if m + n >= 3 and m * n <= mn_cap
    ]
    best = None
    for m, n in pairs:
        cosh_m, cosh_n = np.cosh(0.5 * m * ls).reshape(x), np.cosh(0.5 * n * ls).reshape(y)
        rhs = ratio(m).reshape(x) * ratio(n).reshape(y) * base + cosh_m * cosh_n
        i = int(np.argmin(rhs))
        if rhs.flat[i] < 2.0 * m * n + 1.0 - 1e-12:
            raise ArithmeticError(
                f"cell bound violated: rhs = {rhs.flat[i]} < 2*{m}*{n}+1 at flat index {i}"
            )
        idx = np.unravel_index(i, rhs.shape)
        cand = (
            2.0 * math.acosh(float(rhs[idx])),
            float(ls[idx[0]]),
            float(ls[idx[1]]),
            float(ls[idx[2]]),
            m,
            n,
        )
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best

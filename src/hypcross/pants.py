"""Lengths of closed curves winding around two boundaries of a pair of pants.

The closed-form length (a product of Chebyshev-type sinh ratios and cosh
terms) is paired with an independent holonomy oracle: build generator matrices
realizing the boundary trace triple in 40-digit arithmetic, check that they
meet it, and measure the translation length of the word A^m B^n directly.
Both must agree to 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .halfplane import mat_inv, mat_mul, mat_pow


class ConstructionFailure(ValueError):
    """Holonomy constraint solve hit a degenerate parametrization."""


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
    if l < 0.0:
        raise ValueError(f"l must be >= 0, got {l}")
    if l == 0.0:
        return float(m)
    t = 0.5 * l
    return math.sinh(m * t) / math.sinh(t)


def gamma_mn_length(P: PantsBoundary, C: CurveClass) -> float:
    """Length of the curve winding m times around boundary 1 and n times
    around boundary 2: 2*acosh of the sinh-ratio/cosh combination of the
    half-length hyperbolic functions.  The acosh argument is always >= 2mn+1."""
    rhs = _length_rhs(P.l1, P.l2, P.l3, C.m, C.n)
    return 2.0 * math.acosh(rhs)


def _length_rhs(l1: float, l2: float, l3: float, m: int, n: int) -> float:
    r1 = chebyshev_ratio(m, l1)
    r2 = chebyshev_ratio(n, l2)
    c1 = math.cosh(0.5 * l1)
    c2 = math.cosh(0.5 * l2)
    c3 = math.cosh(0.5 * l3)
    return r1 * r2 * (c3 + c1 * c2) + math.cosh(0.5 * m * l1) * math.cosh(0.5 * n * l2)


def pants_holonomy(P: PantsBoundary):
    """Generators (A, B) with trace triple (2c1, 2c2, tr(A B^-1) = -2c3),
    ci = cosh(li/2), as (a, b, c, d) tuples of 40-digit mpf entries.

    A is in normal form (diagonal when boundary 1 is a geodesic, the unit
    translation-by-2 parabolic when it is a cusp); B is solved from its trace
    and the tr(A B^-1) constraint, leftover gauge fixed by a positive
    lower-left entry, balanced so |q| = r.  For the three-cusp case this is
    exactly A = [[1,2],[0,1]], B = [[1,0],[2,1]].  Short (but nonzero) first
    boundaries force entries of size ~1/sinh(l1/2): the construction is
    refused once 2 sinh(l1/2) < 1e-12, and fails if the three trace
    constraints miss by more than 1e-9 or A*B is not hyperbolic.
    """
    import mpmath
    from mpmath import mpf

    with mpmath.workdps(40):
        c1, c2, c3 = (mpmath.cosh(mpf(l) / 2) for l in (P.l1, P.l2, P.l3))
        if P.l1 == 0.0:
            A = (mpf(1), mpf(2), mpf(0), mpf(1))
            r = c2 + c3
            p = s = c2
            q = (c2 * c2 - 1) / r
        else:
            lam = mpmath.exp(mpf(P.l1) / 2)
            denom = lam - 1 / lam  # 2 sinh(l1/2)
            if denom < 1e-12:
                raise ConstructionFailure(f"boundary length l1 = {P.l1} too close to the cusp limit")
            A = (lam, mpf(0), mpf(0), 1 / lam)
            p = (2 * c2 * lam + 2 * c3) / denom
            s = 2 * c2 - p
            off = p * s - 1
            r = mpmath.sqrt(abs(off)) if off != 0 else mpf(1)
            q = off / r
        B = (p, q, r, s)

        ab_inv = mat_mul(A, mat_inv(B))
        err = max(
            abs(abs(A[0] + A[3]) - 2 * c1),
            abs(abs(B[0] + B[3]) - 2 * c2),
            abs(ab_inv[0] + ab_inv[3] + 2 * c3),
        )
        if err > 1e-9:
            raise ConstructionFailure(f"trace constraints violated by {float(err):.3e}")
        ab = mat_mul(A, B)
        if ab[0] + ab[3] <= 2:
            raise ConstructionFailure("A*B is not hyperbolic")
    return A, B


def trace_length_oracle(P: PantsBoundary, C: CurveClass) -> float:
    """Independent length of the (m, n) curve: translation length of the
    matrix product A^m B^n in the pants holonomy.

    Short first boundaries force generator entries ~1/sinh(l1/2), and binary64
    matrix powers then amplify rounding by that factor per multiplication, so
    the product is carried out in 40-digit arithmetic and only the final
    length is rounded.  Must match gamma_mn_length to 1e-9.
    """
    import mpmath

    with mpmath.workdps(40):
        A, B = pants_holonomy(P)
        word = mat_mul(mat_pow(A, C.m), mat_pow(B, C.n))
        tr = word[0] + word[3]
        if abs(tr) <= 2:
            raise ConstructionFailure(f"word trace {tr} is not hyperbolic")
        return float(2 * mpmath.acosh(abs(tr) / 2))


def _ratio_grid(m: int, L: np.ndarray) -> np.ndarray:
    """Vectorized chebyshev_ratio with the exact limit substituted at L = 0."""
    out = np.full_like(L, float(m))
    pos = L > 0.0
    t = 0.5 * L[pos]
    out[pos] = np.sinh(m * t) / np.sinh(t)
    return out


def minimize_over_moduli(
    mn_cap: int, length_cap: float, grid: int
) -> tuple[PantsBoundary, CurveClass, float]:
    """Grid search of the curve length over (l1, l2, l3) in [0, length_cap]^3
    and all winding pairs with m + n >= 3, m*n <= mn_cap; length_cap must be
    finite and > 0.

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
    ls = np.linspace(0.0, length_cap, grid)
    L1, L2, L3 = np.meshgrid(ls, ls, ls, indexing="ij")
    c1 = np.cosh(0.5 * L1)
    c2 = np.cosh(0.5 * L2)
    c3 = np.cosh(0.5 * L3)
    base = c3 + c1 * c2

    pairs = [
        (m, n)
        for m in range(1, mn_cap + 1)
        for n in range(1, mn_cap + 1)
        if m + n >= 3 and m * n <= mn_cap
    ]
    best = None
    for m, n in pairs:
        rhs = _ratio_grid(m, L1) * _ratio_grid(n, L2) * base + np.cosh(0.5 * m * L1) * np.cosh(0.5 * n * L2)
        floor = 2.0 * m * n + 1.0 - 1e-12
        if np.any(rhs < floor):
            i = int(np.argmin(rhs))
            raise ArithmeticError(
                f"cell bound violated: rhs = {rhs.flat[i]} < 2*{m}*{n}+1 at flat index {i}"
            )
        i = int(np.argmin(rhs))
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
    value, l1, l2, l3, m, n = best

    P = PantsBoundary(l1, l2, l3)
    C = CurveClass(m, n)
    h = length_cap / (grid - 1)
    for i in (1, 2, 3):
        bumped = [l1, l2, l3]
        bumped[i - 1] += h
        up = gamma_mn_length(PantsBoundary(*bumped), C)
        if not up > value:
            raise ArithmeticError(f"objective not increasing in l{i} at the minimizer")
    return P, C, value

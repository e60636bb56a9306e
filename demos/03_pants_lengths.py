"""Lengths of curves winding around two boundaries of a pair of pants.

cosh(L/2) combines Chebyshev-type sinh ratios of the two winding numbers with
cosh terms of the boundary half-lengths; the same number comes out of the
trace polynomial of the word a^m b^n, built from trace identities alone.
Minimizing over all moduli shows the shortest m+n >= 3 curve lives on the
three-cusp sphere, winding once around one cusp and twice around another.
"""

import math

from hypcross.pants import (
    CurveClass,
    PantsBoundary,
    chebyshev_ratio,
    gamma_mn_length,
    minimize_over_moduli,
    trace_length_oracle,
    trace_polynomial,
)

ideal = PantsBoundary(0, 0, 0)
print("three-cusp sphere:")
for (m, n) in ((1, 1), (1, 2), (2, 2), (1, 3)):
    L = gamma_mn_length(ideal, CurveClass(m, n))
    print(f"  ({m},{n}) winding curve: length {L:.9f}   2acosh({math.cosh(L/2):.0f})")

print("\nsinh-ratio factors exceed the winding number once the boundary opens up:")
for l in (0.0, 0.5, 2.0):
    print(f"  ratio(m=3, l={l}): {chebyshev_ratio(3, l):.6f}")

# u = 4sinh(l1/4)^2, v and s likewise for l2, l3: all zero on the three-cusp sphere
def monomial(c, exps):
    factors = [x + (f"^{e}" if e > 1 else "") for x, e in zip("uvs", exps) if e]
    return "*".join(([str(c)] if c > 1 or not factors else []) + factors)


poly = trace_polynomial("aabbb")
order = sorted(poly, key=lambda exps: (sum(exps), [-e for e in exps]))
terms = " + ".join(monomial(poly[exps], exps) for exps in order)
print("\ntrace of a^2 b^3, every coefficient a non-negative integer:")
print("  tr =", terms)

P = PantsBoundary(1.0, 1.5, 2.0)
C = CurveClass(2, 3)
print("\ngeneric pants (1.0, 1.5, 2.0), winding (2,3):")
print("  closed form:    ", gamma_mn_length(P, C))
print("  trace oracle:   ", trace_length_oracle(P, C))

print("\nscanning moduli (cap 6, boundary lengths up to 3, 16-point grid)...")
Pm, Cm, val = minimize_over_moduli(6, 3.0, 16)
print(f"  minimum {val:.9f} at boundaries ({Pm.l1}, {Pm.l2}, {Pm.l3}), winding ({Cm.m},{Cm.n})")
print("  the sharp two-crossing constant:", 2 * math.acosh(5.0))

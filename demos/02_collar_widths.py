"""Collar widths around a short geodesic, and how far one side can be pushed.

A simple closed geodesic of length x owns an embedded collar of half-width
w(x) = asinh(1/sinh(x/2)).  The collar can be rebalanced: one side widened to
w1(x) = asinh(1/sinh(x/4)) while the other shrinks to 2w - w1, and for short
cores (x <= 2.3 covers everything the sharp-bound argument needs) the narrow
side is still positive.
"""

from hypcross.collar import (
    CUSP_HOROCYCLE_LENGTH,
    collar_width,
    generalized_width,
    hexagon_gap,
    wide_width,
    width_scan,
)

for x in (0.25, 1.06, 2.0, 2.3):
    w1, narrow = generalized_width(x)
    print(f"core {x:4.2f}:  w = {collar_width(x):.6f}   w1 = {w1:.6f}   narrow = {narrow:.6f}")

print("\nvery short cores get huge collars: w(1e-6) =", collar_width(1e-6))

x = 1.3
print(f"\nhexagon gap at {x}: {hexagon_gap(x):.15f}")
print(f"twice the wide width: {2 * wide_width(x):.15f}   (same number, different route)")

scan = width_scan()
print("\ngrid audit over 10^4 points:")
print("  w1 > w everywhere on (0, 20]:", scan["w1_gt_w_on_0_20"])
print("  w1 < 2w on (0, 2.3]:        ", scan["w1_lt_2w_on_0_2.3"])
print("  gap identity max deviation: ", scan["gap_identity_max_abs_dev"])
print("  rebalancing stops working at core length", scan["w1_eq_2w_crossover"])

print("\ncusps always own the horocycle neighborhood of boundary length", CUSP_HOROCYCLE_LENGTH)

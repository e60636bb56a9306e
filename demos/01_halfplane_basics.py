"""Half-plane primitives: act by matrices, measure lengths, find axes.

Every closed geodesic on a hyperbolic surface is the image of the axis of a
matrix; its length only depends on the trace.  This walk-through takes the
two parabolic generators of the three-cusp sphere and reads lengths, axes
and a crossing off the integer matrices of the words they generate.
"""

import math

from hypcross.halfplane import NotHyperbolic, Point, dist, fixed_points, length_from_trace
from hypcross.selfint import boundary_count
from hypcross.words import word_matrix, word_trace

# a = (1, 2, 0, 1) translates by 2 and fixes infinity; b = (1, 0, 2, 1) fixes 0
print("generator matrices:", word_matrix("a"), "/", word_matrix("b"))
print("generator traces:", word_trace("a"), "/", word_trace("b"), "(|tr| = 2: parabolic)")
try:
    length_from_trace(word_trace("a"))
except NotHyperbolic as exc:
    print("length_from_trace refuses a:", exc)

ab = word_matrix("ab")
print("\nword ab has matrix", ab, "and trace", word_trace("ab"))
print("geodesic length 2*acosh(tr/2) =", length_from_trace(word_trace("ab")))
print("which is 4*log(1+sqrt 2)     =", 4 * math.log(1 + math.sqrt(2)))

lo, hi = sorted(fixed_points(ab))
print("\naxis endpoints:", (lo, hi), "= 1 -/+ sqrt 2")

# conjugating by u = aba moves the axis but never the length
conj = "aba" + "ab" + "ABA"
print("conjugate", conj, "has trace", word_trace(conj), "and length", length_from_trace(word_trace(conj)))
inside = sum(lo < x < hi for x in fixed_points(word_matrix(conj)))
print("conjugate axis crosses the original?", inside == 1)
# the crossing is the self-crossing of the figure-eight ab; boundary_count
# finds every such pair with integers only
print("self-crossings of ab by exact interleaving:", boundary_count("ab"))

# distances: vertical segments are logarithms of height ratios
print("\ndist(i, e*i) =", dist(Point(0, 1), Point(0, math.e)))
print("dist((-2,1),(2,1)) =", dist(Point(-2, 1), Point(2, 1)), "= acosh(9) =", math.acosh(9))

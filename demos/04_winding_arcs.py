"""The winding number <-> arc length dictionary, checked against raw geometry.

An arc crossing a collar while winding W times around the core has length
2*asinh(sinh(W*core/2)*cosh(width)); around a cusp (with the length-4
horocycle normalization) it is 2*log(2W + sqrt(4W^2+1)).  Both closed forms
are rebuilt here from explicit configurations in the half-plane.
"""

from hypcross.winding import (
    collar_arc_length,
    cusp_arc_length,
    cusp_winding_from_length,
    saccheri_top_length,
    verify_cusp_lemma_geometrically,
    winding_from_length,
)

L = collar_arc_length(1.7, 1.0, 0.5)
print("collar arc, W=1.7, core 1.0, width 0.5:")
print("  closed form:          ", L)
print("  Saccheri quadrilateral:", saccheri_top_length(1.7, 1.0, 0.5))
print("  winding recovered:    ", winding_from_length(L, 1.0, 0.5))

print("\ncusp arcs:")
for W in (0.5, 1.0, 2.0):
    L = cusp_arc_length(W)
    print(f"  W = {W}: length {L:.12f}, recovered W = {cusp_winding_from_length(L):.12f}")

print("\nhalf-plane oracle (endpoints (-2W, 1), (2W, 1)) deviation:")
for W in (0.01, 0.1, 1.0, 10.0):
    print(f"  W = {W}: {verify_cusp_lemma_geometrically(W)}")

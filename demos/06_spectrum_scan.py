"""Bottom of the length spectrum of the three-cusp sphere, with crossing
counts from three algorithms.

Conjugacy classes of the rank-2 holonomy group are cyclically reduced words;
traces are exact integers, so lengths are exact.  Self-intersection numbers
come from (a) counting linked pairs of corners of the cyclic word, in exact
integers, (b) counting interleaved axes of the word's rotations on the
boundary, in exact integers, and (c) tracing the geodesic through the
fundamental domain and counting transverse arc crossings.  The shortest
class with two crossings is the double corkscrew aab, exactly at
2log(5+2 sqrt 6).
"""

import math

from hypcross.selfint import boundary_count, self_intersection_count, tracer_count
from hypcross.spectrum import min_witness, spectrum
from hypcross.words import enumerate_classes, word_trace

print("classes through word length 4:", enumerate_classes(4))

print("\ncorkscrew family a^k b (winds k times around a cusp):")
for k in range(1, 7):
    w = "a" * k + "b"
    print(
        f"  {w:9s} trace {word_trace(w):3d}  length {2*math.acosh(word_trace(w)/2):.6f}"
        f"  crossings {self_intersection_count(w)} (exact) / {boundary_count(w)} (boundary)"
        f" / {tracer_count(w)} (tracer)"
    )

cap = 2 * math.acosh(5.0) + 1e-6
print(f"\nspectrum through word length 8, lengths <= {cap:.6f}:")
entries = spectrum(8, cap, 2)
for e in entries:
    print(f"  {e.word:8s} trace {e.trace:6.1f}  length {e.length:.9f}  crossings {e.self_intersections}  [{e.count_method}]")

wit = min_witness(entries, 2)
print(f"\nshortest class with >= 2 crossings: {wit.word} at length {wit.length:.9f}")
print("no class beats it below that length; the bound is sharp at desk scale")

"""Self-intersection counts of closed geodesics on the three-cusp sphere,
by two exact integer counts: linked pairs of corners and interleaved axes.

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

The float tracer, an oracle for both counts, is hypcross.tracer.  All
three counters share the word checks (_check_word), which build the integer
word matrix once; the boundary count reads it exactly, the tracer as floats,
and the linked-pairs count not at all.
"""

from __future__ import annotations

from .halfplane import mat_mul
from .words import GEN_MAT, INVERSE, LETTERS, is_cyclically_reduced, is_primitive, word_matrix


class NotPrimitiveWord(ValueError):
    """The exact counts require a primitive (non-power) word."""


def _check_word(w: str) -> tuple[int, int, int, int]:
    """Shared start of both counts and of the tracer: w must be a cyclically
    reduced hyperbolic word over LETTERS.  Returns its integer matrix."""
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


def __getattr__(name: str):
    """tracer_count, imported from hypcross.tracer on first access and bound
    here, so later reads are plain lookups.  Only the benchmark reads it under
    this name: bench/workloads.py in CountWords.run and CountWords.targets,
    and bench/test_bench.py.  The benchmark refresh, ROADMAP item 1, points
    those at hypcross.tracer and deletes this."""
    if name != "tracer_count":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .tracer import tracer_count

    globals()[name] = tracer_count
    return tracer_count

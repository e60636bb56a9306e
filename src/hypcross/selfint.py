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
Both tests read the cyclic order round the vertex from one table,
_BEFORE[s, p, q] (does p come before q going round from s?), with an entry
for each of the 64 triples of half-edges.  Each crossing is found from both
of its corners, so the count is half the number of linked pairs.  It uses
only integers and costs O(n^2) per word plus the stretch lengths, which stay
below n for a primitive word.

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
Each rotation's matrix steps to the next, r_(i+1) = g^-1 r_i g for the
generator g = (1, q, r, 1) of letter i: word_matrix's column step, then the
row step (a - q c, b - q d, c - r a, d - r b) of g^-1.  This count reads
linkage from the group's action on the boundary, the linked-pairs count from
the ribbon order: only the pair rule is shared.

The checked entry points, self_intersection_count and boundary_count, each
run the word checks (_check_word, which builds the integer word matrix, and
is_primitive) and then their integer kernel, _linked_pairs or
_interleaved_pairs.  hypcross.tracer, the float oracle for both, runs the
same word checks; hypcross.spectrum checks each class's primitive root once
and runs both kernels on it.
"""

from .words import GEN_MAT, INVERSE, LETTERS, is_cyclically_reduced, is_primitive, word_matrix


class NotPrimitiveWord(ValueError):
    """The exact counts require a primitive (non-power) word."""


def _check_word(w: str) -> tuple[int, int, int, int]:
    """Shared start of both counts and of the tracer: w must be a cyclically
    reduced hyperbolic word over LETTERS.  Returns its integer matrix."""
    if not w or w.strip(LETTERS):
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

_INVERSE_TABLE = str.maketrans(INVERSE)  # INVERSE as a str.translate table

# _BEFORE[s, p, q]: does p come before q going round the vertex from s?
_BEFORE = {(s, p, q): (j - i) % 4 < (k - i) % 4
           for s, i in _AROUND.items() for p, j in _AROUND.items() for q, k in _AROUND.items()}


def self_intersection_count(w: str) -> int:
    """Self-intersection number of the closed geodesic of a primitive
    cyclically reduced hyperbolic word, by the exact linked-pairs count (see
    the module docstring).  Raises NotPrimitiveWord for a proper power."""
    _check_word(w)
    if not is_primitive(w):
        raise NotPrimitiveWord(f"word is a proper power: {w!r}")
    return _linked_pairs(w)


def _linked_pairs(w: str) -> int:
    """The linked-pairs kernel of self_intersection_count, on a word that
    has passed its checks."""
    n = len(w)
    # out2[k]: half-edge leaving the corner before position k mod n;
    # in2[k - 1]: half-edge entering it (negative indices wrap too)
    out2 = w + w
    in2 = out2.translate(_INVERSE_TABLE)
    linked = 0
    for i in range(n):
        x_in, x_out = in2[i - 1], w[i]
        for j in range(n):
            y_in, y_out = in2[j - 1], w[j]
            if x_in == y_in or x_in == y_out:  # the pair rule, which leaves out j == i
                continue
            if x_out == y_out:  # Y runs along X forward
                m = 1
                while out2[i + m] == out2[j + m]:
                    m += 1
                linked += _BEFORE[x_out, x_in, y_in] == _BEFORE[in2[i + m - 1], out2[i + m], out2[j + m]]
            elif x_out == y_in:  # Y runs along X backward
                m = 1
                while out2[i + m] == in2[j - 1 - m]:
                    m += 1
                linked += _BEFORE[x_out, x_in, y_out] == _BEFORE[in2[i + m - 1], out2[i + m], in2[j - 1 - m]]
            else:
                linked += _BEFORE[x_in, y_in, x_out] != _BEFORE[x_in, y_out, x_out]
    if linked % 2:
        raise RuntimeError(f"odd number {linked} of linked pairs for {w!r}")
    return linked // 2


# ------------------------------------------------------- boundary count

def boundary_count(w: str) -> int:
    """Self-intersection number of the closed geodesic of a primitive
    cyclically reduced hyperbolic word, by exact interleaving of its rotations'
    axes (see the module docstring).  Raises NotPrimitiveWord for a power."""
    m = _check_word(w)
    if not is_primitive(w):
        raise NotPrimitiveWord(f"word is a proper power: {w!r}")
    return _interleaved_pairs(w, m)


def _interleaved_pairs(w: str, m: tuple[int, int, int, int]) -> int:
    """The interleaving kernel of boundary_count, on a word that has passed
    its checks, with m = word_matrix(w)."""
    a, b, c, d = m
    disc = (a + d) ** 2 - 4
    # per corner i: a - d, c and |c| of r_i, which fix its axis's centre and
    # radius, and the half-edges by which the strand enters and leaves i
    corners = []
    x_in = INVERSE[w[-1]]
    for ch in w:
        corners.append((a - d, c, abs(c), x_in, ch))
        x_in = INVERSE[ch]
        _, q, r, _ = GEN_MAT[ch]  # q or r is 0
        a, c = a + r * b, c + r * d  # the column step
        b, d = b + q * a, d + q * c
        a, b = a - q * c, b - q * d  # the row step
        c, d = c - r * a, d - r * b
    linked = 0
    for e, c, r, x_in, _ in corners:
        for f, g, s, y_in, y_out in corners:
            if x_in != y_in and x_in != y_out:  # the pair rule, which leaves out j == i
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

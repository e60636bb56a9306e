"""Reduced words over {a, A, b, B} (A = a^-1, B = b^-1) and conjugacy classes
of the rank-2 free group realized as the holonomy of the three-cusp sphere.

Words are plain strings.  The canonical representative of a conjugacy class
(with inverses identified) is the least word, in the order a < b < A < B,
among all cyclic rotations of the word and of its inverse.

The integer matrix of a word is the product of the generator matrices
GEN_MAT in letter order.  Each of them is (1, q, r, 1) with q or r zero, so
multiplying by one on the right is a single column step, (a, b, c, d) ->
(a + r b, b + q a, c + r d, d + q c): a^+-1 adds +-2 * (column 0) to
column 1, and b^+-1 adds +-2 * (column 1) to column 0.  word_matrix takes
one step per letter.

Class enumeration works on letter codes a, b, A, B -> "0", "1", "2", "3".
Under these codes plain string order is the letter order above, and the
inverse of a code is a fixed character translation, so the search compares
and inverts words without building key tuples.  A canonical word is the
least of its rotations, so every prefix of it is a prenecklace; the search
extends prenecklaces only (the Fredricksen-Kessler-Maiorana recursion,
restricted to reduced words).  Each prefix carries its integer matrix, so a
child costs one column step, and each child is tested when its parent makes
it, by its trace before the string tests.  Every class of word length n
through 14, the longest searched, has |trace| >= 2n, so under a trace
ceiling T the search stops at word length T // 2.
"""

LETTERS = "abAB"
INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
MIRROR = {"a": "b", "b": "a", "A": "B", "B": "A"}

# codes of a, b, A, B; their string order is the letter order a < b < A < B
_CODES = "0123"
_TO_CODE = str.maketrans("abAB", _CODES)
_FROM_CODE = str.maketrans(_CODES, "abAB")
_INVERSE_OF_CODE = dict(zip(_CODES, "2301"))
_INVERSE_CODE = str.maketrans(_INVERSE_OF_CODE)

# integer generator matrices (a, b, c, d); parabolic translations pairing the
# sides of the standard fundamental domain of the three-cusp sphere
GEN_MAT = {
    "a": (1, 2, 0, 1),
    "A": (1, -2, 0, 1),
    "b": (1, 0, 2, 1),
    "B": (1, 0, -2, 1),
}


def word_key(w: str) -> tuple[int, str]:
    """Sort key of the order by length, then letters a < b < A < B."""
    return (len(w), w.translate(_TO_CODE))


def inverse_word(w: str) -> str:
    return "".join(INVERSE[ch] for ch in reversed(w))


def mirror_word(w: str) -> str:
    return "".join(MIRROR[ch] for ch in w)


def free_reduce(w: str) -> str:
    out: list[str] = []
    for ch in w:
        if out and out[-1] == INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def is_reduced(w: str) -> bool:
    """No letter of w, a word over LETTERS, is followed by its inverse."""
    return not ("aA" in w or "Aa" in w or "bB" in w or "Bb" in w)


def is_cyclically_reduced(w: str) -> bool:
    return bool(w) and is_reduced(w + w[0])


def cyclic_reduce(w: str) -> str:
    w = free_reduce(w)
    while len(w) >= 2 and w[0] == INVERSE[w[-1]]:
        w = w[1:-1]
    return w


def rotations(w: str) -> list[str]:
    return [w[i:] + w[:i] for i in range(len(w))]


def canonical_class(w: str) -> str:
    """Conjugacy-class representative: least rotation of the cyclic reduction
    of w or of its inverse."""
    w = cyclic_reduce(w)
    if not w:
        return ""
    cands = rotations(w) + rotations(inverse_word(w))
    return min(cands, key=word_key)


def is_primitive(w: str) -> bool:
    """True when the cyclically reduced word is not a literal proper power."""
    return not w or primitive_root(w)[1] == 1


def primitive_root(w: str) -> tuple[str, int]:
    """Shortest v and exponent k with w = v^k (k = 1 for primitive words).
    The empty word has no root: ValueError.

    The length of v is the least d > 0 with w equal to its rotation by d,
    the first match of w in w + w after position 0; it divides len(w)."""
    if not w:
        raise ValueError("the empty word has no primitive root")
    d = (w + w).find(w, 1)
    return w[:d], len(w) // d


def word_matrix(w: str) -> tuple[int, int, int, int]:
    """Exact integer matrix of a word in the parabolic generators: the
    product of their GEN_MAT matrices, one column step per letter (see the
    module docstring).  A letter outside LETTERS raises KeyError."""
    a, b, c, d = 1, 0, 0, 1
    for ch in w:
        _, q, r, _ = GEN_MAT[ch]  # q or r is 0
        a += r * b
        c += r * d
        b += q * a
        d += q * c
    return a, b, c, d


def word_trace(w: str) -> int:
    m = word_matrix(w)
    return m[0] + m[3]


# _EXTEND[lo][last]: (c, q, r) for each code c >= lo that may follow `last` in a
# reduced word, (q, r) off the diagonal of c's matrix, largest c first
_EXTEND = {lo: {last: tuple((c, *GEN_MAT[c.translate(_FROM_CODE)][1:3]) for c in reversed(_CODES)
                            if c >= lo and c != _INVERSE_OF_CODE[last])
                for last in _CODES}
           for lo in _CODES}


def enumerate_classes(max_len: int) -> list[str]:
    """All canonical conjugacy-class representatives of cyclically reduced
    words of length <= max_len, excluding the parabolic (cusp-power) classes,
    ordered by (length, word): the words of _classes(max_len).  Each carries
    a closed geodesic, of integer |trace| >= 6 on this surface."""
    return [w for w, _ in _classes(max_len)]


def _classes(max_len: int, max_trace: int | None = None) -> list[tuple[str, int]]:
    """enumerate_classes(max_len) as (word, trace), |trace| <= max_trace if set.

    Depth-first search over reduced prenecklaces (see the module docstring)
    from the one-letter roots, parabolic and never kept, on a stack of (prefix,
    period, matrix entries), to depth max_len, or max_trace // 2 if less.  A
    popped prefix w of period p makes w + x for each code x >= w[-p] not
    cancelling w[-1], of period p if x == w[-p] and len(w) + 1 if not, pushed
    if shorter than the depth.  A child whose period divides its length is
    kept when 2 < |trace| <= max_trace, it is cyclically reduced and no
    rotation of its inverse is smaller.  Codes come largest first, so each
    length is reached in increasing order, and a parent's kept children, each
    inserted at the same index, end up in that order too."""
    if not 1 <= max_len <= 14:
        raise ValueError(f"max_len must be in [1, 14], got {max_len}")
    top = float("inf")
    if max_trace is not None:
        # every class of word length n <= 14 has |trace| >= 2n (checked over
        # all of them in CI), so none longer than max_trace // 2 is under it
        top, max_len = max_trace, min(max_len, max_trace // 2)
    by_len: list[list[tuple[str, int]]] = [[] for _ in range(max_len + 1)]
    stack = [(c, 1, *GEN_MAT[c.translate(_FROM_CODE)]) for c in reversed(_CODES)] if max_len > 1 else []
    while stack:
        w, p, a, b, c, d = stack.pop()
        n = len(w) + 1
        lo, first, at = w[-p], w[0], None
        for x, q, r in _EXTEND[lo][w[-1]]:
            a2, c2 = a + r * b, c + r * d
            d2 = d + q * c2
            k = p if x == lo else n
            if n < max_len:
                stack.append((w + x, k, a2, b + q * a2, c2, d2))
            if n % k or not 2 < abs(a2 + d2) <= top or x == _INVERSE_OF_CODE[first]:
                continue
            v = w + x
            # an inverse rotation smaller than v starts with a code <= v[0],
            # the least in v; if v starts with a and has no A, none can
            if first != "0" or "2" in v:
                inv = v[::-1].translate(_INVERSE_CODE) * 2
                if any(inv[i:i + n] < v for i in range(n)):
                    continue
            at = len(by_len[n]) if at is None else at
            by_len[n].insert(at, (v.translate(_FROM_CODE), a2 + d2))
    return [wt for ws in by_len for wt in ws]

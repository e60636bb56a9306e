import gc
import random
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcross.halfplane import mat_mul
from hypcross.spectrum import MAX_WORD_LEN
from hypcross.words import (
    GEN_MAT,
    INVERSE,
    LETTERS,
    canonical_class,
    cyclic_reduce,
    enumerate_classes,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    is_primitive,
    is_reduced,
    mirror_word,
    primitive_root,
    rotations,
    word_key,
    word_matrix,
    word_trace,
    _classes,
)

letters = st.text(alphabet="abAB", min_size=1, max_size=10)

# every string over LETTERS through length 6, reduced or not, the empty one first
ALL_STRINGS = ["".join(p) for n in range(7) for p in product(LETTERS, repeat=n)]


def _random_primitive_word(rng: random.Random, n: int) -> str:
    """A uniformly drawn reduced word of length n, redrawn until it is
    cyclically reduced and primitive (hence hyperbolic for n >= 3)."""
    while True:
        w = rng.choice(LETTERS)
        while len(w) < n:
            w += rng.choice([ch for ch in LETTERS if ch != INVERSE[w[-1]]])
        if w[0] != INVERSE[w[-1]] and is_primitive(w):
            return w


def test_free_reduce():
    assert free_reduce("aA") == ""
    assert free_reduce("abBA") == ""
    assert free_reduce("abBb") == "ab"
    assert free_reduce("ab") == "ab"


def test_cyclic_reduce():
    assert cyclic_reduce("Aba") == "b"
    assert cyclic_reduce("Bab") == "a"
    assert cyclic_reduce("BabAaB") == "Ba"  # free reduction first, then the ends
    assert is_cyclically_reduced("ab")
    assert not is_cyclically_reduced("Aba")


def test_canonical_forms():
    assert canonical_class("AB") == "ab"  # inverse class of ab
    assert canonical_class("ba") == "ab"
    assert canonical_class("bbA") == "aBB"  # inverse of aBB
    assert canonical_class("Ab") == "aB"
    assert canonical_class("BAA") == "aab"


@settings(max_examples=300, deadline=None)
@given(letters)
def test_canonical_idempotent(w):
    c = canonical_class(w)
    assert canonical_class(c) == c


def test_class_closure_under_rotation_and_inversion():
    for w in enumerate_classes(5):
        for r in rotations(w):
            assert canonical_class(r) == w
        for r in rotations(inverse_word(w)):
            assert canonical_class(r) == w


def test_word_traces():
    assert word_trace("ab") == 6
    assert word_matrix("ab") == (5, 2, 2, 1)
    assert word_trace("aab") == 10
    assert word_matrix("aab") == (9, 4, 2, 1)
    assert word_trace("aB") == -2
    for k in range(1, 9):
        assert word_matrix("a" * k + "b") == (1 + 4 * k, 2 * k, 2, 1)
        assert word_trace("a" * k + "b") == 2 * (2 * k + 1)


def test_trace_conjugacy_invariance():
    for w in ("ab", "aab", "abAB", "aaBBa"[:4]):
        base = word_trace(cyclic_reduce(w))
        for r in rotations(cyclic_reduce(w)):
            assert word_trace(r) == base


def test_mirror_preserves_trace():
    for w in enumerate_classes(6):
        assert word_trace(mirror_word(w)) == word_trace(w)


def test_trace_integrality_and_parity():
    for w in enumerate_classes(8):
        t = word_trace(w)
        assert isinstance(t, int)
        assert abs(t) % 4 == 2  # holonomy traces are 2 mod 4
        assert abs(t) >= 6


def test_enumerate_small():
    assert enumerate_classes(2) == ["ab"]
    cls3 = enumerate_classes(3)
    assert cls3 == ["ab", "aab", "aaB", "abb", "aBB"]


def test_enumerate_excludes_cusp_powers():
    for w in enumerate_classes(8):
        assert abs(word_trace(w)) > 2
    # powers of the cusp classes are parabolic and excluded
    for cusp in ("a", "b", "aB"):
        for k in (1, 2, 3):
            assert abs(word_trace(cusp * k)) == 2


def test_enumerate_deterministic_and_sorted():
    a = enumerate_classes(6)
    assert a == enumerate_classes(6)
    assert all(len(a[i]) <= len(a[i + 1]) for i in range(len(a) - 1))


def brute_force_classes(max_len):
    """Walk every reduced word and keep the canonical, hyperbolic ones."""
    found = []
    stack = list(LETTERS)
    while stack:
        w = stack.pop()
        if len(w) < max_len:
            stack.extend(w + ch for ch in LETTERS if ch != INVERSE[w[-1]])
        if len(w) > 1 and w[0] == INVERSE[w[-1]]:
            continue
        if canonical_class(w) == w and abs(word_trace(w)) > 2:
            found.append(w)
    return sorted(found, key=word_key)


def test_word_key_is_length_then_letter_order():
    # the letter codes sort every word through length 6 exactly as the
    # tuples of letter ranks a < b < A < B did
    words = ["".join(p) for n in range(1, 7) for p in product(LETTERS, repeat=n)]
    rank_key = lambda w: (len(w), tuple("abAB".index(ch) for ch in w))  # noqa: E731
    assert sorted(words, key=word_key) == sorted(words, key=rank_key)


@pytest.mark.parametrize("max_len", range(1, 9))
def test_enumerate_matches_brute_force(max_len):
    assert enumerate_classes(max_len) == brute_force_classes(max_len)


@pytest.mark.parametrize("max_len", [10, pytest.param(14, marks=pytest.mark.exhaustive)])
def test_classes_carry_their_traces(max_len):
    got = _classes(max_len)
    assert [w for w, _ in got] == enumerate_classes(max_len)
    assert all(t == word_trace(w) for w, t in got)


@pytest.mark.parametrize("ceiling", [2, 6, 10, 14, 26])
def test_classes_under_a_trace_ceiling(ceiling):
    assert _classes(8, ceiling) == [(w, t) for w, t in _classes(8) if abs(t) <= ceiling]


@cache
def _uncapped(max_len):
    return _classes(max_len)


@pytest.mark.parametrize(
    "max_len, ceiling",
    [(n, T) for n in range(1, 11) for T in (2, 3, 5, 6, 10, 14, 26, 50)]
    + [pytest.param(12, T, marks=pytest.mark.exhaustive) for T in range(2, 29)],
)
def test_trace_capped_search_is_the_filtered_search(max_len, ceiling):
    # the search tests each child when its parent makes it and pushes only
    # those shorter than max_len: lengths 1 and 2 push nothing past the roots;
    # the ceilings 2 to 28 at length 12 cover each length cap through
    # 2*acosh(14)
    assert _classes(max_len, ceiling) == [(w, t) for w, t in _uncapped(max_len) if abs(t) <= ceiling]


def test_trace_ceiling_bounds_the_search_depth():
    # a ceiling T stops the search at word length T // 2: at T = 10 the
    # longest classes are those of length 5 and trace 10, such as aaBaB; at
    # T = 9 the search reaches length 4, whose least |trace| is 10
    assert max(len(w) for w, _ in _classes(10, 10)) == 5
    assert max(len(w) for w, _ in _classes(10, 9)) == 3
    assert max(len(w) for w, _ in _classes(3, 10)) == 3
    assert _classes(12, 2) == []
    with pytest.raises(ValueError, match=r"max_len must be in \[1, 14\], got 15"):
        _classes(15, 10)


# the number of classes through word length 1, 2, ..., 14
_CLASS_COUNTS = [0, 1, 5, 15, 39, 102, 258, 673, 1769, 4734, 12786, 34968, 96288, 267187]


@pytest.mark.parametrize("max_len", [11, pytest.param(14, marks=pytest.mark.exhaustive)])
def test_enumerate_class_counts(max_len):
    lengths = [len(w) for w in enumerate_classes(max_len)]
    counts = [sum(1 for n in lengths if n <= k) for k in range(1, max_len + 1)]
    assert counts == _CLASS_COUNTS[:max_len]


@pytest.fixture(scope="module", params=[MAX_WORD_LEN, pytest.param(14, marks=pytest.mark.exhaustive)])
def guarded_traces(request):
    """The word length and |trace| of every class up to it: the longest word
    spectrum accepts, and the longest _classes accepts (pytest -m exhaustive)."""
    return request.param, {w: abs(t) for w, t in _classes(request.param)}


def test_trace_at_least_twice_word_length(guarded_traces):
    # _classes under a trace ceiling T searches only word lengths n <= T // 2,
    # which pytest -m exhaustive checks through length 14
    max_len, traces = guarded_traces
    assert len(traces) == _CLASS_COUNTS[max_len - 1]
    assert all(t >= 2 * len(w) for w, t in traces.items())


def test_least_trace_by_word_length(guarded_traces):
    max_len, traces = guarded_traces
    least = {}
    for w, t in traces.items():
        least[len(w)] = min(least.get(len(w), t), t)
    # from length 3 on, odd lengths attain 2n, at a(aB)^k, and even lengths 4n - 6
    table = [6, 6, 10, 10, 18, 14, 26, 18, 34, 22, 42, 26, 50]
    assert [least[n] for n in range(2, max_len + 1)] == table[: max_len - 1]
    for k in range(1, (max_len + 1) // 2):
        w = "a" + "aB" * k
        assert abs(word_trace(w)) == 2 * len(w) == least[len(w)]


def test_enumerate_leaves_no_garbage_cycles():
    gc.collect()
    gc.disable()
    try:
        enumerate_classes(7)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_classes(0)
    with pytest.raises(ValueError):
        enumerate_classes(15)


def test_primitivity():
    assert is_primitive("ab")
    assert is_primitive("aab")
    assert not is_primitive("abab")
    assert not is_primitive("aabaab")
    assert primitive_root("ababab") == ("ab", 3)
    assert primitive_root("aab") == ("aab", 1)
    assert is_primitive("")
    with pytest.raises(ValueError):
        primitive_root("")


def test_word_matrix_is_the_product_of_generator_matrices():
    # the column steps against the generic 2x2 product, letter by letter
    for w in ALL_STRINGS:
        m = (1, 0, 0, 1)
        for ch in w:
            m = mat_mul(m, GEN_MAT[ch])
        assert word_matrix(w) == m, w


def test_word_matrix_rejects_other_letters():
    with pytest.raises(KeyError):
        word_matrix("abx")


def test_reduced_tests_match_the_pairwise_definition():
    for w in ALL_STRINGS:
        reduced = all(w[i + 1] != INVERSE[w[i]] for i in range(len(w) - 1))
        assert is_reduced(w) is reduced, w
        assert is_cyclically_reduced(w) is (bool(w) and reduced and w[0] != INVERSE[w[-1]]), w


def test_primitive_root_matches_the_divisor_search():
    # the least d dividing len(w) with w == w[:d] * (len(w) // d)
    for w in ALL_STRINGS[1:] + ["ab" * 6, "aab" * 4, "abAB" * 3, "a" * 12]:
        n = len(w)
        d = next(d for d in range(1, n + 1) if n % d == 0 and w == w[:d] * (n // d))
        assert primitive_root(w) == (w[:d], n // d), w
        assert is_primitive(w) is (d == n), w

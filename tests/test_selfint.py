import json
import random
from pathlib import Path

import pytest

from hypcross.selfint import _AROUND, _BEFORE, NotPrimitiveWord, boundary_count, self_intersection_count
from hypcross.words import enumerate_classes, is_primitive, mirror_word, rotations, word_trace
from test_tracer import _TOLERANCE_EDGE
from test_words import _random_primitive_word


def test_figure_eight():
    assert self_intersection_count("ab") == 1


def test_two_crossing_corkscrew():
    assert self_intersection_count("aab") == 2
    assert self_intersection_count("abb") == 2


@pytest.mark.parametrize("k", range(1, 7))
def test_corkscrew_family(k):
    w = "a" * k + "b"
    assert word_trace(w) == 2 * (2 * k + 1)
    assert self_intersection_count(w) == k


def test_other_figure_eights_stay_simple_crossed():
    # the remaining classes below the two-crossing bound all have one crossing
    for w in ("aaB", "aBB"):
        assert self_intersection_count(w) == 1


def test_rotation_invariance():
    for r in rotations("aab"):
        assert self_intersection_count(r) == 2
    for r in rotations("aaab"):
        assert self_intersection_count(r) == 3


def test_mirror_invariance():
    for w in ("ab", "aab", "aaB", "aaab"):
        m = mirror_word(w)
        assert self_intersection_count(m) == self_intersection_count(w)


def test_powers_rejected_by_doublecoset():
    with pytest.raises(NotPrimitiveWord):
        self_intersection_count("abab")


def test_input_validation():
    with pytest.raises(ValueError):
        self_intersection_count("aA")  # not reduced
    with pytest.raises(ValueError):
        self_intersection_count("aB")  # parabolic


@pytest.mark.parametrize("max_len, primitive", [(10, 4689), pytest.param(14, 266913, marks=pytest.mark.exhaustive)])
def test_most_crossed_class_by_length(max_len, primitive):
    # the largest exact count of a primitive class of each length 2..max_len;
    # at odd lengths it is (L^2 - 1)/4, the Chas-Phillips maximum for the
    # doubly punctured plane (no formula is claimed for even lengths)
    classes = [w for w in enumerate_classes(max_len) if is_primitive(w)]
    assert len(classes) == primitive
    most: dict[int, int] = {}
    for w in classes:
        most[len(w)] = max(most.get(len(w), 0), self_intersection_count(w))
    table = [1, 2, 3, 6, 7, 12, 15, 20, 23, 30, 35, 42, 47]
    assert [most[n] for n in range(2, max_len + 1)] == table[: max_len - 1]
    assert all(most[n] == (n * n - 1) // 4 for n in range(3, max_len + 1, 2))


def test_exact_count_matches_benchmark_reference():
    # every count of the count-words reference (primitive words of length
    # 6 to 11), recorded when both float counters agreed on each of them
    ref = Path(__file__).resolve().parents[1] / "bench" / "reference" / "count-words.json"
    counts = json.loads(ref.read_text())["counts"]
    assert len(counts) > 12_000
    assert all(self_intersection_count(w) == c for w, c in counts.items())


@pytest.mark.parametrize("k", range(1, 21))
def test_near_cusp_family(k):
    # a(ab)^k, word lengths 3 to 41
    assert self_intersection_count("a" + "ab" * k) == k * (k + 1)


@pytest.mark.parametrize("max_len, primitive", [(8, 657), pytest.param(12, 34851, marks=pytest.mark.exhaustive)])
def test_boundary_count_matches_exact_count_through_length_twelve(max_len, primitive):
    # every primitive class through max_len, a seeded sample of words of
    # lengths 9 to 12, and the length-12 classes where the default tracer
    # fails (tests/test_tracer.py); pytest -m exhaustive checks all 34,851
    # classes through length 12
    words = [w for w in enumerate_classes(max_len) if is_primitive(w)]
    assert len(words) == primitive
    rng = random.Random(11)
    words += [_random_primitive_word(rng, n) for n in range(9, 13) for _ in range(60)]
    words += _TOLERANCE_EDGE
    for w in words:
        assert boundary_count(w) == self_intersection_count(w), w


def test_boundary_count_matches_exact_count_on_long_words():
    rng = random.Random(20)
    for n in range(20, 161, 20):
        for _ in range(2):
            w = _random_primitive_word(rng, n)
            assert boundary_count(w) == self_intersection_count(w), w


@pytest.mark.parametrize(
    "w, error",
    [("", ValueError), ("aA", ValueError), ("aB", ValueError), ("xy", ValueError), ("bA", ValueError),
     ("abab", NotPrimitiveWord)],
)
def test_boundary_count_rejects_what_the_exact_count_rejects(w, error):
    with pytest.raises(error) as exact:
        self_intersection_count(w)
    with pytest.raises(error) as boundary:
        boundary_count(w)
    assert type(boundary.value) is type(exact.value) is error


def test_order_table_matches_the_cyclic_positions():
    # _BEFORE[s, p, q]: p comes before q going round the vertex from s
    assert len(_BEFORE) == 64
    for s in _AROUND:
        for p in _AROUND:
            for q in _AROUND:
                assert _BEFORE[s, p, q] is ((_AROUND[p] - _AROUND[s]) % 4 < (_AROUND[q] - _AROUND[s]) % 4)

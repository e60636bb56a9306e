import json
import math
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypcross.halfplane import complex_dist
from hypcross.selfint import (
    NotPrimitiveWord,
    TracerError,
    _Line,
    _screen,
    boundary_count,
    self_intersection_count,
    tracer_count,
)
from hypcross.words import (
    INVERSE,
    LETTERS,
    enumerate_classes,
    is_primitive,
    mirror_word,
    primitive_root,
    rotations,
    word_trace,
)


def test_figure_eight():
    assert self_intersection_count("ab") == 1
    assert tracer_count("ab") == 1


def test_two_crossing_corkscrew():
    assert self_intersection_count("aab") == 2
    assert tracer_count("aab") == 2
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
        assert tracer_count(w) == 1


def test_rotation_invariance():
    for r in rotations("aab"):
        assert self_intersection_count(r) == 2
    for r in rotations("aaab"):
        assert self_intersection_count(r) == 3


def test_mirror_invariance():
    for w in ("ab", "aab", "aaB", "aaab"):
        m = mirror_word(w)
        assert self_intersection_count(m) == self_intersection_count(w)
        assert tracer_count(m) == tracer_count(w)


def test_methods_agree_through_length_eight():
    for w in enumerate_classes(8):
        if not is_primitive(w):
            continue
        assert self_intersection_count(w) == tracer_count(w), w


def test_power_counts_frozen():
    # tracer regression: merged points carry the n-choose-2 passage convention
    assert tracer_count("abab") == 6
    assert tracer_count("ababab") == 15
    assert tracer_count("aabaab") == 12
    # v^k runs k times along the geodesic of v: each crossing of v is a
    # merged point passed by 2k strands, so it counts comb(2k, 2) times
    powers = [w for w in enumerate_classes(10) if not is_primitive(w)]
    assert len(powers) == 45
    for w in powers:
        v, k = primitive_root(w)
        assert tracer_count(w) == comb(2 * k, 2) * self_intersection_count(v), w


def test_powers_rejected_by_doublecoset():
    with pytest.raises(NotPrimitiveWord):
        self_intersection_count("abab")


def test_input_validation():
    with pytest.raises(ValueError):
        self_intersection_count("aA")  # not reduced
    with pytest.raises(ValueError):
        self_intersection_count("aB")  # parabolic
    with pytest.raises(ValueError):
        tracer_count("xy")
    with pytest.raises(ValueError):
        tracer_count("bA")  # not cyclically reduced


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6, 1e-3, 1e-4, 1e-5, 1e-9, 1e-10, 1e-12])
def test_tracer_refuses_tolerance_outside_its_range(tol):
    # 1e-4, 1e-5, 1e-9 and 1e-10 give wrong counts or raise on classes of
    # lengths 9-11, e.g. aaaBaBBABB gives 14 (true 11) at 1e-5
    with pytest.raises(ValueError):
        tracer_count("aab", tol)


@pytest.mark.parametrize("tol", [1e-8, 1e-6])
def test_tracer_tolerance_range_ends(tol):
    assert tracer_count("aab", tol) == 2


# the ten length-12 classes where the tracer at 1e-6 disagrees with the exact
# count: (tracer at 1e-6, tracer at 1e-8 = exact count).  The 1e-6 values are
# the known overcounts and failures of ROADMAP item 1; the change that moves
# TRACER_TOL updates them.
_TOLERANCE_EDGE = {
    "aaaabbaBabbb": (17, 14),
    "aaaabbbaBabb": (17, 14),
    "aaabbbbaabAb": (17, 14),
    "aaabAbaabbbb": (17, 14),
    "aababababAAB": (32, 31),
    "aabAABABABAB": (32, 31),
    "ababababbABB": (32, 31),
    "abababaBBAbb": (32, 31),
    "abaBABBabABB": (TracerError, 26),
    "abaBBAbaBBAB": (TracerError, 26),
}


def test_tracer_at_the_tolerance_edge():
    for w, (coarse, fine) in _TOLERANCE_EDGE.items():
        if coarse is TracerError:
            with pytest.raises(TracerError):
                tracer_count(w, 1e-6)
        else:
            assert tracer_count(w, 1e-6) == coarse, w
        assert tracer_count(w, 1e-8) == fine == self_intersection_count(w), w


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.floats(-2.0, 2.0),
    st.floats(1e-3, 10.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from([1e-7, 1e-5]),
)
def test_screen_keeps_every_true_neighbour(vertical, c, r, s, u, phi, merge_tol):
    # q on the line (log-height in [-7, 7], or angle in [1e-3, pi - 1e-3]),
    # p within merge_tol of q: the strand count's screen must keep p
    line = _Line("v", c) if vertical else _Line("c", c, r)
    q = line.point(14.0 * s - 7.0 if vertical else 1e-3 + s * (math.pi - 2e-3))
    p = q + q.imag * u * merge_tol * complex(math.cos(phi), math.sin(phi))
    assume(complex_dist(p, q) < merge_tol)
    assert line.sinh_dist(p) < _screen(merge_tol)


def test_most_crossed_class_by_length():
    # the largest exact count of a primitive class of each length 2..10; at
    # odd lengths it is (L^2 - 1)/4, the Chas-Phillips maximum for the doubly
    # punctured plane (no formula is claimed for even lengths)
    most: dict[int, int] = {}
    for w in enumerate_classes(10):
        if is_primitive(w):
            most[len(w)] = max(most.get(len(w), 0), self_intersection_count(w))
    assert [most[n] for n in range(2, 11)] == [1, 2, 3, 6, 7, 12, 15, 20, 23]
    assert all(most[n] == (n * n - 1) // 4 for n in range(3, 11, 2))


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


def test_length_twelve_class_where_default_tracer_overcounts():
    # the default tolerance gives 17 here (a strict xfail in bench/); a finer
    # tracer tolerance agrees with the exact count
    w = "aaaabbbaBabb"
    assert self_intersection_count(w) == 14
    assert tracer_count(w, tol=1e-8) == 14


def _random_primitive_word(rng: random.Random, n: int) -> str:
    """A uniformly drawn reduced word of length n, redrawn until it is
    cyclically reduced and primitive (hence hyperbolic for n >= 3)."""
    while True:
        w = rng.choice(LETTERS)
        while len(w) < n:
            w += rng.choice([ch for ch in LETTERS if ch != INVERSE[w[-1]]])
        if w[0] != INVERSE[w[-1]] and is_primitive(w):
            return w


def test_boundary_count_matches_exact_count_through_length_twelve():
    # every primitive class through length 8, a seeded sample of words of
    # lengths 9 to 12, and the length-12 classes where the default tracer
    # fails; CI checks all 34,851 classes through length 12
    words = [w for w in enumerate_classes(8) if is_primitive(w)]
    rng = random.Random(11)
    words += [_random_primitive_word(rng, n) for n in range(9, 13) for _ in range(60)]
    words += list(_TOLERANCE_EDGE)
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

from math import comb

import pytest

from hypcross.selfint import (
    CutoffTooSmall,
    NotPrimitiveWord,
    self_intersection_count,
    tracer_count,
)
from hypcross.words import enumerate_classes, is_primitive, mirror_word, primitive_root, rotations, word_trace


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


def test_cutoff_convergence_guard():
    with pytest.raises(CutoffTooSmall):
        self_intersection_count("aab", cutoff=0)


def test_generous_cutoff_matches_default():
    for w in ("ab", "aab", "aaab"):
        assert self_intersection_count(w) == self_intersection_count(w, cutoff=len(w) + 12)

import math

import pytest

import hypcross.spectrum as spectrum_module
from hypcross.halfplane import length_from_trace
from hypcross.selfint import _check_word, _interleaved_pairs, _linked_pairs, boundary_count, self_intersection_count
from hypcross.spectrum import MAX_WORD_LEN, MethodDisagreement, _trace_ceiling, min_witness, spectrum
from hypcross.tracer import tracer_count
from hypcross.words import GEN_MAT, enumerate_classes, is_primitive, primitive_root, word_key, word_trace

M1 = 2 * math.acosh(3.0)
M2 = 2 * math.acosh(5.0)


def test_surface_group():
    # the generators and the mixed product aB are the three parabolic cusps
    assert GEN_MAT["a"] == (1, 2, 0, 1) and GEN_MAT["b"] == (1, 0, 2, 1)
    assert word_trace("a") == word_trace("b") == 2
    assert word_trace("aB") == -2


def test_one_crossing_floor():
    entries = spectrum(6, 3.6, 1)
    witness = min_witness(entries, 1)
    assert witness is not None
    assert witness.word == "ab"
    assert abs(witness.length - M1) < 1e-12
    assert witness.self_intersections == 1


def test_two_crossing_witness_at_bound():
    entries = spectrum(8, M2 + 1e-4, 2)
    witness = min_witness(entries, 2)
    assert witness is not None
    assert witness.word == "aab"
    assert witness.trace == 10.0
    assert abs(witness.length - M2) < 1e-12
    assert witness.self_intersections == 2
    assert witness.count_method == "both"


def test_nothing_below_the_bound():
    entries = spectrum(8, M2 - 1e-4, 2)
    assert min_witness(entries, 2) is None
    assert all(e.self_intersections <= 1 for e in entries)


# the shortest classes with k or more crossings, k = 1..5: each sits at trace
# 4k + 2, length 2*acosh(2k + 1), the k-corkscrew a^k b among them.  Complete
# within word length 12, which covers every class of trace 4k + 2 or less,
# since |trace| >= 2 * (word length).  Measured, not a theorem here.
_FEWEST_CROSSINGS_TABLE = {
    1: ["ab", "aaB", "aBB"],
    2: ["aab", "abb", "aaaB", "aBBB", "aaBaB", "aBaBB"],
    3: ["aaab", "abbb", "aaaaB", "aBBBB", "aaBaBaB", "aBaBaBB"],
    4: ["aaaab", "abbbb", "aaaaaB", "aBBBBB", "aaBaBaBaB", "aBaBaBaBB"],
    5: ["aaaaab", "abbbbb", "aaaaaaB", "aBBBBBB", "aaBaBaBaBaB", "aBaBaBaBaBB"],
}


@pytest.mark.parametrize("k", sorted(_FEWEST_CROSSINGS_TABLE))
def test_shortest_class_with_k_crossings_is_the_k_corkscrew_length(k):
    bound = 2 * math.acosh(2 * k + 1)
    entries = spectrum(MAX_WORD_LEN, bound * (1 + 1e-12), k)
    witness = min_witness(entries, k)
    assert witness.length == bound and witness.trace == 4 * k + 2
    minimisers = [e for e in entries if e.self_intersections >= k and e.length == bound]
    assert [e.word for e in minimisers] == _FEWEST_CROSSINGS_TABLE[k]
    assert all(e.self_intersections == k for e in minimisers)


def test_entries_sorted_and_complete():
    entries = spectrum(6, 5.0, 1)
    lengths = [e.length for e in entries]
    assert lengths == sorted(lengths)
    words = {e.word for e in entries}
    assert {"ab", "aaB", "aBB", "aab"} <= words


def test_powers_count_as_c2k2_times_root_and_match_tracer():
    # every proper-power class through length 12 (k = 2..6): C(2k, 2) times
    # the root's exact count equals the tracer's frozen convention
    powers = [w for w in enumerate_classes(12) if not is_primitive(w)]
    assert len(powers) == 117
    for w in powers:
        assert spectrum_module._count_class(w) == (tracer_count(w), "power"), w
    by_word = {e.word: e for e in spectrum(4, 7.1, 1)}
    assert (by_word["abab"].self_intersections, by_word["abab"].count_method) == (6, "power")
    assert by_word["ab"].count_method == "both"


@pytest.mark.parametrize(
    "w, count",
    [("aaaabbbaBabb", 14), ("aababababAAB", 31), ("abaBABBabABB", 26), ("abaBBAbaBBAB", 26)],
)
def test_primitive_classes_the_default_tracer_gets_wrong(w, count):
    # the tracer at its default tolerance overcounts the first two and raises
    # on the last two; the two exact counts agree on each
    assert spectrum_module._count_class(w) == (count, "both")


def test_count_class_is_the_public_count_of_the_root_through_length_ten():
    # _count_class runs the kernels on one check of the root: it must give
    # C(2k, 2) times the root's public count, and each kernel its public count
    for w in enumerate_classes(10):
        v, k = primitive_root(w)
        count = self_intersection_count(v)
        assert spectrum_module._count_class(w) == (math.comb(2 * k, 2) * count, "both" if k == 1 else "power"), w
        if k == 1:
            assert _linked_pairs(w) == count, w
            assert _interleaved_pairs(w, _check_word(w)) == boundary_count(w) == count, w


def test_counter_disagreement_raises(monkeypatch):
    monkeypatch.setattr(spectrum_module, "_interleaved_pairs", lambda w, m: 3)
    with pytest.raises(MethodDisagreement, match="'aab': exact 2 != boundary 3"):
        spectrum_module._count_class("aab")


def test_power_counter_disagreement_raises(monkeypatch):
    # a power is checked on its root: both counts of ab must agree
    monkeypatch.setattr(spectrum_module, "_interleaved_pairs", lambda w, m: 2 if w == "ab" else 1)
    with pytest.raises(MethodDisagreement, match="'ab': exact 1 != boundary 2"):
        spectrum_module._count_class("abab")


def test_entry_record():
    e = spectrum(6, 5.0, 2)[0]
    assert repr(e) == "SpectrumEntry(word='ab', trace=6.0, length=3.525494348078172, self_intersections=1, count_method='both')"
    assert e == ("ab", 6.0, 3.525494348078172, 1, "both")
    with pytest.raises(AttributeError):
        e.self_intersections = 2


def test_max_len_guard():
    with pytest.raises(ValueError, match=r"max_len must be in \[1, 12\], got 13"):
        spectrum(13, 5.0, 1)
    with pytest.raises(ValueError):
        spectrum(MAX_WORD_LEN + 1, 4.6, 1)  # the cap reaches word length 5 only
    with pytest.raises(ValueError, match=r"max_len must be in \[1, 12\], got 0"):
        spectrum(0, 5.0, 1)


def test_trace_ceiling():
    assert _trace_ceiling(M2) == 10
    assert _trace_ceiling(math.nextafter(M2, 0.0)) == 9
    for cap in (math.nan, -1.0, 0.0, -0.0, 5e-324, -40.0, -100.0, -1500.0, -1e300, -math.inf):
        assert _trace_ceiling(cap) == 2
    for cap in (math.inf, 1e300):
        assert _trace_ceiling(cap) is None
    # a cap at a trace's length keeps that trace, one float below it does not
    for t in range(3, 2000):
        cap = length_from_trace(t)
        assert _trace_ceiling(cap) == t
        assert _trace_ceiling(math.nextafter(cap, 0.0)) == t - 1


def test_length_strictly_increasing_in_integer_trace():
    # so |trace| <= _trace_ceiling(cap) and length <= cap keep the same
    # classes; every class through length 12 has |trace| <= 39202
    lengths = [length_from_trace(t) for t in range(3, 100_001)]
    assert all(a < b for a, b in zip(lengths, lengths[1:]))


def test_infinite_and_nan_caps():
    assert len(spectrum(6, math.inf, 1)) == 102
    assert spectrum(6, math.nan, 1) == []
    # cosh is even: a negative cap must not start the ceiling's search at
    # int(2*cosh(cap/2)), where it would step down for ever or overflow
    for cap in (-40.0, -100.0, -1500.0, -1e300, -math.inf):
        assert spectrum(10, cap, 2) == []


@pytest.mark.parametrize("max_len", range(1, 11))
def test_pruned_spectrum_matches_brute_filter(max_len, monkeypatch):
    """At every cap where the kept set changes (each class length), at the
    floats either side of it and at 0, -1, inf and nan, spectrum keeps the
    classes that a filter over every class through max_len keeps.  Above
    2*acosh(max_len + 1) the length bound cannot bite, so there the test
    checks that nothing is pruned instead of comparing thousands of entries."""
    classes = enumerate_classes(max_len)
    traces = {w: word_trace(w) for w in classes}
    length = {w: 2.0 * math.acosh(abs(t) / 2.0) for w, t in traces.items()}
    classes.sort(key=lambda w: (length[w], word_key(w)))
    # only the word lists are compared: skip the crossing counts
    monkeypatch.setattr(spectrum_module, "_count_class", lambda w: (0, "none"))
    caps = [0.0, -1.0, math.inf, math.nan]
    for t in sorted({abs(t) for t in traces.values()}):
        cap = 2.0 * math.acosh(t / 2.0)
        caps += [math.nextafter(cap, -math.inf), cap, math.nextafter(cap, math.inf)]
    unbitten = 2.0 * math.acosh(max_len + 1)
    for cap in caps:
        if unbitten < cap < math.inf:
            # the search's depth, ceiling // 2, is at least max_len
            assert _trace_ceiling(cap) // 2 >= max_len
            continue
        want = [w for w in classes if length[w] <= cap]
        assert [e.word for e in spectrum(max_len, cap, 1)] == want, (max_len, cap)

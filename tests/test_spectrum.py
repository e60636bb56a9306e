import math

import pytest

import hypcross.spectrum as spectrum_module
from hypcross.spectrum import MAX_WORD_LEN, MethodDisagreement, min_witness, reachable_word_length, spectrum
from hypcross.tracer import tracer_count
from hypcross.words import GEN_MAT, enumerate_classes, is_primitive, word_key, word_trace

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


def test_counter_disagreement_raises(monkeypatch):
    monkeypatch.setattr(spectrum_module, "boundary_count", lambda w: 3)
    with pytest.raises(MethodDisagreement, match="'aab': exact 2 != boundary 3"):
        spectrum_module._count_class("aab")


def test_power_counter_disagreement_raises(monkeypatch):
    # a power is checked on its root: both counts of ab must agree
    monkeypatch.setattr(spectrum_module, "boundary_count", lambda w: 2 if w == "ab" else 1)
    with pytest.raises(MethodDisagreement, match="'ab': exact 1 != boundary 2"):
        spectrum_module._count_class("abab")


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "spec.tsv"
    first = spectrum(6, 5.0, 2, cache_path=str(path))
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines[0] == "# max_len=6 length_cap=5.0 format=4"
    assert lines[-1] == "# entries=9" and len(lines) == 11
    again = spectrum(6, 5.0, 2, cache_path=str(path))
    assert again == first


def test_format_2_cache_is_recomputed(tmp_path):
    # a file an earlier version wrote, with a planted wrong count, misses
    path = tmp_path / "spec.tsv"
    path.write_text("# max_len=6 length_cap=5.0 cutoff=default tol=1e-06 format=2\nab\t6.0\t3.525494348078172\t7\tboth\n")
    entries = spectrum(6, 5.0, 2, cache_path=str(path))
    assert entries == spectrum(6, 5.0, 2)
    assert path.read_text().splitlines()[0] == "# max_len=6 length_cap=5.0 format=4"
    assert spectrum(6, 5.0, 2, cache_path=str(path)) == entries


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: "".join(text.splitlines(keepends=True)[:3]),  # the header and two entries, no trailer
        lambda text: text.replace("\t", " ", 1),  # an entry line with four fields
        lambda text: text.replace("\t1\t", "\tone\t", 1),  # a count that is not an int
        lambda text: text.replace("\n", "\nab\t6.0\t3.5\t1\tboth\n", 1),  # one line more than the trailer counts
        lambda text: text.rstrip("\n"),  # the trailer's newline cut off
        lambda text: text + "ab\n",  # bytes after the trailer
        lambda text: text[:-20],  # cut mid-line
        lambda text: text.replace("both", "b\u00f6th", 1),  # not ascii
        lambda text: text.split("\n", 1)[0] + "\n",  # the header alone
    ],
    ids=["truncated", "garbled", "bad-int", "count-wrong", "no-final-newline", "trailing-bytes", "mid-line", "non-ascii", "header-only"],
)
def test_damaged_cache_is_recomputed(tmp_path, damage):
    path = tmp_path / "spec.tsv"
    want = spectrum(6, 5.0, 2, cache_path=str(path))
    whole = path.read_text()
    path.write_text(damage(whole), encoding="utf-8")
    assert spectrum(6, 5.0, 2, cache_path=str(path)) == want
    # rewritten whole, in place, with no temporary file left behind
    assert path.read_text() == whole
    assert [p.name for p in tmp_path.iterdir()] == ["spec.tsv"]


def test_entry_record():
    e = spectrum(6, 5.0, 2)[0]
    assert repr(e) == "SpectrumEntry(word='ab', trace=6.0, length=3.525494348078172, self_intersections=1, count_method='both')"
    assert e == ("ab", 6.0, 3.525494348078172, 1, "both")
    with pytest.raises(AttributeError):
        e.self_intersections = 2


def test_cache_key_mismatch_recomputes(tmp_path):
    path = tmp_path / "spec.tsv"
    spectrum(5, 5.0, 2, cache_path=str(path))
    other = spectrum(6, 5.0, 2, cache_path=str(path))
    assert {e.word for e in other} >= {e.word for e in spectrum(5, 5.0, 2)}
    # file now carries the new key
    assert path.read_text().splitlines()[0].startswith("# max_len=6 ")


def test_cache_key_covers_length_cap(tmp_path):
    path = tmp_path / "spec.tsv"
    assert len(spectrum(6, 5.0, 1, cache_path=str(path))) == 9
    narrow = spectrum(6, 3.6, 1, cache_path=str(path))
    assert narrow == spectrum(6, 3.6, 1)
    assert len(narrow) == 3
    assert path.read_text().splitlines()[0].startswith("# max_len=6 length_cap=3.6 ")


def test_cache_write_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "spec.tsv"
    spectrum(5, 5.0, 1, cache_path=str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["spec.tsv"]


def test_max_len_guard():
    with pytest.raises(ValueError, match=r"max_len must be in \[1, 12\], got 13"):
        spectrum(13, 5.0, 1)
    with pytest.raises(ValueError):
        spectrum(MAX_WORD_LEN + 1, 4.6, 1)  # the cap reaches word length 5 only
    with pytest.raises(ValueError, match=r"max_len must be in \[1, 12\], got 0"):
        spectrum(0, 5.0, 1)


def test_reachable_word_length():
    assert reachable_word_length(10, M2 + 1e-6) == 5
    assert reachable_word_length(10, M2) == 5  # aab, trace 10, sits on the cap
    assert reachable_word_length(10, math.nextafter(M2, 0.0)) == 4
    assert reachable_word_length(3, M2) == 3
    assert reachable_word_length(12, math.inf) == 12
    assert reachable_word_length(12, math.nan) == 1
    assert reachable_word_length(12, -1.0) == 1


def test_infinite_and_nan_caps():
    assert len(spectrum(6, math.inf, 1)) == 102
    assert spectrum(6, math.nan, 1) == []


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
            assert reachable_word_length(max_len, cap) == max_len
            continue
        want = [w for w in classes if length[w] <= cap]
        assert [e.word for e in spectrum(max_len, cap, 1)] == want, (max_len, cap)

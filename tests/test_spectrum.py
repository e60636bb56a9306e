import importlib
import math

import pytest

from hypcross.spectrum import MAX_WORD_LEN, min_witness, reachable_word_length, spectrum
from hypcross.words import GEN_MAT, enumerate_classes, word_key, word_trace

# the package rebinds the name hypcross.spectrum to the function
spectrum_module = importlib.import_module("hypcross.spectrum")

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


def test_entries_sorted_and_complete():
    entries = spectrum(6, 5.0, 1)
    lengths = [e.length for e in entries]
    assert lengths == sorted(lengths)
    words = {e.word for e in entries}
    assert {"ab", "aaB", "aBB", "aab"} <= words


def test_powers_use_tracer_only():
    entries = spectrum(4, 7.1, 1)
    by_word = {e.word: e for e in entries}
    assert "abab" in by_word
    assert by_word["abab"].count_method == "tracer"
    assert by_word["abab"].self_intersections == 6
    assert by_word["ab"].count_method == "both"


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "spec.tsv"
    first = spectrum(6, 5.0, 2, cache_path=str(path))
    assert path.exists()
    header = path.read_text().splitlines()[0]
    # the layout caches have always been keyed by: older files still hit
    assert header == "# max_len=6 length_cap=5.0 cutoff=default tol=1e-06 format=2"
    again = spectrum(6, 5.0, 2, cache_path=str(path))
    assert again == first


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
    with pytest.raises(ValueError):
        spectrum(13, 5.0, 1)
    with pytest.raises(ValueError):
        spectrum(MAX_WORD_LEN + 1, 4.6, 1)  # the cap reaches word length 5 only
    with pytest.raises(ValueError):
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

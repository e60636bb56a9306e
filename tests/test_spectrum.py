import math

import pytest

from hypcross.spectrum import (
    min_witness,
    spectrum,
    thrice_punctured_sphere,
)

M1 = 2 * math.acosh(3.0)
M2 = 2 * math.acosh(5.0)


def test_surface_group():
    grp = thrice_punctured_sphere()
    assert grp.gen_a.classify() == "parabolic"
    assert grp.gen_b.classify() == "parabolic"
    assert grp.cusp_classes == ("a", "b", "aB")
    from hypcross.halfplane import compose

    assert compose(grp.gen_a, grp.gen_b.inverse()).trace == -2.0


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
    assert header.startswith("# max_len=6 ")
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

"""Bottom of the length spectrum of the three-cusp sphere with
self-intersection counts, plus the plain-text cache format.

Every conjugacy class of the rank-2 parabolic holonomy group yields an
integer trace and a geodesic length 2*acosh(|tr|/2); classes up to a length
cap get their self-intersection number from both counting methods (primitive
words) or from the tracer alone (proper powers).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from .halfplane import length_from_trace
from .selfint import TRACER_TOL, self_intersection_count, tracer_count
from .words import enumerate_classes, is_primitive, word_key, word_trace

# version of the cache file layout; part of the header key
CACHE_FORMAT = 2

# largest word length spectrum accepts; every hyperbolic class up to it has
# |trace| >= 2 * (word length), checked class by class in tests/test_words.py
MAX_WORD_LEN = 12


class MethodDisagreement(RuntimeError):
    """The double-coset and tracer counts differ for the same class."""


@dataclass(frozen=True)
class SpectrumEntry:
    word: str
    trace: float
    length: float
    self_intersections: int
    count_method: str  # doublecoset | tracer | both

    def sort_key(self):
        return (self.length, word_key(self.word))


def _count_class(w: str) -> tuple[int, str]:
    if is_primitive(w):
        dc = self_intersection_count(w)
        tr = tracer_count(w)
        if dc != tr:
            raise MethodDisagreement(f"{w!r}: doublecoset {dc} != tracer {tr}")
        return dc, "both"
    return tracer_count(w), "tracer"


def spectrum(max_len: int, length_cap: float, k_min: int, cache_path: str | None = None) -> list[SpectrumEntry]:
    """All hyperbolic classes of word length <= max_len and geodesic length
    <= length_cap, sorted by (length, word), each with its self-intersection
    count.  k_min is the caller's threshold of interest (see min_witness);
    entries themselves are not filtered by it.

    A class of word length n has |trace| >= 2n (checked over every class
    through MAX_WORD_LEN, the guard below), so its length is at least
    2*acosh(n) and only the word lengths with 2*acosh(n) <= length_cap are
    enumerated (see reachable_word_length): word length 5 at the sharp bound
    2*acosh(5).  The entries are those of a filter over every class through
    max_len; max_len only bites when it is below that reachable length.

    Both counters run at fixed settings: the double-coset default cutoff
    len(w) + 8 and the tracer tolerance TRACER_TOL.  The cache header names
    them as cutoff=default and tol=TRACER_TOL, the layout caches have always
    used, so caches written by earlier versions still hit."""
    if max_len > MAX_WORD_LEN:
        raise ValueError(f"max_len must be <= {MAX_WORD_LEN}, got {max_len}")

    key = _cache_key(max_len, length_cap)
    cached = _read_cache(cache_path, key) if cache_path else None
    if cached is not None:
        return cached

    entries: list[SpectrumEntry] = []
    for w in enumerate_classes(reachable_word_length(max_len, length_cap)):
        tr = word_trace(w)
        length = length_from_trace(tr)
        if length <= length_cap:
            count, method = _count_class(w)
            entries.append(SpectrumEntry(w, float(tr), length, count, method))

    entries.sort(key=SpectrumEntry.sort_key)
    if cache_path:
        _write_cache(cache_path, key, entries)
    return entries


def reachable_word_length(max_len: int, length_cap: float) -> int:
    """Largest word length n <= max_len (at least 1) whose shortest possible
    class, of trace 2n and length 2*acosh(n), passes spectrum's filter
    ``length <= length_cap``.  The bound is the filter's own expression,
    length_from_trace at trace 2n (2n/2 == n exactly), so a cap equal to a
    class length keeps that class; every larger trace gives a longer length
    by far more than rounding.  A nan cap gives 1 (no classes), an infinite
    one max_len, and max_len < 1 is passed through for enumerate_classes to
    reject."""
    n = max_len
    while n > 1 and not length_from_trace(2 * n) <= length_cap:
        n -= 1
    return n


def min_witness(entries: list[SpectrumEntry], k_min: int) -> SpectrumEntry | None:
    """Shortest entry with at least k_min self-intersections, if any."""
    for e in entries:
        if e.self_intersections >= k_min:
            return e
    return None


# ------------------------------------------------------------------ cache

def _cache_key(max_len: int, length_cap: float) -> str:
    """Header line naming every input that changes the entries, the fixed
    counter settings included, in the layout older caches were keyed by."""
    return (
        f"# max_len={max_len} length_cap={length_cap!r} "
        f"cutoff=default tol={TRACER_TOL!r} format={CACHE_FORMAT}"
    )


def _write_cache(path: str, key: str, entries: list[SpectrumEntry]) -> None:
    """Write to a temporary file beside ``path``, then rename it into place,
    so a reader never sees a half-written cache."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(key + "\n")
            for e in entries:
                fh.write(f"{e.word}\t{e.trace!r}\t{e.length!r}\t{e.self_intersections}\t{e.count_method}\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_cache(path: str, key: str) -> list[SpectrumEntry] | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != key:
            return None
        out = []
        for line in fh:
            word, trace, length, count, method = line.rstrip("\n").split("\t")
            out.append(SpectrumEntry(word, float(trace), float(length), int(count), method))
    return out

"""Bottom of the length spectrum of the three-cusp sphere with
self-intersection counts, plus the plain-text cache format.

Every conjugacy class of the rank-2 parabolic holonomy group yields an
integer trace and a geodesic length 2*acosh(|tr|/2); classes up to a length
cap get their self-intersection number from the two exact counts, linked
pairs and boundary interleaving, of the class's primitive root.
"""

from __future__ import annotations

import os
from collections import namedtuple
from math import comb

from .halfplane import length_from_trace
from .selfint import boundary_count, self_intersection_count
from .words import enumerate_classes, primitive_root, word_trace

# version of the cache file layout; part of the header key
CACHE_FORMAT = 4

# largest word length spectrum accepts; every hyperbolic class up to it has
# |trace| >= 2 * (word length), checked class by class in tests/test_words.py
MAX_WORD_LEN = 12


class MethodDisagreement(RuntimeError):
    """The linked-pairs and boundary counts differ for the same class."""


class SpectrumEntry(namedtuple("SpectrumEntry", "word trace length self_intersections count_method")):
    """One class of the spectrum.  count_method is both (linked-pairs and
    boundary counts agree) or power (C(2k, 2) times the root's count)."""

    __slots__ = ()


def _count_class(w: str) -> tuple[int, str]:
    """Count w = v^k from its primitive root v: C(2k, 2) * i(v), the frozen
    convention hypcross.tracer.tracer_count documents, which is i(v) itself
    when k = 1."""
    v, k = primitive_root(w)
    exact = self_intersection_count(v)
    boundary = boundary_count(v)
    if exact != boundary:
        raise MethodDisagreement(f"{v!r}: exact {exact} != boundary {boundary}")
    return comb(2 * k, 2) * exact, "both" if k == 1 else "power"


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

    Each class v^k is counted from its primitive root v by the exact
    linked-pairs count and the exact boundary count, which must agree
    (MethodDisagreement otherwise), as C(2k, 2) * i(v).  The cache is keyed
    by (max_len, length_cap) and CACHE_FORMAT."""
    if not 1 <= max_len <= MAX_WORD_LEN:
        raise ValueError(f"max_len must be in [1, {MAX_WORD_LEN}], got {max_len}")

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

    # enumerate_classes yields word_key order, which this stable sort keeps on ties
    entries.sort(key=lambda e: e.length)
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
    one max_len, and max_len < 1 is returned as it is."""
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


def __getattr__(name: str):
    """tracer_count, imported from hypcross.tracer on first access and bound
    here, so later reads are plain lookups.  spectrum never calls it: only
    bench/workloads.py reads it under this name, in SpectrumSharp.targets,
    whose span Tracer.patch reads with getattr.  The benchmark refresh,
    ROADMAP item 1, drops that span and deletes this."""
    if name != "tracer_count":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .tracer import tracer_count

    globals()[name] = tracer_count
    return tracer_count


# ------------------------------------------------------------------ cache

def _cache_key(max_len: int, length_cap: float) -> str:
    """Header line naming every input that changes the entries."""
    return f"# max_len={max_len} length_cap={length_cap!r} format={CACHE_FORMAT}"


def _write_cache(path: str, key: str, entries: list[SpectrumEntry]) -> None:
    """Write the header, one line per entry and the trailer ``# entries=N`` to
    a temporary file beside ``path``, then rename it into place, so a reader
    never sees a half-written cache.  A failure to create the temporary file
    is reported against ``path``, the name the caller gave."""
    import tempfile  # only cache writers need it

    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(key + "\n")
            for e in entries:
                fh.write(f"{e.word}\t{e.trace!r}\t{e.length!r}\t{e.self_intersections}\t{e.count_method}\n")
            fh.write(f"# entries={len(entries)}\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_cache(path: str, key: str) -> list[SpectrumEntry] | None:
    """The entries cached under ``key``, or None (recompute) when the file is
    missing, has another header, or is truncated or garbled."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="ascii") as fh:
            header, *body, trailer, end = fh.read().split("\n")
        if header != key or trailer != f"# entries={len(body)}" or end:
            return None
        out = []
        for line in body:
            word, trace, length, count, method = line.split("\t")
            out.append(SpectrumEntry(word, float(trace), float(length), int(count), method))
    except ValueError:  # too few lines or fields, a bad number, or non-ascii bytes
        return None
    return out

"""Bottom of the length spectrum of the three-cusp sphere with
self-intersection counts.

Every conjugacy class of the rank-2 parabolic holonomy group yields an
integer trace and a geodesic length 2*acosh(|tr|/2); classes up to a length
cap get their self-intersection number from the two exact counts, linked
pairs and boundary interleaving, run as integer kernels on the class's
primitive root after one check of that root.
"""

from collections import namedtuple
from math import comb, cosh

from .halfplane import length_from_trace
from .selfint import _check_word, _interleaved_pairs, _linked_pairs, self_intersection_count  # noqa: F401, the last only for bench's selfint.* spans
from .words import _classes, enumerate_classes, primitive_root, word_trace  # noqa: F401, only for bench's stale words.* spans

# largest word length spectrum accepts; under a cap's trace ceiling T the
# search also stops at word length T // 2 (see words._classes)
MAX_WORD_LEN = 12


class MethodDisagreement(RuntimeError):
    """The linked-pairs and boundary counts differ for the same class."""


class SpectrumEntry(namedtuple("SpectrumEntry", "word trace length self_intersections count_method")):
    """One class of the spectrum.  count_method is both (linked-pairs and
    boundary counts agree) or power (C(2k, 2) times the root's count)."""

    __slots__ = ()


def format_entry(e: SpectrumEntry) -> str:
    """One entry as a tab-separated line of the spectrum table."""
    return f"{e.word}\t{e.trace!r}\t{e.length!r}\t{e.self_intersections}\t{e.count_method}"


def _count_class(w: str) -> tuple[int, str]:
    """Count w = v^k from its primitive root v: C(2k, 2) * i(v), the frozen
    convention hypcross.tracer.tracer_count documents, which is i(v) itself
    when k = 1.  v is checked once and both kernels run on it."""
    v, k = primitive_root(w)
    # v is primitive as the least period of w, so is_primitive is not re-run
    m = _check_word(v)
    exact = _linked_pairs(v)
    boundary = _interleaved_pairs(v, m)
    if exact != boundary:
        raise MethodDisagreement(f"{v!r}: exact {exact} != boundary {boundary}")
    return comb(2 * k, 2) * exact, "both" if k == 1 else "power"


def spectrum(max_len: int, length_cap: float, k_min: int) -> list[SpectrumEntry]:
    """All hyperbolic classes of word length <= max_len and geodesic length
    <= length_cap, sorted by (length, word), each with its self-intersection
    count.  k_min is the caller's threshold of interest (see min_witness);
    entries themselves are not filtered by it.

    The cap is a trace ceiling T (see _trace_ceiling), the largest trace
    whose length passes: the search returns each class with its trace, drops
    every necklace with |trace| > T and bounds its own depth by T // 2 (word
    length 5 at the sharp bound, T = 10).  The entries are those of a filter
    ``length <= length_cap`` over every class through max_len: past cap 72,
    where there is no ceiling, every class through MAX_WORD_LEN passes, the
    longest at about 21.2.

    Each class v^k is counted from its primitive root v, checked once, by
    the kernels of the exact linked-pairs count and of the exact boundary
    count, which must agree (MethodDisagreement otherwise), as
    C(2k, 2) * i(v)."""
    if not 1 <= max_len <= MAX_WORD_LEN:
        raise ValueError(f"max_len must be in [1, {MAX_WORD_LEN}], got {max_len}")

    entries: list[SpectrumEntry] = []
    for w, tr in _classes(max_len, _trace_ceiling(length_cap)):
        count, method = _count_class(w)
        entries.append(SpectrumEntry(w, float(tr), length_from_trace(tr), count, method))

    # _classes yields word_key order, which this stable sort keeps on ties
    entries.sort(key=lambda e: e.length)
    return entries


def _trace_ceiling(length_cap: float) -> int | None:
    """Largest integer trace t >= 3 that passes spectrum's filter
    ``length_from_trace(t) <= length_cap``, found by stepping from
    int(2*cosh(cap/2)) with that expression: 2 when no trace does (a nan or a
    cap <= 0, refused before the even cosh), None past cap 72 (inf included),
    where no class nears the traces, about 4e15, and floats blur them."""
    if not 0.0 < length_cap <= 72.0:
        return None if length_cap > 72.0 else 2
    t = int(2.0 * cosh(0.5 * length_cap))
    while t > 2 and not length_from_trace(t) <= length_cap:
        t -= 1
    while length_from_trace(t + 1) <= length_cap:
        t += 1
    return t


def min_witness(entries: list[SpectrumEntry], k_min: int) -> SpectrumEntry | None:
    """Shortest entry with at least k_min >= 1 self-intersections, if any."""
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
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

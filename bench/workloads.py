"""The benchmark's three workloads.

Each workload is a list of items, one operation per item, and one round runs
every item once.  ``run`` makes the calls into hypcross for one item and
``check`` compares the result with the committed reference, returning the
list of problems (empty when the result is right).  ``make_reference.py``
builds a workload with no reference and uses only ``run``.  ``targets``
names the module attributes the traced run wraps in spans.

* ``spectrum-sharp``: the paper's sharpness check at word length 10, one
  ``spectrum`` call and its ``min_witness``.  Enumeration dominates.
* ``count-words``: both self-intersection counters on seeded words of length
  6 to 11, one word per operation.  No enumeration happens.
* ``verify-audit``: the numeric audit behind ``hypcross verify``,
  ``pants-min`` and ``constants``.  ``words`` and ``selfint`` do no work.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SHARP_CAP = 2.0 * math.log(5.0 + 2.0 * math.sqrt(6.0)) + 1e-6
SHARP_MAX_LEN = 10
SHARP_K = 2

# Lengths 6 to 11 are the range where the two counters agree on every
# primitive class, checked exhaustively; at length 12 they disagree on some
# classes (see README.md).
COUNT_LENGTHS = range(6, 12)
WORDS_PER_LENGTH = 80
DEFAULT_SEED = 1

PANTS_MIN = (6, 3.0, 16)  # mn_cap, length_cap, grid of `hypcross pants-min`

LETTERS = "abAB"
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
_ORDER = str.maketrans("abAB", "0123")  # string order on codes = a < b < A < B


def module(name: str):
    """The hypcross submodule itself; the package rebinds some submodule
    names (``hypcross.spectrum``) to functions."""
    return importlib.import_module(f"hypcross.{name}")


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _word_len(w, *_args) -> dict:
    return {"len": len(w)}


# ------------------------------------------------------------ count-words

def _is_primitive(w: str) -> bool:
    n = len(w)
    return not any(n % d == 0 and w == w[:d] * (n // d) for d in range(1, n))


def generate_words(seed: int) -> list[str]:
    """``WORDS_PER_LENGTH`` distinct words of each length in
    ``COUNT_LENGTHS``, drawn uniformly among reduced words and kept when
    cyclically reduced and primitive, in a seeded shuffled order.  On the
    three-cusp sphere the parabolic classes are the powers of the cusp words
    a, b and aB, so a primitive cyclically reduced word of length >= 3 is
    hyperbolic."""
    rng = random.Random(seed)
    out: list[str] = []
    for n in COUNT_LENGTHS:
        chosen: set[str] = set()
        while len(chosen) < WORDS_PER_LENGTH:
            w = rng.choice(LETTERS)
            while len(w) < n:
                w += rng.choice([ch for ch in LETTERS if ch != _INVERSE[w[-1]]])
            if w[0] != _INVERSE[w[-1]] and _is_primitive(w):
                chosen.add(w)
        out.extend(sorted(chosen))
    rng.shuffle(out)
    return out


def class_key(w: str) -> str:
    """Least rotation of w or of its inverse in the order a < b < A < B: one
    key per conjugacy class up to inversion, on which the count depends."""
    inv = "".join(_INVERSE[ch] for ch in reversed(w))
    return min((v[i:] + v[:i] for v in (w, inv) for i in range(len(v))), key=lambda v: v.translate(_ORDER))


class CountWords:
    name = "count-words"
    words_are_items = True

    def __init__(self, seed: int, reference: dict | None):
        self.items = generate_words(seed)
        self.reference = reference
        self.selfint = module("selfint")

    def run(self, w: str):
        return self.selfint.self_intersection_count(w), self.selfint.tracer_count(w)

    def check(self, w: str, result) -> list[str]:
        dc, tr = result
        if dc != tr:
            return [f"{w}: doublecoset {dc} != tracer {tr}"]
        want = self.reference["counts"].get(class_key(w))
        if want is None:
            return [f"{w}: class {class_key(w)} is not in the reference"]
        if dc != want:
            return [f"{w}: count {dc} != reference {want}"]
        return []

    def targets(self) -> list[tuple]:
        return [
            (self.selfint, "self_intersection_count", "selfint.self_intersection_count", _word_len),
            (self.selfint, "tracer_count", "selfint.tracer_count", _word_len),
        ]


# --------------------------------------------------------- spectrum-sharp

class SpectrumSharp:
    name = "spectrum-sharp"
    words_are_items = False

    def __init__(self, seed: int, reference: dict | None):
        self.items = [(SHARP_MAX_LEN, SHARP_CAP, SHARP_K)]
        self.reference = reference
        self.spectrum = module("spectrum")

    def run(self, item):
        max_len, cap, k = item
        entries = self.spectrum.spectrum(max_len, cap, k)
        return entries, self.spectrum.min_witness(entries, k)

    def check(self, item, result) -> list[str]:
        entries, witness = result
        ref = self.reference["entries"]
        if len(entries) != len(ref):
            return [f"{len(entries)} entries, reference has {len(ref)}"]
        problems = []
        for e, (word, trace, length, count, method) in zip(entries, ref):
            if (e.word, e.trace, e.self_intersections, e.count_method) != (word, trace, count, method):
                problems.append(f"entry {e.word} {e.trace} {e.self_intersections} {e.count_method} != reference {word} {trace} {count} {method}")
            elif not abs(e.length - length) <= 1e-12:
                problems.append(f"entry {e.word}: length {e.length!r} != reference {length!r}")
        got = None if witness is None else witness.word
        if got != self.reference["witness"]:
            problems.append(f"witness {got} != reference {self.reference['witness']}")
        return problems

    def targets(self) -> list[tuple]:
        s = self.spectrum
        return [
            (s, "spectrum", "spectrum.spectrum", None),
            (s, "min_witness", "spectrum.min_witness", None),
            (s, "enumerate_classes", "words.enumerate_classes", None),
            (s, "word_trace", "words.word_trace", None),
            (s, "self_intersection_count", "selfint.self_intersection_count", _word_len),
            (s, "tracer_count", "selfint.tracer_count", _word_len),
        ]


# ----------------------------------------------------------- verify-audit

class VerifyAudit:
    name = "verify-audit"
    words_are_items = False

    def __init__(self, seed: int, reference: dict | None):
        self.items = [PANTS_MIN]
        self.reference = reference
        self.verifier = module("verifier")
        self.pants = module("pants")

    def run(self, item):
        report = self.verifier.run_verify_suite()
        best = self.pants.minimize_over_moduli(*item)
        return report, best, self.verifier.constants()

    def check(self, item, result) -> list[str]:
        report, (P, C, value), table = result
        ref = self.reference
        problems = []
        got = [[c.id, c.passed] for c in report.checks]
        if got != ref["checks"]:
            problems.append(f"checks {got} != reference {ref['checks']}")
        argmin = [P.l1, P.l2, P.l3, C.m, C.n]
        if argmin != ref["argmin"]:
            problems.append(f"pants-min argmin {argmin} != reference {ref['argmin']}")
        if not abs(value - 2.0 * math.acosh(5.0)) <= 1e-9:
            problems.append(f"pants-min value {value!r} is not 2*acosh(5) within 1e-9")
        for key, want in ref["constants"].items():
            if not abs(getattr(table, key) - want) <= 1e-12:
                problems.append(f"constants {key} {getattr(table, key)!r} != reference {want!r}")
        return problems

    def targets(self) -> list[tuple]:
        v, p = self.verifier, self.pants
        winding, collar = module("winding"), module("collar")
        return [
            (v, "run_verify_suite", "verifier.run_verify_suite", None),
            (v, "constants", "verifier.constants", None),
            (v, "verify_concavity_chain", "verifier.verify_concavity_chain", None),
            (v, "verify_case1_chain", "verifier.verify_case1_chain", None),
            (v, "find_bound_minimum", "verifier.find_bound_minimum", None),
            (p, "minimize_over_moduli", "pants.minimize_over_moduli", None),
            (p, "gamma_mn_length", "pants.gamma_mn_length", None),
            (p, "trace_length_oracle", "pants.trace_length_oracle", None),
            (winding, "saccheri_top_length", "winding.saccheri_top_length", None),
            (winding, "verify_cusp_lemma_geometrically", "winding.verify_cusp_lemma_geometrically", None),
            (collar, "width_scan", "collar.width_scan", None),
        ]


WORKLOADS = {w.name: w for w in (SpectrumSharp, CountWords, VerifyAudit)}

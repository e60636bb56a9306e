#!/usr/bin/env python3
"""Write the workloads' reference results under ``reference/`` from the
current program.

    python3 bench/make_reference.py

Run it only when a change to hypcross is meant to change a result, and say
so in the change; ``run.py`` counts every departure from these files as a
failed operation.  Each result comes from the workload's own ``run``, so a
reference always describes the calls the benchmark makes; this file only
writes the results out.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import COUNT_LENGTHS, DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, class_key  # noqa: E402


def spectrum_sharp(workload) -> dict:
    (item,) = workload.items
    entries, witness = workload.run(item)
    max_len, cap, k = item
    return {
        "call": {"max_len": max_len, "length_cap": cap, "k_min": k},
        "entries": [[e.word, int(e.trace), e.length, e.self_intersections, e.count_method] for e in entries],
        "witness": witness.word,
    }


def count_words(workload) -> dict:
    """Counts of every primitive class of the lengths the workload draws
    from, so that every word of every seed is checked."""
    from hypcross.words import enumerate_classes, is_primitive

    counts = {}
    for w in enumerate_classes(max(COUNT_LENGTHS)):
        if len(w) in COUNT_LENGTHS and is_primitive(w):
            dc, tr = workload.run(w)
            if dc != tr:
                raise SystemExit(f"{w}: doublecoset {dc} != tracer {tr}")
            counts[class_key(w)] = dc
    return {"lengths": [min(COUNT_LENGTHS), max(COUNT_LENGTHS)], "counts": dict(sorted(counts.items()))}


def verify_audit(workload) -> dict:
    (item,) = workload.items
    report, (P, C, _), table = workload.run(item)
    return {
        "checks": [[c.id, c.passed] for c in report.checks],
        "argmin": [P.l1, P.l2, P.l3, C.m, C.n],
        "constants": {k: getattr(table, k) for k in ("bound_one_crossing", "bound_two_crossings", "gap", "case_split")},
    }


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, make in (("spectrum-sharp", spectrum_sharp), ("count-words", count_words), ("verify-audit", verify_audit)):
        doc = make(WORKLOADS[name](DEFAULT_SEED, None))
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()

"""Self-tests of the benchmark: input generation, reference checks, spans.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import collections
import json
import math
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, by_root, self_times  # noqa: E402
from hypcross import pants, verifier  # noqa: E402
from hypcross.selfint import self_intersection_count, tracer_count  # noqa: E402
from hypcross.spectrum import SpectrumEntry  # noqa: E402
from hypcross.words import canonical_class, is_cyclically_reduced, is_primitive, word_trace  # noqa: E402


# ---------------------------------------------------------------- inputs

def test_same_seed_gives_same_words():
    assert wl.generate_words(7) == wl.generate_words(7)
    assert wl.generate_words(7) != wl.generate_words(8)


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, 2, 12345])
def test_words_are_primitive_cyclically_reduced_hyperbolic(seed):
    words = wl.generate_words(seed)
    assert len(set(words)) == len(words)
    for w in words:
        assert is_cyclically_reduced(w) and is_primitive(w), w
        assert abs(word_trace(w)) > 2, w
    per_length = collections.Counter(len(w) for w in words)
    assert sorted(per_length) == list(wl.COUNT_LENGTHS)
    assert set(per_length.values()) == {wl.WORDS_PER_LENGTH}


def test_class_key_is_the_library_canonical_class():
    for w in wl.generate_words(wl.DEFAULT_SEED):
        assert wl.class_key(w) == canonical_class(w)


def test_reference_holds_every_class_the_generator_can_draw():
    from hypcross.words import enumerate_classes

    classes = {w for w in enumerate_classes(max(wl.COUNT_LENGTHS)) if len(w) in wl.COUNT_LENGTHS and is_primitive(w)}
    assert set(wl.load_reference("count-words")["counts"]) == classes


@pytest.mark.xfail(strict=True, reason="the two counters disagree on this length-12 class (14 against 17)")
def test_counters_agree_on_a_length_12_class():
    w = "aaaabbbaBabb"
    assert self_intersection_count(w) == tracer_count(w)


# --------------------------------------------- reference checks catch errors

def _sharp():
    ref = wl.load_reference("spectrum-sharp")
    entries = [SpectrumEntry(w, float(t), length, k, m) for w, t, length, k, m in ref["entries"]]
    witness = next(e for e in entries if e.word == ref["witness"])
    return wl.SpectrumSharp(wl.DEFAULT_SEED, ref), ref, entries, witness


def test_spectrum_sharp_reference_holds_the_paper_witness():
    _, ref, entries, witness = _sharp()
    assert witness.word == "aab" and witness.self_intersections == 2
    assert abs(witness.length - 2.0 * math.log(5.0 + 2.0 * math.sqrt(6.0))) < 1e-12
    assert ref["call"]["length_cap"] == wl.SHARP_CAP


@pytest.mark.parametrize("perturb", [
    lambda es, w: (es[:-1], w),
    lambda es, w: ([es[0].__class__(es[0].word, es[0].trace, es[0].length, es[0].self_intersections + 1, es[0].count_method)] + es[1:], w),
    lambda es, w: ([es[0].__class__(es[0].word, es[0].trace, es[0].length + 1e-9, es[0].self_intersections, es[0].count_method)] + es[1:], w),
    lambda es, w: ([es[0].__class__(es[0].word, es[0].trace, es[0].length, es[0].self_intersections, "tracer")] + es[1:], w),
    lambda es, w: (es, es[-1]),
    lambda es, w: (es, None),
])
def test_spectrum_sharp_check_catches_perturbation(perturb):
    workload, ref, entries, witness = _sharp()
    assert workload.check(None, (entries, witness)) == []
    assert workload.check(None, perturb(list(entries), witness))


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, 2, 12345])
def test_count_words_check_catches_perturbation(seed):
    workload = wl.CountWords(seed, wl.load_reference("count-words"))
    w = workload.items[0]
    k = workload.reference["counts"][wl.class_key(w)]
    assert workload.check(w, (k, k)) == []
    assert workload.check(w, (k, k + 1))
    assert workload.check(w, (k + 1, k + 1))


def test_count_words_check_rejects_a_class_missing_from_the_reference():
    workload = wl.CountWords(wl.DEFAULT_SEED, {"counts": {}})
    w = workload.items[0]
    assert workload.check(w, (3, 3))


def _audit_result(ref):
    report = verifier.SuiteReport("verify")
    for cid, passed in ref["checks"]:
        report.add(cid, passed, 1.0)
    l1, l2, l3, m, n = ref["argmin"]
    best = (pants.PantsBoundary(l1, l2, l3), pants.CurveClass(m, n), 2.0 * math.acosh(5.0))
    return report, best, verifier.constants()


@pytest.mark.parametrize("perturb", ["flag", "argmin", "value", "constant"])
def test_verify_audit_check_catches_perturbation(perturb):
    ref = wl.load_reference("verify-audit")
    assert len(ref["checks"]) == 28 and all(passed for _, passed in ref["checks"])
    workload = wl.VerifyAudit(wl.DEFAULT_SEED, ref)
    report, (P, C, value), table = _audit_result(ref)
    assert workload.check(None, (report, (P, C, value), table)) == []
    if perturb == "flag":
        report.checks[-1] = verifier.CheckResult(report.checks[-1].id, False, -1.0)
    elif perturb == "argmin":
        C = pants.CurveClass(2, 1)
    elif perturb == "value":
        value += 1e-8
    else:
        table = verifier.ConstantsTable(table.bound_one_crossing, table.bound_two_crossings, table.gap + 1e-9, table.case_split)
    assert workload.check(None, (report, (P, C, value), table))


def test_mismatch_counts_as_failed_operation():
    workload = wl.CountWords(wl.DEFAULT_SEED, wl.load_reference("count-words"))
    workload.run = lambda w: (workload.reference["counts"][wl.class_key(w)] + 1,) * 2
    stats = run.Stats(len(workload.items))
    assert run.operate(workload, workload.items[0], stats) is None
    assert (stats.attempted, stats.failed) == (1, 1) and stats.problems


def test_wall_s_is_the_mean_fastest_word_time_or_the_median_operation():
    stats = run.Stats(2)
    stats.item_times = [[3.0, 1.0, 2.0], [5.0, 4.0, 9.0]]
    stats.samples = [3.0, 5.0, 1.0, 4.0, 2.0, 9.0]
    assert run.wall_seconds(stats, True) == 2.5
    assert run.wall_seconds(stats, False) == 3.5


# ------------------------------------------------------------------ spans

def test_self_time_is_span_minus_children():
    spans = [
        ["bench.operation", 0.0, 10.0, None, 1, None],
        ["words.enumerate_classes", 1.0, 5.0, 0, 1, None],
        ["words.word_trace", 2.0, 3.0, 1, 1, None],
        ["words.word_trace", 6.0, 8.0, 0, 1, None],
        ["bench.operation", 11.0, 12.0, None, 1, None],
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0, 1.0]
    assert by_root(spans) == {0: [1, 2, 3], 4: []}


def test_enumerate_share_and_overhead_come_from_the_same_operations():
    spans = [
        ["bench.operation", 0.0, 10.0, None, 1, None],
        ["words.enumerate_classes", 1.0, 9.0, 0, 1, None],
        ["bench.operation", 20.0, 24.0, None, 1, None],
        ["words.enumerate_classes", 20.0, 23.0, 2, 1, None],
    ]
    stats = run.Stats(1)
    stats.overhead = [0.5, -0.1, 0.2]
    m = run.layer_metrics(spans, stats, False)
    assert m["words.enumerate_share"] == (pytest.approx(0.775), "ratio")
    assert m["trace.overhead_s"] == (0.2, "s")


def test_patch_records_nested_spans_and_restores():
    import hypcross.selfint as selfint

    original = selfint.tracer_count
    tracer = Tracer()
    with tracer.patch([(selfint, "tracer_count", "selfint.tracer_count", wl._word_len)]):
        with tracer.span("bench.operation"):
            assert selfint.tracer_count("aab") == 2
    assert selfint.tracer_count is original
    (root, child) = tracer.spans
    assert root[0] == "bench.operation" and root[3] is None
    assert child[0] == "selfint.tracer_count" and child[3] == 0 and child[5] == {"len": 3}
    assert root[1] <= child[1] <= child[2] <= root[2]


def test_pool_thread_spans_belong_to_the_waiting_span():
    tracer = Tracer()
    work = tracer.wrap(lambda x: x * 2, "selfint.tracer_count")
    with tracer.span("spectrum.spectrum"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(work, range(4))) == [0, 2, 4, 6]
    assert [s[3] for s in tracer.spans] == [None, 0, 0, 0, 0]
    assert len({s[4] for s in tracer.spans[1:]} - {threading.get_ident()}) >= 1


def test_raising_call_is_recorded_and_reraised():
    tracer = Tracer()
    counter = tracer.wrap(self_intersection_count, "selfint.self_intersection_count", wl._word_len)
    with pytest.raises(ValueError):
        with tracer.span("bench.operation"):
            counter("aA")
    assert [s[5] for s in tracer.spans] == [{"error": "ValueError"}, {"len": 2, "error": "ValueError"}]
    assert run.layer_metrics(tracer.spans, run.Stats(0), False)["selfint.failed"] == (1, "count")


# ------------------------------------------------------- the benchmark file

def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = run.layer_metrics([], run.Stats(0), False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_run_reports_every_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "count-words", "--seed", "3", "--seconds", "0.2", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.layer_metrics([], run.Stats(0), False))
    assert result["metrics"]["selfint.tracer_ms.len11"]["value"] > 0
    assert result["metrics"]["words.enumerate_classes_s"]["value"] == 0


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count-words", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

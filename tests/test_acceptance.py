"""Acceptance gate: one test per criterion, each timed against its runtime
budget and printed as a pass/fail line.

Two literal expected decimals are internally inconsistent with the exact
constants they accompany and are therefore encoded as strict xfails (the
mathematically forced values are asserted in the main criterion tests):

* the gap between the two sharp bounds is 2log(5+2 sqrt 6) - 4log(1+ sqrt 2)
  = 1.0593690 (not 1.058870); the binding claim, gap < 1.06, holds;
* 2 asinh 4 - 2 asinh 2 = 1.3021541 (not 1.302156); the binding claim,
  value > 1.06, holds.
"""

import json
import math
import time

import numpy as np
import pytest

from hypcross import collar, pants, verifier, winding
from hypcross.cli import main as cli_main
from hypcross.selfint import self_intersection_count
from hypcross.spectrum import min_witness, spectrum
from hypcross.tracer import tracer_count
from hypcross.words import enumerate_classes, is_primitive, word_trace

M1 = 4 * math.log(1 + math.sqrt(2))
M2 = 2 * math.log(5 + 2 * math.sqrt(6))


def _report(num: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s (budget {budget:g}s)")
    assert elapsed < budget


def test_criterion_1_sharp_constant(capsys):
    t0 = time.monotonic()
    code = cli_main(["constants"])
    out = capsys.readouterr().out
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["bound_two_crossings"] - 4.584864) < 1e-6
    assert res["gap"] < 1.06
    assert abs(res["gap"] - (M2 - M1)) < 1e-15
    assert abs(res["gap"] - 1.0593689910441837) < 1e-9
    with capsys.disabled():
        _report(1, "sharp constant", t0, 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="stated decimal 1.058870 contradicts the stated definitions: "
    "2log(5+2sqrt6) - 4log(1+sqrt2) = 1.0593690 exactly; only gap < 1.06 is attainable",
)
def test_criterion_1_gap_decimal_as_stated():
    assert abs((M2 - M1) - 1.058870) < 1e-6


def test_criterion_2_pants_formula_vs_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(200):
        ls = rng.uniform(0.0, 4.0, 3)
        ls[rng.random(3) < 0.25] = 0.0
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        P, C = pants.PantsBoundary(*ls), pants.CurveClass(m, n)
        worst = max(worst, abs(pants.gamma_mn_length(P, C) - pants.trace_length_oracle(P, C)))
    assert worst < 1e-9
    _report(2, "pants formula vs holonomy oracle", t0, 1.5)


def test_criterion_3_corollary_minimum():
    t0 = time.monotonic()
    # the 2mn+1 floor over every evaluated cell is enforced inside the search
    P, C, value = pants.minimize_over_moduli(6, 3.0, 16)
    assert abs(value - 2 * math.acosh(5.0)) < 1e-9
    assert (P.l1, P.l2, P.l3) == (0.0, 0.0, 0.0)
    assert (C.m, C.n) in {(1, 2), (2, 1)}
    _report(3, "pants moduli minimum", t0, 0.5)


def test_criterion_4_winding_lemmas():
    t0 = time.monotonic()
    cusp_dev = max(winding.verify_cusp_lemma_geometrically(W) for W in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0))
    assert cusp_dev < 1e-12
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        W, core, width = rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0), rng.uniform(0.05, 3.0)
        got = winding.collar_arc_length(W, core, width)
        worst = max(worst, abs(got - winding.saccheri_top_length(W, core, width)))
    assert worst < 1e-9
    _report(4, "winding lemmas vs geometric oracles", t0, 0.5)


def test_criterion_5_long_loop_bound_analysis():
    t0 = time.monotonic()
    assert verifier.length_bound_deriv(3.0) < 0.0
    assert verifier.length_bound_deriv(25.0 / 8.0) > 0.0
    bracket = verifier.find_bound_minimum()
    assert 3.0 < bracket.root < 3.125
    h0 = verifier.length_bound(bracket.root)
    assert h0 > 4.658544
    assert h0 > 4.584864
    _report(5, "one-variable bound analysis", t0, 0.5)


def test_criterion_6_concavity_chain():
    t0 = time.monotonic()
    rep = verifier.verify_concavity_chain()
    concave = next(c for c in rep.checks if c.id == "arc-concave-in-winding")
    assert concave.passed  # second differences nonpositive on the full grid
    step = 2 * math.asinh(4.0) - 2 * math.asinh(2.0)
    assert step > 1.06
    assert abs(step - 1.3021541441645819) < 1e-9
    _report(6, "concavity chain", t0, 5.0)


@pytest.mark.xfail(
    strict=True,
    reason="stated decimal 1.302156 is off by 1.9e-6: 2asinh(4) - 2asinh(2) = 1.3021541 exactly; "
    "only the binding claim > 1.06 is attainable",
)
def test_criterion_6_asinh_decimal_as_stated():
    assert abs((2 * math.asinh(4.0) - 2 * math.asinh(2.0)) - 1.302156) < 1e-6


def _sharpness_scan(max_len: int):
    below = []
    for w in enumerate_classes(max_len):
        length = 2 * math.acosh(abs(word_trace(w)) / 2)
        if length < M2 - 1e-9:
            below.append(w)
    for w in below:
        assert is_primitive(w)
        dc = self_intersection_count(w)
        tr = tracer_count(w)
        assert dc == tr
        assert dc <= 1, f"{w} has {dc} crossings below the two-crossing bound"
    assert abs(2 * math.acosh(abs(word_trace("aab")) / 2) - M2) < 1e-12
    assert self_intersection_count("aab") == 2
    assert tracer_count("aab") == 2


def test_criterion_7_spectrum_sharpness_gate():
    t0 = time.monotonic()
    _sharpness_scan(8)
    entries = spectrum(8, M2 + 1e-6, 2)
    witness = min_witness(entries, 2)
    assert witness is not None and witness.word == "aab"
    assert witness.count_method == "both" and witness.self_intersections == 2
    _report(7, "spectrum sharpness (word length 8)", t0, 0.2)


def test_criterion_7_spectrum_sharpness_extended():
    t0 = time.monotonic()
    _sharpness_scan(10)
    _report(7, "spectrum sharpness (word length 10)", t0, 1.0)


def test_criterion_8_corkscrew_family():
    t0 = time.monotonic()
    for k in range(1, 7):
        w = "a" * k + "b"
        assert word_trace(w) == 2 * (2 * k + 1)  # exact integer trace
        assert self_intersection_count(w) == k
    _report(8, "corkscrew family pattern", t0, 0.5)


def test_criterion_9_identity_suite():
    t0 = time.monotonic()
    scan = collar.width_scan()
    assert scan["gap_identity_max_abs_dev"] < 1e-12
    assert scan["w1_gt_w_on_0_20"]
    assert scan["w1_lt_2w_on_0_2.3"]
    _report(9, "width identity suite", t0, 0.5)

import math
import sys
import threading

import numpy as np
import pytest

from hypcross.collar import wide_width
from hypcross import verifier
from hypcross.verifier import (
    CASE_SPLIT,
    BracketFailure,
    CheckResult,
    DomainError,
    SuiteReport,
    constants,
    corkscrew_length,
    find_bound_minimum,
    half_collar_arc,
    length_bound,
    length_bound_deriv,
    run_verify_suite,
    sharp_bound_k1,
    sharp_bound_k2,
    verify_case1_chain,
    verify_concavity_chain,
)
from hypcross.winding import collar_arc_length


def test_constants_table():
    tab = constants()
    assert abs(tab.bound_two_crossings - 2 * math.acosh(5.0)) < 1e-12
    assert abs(tab.bound_two_crossings - 4.584863339122355) < 1e-12
    assert abs(tab.bound_one_crossing - 2 * math.acosh(3.0)) < 1e-12
    assert tab.gap < CASE_SPLIT
    assert abs(tab.gap - 1.0593689910441837) < 1e-12
    assert corkscrew_length(1) == pytest.approx(sharp_bound_k1(), abs=1e-12)
    assert corkscrew_length(2) == pytest.approx(sharp_bound_k2(), abs=1e-12)


def test_threshold_strictly_separates():
    gap = sharp_bound_k2() - sharp_bound_k1()
    asinh_step = 2 * math.asinh(4.0) - 2 * math.asinh(2.0)
    assert gap < CASE_SPLIT < asinh_step


def test_bound_value_at_three():
    assert abs(length_bound(3.0) - (math.log(3.0) + 2 * math.log(3 + math.sqrt(10)))) < 1e-12
    assert abs(length_bound(3.0) - 4.735505207132244) < 1e-12


def test_bound_diverges_at_ends():
    assert length_bound(2.0 + 1e-12) > 25.0
    assert length_bound(1e9) > 40.0


def test_bound_domain_errors():
    with pytest.raises(DomainError):
        length_bound(2.0)
    with pytest.raises(DomainError):
        length_bound_deriv(1.5)


def test_deriv_signs_at_bracket():
    assert length_bound_deriv(3.0) < 0.0
    assert length_bound_deriv(25.0 / 8.0) > 0.0


@pytest.mark.parametrize("T", [2.5, 3.0, 4.0, 10.0])
def test_deriv_matches_finite_difference(T):
    h = 1e-5
    fd = (length_bound(T + h) - length_bound(T - h)) / (2 * h)
    assert abs(length_bound_deriv(T) - fd) < 1e-6


def test_deriv_on_an_array_matches_the_scalars():
    T = np.geomspace(2.0 + 1e-9, 1e6, 2001)
    d = length_bound_deriv(T)
    assert d.shape == T.shape
    assert d.tobytes() == np.array([length_bound_deriv(float(x)) for x in T]).tobytes()
    with pytest.raises(DomainError):
        length_bound_deriv(np.array([3.0, 2.0, 4.0]))


def test_bound_minimum_bracket():
    br = find_bound_minimum()
    assert 3.0 < br.root < 25.0 / 8.0
    assert br.residual <= 1e-10
    assert br.lo < br.root < br.hi
    # frozen by this bisection
    assert abs(br.root - 3.0523003446139407) < 1e-9
    assert abs(length_bound(br.root) - 4.73463054756788) < 1e-9


def test_bound_minimum_dominates_constants():
    h0 = length_bound(find_bound_minimum().root)
    assert h0 > math.log(25.0 / 9.0) + 2 * math.log(3 + math.sqrt(10))
    assert h0 > 4.658544165996115 - 1e-9
    assert h0 > sharp_bound_k2()


def test_bound_minimum_deterministic():
    assert find_bound_minimum() == find_bound_minimum()


def test_half_collar_arc_consistent_with_winding_module():
    for t in (0.2, 0.53, 0.881373587019543):
        lhs = 2 * half_collar_arc(1.0, t)
        rhs = collar_arc_length(1.0, 2 * t, wide_width(2 * t))
        assert abs(lhs - rhs) < 1e-12


def test_half_collar_arc_regression():
    t = math.asinh(1.0)
    assert abs(half_collar_arc(1.0, t) - 1.6148909161730953) < 1e-12
    assert abs(half_collar_arc(2.0, t) - 2.619560576453013) < 1e-12


def test_u_substitution_identity():
    ts = np.geomspace(1e-3, 2.0, 300)
    u = 2 * np.cosh(ts / 2) ** 2
    lhs = 2 * half_collar_arc(2.0, ts) - 2 * half_collar_arc(1.0, ts)
    rhs = 2 * np.arcsinh(u * (2 * u - 2)) - 2 * np.arcsinh(u)
    assert float(np.max(np.abs(lhs - rhs))) < 1e-9


def test_concavity_spot_check():
    t = 0.3
    second = half_collar_arc(1.9, t) + half_collar_arc(2.1, t) - 2 * half_collar_arc(2.0, t)
    assert second < 0.0


def test_concavity_chain_report():
    rep = verify_concavity_chain(t_grid=1000)
    assert rep.passed
    ids = {c.id for c in rep.checks}
    assert "arc-concave-in-winding" in ids
    assert "infimum-above-threshold" in ids
    inf_margin = next(c for c in rep.checks if c.id == "infimum-above-threshold").margin
    assert abs((2 * math.asinh(4.0) - 2 * math.asinh(2.0)) - CASE_SPLIT - inf_margin) < 1e-12


def test_concavity_chain_requires_dense_grid():
    with pytest.raises(ValueError):
        verify_concavity_chain(t_grid=10)


def _chunked_concavity_chain(t_grid: int) -> SuiteReport:
    """Reference for verify_concavity_chain: the same audit evaluated on whole
    1000 x 256 chunks, with half_collar_arc called per term.  A non-finite
    cell fails its check with margin 0.0, the first such cell in row-major
    order its witness, found by np.isfinite on every chunk."""
    rep = SuiteReport(
        "concavity-chain",
        config={"t_grid": t_grid, "alpha_grid": 1000, "t_range": [1e-4, CASE_SPLIT / 2.0], "alpha_range": [1e-3, 6.0]},
    )
    ts = np.geomspace(1e-4, CASE_SPLIT / 2.0, t_grid)
    alphas = np.geomspace(1e-3, 6.0, 1000)

    worst_second = -math.inf
    worst_pt = None
    worst_incr = math.inf
    incr_pt = None
    worst_mono = math.inf
    bad = [None, None, None]  # each check's first non-finite (row, column)
    rows = np.arange(len(alphas))
    chunk = 256
    for i in range(0, len(ts), chunk):
        t = ts[i : i + chunk][None, :]
        a = alphas[:, None]
        h = 0.01 * a
        second = half_collar_arc(a + h, t) + half_collar_arc(a - h, t) - 2.0 * half_collar_arc(a, t)
        j = int(np.argmax(second))
        if second.flat[j] > worst_second:
            worst_second = float(second.flat[j])
            jj = np.unravel_index(j, second.shape)
            worst_pt = {"alpha": float(a[jj[0], 0]), "t": float(t[0, jj[1]])}

        incr = 2.0 * half_collar_arc(a + 1.0, t) - 2.0 * half_collar_arc(a, t)
        ref = 2.0 * half_collar_arc(2.0, t) - 2.0 * half_collar_arc(1.0, t)
        small = a[:, 0] <= 1.0
        gap_small = (incr - ref)[small, :]
        j = int(np.argmin(gap_small))
        if gap_small.flat[j] < worst_incr:
            worst_incr = float(gap_small.flat[j])
            jj = np.unravel_index(j, gap_small.shape)
            incr_pt = {"alpha": float(a[small, 0][jj[0]]), "t": float(t[0, jj[1]])}
        drop = -np.diff(incr, axis=0)
        worst_mono = min(worst_mono, float(np.min(drop)))

        for k, (x, x_rows) in enumerate([(second, rows), (gap_small, rows[small]), (drop, rows[1:])]):
            cells = np.argwhere(~np.isfinite(x))  # in row-major order
            if len(cells):
                cell = (int(x_rows[cells[0][0]]), i + int(cells[0][1]))
                bad[k] = cell if bad[k] is None else min(bad[k], cell)

    results = [
        ("arc-concave-in-winding", 1e-12 - worst_second, worst_pt),
        ("unit-increment-dominates-below-1", worst_incr + 1e-12, incr_pt),
        ("increments-nonincreasing-in-winding", worst_mono + 1e-12, None),
    ]
    for (cid, margin, pt), cell in zip(results, bad):
        if cell is None:
            rep.add(cid, margin, pt)
        else:
            alpha, t = float(alphas[cell[0]]), float(ts[cell[1]])
            rep.add(cid, 0.0, {"alpha": alpha, "t": t})
            rep.notes.append(f"{cid}: non-finite value at alpha={alpha!r}, t={t!r}")

    us = 2.0 * np.cosh(0.5 * np.geomspace(1e-4, 5.0, t_grid)) ** 2
    g = 2.0 * np.arcsinh(2.0 * us) - 2.0 * np.arcsinh(us)
    inf_val = 2.0 * math.asinh(4.0) - 2.0 * math.asinh(2.0)
    rep.add("asinh-difference-increasing-in-u", float(np.min(np.diff(g[np.argsort(us)]))))
    rep.add("asinh-difference-infimum", float(np.min(g) - inf_val + 1e-12), {"u_min": float(np.min(us))})
    rep.add("infimum-above-threshold", inf_val - CASE_SPLIT)

    tab = constants()
    rep.add("gap-below-threshold", CASE_SPLIT - tab.gap)

    return rep


@pytest.mark.parametrize("t_grid", [100, 255, 256, 257, 1000, 2000])
def test_concavity_chain_matches_whole_chunk_reference(monkeypatch, t_grid):
    # the reference's chunk edges: one chunk, one column short of exactly
    # one, exactly one, one column past it, several chunks; the audit's slice
    # edges move with the worker count, and its block edges with the row block
    expected = _chunked_concavity_chain(t_grid).as_dict()
    for workers in (1, 2, 3):
        for block in (1, 7, 8):
            monkeypatch.setattr(verifier, "_workers", lambda: workers)
            monkeypatch.setattr(verifier, "_ROW_BLOCK", block)
            assert verify_concavity_chain(t_grid).as_dict() == expected, (workers, block)


@pytest.mark.parametrize("workers", [2, 3])
def test_concavity_tie_across_slices_takes_the_left_witness(monkeypatch, workers):
    ts = np.geomspace(1e-4, CASE_SPLIT / 2.0, 100)
    peaks = ts[[10, 60]]  # in different slices for 2 and for 3 workers

    def tied_arc(s, t, coshw1, out=None):
        """s^2 on the two peak columns and 0 elsewhere: in every row the
        second differences at both peaks are equal and the row's largest."""
        return np.multiply(np.square(s), np.isin(t, peaks), out=out)

    monkeypatch.setattr(verifier, "_arc", tied_arc)
    monkeypatch.setattr(verifier, "_workers", lambda: workers)
    rep = verify_concavity_chain(100)
    assert rep.checks[0].witness["t"] == peaks[0]
    assert rep.as_dict() == _chunked_concavity_chain(100).as_dict()


@pytest.mark.parametrize("workers", [2, 3])
def test_concavity_tie_on_different_rows_takes_the_earlier_row(monkeypatch, workers):
    # the grid's largest second difference is reached twice: in row r1 of a
    # right slice and in row r2 > r1 of a left one; the first in row-major
    # order is (r1, right), which a merge that prefers the leftmost slice
    # before the earlier row misses
    ts = np.geomspace(1e-4, CASE_SPLIT / 2.0, 100)
    alphas = np.geomspace(1e-3, 6.0, 1000)
    (r1, right), (r2, left) = (300, 60), (700, 10)  # columns in different slices for 2 and for 3 workers

    def tied_arc(s, t, coshw1, out=None):
        """-1 at (alphas[r1], ts[right]) and at (alphas[r2], ts[left]), 0 elsewhere."""
        def at(r, c):
            return np.isin(s, [alphas[r]]) & (t == ts[c])

        return np.negative(np.add(at(r1, right), at(r2, left), dtype=float), out=out)

    monkeypatch.setattr(verifier, "_arc", tied_arc)
    monkeypatch.setattr(verifier, "_workers", lambda: workers)
    rep = verify_concavity_chain(100)
    assert rep.checks[0].witness == {"alpha": alphas[r1], "t": ts[right]}
    assert rep.as_dict() == _chunked_concavity_chain(100).as_dict()


def test_concavity_audit_fails_on_nan_everywhere(monkeypatch):
    # a NaN never compares beyond the running extremum: each grid check
    # must fail on it, at the grid's first cell, with a finite margin
    arc = verifier._arc

    def nan_arc(s, t, coshw1, out=None):
        return np.multiply(arc(s, t, coshw1, out), math.nan, out=out)

    monkeypatch.setattr(verifier, "_arc", nan_arc)
    rep = verify_concavity_chain(100)
    failed = [c for c in rep.checks if not c.passed]
    assert [c.id for c in failed] == [c.id for c in rep.checks[:3]]
    alpha0, alpha1, t0 = 1e-3, float(np.geomspace(1e-3, 6.0, 1000)[1]), 1e-4
    assert [c.witness for c in failed] == [{"alpha": alpha0, "t": t0}] * 2 + [{"alpha": alpha1, "t": t0}]
    assert all(c.margin == 0.0 for c in failed)
    assert len(rep.notes) == 3
    assert rep.as_dict() == _chunked_concavity_chain(100).as_dict()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_concavity_audit_fails_on_one_non_finite_cell(monkeypatch, workers, value):
    # one non-finite arc value at grid cell (r, c) of an otherwise finite
    # grid: the second difference and the increment at (r, c) and the drop
    # at (r, c) and (r + 1, c) are non-finite, so all three checks fail with
    # (r, c) as witness, whichever slice and block holds it
    ts = np.geomspace(1e-4, CASE_SPLIT / 2.0, 100)
    alphas = np.geomspace(1e-3, 6.0, 1000)
    r, c = 300, 60  # alpha below 1; a right slice for 2 and for 3 workers
    arc = verifier._arc

    def arc_with_a_hole(s, t, coshw1, out=None):
        x = arc(s, t, coshw1, out)
        x[np.isin(s, [alphas[r]]) & (t == ts[c])] = value
        return x

    monkeypatch.setattr(verifier, "_arc", arc_with_a_hole)
    monkeypatch.setattr(verifier, "_workers", lambda: workers)
    rep = verify_concavity_chain(100)
    witness = {"alpha": float(alphas[r]), "t": float(ts[c])}
    assert [(ch.passed, ch.margin, ch.witness) for ch in rep.checks[:3]] == [(False, 0.0, witness)] * 3
    assert all(ch.passed for ch in rep.checks[3:])
    assert rep.as_dict() == _chunked_concavity_chain(100).as_dict()


class SliceFailure(Exception):
    pass


def test_a_failed_slice_raises(monkeypatch):
    # the last slice runs in a thread of its own; its failure must reach the
    # caller, not leave its rows of the result unfilled
    ts = np.geomspace(1e-4, CASE_SPLIT / 2.0, 100)
    arc = verifier._arc

    def failing_arc(s, t, coshw1, out=None):
        if np.ndim(s) == 2 and t[-1] == ts[-1]:
            raise SliceFailure("arc failed in the last slice")
        return arc(s, t, coshw1, out)

    monkeypatch.setattr(verifier, "_arc", failing_arc)
    monkeypatch.setattr(verifier, "_workers", lambda: 2)
    with pytest.raises(SliceFailure):
        verify_concavity_chain(100)


@pytest.mark.parametrize("workers", [2, 3])
def test_concavity_pool_leaves_no_threads(monkeypatch, workers):
    monkeypatch.setattr(verifier, "_workers", lambda: workers)
    before = threading.active_count()
    verify_concavity_chain(100)
    assert threading.active_count() == before


def test_concurrent_suites_agree():
    # the audit's buffers belong to each call: suites run at once, with a
    # short switch interval and more threads than CPUs, report the same as
    # one run alone
    expected = run_verify_suite().as_dict()
    results = [None] * 3
    threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, run_verify_suite().as_dict())) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [expected] * 3


def convex_arc(s, t, coshw1, out=None):
    """verifier._arc without the asinh: sinh(s*t)*coshw1, convex in s."""
    x = np.multiply(s, t, out=out)
    x = np.sinh(x, out=out)
    return np.multiply(x, coshw1, out=out)


def test_concavity_chain_reports_a_convex_arc(monkeypatch):
    # check (a) must fail; its worst point is the grid's last row and
    # column, which pins both indices
    monkeypatch.setattr(verifier, "_arc", convex_arc)
    rep = verify_concavity_chain(100)
    assert not rep.passed
    failed = [c for c in rep.checks if not c.passed]
    assert failed[0].id == "arc-concave-in-winding"
    assert failed[0].witness == {"alpha": 6.0, "t": 0.53}
    assert failed[0].margin < 0


def test_case1_chain_reports_a_failed_rewrite(monkeypatch):
    # without the asinh the arc term no longer equals 2*log(T + sqrt(T^2+1)):
    # the chain returns its report with the failed check instead of raising
    monkeypatch.setattr(verifier, "_arc", convex_arc)
    rep = verify_case1_chain(100)
    assert not rep.passed
    assert [c.id for c in rep.checks if not c.passed] == ["arc-term-rewrite"]


def test_case1_chain_report():
    rep = verify_case1_chain(t_grid=2000)
    assert rep.passed
    assert any("width" in note for note in rep.notes)


@pytest.mark.parametrize("t_grid", [0, 1, 99])
def test_case1_chain_requires_dense_grid(t_grid):
    with pytest.raises(ValueError):
        verify_case1_chain(t_grid=t_grid)


def test_case1_substitution_value():
    # T at unit core half-length
    T = (math.e + 1.0) ** 2 / (2.0 * math.e)
    assert abs(T - 2.5430806348152437) < 1e-12
    lhs = 2 * math.log((math.e + 1) / (math.e - 1))
    rhs = math.log(T / (T - 2))
    assert abs(lhs - rhs) < 1e-12


def test_reports_deterministic():
    a = verify_concavity_chain(t_grid=500).as_dict()
    b = verify_concavity_chain(t_grid=500).as_dict()
    assert a == b


def test_full_suite_passes():
    rep = run_verify_suite()
    assert rep.passed
    assert len(rep.checks) == 28
    assert all(c.passed == (c.margin > 0) for c in rep.checks)


def test_suite_notes_carry_their_chain_prefix():
    # a sub-suite's notes are prefixed like its check ids
    notes = run_verify_suite().notes
    assert notes
    assert all(note.startswith(("short-loop/", "long-loop/")) for note in notes)


@pytest.mark.parametrize("margin, passed", [(1e-300, True), (0.0, False), (-0.0, False), (-1e-300, False), (math.nan, False)])
def test_suite_report_passes_exactly_on_positive_margin(margin, passed):
    rep = SuiteReport("pass-rule")
    rep.add("check", margin)
    assert rep.checks[0].passed is passed
    assert rep.passed is passed


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_suite_report_fails_a_non_finite_margin_at_zero(margin):
    rep = SuiteReport("non-finite")
    rep.add("check", margin, {"t": 1.0})
    assert rep.checks == [CheckResult("check", False, 0.0, {"t": 1.0})]
    assert rep.notes == [f"check: non-finite margin {float(margin)!r}"]

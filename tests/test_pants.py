import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcross import pants
from hypcross.halfplane import mat_mul
from hypcross.pants import (
    MAX_WINDING,
    CurveClass,
    PantsBoundary,
    chebyshev_ratio,
    gamma_mn_length,
    minimize_over_moduli,
    trace_length_oracle,
    trace_polynomial,
)
from hypcross.words import GEN_MAT, enumerate_classes, word_trace

IDEAL = PantsBoundary(0.0, 0.0, 0.0)


def test_chebyshev_cusp_limit():
    for m in range(1, 8):
        assert chebyshev_ratio(m, 0.0) == float(m)


def test_chebyshev_m_equals_one():
    for l in (0.0, 0.3, 2.0, 4.0):
        assert chebyshev_ratio(1, l) == 1.0


def test_chebyshev_triple_angle():
    # sinh(3t)/sinh(t) = 3 + 4 sinh^2 t = 7 when sinh t = 1
    assert abs(chebyshev_ratio(3, 2 * math.asinh(1.0)) - 7.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.floats(min_value=1e-6, max_value=6.0))
def test_chebyshev_strictly_exceeds_m(m, l):
    assert chebyshev_ratio(m, l) > m


def test_ideal_corkscrew_length():
    assert abs(gamma_mn_length(IDEAL, CurveClass(1, 2)) - 2 * math.acosh(5.0)) < 1e-12
    assert abs(gamma_mn_length(IDEAL, CurveClass(2, 1)) - 2 * math.acosh(5.0)) < 1e-12


def test_ideal_figure_eight_length():
    assert abs(gamma_mn_length(IDEAL, CurveClass(1, 1)) - 4 * math.log(1 + math.sqrt(2))) < 1e-12


def test_length_regression_generic_pants():
    # frozen from the holonomy trace oracle on the same inputs
    got = gamma_mn_length(PantsBoundary(1.0, 1.5, 2.0), CurveClass(2, 3))
    assert abs(got - 9.044970553538548) < 1e-9


def test_trace_polynomial_nonnegative_with_the_cusp_trace_as_constant():
    # the no-cancellation premise of the oracle, on every class through length 8
    classes = enumerate_classes(8)
    assert len(classes) == 673
    for w in classes:
        poly = trace_polynomial(w)
        assert all(type(c) is int and c >= 0 for c in poly.values()), w
        assert poly[(0, 0, 0)] == abs(word_trace(w)), w


def test_trace_polynomials_survive_a_cleared_memo():
    # the memo is bounded and evicts; a rebuild from empty gives the same dicts
    classes = enumerate_classes(8)
    before = [trace_polynomial(w) for w in classes]
    pants._class_trace.cache_clear()
    assert [trace_polynomial(w) for w in classes] == before
    assert pants._class_trace.cache_info().currsize <= pants.TRACE_MEMO_SIZE


@pytest.mark.parametrize(
    "A, B",
    [((2, 1, 3, 2), (1, 1, 1, 2)), ((5, 2, 2, 1), (1, -1, 1, 0)), (GEN_MAT["a"], GEN_MAT["b"])],
    ids=["hyperbolic", "elliptic-b", "three-cusp"],
)
def test_trace_polynomial_matches_integer_matrix_traces(A, B):
    # any A, B in SL2(Z) realize x = tr A, y = tr B, z = -tr(AB^-1), so the
    # signed polynomial at the shifted traces is the word's exact trace
    A_inv, B_inv = (A[3], -A[1], -A[2], A[0]), (B[3], -B[1], -B[2], B[0])
    gens = {"a": A, "A": A_inv, "b": B, "B": B_inv}
    ab_inv = mat_mul(A, B_inv)
    u, v, s = A[0] + A[3] - 2, B[0] + B[3] - 2, -(ab_inv[0] + ab_inv[3]) - 2
    for w in enumerate_classes(6):
        m = (1, 0, 0, 1)
        for ch in w:
            m = mat_mul(m, gens[ch])
        got = sum(c * u**i * v**j * s**k for (i, j, k), c in trace_polynomial(w).items())
        assert got == (1 if word_trace(w) > 0 else -1) * (m[0] + m[3]), w


@pytest.mark.parametrize(
    "ls, m, n, expected",
    [
        ((1.0, 1.5, 2.0), 2, 3, 9.044970553538548),
        ((0.5, 0.0, 1.0), 3, 1, 5.617058257579077),
        ((1e-11, 1.0, 1.0), 1, 2, 5.157799560315721),
        ((1e-9, 2.0, 0.0), 4, 5, 14.53504740266391),
    ],
    ids=["generic", "cusp-l2", "l1-1e-11", "l1-1e-9-cusp-l3"],
)
def test_oracle_pinned_floats(ls, m, n, expected):
    # the binary64 values of the trace-polynomial oracle, generic and
    # near-cusp inputs alike; each equals gamma_mn_length here
    assert gamma_mn_length(PantsBoundary(*ls), CurveClass(m, n)) == expected
    assert trace_length_oracle(PantsBoundary(*ls), CurveClass(m, n)) == expected


def test_oracle_ideal_values():
    # A^k B has trace 2(2k+1) for the three-cusp normal form
    for k in range(1, 7):
        got = trace_length_oracle(IDEAL, CurveClass(k, 1))
        assert abs(got - 2 * math.acosh(2 * k + 1)) < 1e-12
    assert abs(trace_length_oracle(IDEAL, CurveClass(1, 2)) - 2 * math.acosh(5.0)) < 1e-12
    assert abs(trace_length_oracle(IDEAL, CurveClass(1, 1)) - 2 * math.acosh(3.0)) < 1e-12


def test_oracle_at_long_and_near_cusp_boundaries():
    # far outside verify's samples, where a product of generator matrices
    # loses digits to cancellation and a sum of positive terms does not
    for ls in ((1.0, 1.0, 100.0), (146.0, 1.0, 1.0), (1e-14, 1.0, 1.0)):
        for m, n in ((2, 3), (1, 2)):
            P, C = PantsBoundary(*ls), CurveClass(m, n)
            assert abs(trace_length_oracle(P, C) - gamma_mn_length(P, C)) < 1e-9, (ls, m, n)


def test_oracle_range():
    half = MAX_WINDING // 2
    C = CurveClass(half, MAX_WINDING - half)
    assert trace_length_oracle(IDEAL, C) == 2 * math.acosh(2 * C.m * C.n + 1)
    with pytest.raises(ValueError, match="m \\+ n <= 80"):
        trace_length_oracle(IDEAL, CurveClass(half, MAX_WINDING - half + 1))


def test_formula_oracle_equivalence_random():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(200):
        ls = rng.uniform(0, 4, 3)
        ls[rng.random(3) < 0.25] = 0.0
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        P, C = PantsBoundary(*ls), CurveClass(m, n)
        worst = max(worst, abs(gamma_mn_length(P, C) - trace_length_oracle(P, C)))
    assert worst < 1e-9


def test_symmetry_in_boundary_swap():
    P = PantsBoundary(0.8, 2.2, 1.1)
    Q = PantsBoundary(2.2, 0.8, 1.1)
    assert abs(gamma_mn_length(P, CurveClass(2, 4)) - gamma_mn_length(Q, CurveClass(4, 2))) < 1e-12


def test_monotone_in_each_argument():
    base = gamma_mn_length(PantsBoundary(1.0, 1.0, 1.0), CurveClass(2, 2))
    for bumped in ((1.2, 1.0, 1.0), (1.0, 1.2, 1.0), (1.0, 1.0, 1.2)):
        assert gamma_mn_length(PantsBoundary(*bumped), CurveClass(2, 2)) > base
    assert gamma_mn_length(PantsBoundary(1.0, 1.0, 1.0), CurveClass(3, 2)) > base
    assert gamma_mn_length(PantsBoundary(1.0, 1.0, 1.0), CurveClass(2, 3)) > base


def test_monotone_on_grids():
    grid = np.linspace(0.0, 3.0, 7)
    for m, n in ((1, 2), (3, 2)):
        for axis in range(3):
            for other in (0.0, 1.3):
                ls = [other, other, other]
                vals = []
                for g in grid:
                    ls[axis] = float(g)
                    vals.append(gamma_mn_length(PantsBoundary(*ls), CurveClass(m, n)))
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_acosh_argument_floor():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ls = rng.uniform(0, 4, 3)
        ls[rng.random(3) < 0.25] = 0.0
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        value = gamma_mn_length(PantsBoundary(*ls), CurveClass(m, n))
        assert math.cosh(value / 2) >= 2 * m * n + 1 - 1e-9


def test_minimize_small_grid():
    P, C, value = minimize_over_moduli(6, 3.0, 8)
    assert (P.l1, P.l2, P.l3) == (0.0, 0.0, 0.0)
    assert (C.m, C.n) == (1, 2)
    assert abs(value - 2 * math.acosh(5.0)) < 1e-12


@pytest.mark.parametrize("mn_cap, length_cap, grid", [(3, 1.0, 2), (4, 0.5, 3), (6, 3.0, 5), (8, 2.0, 4), (12, 0.1, 3)])
def test_minimize_matches_a_per_cell_reference(mn_cap, length_cap, grid):
    # gamma_mn_length on every cell and winding pair, least first on
    # (length, l1, l2, l3, m, n): the grid search's tie rule
    ls = np.linspace(0.0, length_cap, grid).tolist()
    pairs = [(m, n) for m in range(1, mn_cap + 1) for n in range(1, mn_cap + 1) if m + n >= 3 and m * n <= mn_cap]
    expected = min(
        (gamma_mn_length(PantsBoundary(l1, l2, l3), CurveClass(m, n)), l1, l2, l3, m, n)
        for l1 in ls
        for l2 in ls
        for l3 in ls
        for m, n in pairs
    )
    P, C, value = minimize_over_moduli(mn_cap, length_cap, grid)
    assert (P.l1, P.l2, P.l3, C.m, C.n) == expected[1:]
    assert abs(value - expected[0]) < 1e-12


@pytest.mark.parametrize("length_cap", [1e-7, 1e-320, 2000.0, 203.0])
def test_minimize_refuses_a_length_cap_outside_binary64(length_cap):
    # a step too fine to see the length grow from the cusp, or a corner cell
    # whose cosh terms overflow
    with pytest.raises(ValueError, match="must"):
        minimize_over_moduli(6, length_cap, 4)


@pytest.mark.parametrize("length_cap", [2.1e-7, 202.0])
def test_minimize_answers_just_inside_binary64(length_cap):
    P, C, value = minimize_over_moduli(6, length_cap, 4)
    assert ((P.l1, P.l2, P.l3), (C.m, C.n), value) == ((0.0, 0.0, 0.0), (1, 2), 2 * math.acosh(5.0))


def test_minimum_hypothesis_needs_m_plus_n_three():
    # with (m, n) = (1, 1) allowed, the three-cusp value drops below the bound
    assert gamma_mn_length(IDEAL, CurveClass(1, 1)) < 2 * math.acosh(5.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        PantsBoundary(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CurveClass(0, 1)
    for l in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"l must be finite and >= 0"):
            chebyshev_ratio(2, l)
    with pytest.raises(ValueError):
        minimize_over_moduli(2, 3.0, 4)

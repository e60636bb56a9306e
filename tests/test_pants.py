import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcross.halfplane import mat_inv, mat_mul
from hypcross.pants import (
    ConstructionFailure,
    CurveClass,
    PantsBoundary,
    chebyshev_ratio,
    gamma_mn_length,
    minimize_over_moduli,
    pants_holonomy,
    trace_length_oracle,
)

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


def test_ideal_holonomy_normal_form():
    A, B = pants_holonomy(IDEAL)
    assert A == (1, 2, 0, 1)
    assert B == (1, 0, 2, 1)
    ab_inv = mat_mul(A, mat_inv(B))
    assert ab_inv == (-3, 2, -2, 1)
    assert ab_inv[0] + ab_inv[3] == -2


def test_holonomy_entries_are_40_digit():
    A, B = pants_holonomy(PantsBoundary(1.0, 1.5, 2.0))
    for x in A + B:
        assert isinstance(x, mpmath.mpf)
    assert mpmath.mp.dps == 15  # the 40 digits are local to the construction
    with mpmath.workdps(40):
        assert abs(A[0] - mpmath.exp(mpmath.mpf(0.5))) < mpmath.mpf(10) ** -39


def test_holonomy_trace_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ls = rng.uniform(0, 4, 3)
        ls[rng.random(3) < 0.3] = 0.0
        A, B = pants_holonomy(PantsBoundary(*ls))
        c1, c2, c3 = (math.cosh(0.5 * l) for l in ls)
        with mpmath.workdps(40):
            ab = mat_mul(A, B)
            tr_ab = ab[0] + ab[3]
        assert abs(tr_ab - (4 * c1 * c2 + 2 * c3)) < 1e-9
        assert tr_ab > 2.0


def test_holonomy_mixed_cusp():
    A, B = pants_holonomy(PantsBoundary(2 * math.asinh(1.0), 0.0, 0.0))
    assert abs((A[0] + A[3]) - 2 * math.sqrt(2)) < 1e-12
    assert abs((B[0] + B[3]) - 2) < 1e-12


def test_holonomy_construction_failure():
    with pytest.raises(ConstructionFailure):
        pants_holonomy(PantsBoundary(1e-14, 1.0, 1.0))
    # the oracle runs the same construction, and the refusal is a ValueError
    with pytest.raises(ValueError, match="too close to the cusp limit"):
        trace_length_oracle(PantsBoundary(1e-14, 1.0, 1.0), CurveClass(1, 2))


@pytest.mark.parametrize(
    "ls, m, n, expected",
    [
        ((1.0, 1.5, 2.0), 2, 3, 9.044970553538548),
        ((0.5, 0.0, 1.0), 3, 1, 5.617058257579078),
        ((1e-11, 1.0, 1.0), 1, 2, 5.157799560315721),
        ((1e-9, 2.0, 0.0), 4, 5, 14.535047402663901),
    ],
    ids=["generic", "cusp-l2", "l1-1e-11", "l1-1e-9-cusp-l3"],
)
def test_oracle_pinned_floats(ls, m, n, expected):
    # the same binary64 values the oracle gave before its holonomy became
    # the single 40-digit construction, generic and near-cusp inputs alike
    assert trace_length_oracle(PantsBoundary(*ls), CurveClass(m, n)) == expected


def test_oracle_ideal_values():
    # A^k B has trace 2(2k+1) for the three-cusp normal form
    for k in range(1, 7):
        got = trace_length_oracle(IDEAL, CurveClass(k, 1))
        assert abs(got - 2 * math.acosh(2 * k + 1)) < 1e-12
    assert abs(trace_length_oracle(IDEAL, CurveClass(1, 2)) - 2 * math.acosh(5.0)) < 1e-12
    assert abs(trace_length_oracle(IDEAL, CurveClass(1, 1)) - 2 * math.acosh(3.0)) < 1e-12


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


def test_minimum_hypothesis_needs_m_plus_n_three():
    # with (m, n) = (1, 1) allowed, the three-cusp value drops below the bound
    assert gamma_mn_length(IDEAL, CurveClass(1, 1)) < 2 * math.acosh(5.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        PantsBoundary(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CurveClass(0, 1)
    with pytest.raises(ValueError):
        chebyshev_ratio(2, -0.5)
    with pytest.raises(ValueError):
        minimize_over_moduli(2, 3.0, 4)

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcross.halfplane import (
    NotHyperbolic,
    Point,
    dist,
    fixed_points,
    length_from_trace,
    mat_mul,
    moebius,
)
from hypcross.words import GEN_MAT, enumerate_classes, inverse_word, word_matrix, word_trace


def test_compose_identity():
    g = (5, 2, 2, 1)
    assert mat_mul((1, 0, 0, 1), g) == g
    assert mat_mul(g, (1, 0, 0, 1)) == g


def test_compose_hand_product():
    assert mat_mul(GEN_MAT["a"], GEN_MAT["b"]) == (5, 2, 2, 1)


def test_compose_inverse_is_identity():
    g = tuple(float(x) for x in word_matrix("aabAb"))
    h = mat_mul(g, tuple(float(x) for x in word_matrix(inverse_word("aabAb"))))
    assert max(abs(h[0] - 1), abs(h[1]), abs(h[2]), abs(h[3] - 1)) < 1e-12


def test_translation_length_values():
    assert abs(length_from_trace(word_trace("ab")) - 4 * math.log(1 + math.sqrt(2))) < 1e-12
    assert abs(length_from_trace(word_trace("aab")) - 2 * math.log(5 + 2 * math.sqrt(6))) < 1e-12
    assert abs(length_from_trace(6.0) - 2 * math.acosh(3.0)) < 1e-15


def test_translation_length_rejects_parabolic():
    with pytest.raises(NotHyperbolic):
        length_from_trace(word_trace("a"))
    with pytest.raises(NotHyperbolic):
        length_from_trace(2.0)


def test_point_validation():
    with pytest.raises(ValueError):
        Point(0.0, 0.0)
    with pytest.raises(ValueError):
        Point(1.0, -2.0)


def test_dist_vertical():
    assert abs(dist(Point(0, 1), Point(0, math.e)) - 1.0) < 1e-12


def test_dist_horocycle_chord():
    # cosh d = 1 + 16/2 = 9
    assert abs(dist(Point(-2, 1), Point(2, 1)) - math.acosh(9.0)) < 1e-12
    assert abs(math.acosh(9.0) - 2 * math.log(2 + math.sqrt(5))) < 1e-12


def test_dist_coincident():
    p = Point(0.37, 2.2)
    assert dist(p, p) == 0.0


def test_dist_where_the_height_product_underflows():
    # y1 * y2 = 1e-390 is 0 in binary64; the distance is log(y2 / y1)
    assert abs(dist(Point(0, 1e-200), Point(0, 1e-190)) - 10 * math.log(10)) < 1e-12


points = st.builds(
    Point,
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=0.05, max_value=5, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(points, points, points)
def test_dist_triangle_inequality(p, q, r):
    assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-12


@settings(max_examples=200, deadline=None)
@given(points, points)
def test_dist_symmetric_nonnegative(p, q):
    assert dist(p, q) >= 0.0
    assert abs(dist(p, q) - dist(q, p)) < 1e-12


def test_axis_quadratic_roots():
    lo, hi = sorted(fixed_points((5, 2, 2, 1)))
    assert abs(lo - (1 - math.sqrt(2))) < 1e-12
    assert abs(hi - (1 + math.sqrt(2))) < 1e-12
    lo, hi = sorted(fixed_points((9, 4, 2, 1)))
    assert abs(lo - (2 - math.sqrt(6))) < 1e-12
    assert abs(hi - (2 + math.sqrt(6))) < 1e-12


words = st.text(alphabet="aAbB", min_size=1, max_size=6)


def _conjugate(h, g):
    a, b, c, d = h
    return mat_mul(mat_mul(h, g), (d, -b, -c, a))


@settings(max_examples=100, deadline=None)
@given(words)
def test_conjugation_invariance(w):
    g = (9, 4, 2, 1)
    conj = _conjugate(word_matrix(w), g)
    assert abs(length_from_trace(conj[0] + conj[3]) - length_from_trace(g[0] + g[3])) < 1e-10


@settings(max_examples=100, deadline=None)
@given(words)
def test_axis_equivariance(w):
    # h moves the axis of g onto the axis of h g h^-1; the endpoints of g are
    # 2 -/+ sqrt 6, irrational, so no integer h has either as its pole
    g = (9, 4, 2, 1)
    h = word_matrix(w)
    moved = sorted(moebius(h, x) for x in fixed_points(g))
    got = sorted(fixed_points(tuple(float(x) for x in _conjugate(h, g))))
    assert abs(got[0] - moved[0]) < 1e-9
    assert abs(got[1] - moved[1]) < 1e-9


@pytest.mark.parametrize("n", range(1, 11))
def test_power_scaling(n):
    g = (5, 2, 2, 1)
    gn = (1, 0, 0, 1)
    for _ in range(n):
        gn = mat_mul(gn, g)
    assert abs(length_from_trace(gn[0] + gn[3]) - n * length_from_trace(g[0] + g[3])) < 1e-9


# ------------------------------------------------------------ 2x2 kernel


def test_kernel_int_products_stay_exact():
    # tr((ab)^k) obeys t_{k+1} = 6 t_k - t_{k-1} from t_0 = 2, t_1 = tr(ab) = 6
    t_prev, t = 2, 6
    for _ in range(29):
        t_prev, t = t, 6 * t - t_prev
    assert t > 2**53  # beyond float64's exact integers
    m = word_matrix("ab" * 30)
    assert all(type(x) is int for x in m)
    assert m[0] * m[3] - m[1] * m[2] == 1
    assert word_trace("ab" * 30) == t


def test_kernel_inverse_and_power():
    g = word_matrix("ab")
    assert g == (5, 2, 2, 1)
    assert mat_mul(g, word_matrix(inverse_word("ab"))) == (1, 0, 0, 1)
    assert word_matrix(inverse_word("ab")) == (1, -2, -2, 5)
    assert word_matrix("aaaaa") == (1, 10, 0, 1)
    assert word_matrix("AAA") == word_matrix(inverse_word("aaa")) == (1, -6, 0, 1)


def test_kernel_moebius_on_int_entries_and_interior_points():
    assert moebius((5, 2, 2, 1), 1) == 7 / 3
    assert moebius(GEN_MAT["a"], 0.25 + 1j) == 2.25 + 1j
    z = moebius((5.0, 2.0, 2.0, 1.0), 1j)
    assert abs(z - (12 + 1j) / 5) < 1e-15


def test_fixed_points_match_axis_of_for_every_short_class():
    classes = enumerate_classes(6)
    assert len(classes) > 100
    for w in classes:
        m = tuple(float(x) for x in word_matrix(w))
        m_inv = tuple(float(x) for x in word_matrix(inverse_word(w)))
        roots = fixed_points(m)
        # at its repelling root m magnifies rounding by up to tr^2, so each
        # root is checked against whichever of m, m^-1 attracts there
        for r in roots:
            residual = min(abs(moebius(m, r) - r), abs(moebius(m_inv, r) - r))
            assert residual <= 1e-12 * abs(r), w


def test_axes_cross_conjugate_branch():
    # the branch of the figure-eight ab conjugated by u = abA crosses its
    # axis: exactly one endpoint of u ab u^-1 lies between those of ab
    lo, hi = sorted(fixed_points(word_matrix("ab")))
    conj = fixed_points(word_matrix("abA" + "ab" + "aBA"))
    assert sum(lo < x < hi for x in conj) == 1


# ------------------------------------------------------ the Point record


@pytest.mark.parametrize(
    "make",
    [
        lambda: Point(0.0, math.nan),
        lambda: Point(math.inf, 1.0),
        lambda: Point(-math.inf, 1.0),
        lambda: Point(math.nan, 1.0),
        lambda: Point(0.0, math.inf),
        lambda: Point(0.0, -0.0),
        lambda: Point(0.0, -math.inf),
    ],
)
def test_records_reject_invalid_arguments(make):
    with pytest.raises(ValueError):
        make()


# a field is read-only, and with empty __slots__ no other attribute attaches
@pytest.mark.parametrize(
    "record, field",
    [(Point(0.37, 2.2), "a"), (Point(0.37, 2.2), "y"), (Point(0.37, 2.2), "p"), (Point(0.37, 2.2), "z")],
)
def test_records_reject_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)


def test_record_repr_and_tuple_semantics():
    assert repr(Point(0.37, 2.2)) == "Point(x=0.37, y=2.2)"
    assert Point(0, 1) == (0, 1)
    assert list(Point(0, 1)) == [0, 1]


def test_isometry_is_a_kernel_tuple():
    g, h = (5, 2, 2, 1), (9, 4, 2, 1)
    assert mat_mul(g, h) == (49, 22, 20, 9)
    assert moebius(g, 0.5) == 2.25

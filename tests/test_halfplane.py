import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcross.halfplane import (
    IDENTITY,
    INFINITY,
    Axis,
    Isometry,
    NotHyperbolic,
    Point,
    SharedEndpoint,
    apply_axis,
    apply_boundary,
    axes_cross,
    axis_of,
    compose,
    dist,
    fixed_points,
    length_from_trace,
    mat_inv,
    mat_mul,
    moebius,
    moebius_point,
    translation_length,
)
from hypcross.words import GEN_MAT, enumerate_classes, word_matrix, word_trace

A_GEN = Isometry(1, 2, 0, 1)
B_GEN = Isometry(1, 0, 2, 1)


def test_compose_identity():
    g = Isometry(5, 2, 2, 1)
    assert compose(IDENTITY, g) == g
    assert compose(g, IDENTITY) == g


def test_compose_hand_product():
    g = compose(A_GEN, B_GEN)
    assert (g.a, g.b, g.c, g.d) == (5, 2, 2, 1)


def test_compose_inverse_is_identity():
    g = Isometry(5, 2, 2, 1)
    h = compose(g, g.inverse())
    assert max(abs(h.a - 1), abs(h.b), abs(h.c), abs(h.d - 1)) < 1e-12


def test_determinant_renormalization():
    g = Isometry(2 * 5.0, 2 * 2.0, 2 * 2.0, 2 * 1.0)  # det 4
    assert abs(g.a * g.d - g.b * g.c - 1.0) < 1e-12
    assert abs(g.a - 5.0) < 1e-12


def test_nonpositive_determinant_rejected():
    with pytest.raises(ValueError):
        Isometry(1, 0, 0, -1)


def test_classification():
    assert A_GEN.classify() == "parabolic"
    assert Isometry(5, 2, 2, 1).classify() == "hyperbolic"
    assert Isometry(math.cos(0.3), -math.sin(0.3), math.sin(0.3), math.cos(0.3)).classify() == "elliptic"


def test_translation_length_values():
    assert abs(translation_length(Isometry(5, 2, 2, 1)) - 4 * math.log(1 + math.sqrt(2))) < 1e-12
    assert abs(translation_length(Isometry(9, 4, 2, 1)) - 2 * math.log(5 + 2 * math.sqrt(6))) < 1e-12
    assert abs(length_from_trace(6.0) - 2 * math.acosh(3.0)) < 1e-15


def test_translation_length_rejects_parabolic():
    with pytest.raises(NotHyperbolic):
        translation_length(A_GEN)
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


def test_axis_diagonal():
    ax = axis_of(Isometry(math.e, 0, 0, 1 / math.e))
    assert ax == Axis(0.0, INFINITY)


def test_axis_quadratic_roots():
    ax = axis_of(Isometry(5, 2, 2, 1))
    assert abs(ax.p - (1 - math.sqrt(2))) < 1e-12
    assert abs(ax.q - (1 + math.sqrt(2))) < 1e-12
    ax = axis_of(Isometry(9, 4, 2, 1))
    assert abs(ax.p - (2 - math.sqrt(6))) < 1e-12
    assert abs(ax.q - (2 + math.sqrt(6))) < 1e-12


def test_axis_requires_hyperbolic():
    with pytest.raises(NotHyperbolic):
        axis_of(A_GEN)


def test_axes_cross_separation():
    assert axes_cross(Axis(0, INFINITY), Axis(-1, 1)) is True
    assert axes_cross(Axis(0, INFINITY), Axis(1, 2)) is False


def test_axes_cross_shared_endpoint():
    with pytest.raises(SharedEndpoint):
        axes_cross(Axis(0, INFINITY), Axis(0, 1))


def test_axes_cross_conjugate_branch():
    # the branch of the figure-eight conjugated by a*b*a^-1 crosses its axis
    g = compose(A_GEN, B_GEN)
    u = compose(compose(A_GEN, B_GEN), A_GEN.inverse())
    h = compose(compose(u, g), u.inverse())
    assert axes_cross(axis_of(h), axis_of(g)) is True


words = st.lists(st.sampled_from([A_GEN, A_GEN.inverse(), B_GEN, B_GEN.inverse()]), min_size=1, max_size=6)


def _word_mat(letters):
    out = IDENTITY
    for m in letters:
        out = compose(out, m)
    return out


@settings(max_examples=100, deadline=None)
@given(words)
def test_conjugation_invariance(letters):
    g = Isometry(9, 4, 2, 1)
    h = _word_mat(letters)
    conj = compose(compose(h, g), h.inverse())
    assert abs(translation_length(conj) - translation_length(g)) < 1e-10


@settings(max_examples=100, deadline=None)
@given(words)
def test_axis_equivariance(letters):
    g = Isometry(9, 4, 2, 1)
    h = _word_mat(letters)
    conj = compose(compose(h, g), h.inverse())
    moved = apply_axis(h, axis_of(g))
    got = axis_of(conj)
    if got.q == INFINITY or moved.q == INFINITY:
        assert got.q == moved.q
        assert abs(got.p - moved.p) < 1e-9
    else:
        assert abs(got.p - moved.p) < 1e-9
        assert abs(got.q - moved.q) < 1e-9


@pytest.mark.parametrize("n", range(1, 11))
def test_power_scaling(n):
    g = Isometry(5, 2, 2, 1)
    gn = IDENTITY
    for _ in range(n):
        gn = compose(gn, g)
    assert abs(translation_length(gn) - n * translation_length(g)) < 1e-9


def test_apply_boundary_infinity_handling():
    assert apply_boundary(A_GEN, INFINITY) == INFINITY
    assert apply_boundary(B_GEN, INFINITY) == 0.5
    assert apply_boundary(B_GEN, -0.5) == INFINITY


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
    g = (5, 2, 2, 1)
    assert mat_mul(g, mat_inv(g)) == (1, 0, 0, 1)
    assert mat_inv(mat_inv(g)) == g
    assert word_matrix("aaaaa") == (1, 10, 0, 1)
    assert word_matrix("AAA") == mat_inv(word_matrix("aaa")) == (1, -6, 0, 1)


def test_kernel_moebius_on_int_entries_and_interior_points():
    assert moebius((5, 2, 2, 1), 1) == 7 / 3
    assert moebius_point(GEN_MAT["a"], 0.25 + 1j) == 2.25 + 1j
    z = moebius_point((5.0, 2.0, 2.0, 1.0), 1j)
    assert abs(z - (12 + 1j) / 5) < 1e-15


def test_fixed_points_match_axis_of_for_every_short_class():
    classes = enumerate_classes(6)
    assert len(classes) > 100
    for w in classes:
        m = tuple(float(x) for x in word_matrix(w))
        roots = fixed_points(m)
        ax = axis_of(Isometry(*m))
        assert tuple(sorted(roots)) == (ax.p, ax.q), w
        # at its repelling root m magnifies rounding by up to tr^2, so each
        # root is checked against whichever of m, m^-1 attracts there
        for r in roots:
            residual = min(abs(moebius(m, r) - r), abs(moebius(mat_inv(m), r) - r))
            assert residual <= 1e-12 * abs(r), w


# --------------------------------------------- the named-tuple records


@pytest.mark.parametrize(
    "make",
    [
        lambda: Isometry(0, 0, 0, 0),
        lambda: Isometry(math.nan, 0, 0, 1),
        lambda: Isometry(math.inf, 0, 0, 1),
        lambda: Point(math.nan, 1.0),
        lambda: Point(0.0, math.inf),
        lambda: Axis(1.5, 1.5),
        lambda: Axis(INFINITY, INFINITY),
    ],
)
def test_records_reject_invalid_arguments(make):
    with pytest.raises(ValueError):
        make()


def test_isometry_renormalization_floats():
    # det 2: every entry divided by sqrt(2)
    assert tuple(Isometry(3, 1, 1, 1)) == (2.1213203435596424, 0.7071067811865475, 0.7071067811865475, 0.7071067811865475)
    # drift 1e-9 > DET_TOL is renormalized; 1e-13 < DET_TOL is kept as given
    assert tuple(Isometry(1 + 1e-9, 0.5, 0, 1)) == (1.0000000005, 0.49999999975, 0.0, 0.9999999995)
    assert tuple(Isometry(1 + 1e-13, 0, 0, 1)) == (1.0000000000001, 0, 0, 1)
    assert tuple(Isometry(9, 4, 2, 1)) == (9, 4, 2, 1)  # ints stay ints at det 1


def test_axis_endpoint_order():
    assert tuple(Axis(2, -1)) == (-1, 2)
    assert tuple(Axis(INFINITY, 3)) == (3, INFINITY)
    assert Axis(2, -1) == Axis(-1, 2)


@pytest.mark.parametrize(
    "record, field",
    [(Isometry(5, 2, 2, 1), "a"), (Point(0.37, 2.2), "y"), (Axis(-1, 1), "p"), (Point(0.37, 2.2), "z")],
)
def test_records_reject_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)


def test_record_repr_and_tuple_semantics():
    assert repr(Point(0.37, 2.2)) == "Point(x=0.37, y=2.2)"
    assert repr(Axis(INFINITY, 3)) == "Axis(p=3, q=inf)"
    assert repr(Isometry(9, 4, 2, 1)) == "Isometry(a=9, b=4, c=2, d=1)"
    assert Point(0, 1) == (0, 1)
    assert list(Point(0, 1)) == [0, 1]
    assert hash(Axis(1, -1)) == hash((-1, 1))


def test_isometry_is_a_kernel_tuple():
    g, h = Isometry(5, 2, 2, 1), Isometry(9, 4, 2, 1)
    assert mat_mul(g, h) == tuple(compose(g, h)) == (49, 22, 20, 9)
    assert mat_inv(g) == tuple(g.inverse())
    assert moebius(g, 0.5) == apply_boundary(g, 0.5) == 2.25
    assert moebius(g, INFINITY) == apply_boundary(g, INFINITY) == 2.5
    assert tuple(sorted(fixed_points(h))) == tuple(axis_of(h))

"""Tests for normed bilinear pairings and their four sign types."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from normed_forms import (
    PLUS_VARIANT_TYPES,
    TYPE_MM,
    TYPE_MP,
    TYPE_PM,
    TYPE_PP,
    DegenerateFormError,
    Form,
    Pairing,
    PlusParams,
    Quadruple,
    derive_form_minus_minus,
    is_normed,
    make_minus_minus,
    make_plus,
    quadruple_of,
    type_of,
)
from normed_forms.forms import Mat2
from normed_forms.pairings import left_map_det, right_map_det


# Oracles: the minus-minus pairing built from its operator matrices, and the
# inverse of Pairing.operator_matrices, for make_minus_minus and quadruple_of.
def from_operator_matrices(m1: Mat2, m2: Mat2) -> Pairing:
    """Inverse of Pairing.operator_matrices (the regrouping is an involution)."""
    return Pairing((m1[0], m2[0]), (m1[1], m2[1]))


def from_commutative_traceless(quad: Quadruple) -> Pairing:
    """Build the unique commutative traceless pairing with operator matrices
    M1 = ((a, c), (-d, -a)), M2 = ((c, b), (-a, -c)).

    Coincides with make_minus_minus(quad)[0]; every commutative traceless
    pairing arises this way for exactly one quadruple.
    """
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    return from_operator_matrices(((a, c), (-d, -a)), ((c, b), (-a, -c)))


entry = st.integers(min_value=-9, max_value=9)
params_st = st.builds(PlusParams, entry, entry, entry, entry, entry)
quad_st = st.builds(Quadruple, entry, entry, entry, entry)
vec = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


def test_type_rendering():
    """Types print as sign pairs."""
    assert str(TYPE_PP) == "(+,+)"
    assert str(TYPE_MP) == "(-,+)"
    assert str(TYPE_PM) == "(+,-)"
    assert str(TYPE_MM) == "(-,-)"
    assert PLUS_VARIANT_TYPES == {1: TYPE_PP, 2: TYPE_MP, 3: TYPE_PM}


def test_pairing_evaluation():
    """s(x, y) = (x A1 y, x A2 y) componentwise."""
    s = Pairing(((1, 0), (0, -5)), ((0, 1), (1, 0)))
    assert s((1, 2), (3, 4)) == (1 * 3 - 5 * 2 * 4, 1 * 4 + 2 * 3)


def test_make_plus_brahmagupta():
    """(x1 y1 - 5 x2 y2, x1 y2 + x2 y1) arises from variant 1 at (1, 0)."""
    s, f = make_plus(1, PlusParams(1, 0, 5, 1, 0))
    assert s.a1 == ((1, 0), (0, -5))
    assert s.a2 == ((0, 1), (1, 0))
    assert f == Form(1, 0, 5)


def test_make_plus_scales_by_represented_value():
    """The normed form is r * g with r = g(p, q)."""
    params = PlusParams(2, 1, 3, -1, 0)
    assert params.r == 2
    assert params.base_form() == Form(2, 1, 3)
    for variant in (1, 2, 3):
        _, f = make_plus(variant, params)
        assert f == Form(4, 2, 6)


def test_make_plus_rejects_bad_variant():
    """Only variants 1, 2, 3 exist."""
    with pytest.raises(ValueError):
        make_plus(4, PlusParams(1, 0, 1, 1, 0))


@given(st.sampled_from([1, 2, 3]), params_st)
def test_make_plus_is_normed_with_declared_type(variant, params):
    """Every plus constructor output is normed; nondegenerate ones are typed."""
    s, f = make_plus(variant, params)
    assert is_normed(s, f)
    if f.discriminant() != 0:
        assert type_of(s, f) == PLUS_VARIANT_TYPES[variant]


def test_make_minus_minus_witness():
    """The quadruple (1,-2,-1,1) realizes 2x^2 + xy + 3y^2."""
    quad = Quadruple(1, -2, -1, 1)
    s, f = make_minus_minus(quad)
    assert s.a1 == ((1, -1), (-1, -2))
    assert s.a2 == ((-1, -1), (-1, 1))
    assert f == Form(2, 1, 3)
    assert quad.form() == f
    assert is_normed(s, f)
    assert type_of(s, f) == TYPE_MM
    assert s.is_commutative()
    assert s.is_traceless()


@given(quad_st)
def test_make_minus_minus_is_normed(quad):
    """Minus-minus outputs are normed; nondegenerate ones have type (-,-)."""
    s, f = make_minus_minus(quad)
    assert f == Form(
        quad.a**2 - quad.c * quad.d,
        quad.a * quad.c - quad.b * quad.d,
        quad.c**2 - quad.a * quad.b,
    )
    assert is_normed(s, f)
    assert s.is_commutative() and s.is_traceless()
    if f.discriminant() != 0:
        assert type_of(s, f) == TYPE_MM


@given(quad_st)
def test_quadruple_roundtrip(quad):
    """quadruple_of inverts make_minus_minus, which matches the oracle."""
    s, _ = make_minus_minus(quad)
    assert from_commutative_traceless(quad) == s
    assert quadruple_of(s) == quad


def test_quadruple_of_rejects_noncommutative():
    """Only commutative traceless pairings carry a quadruple."""
    s, _ = make_plus(1, PlusParams(2, 1, 3, 1, 0))
    assert not (s.is_commutative() and s.is_traceless())
    with pytest.raises(ValueError):
        quadruple_of(s)


def test_operator_matrix_roundtrip():
    """A pairing is recoverable from its two operator matrices."""
    s, _ = make_minus_minus(Quadruple(2, 0, 1, -3))
    m1, m2 = s.operator_matrices()
    assert from_operator_matrices(m1, m2) == s


def test_derive_form_minus_minus():
    """Double application recovers the quadruple form."""
    quad = Quadruple(1, -2, -1, 1)
    s, f = make_minus_minus(quad)
    assert derive_form_minus_minus(s) == f


def test_derive_form_rejects_plus_pairings():
    """Plus-family pairings fail the scalar double-application test."""
    s, _ = make_plus(1, PlusParams(2, 1, 3, 1, 0))
    with pytest.raises(ValueError):
        derive_form_minus_minus(s)


def test_is_normed_rejects_wrong_form():
    """Brahmagupta multiplication is not normed for x^2 + 2y^2."""
    s, _ = make_plus(1, PlusParams(1, 0, 1, 1, 0))
    assert is_normed(s, Form(1, 0, 1))
    assert not is_normed(s, Form(1, 0, 2))


def test_type_of_rejects_degenerate_form():
    """Types are only defined against nondegenerate forms."""
    s, _ = make_plus(1, PlusParams(1, 0, 0, 1, 0))
    with pytest.raises(DegenerateFormError):
        type_of(s, Form(1, 0, 0))


def test_type_of_rejects_non_normed_pairing():
    """A determinant polynomial differing from +/- f raises."""
    s = Pairing(((1, 0), (0, 0)), ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        type_of(s, Form(1, 0, 1))


@given(st.sampled_from([1, 2, 3]), params_st, vec)
@settings(max_examples=60)
def test_determinant_signs_match_type(variant, params, v):
    """det of the one-sided maps is eps1 f resp. eps2 f."""
    s, f = make_plus(variant, params)
    eps1, eps2 = PLUS_VARIANT_TYPES[variant].eps1, PLUS_VARIANT_TYPES[variant].eps2
    assert left_map_det(s, v) == eps1 * f(v)
    assert right_map_det(s, v) == eps2 * f(v)


@given(quad_st, vec)
@settings(max_examples=60)
def test_minus_minus_determinants_negate_form(quad, v):
    """Both one-sided determinants of a minus-minus pairing equal -f."""
    s, f = make_minus_minus(quad)
    assert left_map_det(s, v) == -f(v)
    assert right_map_det(s, v) == -f(v)


@given(entry, entry, entry, entry, entry, entry, entry, entry, vec, vec, vec)
@settings(max_examples=60)
def test_pairing_is_bilinear(a, b, c, d, e, f, g, h, x, y, z):
    """s(x + z, y) = s(x, y) + s(z, y) and the symmetric law."""
    s = Pairing(((a, b), (c, d)), ((e, f), (g, h)))
    xz = (x[0] + z[0], x[1] + z[1])
    left = s(xz, y)
    sx, sz = s(x, y), s(z, y)
    assert left == (sx[0] + sz[0], sx[1] + sz[1])
    yz = (y[0] + z[0], y[1] + z[1])
    right = s(x, yz)
    sy, sz2 = s(x, y), s(x, z)
    assert right == (sy[0] + sz2[0], sy[1] + sz2[1])


@given(st.sampled_from([1, 2, 3]), params_st, vec, vec)
@settings(max_examples=60)
def test_normed_identity_pointwise(variant, params, x, y):
    """f(s(x, y)) = f(x) f(y) on sampled points, beyond the deciding points."""
    s, f = make_plus(variant, params)
    assert f(s(x, y)) == f(x) * f(y)

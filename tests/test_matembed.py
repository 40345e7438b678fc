"""Tests for matrix pairings and planes spanned by a matrix and the scalars."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from normed_forms import (
    PLUS_VARIANT_TYPES,
    TYPE_MM,
    Form,
    PlusParams,
    Quadruple,
    Sublattice,
    adjugate,
    canonicalize,
    check_stability,
    induced_pairing,
    is_normed,
    matrix_pair,
    type_of,
)
from normed_forms.matembed import mat_det, mat_mul, mat_trace

entry = st.integers(min_value=-9, max_value=9)
mat = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry))


def nonscalar(a):
    return a[0][1] != 0 or a[1][0] != 0 or a[0][0] != a[1][1]


def test_adjugate_example():
    """adj swaps the diagonal and negates the off-diagonal."""
    assert adjugate(((1, 2), (3, 4))) == ((4, -2), (-3, 1))


@given(mat)
def test_adjugate_multiplies_to_determinant(a):
    """A adj(A) = det(A) E."""
    d = mat_det(a)
    assert mat_mul(a, adjugate(a)) == ((d, 0), (0, d))
    assert mat_mul(adjugate(a), a) == ((d, 0), (0, d))


def test_matrix_pair_values():
    """The four products on a fixed matrix pair."""
    x = ((1, 2), (3, 4))
    y = ((0, 1), (-1, 2))
    assert matrix_pair(1, x, y) == mat_mul(x, y)
    assert matrix_pair(2, x, y) == mat_mul(adjugate(x), y)
    assert matrix_pair(3, x, y) == mat_mul(x, adjugate(y))
    assert matrix_pair(4, x, y) == adjugate(mat_mul(x, y))
    with pytest.raises(ValueError):
        matrix_pair(5, x, y)


@given(st.sampled_from([1, 2, 3, 4]), mat, mat)
def test_matrix_pair_determinant_multiplicative(k, x, y):
    """det of every product equals det(x) det(y)."""
    assert mat_det(matrix_pair(k, x, y)) == mat_det(x) * mat_det(y)


def test_sublattice_basics():
    """Membership, coordinates and the plane's determinant form."""
    sub = Sublattice(((1, 2), (3, 4)), 2)
    assert sub.phi((1, 1)) == ((3, 2), (3, 6))
    assert sub.contains(((3, 2), (3, 6)))
    assert not sub.contains(((2, 2), (3, 5)))
    # det(v1 A + v2 r E) as a form in (v1, v2)
    assert sub.det_form() == Form(-2, 10, 4)


def test_sublattice_rejects_degenerate_spans():
    """A scalar matrix or r <= 0 does not span a plane."""
    with pytest.raises(ValueError):
        Sublattice(((1, 0), (0, 1)), 2)
    with pytest.raises(ValueError):
        Sublattice(((1, 2), (3, 4)), 0)


@given(mat.filter(nonscalar), st.integers(1, 9), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=80)
def test_sublattice_membership_of_span(a, r, v1, v2):
    """Every integer combination of the generators is contained."""
    sub = Sublattice(a, r)
    w = sub.phi((v1, v2))
    assert sub.contains(w)
    assert sub.coordinates(w) == (v1, v2)


def test_stability_thresholds():
    """Divisibility of det resp. tr^2 - det by r governs stability."""
    sub = Sublattice(((1, 2), (3, 4)), 2)  # det -2, tr 5
    assert [check_stability(sub, k) for k in (1, 2, 3, 4)] == [True, True, True, False]
    sub3 = Sublattice(((1, 2), (3, 4)), 3)  # tr^2 - det = 27
    assert check_stability(sub3, 4)
    assert not check_stability(sub3, 1)


@given(mat.filter(nonscalar), st.integers(1, 12))
@settings(max_examples=120)
def test_stability_matches_divisibility(a, r):
    """Stability under the four products reduces to two divisibilities."""
    sub = Sublattice(a, r)
    det, tr = mat_det(a), mat_trace(a)
    expected_low = det % r == 0
    expected_four = (tr * tr - det) % r == 0
    for k in (1, 2, 3):
        assert check_stability(sub, k) == expected_low
    assert check_stability(sub, 4) == expected_four


def test_canonicalize_examples():
    """Recombined generators canonicalize to the same plane."""
    a = ((1, 2), (3, 4))
    want = Sublattice(a, 2)
    g1 = ((3, 2), (3, 6))  # A + 2E
    g2 = ((4, 4), (6, 10))  # 2A + 2E
    assert canonicalize(g1, g2, 1) == want
    assert canonicalize(((-1, -2), (-3, -4)), ((2, 0), (0, 2)), 1) == want
    assert canonicalize(((5, 2), (3, 8)), ((2, 0), (0, 2)), 1) == want


def test_canonicalize_rejects_degenerate_input():
    """Scalar-only or dependent generators are not a plane."""
    with pytest.raises(ValueError):
        canonicalize(((1, 0), (0, 1)), ((2, 0), (0, 2)), 1)
    with pytest.raises(ValueError):
        canonicalize(((1, 2), (3, 4)), ((2, 4), (6, 8)), 1)


def test_canonicalize_rejects_unstable_plane():
    """A plane not closed under the requested product is refused."""
    with pytest.raises(ValueError):
        canonicalize(((1, 2), (3, 4)), ((3, 0), (0, 3)), 1)  # 3 does not divide -2


@given(mat.filter(nonscalar), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=80)
def test_canonicalize_is_basis_independent(a, c1, c2):
    """Any basis of the same plane canonicalizes identically."""
    det = mat_det(a)
    if det == 0:
        return
    r = abs(det)  # r | det, so the plane is stable under the plain product
    sub = Sublattice(a, r)
    baseline = canonicalize(a, ((r, 0), (0, r)), 1)
    g1 = sub.phi((1, c1))
    g2 = sub.phi((c2, 1 + c1 * c2))  # determinant-one recombination
    assert canonicalize(g1, g2, 1) == baseline


def test_induced_pairing_low_products():
    """k <= 3 give plus-family pairings on the plane's coordinates."""
    sub = Sublattice(((1, 2), (3, 4)), 2)
    for k in (1, 2, 3):
        pairing, form, params = induced_pairing(sub, k)
        assert form == sub.det_form() == Form(-2, 10, 4)
        assert params == PlusParams(-1, 5, 2, 0, 1)
        assert is_normed(pairing, form)
        assert type_of(pairing, form) == PLUS_VARIANT_TYPES[k]


def test_induced_pairing_adjugate_product():
    """k = 4 gives a minus-minus pairing with the matching quadruple."""
    sub = Sublattice(((1, 2), (3, 4)), 3)
    pairing, form, quad = induced_pairing(sub, 4)
    assert quad == Quadruple(-5, 0, -3, -9)
    assert form == quad.form() == Form(-2, 15, 9)
    assert is_normed(pairing, form)
    assert type_of(pairing, form) == TYPE_MM


def test_induced_pairing_requires_stability():
    """An unstable plane has no induced pairing."""
    sub = Sublattice(((1, 2), (3, 4)), 2)
    with pytest.raises(ValueError, match="not stable under the requested pairing"):
        induced_pairing(sub, 4)


@given(mat.filter(nonscalar), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=150)
def test_induced_pairing_represents_product(a, k):
    """Coordinates of the matrix product realize the induced pairing."""
    tr, det = mat_trace(a), mat_det(a)
    r = abs(det) if k <= 3 else abs(tr * tr - det)
    if r == 0:
        return
    sub = Sublattice(a, r)
    pairing, form, _ = induced_pairing(sub, k)
    assert is_normed(pairing, form)
    for v in ((1, 0), (0, 1), (1, 1), (2, -1)):
        for w in ((1, 0), (0, 1), (1, -2)):
            prod = matrix_pair(k, sub.phi(v), sub.phi(w))
            assert sub.contains(prod)
            assert sub.coordinates(prod) == pairing(v, w)

"""Tests for the shared exact helpers in forms and Pairing.from_bilinear."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from normed_forms import Pairing
from normed_forms.forms import exact_sqrt, ext_gcd, hnf_rows, is_scalar

ints = st.integers(-10**6, 10**6)
small = st.integers(-20, 20)
mat2 = st.tuples(st.tuples(small, small), st.tuples(small, small))


def complete_unimodular(w1, w2):
    """Oracle: the extended gcd on (w2, -w1) that canonicalize once ran inline."""
    old_r, r = w2, -w1
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
        old_r = -old_r
    if old_r != 1:
        raise ValueError("direction vector is not primitive")
    return old_s, old_t


@given(ints, ints)
def test_ext_gcd_bezout(a, b):
    g, s, t = ext_gcd(a, b)
    assert g >= 0
    assert s * a + t * b == g
    if a or b:
        assert a % g == 0 and b % g == 0
    else:
        assert g == 0


@given(ints, ints)
def test_ext_gcd_matches_old_unimodular_completion(w1, w2):
    g, u1, u2 = ext_gcd(w2, -w1)
    if g != 1:
        with pytest.raises(ValueError):
            complete_unimodular(w1, w2)
        return
    assert (u1, u2) == complete_unimodular(w1, w2)
    assert u1 * w2 - u2 * w1 == 1


def in_span(v, basis):
    """Whether v is an integer combination of two independent rows (Cramer)."""
    (p, q), (u, w) = basis
    det = p * w - q * u
    return (v[0] * w - v[1] * u) % det == 0 and (p * v[1] - q * v[0]) % det == 0


@settings(max_examples=300)
@given(st.lists(st.tuples(small, small), max_size=5))
def test_hnf_rows_is_a_basis_of_the_span(rows):
    """(r, 0), (a, b) is the Hermite basis of the rows' span; rank < 2 raises."""
    # the gcd of the 2x2 minors is the covolume of the rows' lattice L (0 if rank < 2)
    covolume = 0
    for v in rows:
        for w in rows:
            covolume = gcd(covolume, v[0] * w[1] - v[1] * w[0])
    if covolume == 0:
        with pytest.raises(ValueError):
            hnf_rows(rows)
        return
    r, a, b = hnf_rows(rows)
    assert 0 <= a < r and b > 0
    # every row lies in H = span((r, 0), (a, b)), so L is a sublattice of H, of
    # index covolume / (r b); index 1 puts (r, 0) and (a, b) in L as well
    assert all(in_span(v, ((r, 0), (a, b))) for v in rows)
    assert covolume == r * b


def test_hnf_rows_fixed_values():
    assert hnf_rows([(2, 0), (0, 2), (1, 1)]) == (2, 1, 1)
    assert hnf_rows([(3, -6), (-1, 4)]) == (3, 1, 2)
    assert hnf_rows([(5, 0), (7, -1)]) == (5, 3, 1)
    for vs in ([], [(1, 2)], [(1, 2), (2, 4)], [(0, 0), (3, 0)], [(0, 1), (0, 5)]):
        with pytest.raises(ValueError):
            hnf_rows(vs)


@given(st.integers(0, 10**12))
def test_exact_sqrt_of_squares(root):
    assert exact_sqrt(root * root) == root
    assert type(exact_sqrt(root * root)) is int


@given(st.integers(0, 10**12))
def test_exact_sqrt_of_non_squares(x):
    root = exact_sqrt(x)
    if root is None:
        r = int(x ** 0.5)
        assert all(c * c != x for c in range(max(r - 2, 0), r + 3))
    else:
        assert root * root == x and root >= 0


@given(st.integers(1, 10**9))
def test_exact_sqrt_of_negatives(x):
    assert exact_sqrt(-x) is None
    assert exact_sqrt(Fraction(-x, 7)) is None


@given(st.integers(0, 10**6), st.integers(1, 10**6))
def test_exact_sqrt_of_fractions(num, den):
    square = Fraction(num, den) ** 2
    assert exact_sqrt(square) == Fraction(num, den)
    assert isinstance(exact_sqrt(square), Fraction)


def test_exact_sqrt_fixed_values():
    assert exact_sqrt(0) == 0
    assert exact_sqrt(2) is None
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(9, 2)) is None
    assert exact_sqrt(Fraction(2, 9)) is None
    assert exact_sqrt(Fraction(-9, 4)) is None
    assert exact_sqrt(10**40 + 1) is None
    assert exact_sqrt(Fraction(10**40, 9)) == Fraction(10**20, 3)


@given(mat2)
def test_is_scalar(a):
    expected = a[0][1] == 0 and a[1][0] == 0 and a[0][0] == a[1][1]
    assert is_scalar(a) == expected
    assert is_scalar(((a[0][0], 0), (0, a[0][0])))


def test_is_scalar_fixed_values():
    assert is_scalar(((0, 0), (0, 0)))
    assert is_scalar(((-3, 0), (0, -3)))
    for a in (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 3))):
        assert not is_scalar(a)


@settings(max_examples=200)
@given(mat2, mat2)
def test_from_bilinear_reproduces_a_pairing(a1, a2):
    p = Pairing(a1, a2)
    assert Pairing.from_bilinear(p) == p


def test_from_bilinear_reads_basis_images():
    # s(x, y) = (x1 y1, x2 y2)
    got = Pairing.from_bilinear(lambda x, y: (x[0] * y[0], x[1] * y[1]))
    assert got == Pairing(((1, 0), (0, 0)), ((0, 0), (0, 1)))

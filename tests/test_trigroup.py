"""Tests for the triple bracket and its anchored pairings."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from normed_forms import (
    Form,
    Pairing,
    anchored_pairings,
    bracket,
    bracket_is_multiplicative,
    is_normed,
    make_plus,
    PlusParams,
    trigroup,
)

coeff = st.integers(min_value=-20, max_value=20)
vec = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


def anchored_oracle(base, e0):
    """The anchored pairings by their definition: the bracket of f = r*g,
    anchored at e0, evaluated on basis pairs and divided by r."""
    r = base(e0)
    if r == 0:
        raise ValueError("anchor vector must have nonzero form value")
    f = Form(r * base.m, r * base.k, r * base.n)

    def divided(w):
        if w[0] % r or w[1] % r:
            raise ArithmeticError("anchored pairing entries must be divisible by r")
        return (w[0] // r, w[1] // r)

    s1 = Pairing.from_bilinear(lambda x, y: divided(bracket(f, x, y, e0)))
    s2 = Pairing.from_bilinear(lambda x, y: divided(bracket(f, y, e0, x)))
    s3 = Pairing.from_bilinear(lambda x, y: divided(bracket(f, x, e0, y)))
    return (s1, f), (s2, f), (s3, f)


def anchored_match_plus(base, e0):
    """Check the anchored pairings equal the bracket oracle and the three plus
    families exactly."""
    params = PlusParams(base.m, base.k, base.n, e0[0], e0[1])
    got = anchored_pairings(base, e0)
    expected = tuple(make_plus(variant, params) for variant in (1, 2, 3))
    return got == anchored_oracle(base, e0) == expected


def test_bracket_values():
    """Hand-computed brackets for x^2 + y^2 and 2x^2 + xy + 3y^2."""
    f = Form(1, 0, 1)
    assert bracket(f, (1, 0), (0, 1), (1, 1)) == (1, 1)
    assert bracket(f, (1, 2), (3, -1), (0, 1)) == (5, -5)
    g = Form(2, 1, 3)
    assert bracket(g, (1, 0), (0, 1), (1, 1)) == (3, 2)


def test_bracket_multiplicative_on_spot():
    """f([x,y,e]) = f(x) f(y) f(e) at a sample point."""
    g = Form(2, 1, 3)
    x, y, e = (1, 2), (3, -1), (0, 1)
    assert g(bracket(g, x, y, e)) == g(x) * g(y) * g(e)


def test_bracket_refuses_an_odd_doubled_value():
    """A non-integer input can make the doubled bracket odd: for (1, 0, 0) at
    x = (1/2, 0), y = e = (1, 0) its first entry is 1."""
    with pytest.raises(ArithmeticError, match="bracket halving failed"):
        bracket(Form(1, 0, 0), (Fraction(1, 2), 0), (1, 0), (1, 0))


@given(coeff, coeff, coeff, vec, vec, vec)
@settings(max_examples=150)
def test_bracket_is_integral_and_multiplicative(m, k, n, x, y, e):
    """The halving never fails and the product law holds pointwise."""
    f = Form(m, k, n)
    w = bracket(f, x, y, e)
    assert isinstance(w[0], int) and isinstance(w[1], int)
    assert f(w) == f(x) * f(y) * f(e)


@given(coeff, coeff, coeff, vec, vec, vec)
@settings(max_examples=100)
def test_bracket_symmetric_in_first_two(m, k, n, x, y, e):
    """[x, y, e] = [y, x, e]."""
    f = Form(m, k, n)
    assert bracket(f, x, y, e) == bracket(f, y, x, e)


@given(coeff, coeff, coeff)
def test_bracket_multiplicativity_grid_check(m, k, n):
    """The three-point decision accepts every integer form."""
    assert bracket_is_multiplicative(Form(m, k, n))


def test_anchored_pairings_example():
    """Anchoring 2x^2 + xy + 3y^2 at (1, 0) gives pairings normed for twice it."""
    base = Form(2, 1, 3)
    triple = anchored_pairings(base, (1, 0))
    assert len(triple) == 3
    for s, f in triple:
        assert f == Form(4, 2, 6)
        assert is_normed(s, f)


def test_anchored_pairings_equal_plus_constructors():
    """The three anchored pairings are the three plus variants exactly."""
    base = Form(2, 1, 3)
    e0 = (1, 0)
    triple = anchored_pairings(base, e0)
    assert triple == anchored_oracle(base, e0)
    for variant in (1, 2, 3):
        expected = make_plus(variant, PlusParams(base.m, base.k, base.n, *e0))
        assert triple[variant - 1] == expected


def test_anchored_bracket_maps_equal_plus_on_basis_pairs():
    """The check in anchored_pairings' proof: on the 3 x 2 pairs of basis
    vectors (m, k, n) and (p, q), the undivided bracket maps of g,
    [x, y, e0]_g, [y, e0, x]_g and [x, e0, y]_g, have exactly the matrices
    of make_plus(1|2|3, PlusParams(m, k, n, p, q)).  Both sides are
    bilinear in (m, k, n) and (p, q), so they agree for every parameter."""
    for coefficients in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        g = Form(*coefficients)
        for e0 in ((1, 0), (0, 1)):
            maps = (
                lambda x, y: bracket(g, x, y, e0),
                lambda x, y: bracket(g, y, e0, x),
                lambda x, y: bracket(g, x, e0, y),
            )
            params = PlusParams(*coefficients, *e0)
            for variant, fn in zip((1, 2, 3), maps):
                assert Pairing.from_bilinear(fn) == make_plus(variant, params)[0]


def test_anchored_pairings_evaluate_no_bracket(monkeypatch):
    """anchored_pairings reads its pairings off make_plus: it neither
    evaluates the bracket nor builds a pairing from a bilinear map."""
    def never(*args, **kwargs):
        raise AssertionError("anchored_pairings evaluated a bilinear map")

    expected = anchored_oracle(Form(2, 1, 3), (1, -2))
    monkeypatch.setattr(trigroup, "bracket", never)
    monkeypatch.setattr(Pairing, "from_bilinear", never)
    assert anchored_pairings(Form(2, 1, 3), (1, -2)) == expected


def test_anchored_pairings_reject_null_anchor():
    """g(e0) = 0 leaves nothing to divide by."""
    with pytest.raises(ValueError):
        anchored_pairings(Form(1, 0, -1), (1, 1))


@given(coeff, coeff, coeff, vec)
@settings(max_examples=150)
def test_anchored_match_plus_generic(m, k, n, e0):
    """Anchored pairings coincide with the bracket oracle and make_plus
    wherever the anchor is valid."""
    base = Form(m, k, n)
    if base(e0) == 0:
        return
    assert anchored_match_plus(base, e0)

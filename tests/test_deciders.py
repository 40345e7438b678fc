"""Differential tests for the three-point deciders of pairings and trigroup.

is_normed, type_of and bracket_is_multiplicative decide their identities on
the three points (1, 0), (0, 1), (1, 1) that fix a binary quadratic form.
The grid scans they replaced live on here, and only here, as oracles: the
81-point {0, 1, 2}^4 check of is_normed, the 729-point {0, 1, 2}^6 check of
the bracket, and type_of's route through the coefficients of the one-sided
determinants.
"""

from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

import normed_forms.trigroup as trigroup
from normed_forms import (
    DegenerateFormError,
    Form,
    Pairing,
    PairingType,
    PlusParams,
    Quadruple,
    bracket,
    bracket_is_multiplicative,
    is_normed,
    make_minus_minus,
    make_plus,
    type_of,
)
from normed_forms.pairings import left_map_det, right_map_det

entry = st.integers(min_value=-9, max_value=9)
coeff = st.integers(min_value=-20, max_value=20)
vec = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


def is_normed_oracle(pairing: Pairing, form: Form) -> bool:
    """The 81-point {0, 1, 2}^4 check that is_normed replaced."""
    (a, b), (c, d) = pairing.a1
    (e, f), (g, h) = pairing.a2
    m, k, n = form.m, form.k, form.n
    grid = (0, 1, 2)
    fy = {}
    for y1 in grid:
        for y2 in grid:
            fy[y1, y2] = m * y1 * y1 + k * y1 * y2 + n * y2 * y2
    for x1 in grid:
        for x2 in grid:
            fx = fy[x1, x2]
            p1 = x1 * a + x2 * c
            p2 = x1 * b + x2 * d
            q1 = x1 * e + x2 * g
            q2 = x1 * f + x2 * h
            for y1 in grid:
                for y2 in grid:
                    z1 = p1 * y1 + p2 * y2
                    z2 = q1 * y1 + q2 * y2
                    if m * z1 * z1 + k * z1 * z2 + n * z2 * z2 != fx * fy[y1, y2]:
                        return False
    return True


def bracket_oracle(form: Form) -> bool:
    """The 729-point {0, 1, 2}^6 check that bracket_is_multiplicative replaced."""
    m, k, n = form.m, form.k, form.n
    g11, g12, g22 = 2 * m, k, 2 * n
    pts = [(x1, x2) for x1 in (0, 1, 2) for x2 in (0, 1, 2)]
    npts = len(pts)
    fvals = [m * p[0] * p[0] + k * p[0] * p[1] + n * p[1] * p[1] for p in pts]
    pol = [
        [
            g11 * p[0] * q[0] + g12 * (p[0] * q[1] + p[1] * q[0]) + g22 * p[1] * q[1]
            for q in pts
        ]
        for p in pts
    ]
    for i in range(npts):
        xi = pts[i]
        fx = fvals[i]
        poli = pol[i]
        for j in range(npts):
            yj = pts[j]
            fxy = fx * fvals[j]
            txy = poli[j]
            polj = pol[j]
            for l in range(npts):
                e = pts[l]
                txe = poli[l]
                tye = polj[l]
                w1 = -txy * e[0] + txe * yj[0] + tye * xi[0]
                w2 = -txy * e[1] + txe * yj[1] + tye * xi[1]
                if w1 % 2 or w2 % 2:
                    return False
                w1 //= 2
                w2 //= 2
                if m * w1 * w1 + k * w1 * w2 + n * w2 * w2 != fxy * fvals[l]:
                    return False
    return True


def left_map_det_oracle(pairing: Pairing, y) -> int:
    """det of x |-> s(x, y) from the matrix rows A1 y and A2 y."""
    a1, a2 = pairing.a1, pairing.a2
    y1, y2 = y
    r1 = (a1[0][0] * y1 + a1[0][1] * y2, a1[1][0] * y1 + a1[1][1] * y2)
    r2 = (a2[0][0] * y1 + a2[0][1] * y2, a2[1][0] * y1 + a2[1][1] * y2)
    return r1[0] * r2[1] - r1[1] * r2[0]


def right_map_det_oracle(pairing: Pairing, x) -> int:
    """det of y |-> s(x, y) from the matrix rows x A1 and x A2."""
    a1, a2 = pairing.a1, pairing.a2
    x1, x2 = x
    r1 = (a1[0][0] * x1 + a1[1][0] * x2, a1[0][1] * x1 + a1[1][1] * x2)
    r2 = (a2[0][0] * x1 + a2[1][0] * x2, a2[0][1] * x1 + a2[1][1] * x2)
    return r1[0] * r2[1] - r1[1] * r2[0]


def type_of_oracle(pairing: Pairing, form: Form) -> PairingType:
    """type_of through the coefficients of each determinant polynomial."""
    if form.discriminant() == 0:
        raise DegenerateFormError("pairing type requires a nondegenerate form")
    signs = []
    for map_det in (left_map_det_oracle, right_map_det_oracle):
        c1 = map_det(pairing, (1, 0))
        c2 = map_det(pairing, (0, 1))
        det = (c1, map_det(pairing, (1, 1)) - c1 - c2, c2)
        if det == form.coefficients():
            signs.append(1)
        elif det == (-form).coefficients():
            signs.append(-1)
        else:
            raise ValueError("determinant is not +/- the form")
    return PairingType(*signs)


def _outcome(decide, *args):
    """decide(*args), or the ValueError it raises."""
    try:
        return decide(*args)
    except ValueError:
        return ValueError


@st.composite
def family_cases(draw):
    """A make_plus or make_minus_minus pair, sometimes with one matrix entry
    or one form coefficient moved by +-1, so both verdicts are drawn."""
    family = draw(st.sampled_from([1, 2, 3, "minus"]))
    if family == "minus":
        pairing, form = make_minus_minus(draw(st.builds(Quadruple, entry, entry, entry, entry)))
    else:
        params = draw(st.builds(PlusParams, entry, entry, entry, entry, entry))
        pairing, form = make_plus(family, params)
    step = draw(st.sampled_from([-1, 1]))
    where = draw(st.sampled_from(["none", "matrix", "form"]))
    if where == "matrix":
        entries = [list(row) for matrix in (pairing.a1, pairing.a2) for row in matrix]
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 1))
        entries[i][j] += step
        rows = [tuple(row) for row in entries]
        pairing = Pairing((rows[0], rows[1]), (rows[2], rows[3]))
    elif where == "form":
        coefficients = list(form.coefficients())
        coefficients[draw(st.integers(0, 2))] += step
        form = Form(*coefficients)
    return pairing, form


@given(family_cases())
@settings(max_examples=400)
@example(make_plus(1, PlusParams(1, 0, 1, 1, 0)))
@example((make_plus(1, PlusParams(1, 0, 1, 1, 0))[0], Form(1, 0, 2)))
@example(make_minus_minus(Quadruple(1, -2, -1, 1)))
@example((Pairing(((1, 0), (0, 0)), ((0, 0), (0, 1))), Form(1, 0, 1)))
def test_deciders_match_grid_oracles(case):
    """is_normed equals the 81-point check; type_of equals the coefficient
    route, and on normed nondegenerate pairs both return a type."""
    pairing, form = case
    normed = is_normed(pairing, form)
    assert normed == is_normed_oracle(pairing, form)
    if form.discriminant() == 0:
        return
    got = _outcome(type_of, pairing, form)
    assert got == _outcome(type_of_oracle, pairing, form)
    if normed:
        assert isinstance(got, PairingType)


@given(entry, entry, entry, entry, entry, entry, entry, entry, vec)
@settings(max_examples=100)
def test_map_determinants_match_matrix_rows(a, b, c, d, e, f, g, h, v):
    """The one-sided determinants equal their matrix-row formulas."""
    s = Pairing(((a, b), (c, d)), ((e, f), (g, h)))
    assert left_map_det(s, v) == left_map_det_oracle(s, v)
    assert right_map_det(s, v) == right_map_det_oracle(s, v)


@given(coeff, coeff, coeff)
@settings(max_examples=100)
def test_bracket_decider_matches_grid_oracle(m, k, n):
    """Both decisions accept every integer form."""
    form = Form(m, k, n)
    assert bracket_is_multiplicative(form) is bracket_oracle(form) is True


def test_deciders_evaluate_nine_pairs_and_27_triples(monkeypatch):
    """is_normed calls the pairing 9 times, the bracket decider the bracket 27."""
    calls = []

    class CountingPairing(Pairing):
        def __call__(self, x, y):
            calls.append((x, y))
            return super().__call__(x, y)

    s, f = make_plus(1, PlusParams(2, 1, 3, 1, 0))
    assert is_normed(CountingPairing(s.a1, s.a2), f)
    assert len(calls) == 9

    triples = []

    def counting_bracket(form, x, y, e):
        triples.append((x, y, e))
        return bracket(form, x, y, e)

    monkeypatch.setattr(trigroup, "bracket", counting_bracket)
    assert bracket_is_multiplicative(Form(2, 1, 3))
    assert len(triples) == 27


@pytest.mark.parametrize("form", [Form(1, 0, 1), Form(2, 1, 3), Form(1, 3, -2), Form(-5, 0, 7)])
def test_bracket_decider_rejects_wrong_trilinear_map(monkeypatch, form):
    """A trilinear map that is not the bracket, (w1 + x1 y1 e1, w2), fails the
    decision, and the identity really fails at a {0, 1, 2}^6 grid point."""

    def wrong(form, x, y, e):
        w1, w2 = bracket(form, x, y, e)
        return (w1 + x[0] * y[0] * e[0], w2)

    grid = list(product((0, 1, 2), repeat=2))
    assert any(form(wrong(form, x, y, e)) != form(x) * form(y) * form(e)
               for x, y, e in product(grid, repeat=3))
    monkeypatch.setattr(trigroup, "bracket", wrong)
    assert not bracket_is_multiplicative(form)

"""Each discriminant rule is written once: oracles for the shared helpers.

The hand-written versions these rules replaced live on here, verbatim, as
oracles: the reduction loop with its own stop test and two swap branches,
the principal form and the order generator branching on delta mod 4, and
the Gram values computed separately by to_form and is_integer_normed.
"""

from fractions import Fraction
from math import gcd

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normed_forms import Context, Definiteness, Form, Lattice, principal_form
from normed_forms.forms import IDENTITY, Mat2, _is_discriminant, ext_gcd, mat_mul
from normed_forms.lattices import _cross


def reduce_oracle(self) -> tuple[Form, Mat2]:
    if self.definiteness() is not Definiteness.POSITIVE_DEFINITE:
        raise ValueError("reduction requires a positive definite form")
    if not self.is_primitive():
        raise ValueError("reduction requires a primitive form")
    f = self
    acc = IDENTITY
    while True:
        m, k, n = f.m, f.k, f.n
        if k > m or k <= -m:
            # translate k into (-m, m]
            t = (m - k) // (2 * m)
            step: Mat2 = ((1, t), (0, 1))
        elif m > n:
            step = ((0, -1), (1, 0))
        elif k < 0 and m == n:
            # k = -m cannot reach here: translation keeps k in (-m, m]
            step = ((0, -1), (1, 0))
        else:
            break
        f = f.transform(step)
        acc = mat_mul(acc, step)
    return f, acc


def principal_form_oracle(delta: int) -> Form:
    if delta == 0:
        raise ValueError("discriminant must be nonzero")
    r = delta % 4
    if r == 0:
        return Form(1, 0, -delta // 4)
    if r == 1:
        return Form(1, 1, (1 - delta) // 4)
    raise ValueError("discriminant must be 0 or 1 mod 4")


def order_generator_oracle(self):
    if self.delta % 4 == 0:
        return self.elem(0, Fraction(1, 2))
    return self.elem(Fraction(1, 2), Fraction(1, 2))


def to_form_oracle(self) -> Form:
    a, b = self.e1, self.e2
    if _cross(a, b) < 0:
        a, b = b, a
    m = a.norm()
    n = b.norm()
    k = (a * b.conj()).trace()
    if m.denominator != 1 or n.denominator != 1 or k.denominator != 1:
        raise ValueError("lattice is not integer-normed")
    return Form(int(m), int(k), int(n))


def is_integer_normed_oracle(self) -> bool:
    return (
        self.e1.norm().denominator == 1
        and self.e2.norm().denominator == 1
        and (self.e1 * self.e2.conj()).trace().denominator == 1
    )


def outcome(call, *args):
    """The value of call(*args), or ValueError when it raises one."""
    try:
        return call(*args)
    except ValueError:
        return ValueError


BIG = 10**12


@st.composite
def definite_forms(draw):
    """A primitive positive definite form with coefficients up to 10^12,
    moved off its reduced representative by a random determinant-1 matrix."""
    m = draw(st.integers(1, BIG))
    n = draw(st.integers(1, BIG))
    k = draw(st.integers(-BIG, BIG))
    if k * k >= 4 * m * n:
        k %= 2 * min(m, n)  # now k^2 < 4 min(m, n)^2 <= 4mn
    g = gcd(m, k, n)
    form = Form(m // g, k // g, n // g)
    a, c = draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))
    g = gcd(a, c)
    a, c = (a // g, c // g) if g else (1, 0)
    _, s, t = ext_gcd(a, c)  # s a + t c = 1, so ((a, -t), (c, s)) has det 1
    return form.transform(((a, -t), (c, s)))


# near 10^40: a reduced form, one whose first step is a huge translation,
# and one far from reduction
NEAR_1E40 = (
    Form(10**40, 1, 10**40 + 7),
    Form(3, 10**20 + 1, (10**20 + 1) ** 2 // 12 + 1),
    Form(10**40 + 1, 10**40, 10**40 + 3).transform(((7, 2), (3, 1))),
)


@given(definite_forms())
@example(NEAR_1E40[0])
@example(NEAR_1E40[1])
@example(NEAR_1E40[2])
@settings(max_examples=400)
def test_reduce_matches_the_two_branch_loop(form):
    """Form.reduce stops on is_reduced() with one swap step, and returns
    the same (form, matrix) pair as the two-branch loop."""
    assert form.reduce() == reduce_oracle(form)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
@example(0, 0, 0)
@example(2, 2, 2)
@example(1, 5, 1)
@example(-1, 1, -1)
def test_reduce_raises_exactly_as_the_oracle(m, k, n):
    """Indefinite, degenerate, negative definite, imprimitive and zero
    forms raise in both versions; every other form reduces alike."""
    form = Form(m, k, n)
    assert outcome(Form.reduce, form) == outcome(reduce_oracle, form)


@given(st.one_of(st.integers(-10**40, 10**40), st.integers(-100, 100)))
@example(0)
def test_principal_form_matches_the_mod4_branches(delta):
    """(1, k, (k - delta)/4) with k = delta mod 2 equals the mod-4
    branches, and both reject the same integers."""
    assert outcome(principal_form, delta) == outcome(principal_form_oracle, delta)


discriminants = st.one_of(st.integers(-10**40, 10**40),
                          st.integers(-100, 100)).filter(_is_discriminant)


@given(discriminants)
def test_order_generator_matches_the_mod4_branches(delta):
    """(k + tau)/2 with k = delta mod 2, as exact coordinates."""
    ctx = Context(delta)
    mine, oracle = ctx.order_generator(), order_generator_oracle(ctx)
    assert (mine.u, mine.v) == (oracle.u, oracle.v)
    assert repr(mine) == repr(oracle)


@st.composite
def lattices(draw):
    """A lattice of a small context: either two random rational elements, or
    two integer combinations of 1 and the order generator scaled by 1/den,
    which are integer-normed for den = 1 and often fail to be otherwise."""
    ctx = Context(draw(st.sampled_from([-23, -4, -20, -8, -3, 8, 12, 13, 5, 17])))
    if draw(st.booleans()):
        rat = st.fractions(min_value=-6, max_value=6, max_denominator=4)
        e1 = ctx.elem(draw(rat), draw(rat))
        e2 = ctx.elem(draw(rat), draw(rat))
    else:
        omega = ctx.order_generator()
        coeff = st.integers(-30, 30)
        den = draw(st.integers(1, 3))
        e1 = (ctx.elem(draw(coeff)) + omega * draw(coeff)) / den
        e2 = (ctx.elem(draw(coeff)) + omega * draw(coeff)) / den
    assume(_cross(e1, e2))
    return Lattice(ctx, e1, e2)


@given(lattices())
@settings(max_examples=400)
def test_one_gram_computation_matches_both_oracles(lat):
    """to_form and is_integer_normed share one Gram computation and agree
    with the two former ones: equal forms, equal raise-or-not and equal flags."""
    assert outcome(Lattice.to_form, lat) == outcome(to_form_oracle, lat)
    assert lat.is_integer_normed() == is_integer_normed_oracle(lat)
    assert lat.is_integer_normed() == (outcome(Lattice.to_form, lat) is not ValueError)


def test_order_norm_form_is_the_principal_form():
    """span(1, order_generator()) carries principal_form(delta) for every
    discriminant 0 < |delta| <= 2000, and on -50..50 the three validators
    (_is_discriminant, Context, principal_form) accept the same integers."""
    for delta in filter(_is_discriminant, range(-2000, 2001)):
        ctx = Context(delta)
        order = Lattice(ctx, ctx.one(), ctx.order_generator())
        assert order.to_form() == principal_form(delta)
    for delta in range(-50, 51):
        accepted = _is_discriminant(delta)
        assert (outcome(Context, delta) is not ValueError) == accepted
        assert (outcome(principal_form, delta) is not ValueError) == accepted
        assert accepted == (delta != 0 and delta % 4 in (0, 1))

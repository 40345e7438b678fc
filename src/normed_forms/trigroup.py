"""The triple bracket of a quadratic form and the pairings it induces.

For a form f with polar bilinear form F (possibly half-integer valued), the
bracket

    [x, y, e] = -F(x, y) e + F(x, e) y + F(y, e) x

is integer-valued on integer vectors and satisfies
f([x, y, e]) = f(x) f(y) f(e).  Internally everything runs on the doubled
polarization (an integer matrix), with an exact final halving.  The bracket
is trilinear, so the identity is decided exactly on the 27 triples of the
three points that fix a binary quadratic form (bracket_is_multiplicative).

Anchoring the bracket at a base vector e0 with g(e0) = r != 0 produces three
bilinear pairings normed for f = r*g; they coincide, matrix for matrix, with
the three plus-type families of make_plus, so anchored_pairings returns those
(the proof is in its docstring).
"""

from __future__ import annotations

from .forms import QUADRATIC_POINTS, Form, Vec2
from .pairings import Pairing, PlusParams, make_plus


def bracket(form: Form, x: Vec2, y: Vec2, e: Vec2) -> Vec2:
    """[x, y, e] = -F(x, y) e + F(x, e) y + F(y, e) x, exactly.

    Computed via the doubled polarization and halved at the end; the halving
    is always exact for integer inputs.
    """
    (g11, g12), (_, g22) = form.doubled_gram()

    def pol2(u: Vec2, v: Vec2) -> int:
        # twice the polar form F(u, v)
        return g11 * u[0] * v[0] + g12 * (u[0] * v[1] + u[1] * v[0]) + g22 * u[1] * v[1]

    txy = pol2(x, y)
    txe = pol2(x, e)
    tye = pol2(y, e)
    w1 = -txy * e[0] + txe * y[0] + tye * x[0]
    w2 = -txy * e[1] + txe * y[1] + tye * x[1]
    if w1 % 2 or w2 % 2:
        raise ArithmeticError("bracket halving failed; non-integer input?")
    return (w1 // 2, w2 // 2)


def bracket_is_multiplicative(form: Form) -> bool:
    """Decide f([x, y, e]) == f(x) f(y) f(e) as a polynomial identity.

    The bracket is trilinear, so the defect is a binary quadratic form in
    each of x, y and e with the other two fixed.  A quadratic form vanishing
    at the three QUADRATIC_POINTS is zero; fixing the vectors one at a time,
    as for pairings.is_normed, the 27 triples of those points decide the
    identity exactly.  (The identity holds for every integer form; this is
    the independent check.)
    """
    return all(
        form(bracket(form, x, y, e)) == form(x) * form(y) * form(e)
        for x in QUADRATIC_POINTS
        for y in QUADRATIC_POINTS
        for e in QUADRATIC_POINTS
    )


def anchored_pairings(
    base: Form, e0: Vec2
) -> tuple[tuple[Pairing, Form], tuple[Pairing, Form], tuple[Pairing, Form]]:
    """The three pairings obtained by anchoring the bracket of f = r*g at e0.

    r = g(e0) must be nonzero.  With the bracket taken for f, the three maps

        (x, y) |-> [x, y, e0]/r,  [y, e0, x]/r,  [x, e0, y]/r

    are integer bilinear pairings normed for f, of types (+,+), (-,+), (+,-),
    and equal exactly to make_plus(1|2|3, PlusParams(g.m, g.k, g.n, *e0)),
    which is what is returned.  Proof: the polar form of f = r*g is r*F_g,
    so [x, y, e0]_f / r = [x, y, e0]_g, with no division at all, and likewise
    for the other two maps.  Each entry of [e_i, e_j, e0]_g, [e_j, e0, e_i]_g
    and [e_i, e0, e_j]_g is bilinear in (m, k, n) = (g.m, g.k, g.n) and
    e0 = (p, q), as the bracket is linear in the form and in e; so is each
    entry of make_plus(1|2|3, PlusParams(m, k, n, p, q)).  Two bilinear maps
    agree once they agree on the 3 x 2 pairs of basis vectors, and there
    the entries are equal (the test suite compares all six exactly).
    """
    if base(e0) == 0:
        raise ValueError("anchor vector must have nonzero form value")
    params = PlusParams(base.m, base.k, base.n, *e0)
    return make_plus(1, params), make_plus(2, params), make_plus(3, params)

"""Integer bilinear pairings normed with respect to a quadratic form.

A pairing is a bilinear map s: Z^2 x Z^2 -> Z^2 given by a matrix pair
(A1 | A2), with components z_j = x^T A_j y.  It is *normed* for a form f when
f(s(x, y)) = f(x) f(y) identically; this generalizes the Brahmagupta identity
(x1^2 + D x2^2)(y1^2 + D y2^2) = (x1 y1 - D x2 y2)^2 + D (x1 y2 + x2 y1)^2.

Nondegenerate normed pairings carry a type (eps1; eps2) read off from the
determinants of the one-sided linear maps x |-> s(x, y) and y |-> s(x, y),
which are eps1*f and eps2*f as quadratic polynomials.  The four constructor
families below realize every combination of signs:

* the plus families (variants 1, 2, 3, types (+,+), (-,+), (+,-)) take a form
  (m, k, n) and a base point (p, q), and are normed for r*(m, k, n) with
  r = m p^2 + k p q + n q^2, and variant 3 is variant 2 mirrored: (-,+) and
  (+,-) are one family read both ways;
* the minus-minus family takes an arbitrary integer quadruple (a, b, c, d)
  and is normed for (a^2 - c d, a c - b d, c^2 - a b).

Whether a pairing is normed is decided exactly on nine point pairs: s is
bilinear, so the defect f(s(x, y)) - f(x) f(y) is a binary quadratic form in
x for fixed y and in y for fixed x, and such a form is fixed by its values at
the three points forms.QUADRATIC_POINTS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .forms import (
    QUADRATIC_POINTS, DegenerateFormError, Form, Mat2, Vec2, is_scalar, mat_det, mat_mul,
    mat_trace,
)

__all__ = ["PLUS_VARIANT_TYPES", "Pairing", "PairingType", "PlusParams", "Quadruple",
           "TYPE_MM", "TYPE_MP", "TYPE_PM", "TYPE_PP", "derive_form_minus_minus",
           "is_normed", "left_map_det", "make_minus_minus", "make_plus", "quadruple_of",
           "right_map_det", "type_of"]


class PairingType(NamedTuple):
    """Sign pair (eps1; eps2), each +1 or -1."""

    eps1: int
    eps2: int

    def __str__(self) -> str:
        plus = {1: "+", -1: "-"}
        return f"({plus[self.eps1]},{plus[self.eps2]})"


TYPE_PP = PairingType(1, 1)
TYPE_MP = PairingType(-1, 1)
TYPE_PM = PairingType(1, -1)
TYPE_MM = PairingType(-1, -1)

PLUS_VARIANT_TYPES = {1: TYPE_PP, 2: TYPE_MP, 3: TYPE_PM}


@dataclass(frozen=True)
class PlusParams:
    """Parameters (m, k, n, p, q) of the plus-type pairing families."""

    m: int
    k: int
    n: int
    p: int
    q: int

    @property
    def r(self) -> int:
        """The scale r = m p^2 + k p q + n q^2 = base form at (p, q)."""
        p, q = self.p, self.q
        return self.m * p * p + self.k * p * q + self.n * q * q

    def base_form(self) -> Form:
        return Form(self.m, self.k, self.n)


@dataclass(frozen=True)
class Quadruple:
    """Parameters (a, b, c, d) of the minus-minus pairing family."""

    a: int
    b: int
    c: int
    d: int

    def __neg__(self) -> "Quadruple":
        return Quadruple(-self.a, -self.b, -self.c, -self.d)

    def form(self) -> Form:
        """(a^2 - cd, ac - bd, c^2 - ab); even in the quadruple."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return Form(a * a - c * d, a * c - b * d, c * c - a * b)


@dataclass(frozen=True)
class Pairing:
    """Bilinear map with components x^T a1 y and x^T a2 y."""

    a1: Mat2
    a2: Mat2

    def __call__(self, x: Vec2, y: Vec2) -> Vec2:
        x1, x2 = x
        y1, y2 = y
        (a, b), (c, d) = self.a1
        (e, f), (g, h) = self.a2
        return (
            (x1 * a + x2 * c) * y1 + (x1 * b + x2 * d) * y2,
            (x1 * e + x2 * g) * y1 + (x1 * f + x2 * h) * y2,
        )

    @classmethod
    def from_bilinear(cls, fn) -> "Pairing":
        """The pairing agreeing with the bilinear map fn: Z^2 x Z^2 -> Z^2.

        Entry (i, j) of a1 and of a2 are the two components of fn(e_i, e_j)
        on the standard basis, so any fn that is bilinear is reproduced.
        """
        basis = ((1, 0), (0, 1))
        (z11, z12), (z21, z22) = [[fn(x, y) for y in basis] for x in basis]
        return cls(
            ((z11[0], z12[0]), (z21[0], z22[0])),
            ((z11[1], z12[1]), (z21[1], z22[1])),
        )

    def __neg__(self) -> "Pairing":
        (a, b), (c, d) = self.a1
        (e, f), (g, h) = self.a2
        return Pairing(((-a, -b), (-c, -d)), ((-e, -f), (-g, -h)))

    def operator_matrices(self) -> tuple[Mat2, Mat2]:
        """The matrices M1, M2 with s(x, y) = (x1 M1 + x2 M2) y.

        M1 stacks the first rows of A1 and A2, M2 the second rows.  The
        pairing is commutative iff A1 and A2 are both symmetric, and
        traceless iff tr(M1) = tr(M2) = 0.
        """
        return (
            (self.a1[0], self.a2[0]),
            (self.a1[1], self.a2[1]),
        )

    def is_commutative(self) -> bool:
        """s(x, y) == s(y, x) for all x, y."""
        return (
            self.a1[0][1] == self.a1[1][0] and self.a2[0][1] == self.a2[1][0]
        )

    def is_traceless(self) -> bool:
        """Both operator matrices M1, M2 have trace zero."""
        m1, m2 = self.operator_matrices()
        return mat_trace(m1) == 0 and mat_trace(m2) == 0


def make_plus(variant: int, params: PlusParams) -> tuple[Pairing, Form]:
    """One of the three plus-type pairing families and its normed form.

    Variant 1 has type (+,+), variant 2 type (-,+), variant 3 type (+,-).
    Variant 3 is variant 2 mirrored, s3(x, y) = s2(y, x), so its matrices
    are variant 2's transposed: (-,+) and (+,-) are one family read both
    ways.  The normed form is r*(m, k, n) with r = params.r; the pairing
    matrices are integral for every integer parameter choice.
    """
    m, k, n, p, q = params.m, params.k, params.n, params.p, params.q
    if variant == 1:
        a1: Mat2 = ((m * p + k * q, n * q), (n * q, -n * p))
        a2: Mat2 = ((-m * q, m * p), (m * p, n * q + k * p))
    elif variant in (2, 3):
        a1 = ((m * p, -n * q), (n * q + k * p, n * p))
        a2 = ((m * q, m * p + k * q), (-m * p, n * q))
        if variant == 3:
            a1, a2 = tuple(zip(*a1)), tuple(zip(*a2))
    else:
        raise ValueError("variant must be 1, 2 or 3")
    r = params.r
    return Pairing(a1, a2), Form(r * m, r * k, r * n)


def make_minus_minus(quad: Quadruple) -> tuple[Pairing, Form]:
    """The minus-minus pairing of an integer quadruple and its normed form.

    The pairing is commutative and traceless, with operator matrices
    M1 = ((a, c), (-d, -a)) and M2 = ((c, b), (-a, -c)); every commutative
    traceless pairing arises this way for exactly one quadruple, which
    quadruple_of reads back.  Its form is (a^2 - cd, ac - bd, c^2 - ab), and
    when that form is nondegenerate the type is (-,-).
    """
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    a1: Mat2 = ((a, c), (c, b))
    a2: Mat2 = ((-d, -a), (-a, -c))
    return Pairing(a1, a2), quad.form()


def quadruple_of(pairing: Pairing) -> Quadruple:
    """Read the quadruple back off a commutative traceless pairing."""
    if not (pairing.is_commutative() and pairing.is_traceless()):
        raise ValueError("pairing is not commutative and traceless")
    m1, m2 = pairing.operator_matrices()
    return Quadruple(a=m1[0][0], b=m2[0][1], c=m1[0][1], d=-m1[1][0])


def is_normed(pairing: Pairing, form: Form) -> bool:
    """Exact decision of f(s(x, y)) == f(x) f(y) as a polynomial identity.

    For fixed y the defect f(s(x, y)) - f(x) f(y) is a binary quadratic form
    in x, since s is linear in x.  So when it vanishes for x and y in
    QUADRATIC_POINTS, it vanishes for every x and those y; then, for each x,
    it is a quadratic form in y vanishing on QUADRATIC_POINTS, hence zero.
    The 3 x 3 point pairs decide the identity.
    """
    return all(
        form(pairing(x, y)) == form(x) * form(y)
        for x in QUADRATIC_POINTS
        for y in QUADRATIC_POINTS
    )


def left_map_det(pairing: Pairing, y: Vec2) -> int:
    """det of the linear map x |-> s(x, y)."""
    return mat_det((pairing((1, 0), y), pairing((0, 1), y)))


def right_map_det(pairing: Pairing, x: Vec2) -> int:
    """det of the linear map y |-> s(x, y)."""
    return mat_det((pairing(x, (1, 0)), pairing(x, (0, 1))))


def type_of(pairing: Pairing, form: Form) -> PairingType:
    """The type (eps1; eps2) of a pairing normed for a nondegenerate form.

    eps1 is the constant sign of det(x |-> s(x, y)) / f(y); eps2 the same on
    the other side.  Each determinant is a quadratic form in the other
    vector, so it is +f or -f exactly when it is at the three
    QUADRATIC_POINTS, where f is not zero at all three.  Raises if a
    determinant is neither +f nor -f (the pairing is then not normed for this
    form, or degenerate data was supplied).
    """
    if form.discriminant() == 0:
        raise DegenerateFormError("pairing type requires a nondegenerate form")
    values = [form(v) for v in QUADRATIC_POINTS]

    signs = []
    for side, map_det in (("left", left_map_det), ("right", right_map_det)):
        dets = [map_det(pairing, v) for v in QUADRATIC_POINTS]
        if dets == values:
            signs.append(1)
        elif dets == [-value for value in values]:
            signs.append(-1)
        else:
            raise ValueError(f"{side} determinant is not +/- the form; pairing not normed")
    return PairingType(*signs)


def derive_form_minus_minus(pairing: Pairing) -> Form:
    """Recover f from the double-application identity s(x, s(x, y)) = f(x) y.

    The identity holds iff the operator matrices satisfy M1^2 = m E,
    M1 M2 + M2 M1 = k E, M2^2 = n E for scalars (m, k, n), which are then the
    coefficients of f.  Raises when any of the three products is not scalar.
    For commutative traceless pairings this returns the quadruple form.
    """
    m1, m2 = pairing.operator_matrices()
    anti = mat_mul(m1, m2)
    anti2 = mat_mul(m2, m1)
    cross = (
        (anti[0][0] + anti2[0][0], anti[0][1] + anti2[0][1]),
        (anti[1][0] + anti2[1][0], anti[1][1] + anti2[1][1]),
    )
    products = (mat_mul(m1, m1), cross, mat_mul(m2, m2))
    if not all(is_scalar(p) for p in products):
        raise ValueError("double application of the pairing is not scalar")
    return Form(*(p[0][0] for p in products))

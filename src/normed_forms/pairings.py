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
  r = m p^2 + k p q + n q^2;
* the minus-minus family takes an arbitrary integer quadruple (a, b, c, d)
  and is normed for (a^2 - c d, a c - b d, c^2 - a b).

Whether a pairing is normed is decided exactly: the defect polynomial has
degree at most 2 in each of the four variables, so vanishing on the grid
{0, 1, 2}^4 proves the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .forms import DegenerateFormError, Form, Mat2, Vec2, is_scalar, mat_mul


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
        return self.m * self.p * self.p + self.k * self.p * self.q + self.n * self.q * self.q

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
        return m1[0][0] + m1[1][1] == 0 and m2[0][0] + m2[1][1] == 0


def from_operator_matrices(m1: Mat2, m2: Mat2) -> Pairing:
    """Inverse of Pairing.operator_matrices (the regrouping is an involution)."""
    return Pairing((m1[0], m2[0]), (m1[1], m2[1]))


def make_plus(variant: int, params: PlusParams) -> tuple[Pairing, Form]:
    """One of the three plus-type pairing families and its normed form.

    Variant 1 has type (+,+), variant 2 type (-,+), variant 3 type (+,-).
    The normed form is r*(m, k, n) with r = params.r; the pairing matrices
    are integral for every integer parameter choice.
    """
    m, k, n, p, q = params.m, params.k, params.n, params.p, params.q
    if variant == 1:
        a1: Mat2 = ((m * p + k * q, n * q), (n * q, -n * p))
        a2: Mat2 = ((-m * q, m * p), (m * p, n * q + k * p))
    elif variant == 2:
        a1 = ((m * p, -n * q), (n * q + k * p, n * p))
        a2 = ((m * q, m * p + k * q), (-m * p, n * q))
    elif variant == 3:
        a1 = ((m * p, n * q + k * p), (-n * q, n * p))
        a2 = ((m * q, -m * p), (m * p + k * q, n * q))
    else:
        raise ValueError("variant must be 1, 2 or 3")
    r = params.r
    return Pairing(a1, a2), Form(r * m, r * k, r * n)


def make_minus_minus(quad: Quadruple) -> tuple[Pairing, Form]:
    """The minus-minus pairing of an integer quadruple and its normed form.

    The pairing is commutative and traceless; its form is
    (a^2 - cd, ac - bd, c^2 - ab), and when that form is nondegenerate the
    type is (-,-).
    """
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    a1: Mat2 = ((a, c), (c, b))
    a2: Mat2 = ((-d, -a), (-a, -c))
    return Pairing(a1, a2), quad.form()


def from_commutative_traceless(quad: Quadruple) -> Pairing:
    """Build the unique commutative traceless pairing with operator matrices
    M1 = ((a, c), (-d, -a)), M2 = ((c, b), (-a, -c)).

    Coincides with make_minus_minus(quad)[0]; every commutative traceless
    pairing arises this way for exactly one quadruple.
    """
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    return from_operator_matrices(((a, c), (-d, -a)), ((c, b), (-a, -c)))


def quadruple_of(pairing: Pairing) -> Quadruple:
    """Read the quadruple back off a commutative traceless pairing."""
    if not (pairing.is_commutative() and pairing.is_traceless()):
        raise ValueError("pairing is not commutative and traceless")
    m1, m2 = pairing.operator_matrices()
    return Quadruple(a=m1[0][0], b=m2[0][1], c=m1[0][1], d=-m1[1][0])


def is_normed(pairing: Pairing, form: Form) -> bool:
    """Exact decision of f(s(x, y)) == f(x) f(y) as a polynomial identity.

    The defect has degree <= 2 in each of x1, x2, y1, y2, so checking the 81
    grid points {0, 1, 2}^4 decides it.
    """
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


def _quadratic_coefficients(det_at) -> tuple[int, int, int]:
    """Coefficients (c1, c12, c2) of a quadratic form from three evaluations."""
    c1 = det_at((1, 0))
    c2 = det_at((0, 1))
    c12 = det_at((1, 1)) - c1 - c2
    return c1, c12, c2


def left_map_det(pairing: Pairing, y: Vec2) -> int:
    """det of the linear map x |-> s(x, y)."""
    a1, a2 = pairing.a1, pairing.a2
    y1, y2 = y
    r1 = (a1[0][0] * y1 + a1[0][1] * y2, a1[1][0] * y1 + a1[1][1] * y2)
    r2 = (a2[0][0] * y1 + a2[0][1] * y2, a2[1][0] * y1 + a2[1][1] * y2)
    return r1[0] * r2[1] - r1[1] * r2[0]


def right_map_det(pairing: Pairing, x: Vec2) -> int:
    """det of the linear map y |-> s(x, y)."""
    a1, a2 = pairing.a1, pairing.a2
    x1, x2 = x
    r1 = (a1[0][0] * x1 + a1[1][0] * x2, a1[0][1] * x1 + a1[1][1] * x2)
    r2 = (a2[0][0] * x1 + a2[1][0] * x2, a2[0][1] * x1 + a2[1][1] * x2)
    return r1[0] * r2[1] - r1[1] * r2[0]


def type_of(pairing: Pairing, form: Form) -> PairingType:
    """The type (eps1; eps2) of a pairing normed for a nondegenerate form.

    eps1 is the constant sign of det(x |-> s(x, y)) / f(y); eps2 the same on
    the other side.  Raises if the determinant polynomials are not exactly
    +f or -f (the pairing is then not normed for this form, or degenerate
    data was supplied).
    """
    if form.discriminant() == 0:
        raise DegenerateFormError("pairing type requires a nondegenerate form")
    target = form.coefficients()
    neg_target = (-form).coefficients()

    signs = []
    for side, map_det in (("left", left_map_det), ("right", right_map_det)):
        det = _quadratic_coefficients(lambda v: map_det(pairing, v))
        if det == target:
            signs.append(1)
        elif det == neg_target:
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

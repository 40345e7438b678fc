"""Two-dimensional sublattices of 2x2 integer matrices and their pairings.

The four matrix pairings on Mat2(Z) are

    S1(X, Y) = X Y          S2(X, Y) = adj(X) Y
    S3(X, Y) = X adj(Y)     S4(X, Y) = adj(X Y)

where adj is the adjugate (conjugation: adj(X) = tr(X) E - X).  det is
multiplicative for all four.

A sublattice span(A, rE) with A non-scalar and r > 0 is stable under S1..S3
iff r divides det(A), and stable under S4 iff r divides tr(A)^2 - det(A).
On a stable sublattice the pairing restricts, in coordinates
phi(x) = x1 A + x2 rE, to an integer pairing normed for the determinant form
det(phi(x)) = (det A) x1^2 + (r tr A) x1 x2 + r^2 x2^2, and that pairing is
an instance of the plus families (k = 1, 2, 3) or of the minus-minus family
(k = 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .forms import Form, Mat2, Vec2, ext_gcd, is_scalar, mat_det, mat_mul
from .pairings import (
    Pairing,
    PlusParams,
    Quadruple,
    make_minus_minus,
    make_plus,
)


def mat_trace(a: Mat2) -> int:
    return a[0][0] + a[1][1]


def adjugate(a: Mat2) -> Mat2:
    """((d, -b), (-c, a)); satisfies A adj(A) = det(A) E."""
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def matrix_pair(k: int, x: Mat2, y: Mat2) -> Mat2:
    """S_k(X, Y) for k in 1..4."""
    if k == 1:
        return mat_mul(x, y)
    if k == 2:
        return mat_mul(adjugate(x), y)
    if k == 3:
        return mat_mul(x, adjugate(y))
    if k == 4:
        return adjugate(mat_mul(x, y))
    raise ValueError("pairing index must be 1..4")


@dataclass(frozen=True)
class Sublattice:
    """The rank-2 matrix lattice with basis (A, rE), A non-scalar, r > 0."""

    a: Mat2
    r: int

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError("scalar generator r must be positive")
        if is_scalar(self.a):
            raise ValueError("A must not be a scalar matrix")

    def phi(self, v: Vec2) -> Mat2:
        """Coordinates to matrices: (x1, x2) |-> x1 A + x2 rE."""
        x1, x2 = v
        a = self.a
        return (
            (x1 * a[0][0] + x2 * self.r, x1 * a[0][1]),
            (x1 * a[1][0], x1 * a[1][1] + x2 * self.r),
        )

    def det_form(self) -> Form:
        """det(x1 A + x2 rE) = (det A, r tr A, r^2) as a form."""
        return Form(mat_det(self.a), self.r * mat_trace(self.a), self.r * self.r)

    def coordinates(self, x: Mat2) -> tuple[Fraction, Fraction] | None:
        """Solve x = c1 A + c2 rE over Q; None when x is outside the plane."""
        a, r = self.a, self.r
        if a[0][1] != 0:
            c1 = Fraction(x[0][1], a[0][1])
        elif a[1][0] != 0:
            c1 = Fraction(x[1][0], a[1][0])
        else:
            # A is diagonal and non-scalar, so the diagonal gap is nonzero
            c1 = Fraction(x[0][0] - x[1][1], a[0][0] - a[1][1])
        c2 = (Fraction(x[0][0]) - c1 * a[0][0]) / r
        # verify all four entries
        if (
            c1 * a[0][1] == x[0][1]
            and c1 * a[1][0] == x[1][0]
            and c1 * a[0][0] + c2 * r == x[0][0]
            and c1 * a[1][1] + c2 * r == x[1][1]
        ):
            return c1, c2
        return None

    def contains(self, x: Mat2) -> bool:
        coords = self.coordinates(x)
        return coords is not None and coords[0].denominator == 1 and coords[1].denominator == 1


def check_stability(lat: Sublattice, k: int) -> bool:
    """Raw closure check: S_k of every basis pair lands back in the lattice.

    Equivalent to r | det(A) for k <= 3 and to r | tr(A)^2 - det(A) for
    k = 4 (tested property, not assumed here).
    """
    rE = ((lat.r, 0), (0, lat.r))
    basis = (lat.a, rE)
    for x in basis:
        for y in basis:
            if not lat.contains(matrix_pair(k, x, y)):
                return False
    return True


def canonicalize(gen1: Mat2, gen2: Mat2, k: int) -> Sublattice:
    """Canonical (A, rE) basis of the sublattice spanned by two matrices.

    Requires the span to be two-dimensional, to contain a nonzero scalar
    matrix (automatic for stable non-null sublattices), and to be stable
    under S_k.  The canonical A has its first nonzero value among
    (A12, A21, A11 - A22) positive and A11 reduced into [0, r).
    """
    # find the primitive (c1, c2) with c1 gen1 + c2 gen2 scalar
    constraints = [
        (gen1[0][1], gen2[0][1]),
        (gen1[1][0], gen2[1][0]),
        (gen1[0][0] - gen1[1][1], gen2[0][0] - gen2[1][1]),
    ]
    line: tuple[int, int] | None = None  # primitive direction, or None for all of Z^2
    for alpha, beta in constraints:
        if alpha == 0 and beta == 0:
            continue
        g = gcd(alpha, beta)
        direction = (beta // g, -alpha // g)
        if line is None:
            line = direction
        elif alpha * line[0] + beta * line[1] != 0:
            raise ValueError("span contains no nonzero scalar matrix")
    if line is None:
        # both generators already scalar: rank <= 1
        raise ValueError("generators span a line of scalars, not a rank-2 lattice")
    w1, w2 = line
    lam = w1 * gen1[0][0] + w2 * gen2[0][0]
    if lam == 0:
        raise ValueError("generators are linearly dependent")
    # complete (w1, w2) to a unimodular matrix: u1 w2 - u2 w1 = 1
    g, u1, u2 = ext_gcd(w2, -w1)
    if g != 1:
        raise ValueError("direction vector is not primitive")
    a = tuple(
        tuple(u1 * gen1[i][j] + u2 * gen2[i][j] for j in (0, 1)) for i in (0, 1)
    )
    r = abs(lam)
    # canonical sign: first nonzero of (A12, A21, A11 - A22) positive
    key = (a[0][1], a[1][0], a[0][0] - a[1][1])
    for entry in key:
        if entry > 0:
            break
        if entry < 0:
            a = tuple(tuple(-v for v in row) for row in a)
            break
    # reduce A11 into [0, r) by subtracting multiples of rE
    t = a[0][0] // r
    a = (
        (a[0][0] - t * r, a[0][1]),
        (a[1][0], a[1][1] - t * r),
    )
    lat = Sublattice((tuple(a[0]), tuple(a[1])), r)
    if not check_stability(lat, k):
        raise ValueError("sublattice is not stable under the requested pairing")
    return lat


def induced_pairing(
    lat: Sublattice, k: int
) -> tuple[Pairing, Form, PlusParams | Quadruple]:
    """Restrict S_k to a stable sublattice, in (A, rE) coordinates.

    Returns the coordinate pairing, the determinant form
    (det A, r tr A, r^2) it is normed for, and the recovered family
    parameters: PlusParams(det(A)/r, tr(A), r, 0, 1) for k <= 3, or
    Quadruple(-tr A, 0, -r, -(tr(A)^2 - det A)/r) for k = 4.  The
    reconstruction through make_plus / make_minus_minus is verified
    entry by entry before returning.  The four basis products that build
    the pairing are the stability check: ValueError when one leaves the plane.
    """
    r = lat.r

    def coordinates(x: Vec2, y: Vec2) -> Vec2:
        coords = lat.coordinates(matrix_pair(k, lat.phi(x), lat.phi(y)))
        if coords is None or coords[0].denominator != 1 or coords[1].denominator != 1:
            raise ValueError("sublattice is not stable under the requested pairing")
        return int(coords[0]), int(coords[1])

    pairing = Pairing.from_bilinear(coordinates)
    form = lat.det_form()

    det_a = mat_det(lat.a)
    tr_a = mat_trace(lat.a)
    params: PlusParams | Quadruple
    if k in (1, 2, 3):
        params = PlusParams(det_a // r, tr_a, r, 0, 1)
        rebuilt, rebuilt_form = make_plus(k, params)
    else:
        params = Quadruple(-tr_a, 0, -r, -((tr_a * tr_a - det_a) // r))
        rebuilt, rebuilt_form = make_minus_minus(params)
    if rebuilt != pairing or rebuilt_form != form:
        raise ArithmeticError("family reconstruction mismatch on a stable sublattice")
    return pairing, form, params

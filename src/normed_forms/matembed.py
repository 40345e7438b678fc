"""Two-dimensional sublattices of 2x2 integer matrices and their pairings.

The four matrix pairings on Mat2(Z) are

    S1(X, Y) = X Y          S2(X, Y) = adj(X) Y
    S3(X, Y) = X adj(Y)     S4(X, Y) = adj(X Y)

where adj is the adjugate (conjugation: adj(X) = tr(X) E - X), so S_k is
forms.coupling with the matrix product, as lattices.sigma is with the product
of Q(tau).  det is multiplicative for all four.

A sublattice span(A, rE) with A non-scalar and r > 0 is stable under S1..S3
iff r divides det(A), and stable under S4 iff r divides tr(A)^2 - det(A)
(forms._coupling_stable, which holds the proof).  On a stable sublattice the
pairing restricts, in coordinates phi(x) = x1 A + x2 rE, to an integer
pairing normed for the determinant form
det(phi(x)) = (det A) x1^2 + (r tr A) x1 x2 + r^2 x2^2, and that pairing is
an instance of the plus families (k = 1, 2, 3) or of the minus-minus family
(k = 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .forms import (Form, Mat2, Vec2, _coupling_stable, _off_scalar, coupling, hnf_rows,
                    is_scalar, mat_det, mat_mul, mat_trace)
from .pairings import (
    Pairing,
    PlusParams,
    Quadruple,
    make_minus_minus,
    make_plus,
)

__all__ = ["Sublattice", "adjugate", "canonicalize", "check_stability", "induced_pairing",
           "matrix_pair"]


def adjugate(a: Mat2) -> Mat2:
    """((d, -b), (-c, a)); satisfies A adj(A) = det(A) E."""
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def matrix_pair(k: int, x: Mat2, y: Mat2) -> Mat2:
    """S_k(X, Y) for k in 1..4: the coupling with the adjugate as conjugation."""
    return coupling(k, x, y, mat_mul, adjugate)


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

    def coordinates(self, x: Mat2) -> Vec2 | None:
        """Integer (c1, c2) with x = c1 A + c2 rE, or None when x is not in the lattice.

        c1 comes from the first nonzero off-scalar entry of A (A is not
        scalar), c2 from x11; phi of the candidate must give back x.
        """
        c1 = next(xe // ae for xe, ae in zip(_off_scalar(x), _off_scalar(self.a)) if ae)
        c2 = (x[0][0] - c1 * self.a[0][0]) // self.r
        return (c1, c2) if self.phi((c1, c2)) == x else None

    def contains(self, x: Mat2) -> bool:
        return self.coordinates(x) is not None


def check_stability(lat: Sublattice, k: int) -> bool:
    """Whether the plane is closed under S_k: r | det A for k <= 3,
    r | tr(A)^2 - det A for k = 4 (forms._coupling_stable)."""
    return _coupling_stable(lat.r, mat_trace(lat.a), mat_det(lat.a), k)


def canonicalize(gen1: Mat2, gen2: Mat2, k: int) -> Sublattice:
    """Canonical (A, rE) basis of the sublattice spanned by two matrices.

    Requires the span to be two-dimensional, to contain a nonzero scalar
    matrix (automatic for stable non-null sublattices), and to be stable
    under S_k.  The canonical A has its first nonzero value among
    (A12, A21, A11 - A22) positive and A11 reduced into [0, r).

    The span holds a nonzero scalar iff the off-scalar parts
    (X12, X21, X11 - X22) of the generators lie on one line, with primitive
    direction w whose first nonzero entry is positive.  Then X -> (X11, t),
    where t w is the off-scalar part of X, is injective on the span, rE maps
    to (r, 0), and the Hermite basis (r, 0), (a, b) gives back A.
    """
    parts = [_off_scalar(gen1), _off_scalar(gen2)]
    lead = next((p for p in parts if any(p)), None)
    if lead is None:
        raise ValueError("generators span a line of scalars, not a rank-2 lattice")
    i = next(j for j, e in enumerate(lead) if e)
    g = gcd(*lead) if lead[i] > 0 else -gcd(*lead)
    w = tuple(e // g for e in lead)
    rows = []
    for gen, part in zip((gen1, gen2), parts):
        t = part[i] // w[i]
        if part != tuple(t * e for e in w):
            raise ValueError("span contains no nonzero scalar matrix")
        rows.append((gen[0][0], t))
    r, a11, t = hnf_rows(rows)
    lat = Sublattice(((a11, t * w[0]), (t * w[1], a11 - t * w[2])), r)
    if not check_stability(lat, k):
        raise ValueError("sublattice is not stable under the requested pairing")
    return lat


def induced_pairing(
    lat: Sublattice, k: int
) -> tuple[Pairing, Form, PlusParams | Quadruple]:
    """Restrict S_k to a stable sublattice, in (A, rE) coordinates.

    Returns the coordinate pairing, the determinant form
    (det A, r tr A, r^2) it is normed for, and the family parameters:
    PlusParams(det(A)/r, tr(A), r, 0, 1) for k <= 3, or
    Quadruple(-tr A, 0, -r, -(tr(A)^2 - det A)/r) for k = 4.  The pairing
    is read off the family: S_k of the basis pairs, written in coordinates,
    are the entries of make_plus(k, ...) or make_minus_minus(...)
    (forms._coupling_stable lists the products).  ValueError when the
    plane is not stable under S_k.
    """
    r, tr_a, det_a = lat.r, mat_trace(lat.a), mat_det(lat.a)
    if not _coupling_stable(r, tr_a, det_a, k):
        raise ValueError("sublattice is not stable under the requested pairing")
    params: PlusParams | Quadruple
    if k == 4:
        params = Quadruple(-tr_a, 0, -r, -((tr_a * tr_a - det_a) // r))
        pairing, form = make_minus_minus(params)
    else:
        params = PlusParams(det_a // r, tr_a, r, 0, 1)
        pairing, form = make_plus(k, params)
    return pairing, form, params

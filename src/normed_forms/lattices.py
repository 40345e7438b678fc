"""Rank-2 lattices in the quadratic algebra Q(tau), tau^2 = Delta.

One exact model covers both targets of a normed pairing: for Delta < 0 the
algebra embeds in the complex numbers (tau = i sqrt(|Delta|)), for Delta > 0
in the split algebra of hyperbolic numbers (tau = j sqrt(Delta), j^2 = +1).
Elements are u + v tau with rational u, v; norm(u + v tau) = u^2 - Delta v^2
and trace = 2u, both exact Fractions.

A lattice is the Z-span of two independent elements.  Every such lattice has
a unique canonical basis (r, zeta): r is the least positive rational it
contains, zeta = u + v tau has the least positive v, and u is reduced into
the balanced range (-r/2, r/2].  It is the Hermite normal form
(forms.hnf_rows) of the generators' (u, v) rows scaled by their common
denominator, with the residue of u then balanced.  A lattice stores only the
ordered basis it was given (so a basis found by embed_form still reads off
the intended form); the canonical basis is computed from it when the lattice
is compared, hashed or asked for it, never at construction.

The four multiplicative couplings are

    sigma1(z, w) = z w         sigma2(z, w) = conj(z) w
    sigma3(z, w) = z conj(w)   sigma4(z, w) = conj(z w)

Stability of a lattice under sigma1..sigma3 is a single condition, and stable
integer-normed lattices are exactly the ideals of the quadratic order of the
matching discriminant.

embed_form writes a form (m, k, n) as the norm form of a lattice: it finds
e1 with norm(e1) = m through the shared row-solve kernel of forms (as the
form (-Delta, 0, 1) on (b, a)) among the e1 = (a + b tau)/d of height
max(|a|, |b|, d) <= 10, a fixed bound, and e2 in closed form,
e1 (k + tau) / (2m) when m != 0 and the unique zero-divisor solution when
m = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .forms import (DegenerateFormError, Definiteness, Form, _coupling_stable,
                    _is_discriminant, _row_solutions, coupling, exact_sqrt, hnf_rows)
from .matembed import Sublattice, adjugate

Rational = int | Fraction


@dataclass(frozen=True)
class Context:
    """Fixes the algebra: tau^2 = delta, with delta = 0 or 1 mod 4, nonzero."""

    delta: int

    def __post_init__(self) -> None:
        if not _is_discriminant(self.delta):
            raise ValueError("discriminant must be nonzero and 0 or 1 mod 4")

    @property
    def eps(self) -> int:
        """+1 for the complex case (delta < 0), -1 for the hyperbolic case."""
        return 1 if self.delta < 0 else -1

    def elem(self, u: Rational, v: Rational = 0) -> "QuadElem":
        return QuadElem(self, u, v)

    def one(self) -> "QuadElem":
        return self.elem(1)

    def tau(self) -> "QuadElem":
        return self.elem(0, 1)

    def order_generator(self) -> "QuadElem":
        """(k + tau)/2 with k = delta mod 2, the k of forms.principal_form."""
        return self.elem(Fraction(self.delta % 2, 2), Fraction(1, 2))


@dataclass(frozen=True)
class QuadElem:
    """u + v tau with rational coordinates."""

    ctx: Context
    u: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", Fraction(self.u))
        object.__setattr__(self, "v", Fraction(self.v))

    def _check(self, other: "QuadElem") -> None:
        if self.ctx != other.ctx:
            raise ValueError("elements from different contexts")

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.ctx, self.u + other.u, self.v + other.v)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.ctx, self.u - other.u, self.v - other.v)

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.ctx, -self.u, -self.v)

    def __mul__(self, other):
        if isinstance(other, QuadElem):
            self._check(other)
            d = self.ctx.delta
            return QuadElem(
                self.ctx,
                self.u * other.u + d * self.v * other.v,
                self.u * other.v + self.v * other.u,
            )
        return QuadElem(self.ctx, self.u * other, self.v * other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        return QuadElem(self.ctx, self.u / scalar, self.v / scalar)

    def conj(self) -> "QuadElem":
        return QuadElem(self.ctx, self.u, -self.v)

    def norm(self) -> Fraction:
        """u^2 - delta v^2 = z * conj(z)."""
        return self.u * self.u - self.ctx.delta * self.v * self.v

    def trace(self) -> Fraction:
        return 2 * self.u

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_rational(self) -> bool:
        return self.v == 0

    def is_quadratic_integer(self) -> bool:
        """Non-rational with integer trace and norm."""
        return (
            self.v != 0
            and self.trace().denominator == 1
            and self.norm().denominator == 1
        )

    def __str__(self) -> str:
        return f"({self.u} + {self.v} tau)"


def sigma(k: int, z: QuadElem, w: QuadElem) -> QuadElem:
    """The four couplings: zw, conj(z)w, z conj(w), conj(zw)."""
    return coupling(k, z, w, QuadElem.__mul__, QuadElem.conj)


def _canonical_data(gens) -> tuple[Fraction, Fraction, Fraction]:
    """Canonical (r, u_zeta, v_zeta) of the Z-span of the given elements.

    The Hermite basis of the integer rows den * (u, v), with the residue of
    u balanced into (-r/2, r/2].  Raises when the span has rank < 2.
    """
    den = lcm(*(q.denominator for g in gens for q in (g.u, g.v)))
    r, u, v = hnf_rows(
        tuple(q.numerator * (den // q.denominator) for q in (g.u, g.v)) for g in gens
    )
    if 2 * u > r:
        u -= r
    return Fraction(r, den), Fraction(u, den), Fraction(v, den)


def _cross(z: QuadElem, w: QuadElem) -> Fraction:
    """u_z v_w - u_w v_z: the determinant of the (u, v) rows of z and w."""
    return z.u * w.v - w.u * z.v


@dataclass(frozen=True, eq=False)
class Lattice:
    """Z-span of two independent elements of a context.

    Only the ordered generator pair is stored.  Equality, hashing and
    canonical_basis compute the canonical (r, zeta) basis when called.
    """

    ctx: Context
    e1: QuadElem
    e2: QuadElem

    def __post_init__(self) -> None:
        if self.e1.ctx != self.ctx or self.e2.ctx != self.ctx:
            raise ValueError("generators from a different context")
        if not _cross(self.e1, self.e2):
            raise ValueError("generators span a lattice of rank < 2")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ctx == other.ctx
            and _canonical_data([self.e1, self.e2])
            == _canonical_data([other.e1, other.e2])
        )

    def __hash__(self) -> int:
        return hash((self.ctx.delta, _canonical_data([self.e1, self.e2])))

    def canonical_basis(self) -> "CanonicalBasis":
        r, u, v = _canonical_data([self.e1, self.e2])
        return CanonicalBasis(r=r, zeta=QuadElem(self.ctx, u, v))

    def canonicalized(self) -> "Lattice":
        return hnf_from_generators(self.ctx, [self.e1, self.e2])

    def contains(self, z: QuadElem) -> bool:
        if z.ctx != self.ctx:
            raise ValueError("element from a different context")
        det = _cross(self.e1, self.e2)
        c1 = _cross(z, self.e2) / det
        c2 = _cross(self.e1, z) / det
        return c1.denominator == 1 and c2.denominator == 1

    def is_subset_of(self, other: "Lattice") -> bool:
        return other.contains(self.e1) and other.contains(self.e2)

    def discriminant(self) -> Fraction:
        """4 delta (u1 v2 - u2 v1)^2; an integer for integer-normed lattices."""
        return 4 * self.ctx.delta * _cross(self.e1, self.e2) ** 2

    def _integer_gram(self) -> tuple[int, int, int] | None:
        """(norm(e1), trace(e1 conj(e2)), norm(e2)), the generators swapped into
        the orientation of (1, tau); None unless all three are integers."""
        a, b = self.e1, self.e2
        if _cross(a, b) < 0:
            a, b = b, a
        gram = (a.norm(), (a * b.conj()).trace(), b.norm())
        if any(q.denominator != 1 for q in gram):
            return None
        return tuple(q.numerator for q in gram)

    def to_form(self) -> Form:
        """The norm form of the Gram values (_integer_gram); they must be integers."""
        gram = self._integer_gram()
        if gram is None:
            raise ValueError("lattice is not integer-normed")
        return Form(*gram)

    def is_integer_normed(self) -> bool:
        return self._integer_gram() is not None

    def scale(self, c: Rational) -> "Lattice":
        if c == 0:
            raise ValueError("cannot scale a lattice by zero")
        return Lattice(self.ctx, self.e1 * c, self.e2 * c)

    def stable_under(self, k: int) -> bool:
        """Closure under sigma_k: forms._coupling_stable on the canonical
        basis (r, zeta), with r and t = trace(zeta) integers.  L meets Q in
        Zr, so r^2 in L makes r an integer, and zeta^2 = t zeta - norm(zeta)
        (k = 1) or r conj(zeta) = t r - r zeta (k = 2, 3, 4) in L makes t one.
        """
        basis = self.canonical_basis()
        r, t = basis.r, basis.zeta.trace()
        # the helper first, so that a bad k raises whatever r and t are
        return (_coupling_stable(r, t, basis.zeta.norm(), k)
                and r.denominator == 1 and t.denominator == 1)

    def conjugate(self) -> "Lattice":
        return hnf_from_generators(self.ctx, [self.e1.conj(), self.e2.conj()])

    def __mul__(self, other: "Lattice") -> "Lattice":
        """The lattice generated by all pairwise products."""
        if not isinstance(other, Lattice):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError("lattices from different contexts")
        gens = [z * w for z in (self.e1, self.e2) for w in (other.e1, other.e2)]
        return hnf_from_generators(self.ctx, gens)

    def is_ideal_of(self, delta_star: int) -> bool:
        """Is L contained in and stable under the order of discriminant delta_star?

        delta_star must generate the same quadratic extension: delta/delta_star
        a positive rational square.
        """
        order = order_lattice(self.ctx, delta_star)
        omega = order.e2
        return (
            self.is_subset_of(order)
            and self.contains(omega * self.e1)
            and self.contains(omega * self.e2)
        )

    def is_principal(self) -> bool:
        """Whether the reduced primitive form of L is the principal form.

        Only for definite contexts (delta < 0), where reduction theory gives
        a decision.
        """
        if self.ctx.delta >= 0:
            raise ValueError("principality test requires delta < 0")
        return self.to_form().content_and_primitive()[1].is_principal()

    def cube_is_principal(self) -> bool:
        """Principality of L*L*L (content-normalized inside is_principal)."""
        return (self * self * self).is_principal()

    def matrix_embedding(self, k: int) -> Sublattice:
        """The matrix model of a sigma_k-stable integer-normed lattice.

        In the canonical basis (r, zeta), multiplication by zeta acts by an
        integer matrix A with the trace and norm of zeta as trace and
        determinant, so det(x1 A + x2 rE) = norm(x1 zeta + x2 r), and
        conj(zeta) = trace(zeta) - zeta by adj(A); returns Sublattice(A, r)
        for k = 1, Sublattice(adj(A), r) for k = 2, 3.  Refuses a lattice
        that is not integer-normed, then one that is not stable_under(k),
        the criterion matembed.check_stability applies to the matrix.
        """
        if k not in (1, 2, 3):
            raise ValueError("matrix model exists for couplings 1..3")
        if not self.is_integer_normed():
            raise ValueError("lattice is not integer-normed")
        if not self.stable_under(k):
            raise ValueError("lattice is not stable under the requested coupling")
        basis = self.canonical_basis()
        rr, t, nm = int(basis.r), int(basis.zeta.trace()), int(basis.zeta.norm())
        # columns: zeta * r = (0, r), zeta^2 = t zeta - nm
        a = ((0, -nm // rr), (rr, t))
        return Sublattice(a if k == 1 else adjugate(a), rr)


@dataclass(frozen=True)
class CanonicalBasis:
    """(r, zeta): least positive rational and a completing generator."""

    r: Fraction
    zeta: QuadElem


def hnf_from_generators(ctx: Context, gens) -> Lattice:
    """The lattice spanned by any finite generating set, in canonical basis."""
    gens = list(gens)
    if not gens:
        raise ValueError("no generators")
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("generator from a different context")
    r, u, v = _canonical_data(gens)
    return Lattice(ctx, ctx.elem(r), QuadElem(ctx, u, v))


def quadratic_order(delta: int) -> Lattice:
    """The maximal-by-discriminant order span(1, tau/2) or span(1, (1+tau)/2)."""
    return order_lattice(Context(delta), delta)


def order_lattice(ctx: Context, delta_star: int) -> Lattice:
    """The order of discriminant delta_star written in ctx coordinates.

    Requires delta_star to generate the same quadratic extension as the
    context, i.e. ctx.delta / delta_star a positive rational square.
    """
    omega = Context(delta_star).order_generator()  # u + v tau_star = u + (v/s) tau
    ratio = Fraction(ctx.delta, delta_star)
    if ratio <= 0:
        raise ValueError("context mismatch: discriminants of opposite sign")
    s = exact_sqrt(ratio)  # tau = s * tau_star
    if s is None:
        raise ValueError("context mismatch: discriminant ratio is not a square")
    return Lattice(ctx, ctx.one(), ctx.elem(omega.u, omega.v / s))


# The height of the numerators and denominator embed_form tries for e1.  The
# search is a box, not a decision: where m is no rational norm it visits every
# candidate, about (2/3) H^3 rows for height H, so the height stays fixed.
_EMBED_HEIGHT = 10


def embed_form(form: Form) -> Lattice | None:
    """Search for a lattice whose basis realizes the given form exactly.

    Seeks e1, e2 in Q(tau), tau^2 = Delta = disc(form), with norm(e1) = m,
    trace(e1 conj(e2)) = k, norm(e2) = n, positively oriented
    (u1 v2 - u2 v1 > 0).  e1 runs over the nonzero (a + b tau)/d with
    gcd(a, b, d) = 1 and max(|a|, |b|, d) <= _EMBED_HEIGHT = 10, in increasing
    height h, then d, then (a, b); the (b, a) with a^2 - Delta b^2 = m d^2
    are the row solutions of the form (-Delta, 0, 1).  e2 is then fixed:

    m != 0: w = e1 conj(e2) has trace k and norm mn, so (w - k/2)^2 = Delta/4,
    whose roots are (k +- tau)/2 and, when Delta is a square, rationals; a
    rational w makes e2 = conj(w) e1 / m dependent on e1.  The orientation
    u1 v2 - u2 v1 is the tau-part of conj(e1) e2 = conj(w), which forces
    w = (k - tau)/2.  So e2 = e1 (k + tau) / (2m), always positively oriented,
    and the first e1 is the answer.

    m = 0: then Delta = k^2 and e1 is a nonzero zero divisor, so e1 and
    conj(e1) are a basis of the algebra.  Writing e2 = x e1 + y conj(e1) gives
    norm(e2) = x y trace(e1^2) and trace(e1 conj(e2)) = y trace(e1^2), so the
    unique solution is e2 = (n/k) e1 + k conj(e1) / trace(e1^2); it is kept
    only when positively oriented.

    Returns the first hit, or None if the search box is exhausted (not a
    proof of non-existence).
    """
    delta = form.discriminant()
    if delta == 0:
        raise DegenerateFormError("embedding requires a nondegenerate form")
    if form.definiteness() is Definiteness.NEGATIVE_DEFINITE:
        # norms in the delta < 0 algebra are positive; no lattice exists
        return None
    ctx = Context(delta)
    m, k, n = form.m, form.k, form.n
    norm_form = Form(-delta, 0, 1)  # (b, a) -> a^2 - delta b^2
    for h in range(1, _EMBED_HEIGHT + 1):
        for d in range(1, h + 1):
            for b, a in _row_solutions(norm_form, m * d * d, range(-h, h + 1), h):
                if max(abs(a), abs(b), d) != h or gcd(a, b, d) != 1:
                    continue
                if a == b == 0:  # the zero vector solves m = 0
                    continue
                e1 = QuadElem(ctx, Fraction(a, d), Fraction(b, d))
                if m:
                    return Lattice(ctx, e1, e1 * ctx.elem(k, 1) / (2 * m))
                e2 = e1 * Fraction(n, k) + e1.conj() * (k / (e1 * e1).trace())
                if _cross(e1, e2) > 0:
                    return Lattice(ctx, e1, e2)
    return None

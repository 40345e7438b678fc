"""Binary integer quadratic forms.

A form (m, k, n) is the polynomial m*x1^2 + k*x1*x2 + n*x2^2 with integer
coefficients.  This module provides evaluation, discriminants, definiteness,
Gauss reduction with transform tracking, principal forms, exact representation
search, and a sampled check of the semigroup property
f(x)f(y) in f(Z^2).

All arithmetic is arbitrary-precision integer arithmetic; nothing here uses
floating point.

Closure theorem.  A primitive positive definite form f of discriminant D is
closed on Z^2 (every product f(x)f(y) is a value of f) exactly when its class
C has C^3 = 1.  The nonzero values of f are the norms of the invertible ideals
in C, and equally in C^-1 (D. Cox, Primes of the Form x^2 + ny^2,
Theorem 7.7; see semigroup_probe).  If C^3 = 1: for values u = N(a) and
v = N(b) with a, b in C, ab has norm uv and lies in C^2 = C^-1, so uv is a
value, and 0 = f(0, 0).  If C^3 != 1, then C != 1, and f represents a prime
p not dividing D (Weber's theorem, Cox Theorem 9.12), which splits as p p'
with p in C and p' in C^-1.  The ideals of norm p^2 are p^2, pp' = (p) and
p'^2, in the classes C^2, 1 and C^-2, none of which is C or C^-1, so
f(x)f(x) = p^2 for f(x) = p is not a value.  The census in the tests finds
"a normed pairing exists" (ClassificationReport.has_witness) exactly when
C^3 = 1 on -2000 <= D <= -3, but the direction "C^3 = 1 implies a pairing"
is not proved, so no DECIDED verdict rests on it.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product, starmap
from math import gcd, isqrt, prod
from operator import mul

__all__ = ["DegenerateFormError", "Definiteness", "Form", "SemigroupReport",
           "principal_form", "reduced_forms", "semigroup_probe"]

Vec2 = tuple[int, int]
Mat2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Mat2 = ((1, 0), (0, 1))

# The package's one search budget, in rows solved (about 0.8 s for one
# indefinite search at the cap), under this one name in classify and cli too.
# Form.represent refuses a search, and semigroup_probe a form, whose searches
# could solve more rows, and reduced_forms a discriminant that needs more
# trials.
MAX_SEARCH_ROWS = 10**6

# The default side of an indefinite search box, |xi| <= DEFAULT_BOX: the box_bound
# of Form.represent and the classify searches, and classify --box.  semigroup_probe
# takes no box and keeps its own _PROBE_SEARCH.
DEFAULT_BOX = 100

# a x1^2 + b x1 x2 + c x2^2 takes the values a, c and a + b + c here, so these
# points fix a binary quadratic form: one that vanishes on all three is zero.
QUADRATIC_POINTS: tuple[Vec2, Vec2, Vec2] = ((1, 0), (0, 1), (1, 1))


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_det(a: Mat2) -> int:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def mat_trace(a: Mat2) -> int:
    return a[0][0] + a[1][1]


def _off_scalar(a: Mat2) -> tuple[int, int, int]:
    """(A12, A21, A11 - A22): zero exactly when A is scalar."""
    return (a[0][1], a[1][0], a[0][0] - a[1][1])


def is_scalar(a: Mat2) -> bool:
    """Whether a is a multiple of the identity."""
    return not any(_off_scalar(a))


def coupling(k: int, x, y, mul, conj):
    """The k-th multiplicative coupling xy, conj(x)y, x conj(y), conj(xy).

    One definition for both models of a pairing: lattices.sigma passes the
    product and conjugate of Q(tau), matembed.matrix_pair the matrix product
    and the adjugate.
    """
    if k == 1:
        return mul(x, y)
    if k == 2:
        return mul(conj(x), y)
    if k == 3:
        return mul(x, conj(y))
    if k == 4:
        return conj(mul(x, y))
    raise ValueError("coupling index must be 1..4")


def _coupling_stable(r, trace, norm, k: int) -> bool:
    """Whether span(zeta, r) is closed under the k-th coupling: r | norm for
    k <= 3, r | trace^2 - norm for k = 4; ValueError for any other k.

    The one stability criterion of both lattice models: matembed passes
    (r, tr A, det A) for span(A, rE), lattices the canonical basis (r, zeta).
    Proof.  Let r be a positive integer, zeta non-scalar, t = trace(zeta) an
    integer and n = norm(zeta) rational, so that conj(zeta) = t - zeta and
    zeta conj(zeta) = conj(zeta) zeta = n (for matrices, adj(A) A =
    A adj(A) = det(A) E).  As 1 and zeta are independent, x zeta + y lies in
    the span exactly when x and y / r are integers.  The basis pairs give
    r^2, r zeta and r conj(zeta) = t r - r zeta, which always lie in the
    span, and one more product: zeta^2 = t zeta - n for k = 1,
    conj(zeta) zeta = zeta conj(zeta) = n for k = 2, 3, and
    conj(zeta^2) = conj(zeta)^2 = (t^2 - n) - t zeta for k = 4.  It lies in
    the span exactly when n / r, respectively (t^2 - n) / r, is an integer.
    These are the paper's families: on a stable span(A, rE) the coupling is
    the plus pairing of (det A / r, tr A, r) or the minus-minus pairing of
    (-tr A, 0, -r, -(tr(A)^2 - det A) / r) (matembed.induced_pairing).
    """
    if k in (1, 2, 3):
        return norm % r == 0
    if k == 4:
        return (trace * trace - norm) % r == 0
    raise ValueError("coupling index must be 1..4")


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_rows(rows: Iterable[Vec2]) -> tuple[int, int, int]:
    """(r, a, b): the Hermite basis (r, 0), (a, b) of the Z-span of integer rows.

    b > 0 and 0 <= a < r (H. Cohen, A Course in Computational Algebraic
    Number Theory, 2.4.2).  A row (x, y) with y != 0 is folded into (a, b) by
    the determinant -1 matrix [[s, t], [y/g, -b/g]], s b + t y = g, which
    leaves (s a + t x, g) and the row ((y a - b x)/g, 0).  ValueError when
    the rows have rank < 2.
    """
    r = a = b = 0
    for x, y in rows:
        if y == 0:
            r = gcd(r, x)
            continue
        g, s, t = ext_gcd(b, y)
        a, b, r = s * a + t * x, g, gcd(r, (y // g) * a - (b // g) * x)
    if r == 0 or b == 0:
        raise ValueError("rows span a lattice of rank < 2")
    return r, a % r, b


def exact_sqrt(x: int | Fraction) -> int | Fraction | None:
    """The nonnegative square root of an int or Fraction, or None if irrational."""
    if x < 0:
        return None
    if isinstance(x, Fraction):
        # a reduced fraction is a square iff numerator and denominator are
        num, den = exact_sqrt(x.numerator), exact_sqrt(x.denominator)
        return None if num is None or den is None else Fraction(num, den)
    root = isqrt(x)
    return root if root * root == x else None


class DegenerateFormError(ValueError):
    """Raised when an operation needs a nonzero discriminant."""


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    NEGATIVE_DEFINITE = "negative_definite"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Form:
    """The binary quadratic form m*x1^2 + k*x1*x2 + n*x2^2."""

    m: int
    k: int
    n: int

    def __call__(self, v: Vec2) -> int:
        x1, x2 = v
        return self.m * x1 * x1 + self.k * x1 * x2 + self.n * x2 * x2

    def __neg__(self) -> "Form":
        return Form(-self.m, -self.k, -self.n)

    def coefficients(self) -> tuple[int, int, int]:
        return (self.m, self.k, self.n)

    def discriminant(self) -> int:
        """k^2 - 4mn; always congruent to 0 or 1 mod 4."""
        return self.k * self.k - 4 * self.m * self.n

    def definiteness(self) -> Definiteness:
        d = self.discriminant()
        if d > 0:
            return Definiteness.INDEFINITE
        if d == 0:
            return Definiteness.DEGENERATE
        # d < 0 forces m*n > 0, so the sign of m decides.
        if self.m > 0:
            return Definiteness.POSITIVE_DEFINITE
        return Definiteness.NEGATIVE_DEFINITE

    def is_zero(self) -> bool:
        return self.m == 0 and self.k == 0 and self.n == 0

    def content(self) -> int:
        """gcd of the coefficients.  Errors on the zero form."""
        if self.is_zero():
            raise ValueError("zero form has no content")
        return gcd(self.m, self.k, self.n)

    def is_primitive(self) -> bool:
        return self.content() == 1

    def content_and_primitive(self) -> tuple[int, "Form"]:
        g = self.content()
        return g, Form(self.m // g, self.k // g, self.n // g)

    def doubled_gram(self) -> Mat2:
        """The integer matrix ((2m, k), (k, 2n)) of the doubled polarization.

        For integer vectors u, v the product u . (doubled gram) . v equals
        twice the polar bilinear value, and is always an integer even when k
        is odd.
        """
        return ((2 * self.m, self.k), (self.k, 2 * self.n))

    def transform(self, mat: Mat2) -> "Form":
        """The form x |-> f(mat @ x) for a determinant-1 integer matrix."""
        if mat_det(mat) != 1:
            raise ValueError("transform matrix must have determinant 1")
        (a, b), (c, d) = mat
        m2 = self((a, c))
        n2 = self((b, d))
        k2 = 2 * self.m * a * b + self.k * (a * d + b * c) + 2 * self.n * c * d
        return Form(m2, k2, n2)

    def reduce(self) -> tuple["Form", Mat2]:
        """Gauss-reduce a primitive positive definite form.

        Returns (g, M) where M has determinant 1 and g = self.transform(M) is
        the unique reduced representative: |k| <= m <= n with k >= 0 whenever
        |k| = m or m = n.  Each step translates k into (-m, m] or, with k
        already there, swaps m and n; the loop stops on is_reduced().
        """
        if self.definiteness() is not Definiteness.POSITIVE_DEFINITE:
            raise ValueError("reduction requires a positive definite form")
        if not self.is_primitive():
            raise ValueError("reduction requires a primitive form")
        f = self
        acc = IDENTITY
        while not f.is_reduced():
            m, k = f.m, f.k
            if k > m or k <= -m:
                step: Mat2 = ((1, (m - k) // (2 * m)), (0, 1))
            else:
                # m > n, or k < 0 with m = n (k = -m was translated)
                step = ((0, -1), (1, 0))
            f = f.transform(step)
            acc = mat_mul(acc, step)
        return f, acc

    def is_principal(self) -> bool:
        """Whether the reduced form is the principal form (ValueError as in reduce)."""
        return self.reduce()[0] == principal_form(self.discriminant())

    def is_reduced(self) -> bool:
        if self.definiteness() is not Definiteness.POSITIVE_DEFINITE:
            return False
        m, k, n = self.m, self.k, self.n
        if not (abs(k) <= m <= n):
            return False
        if k < 0 and (abs(k) == m or m == n):
            return False
        return True

    def represent(self, target: int, box_bound: int = DEFAULT_BOX) -> Vec2 | None:
        """Search for an integer vector v with self(v) == target.

        Returns the first witness in lexicographic (x2, x1) order.  As
        f(-v) = f(v) and the search region is symmetric, the first witness
        has x2 <= 0, so only those rows are solved, one exact solve per row.

        Definite forms (|disc| = 4mn - k^2 > 0): exact decision on the
        ellipse f = target; box_bound is ignored and None is a proof of
        non-representability.  A negative definite form solves -f = -target,
        which has the same solutions, so take m > 0 and target >= 0.  With
        x2 = -y, 4m*f(x) = (2m*x1 - k*y)^2 + |disc|*y^2, so a solution has
        (2m*x1 - k*y)^2 = row = 4m*target - |disc|*y^2 and x1 is
        (k*y - s)/(2m) or (k*y + s)/(2m) for s = isqrt(row).  The rows are
        y = R, R - 1, ..., 0 with R = isqrt(4m*target // |disc|), the largest
        y with row >= 0, so no row is negative.  No column bound is needed:
        every real point of the ellipse has |x1| <= sqrt(4n*target/|disc|),
        so an integer root of a row already lies inside it.  Descending y is
        ascending x2, and (k*y - s)/(2m) is the smaller root, so the first
        root found is the first witness in (x2, x1) order.

        Indefinite and degenerate forms: bounded search over
        |x1|, |x2| <= box_bound (see _row_solutions); None only means "not
        found within the box".

        ValueError, before any row is solved, when the search would solve
        more than MAX_SEARCH_ROWS rows: R + 1 on a definite form with a
        target of its sign, box_bound + 1 otherwise (the limit is then
        MAX_SEARCH_ROWS + 1 rows, as for the CLI's --box).  No call inside
        the package is refused: search_plus refuses a form whose represent
        calls would exceed these counts before it makes one, and
        semigroup_probe's searches each solve at most the cap of
        _probe_cap, which is at most MAX_SEARCH_ROWS.
        """
        m, k = self.m, self.k
        absd = 4 * m * self.n - k * k
        if absd <= 0:
            if box_bound > MAX_SEARCH_ROWS:
                raise ValueError(f"the representation search would solve {box_bound + 1} "
                                 f"rows, more than {MAX_SEARCH_ROWS + 1}")
            return next(_row_solutions(self, target, range(-box_bound, 1), box_bound), None)
        if m < 0:
            m, k, target = -m, -k, -target
        if target < 0:
            return None
        two_m = 2 * m
        four_mt = two_m * 2 * target
        top = isqrt(four_mt // absd)
        if top + 1 > MAX_SEARCH_ROWS:
            raise ValueError(f"the representation search would solve {top + 1} rows, "
                             f"more than {MAX_SEARCH_ROWS}")
        for y in range(top, -1, -1):
            row = four_mt - absd * y * y
            s = isqrt(row)
            if s * s == row:
                if (k * y - s) % two_m == 0:
                    return ((k * y - s) // two_m, -y)
                if (k * y + s) % two_m == 0:
                    return ((k * y + s) // two_m, -y)
        return None


def _row_solutions(form: Form, target: int, rows: range, col_bound: int) -> Iterator[Vec2]:
    """Every (x1, x2) with form((x1, x2)) == target, x2 in rows, |x1| <= col_bound.

    One exact solve per row: the quadratic in x1, whose discriminant is
    disc*x2^2 + 4*m*target, by integer square root; or the linear equation
    when m = 0, where a row with k*x2 = 0 solves for every x1 or for none.
    Ascending rows give lexicographic (x2, x1) order.
    """
    m, k, n = form.m, form.k, form.n
    if m < 0:  # same solutions; with m > 0 a row's two roots ascend
        m, k, n, target = -m, -k, -n, -target
    if m == 0:
        for x2 in rows:
            slope = k * x2
            rest = target - n * x2 * x2
            if slope == 0:
                if rest == 0:
                    for x1 in range(-col_bound, col_bound + 1):
                        yield (x1, x2)
            elif rest % slope == 0 and abs(rest // slope) <= col_bound:
                yield (rest // slope, x2)
        return
    disc = k * k - 4 * m * n
    four_mt = 4 * m * target
    two_m = 2 * m
    for x2 in rows:
        row_disc = disc * x2 * x2 + four_mt
        if row_disc < 0:
            continue
        s = isqrt(row_disc)
        if s * s != row_disc:
            continue
        for numer in (-k * x2 - s, -k * x2 + s) if s else (-k * x2,):
            if numer % two_m == 0 and abs(numer // two_m) <= col_bound:
                yield (numer // two_m, x2)


# semigroup_probe's sample box |xi| <= 3 and indefinite search box
# |xi| <= 100: the boxes behind every pinned catalog digest.
_PROBE_SAMPLE = 3
_PROBE_SEARCH = 100


@dataclass(frozen=True)
class SemigroupReport:
    """Outcome of sampling the semigroup property f(x)f(y) in f(Z^2).

    values holds the sample's distinct values.  pairs_checked, the 49^2
    ordered pairs of sample points, and products_checked, the distinct
    products of two values, are computed when read: the probe itself never
    needs them.
    """

    form: Form
    values: tuple[int, ...]
    counterexample_count: int
    decided: bool

    @property
    def pairs_checked(self) -> int:
        return (2 * _PROBE_SAMPLE + 1) ** 4

    @property
    def products_checked(self) -> int:
        return len(set(starmap(mul, combinations_with_replacement(self.values, 2))))


def _probe_cap(search: Form, values: int, top: int) -> int:
    """The row cap of one semigroup_probe search on search, for a sample of
    that many distinct values with largest value top (read on definite forms
    only); or ValueError when the searches could solve more than
    MAX_SEARCH_ROWS rows in all."""
    # No search solves more than cap rows; write (m, k, n) for search.  A
    # product t <= top^2 takes isqrt(4m t // |disc|) + 1 rows on a definite
    # form, box + 1 on an indefinite one.  A closed-value search for u <= top
    # runs on the principal form or f o f, reduced, so with leading
    # coefficient at most sqrt(|disc|/3), hence at most mn (|disc| <= 4mn);
    # it takes at most isqrt(4mn u // |disc|) + 1 rows, and n <= top: n is
    # f(0, 1) when search is f, and otherwise, search being reduced, the
    # least value of f on a vector independent of one of value m, at most
    # the larger of f(1, 0) and f(0, 1).  The trial divisions of
    # _nonresidue_primes and _is_prime stop below cap as well.
    disc = search.discriminant()
    cap = isqrt(4 * search.m * top * top // -disc) + 1 if disc < 0 else _PROBE_SEARCH + 1
    rows = (values * (values + 1) // 2 + 2 * values) * cap
    if rows > MAX_SEARCH_ROWS:
        raise ValueError(f"the semigroup probe could solve {rows} rows, "
                         f"more than {MAX_SEARCH_ROWS}")
    return cap


def semigroup_probe(form: Form) -> SemigroupReport:
    """Probe whether every product f(x)f(y) is itself a value of f.

    Samples all pairs x, y in the box |xi| <= 3 and counts those whose
    product is not a value.  For definite forms the inner representability
    search is exact, so a nonzero count proves that the form lacks the
    semigroup property; for indefinite forms the search covers
    |xi| <= 100 and the report is advisory only (decided is False).
    ValueError, before any search, when the searches could solve more than
    MAX_SEARCH_ROWS rows in all.

    Most products are decided without a search.  0 is a closed value.  The
    genus rule: take an odd prime p | D (D the discriminant) with e = v_p(D)
    and a = m, or a = n when p | m, such that (a/p) = -1 (see
    _nonresidue_primes).  Then 4a*f(x) = X^2 - D*Y^2 with X = 2m*x1 + k*x2,
    Y = x2 (or X = k*x1 + 2n*x2, Y = x1 when a = n).  Let t = f(x) != 0 and
    t = p^j * t' with p not dividing t'; p does not divide 4a, so
    v_p(4a*t) = j.  If v_p(X^2) < v_p(D*Y^2), then j = 2*v_p(X) is even and
    4a*t' = (X / p^(j/2))^2 mod p, so (t'/p) = (a/p) = -1.  Otherwise
    j >= v_p(D*Y^2) >= e.  So a value with j < e has j even and
    (t'/p) = -1.  A product t = u*v of two values with p^e not dividing t
    has j < e for u and v too, so j is even and (t'/p) = (-1)^2 = 1: t is
    not a value.  When e is odd, v_p(X^2) and v_p(D*Y^2) differ in parity,
    so a value with even j has (t'/p) = -1 as above, and one with odd j has
    j = v_p(D*Y^2) = e + 2i (i = v_p(Y)) and 4a*t' = -D'*(Y/p^i)^2 mod p
    with D' = D/p^e, so (t'/p) = (-a*D'/p) = c, the same c = +-1 for every
    odd-j value.  A product of two values then has even j and
    (t'/p) = 1 != -1, or odd j and (t'/p) = -c != c, so no nonzero product
    is a value.  With P the product of the p^e, t % P != 0 proves that t
    is not a value, and an odd e rules out every t != 0.  These facts hold
    on all of Z^2, definite or not, so a box search can never disagree.
    Any subset of the primes is sound, so the trial division of D stops at
    the number of rows one search of the largest product would visit.

    Square scaling, definite forms only: f(2w) = 4f(w) and f(3w) = 9f(w),
    so t is a value when t/4 or t/9 is already known to be one; a lookup
    that finds nothing falls back to the search.  represent is exact on Z^2
    only for definite forms; an indefinite box search can find w but miss
    2w outside the box.

    Class rules, primitive positive definite forms only.  Let O be the
    order of discriminant D and C the class of f's lattice
    L = Z*m + Z*(k + sqrt(D))/2, an invertible O-ideal.  The nonzero values
    of f are the norms of the invertible ideals in C (D. Cox, Primes of the
    Form x^2 + ny^2, Theorem 7.7), and as conjugation maps C onto C^-1 with
    the same norms, also those of C^-1.  So the principal form P takes the
    norms of class 1, and F = f o f (_square) those of C^2 and C^-2.  Call a
    sample value u closed when u = 0 or P or F represents u.  (1) A closed u
    times any value v is a value: take a of norm u in class 1 or C^-2 and b
    of norm v in C; ab has norm u*v and lies in C or C^-1.  For P this is
    just multiplication by an alpha in O of norm u, which maps L into L.
    (2) The prime rule: let p be a prime value with p not dividing D, and v
    a value that is not closed; then p*v is not a value.  The invertible
    ideals of norm p are the two primes over p (p splits, being a norm
    prime to D), of classes C and C^-1.  An ideal c of norm p*v in class C
    lies in one of them, say q, as p is prime to the conductor, and
    c = q*b with b integral of norm v in class 1 or C^2, which would make v
    closed.  This needs no p-freeness of v.  So a product of two values
    that are not closed, one of them a prime u not dividing D, is not a
    value.  (3) When some e of the genus rule is odd, no closed nonzero
    value exists and no nonzero product is a value, so the counterexample
    count is the square of the number of nonzero sample points, and neither
    the lookup table nor the pair loop is built, for every form.

    So only the open values, those not closed, need deciding (0 is closed
    for every form, as 0 * v = f(0, 0)).  A pair with a closed factor is
    always a value, and an open pair with a prime-rule factor never is: the
    lookup table starts with both sets of products (True and False), built
    by dict.fromkeys in C.  The pair loop walks the remaining open values,
    those that are no prime of the prime rule, and decides each new product
    once, by the table, the genus rule, square scaling, then a search.
    Ascending |u| decides t/4 and t/9 before t (unsorted, the probes of the
    -400..-3 catalog make 7,889 searches, not 7,316).  Let W be the number of
    sample points whose value is open and R the number whose value is
    remaining.  The count is W^2 minus the ordered pairs of remaining points
    whose product is a value, that is W^2 - R^2 (the open pairs with a
    prime-rule value) plus the ordered pairs of remaining points whose
    product is not.  The loop counts the latter, as an indefinite form's
    products are nearly all values.

    The search is represent(t) on a definite form.  A positive definite
    form that is not reduced is searched as c*g, for c its content and g the
    reduced form of its primitive part: the same values on Z^2 (reduce
    changes the basis by a determinant-1 matrix), and the fewest rows, as
    the leading coefficient of c*g is the least nonzero value.  So
    (29, 24, 5), which is (1, 0, 1) in another basis, is probed within the
    budget below.  A reduced form, every catalog form among them, is c*g
    already; it is searched as it is, as rebuilding it cost the -400..-3
    catalog's probes 3% of their time.  An indefinite form only needs to
    know whether some |x1|, |x2| <= 100 solves f = t, not the
    lexicographically first witness that represent returns from x2 = -100
    upwards, so it runs the same row kernel (_row_solutions) over the same
    half box x2 in [-100, 0] in the other order, outward from x2 = 0, and
    stops at the first solution.  The answer is represent's: f(-v) = f(v),
    so the half box takes every value of the full box, and only the order
    of the rows changes.  Solutions lie near x2 = 0 far more often than
    near the edge of the box: the 558 searches of a 5..8 catalog at box 6
    solve 22,368 rows from the edge and 2,783 outward.
    """
    disc = form.discriminant()
    if disc == 0:
        raise DegenerateFormError("semigroup probe requires a nondegenerate form")
    search = form
    if disc < 0 < form.m and not form.is_reduced():
        c, primitive = form.content_and_primitive()
        search = Form(*(c * e for e in primitive.reduce()[0].coefficients()))
    side = range(-_PROBE_SAMPLE, _PROBE_SAMPLE + 1)
    # f(x)f(y) depends only on the two values, so each unordered pair of
    # distinct values is tested once and stands for mult*mult ordered pairs
    mult = Counter(map(form, product(side, side)))
    # definite: products of two values are >= 0; the largest m*t takes the
    # most rows
    top = max(mult, key=lambda u: search.m * u * u, default=0)
    cap = _probe_cap(search, len(mult), top)
    ramified = _nonresidue_primes(form, disc, cap)
    if any(e % 2 for _, e in ramified):
        # the genus rule with an odd e: no nonzero product is a value
        return SemigroupReport(form, tuple(mult), (len(side) ** 2 - mult[0]) ** 2, disc < 0)
    modulus = prod(p ** e for p, e in ramified)
    closed = {0}  # 0 * v = f(0, 0)
    excluded: set[int] = set()
    if disc < 0 < form.m and form.is_primitive():
        squares = dict.fromkeys((principal_form(disc), _square(form)))
        closed |= {u for u in mult
                   if u and any(g.represent(u) is not None for g in squares)}
        excluded = {u for u in mult if u not in closed and disc % u and _is_prime(u)}
    open_values = [u for u in mult if u not in closed]
    # a closed factor makes a value, a prime-rule factor of an open pair does not
    representable = dict.fromkeys(starmap(mul, product(excluded, open_values)), False)
    representable.update(dict.fromkeys(starmap(mul, product(closed, mult)), True))
    count = 0
    outward = range(0, -_PROBE_SEARCH - 1, -1)
    # the remaining open values, ascending |u| (see the docstring)
    rest = sorted((u for u in open_values if u not in excluded), key=abs)
    for u, v in combinations_with_replacement(rest, 2):
        t = u * v
        found = representable.get(t)
        if found is None:
            if t % modulus:
                found = False  # the genus rule
            elif disc < 0 and (t % 4 == 0 and representable.get(t // 4)
                               or t % 9 == 0 and representable.get(t // 9)):
                found = True  # square scaling
            elif disc < 0:
                found = search.represent(t, _PROBE_SEARCH) is not None
            else:  # outward from x2 = 0 (see the docstring)
                found = next(_row_solutions(form, t, outward, _PROBE_SEARCH), None) is not None
            representable[t] = found
        if not found:
            count += mult[u] * mult[v] * (1 if u == v else 2)
    width = sum(mult[u] for u in open_values)
    kept = sum(mult[u] for u in rest)
    return SemigroupReport(form, tuple(mult), width * width - kept * kept + count, disc < 0)


def _square(form: Form) -> Form:
    """The reduced form of f o f, for f primitive positive definite.

    Dirichlet composition of f with itself (H. Cohen, A Course in
    Computational Algebraic Number Theory, Algorithm 5.4.7 with both inputs
    equal): with d = gcd(k, m) = x*k + y*m, v = m/d and r = -x*n mod v,
    B = k + 2v*r has B = k mod 2v and B^2 = D mod 4v^2 (as k*r + d*n =
    y*m*n = 0 mod v), so (v^2, B, (B^2 - D)/4v^2) is an integer form of
    discriminant D, and it is the square of f's class.
    """
    m, k, n = form.m, form.k, form.n
    d, x, _ = ext_gcd(k, m)
    v = m // d
    b = k + 2 * v * (-x * n % v)
    return Form(v * v, b, (b * b - form.discriminant()) // (4 * v * v)).reduce()[0]


def _is_prime(t: int) -> bool:
    """Trial division; for the small values of a sample box."""
    return t > 1 and all(t % p for p in range(2, isqrt(t) + 1))


def _nonresidue_primes(form: Form, disc: int, cap: int) -> list[tuple[int, int]]:
    """(p, e) for the odd primes p | disc with (a/p) = -1, where a is m, or n
    when p | m, and e = v_p(disc).

    Primes dividing both m and n are never returned.  Trial division stops
    once p exceeds cap; a cofactor left then is not known to be prime and is
    dropped, so primes of disc above cap may be missing, never wrong.  Each
    prime found is divided out fully, so its e is exact; a prime cofactor
    has no smaller factor, so its e is 1.
    """
    rest = abs(disc)
    while rest % 2 == 0:
        rest //= 2
    odd_primes = []
    p = 3
    while p * p <= rest and p <= cap:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            odd_primes.append((p, e))
        p += 2
    if 1 < rest < p * p:  # no odd factor below sqrt(rest): rest is prime
        odd_primes.append((rest, 1))
    # Euler's criterion; a prime dividing both m and n gives 0, not p - 1
    return [(p, e) for p, e in odd_primes
            if pow(form.m if form.m % p else form.n, (p - 1) // 2, p) == p - 1]


def _is_discriminant(delta: int) -> bool:
    """Whether delta is the discriminant of a form: nonzero and 0 or 1 mod 4."""
    return delta != 0 and delta % 4 in (0, 1)


def principal_form(delta: int) -> Form:
    """The principal form (1, k, (k - delta)/4) of discriminant delta.

    k = delta mod 2, the one k in {0, 1} with k^2 = delta mod 4 (the same k
    as in lattices.Context.order_generator): (1, 0, -delta/4) for
    delta = 0 mod 4, (1, 1, (1 - delta)/4) for delta = 1 mod 4.
    """
    if not _is_discriminant(delta):
        raise ValueError("discriminant must be nonzero and 0 or 1 mod 4")
    k = delta % 2
    return Form(1, k, (k - delta) // 4)


def reduced_forms(delta: int) -> list[Form]:
    """All primitive reduced positive definite forms of discriminant delta.

    Deterministic order: ascending |k|, then m, then sign of k (+ first).
    Reduced forms have k^2 <= |delta|/3 and mn = (k^2 + |delta|)/4 <= |delta|/3,
    so with K = isqrt(|delta| // 3) at most (K // 2 + 1)(K + 1) pairs (k, m) are
    tried.  Over MAX_SEARCH_ROWS trials it raises ValueError before the first:
    every |delta| <= 5,998,187 is admitted, and every larger one refused.
    """
    if delta >= 0 or not _is_discriminant(delta):
        raise ValueError("reduced-form enumeration requires a discriminant delta < 0")
    root = isqrt(-delta // 3)
    trials = (root // 2 + 1) * (root + 1)
    if trials > MAX_SEARCH_ROWS:
        raise ValueError(f"reduced-form enumeration would make {trials} trials, "
                         f"more than {MAX_SEARCH_ROWS}")
    out: list[Form] = []
    for k in range(delta % 2, root + 1, 2):
        # k = delta mod 2 gives k^2 = delta mod 4, so mn is an integer
        mn = (k * k - delta) // 4
        for m in range(max(k, 1), isqrt(mn) + 1):
            if mn % m:
                continue
            n = mn // m
            if gcd(m, k, n) != 1:
                continue
            out.append(Form(m, k, n))
            if 0 < k < m < n:
                out.append(Form(m, -k, n))
    return out

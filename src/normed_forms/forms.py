"""Binary integer quadratic forms.

A form (m, k, n) is the polynomial m*x1^2 + k*x1*x2 + n*x2^2 with integer
coefficients.  This module provides evaluation, discriminants, definiteness,
Gauss reduction with transform tracking, principal forms, exact representation
search, and a sampled check of the semigroup property
f(x)f(y) in f(Z^2).

All arithmetic is arbitrary-precision integer arithmetic; nothing here uses
floating point.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import gcd, isqrt, prod

Vec2 = tuple[int, int]
Mat2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Mat2 = ((1, 0), (0, 1))

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


def is_scalar(a: Mat2) -> bool:
    """Whether a is a multiple of the identity."""
    return a[0][1] == 0 and a[1][0] == 0 and a[0][0] == a[1][1]


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


def floor_sqrt_ratio(p: int, q: int) -> int:
    """floor(sqrt(p / q)) for p >= 0 < q, exactly."""
    return isqrt(p * q) // q


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
        |k| = m or m = n.
        """
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

    def is_reduced(self) -> bool:
        if self.definiteness() is not Definiteness.POSITIVE_DEFINITE:
            return False
        m, k, n = self.m, self.k, self.n
        if not (abs(k) <= m <= n):
            return False
        if k < 0 and (abs(k) == m or m == n):
            return False
        return True

    def represent(self, target: int, box_bound: int = 100) -> Vec2 | None:
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
        """
        m, k = self.m, self.k
        absd = 4 * m * self.n - k * k
        if absd <= 0:
            return next(_row_solutions(self, target, range(-box_bound, 1), box_bound), None)
        if m < 0:
            m, k, target = -m, -k, -target
        if target < 0:
            return None
        two_m = 2 * m
        four_mt = two_m * 2 * target
        for y in range(isqrt(four_mt // absd), -1, -1):
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


@dataclass(frozen=True)
class SemigroupReport:
    """Outcome of sampling the semigroup property f(x)f(y) in f(Z^2)."""

    form: Form
    sample_bound: int
    search_bound: int
    pairs_checked: int
    products_checked: int
    counterexample_count: int
    counterexamples: tuple[tuple[Vec2, Vec2], ...]
    decided: bool


def semigroup_probe(form: Form, sample_bound: int = 3,
                    search_bound: int = 100,
                    max_recorded: int = 20) -> SemigroupReport:
    """Probe whether every product f(x)f(y) is itself a value of f.

    Samples all pairs x, y in the box |xi| <= sample_bound.  For definite
    forms the inner representability search is exact, so each recorded
    counterexample pair is a proof that the form lacks the semigroup
    property; for indefinite forms the report is advisory only (decided is
    False).

    Most products are decided without a search.  t = 0 is f(0, 0).  The
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
    so t is a value when t/4 or t/9 is already known to be one.  The values
    are walked in ascending |u|, so those smaller products mostly come
    first; a lookup that finds nothing falls back to the search.  represent
    is exact on Z^2 only for definite forms; an indefinite box search can
    find w but miss 2w outside the box.

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
    closed.  This needs no p-freeness of v.  So the closed values never
    enter the pair loop: their products are marked as values up front, and
    among the rest, a product with a prime factor u, u not dividing D, is
    not a value.  (3) When some e of the genus rule is odd, no closed
    nonzero value exists and no nonzero product is a value, so the
    counterexample count is the square of the number of nonzero sample
    points and the pair loop is skipped, for every form.
    """
    disc = form.discriminant()
    if disc == 0:
        raise DegenerateFormError("semigroup probe requires a nondegenerate form")
    side = range(-sample_bound, sample_bound + 1)
    values = {(x1, x2): form((x1, x2)) for x1 in side for x2 in side}
    # f(x)f(y) depends only on the two values, so each unordered pair of
    # distinct values is tested once and stands for mult*mult ordered pairs
    mult = Counter(values.values())
    if disc < 0:
        # products of two values are >= 0; the largest m*t takes the most rows
        top = max(mult, key=lambda u: form.m * u * u, default=0)
        cap = isqrt(4 * form.m * top * top // -disc) + 1
    else:
        cap = search_bound + 1
    ramified = _nonresidue_primes(form, disc, cap)
    modulus = prod(p ** e for p, e in ramified)
    representable: dict[int, bool] = {}
    count = 0
    # ascending |u|, so that t/4 and t/9 are mostly decided before t
    open_values = sorted(mult, key=abs)
    excluded: set[int] = set()
    if any(e % 2 for _, e in ramified):
        # the genus rule with an odd e: no nonzero product is a value
        representable = {u * v: u * v == 0
                         for u, v in combinations_with_replacement(mult, 2)}
        count = (len(values) - mult[0]) ** 2
        open_values = []
    elif disc < 0 < form.m and form.is_primitive():
        squares = dict.fromkeys((principal_form(disc), _square(form)))
        closed = {u for u in open_values
                  if u == 0 or any(g.represent(u) is not None for g in squares)}
        for u in closed:
            for v in mult:
                representable[u * v] = True
        open_values = [u for u in open_values if u not in closed]
        excluded = {u for u in open_values if disc % u and _is_prime(u)}
    for u, v in combinations_with_replacement(open_values, 2):
        t = u * v
        found = representable.get(t)
        if found is None:
            if t == 0:  # f(0, 0)
                found = True
            elif t % modulus or u in excluded or v in excluded:
                found = False  # the genus rule, the prime rule
            elif disc < 0 and (t % 4 == 0 and representable.get(t // 4)
                               or t % 9 == 0 and representable.get(t // 9)):
                found = True  # square scaling
            else:
                found = form.represent(t, search_bound) is not None
            representable[t] = found
        if not found:
            count += mult[u] * mult[v] * (1 if u == v else 2)
    misses = ((x, y) for x in values for y in values
              if not representable[values[x] * values[y]])
    recorded = tuple(islice(misses, max(min(count, max_recorded), 0)))
    return SemigroupReport(
        form=form,
        sample_bound=sample_bound,
        search_bound=search_bound,
        pairs_checked=len(values) ** 2,
        products_checked=len(representable),
        counterexample_count=count,
        counterexamples=recorded,
        decided=disc < 0,
    )


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


def principal_form(delta: int) -> Form:
    """The principal form of discriminant delta.

    (1, 0, -delta/4) for delta = 0 mod 4, (1, 1, (1-delta)/4) for
    delta = 1 mod 4.
    """
    if delta == 0:
        raise ValueError("discriminant must be nonzero")
    r = delta % 4
    if r == 0:
        return Form(1, 0, -delta // 4)
    if r == 1:
        return Form(1, 1, (1 - delta) // 4)
    raise ValueError("discriminant must be 0 or 1 mod 4")


def reduced_forms(delta: int) -> list[Form]:
    """All primitive reduced positive definite forms of discriminant delta.

    Deterministic order: ascending |k|, then m, then sign of k (+ first).
    """
    if delta >= 0:
        raise ValueError("reduced-form enumeration requires delta < 0")
    if delta % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")
    out: list[Form] = []
    k = delta % 2
    while k * k <= -delta // 3:
        mn4 = k * k - delta
        if mn4 % 4 == 0:
            mn = mn4 // 4
            for m in range(max(k, 1), isqrt(mn) + 1):
                if mn % m:
                    continue
                n = mn // m
                if gcd(m, k, n) != 1:
                    continue
                out.append(Form(m, k, n))
                if 0 < k < m < n:
                    out.append(Form(m, -k, n))
        k += 2
    return out

"""Deciding which pairing families realize a given form.

Two searches cover the four types.  A single parameter set (m, k, n, p, q)
feeds all three plus-type constructors at once, so realizability of types
(+,+), (-,+) and (+,-) reduces to finding a divisor r of the content with
f / r representing r.  Type (-,-) reduces to a quadruple (a, b, c, d) with

    a^2 - c d = m,    a c - b d = k,    c^2 - a b = n.

Eliminating b and d makes that search linear in the box size:

    f(c, -a) = (a^2 - c d) c^2 - (a c - b d) a c + (c^2 - a b) a^2
             = a^2 c^2 - a^3 b - c^3 d + a b c d
             = (a^2 - c d)(c^2 - a b) = m n,

so (c, -a) represents m n by f itself: one exact row solve per a finds every
candidate (a, c), and one exact rule (_scan_quadruples) completes b and d.

For positive definite forms both searches are complete: representation by a
definite form is a finite ellipse problem, and every minus-minus witness
obeys the exact coordinate bounds

    a^2 <= 4 m^2 n / |disc|    b^2 <= 4 n^3 / |disc|
    c^2 <= 4 m n^2 / |disc|    d^2 <= 4 m^3 / |disc|

read off the witness's normed pairing s (pairings.make_minus_minus).  Its
basis values are s(e1, e1) = (a, -d), s(e1, e2) = (c, -a) and
s(e2, e2) = (b, -c), so f takes the values m^2, m n and n^2 there; directly,
f(a, -d) = (a^2 - c d)^2 and f(b, -c) = (c^2 - a b)^2 expand as f(c, -a)
does above.  A point of the ellipse f = t has
4m t = (2m x1 + k x2)^2 + |disc| x2^2 and 4n t = (k x1 + 2n x2)^2 + |disc| x1^2,
so |x2| <= sqrt(4m t / |disc|) and |x1| <= sqrt(4n t / |disc|).  These row
and column bounds at (a, -d), t = m^2 give the bounds on a and d; at
(c, -a), t = m n, the bound on c (and a's again); and at (b, -c), t = n^2,
the bound on b.  This module uses integers only; the real witness curve
(module curve) agrees with the box but proves nothing.  For negative definite
forms no normed pairing exists at all: the right side of
f(s(x, y)) = f(x) f(y) is positive on nonzero arguments while the left side
never is.  Indefinite forms get an honest box search; a miss is then merely
BOUNDED, not a proof.

full_classification raises ValueError for an input over its search budget,
before it solves any row.  First it caps a positive definite form's
minus-minus scan at MAX_SEARCH_ROWS rows (2 amax + 1, minus_minus_bounds),
since the plus search solves rows too; 4mn >= |disc| makes amax at least
isqrt(content), which bounds the plus search's divisor loop.  search_plus
caps its trial division, isqrt(content), at MAX_SEARCH_ROWS and an
indefinite form's rows, box + 1 per positive divisor of the content, at
MAX_SEARCH_ROWS + 1; as 1 divides every content, the box is capped too,
and with it the 2 box + 1 rows of the minus-minus scan, which runs second.

Each public search also keeps the budget on its own.  minus_minus_witnesses
refuses the same positive definite forms as full_classification, and an
indefinite box over MAX_SEARCH_ROWS, which search_plus refuses first inside
full_classification.  search_plus refuses a positive definite form whose
largest search, represent(c) on f / c for c the content, would solve more
than MAX_SEARCH_ROWS rows; that is isqrt(4 m c^2 // |disc|) + 1 rows, at
most amax + 1 as c^2 <= m n, so inside full_classification it never fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isqrt

from .forms import (
    DEFAULT_BOX,
    MAX_SEARCH_ROWS,
    DegenerateFormError,
    Definiteness,
    Form,
    _row_solutions,
)
from .pairings import PlusParams, Quadruple

__all__ = ["ClassificationReport", "Decision", "Order3Verdict", "full_classification",
           "minus_minus_bounds", "minus_minus_witnesses", "order3_verdict",
           "search_minus_minus", "search_plus"]


class Decision(Enum):
    """Whether a search outcome is a proof or only a bounded scan."""

    DECIDED = "decided"
    BOUNDED = "bounded"


class Order3Verdict(Enum):
    """Order of the class of a derived form in the form class group."""

    NOT_APPLICABLE = "not-applicable"
    ORDER_1 = "order-1"
    ORDER_3 = "order-3"


@dataclass(frozen=True)
class ClassificationReport:
    """Joint outcome of the plus-family and minus-minus searches."""

    form: Form
    definiteness: Definiteness
    plus_params: PlusParams | None
    plus_decision: Decision
    minus_quadruple: Quadruple | None
    minus_decision: Decision

    @property
    def fully_decided(self) -> bool:
        return (
            self.plus_decision is Decision.DECIDED
            and self.minus_decision is Decision.DECIDED
        )

    @property
    def has_witness(self) -> bool:
        """Whether a plus or minus-minus witness proves the semigroup property.

        Proof: the witness's pairing s is normed, so for all x, y in Z^2 the
        integer vector s(x, y) has f(s(x, y)) = f(x) f(y), a value of f.
        """
        return self.plus_params is not None or self.minus_quadruple is not None


def minus_minus_bounds(form: Form) -> tuple[int, int, int, int]:
    """Exact per-coordinate bounds on minus-minus witnesses (definite only),
    the floors of the module docstring's four square roots."""
    if form.definiteness() is not Definiteness.POSITIVE_DEFINITE:
        raise ValueError("witness bounds hold for positive definite forms")
    m, k, n = form.coefficients()
    absd = -form.discriminant()
    return (
        isqrt(4 * m * m * n // absd),
        isqrt(4 * n * n * n // absd),
        isqrt(4 * m * n * n // absd),
        isqrt(4 * m * m * m // absd),
    )


def _budgeted_bounds(form: Form) -> tuple[int, int, int, int]:
    """minus_minus_bounds, or ValueError when its 2 amax + 1 rows are over
    the budget."""
    bounds = minus_minus_bounds(form)
    rows = 2 * bounds[0] + 1
    if rows > MAX_SEARCH_ROWS:
        raise ValueError(f"the minus-minus search would solve {rows} rows, "
                         f"more than {MAX_SEARCH_ROWS}")
    return bounds


def _scan_quadruples(
    form: Form, bounds: tuple[int, int, int, int]
) -> list[Quadruple]:
    """All quadruples inside the box solving the three witness equations.

    Only (a, c) with f(c, -a) = m n are visited (module docstring).  One rule
    completes (a, c) != (0, 0): d = (a^2 - m) // c if c != 0, b = (c^2 - n) // a
    if a != 0, and k = a c - b d gives the missing one.  Floor division is safe:
    a witness divides exactly, so it gets its own b and d back, and a wrong
    quotient fails the three equations, which alone accept.  A witness makes no
    divisor 0, as b = c = 0 or a = d = 0 would make the form degenerate.
    (a, c) = (0, 0) forces m = n = 0; then b d = -k, one witness per divisor b.
    """
    m, k, n = form.coefficients()
    amax, bmax, cmax, dmax = bounds
    found: list[Quadruple] = []
    for c, minus_a in _row_solutions(form, m * n, range(-amax, amax + 1), cmax):
        a = -minus_a
        if a == 0 and c == 0:
            if m == 0 and n == 0:
                found += [Quadruple(0, b, 0, -k // b) for b in range(-bmax, bmax + 1)
                          if b and k % b == 0 and abs(k // b) <= dmax]
            continue
        b = (c * c - n) // a if a else None
        d = (a * a - m) // c if c else None
        if b is None:
            if d == 0:
                continue
            b = (a * c - k) // d
        elif d is None:
            if b == 0:
                continue
            d = (a * c - k) // b
        if (abs(b) <= bmax and abs(d) <= dmax and a * a - c * d == m
                and a * c - b * d == k and c * c - a * b == n):
            found.append(Quadruple(a, b, c, d))
    found.sort(key=lambda q: (q.a, q.b, q.c, q.d))
    return found


def minus_minus_witnesses(
    form: Form, box_bound: int = DEFAULT_BOX
) -> tuple[list[Quadruple], Decision]:
    """All minus-minus witnesses, with a flag for completeness.

    Positive definite: the exact bounds make the list complete (DECIDED).
    Negative definite: no normed pairing of any type exists (DECIDED, empty).
    Indefinite: a cube of side box_bound is scanned; an empty result is
    only BOUNDED.  Over the budget (module docstring) it raises ValueError
    before it solves any row.
    """
    kind = form.definiteness()
    if kind is Definiteness.DEGENERATE:
        raise DegenerateFormError("witness search requires a nondegenerate form")
    if kind is Definiteness.NEGATIVE_DEFINITE:
        return [], Decision.DECIDED
    if kind is Definiteness.POSITIVE_DEFINITE:
        return _scan_quadruples(form, _budgeted_bounds(form)), Decision.DECIDED
    if box_bound > MAX_SEARCH_ROWS:
        raise ValueError(f"the minus-minus search would solve {2 * box_bound + 1} rows, "
                         f"more than {2 * MAX_SEARCH_ROWS + 1}")
    box = (box_bound, box_bound, box_bound, box_bound)
    hits = _scan_quadruples(form, box)
    return hits, Decision.DECIDED if hits else Decision.BOUNDED


def search_minus_minus(
    form: Form, box_bound: int = DEFAULT_BOX
) -> tuple[Quadruple | None, Decision]:
    """First (lexicographically least) minus-minus witness, if any."""
    hits, decision = minus_minus_witnesses(form, box_bound)
    return (hits[0] if hits else None), decision


def search_plus(
    form: Form, box_bound: int = DEFAULT_BOX
) -> tuple[PlusParams | None, Decision]:
    """Parameters (m, k, n, p, q) realizing the form in the plus families.

    Needs a positive divisor r of the content with g = form / r representing
    r; then form = r * g and any of the three plus constructors on
    (g.m, g.k, g.n, p, q) is a witness.  Negative r would only negate both
    members of the pair (r, g) and gives nothing new.  Over its limits
    (module docstring) it raises ValueError before it solves any row.
    """
    kind = form.definiteness()
    if kind is Definiteness.DEGENERATE:
        raise DegenerateFormError("witness search requires a nondegenerate form")
    if kind is Definiteness.NEGATIVE_DEFINITE:
        return None, Decision.DECIDED
    exact = kind is Definiteness.POSITIVE_DEFINITE
    content = form.content()
    root = isqrt(content)
    if root > MAX_SEARCH_ROWS:
        raise ValueError(f"the plus search would trial-divide up to {root}, "
                         f"more than {MAX_SEARCH_ROWS}")
    if exact:
        # represent(r) on form / r solves isqrt(4 m r^2 // |disc|) + 1 rows,
        # most for r = content
        rows = isqrt(4 * form.m * content * content // -form.discriminant()) + 1
        if rows > MAX_SEARCH_ROWS:
            raise ValueError(f"the plus search would solve {rows} rows for one "
                             f"divisor, more than {MAX_SEARCH_ROWS}")
    divisors = _positive_divisors(content)
    rows = len(divisors) * (box_bound + 1)
    if not exact and rows > MAX_SEARCH_ROWS + 1:
        raise ValueError(f"the plus search would solve {rows} rows, "
                         f"more than {MAX_SEARCH_ROWS + 1}")
    for r in divisors:
        g = Form(form.m // r, form.k // r, form.n // r)
        sol = g.represent(r, box_bound)
        if sol is not None:
            p, q = sol
            return PlusParams(g.m, g.k, g.n, p, q), Decision.DECIDED
    return None, Decision.DECIDED if exact else Decision.BOUNDED


def _positive_divisors(value: int) -> list[int]:
    """Positive divisors of value, ascending."""
    small = [d for d in range(1, isqrt(value) + 1) if value % d == 0]
    return small + [value // d for d in reversed(small) if d * d != value]


def full_classification(form: Form, box_bound: int = DEFAULT_BOX) -> ClassificationReport:
    """Run both searches within the budget and bundle the outcome.

    One witness parameter set serves all three plus types at once, so the
    report never shows a proper nonempty subset of them.
    """
    kind = form.definiteness()
    if kind is Definiteness.DEGENERATE:
        raise DegenerateFormError("classification requires a nondegenerate form")
    if kind is Definiteness.POSITIVE_DEFINITE:
        _budgeted_bounds(form)  # before search_plus solves a row
    plus_params, plus_decision = search_plus(form, box_bound)
    quad, minus_decision = search_minus_minus(form, box_bound)
    return ClassificationReport(
        form=form,
        definiteness=kind,
        plus_params=plus_params,
        plus_decision=plus_decision,
        minus_quadruple=quad,
        minus_decision=minus_decision,
    )


def order3_verdict(quad: Quadruple) -> Order3Verdict:
    """Class-group order of the form derived from a minus-minus quadruple.

    The class of such a form always has order dividing three, so a
    non-principal reduced form means order exactly three.  Only primitive
    positive definite derived forms are classified.
    """
    form = quad.form()
    if form.definiteness() is not Definiteness.POSITIVE_DEFINITE:
        return Order3Verdict.NOT_APPLICABLE
    if not form.is_primitive():
        return Order3Verdict.NOT_APPLICABLE
    return Order3Verdict.ORDER_1 if form.is_principal() else Order3Verdict.ORDER_3

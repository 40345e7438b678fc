"""Differential tests for the row-solve search kernel.

The brute-force O(B^2) scans that the kernel replaced live on here, and only
here, as oracles: the indefinite double loop of Form.represent, the (a, c)
double loop of the minus-minus scan, and the pair-by-pair semigroup probe.
So does the kernel-based definite branch of Form.represent that the plain
ellipse loop replaced.  The genus-character filter of the probe is checked
against brute force too.
"""

import time

from itertools import product
from math import isqrt

from hypothesis import example, given, settings
from hypothesis import strategies as st

from normed_forms import Definiteness, Form, Quadruple, reduced_forms, semigroup_probe
from normed_forms.classify import _scan_quadruples, minus_minus_bounds, minus_minus_witnesses
from normed_forms.forms import (
    SemigroupReport,
    _nonresidue_primes,
    _row_solutions,
    floor_sqrt_ratio,
)

small = st.integers(min_value=-6, max_value=6)
forms = st.builds(Form, small, small, small)
nondegenerate = forms.filter(lambda f: f.discriminant() != 0)
wide = st.integers(min_value=-30, max_value=30)
wide_nondegenerate = st.builds(Form, wide, wide, wide).filter(lambda f: f.discriminant() != 0)
boxes = st.integers(min_value=0, max_value=7)
definite = st.builds(Form, wide, wide, wide).filter(lambda f: f.discriminant() < 0)
sample_points = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def represent_oracle(form: Form, target: int, box_bound: int):
    """The first witness in lexicographic (x2, x1) order, by full scan."""
    defin = form.definiteness()
    if defin is Definiteness.NEGATIVE_DEFINITE:
        return represent_oracle(-form, -target, box_bound)
    if defin is Definiteness.POSITIVE_DEFINITE:
        if target < 0:
            return None
        # the ellipse f = target lies in |xi| <= bound
        bound = 0
        while -form.discriminant() * (bound + 1) ** 2 <= 4 * max(form.m, form.n) * target:
            bound += 1
        box_bound = bound
    for x2 in range(-box_bound, box_bound + 1):
        for x1 in range(-box_bound, box_bound + 1):
            if form((x1, x2)) == target:
                return (x1, x2)
    return None


def _ellipse_bounds(form: Form, disc: int, target: int) -> tuple[range, int]:
    """The rows x2 <= 0 and the column bound |x1| of the ellipse form = target.

    For a definite form of discriminant disc with m*target >= 0.
    """
    rows = range(-floor_sqrt_ratio(4 * form.m * target, -disc), 1)
    return rows, floor_sqrt_ratio(4 * form.n * target, -disc)


def definite_represent_oracle(form: Form, target: int):
    """The definite branch of Form.represent before the plain ellipse loop:
    the row-solve kernel over the ellipse's rows and column bound."""
    disc = form.discriminant()
    if form.m * target < 0:
        return None
    rows, col_bound = _ellipse_bounds(form, disc, target)
    return next(_row_solutions(form, target, rows, col_bound), None)


def scan_oracle(form: Form, bounds):
    """Every quadruple in the box, by the (a, c) double loop."""
    m, k, n = form.coefficients()
    amax, bmax, cmax, dmax = bounds
    found = []
    for a in range(-amax, amax + 1):
        for c in range(-cmax, cmax + 1):
            if a == 0 and c == 0:
                if m == 0 and n == 0 and k != 0:
                    for b in range(-bmax, bmax + 1):
                        if b == 0 or k % b:
                            continue
                        d = -(k // b)
                        if abs(d) <= dmax:
                            found.append(Quadruple(0, b, 0, d))
                continue
            if c == 0:
                if a * a != m or n % a:
                    continue
                b = -(n // a)
                if b == 0 or k % b:
                    continue
                d = -(k // b)
            elif a == 0:
                if c * c != n or m % c:
                    continue
                d = -(m // c)
                if d == 0 or k % d:
                    continue
                b = -(k // d)
            else:
                if (a * a - m) % c or (c * c - n) % a:
                    continue
                d = (a * a - m) // c
                b = (c * c - n) // a
                if a * c - b * d != k:
                    continue
            if abs(b) > bmax or abs(d) > dmax:
                continue
            quad = Quadruple(a, b, c, d)
            if quad.form() == form:
                found.append(quad)
    found.sort(key=lambda q: (q.a, q.b, q.c, q.d))
    return found


def probe_oracle(form: Form, sample_bound: int, search_bound: int, max_recorded: int):
    """The semigroup probe, one represent lookup per ordered pair."""
    decided = form.definiteness() in (
        Definiteness.POSITIVE_DEFINITE,
        Definiteness.NEGATIVE_DEFINITE,
    )
    pts = [
        (x1, x2)
        for x1 in range(-sample_bound, sample_bound + 1)
        for x2 in range(-sample_bound, sample_bound + 1)
    ]
    representable = {}
    recorded = []
    count = pairs = 0
    for x in pts:
        for y in pts:
            pairs += 1
            t = form(x) * form(y)
            if t not in representable:
                representable[t] = form.represent(t, search_bound) is not None
            if not representable[t]:
                count += 1
                if len(recorded) < max_recorded:
                    recorded.append((x, y))
    return SemigroupReport(
        form=form,
        sample_bound=sample_bound,
        search_bound=search_bound,
        pairs_checked=pairs,
        products_checked=len(representable),
        counterexample_count=count,
        counterexamples=tuple(recorded),
        decided=decided,
    )


@given(forms, st.integers(-40, 40), boxes, boxes)
@settings(max_examples=300)
@example(Form(0, 0, 0), 0, 2, 3)
@example(Form(0, 3, 0), 0, 2, 2)
@example(Form(0, 2, 1), 4, 3, 3)
@example(Form(-2, 1, 3), -2, 3, 3)
@example(Form(3, 1, 0), 0, 0, 0)
def test_row_solutions_match_full_scan(form, target, rows, cols):
    """Every solution in the box, in lexicographic (x2, x1) order."""
    expected = [
        (x1, x2)
        for x2 in range(-rows, rows + 1)
        for x1 in range(-cols, cols + 1)
        if form((x1, x2)) == target
    ]
    assert list(_row_solutions(form, target, range(-rows, rows + 1), cols)) == expected


@given(forms, st.integers(-40, 40), boxes)
@settings(max_examples=400)
@example(Form(0, 0, 0), 0, 3)
@example(Form(0, 0, 0), 1, 3)
@example(Form(0, 5, 0), 0, 2)
@example(Form(0, 5, 0), 10, 2)
@example(Form(0, 1, 2), 8, 4)
@example(Form(2, 1, 0), 3, 4)
@example(Form(-1, 0, 2), 7, 0)
@example(Form(-3, 1, -2), -6, 5)
@example(Form(1, 2, 1), 9, 5)
@example(Form(2, 1, 3), 0, 0)
def test_represent_matches_oracle(form, target, box):
    """Witness and None agree with the full box scan, degenerate forms too."""
    assert form.represent(target, box) == represent_oracle(form, target, box)


@st.composite
def definite_targets(draw):
    """A definite form and a target: a product f(x)f(y) of two sample
    values, that product negated or moved off by one, 0, or any integer."""
    form = draw(definite)
    u, v = form(draw(sample_points)), form(draw(sample_points))
    target = draw(st.sampled_from([u * v, -u * v, u * v + 1, u, 0])
                  | st.integers(-10**6, 10**6))
    return form, target


@given(definite_targets())
@settings(max_examples=500)
@example((Form(1, 0, 1), 1))  # the first row R has the witness
@example((Form(1, 0, 1), 2))  # two roots: (-1, -1) before (1, -1)
@example((Form(2, -5, 4), 1))  # only the second root is an integer
@example((Form(-1, 0, -1), -1))
@example((Form(-2, 5, -5), -2))
@example((Form(-2, 5, -5), 2))
@example((Form(3, 1, 5), 0))
@example((Form(30, -30, 30), 810 * 810))
@example((Form(1, 1, 1), 3 * 10**6 + 1))
def test_definite_represent_matches_oracles(case):
    """The plain ellipse loop returns the old kernel branch's witness, or
    None, on large targets too; where the ellipse's box is small enough to
    scan, the full scan agrees as well."""
    form, target = case
    found = form.represent(target)
    assert found == definite_represent_oracle(form, target)
    if found is not None:
        assert form(found) == target
    reach = isqrt(4 * max(abs(form.m), abs(form.n)) * abs(target) // -form.discriminant())
    if reach <= 60:
        assert found == represent_oracle(form, target, 0)


@given(nondegenerate, st.tuples(boxes, boxes, boxes, boxes))
@settings(max_examples=300)
@example(Form(0, 3, 0), (2, 4, 2, 4))
@example(Form(0, 6, 0), (0, 7, 0, 7))
@example(Form(0, 2, 3), (4, 4, 4, 4))
@example(Form(1, 3, 0), (4, 4, 4, 4))
@example(Form(-1, 1, 1), (5, 5, 5, 5))
@example(Form(2, 1, 3), (0, 0, 0, 0))
def test_scan_matches_oracle_on_boxes(form, bounds):
    """The minus-minus scan finds exactly what the (a, c) loop finds."""
    assert _scan_quadruples(form, bounds) == scan_oracle(form, bounds)


@given(st.tuples(small, small, small, small), boxes)
@settings(max_examples=200)
def test_scan_matches_oracle_on_derived_forms(entries, box):
    """Forms derived from a quadruple always have a witness to find."""
    form = Quadruple(*entries).form()
    if form.discriminant() == 0:
        return
    if form.definiteness() is Definiteness.POSITIVE_DEFINITE:
        bounds = minus_minus_bounds(form)
    else:
        bounds = (box,) * 4
    assert _scan_quadruples(form, bounds) == scan_oracle(form, bounds)


@given(
    nondegenerate,
    st.integers(0, 2),
    st.integers(0, 5),
    st.sampled_from([0, 1, 2, 20]),
)
@settings(max_examples=200)
@example(Form(2, 0, 3), 3, 100, 20)
@example(Form(2, 0, 3), 2, 100, 0)
@example(Form(2, 0, 3), 2, 100, 1)
@example(Form(1, 0, -2), 2, 3, 1)
@example(Form(0, 1, 0), 1, 0, 20)
@example(Form(2, 1, 3), -1, 100, 20)
def test_probe_matches_oracle(form, sample_bound, search_bound, max_recorded):
    """Every report field agrees with the pair-by-pair probe."""
    assert semigroup_probe(form, sample_bound, search_bound, max_recorded) == probe_oracle(
        form, sample_bound, search_bound, max_recorded
    )


# sigma and the form f o sigma, for the two maps of the box onto itself
BOX_SYMMETRIES = {
    "x2 -> -x2": (lambda v: (v[0], -v[1]), lambda f: Form(f.m, -f.k, f.n)),
    "x1 <-> x2": (lambda v: (v[1], v[0]), lambda f: Form(f.n, f.k, f.m)),
}


@given(
    nondegenerate,
    st.integers(0, 2),
    st.integers(0, 5),
    st.sampled_from(sorted(BOX_SYMMETRIES)),
)
@settings(max_examples=200)
@example(Form(3, 2, 5), 2, 100, "x2 -> -x2")
@example(Form(3, 2, 5), 2, 100, "x1 <-> x2")
@example(Form(2, 3, -5), 2, 5, "x2 -> -x2")
@example(Form(2, 3, -5), 2, 5, "x1 <-> x2")
def test_probe_is_invariant_under_box_symmetries(form, sample_bound, search_bound, name):
    """f and f o sigma get the same counts, and sigma maps the counterexamples
    of f onto those of f o sigma (sigma is an involution)."""
    sigma, compose = BOX_SYMMETRIES[name]
    twin = compose(form)
    side = range(-sample_bound, sample_bound + 1)
    assert all(twin(v) == form(sigma(v)) for v in product(side, side))
    everything = len(side) ** 4
    report = semigroup_probe(form, sample_bound, search_bound, everything)
    twin_report = semigroup_probe(twin, sample_bound, search_bound, everything)
    for field in ("pairs_checked", "products_checked", "counterexample_count", "decided"):
        assert getattr(twin_report, field) == getattr(report, field)
    assert set(twin_report.counterexamples) == {
        (sigma(x), sigma(y)) for x, y in report.counterexamples
    }
    assert report == probe_oracle(form, sample_bound, search_bound, everything)


def test_large_definite_witness_search_budget():
    """One row solve per a: a form with amax near 1000 takes milliseconds."""
    form = Form(1000003, 17, 999983)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        hits, _ = minus_minus_witnesses(form)
        best = min(best, time.perf_counter() - start)
    assert hits == []
    assert best < 0.05


def nonresidue_oracle(form: Form):
    """(p, e) for the odd primes p | D with a non-square a mod p, a = m, or n
    when p | m, and p^e the largest power of p dividing D, by trial division
    and by listing the squares mod p."""
    d = abs(form.discriminant())
    found = []
    for p in range(3, d + 1, 2):
        if d % p or any(p % q == 0 for q in range(3, p, 2)):
            continue
        a = form.m if form.m % p else form.n
        if a % p and all((x * x - a) % p for x in range(p)):
            found.append((p, max(e for e in range(1, d.bit_length()) if d % p**e == 0)))
    return found


@given(wide_nondegenerate,
       st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=1, max_size=5),
       st.integers(0, 40))
@settings(max_examples=300)
@example(Form(2, 0, 3), [(1, 0), (0, 1)], 0)
@example(Form(0, 3, 5), [(1, 1), (0, 1)], 0)
@example(Form(-1, 0, -3), [(1, 0), (1, 1)], 0)
@example(Form(2, 0, -3), [(1, 0), (0, 1), (1, 1)], 0)
@example(Form(4, 0, 6), [(1, 0), (0, 1)], 0)
@example(Form(10, 10, 10), [(1, 0), (1, 1)], 0)
@example(Form(10, 6, 10), [(1, 0)], 3)  # cap 3 leaves the composite 91 = 7 * 13
@example(Form(1, 0, 9), [(1, 0), (0, 1), (1, 1)], 0)  # 3^2 | D, but (1/3) = 1
@example(Form(1, 1, 7), [(1, 0), (0, 1), (1, 1)], 0)  # 3^3 | D, but (1/3) = 1
@example(Form(2, 0, -9), [(1, 0), (0, 1), (1, 1)], 0)  # e = 2 at p = 3, indefinite
@example(Form(2, 0, 9), [(1, 0), (0, 1), (1, 1)], 0)  # e = 2 at p = 3, definite
@example(Form(9, 3, 2), [(1, 0), (0, 1), (1, -1)], 0)  # p = 3 | m, so a = n
@example(Form(2, 0, 27), [(1, 0), (0, 1), (1, 1)], 0)  # e = 3: no nonzero product
@example(Form(2, 0, -27), [(1, 0), (0, 1), (1, 1)], 0)
def test_nonresidue_products_are_never_values(form, points, cap):
    """Each (p, e) the helper returns obeys the valuation rule on the box's
    values t = p^j * t': j < e forces j even and t' a non-square mod p, and
    for odd e the values with odd j share one character of t'.  So a product
    of two values is found by no search when p^e does not divide it, nor at
    all when e is odd.  A cap only drops primes."""
    disc = form.discriminant()
    ramified = _nonresidue_primes(form, disc, abs(disc))
    assert ramified == nonresidue_oracle(form)
    assert set(_nonresidue_primes(form, disc, cap)) <= set(ramified)
    box = range(-6, 7)
    box_values = {form((x1, x2)) for x1 in box for x2 in box}
    for p, e in ramified:
        squares = {x * x % p for x in range(p)}
        odd_characters = set()
        for t in box_values - {0}:
            j = 0
            while t % p == 0:
                t //= p
                j += 1
            square = t % p in squares
            if j < e or e % 2 and j % 2 == 0:
                assert j % 2 == 0 and not square
            elif e % 2:
                odd_characters.add(square)
        assert len(odd_characters) <= 1
        for x, y in product(points, repeat=2):
            t = form(x) * form(y)
            if t and (e % 2 or t % p**e):
                assert t not in box_values
                assert form.represent(t, 6) is None
                assert represent_oracle(form, t, 6) is None


def test_probe_matches_oracle_on_reduced_forms():
    """Every reduced form with -400 <= D <= -3, at the default bounds."""
    checked = 0
    for delta in range(-400, -2):
        if delta % 4 not in (0, 1):
            continue
        for form in reduced_forms(delta):
            assert semigroup_probe(form) == probe_oracle(form, 3, 100, 20)
            checked += 1
    assert checked == 1108


def test_probe_skips_square_scaling_on_indefinite_forms():
    """Scaling by 4 would be wrong inside a box: for (-4, -4, 1) with
    |xi| <= 2, -16 = f(-2, 0) = f(1, 0) * f(0, 2) is found, but
    -64 = f(2, 0) * f(0, 2) is not, although -64 = f(4, 0)."""
    form = Form(-4, -4, 1)
    assert form.represent(-16, 2) == (-2, 0)
    assert form.represent(-64, 2) is None
    assert semigroup_probe(form, 2, 2) == probe_oracle(form, 2, 2, 20)


def test_nonresidue_prime_search_is_capped():
    """Trial division stops at the cap: D = -4p with p = 999999999989 prime
    would take half a million divisions to factor."""
    form = Form(1, 0, 999_999_999_989)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        primes = _nonresidue_primes(form, form.discriminant(), 1000)
        best = min(best, time.perf_counter() - start)
    assert primes == []
    assert best < 0.05

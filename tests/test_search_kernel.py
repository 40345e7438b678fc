"""Differential tests for the row-solve search kernel.

The brute-force O(B^2) scans that the kernel replaced live on here, and only
here, as oracles: the indefinite double loop of Form.represent, the (a, c)
double loop of the minus-minus scan, and the pair-by-pair semigroup probe.
So does the kernel-based definite branch of Form.represent that the plain
ellipse loop replaced.  The genus-character filter of the probe is checked
against brute force too, and the squaring map behind the probe's class rules
against the product of lattices, and the cube roots of unity it finds
against the 3-group they must form.  A loop over all four coordinates of small
minus-minus boxes checks the scan without any (a, c) reduction.
"""

import time

from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normed_forms import (
    Definiteness,
    Form,
    Quadruple,
    principal_form,
    reduced_forms,
    semigroup_probe,
)
from normed_forms import forms as forms_module
from normed_forms.classify import _scan_quadruples, minus_minus_bounds, minus_minus_witnesses
from normed_forms.forms import (
    SemigroupReport,
    _is_prime,
    _nonresidue_primes,
    _row_solutions,
    _square,
)
from normed_forms.lattices import Context, Lattice

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

    For a definite form of discriminant disc with m*target >= 0.  Each bound
    is floor(sqrt(p / q)) taken as isqrt(p q) // q, not the library's
    isqrt(p // q), so the oracle stays independent.
    """
    rows = range(-(isqrt(4 * form.m * target * -disc) // -disc), 1)
    return rows, isqrt(4 * form.n * target * -disc) // -disc


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


def probe_oracle(form: Form, sample_bound: int, search_bound: int):
    """The semigroup probe, one represent lookup per ordered pair: its
    (pairs, products, count, decided), as probe_stats reads them off a
    report."""
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
    count = pairs = 0
    for x in pts:
        for y in pts:
            pairs += 1
            t = form(x) * form(y)
            if t not in representable:
                representable[t] = form.represent(t, search_bound) is not None
            if not representable[t]:
                count += 1
    return pairs, len(representable), count, decided


def probe_stats(report: SemigroupReport):
    """The four statistics of a probe report that probe_oracle computes."""
    return (report.pairs_checked, report.products_checked,
            report.counterexample_count, report.decided)


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


@given(forms.filter(lambda f: f.discriminant() >= 0), st.integers(-40, 40), boxes)
@settings(max_examples=400)
@example(Form(0, 0, 0), 0, 3)
@example(Form(0, 0, 0), 1, 3)
@example(Form(0, 5, 0), 10, 2)
@example(Form(1, 2, 1), 9, 5)
@example(Form(0, 3, 2), 5, 1)
@example(Form(-1, 1, 1), -1, 0)
@example(Form(1, 0, -2), 7, 7)
def test_outward_scan_decides_as_represent(form, target, box):
    """The probe's indefinite search: the half box scanned outward from
    x2 = 0 has a solution exactly when represent finds a witness, and holds
    the same solutions as the upward scan."""
    outward = range(0, -box - 1, -1)
    found = next(_row_solutions(form, target, outward, box), None)
    assert (found is not None) == (form.represent(target, box) is not None)
    assert sorted(_row_solutions(form, target, outward, box)) == sorted(
        _row_solutions(form, target, range(-box, 1), box))


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


def quadruple_oracle(form: Form, bounds):
    """Every quadruple in the box, by a loop over all four coordinates: no
    (a, c) reduction and no completion rule, so it checks both."""
    amax, bmax, cmax, dmax = bounds
    return [
        Quadruple(a, b, c, d)
        for a in range(-amax, amax + 1)
        for b in range(-bmax, bmax + 1)
        for c in range(-cmax, cmax + 1)
        for d in range(-dmax, dmax + 1)
        if Quadruple(a, b, c, d).form() == form
    ]


tiny = st.integers(min_value=-3, max_value=3)
derived = st.builds(lambda *entries: Quadruple(*entries).form(), tiny, tiny, tiny, tiny)


@given(st.one_of(derived, nondegenerate), st.integers(0, 3))
@settings(max_examples=300)
@example(Form(4, -3, -2), 3)  # c = 0: Quadruple(2, 1, 0, 3)
@example(Form(2, 1, 4), 0)  # a = 0: Quadruple(0, 1, 2, -1)
@example(Form(0, 3, 0), 3)  # the (a, c) = (0, 0) row: b d = -3
@example(Form(2, -4, 3), 0)  # (a, c) = (2, -3): (a^2 - m) / c is inexact
@example(Form(1, -2, 3), 0)  # (a, c) = (1, 0): d = (a c - k) / b is inexact
def test_witnesses_match_four_coordinate_brute_force(form, box):
    """minus_minus_witnesses lists exactly the quadruples of a full 4-D scan,
    on definite forms whose minus_minus_bounds are all at most 3 and on
    indefinite boxes of side at most 3."""
    kind = form.definiteness()
    assume(kind in (Definiteness.POSITIVE_DEFINITE, Definiteness.INDEFINITE))
    if kind is Definiteness.POSITIVE_DEFINITE:
        bounds = minus_minus_bounds(form)
        assume(max(bounds) <= 3)
    else:
        bounds = (box,) * 4
    hits, _ = minus_minus_witnesses(form, box)
    assert hits == quadruple_oracle(form, bounds) == scan_oracle(form, bounds)


@given(nondegenerate)
@settings(max_examples=200)
@example(Form(2, 0, 3))
@example(Form(0, 1, 0))
@example(Form(2, 1, 3))
@example(Form(2, 1, 6))  # D = -47, class number 5
@example(Form(2, 1, 9))  # D = -71, class number 7
@example(Form(4, 2, 6))  # imprimitive: closed = {0}
@example(Form(-2, -1, -3))  # negative definite, odd genus exponent at 23
@example(Form(-2, 0, -3))  # negative definite: closed = {0}
@example(Form(1, 1, -1))  # D = 5
@example(Form(1, 0, -2))  # D = 8
@example(Form(1, 1, -3))  # D = 13
@example(Form(0, 3, 2))  # D = 9, a square, and m = 0
@example(Form(-1, 1, 1))  # D = 5 with m < 0
@example(Form(29, 24, 5))  # (1, 0, 1) in another basis: searched reduced
@example(Form(29, -24, 5))
@example(Form(58, 48, 10))  # content 2 times (29, 24, 5)
@example(Form(5, 7, 3))  # D = -11, unreduced, closed values searched
@example(Form(-29, -24, -5))  # negative definite, not reduced
def test_probe_matches_oracle(form):
    """Every report statistic agrees with the pair-by-pair probe."""
    assert probe_stats(semigroup_probe(form)) == probe_oracle(form, 3, 100)


@st.composite
def large_reduced_forms(draw):
    """A reduced primitive form with -20000 <= D <= -401."""
    delta = draw(st.integers(-20000, -401).filter(lambda d: d % 4 in (0, 1)))
    return draw(st.sampled_from(reduced_forms(delta)))


@given(large_reduced_forms())
@settings(max_examples=60, deadline=None)
@example(Form(2, 1, 53))  # D = -423: e = 2 at p = 3, modulus 9
@example(Form(9, 9, 14))  # D = -423 with p = 3 dividing m, so a = n
@example(Form(49, 14, 103))  # D = -19992, class number 32: e = 2 at p = 7
@example(Form(12, 5, 416))  # D = -19943, class number 128: e = 2 at p = 7
@example(Form(34, 1, 146))  # D = -19855: e = 2 at p = 19
def test_probe_matches_oracle_on_large_class_groups(form):
    """On reduced forms past the -400..-3 window, where class groups are
    larger and an even genus exponent makes the modulus exceed 1, every
    report statistic agrees with the pair-by-pair probe."""
    assert probe_stats(semigroup_probe(form)) == probe_oracle(form, 3, 100)


# sigma and the form f o sigma, for the two maps of the box onto itself
BOX_SYMMETRIES = {
    "x2 -> -x2": (lambda v: (v[0], -v[1]), lambda f: Form(f.m, -f.k, f.n)),
    "x1 <-> x2": (lambda v: (v[1], v[0]), lambda f: Form(f.n, f.k, f.m)),
}


@given(nondegenerate, st.sampled_from(sorted(BOX_SYMMETRIES)))
@settings(max_examples=200)
@example(Form(3, 2, 5), "x2 -> -x2")
@example(Form(3, 2, 5), "x1 <-> x2")
@example(Form(2, 3, -5), "x2 -> -x2")
@example(Form(2, 3, -5), "x1 <-> x2")
def test_probe_is_invariant_under_box_symmetries(form, name):
    """sigma maps the sample box onto itself, and f and f o sigma get the
    same counts."""
    sigma, compose = BOX_SYMMETRIES[name]
    twin = compose(form)
    side = range(-3, 4)
    assert all(twin(v) == form(sigma(v)) for v in product(side, side))
    report = probe_stats(semigroup_probe(form))
    assert probe_stats(semigroup_probe(twin)) == report == probe_oracle(form, 3, 100)


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


def reduced_forms_between(dmin: int, dmax: int):
    for delta in range(dmin, dmax + 1):
        if delta % 4 in (0, 1):
            yield from reduced_forms(delta)


def test_probe_matches_oracle_on_reduced_forms():
    """Every reduced form with -400 <= D <= -3, at the default bounds."""
    checked = 0
    for form in reduced_forms_between(-400, -3):
        assert probe_stats(semigroup_probe(form)) == probe_oracle(form, 3, 100)
        checked += 1
    assert checked == 1108


def test_probe_skips_square_scaling_on_indefinite_forms():
    """Scaling by 9 would be wrong inside a box: for (4, -5, -1), D = 41,
    -37 = f(-84, -59) lies in the search box |xi| <= 100, and
    -333 = 9 * (-37) = f(0, 3) * f(2, -3) is a product of sample values, but
    no point of the box takes it, although -333 = f(-252, -177)."""
    form = Form(4, -5, -1)
    assert form((-84, -59)) == -37
    assert form((0, 3)) * form((2, -3)) == -333
    assert form.represent(-333, 100) is None
    assert probe_stats(semigroup_probe(form)) == probe_oracle(form, 3, 100)


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


def test_square_matches_lattice_product():
    """f o f is the reduced primitive form of L*L, for L = span(m, (k + tau)/2)
    the lattice whose norm form is m*f: on every reduced form of
    -1500 <= D <= -3, with discriminant D and content 1."""
    checked = 0
    for form in reduced_forms_between(-1500, -3):
        delta = form.discriminant()
        ctx = Context(delta)
        lat = Lattice(ctx, ctx.elem(form.m), ctx.elem(Fraction(form.k, 2), Fraction(1, 2)))
        assert lat.to_form() == Form(form.m * form.m, form.m * form.k, form.m * form.n)
        square = _square(form)
        _, product_form = (lat * lat).to_form().content_and_primitive()
        assert product_form.reduce()[0] == square
        assert square.discriminant() == delta and square.is_primitive()
        checked += 1
    assert checked == 8220


def test_cube_roots_of_unity_form_a_3_group():
    """The classes with [f]^3 = 1, that is [f o f] = [f]^-1 = [(m, -k, n)],
    form a subgroup of exponent 3, so on every -3000 <= D <= -3 their count
    is a power of 3 (ROADMAP K3)."""
    counts = {}
    for delta in range(-3000, -2):
        if delta % 4 in (0, 1):
            counts[delta] = sum(1 for f in reduced_forms(delta)
                                if _square(f) == Form(f.m, -f.k, f.n).reduce()[0])
    for count in counts.values():
        while count % 3 == 0:
            count //= 3
        assert count == 1
    assert (counts[-4], counts[-23], counts[-972]) == (1, 3, 9)
    assert sum(counts.values()) == 2680
    assert Counter(counts.values()) == {1: 934, 3: 558, 9: 8}


def test_class_rules_agree_with_represent():
    """The probe's two class rules, checked by search on the sample values
    |xi| <= 3 of every reduced form of -400 <= D <= -3.  A closed value u
    (0, or a value of the principal form or of f o f) times any value is a
    value; a prime value p not dividing D times a value that is not closed
    is not."""
    closed_products = prime_products = 0
    for form in reduced_forms_between(-400, -3):
        delta = form.discriminant()
        squares = (principal_form(delta), _square(form))
        side = range(-3, 4)
        values = {form(x) for x in product(side, side)}
        closed = {u for u in values
                  if u == 0 or any(g.represent(u) is not None for g in squares)}
        for u, v in product(closed, values):
            assert form.represent(u * v) is not None
            closed_products += 1
        for p, v in product(values - closed, repeat=2):
            if delta % p and _is_prime(p):
                assert form.represent(p * v) is None
                prime_products += 1
    assert closed_products > 0 and prime_products > 0


def test_probe_search_count_on_reduced_forms(monkeypatch):
    """The class rules leave few searches on the probed form itself: at most
    7,316 represent calls over the probes of -400 <= D <= -3 (66,888 with
    the genus rule and square scaling alone).  A product that a closed
    factor or a prime-rule factor decides is never searched, even when the
    pair loop meets it on two values that are both remaining open values."""
    probed = None
    calls = 0
    represent = Form.represent

    def counting(self, target, box_bound=forms_module.DEFAULT_BOX):
        nonlocal calls
        calls += self is probed
        return represent(self, target, box_bound)

    monkeypatch.setattr(Form, "represent", counting)
    for probed in reduced_forms_between(-400, -3):
        semigroup_probe(probed)
    assert 0 < calls <= 7316


def test_probe_never_searches_for_zero(monkeypatch):
    """0 is a closed value of every form, as 0 * v = f(0, 0), so no probe
    searches for it: not an imprimitive, negative definite or indefinite
    one, nor a primitive positive definite one, whose closed values hold 1.
    Definite forms search with represent, indefinite ones with the row
    kernel, so both are watched."""
    targets = []
    kernel_forms = set()
    represent = Form.represent
    row_solutions = forms_module._row_solutions

    def recording(self, target, box_bound=forms_module.DEFAULT_BOX):
        targets.append(target)
        return represent(self, target, box_bound)

    def recording_rows(form, target, rows, col_bound):
        kernel_forms.add(form)
        targets.append(target)
        return row_solutions(form, target, rows, col_bound)

    monkeypatch.setattr(Form, "represent", recording)
    monkeypatch.setattr(forms_module, "_row_solutions", recording_rows)
    for form in (Form(4, 2, 6), Form(-1, 0, -1), Form(1, 0, -2), Form(2, 1, 3)):
        semigroup_probe(form)
    assert Form(1, 0, -2) in kernel_forms
    assert targets and 0 not in targets

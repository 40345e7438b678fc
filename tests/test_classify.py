"""Tests for the realizability searches and the real witness curve."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from normed_forms import (
    TYPE_MM,
    Context,
    CurvePoint,
    Decision,
    DegenerateFormError,
    Definiteness,
    Form,
    Lattice,
    Order3Verdict,
    PLUS_VARIANT_TYPES,
    PlusParams,
    Quadruple,
    curve_phase,
    curve_sample,
    full_classification,
    is_normed,
    make_minus_minus,
    make_plus,
    minus_minus_bounds,
    minus_minus_witnesses,
    order3_verdict,
    reduced_forms,
    search_minus_minus,
    search_plus,
    semigroup_probe,
    type_of,
)
from normed_forms import classify, forms
from normed_forms.forms import MAX_SEARCH_ROWS

TOL = 1e-9


def close(a, b, tol=TOL):
    return abs(a - b) <= tol


def test_minus_minus_bounds_values():
    """Exact witness boxes for three definite forms."""
    assert minus_minus_bounds(Form(4, 2, 6)) == (2, 3, 2, 1)
    assert minus_minus_bounds(Form(2, 1, 3)) == (1, 2, 1, 1)
    assert minus_minus_bounds(Form(1, 0, 1)) == (1, 1, 1, 1)


@st.composite
def positive_definite_forms(draw, size=10**20):
    m, n = draw(st.integers(1, size)), draw(st.integers(1, size))
    kmax = isqrt(4 * m * n - 1)
    return Form(m, draw(st.integers(-kmax, kmax)), n)


@given(positive_definite_forms())
def test_minus_minus_bounds_are_floor_square_roots(form):
    """Each bound b is floor(sqrt(4 p / |disc|)) for its p = m^2 n, n^3, m n^2
    or m^3: b^2 |disc| <= 4 p < (b + 1)^2 |disc|."""
    m, n = form.m, form.n
    absd = -form.discriminant()
    for b, p in zip(minus_minus_bounds(form), (m * m * n, n**3, m * n * n, m**3)):
        assert b >= 0
        assert b * b * absd <= 4 * p < (b + 1) * (b + 1) * absd


def test_minus_minus_bounds_require_definite():
    """Indefinite forms have an unbounded witness curve."""
    with pytest.raises(ValueError):
        minus_minus_bounds(Form(1, 0, -1))


def test_witness_lists_for_example_family():
    """Complete witness enumerations for the small definite examples."""
    cases = {
        (2, 1, 3): [(-1, 2, 1, -1), (1, -2, -1, 1)],
        (2, -1, 3): [(-1, 2, -1, 1), (1, -2, 1, -1)],
        (2, 1, 4): [(0, -1, -2, 1), (0, 1, 2, -1)],
        (2, -1, 4): [(0, -1, 2, -1), (0, 1, -2, 1)],
        (3, 1, 5): [(-1, 1, -2, 1), (1, -1, 2, -1)],
        (3, -1, 5): [(-1, 1, 2, -1), (1, -1, -2, 1)],
        (1, 1, 6): [(-1, 5, -1, 0), (1, -5, 1, 0)],
        (1, 0, 7): [(-1, 7, 0, 0), (1, -7, 0, 0)],
    }
    for coeffs, expected in cases.items():
        hits, decision = minus_minus_witnesses(Form(*coeffs))
        assert decision is Decision.DECIDED
        assert [(q.a, q.b, q.c, q.d) for q in hits] == expected


def test_witnesses_of_sum_of_squares():
    """x^2 + y^2 has the four sign-symmetric witnesses."""
    hits, decision = minus_minus_witnesses(Form(1, 0, 1))
    assert decision is Decision.DECIDED
    assert [(q.a, q.b, q.c, q.d) for q in hits] == [
        (-1, 1, 0, 0),
        (0, 0, -1, 1),
        (0, 0, 1, -1),
        (1, -1, 0, 0),
    ]


def test_no_witness_for_doubled_form():
    """(4, 2, 6) provably admits no minus-minus witness."""
    hits, decision = minus_minus_witnesses(Form(4, 2, 6))
    assert hits == []
    assert decision is Decision.DECIDED
    assert search_minus_minus(Form(4, 2, 6)) == (None, Decision.DECIDED)


def test_negative_definite_has_no_witness():
    """f(s) <= 0 < f(x) f(y) rules every pairing out at once."""
    assert minus_minus_witnesses(Form(-2, -1, -3)) == ([], Decision.DECIDED)
    assert search_plus(Form(-1, 0, -1)) == (None, Decision.DECIDED)


def test_zero_diagonal_form_witnesses():
    """(0, k, 0) is realized by divisor pairs b d = -k."""
    hits, decision = minus_minus_witnesses(Form(0, 1, 0), box_bound=10)
    assert decision is Decision.DECIDED
    assert [(q.a, q.b, q.c, q.d) for q in hits] == [(0, -1, 0, 1), (0, 1, 0, -1)]


def test_indefinite_box_outcomes():
    """A hit decides; an empty box leaves the question open."""
    hits, decision = minus_minus_witnesses(Form(1, 3, 1), box_bound=10)
    assert decision is Decision.DECIDED
    assert Quadruple(-1, 1, 0, -3) in hits
    empty, decision = minus_minus_witnesses(Form(1, 3, 1), box_bound=0)
    assert empty == [] and decision is Decision.BOUNDED


def test_witness_search_rejects_degenerate():
    """Degenerate forms are outside both searches."""
    with pytest.raises(DegenerateFormError):
        minus_minus_witnesses(Form(1, 2, 1))
    with pytest.raises(DegenerateFormError):
        search_plus(Form(0, 0, 3))


@given(st.integers(1, 10), st.integers(-10, 10), st.integers(1, 10))
@settings(max_examples=80)
def test_witnesses_are_sound_and_sorted(m, k, n):
    """Each listed quadruple really constructs the form, in sorted order."""
    f = Form(m, k, n)
    if f.definiteness().value != "positive_definite":
        return
    hits, decision = minus_minus_witnesses(f)
    assert decision is Decision.DECIDED
    tuples = [(q.a, q.b, q.c, q.d) for q in hits]
    assert tuples == sorted(tuples)
    bounds = minus_minus_bounds(f)
    for quad in hits:
        pairing, form = make_minus_minus(quad)
        assert form == f
        assert is_normed(pairing, f)
        assert type_of(pairing, f) == TYPE_MM
        for value, bound in zip((quad.a, quad.b, quad.c, quad.d), bounds):
            assert abs(value) <= bound


def test_search_plus_examples():
    """Divisor-of-content representation search."""
    assert search_plus(Form(1, 0, 1)) == (PlusParams(1, 0, 1, 0, -1), Decision.DECIDED)
    assert search_plus(Form(4, 2, 6)) == (PlusParams(2, 1, 3, -1, 0), Decision.DECIDED)
    assert search_plus(Form(2, 1, 3)) == (None, Decision.DECIDED)
    assert search_plus(Form(1, 1, 6)) == (PlusParams(1, 1, 6, -1, 0), Decision.DECIDED)


@given(st.integers(1, 10), st.integers(-10, 10), st.integers(1, 10))
@settings(max_examples=80)
def test_search_plus_soundness(m, k, n):
    """Found parameters rebuild the form through all three constructors."""
    f = Form(m, k, n)
    if f.definiteness().value != "positive_definite":
        return
    params, decision = search_plus(f)
    assert decision is Decision.DECIDED
    if params is None:
        return
    assert params.r > 0
    assert f.content() % params.r == 0
    for variant in (1, 2, 3):
        pairing, form = make_plus(variant, params)
        assert form == f
        assert is_normed(pairing, f)
        assert type_of(pairing, f) == PLUS_VARIANT_TYPES[variant]


def test_full_classification_reports():
    """The three canonical shapes: all four types, plus only, minus only."""
    every = full_classification(Form(1, 0, 1))
    assert every.plus_params is not None and every.minus_quadruple is not None
    assert every.fully_decided
    plus_only = full_classification(Form(4, 2, 6))
    assert plus_only.plus_params == PlusParams(2, 1, 3, -1, 0)
    assert plus_only.minus_quadruple is None
    assert plus_only.fully_decided
    minus_only = full_classification(Form(2, 1, 3))
    assert minus_only.plus_params is None
    assert minus_only.minus_quadruple == Quadruple(-1, 2, 1, -1)
    assert minus_only.fully_decided


def test_full_classification_bounded_flags():
    """An indefinite miss is reported as open, and --strict style checks see it."""
    report = full_classification(Form(1, 3, 1), box_bound=0)
    assert report.plus_decision is Decision.BOUNDED
    assert report.minus_decision is Decision.BOUNDED
    assert not report.fully_decided


# the CLI's limit: full_classification refuses with the CLI's exact text
CAP = MAX_SEARCH_ROWS
# (form, box_bound, message, refused before the content is trial-divided)
OVER_BUDGET = [
    (Form(10**30, 0, 10**30), 100,
     f"the minus-minus search would solve {2 * 10**15 + 1} rows, more than {CAP}", True),
    (Form(250_000_000_000, 1, 250_000_000_001), 100,
     f"the minus-minus search would solve {CAP + 1} rows, more than {CAP}", True),
    (Form(10**30, 0, -10**30), 100,
     f"the plus search would trial-divide up to {10**15}, more than {CAP}", True),
    (Form((CAP + 1) ** 2, 0, -(CAP + 1) ** 2), 100,
     f"the plus search would trial-divide up to {CAP + 1}, more than {CAP}", True),
    (Form(720720, 720720, -720720), CAP,
     f"the plus search would solve {240 * (CAP + 1)} rows, more than {CAP + 1}", False),
    (Form(1, 3, 1), 10**9,
     f"the plus search would solve {10**9 + 1} rows, more than {CAP + 1}", False),
]


@pytest.fixture
def no_rows(monkeypatch):
    """Make every row solver raise; the returned callable makes trial
    division of the content raise too."""
    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(Form, "represent", no_search)
    monkeypatch.setattr(forms, "_row_solutions", no_search)
    monkeypatch.setattr(classify, "_row_solutions", no_search)
    return lambda: monkeypatch.setattr(classify, "_positive_divisors", no_search)


@pytest.mark.parametrize("form, box, message, undivided", OVER_BUDGET)
def test_full_classification_refuses_over_budget(no_rows, form, box, message,
                                                 undivided):
    """Every input the classify command refuses raises ValueError with the
    command's text, before any row is solved; search_plus refuses the
    indefinite ones itself."""
    if undivided:
        no_rows()
    with pytest.raises(ValueError) as info:
        full_classification(form, box_bound=box)
    assert str(info.value) == message
    if form.discriminant() > 0:
        with pytest.raises(ValueError) as info:
            search_plus(form, box)
        assert str(info.value) == message


# (10^15, 1; 10^15 - 1, 1) maps (1, 0, 1) onto this form of content 1,
# (1999999999999998000000000000001, 3999999999999998, 2), whose plus search
# for r = 1 would solve isqrt(4m // 4) + 1 rows
FAR_UNIT = Form(1, 0, 1).transform(((10**15, 1), (10**15 - 1, 1)))
# (search, form, box_bound, message) for the public searches on their own
SEARCH_OVER_BUDGET = [
    (minus_minus_witnesses, Form(10**30, 1, 10**30), 100,
     f"the minus-minus search would solve {2 * 10**15 + 1} rows, more than {CAP}"),
    (search_minus_minus, Form(10**30, 1, 10**30), 100,
     f"the minus-minus search would solve {2 * 10**15 + 1} rows, more than {CAP}"),
    (minus_minus_witnesses, Form(1, 3, 1), 10**9,
     f"the minus-minus search would solve {2 * 10**9 + 1} rows, "
     f"more than {2 * CAP + 1}"),
    (search_plus, FAR_UNIT, 100,
     f"the plus search would solve {isqrt(FAR_UNIT.m) + 1} rows for one divisor, "
     f"more than {CAP}"),
    (search_plus, Form(CAP**2, 0, CAP**2), 100,
     f"the plus search would solve {CAP + 1} rows for one divisor, more than {CAP}"),
]


@pytest.mark.parametrize("search, form, box, message", SEARCH_OVER_BUDGET)
def test_public_searches_refuse_over_budget(no_rows, search, form, box, message):
    """Each public search keeps the budget on its own, before it solves a row
    or trial-divides the content."""
    no_rows()
    with pytest.raises(ValueError) as info:
        search(form, box)
    assert str(info.value) == message


def test_public_search_budgets_admit_their_boundary():
    """search_plus still searches a positive definite form of content
    (CAP - 1)^2, whose plus search for r = content solves exactly CAP rows.
    (The indefinite box of MAX_SEARCH_ROWS is pinned through the classify
    command, in tests/test_cli.py.)"""
    edge = CAP - 1
    params, decision = search_plus(Form(edge**2, 0, edge**2))
    assert (params, decision) == (PlusParams(edge, 0, edge, 0, -1), Decision.DECIDED)


def test_full_classification_refuses_degenerate_forms(no_rows):
    no_rows()
    for form in (Form(1, 2, 1), Form(0, 0, 0), Form(0, 0, 5)):
        with pytest.raises(DegenerateFormError) as info:
            full_classification(form)
        assert str(info.value) == "classification requires a nondegenerate form"


def test_order3_verdicts():
    """Class order of the derived form: 3, 1, or out of scope."""
    assert order3_verdict(Quadruple(1, -2, -1, 1)) is Order3Verdict.ORDER_3
    assert order3_verdict(Quadruple(-1, 5, -1, 0)) is Order3Verdict.ORDER_1
    assert order3_verdict(Quadruple(0, 1, 0, -1)) is Order3Verdict.NOT_APPLICABLE
    assert order3_verdict(Quadruple(1, 1, 1, 1)) is Order3Verdict.NOT_APPLICABLE


def test_curve_phase_values():
    """Circular and hyperbolic phase of the witness curve."""
    assert close(curve_phase(Form(4, 2, 6)), math.acos(2 / math.sqrt(96)))
    assert close(curve_phase(Form(2, -1, 3)), -math.acos(-1 / math.sqrt(24)))
    assert close(curve_phase(Form(1, 3, 1)), math.acosh(3 / 2))
    assert close(curve_phase(Form(1, -3, 1)), math.acosh(3 / 2))


def test_curve_phase_uses_the_exact_discriminant():
    """|disc| = 1 against 4mn = 4 * 10^24: the phase is 1e-6 to 12 digits,
    where acos or acosh of the rounded ratio k / sqrt(4mn) is off by 4.4e-5."""
    for k in (2 * 10**12 + 1, 2 * 10**12 - 1):
        phase = curve_phase(Form(10**12, k, 10**12))
        assert abs(phase - 1e-6) <= 1e-12 * 1e-6


def test_curve_sample_fixed_points():
    """Known exact curve points at theta = 0."""
    (pt,) = curve_sample(Form(4, 2, 6), [0.0])
    assert close(pt.a, 2) and close(pt.b, -2.5) and close(pt.c, 1) and close(pt.d, 0)
    (hpt,) = curve_sample(Form(1, 3, 1), [0.0])
    assert close(hpt.a, 1) and close(hpt.b, 8) and close(hpt.c, 3) and close(hpt.d, 0)


def test_curve_minus_branch_negates():
    """The second branch is the pointwise negation of the first."""
    (plus,) = curve_sample(Form(4, 2, 6), [0.35])
    (minus,) = curve_sample(Form(4, 2, 6), [0.35], branch=-1)
    for field in ("a", "b", "c", "d"):
        assert close(getattr(minus, field), -getattr(plus, field))


# (1, 0, 1) in a far basis: disc = -4 and k has 201 digits, but m has 401
FAR_BASIS = Form(1, 0, 1).transform(((10**200, 1), (10**200 - 1, 1)))


def test_curve_rejects_unusable_forms():
    """m > 0, n > 0, nondegeneracy and floating-point range are required, and
    checked before the first point, so a call with no theta raises too."""
    for thetas in ([0.0], []):
        with pytest.raises(ValueError):
            curve_sample(Form(0, 1, 5), thetas)
        with pytest.raises(ValueError):
            curve_sample(Form(-1, 0, -1), thetas)
        with pytest.raises(DegenerateFormError):
            curve_sample(Form(1, 2, 1), thetas)
    # the discriminant of (1, 10^300, 1) is about 10^600, past any float;
    # sqrt(m) of FAR_BASIS is too, though its phase is not
    for form in (Form(1, 0, 10**400), Form(1, 10**400, 1), Form(1, 10**300, 1), FAR_BASIS):
        for call in (lambda: curve_phase(form), lambda: curve_sample(form, [0.0]),
                     lambda: curve_sample(form, [])):
            with pytest.raises(ValueError, match="too large"):
                call()
    # overflow is the only way out of the float range: the points of
    # (1, 3, 1) pass 10^308 at theta = 236
    for theta in (236.0, 1000.0):
        with pytest.raises(ValueError, match="floating-point range"):
            curve_sample(Form(1, 3, 1), [theta])


@pytest.mark.parametrize("coeffs, name", [((4, 2, 6), "atan2"), ((1, 3, 1), "asinh")])
def test_curve_sample_derives_the_curve_once(monkeypatch, coeffs, name):
    """1,000 points take one phase: the curve is derived once per call."""
    calls = []
    phase_fn = getattr(math, name)

    def counted(*args):
        calls.append(args)
        return phase_fn(*args)

    monkeypatch.setattr(math, name, counted)
    points = curve_sample(Form(*coeffs), [i / 1000 for i in range(1000)])
    assert len(points) == 1000 and len(calls) == 1


def assert_solves_witness_equations(form, pt, rel=1e-12):
    """a^2 - c d = m, a c - b d = k and c^2 - a b = n, each to rel of the
    largest term any of them can have (the square of the largest coordinate,
    or the coefficient)."""
    size = max(abs(pt.a), abs(pt.b), abs(pt.c), abs(pt.d)) ** 2
    for lhs, target in ((pt.a**2 - pt.c * pt.d, form.m),
                        (pt.a * pt.c - pt.b * pt.d, form.k),
                        (pt.c**2 - pt.a * pt.b, form.n)):
        assert abs(lhs - target) <= rel * max(size, abs(target))


def test_curve_keeps_points_where_alpha_delta_and_beta_gamma_cancel():
    """w = alpha delta - beta gamma comes from the discriminant, so points far
    out on a hyperbola, or where a tiny phase leaves alpha delta and
    beta gamma nearly equal, stay finite and solve the witness equations."""
    for form, theta in ((Form(1, 3, 1), 12.0), (Form(1, -3, 1), -12.0),
                        (Form(10**20, 2 * 10**20 + 1, 10**20), 0.5),
                        (Form(10**17, 2 * 10**17 - 1, 10**17), 0.5)):
        (pt,) = curve_sample(form, [theta])
        assert all(map(math.isfinite, (pt.a, pt.b, pt.c, pt.d)))
        assert_solves_witness_equations(form, pt)


CURVE_FORMS = [(4, 2, 6), (2, 1, 3), (1, 0, 1), (3, -1, 5), (1, 3, 1), (2, 5, 1),
               (1, -3, 1), (2, -5, 1)]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A real embedding (alpha, beta, gamma, delta) of a form (m, k, n).

    alpha^2 + eps gamma^2 = m, 2(alpha beta + eps gamma delta) = k and
    beta^2 + eps delta^2 = n, with eps = +1 circular or -1 hyperbolic, and
    w = alpha delta - beta gamma."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    eps: int
    w: float

    def realized_coefficients(self) -> tuple[float, float, float]:
        """(m, k, n) this embedding induces, for checking against a form."""
        return (
            self.alpha * self.alpha + self.eps * self.gamma * self.gamma,
            2 * (self.alpha * self.beta + self.eps * self.gamma * self.delta),
            self.beta * self.beta + self.eps * self.delta * self.delta,
        )


def _embedding_curve(form: Form, branch: int):
    """(phase, at) of the witness curve, where at(theta) is its embedding.

    The route curve_sample took through a public EmbeddingMatrix per point,
    kept as the oracle for the points curve._curve now computes inline; the
    proofs of its phase and of w are in curve._curve's docstring.
    """
    kind = form.definiteness()
    if kind is Definiteness.DEGENERATE:
        raise DegenerateFormError("the witness curve needs a nondegenerate form")
    m, k, n = form.coefficients()
    if m <= 0 or n <= 0:
        raise ValueError("the witness curve needs m > 0 and n > 0")
    sign = 1 if branch >= 0 else -1
    try:
        root = math.sqrt(abs(form.discriminant()))
        if kind is Definiteness.POSITIVE_DEFINITE:
            phase, eps, s, c = math.atan2(root, k), 1, math.sin, math.cos
            phase = -phase if k < 0 else phase
        else:
            phase = math.asinh(root / math.sqrt(4 * m * n))
            eps, s, c = -1, math.sinh, math.cosh
        sm = sign * math.sqrt(m)
        sn = sign * math.sqrt(n) * (-1 if eps == -1 and k < 0 else 1)
    except OverflowError:
        raise ValueError("the coefficients are too large for the "
                         "floating-point witness curve") from None
    w = (-root if k < 0 else root) / 2

    def at(theta: float) -> EmbeddingMatrix:
        return EmbeddingMatrix(sm * c(theta), sn * c(theta + phase), sm * s(theta),
                               sn * s(theta + phase), eps, w)

    return phase, at


def curve_embedding(form: Form, theta: float, branch: int = 1) -> EmbeddingMatrix:
    """Point (alpha, beta, gamma, delta) of the real embedding curve."""
    return _embedding_curve(form, branch)[1](theta)


def embedding_to_quadruple(emb: EmbeddingMatrix) -> tuple[float, float, float, float]:
    """Recover the quadruple a witness embedding induces (w != 0)."""
    alpha, beta, gamma, delta, eps, w = emb.alpha, emb.beta, emb.gamma, emb.delta, emb.eps, emb.w
    a = (delta * (alpha * alpha - eps * gamma * gamma) + 2 * alpha * beta * gamma) / w
    b = delta * (3 * beta * beta - eps * delta * delta) / w
    c = (gamma * (beta * beta - eps * delta * delta) + 2 * alpha * beta * delta) / w
    d = gamma * (3 * alpha * alpha - eps * gamma * gamma) / w
    return a, b, c, d


def embedding_curve_sample(form: Form, thetas, branch: int = 1) -> list[CurvePoint]:
    """curve_sample by the embedding oracle: one EmbeddingMatrix per point."""
    at = _embedding_curve(form, branch)[1]
    points = []
    for theta in thetas:
        try:
            quad = embedding_to_quadruple(at(theta))
        except OverflowError:  # cosh or sinh past |theta| of about 710
            quad = (math.inf,)
        if not all(map(math.isfinite, quad)):
            raise ValueError("the witness curve leaves the floating-point range "
                             f"at theta = {theta}")
        points.append(CurvePoint(float(theta), *quad))
    return points


def outcome(call, *args):
    """repr of call(*args), or the type and text of what it raises."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


big = st.integers(-10**15, 10**15)


@given(
    st.one_of(st.sampled_from(CURVE_FORMS),
              st.tuples(st.integers(1, 10**15), big, st.integers(1, 10**15)),
              st.tuples(big, big, big)),
    st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), max_size=6),
    st.lists(st.floats(min_value=-235.0, max_value=235.0, allow_nan=False), max_size=3),
    st.sampled_from([1, -1]),
)
@settings(max_examples=300)
def test_curve_sample_points_are_embedding_quadruples(coeffs, thetas, far, branch):
    """A sampled point is, float for float, the quadruple of the oracle's
    embedding at its theta, and curve_sample raises exactly where the oracle
    does; far theta only on indefinite forms, whose points stay finite there."""
    f = Form(*coeffs)
    if f.discriminant() > 0:
        thetas = thetas + far
    assert outcome(curve_sample, f, thetas, branch) == outcome(
        embedding_curve_sample, f, thetas, branch)


@given(
    st.sampled_from(CURVE_FORMS),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=120)
def test_embedding_realizes_coefficients(coeffs, theta):
    """alpha^2 + eps gamma^2 = m, 2(alpha beta + eps gamma delta) = k, ..."""
    f = Form(*coeffs)
    emb = curve_embedding(f, theta)
    assert emb.eps == (1 if f.discriminant() < 0 else -1)
    for value, target in zip(emb.realized_coefficients(), f.coefficients()):
        assert close(value, target, 1e-7)


@given(
    st.sampled_from(CURVE_FORMS),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.sampled_from([1, -1]),
)
@settings(max_examples=120)
def test_embedding_determinant_is_read_off_the_discriminant(coeffs, theta, branch):
    """emb.w is alpha delta - beta gamma, of size sqrt(|disc|)/2 and the sign of k."""
    f = Form(*coeffs)
    emb = curve_embedding(f, theta, branch)
    assert close(emb.w, emb.alpha * emb.delta - emb.beta * emb.gamma, 1e-9 * abs(emb.w))
    assert emb.w == (-1 if f.k < 0 else 1) * math.sqrt(abs(f.discriminant())) / 2


@given(st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12),
       st.integers(-12, 12))
@settings(max_examples=300)
def test_minus_minus_box_holds_every_generating_quadruple(a, b, c, d):
    """The exact proof of the box: the pairing of a quadruple whose form is
    positive definite takes the values m^2, m n and n^2 at its basis values
    (a, -d), (c, -a) and (b, -c), and the coordinates lie in the box."""
    quad = Quadruple(a, b, c, d)
    pairing, f = make_minus_minus(quad)
    if f.definiteness() is not Definiteness.POSITIVE_DEFINITE:
        return
    m, n = f.m, f.n
    for (x, y), value, target in ((((1, 0), (1, 0)), (a, -d), m * m),
                                  (((1, 0), (0, 1)), (c, -a), m * n),
                                  (((0, 1), (0, 1)), (b, -c), n * n)):
        assert pairing(x, y) == value
        assert f(value) == target
    amax, bmax, cmax, dmax = minus_minus_bounds(f)
    assert abs(a) <= amax and abs(b) <= bmax and abs(c) <= cmax and abs(d) <= dmax
    assert quad in minus_minus_witnesses(f)[0]


def closed_form_quadruple(form, theta, branch=1):
    """The closed trigonometric formula for a curve point, kept as an oracle.

    It holds for definite forms and for indefinite forms with k > 0.
    """
    m, k, n = form.coefficients()
    ratio = k / math.sqrt(4 * m * n)
    if form.discriminant() < 0:
        phase = math.acos(ratio)
        if k < 0:
            phase = -phase
        s, c = math.sin, math.cos
    else:
        phase, s, c = math.acosh(ratio), math.sinh, math.cosh
    sm, sn = math.sqrt(m), math.sqrt(n)
    sp = s(phase)
    sign = 1 if branch >= 0 else -1
    ca = c(theta + phase)
    cd = c(theta)
    return (
        sign * sm * s(3 * theta + phase) / sp,
        sign * (n / sm) * s(theta + phase) * (4 * ca * ca - 1) / sp,
        sign * sn * s(3 * theta + 2 * phase) / sp,
        sign * (m / sn) * s(theta) * (4 * cd * cd - 1) / sp,
    )


@given(
    st.sampled_from(CURVE_FORMS),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.sampled_from([1, -1]),
)
@settings(max_examples=120)
def test_curve_matches_closed_form_oracle(coeffs, theta, branch):
    """A curve_sample point equals the closed formula; an indefinite form with
    k < 0 gets the point (a, b, -c, -d) of the form with k > 0 (x2 -> -x2)."""
    f = Form(*coeffs)
    (pt,) = curve_sample(f, [theta], branch)
    got = (pt.a, pt.b, pt.c, pt.d)
    if f.discriminant() > 0 and f.k < 0:
        a, b, c, d = closed_form_quadruple(Form(f.m, -f.k, f.n), theta, branch)
        expected = (a, b, -c, -d)
    else:
        expected = closed_form_quadruple(f, theta, branch)
    for x, y in zip(got, expected):
        assert close(x, y, 1e-7)


@given(
    st.sampled_from(CURVE_FORMS),
    st.floats(min_value=0.0, max_value=6.3, allow_nan=False),
)
@settings(max_examples=150)
def test_curve_points_solve_witness_equations(coeffs, theta):
    """(a, b, c, d) on the curve satisfies the three equations over the reals,
    on a hyperbola too for |theta| <= 100, where the points reach 10^130."""
    f = Form(*coeffs)
    if f.discriminant() > 0:
        theta = 100 * (theta / 3.15 - 1)
    (pt,) = curve_sample(f, [theta])
    assert_solves_witness_equations(f, pt)


@given(
    st.sampled_from([(4, 2, 6), (2, 1, 3), (1, 0, 1)]),
    st.floats(min_value=0.0, max_value=6.3, allow_nan=False),
)
@settings(max_examples=120)
def test_curve_points_respect_bounds(coeffs, theta):
    """Definite curve points stay inside the exact coordinate bounds."""
    f = Form(*coeffs)
    bounds = minus_minus_bounds(f)
    exact = (
        math.sqrt(4 * f.m**2 * f.n / abs(f.discriminant())),
        math.sqrt(4 * f.n**3 / abs(f.discriminant())),
        math.sqrt(4 * f.m * f.n**2 / abs(f.discriminant())),
        math.sqrt(4 * f.m**3 / abs(f.discriminant())),
    )
    (pt,) = curve_sample(f, [theta])
    for value, limit, floor_limit in zip((pt.a, pt.b, pt.c, pt.d), exact, bounds):
        assert abs(value) <= limit + 1e-7
        assert floor_limit == int(limit)


def test_triple_angle_identities():
    """b and d follow the tripled angle up to the fixed scale factors."""
    f = Form(4, 2, 6)
    phase = curve_phase(f)
    scale = 1 / math.sin(phase)
    for theta in (0.1, 0.7, 2.3):
        (pt,) = curve_sample(f, [theta])
        b_expected = (f.n / math.sqrt(f.m)) * math.sin(3 * (theta + phase)) * scale
        d_expected = (f.m / math.sqrt(f.n)) * math.sin(3 * theta) * scale
        assert close(pt.b, b_expected, 1e-7)
        assert close(pt.d, d_expected, 1e-7)


def test_has_witness_reads_either_search():
    """A plus or a minus-minus witness counts; negative definite never has one."""
    assert full_classification(Form(4, 2, 6)).has_witness  # plus only
    assert full_classification(Form(2, 1, 3)).has_witness  # minus-minus only
    assert not full_classification(Form(2, 1, 6)).has_witness
    assert not full_classification(Form(-1, 0, -1)).has_witness


@cache
def _negative_window():
    """(report, probe counterexample count) for each reduced form, -400..-3."""
    census = []
    for delta in range(-400, -2):
        if delta % 4 in (0, 1):
            for form in reduced_forms(delta):
                report = full_classification(form)
                census.append((report, semigroup_probe(form).counterexample_count))
    return census


def test_window_witness_pairings_are_normed():
    """Every witness on -400..-3 builds a normed pairing of its own form,
    the certificate catalog uses instead of the probe."""
    witnessed = 0
    for report, _ in _negative_window():
        if report.minus_quadruple is not None:
            pairing, form = make_minus_minus(report.minus_quadruple)
            assert form == report.form and is_normed(pairing, form)
        if report.plus_params is not None:
            pairing, form = make_plus(1, report.plus_params)
            assert form == report.form and is_normed(pairing, form)
        witnessed += report.has_witness
    assert (len(_negative_window()), witnessed) == (1108, 308)


def test_window_probe_agrees_with_witness():
    """The probe, kept as the oracle for the records catalog skips, finds no
    counterexample where a witness exists, and one wherever none exists:
    no form of -400..-3 is closed on the sample without a certificate."""
    for report, count in _negative_window():
        assert (count == 0) == report.has_witness, report.form


def test_window_first_prime_value_certifies():
    """ROADMAP item 1's certificate on -400..-3, the oracle for a certificate
    in the library: order the points |xi| <= 12 by |x1| + |x2|, then by
    (x1, x2), and take the first prime value p with p not dividing Delta.
    Such a p exists with p^2 not a value of f, which proves (x, x) a
    counterexample, exactly for the 800 forms without a witness."""
    box = range(-12, 13)
    points = sorted(((x1, x2) for x1 in box for x2 in box),
                    key=lambda x: (abs(x[0]) + abs(x[1]), x))
    certified = latest = 0
    for report, _ in _negative_window():
        form, disc = report.form, report.form.discriminant()
        values = ((i, form(x)) for i, x in enumerate(points))
        index, p = next(((i, v) for i, v in values if forms._is_prime(v) and disc % v),
                        (None, None))
        found = p is not None and form.represent(p * p) is None
        assert found == (not report.has_witness), form
        if found:
            certified += 1
            latest = max(latest, index)
    assert (certified, latest) == (800, 97)


def test_window_order3_coincidence():
    """On -400..-3 three properties coincide: a minus-minus witness, a
    principal cube of the form's ideal span(m, (-k + tau)/2), and no probe
    counterexample.  This is evidence on a finite window, not a theorem."""
    for report, count in _negative_window():
        m, k, _ = report.form.coefficients()
        ctx = Context(report.form.discriminant())
        ideal = Lattice(ctx, ctx.elem(m), ctx.elem(Fraction(-k, 2), Fraction(1, 2)))
        cube_principal = ideal.cube_is_principal()
        assert (report.minus_quadruple is not None) == cube_principal, report.form
        assert cube_principal == (count == 0), report.form


def test_witness_census_matches_class_order():
    """On all 12,699 reduced forms of -2000 <= D <= -3, a plus or minus-minus
    witness exists exactly when [f]^3 = 1, that is when f o f reduces to the
    inverse class (m, -k, n).  The closure theorem (forms module docstring)
    proves closed <=> [f]^3 = 1; that a witness then exists is only this
    evidence."""
    count = witnessed = 0
    for delta in range(-2000, -2):
        if delta % 4 in (0, 1):
            for form in reduced_forms(delta):
                has_witness = full_classification(form).has_witness
                inverse = Form(form.m, -form.k, form.n).reduce()[0]
                assert has_witness == (forms._square(form) == inverse), form
                count += 1
                witnessed += has_witness
    assert (count, witnessed) == (12699, 1750)

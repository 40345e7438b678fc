"""Tests for binary quadratic forms: evaluation, reduction, representation."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from normed_forms import (
    Definiteness,
    DegenerateFormError,
    Form,
    principal_form,
    reduced_forms,
    semigroup_probe,
)
from normed_forms import forms
from normed_forms.forms import IDENTITY, mat_det, mat_mul

coeff = st.integers(min_value=-30, max_value=30)
small = st.integers(min_value=-6, max_value=6)


def sl2_words(draw_letters: list[int]):
    """Product of the standard generators indexed by a word in {0, 1, 2}."""
    s = ((0, -1), (1, 0))
    t = ((1, 1), (0, 1))
    tinv = ((1, -1), (0, 1))
    mat = IDENTITY
    for letter in draw_letters:
        mat = mat_mul(mat, (s, t, tinv)[letter])
    return mat


sl2 = st.builds(sl2_words, st.lists(st.integers(0, 2), max_size=8))


def test_evaluation():
    """A form evaluates as m x1^2 + k x1 x2 + n x2^2."""
    f = Form(2, 1, 3)
    assert f((1, 0)) == 2
    assert f((0, 1)) == 3
    assert f((1, 1)) == 6
    assert f((-1, 2)) == 12


def test_discriminant_values():
    """disc = k^2 - 4 m n."""
    assert Form(2, 1, 3).discriminant() == -23
    assert Form(1, 0, 1).discriminant() == -4
    assert Form(1, 0, -2).discriminant() == 8
    assert Form(1, 2, 1).discriminant() == 0


def test_definiteness_cases():
    """The four definiteness classes on sample forms."""
    assert Form(1, 0, 1).definiteness() is Definiteness.POSITIVE_DEFINITE
    assert Form(-1, 0, -2).definiteness() is Definiteness.NEGATIVE_DEFINITE
    assert Form(1, 0, -1).definiteness() is Definiteness.INDEFINITE
    assert Form(1, 3, 1).definiteness() is Definiteness.INDEFINITE
    assert Form(1, 2, 1).definiteness() is Definiteness.DEGENERATE
    assert Form(0, 0, 0).definiteness() is Definiteness.DEGENERATE


def test_negation():
    """-f negates all three coefficients."""
    assert (-Form(2, 1, -3)).coefficients() == (-2, -1, 3)


def test_content_and_primitive():
    """content = gcd of coefficients; primitive part divides it out."""
    content, prim = Form(4, 2, 6).content_and_primitive()
    assert content == 2
    assert prim == Form(2, 1, 3)
    assert Form(2, 1, 3).is_primitive()
    assert not Form(4, 2, 6).is_primitive()
    assert Form(0, -3, 6).content() == 3


def test_zero_form_content_rejected():
    """The zero form has no content."""
    with pytest.raises(ValueError):
        Form(0, 0, 0).content()


def test_transform_example():
    """Substituting x -> M x changes (1,0,1) by T into (1,2,2)."""
    assert Form(1, 0, 1).transform(((1, 1), (0, 1))) == Form(1, 2, 2)


def test_transform_needs_unit_determinant():
    """Only determinant-one substitutions are allowed."""
    with pytest.raises(ValueError):
        Form(1, 0, 1).transform(((2, 0), (0, 1)))


@given(coeff, coeff, coeff, sl2)
def test_transform_preserves_discriminant(m, k, n, mat):
    """disc is a class invariant under unimodular substitution."""
    f = Form(m, k, n)
    assert f.transform(mat).discriminant() == f.discriminant()


@given(coeff, coeff, coeff, sl2, sl2)
def test_transform_composes(m, k, n, mat1, mat2):
    """(f . M1) . M2 equals f . (M1 M2)."""
    f = Form(m, k, n)
    assert f.transform(mat1).transform(mat2) == f.transform(mat_mul(mat1, mat2))


@given(coeff, coeff, coeff, sl2, small, small)
def test_transform_evaluates_composed(m, k, n, mat, x1, x2):
    """f.transform(M) evaluated at x equals f at M x."""
    f = Form(m, k, n)
    image = (mat[0][0] * x1 + mat[0][1] * x2, mat[1][0] * x1 + mat[1][1] * x2)
    assert f.transform(mat)((x1, x2)) == f(image)


def test_reduce_examples():
    """Known reductions, including the identity on already reduced forms."""
    reduced, mat = Form(3, 4, 2).reduce()
    assert reduced == Form(1, 0, 2)
    assert mat == ((-1, 0), (1, -1))
    assert Form(3, 4, 2).transform(mat) == reduced
    assert Form(1, 1, 6).reduce() == (Form(1, 1, 6), IDENTITY)
    assert Form(2, 1, 3).is_reduced()
    assert not Form(3, 4, 2).is_reduced()
    assert not Form(1, 3, 1).is_reduced()  # indefinite


def test_reduce_requires_positive_definite_primitive():
    """Reduction is defined for primitive positive definite forms only."""
    with pytest.raises(ValueError):
        Form(1, 0, -1).reduce()
    with pytest.raises(ValueError):
        Form(4, 2, 6).reduce()


def test_is_principal():
    """The principal-class test reduces, and rejects what reduce rejects."""
    assert Form(3, 4, 2).is_principal()  # reduces to (1, 0, 2)
    assert Form(6, 1, 1).is_principal()  # reduces to (1, 1, 6)
    assert not Form(2, 1, 3).is_principal()
    assert not Form(3, -1, 2).is_principal()
    with pytest.raises(ValueError):
        Form(1, 0, -1).is_principal()
    with pytest.raises(ValueError):
        Form(4, 2, 6).is_principal()


@given(st.integers(1, 20), st.integers(-20, 20), st.integers(1, 20))
def test_reduce_soundness(m, k, n):
    """Reduction outputs a reduced equivalent form with its witness matrix."""
    f = Form(m, k, n)
    if f.definiteness() is not Definiteness.POSITIVE_DEFINITE or not f.is_primitive():
        return
    reduced, mat = f.reduce()
    assert mat_det(mat) == 1
    assert f.transform(mat) == reduced
    assert reduced.is_reduced()
    assert reduced.reduce() == (reduced, IDENTITY)


def test_principal_forms():
    """Principal form per discriminant parity."""
    assert principal_form(-4) == Form(1, 0, 1)
    assert principal_form(-23) == Form(1, 1, 6)
    assert principal_form(8) == Form(1, 0, -2)
    assert principal_form(5) == Form(1, 1, -1)


def test_principal_form_rejects_bad_discriminants():
    """Discriminants are nonzero and 0 or 1 mod 4."""
    with pytest.raises(ValueError):
        principal_form(-2)
    with pytest.raises(ValueError):
        principal_form(0)


@given(st.integers(-200, -1).filter(lambda d: d % 4 in (0, 1)))
def test_principal_form_has_its_discriminant(delta):
    """disc(principal(delta)) == delta and the form is reduced."""
    f = principal_form(delta)
    assert f.discriminant() == delta
    assert f.is_reduced()


def test_reduced_forms_class_lists():
    """Full reduced lists for small negative discriminants."""
    assert reduced_forms(-4) == [Form(1, 0, 1)]
    assert reduced_forms(-23) == [Form(1, 1, 6), Form(2, 1, 3), Form(2, -1, 3)]
    assert reduced_forms(-47) == [
        Form(1, 1, 12),
        Form(2, 1, 6),
        Form(2, -1, 6),
        Form(3, 1, 4),
        Form(3, -1, 4),
    ]
    # class numbers 3, 5, 7, 1 for -23, -47, -71, -163
    assert len(reduced_forms(-23)) == 3
    assert len(reduced_forms(-47)) == 5
    assert len(reduced_forms(-71)) == 7
    assert len(reduced_forms(-163)) == 1
    for delta in (5, 8, -5, -6):  # positive, or not 0 or 1 mod 4
        with pytest.raises(ValueError):
            reduced_forms(delta)


@given(st.integers(-150, -1).filter(lambda d: d % 4 in (0, 1)))
def test_reduced_forms_are_reduced_primitive(delta):
    """Every listed form is primitive, reduced, of the right discriminant."""
    forms = reduced_forms(delta)
    assert len(forms) == len(set(forms))
    for f in forms:
        assert f.discriminant() == delta
        assert f.is_primitive()
        assert f.is_reduced()


def test_represent_witnesses():
    """First witness in lexicographic (x2, x1) order."""
    assert Form(1, 0, 1).represent(25) == (0, -5)
    assert Form(2, 1, 3).represent(2) == (-1, 0)
    assert Form(2, 1, 3).represent(1) is None
    assert Form(1, 0, -2).represent(1, box_bound=10) == (-3, -2)


def test_represent_zero_target():
    """t = 0 is represented by the origin."""
    assert Form(2, 1, 3).represent(0) == (0, 0)


def test_represent_negative_definite_delegates():
    """Negative definite forms represent t iff -f represents -t."""
    assert Form(-1, 0, -2).represent(-3) == (-1, -1)
    assert Form(-1, 0, -2).represent(3) is None


@given(st.integers(1, 12), st.integers(-12, 12), st.integers(1, 12), st.integers(-40, 40))
def test_represent_witness_evaluates(m, k, n, t):
    """A returned witness really evaluates to the target."""
    f = Form(m, k, n)
    if f.definiteness() is not Definiteness.POSITIVE_DEFINITE:
        return
    witness = f.represent(t)
    if witness is not None:
        assert f(witness) == t
    elif t >= 0:
        # definite and decided: a brute scan over the value bound agrees
        bound = 1 + abs(4 * t * max(m, n))
        box = 1 + int(bound**0.5)
        assert all(
            f((x1, x2)) != t for x1 in range(-box, box + 1) for x2 in range(-box, box + 1)
        )


def test_semigroup_probe_closed_examples():
    """x^2 + y^2 and the doubled form close under products on the sample."""
    report = semigroup_probe(Form(1, 0, 1))
    assert report.decided and report.counterexample_count == 0
    assert report.pairs_checked == 2401
    report = semigroup_probe(Form(4, 2, 6))
    assert report.decided and report.counterexample_count == 0


def test_semigroup_probe_counterexample():
    """2x^2 + 3y^2 represents 2 and 3 but not 6; the probe proves it."""
    report = semigroup_probe(Form(2, 0, 3))
    assert report.decided
    assert report.counterexample_count == 2304
    assert report.counterexamples
    x, y = report.counterexamples[0]
    f = Form(2, 0, 3)
    assert f.represent(f(x) * f(y)) is None


def test_semigroup_probe_indefinite_not_decided():
    """Indefinite misses are open, never counted as proof."""
    report = semigroup_probe(Form(1, 0, -2))
    assert not report.decided
    assert report.counterexample_count == 0


def test_semigroup_probe_rejects_degenerate():
    """Degenerate forms have no probe."""
    with pytest.raises(DegenerateFormError):
        semigroup_probe(Form(1, 2, 1))


def test_semigroup_probe_refuses_a_hostile_form_at_once(monkeypatch):
    """(10^30, 1, 10^30) could make the probe solve about 3 * 10^18 rows; it
    raises before the trial division of the discriminant and any search."""

    def never(*args, **kwargs):
        raise AssertionError("the probe searched before checking its budget")

    monkeypatch.setattr(forms, "_nonresidue_primes", never)
    monkeypatch.setattr(Form, "represent", never)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="semigroup probe could solve .* rows, more than"):
        semigroup_probe(Form(10**30, 1, 10**30))
    assert time.perf_counter() - start < 1.0


def test_semigroup_probe_budget_admits_every_catalog_form(monkeypatch):
    """The largest row bound of a reduced form with -100000 <= D <= -3 is
    (U(U + 1)/2 + 2U) * cap = 297 * 1007 = 299,079, for (2, 1, 12500) with
    U = 22 sample values: under the budget, and refused one row below it."""
    form = Form(2, 1, 12500)
    assert semigroup_probe(form).decided
    monkeypatch.setattr(forms, "MAX_SEARCH_ROWS", 299_078)
    with pytest.raises(ValueError, match="could solve 299079 rows"):
        semigroup_probe(form)


@given(coeff, coeff, coeff, small, small, small, small)
@settings(max_examples=60)
def test_doubled_gram_matches_polarization(m, k, n, x1, x2, y1, y2):
    """x^T G y with the doubled Gram matrix equals f(x+y) - f(x) - f(y)."""
    f = Form(m, k, n)
    (g11, g12), (g21, g22) = f.doubled_gram()
    assert g12 == g21
    lhs = g11 * x1 * y1 + g12 * (x1 * y2 + x2 * y1) + g22 * x2 * y2
    assert lhs == f((x1 + y1, x2 + y2)) - f((x1, x2)) - f((y1, y2))

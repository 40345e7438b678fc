"""Tests for matrix pairings and planes spanned by a matrix and the scalars.

The rational line search that canonicalize once ran by hand, and the Fraction
solve that Sublattice.coordinates once ran, live on here, and only here, as
oracles for the integer Hermite normal form that replaced them.  So do the
closure scan that check_stability once ran and the coordinate restriction
that induced_pairing once built, as oracles for the divisibility criterion
and the family constructors that replaced them.
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from normed_forms import (
    PLUS_VARIANT_TYPES,
    TYPE_MM,
    Form,
    Pairing,
    PlusParams,
    Quadruple,
    Sublattice,
    adjugate,
    canonicalize,
    check_stability,
    induced_pairing,
    is_normed,
    matrix_pair,
    type_of,
)
from normed_forms.forms import ext_gcd
from normed_forms.matembed import mat_det, mat_mul, mat_trace

entry = st.integers(min_value=-9, max_value=9)
mat = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry))


def nonscalar(a):
    return a[0][1] != 0 or a[1][0] != 0 or a[0][0] != a[1][1]


def canonicalize_oracle(gen1, gen2, k):
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
    if not stability_oracle(lat, k):
        raise ValueError("sublattice is not stable under the requested pairing")
    return lat


def stability_oracle(lat, k):
    """Closure scan: S_k of every basis pair lands back in the plane."""
    basis = (lat.a, ((lat.r, 0), (0, lat.r)))
    return all(lat.contains(matrix_pair(k, x, y)) for x in basis for y in basis)


def induced_pairing_oracle(lat, k):
    """S_k restricted to the plane in (A, rE) coordinates, and the plane's
    determinant form; ValueError when a basis product leaves the plane."""

    def coordinates(x, y):
        coords = lat.coordinates(matrix_pair(k, lat.phi(x), lat.phi(y)))
        if coords is None:
            raise ValueError("sublattice is not stable under the requested pairing")
        return coords

    return Pairing.from_bilinear(coordinates), lat.det_form()


@st.composite
def planes(draw):
    """span(A, rE) for A non-scalar: r is drawn at random half of the time,
    and otherwise as a divisor of det A or of tr(A)^2 - det A, so that both
    outcomes of every S_k are common."""
    a = draw(mat.filter(nonscalar))
    det, tr = mat_det(a), mat_trace(a)
    target = abs(draw(st.sampled_from([det, tr * tr - det])))
    if target and draw(st.booleans()):
        r = draw(st.sampled_from([d for d in range(1, target + 1) if target % d == 0]))
    else:
        r = draw(st.integers(1, 12))
    return Sublattice(a, r)


def coordinates_oracle(self, x):
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


def outcome(fn, *args):
    """repr of the result, or the exception type's name for a ValueError."""
    try:
        return repr(fn(*args))
    except ValueError:
        return "ValueError"


def test_adjugate_example():
    """adj swaps the diagonal and negates the off-diagonal."""
    assert adjugate(((1, 2), (3, 4))) == ((4, -2), (-3, 1))


@given(mat)
def test_adjugate_multiplies_to_determinant(a):
    """A adj(A) = det(A) E."""
    d = mat_det(a)
    assert mat_mul(a, adjugate(a)) == ((d, 0), (0, d))
    assert mat_mul(adjugate(a), a) == ((d, 0), (0, d))


def test_matrix_pair_values():
    """The four products on a fixed matrix pair."""
    x = ((1, 2), (3, 4))
    y = ((0, 1), (-1, 2))
    assert matrix_pair(1, x, y) == mat_mul(x, y)
    assert matrix_pair(2, x, y) == mat_mul(adjugate(x), y)
    assert matrix_pair(3, x, y) == mat_mul(x, adjugate(y))
    assert matrix_pair(4, x, y) == adjugate(mat_mul(x, y))
    with pytest.raises(ValueError):
        matrix_pair(5, x, y)


@given(st.sampled_from([1, 2, 3, 4]), mat, mat)
def test_matrix_pair_determinant_multiplicative(k, x, y):
    """det of every product equals det(x) det(y)."""
    assert mat_det(matrix_pair(k, x, y)) == mat_det(x) * mat_det(y)


def test_sublattice_basics():
    """Membership, coordinates and the plane's determinant form."""
    sub = Sublattice(((1, 2), (3, 4)), 2)
    assert sub.phi((1, 1)) == ((3, 2), (3, 6))
    assert sub.contains(((3, 2), (3, 6)))
    assert not sub.contains(((2, 2), (3, 5)))
    # det(v1 A + v2 r E) as a form in (v1, v2)
    assert sub.det_form() == Form(-2, 10, 4)


def test_sublattice_rejects_degenerate_spans():
    """A scalar matrix or r <= 0 does not span a plane."""
    with pytest.raises(ValueError):
        Sublattice(((1, 0), (0, 1)), 2)
    with pytest.raises(ValueError):
        Sublattice(((1, 2), (3, 4)), 0)


@given(mat.filter(nonscalar), st.integers(1, 9), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=80)
def test_sublattice_membership_of_span(a, r, v1, v2):
    """Every integer combination of the generators is contained."""
    sub = Sublattice(a, r)
    w = sub.phi((v1, v2))
    assert sub.contains(w)
    assert sub.coordinates(w) == (v1, v2)


def test_stability_thresholds():
    """Divisibility of det resp. tr^2 - det by r governs stability."""
    sub = Sublattice(((1, 2), (3, 4)), 2)  # det -2, tr 5
    assert [check_stability(sub, k) for k in (1, 2, 3, 4)] == [True, True, True, False]
    sub3 = Sublattice(((1, 2), (3, 4)), 3)  # tr^2 - det = 27
    assert check_stability(sub3, 4)
    assert not check_stability(sub3, 1)


@given(planes(), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=400)
@example(Sublattice(((1, 2), (3, 4)), 2), 4)  # det -2, tr^2 - det 27
@example(Sublattice(((1, 2), (3, 4)), 3), 4)
@example(Sublattice(((2, 0), (0, 4)), 8), 1)  # diagonal, det 8
@example(Sublattice(((0, 1), (0, 0)), 5), 4)  # nilpotent: det 0, tr 0
def test_stability_matches_divisibility(sub, k):
    """The closure scan agrees with r | det A (k <= 3) and r | tr(A)^2 - det A
    (k = 4), which check_stability decides."""
    det, tr = mat_det(sub.a), mat_trace(sub.a)
    divides = (det if k <= 3 else tr * tr - det) % sub.r == 0
    assert stability_oracle(sub, k) == divides == check_stability(sub, k)


@given(planes(), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=400)
@example(Sublattice(((1, 2), (3, 4)), 2), 4)
@example(Sublattice(((1, 2), (3, 4)), 3), 4)
@example(Sublattice(((0, 1), (0, 0)), 5), 2)
def test_induced_pairing_matches_coordinate_restriction(sub, k):
    """The family pairing is the restriction of S_k, read in coordinates, and
    is refused where the restriction leaves the plane."""
    try:
        want = induced_pairing_oracle(sub, k)
    except ValueError:
        with pytest.raises(ValueError, match="not stable under the requested pairing"):
            induced_pairing(sub, k)
        return
    pairing, form, _ = induced_pairing(sub, k)
    assert (pairing, form) == want


def test_canonicalize_examples():
    """Recombined generators canonicalize to the same plane."""
    a = ((1, 2), (3, 4))
    want = Sublattice(a, 2)
    g1 = ((3, 2), (3, 6))  # A + 2E
    g2 = ((4, 4), (6, 10))  # 2A + 2E
    assert canonicalize(g1, g2, 1) == want
    assert canonicalize(((-1, -2), (-3, -4)), ((2, 0), (0, 2)), 1) == want
    assert canonicalize(((5, 2), (3, 8)), ((2, 0), (0, 2)), 1) == want


def test_canonicalize_rejects_degenerate_input():
    """Scalar-only, dependent, non-collinear or zero generators are not a plane."""
    with pytest.raises(ValueError):
        canonicalize(((1, 0), (0, 1)), ((2, 0), (0, 2)), 1)
    with pytest.raises(ValueError):
        canonicalize(((1, 2), (3, 4)), ((2, 4), (6, 8)), 1)
    # off-scalar parts (1, 0, 0) and (0, 1, 0): the span holds no scalar
    with pytest.raises(ValueError):
        canonicalize(((0, 1), (0, 0)), ((0, 0), (1, 0)), 1)
    with pytest.raises(ValueError):
        canonicalize(((1, 2), (3, 4)), ((0, 0), (0, 0)), 1)


def test_canonicalize_rejects_unstable_plane():
    """A plane not closed under the requested product is refused."""
    with pytest.raises(ValueError):
        canonicalize(((1, 2), (3, 4)), ((3, 0), (0, 3)), 1)  # 3 does not divide -2


@given(mat.filter(nonscalar), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=80)
def test_canonicalize_is_basis_independent(a, c1, c2):
    """Any basis of the same plane canonicalizes identically."""
    det = mat_det(a)
    if det == 0:
        return
    r = abs(det)  # r | det, so the plane is stable under the plain product
    sub = Sublattice(a, r)
    baseline = canonicalize(a, ((r, 0), (0, r)), 1)
    g1 = sub.phi((1, c1))
    g2 = sub.phi((c2, 1 + c1 * c2))  # determinant-one recombination
    assert canonicalize(g1, g2, 1) == baseline


def test_induced_pairing_low_products():
    """k <= 3 give plus-family pairings on the plane's coordinates."""
    sub = Sublattice(((1, 2), (3, 4)), 2)
    for k in (1, 2, 3):
        pairing, form, params = induced_pairing(sub, k)
        assert form == sub.det_form() == Form(-2, 10, 4)
        assert params == PlusParams(-1, 5, 2, 0, 1)
        assert is_normed(pairing, form)
        assert type_of(pairing, form) == PLUS_VARIANT_TYPES[k]


def test_induced_pairing_adjugate_product():
    """k = 4 gives a minus-minus pairing with the matching quadruple."""
    sub = Sublattice(((1, 2), (3, 4)), 3)
    pairing, form, quad = induced_pairing(sub, 4)
    assert quad == Quadruple(-5, 0, -3, -9)
    assert form == quad.form() == Form(-2, 15, 9)
    assert is_normed(pairing, form)
    assert type_of(pairing, form) == TYPE_MM


def test_induced_pairing_requires_stability():
    """An unstable plane has no induced pairing."""
    sub = Sublattice(((1, 2), (3, 4)), 2)
    with pytest.raises(ValueError, match="not stable under the requested pairing"):
        induced_pairing(sub, 4)


@given(mat.filter(nonscalar), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=150)
def test_induced_pairing_represents_product(a, k):
    """Coordinates of the matrix product realize the induced pairing."""
    tr, det = mat_trace(a), mat_det(a)
    r = abs(det) if k <= 3 else abs(tr * tr - det)
    if r == 0:
        return
    sub = Sublattice(a, r)
    pairing, form, _ = induced_pairing(sub, k)
    assert is_normed(pairing, form)
    for v in ((1, 0), (0, 1), (1, 1), (2, -1)):
        for w in ((1, 0), (0, 1), (1, -2)):
            prod = matrix_pair(k, sub.phi(v), sub.phi(w))
            assert sub.contains(prod)
            assert sub.coordinates(prod) == pairing(v, w)


@st.composite
def generator_pairs(draw):
    """Two generators: half of them recombine A and rE, half are arbitrary."""
    if draw(st.booleans()):
        a = draw(mat)
        r = draw(st.integers(1, 9))
        c = [draw(st.integers(-3, 3)) for _ in range(4)]
        sub = Sublattice(a, r) if nonscalar(a) else None
        if sub is not None:
            return sub.phi((c[0], c[1])), sub.phi((c[2], c[3]))
    return draw(mat), draw(mat)


@given(generator_pairs(), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=400)
@example((((1, 0), (0, 1)), ((2, 0), (0, 2))), 1)  # scalars only
@example((((1, 2), (3, 4)), ((2, 4), (6, 8))), 1)  # dependent
@example((((0, 1), (0, 0)), ((0, 0), (1, 0))), 1)  # off-scalar parts not collinear
@example((((1, 2), (3, 4)), ((0, 0), (0, 0))), 1)  # a zero generator
@example((((0, 0), (0, 0)), ((1, 2), (3, 4))), 1)
@example((((-1, -2), (-3, -4)), ((2, 0), (0, 2))), 1)
@example((((2, 0), (0, -4)), ((-3, 0), (0, 3))), 1)  # diagonal: w = (0, 0, 1)
def test_canonicalize_matches_line_search_oracle(gens, k):
    """The Hermite form gives the oracle's Sublattice, and raises where it raises."""
    assert outcome(canonicalize, *gens, k) == outcome(canonicalize_oracle, *gens, k)


@given(
    mat.filter(nonscalar),
    st.integers(1, 9),
    st.one_of(mat, st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 3))),
)
@settings(max_examples=400)
@example(((1, 2), (3, 4)), 2, ((2, 2), (3, 5)))
@example(((2, 0), (0, 4)), 2, (1, 0, 2))  # (A + 0 rE) / 2 = diag(1, 2): rational coordinates
def test_coordinates_match_fraction_oracle(a, r, x):
    """Integer coordinates where the oracle's are integers, else None.

    x is a matrix, or (p1, p2, q) for the plane's point (p1 A + p2 rE) / q
    when that is an integer matrix.
    """
    sub = Sublattice(a, r)
    if len(x) == 3:
        p1, p2, q = x
        x = sub.phi((p1, p2))
        if all(e % q == 0 for row in x for e in row):
            x = tuple(tuple(e // q for e in row) for row in x)
    want = coordinates_oracle(sub, x)
    got = sub.coordinates(x)
    if want is not None and want[0].denominator == 1 and want[1].denominator == 1:
        assert got == want and all(type(c) is int for c in got)
    else:
        assert got is None
    assert sub.contains(x) == (got is not None)

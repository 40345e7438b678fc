"""Tests for quadratic contexts, lattices, ideals and form embeddings.

The Hermite reduction that lattices once ran by hand on ext_gcd lives on here,
and only here, as the oracle for the shared forms.hnf_rows.  So does the
closure scan that stable_under once ran, as the oracle for the divisibility
criterion on the canonical basis.
"""

from fractions import Fraction
from fractions import Fraction as Fr
from math import gcd
import operator

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from normed_forms import (
    Context,
    DegenerateFormError,
    Definiteness,
    Form,
    Lattice,
    QuadElem,
    Quadruple,
    Sublattice,
    canonicalize,
    check_stability,
    embed_form,
    hnf_from_generators,
    induced_pairing,
    matrix_pair,
    order_lattice,
    principal_form,
    quadratic_order,
    sigma,
)
from normed_forms import lattices, matembed
from normed_forms.forms import exact_sqrt, ext_gcd
from normed_forms.lattices import _canonical_data
from test_matembed import outcome, stability_oracle as matrix_stability_oracle

deltas = st.sampled_from([-23, -4, -20, -8, 8, 12, 13, 5])
rat = st.fractions(min_value=-6, max_value=6, max_denominator=4)
intval = st.integers(min_value=-8, max_value=8)


def ctx23():
    return Context(-23)


def prime_over_two(ctx):
    """The nonprincipal ideal span(2, (-1+tau)/2) of the -23 order."""
    return Lattice(ctx, ctx.elem(2, 0), ctx.elem(Fr(-1, 2), Fr(1, 2)))


def canonical_data_oracle(gens):
    """Canonical (r, u_zeta, v_zeta) of the Z-span of the given elements.

    Raises when the span has rank < 2.
    """
    den = 1
    for g in gens:
        den = den * g.u.denominator // gcd(den, g.u.denominator)
        den = den * g.v.denominator // gcd(den, g.v.denominator)
    rows = [(int(g.u * den), int(g.v * den)) for g in gens]

    cur: tuple[int, int] | None = None
    rationals: list[int] = []
    for a, b in rows:
        if b == 0:
            rationals.append(a)
            continue
        if cur is None:
            cur = (a, b)
            continue
        a1, b1 = cur
        g, s, t = ext_gcd(b1, b)
        # unimodular 2x2 change of basis: det [[s, t], [b/g, -b1/g]] = -1
        cur = (s * a1 + t * a, g)
        rationals.append((b // g) * a1 - (b1 // g) * a)
    if cur is None:
        raise ValueError("generators span no tau direction; rank < 2")
    if cur[1] < 0:
        cur = (-cur[0], -cur[1])
    r0 = gcd(*rationals) if rationals else 0
    if r0 == 0:
        raise ValueError("generators contain no nonzero rational; rank < 2")
    # balanced residue of the rational part of zeta
    u0 = cur[0] % r0
    if 2 * u0 > r0:
        u0 -= r0
    return Fraction(r0, den), Fraction(u0, den), Fraction(cur[1], den)


def stability_oracle(lat, k):
    """Closure scan: sigma_k of every ordered generator pair lies in L."""
    gens = (lat.e1, lat.e2)
    return all(lat.contains(sigma(k, z, w)) for z in gens for w in gens)


def test_context_basics():
    """tau squares to delta; the order generator depends on delta mod 4."""
    ctx = ctx23()
    tau = ctx.tau()
    assert (tau * tau).is_rational()
    assert (tau * tau).u == -23
    assert ctx.eps == 1
    assert ctx.order_generator() == ctx.elem(Fr(1, 2), Fr(1, 2))
    assert Context(-4).order_generator() == Context(-4).elem(0, Fr(1, 2))
    assert Context(8).eps == -1


def test_context_rejects_bad_delta():
    """delta must be a nonzero discriminant."""
    with pytest.raises(ValueError):
        Context(0)
    with pytest.raises(ValueError):
        Context(-2)
    with pytest.raises(ValueError):
        Context(6)


def test_element_arithmetic():
    """Fixed products and conjugate products at delta = -23."""
    ctx = ctx23()
    z = ctx.elem(1, 2)
    w = ctx.elem(-2, 1)
    assert z * w == ctx.elem(-48, -3)
    assert z.conj() * w == ctx.elem(44, 5)
    assert z + w == ctx.elem(-1, 3)
    assert z - w == ctx.elem(3, 1)
    assert -z == ctx.elem(-1, -2)
    assert z / 2 == ctx.elem(Fr(1, 2), 1)
    assert 3 * z == z * 3 == ctx.elem(3, 6)


def test_element_norm_and_trace():
    """Norms from both signatures, including a negative one."""
    ctx = Context(-4)
    z = ctx.elem(1, Fr(1, 2))
    assert z.norm() == 2
    assert z.trace() == 2
    w = Context(8).elem(0, Fr(1, 2))
    assert w.norm() == -2
    assert w.trace() == 0
    assert ctx23().elem(Fr(1, 2), Fr(1, 2)).norm() == 6


def test_quadratic_integer_predicate():
    """Non-rational with integer trace and norm; rationals are excluded."""
    assert ctx23().elem(Fr(1, 2), Fr(1, 2)).is_quadratic_integer()
    assert not ctx23().elem(3, 0).is_quadratic_integer()
    assert not Context(-4).elem(0, Fr(1, 3)).is_quadratic_integer()


@given(deltas, rat, rat, rat, rat)
@settings(max_examples=100)
def test_norm_is_multiplicative(delta, u1, v1, u2, v2):
    """norm(zw) = norm(z) norm(w) in both signatures."""
    ctx = Context(delta)
    z, w = ctx.elem(u1, v1), ctx.elem(u2, v2)
    assert (z * w).norm() == z.norm() * w.norm()
    assert z.conj().conj() == z
    assert (z * w).conj() == z.conj() * w.conj()


def test_sigma_values():
    """The four twisted products at a fixed pair."""
    ctx = ctx23()
    z, w = ctx.elem(1, 2), ctx.elem(-2, 1)
    assert sigma(1, z, w) == z * w
    assert sigma(2, z, w) == z.conj() * w
    assert sigma(3, z, w) == z * w.conj()
    assert sigma(4, z, w) == (z * w).conj()
    with pytest.raises(ValueError):
        sigma(5, z, w)


@given(deltas, rat, rat, rat, rat, st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=100)
def test_sigma_norm_multiplicative(delta, u1, v1, u2, v2, k):
    """Every twisted product has multiplicative norm."""
    ctx = Context(delta)
    z, w = ctx.elem(u1, v1), ctx.elem(u2, v2)
    assert sigma(k, z, w).norm() == z.norm() * w.norm()


def test_hnf_canonicalizes_generators():
    """Redundant generators collapse to the canonical basis."""
    ctx = ctx23()
    one, tau = ctx.one(), ctx.tau()
    lat = hnf_from_generators(ctx, [one, tau, one + tau])
    basis = lat.canonical_basis()
    assert basis.r == 1
    assert basis.zeta == tau
    lat2 = hnf_from_generators(ctx, [ctx.elem(2, 0), ctx.elem(0, 2), one + tau])
    basis2 = lat2.canonical_basis()
    assert (basis2.r, basis2.zeta) == (2, one + tau)
    assert lat2.discriminant() == -368
    assert lat2.contains(one + tau)
    assert not lat2.contains(one)


def test_hnf_rejects_rank_deficient_input():
    """Generators must span both a rational and a tau direction."""
    ctx = ctx23()
    with pytest.raises(ValueError):
        hnf_from_generators(ctx, [ctx.one(), ctx.elem(2, 0)])
    with pytest.raises(ValueError):
        hnf_from_generators(ctx, [ctx.tau(), ctx.elem(0, 2)])
    with pytest.raises(ValueError):
        Lattice(ctx, ctx.one(), ctx.elem(2, 0))


CTX4, CTX3 = Context(-4), Context(-3)
ORDER4 = quadratic_order(-4)
# (call, arguments, exception, message) for arguments that mix contexts or
# are no lattice operand
REFUSED = [
    (operator.add, (CTX4.one(), CTX3.one()), ValueError, "elements from different contexts"),
    (Lattice, (CTX4, CTX4.one(), CTX3.tau()), ValueError,
     "generators from a different context"),
    (ORDER4.contains, (CTX3.one(),), ValueError, "element from a different context"),
    (ORDER4.scale, (0,), ValueError, "cannot scale a lattice by zero"),
    (operator.mul, (ORDER4, 3), TypeError, "unsupported operand type"),
    (operator.mul, (ORDER4, quadratic_order(-3)), ValueError,
     "lattices from different contexts"),
    (hnf_from_generators, (CTX4, []), ValueError, "no generators"),
    (hnf_from_generators, (CTX4, [CTX4.one(), CTX3.tau()]), ValueError,
     "generator from a different context"),
]


@pytest.mark.parametrize("call, args, error, message", REFUSED)
def test_mixed_contexts_and_bad_operands_raise(call, args, error, message):
    with pytest.raises(error, match=message):
        call(*args)


def test_lattice_equality_is_basis_free():
    """Recombined bases describe the same lattice."""
    ctx = ctx23()
    e1, e2 = ctx.elem(2, 0), ctx.elem(1, 1)
    lat = Lattice(ctx, e1, e2)
    assert lat == Lattice(ctx, e2, e1)
    assert lat == Lattice(ctx, e1 + e2, e2)
    assert lat == Lattice(ctx, e1, e2 - 3 * e1)
    assert lat != Lattice(ctx, 2 * e1, e2)
    assert lat == lat.canonicalized()


def test_equal_lattices_hash_equal():
    """Bases of one lattice hash alike and collapse to one set element."""
    ctx = ctx23()
    e1, e2 = ctx.elem(2, 0), ctx.elem(1, 1)
    same = [
        Lattice(ctx, e1, e2),
        Lattice(ctx, e2, e1),
        Lattice(ctx, e1 + e2, e2),
        Lattice(ctx, e1, e2 - 3 * e1),
        hnf_from_generators(ctx, [e1, e2, e1 + e2, 4 * e2 - e1]),
        hnf_from_generators(ctx, [e2 - 3 * e1, 2 * e1, e2]),
    ]
    assert len({hash(lat) for lat in same}) == 1
    assert len(set(same)) == 1
    ctx4 = Context(-4)
    other = [Lattice(ctx, 2 * e1, e2), Lattice(ctx4, ctx4.elem(2, 0), ctx4.elem(1, 1))]
    assert len(set(same + other)) == 3


def test_canonical_basis_is_computed_only_when_asked(monkeypatch):
    """Building a lattice or testing an ideal never canonicalizes; each
    product canonicalizes its generators once."""
    calls = []

    def counted(gens):
        calls.append(len(gens))
        return _canonical_data(gens)

    monkeypatch.setattr(lattices, "_canonical_data", counted)
    ctx = ctx23()
    ideal = prime_over_two(ctx)
    assert calls == []
    assert ideal.is_ideal_of(-23)
    assert calls == []
    cube = ideal * ideal * ideal
    assert calls == [4, 4]
    assert cube.is_principal()
    assert cube == cube.canonicalized() and len(calls) == 5


def order_lattice_oracle(ctx, delta_star):
    """order_lattice with tau/2 or (1 + tau)/2 chosen by hand, as it once was."""
    s = exact_sqrt(Fraction(ctx.delta, delta_star))
    if delta_star % 4 == 0:
        omega = ctx.elem(0, Fraction(1, 2) / s)
    else:
        omega = ctx.elem(Fraction(1, 2), Fraction(1, 2) / s)
    return Lattice(ctx, ctx.one(), omega)


discriminants = st.integers(-60, 60).filter(lambda d: d != 0 and d % 4 in (0, 1))


@given(discriminants, st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=150)
@example(-3, 1, 2)
@example(-4, 3, 1)
def test_order_lattice_keeps_its_ordered_basis(delta, a, b):
    """order_lattice and quadratic_order keep the hand-written bases exactly:
    the same (e1, e2) and the same repr, not just the same lattice."""
    ctx = Context(delta * a * a)
    lat, expected = order_lattice(ctx, delta * b * b), order_lattice_oracle(ctx, delta * b * b)
    assert (lat.e1, lat.e2) == (expected.e1, expected.e2)
    assert repr(lat) == repr(expected)
    order = quadratic_order(delta)
    assert repr(order) == repr(order_lattice_oracle(Context(delta), delta))


def test_membership_and_subset():
    """The prime over 2 sits inside the full order, not conversely."""
    ctx = ctx23()
    order = quadratic_order(-23)
    prime = prime_over_two(ctx)
    assert prime.is_subset_of(order)
    assert not order.is_subset_of(prime)
    assert order.contains(ctx.order_generator())
    assert not prime.contains(ctx.one())


def test_discriminants():
    """Lattice discriminants for the standard examples."""
    assert quadratic_order(-23).discriminant() == -23
    assert quadratic_order(-4).discriminant() == -4
    assert quadratic_order(8).discriminant() == 8
    assert prime_over_two(ctx23()).discriminant() == -92
    ctx4 = Context(-4)
    doubled = Lattice(ctx4, ctx4.elem(2, 0), ctx4.tau())
    assert doubled.discriminant() == -64


def test_to_form_examples():
    """Norm forms of the standard lattices."""
    assert quadratic_order(-23).to_form() == Form(1, 1, 6)
    assert quadratic_order(-4).to_form() == Form(1, 0, 1)
    assert quadratic_order(8).to_form() == Form(1, 0, -2)
    assert prime_over_two(ctx23()).to_form() == Form(4, -2, 6)
    ctx4 = Context(-4)
    doubled = Lattice(ctx4, ctx4.elem(2, 0), ctx4.tau())
    assert doubled.to_form() == Form(4, 0, 4)
    # generator order does not flip the orientation of the form
    assert Lattice(ctx4, ctx4.tau(), ctx4.elem(2, 0)).to_form() == Form(4, 0, 4)


def test_to_form_requires_integer_norms():
    """A lattice with fractional norms has no integer form."""
    half = quadratic_order(-4).scale(Context(-4).elem(Fr(1, 2), 0))
    assert not half.is_integer_normed()
    with pytest.raises(ValueError):
        half.to_form()


@given(deltas, st.integers(1, 6), intval, st.integers(-8, 8).filter(bool))
@settings(max_examples=100)
def test_form_discriminant_equals_lattice_discriminant(delta, r, a, b):
    """disc(to_form(L)) = disc(L) for integer-normed lattices."""
    ctx = Context(delta)
    zeta = ctx.elem(a, 0) + b * ctx.order_generator()
    lat = Lattice(ctx, ctx.elem(r, 0), zeta)
    assert lat.is_integer_normed()
    assert lat.to_form().discriminant() == lat.discriminant()


def test_quadratic_order_properties():
    """The full order is stable, principal, and carries the principal form."""
    for delta in (-23, -4, -20, 8, 12, 13):
        order = quadratic_order(delta)
        assert order.contains(Context(delta).one())
        assert all(order.stable_under(k) for k in (1, 2, 3, 4))
        assert order.to_form() == principal_form(delta)
        assert order.discriminant() == delta


def test_stability_of_prime_ideal():
    """The prime over 2 is stable under the first three products only."""
    prime = prime_over_two(ctx23())
    assert [prime.stable_under(k) for k in (1, 2, 3, 4)] == [True, True, True, False]


@given(deltas, st.integers(1, 8), intval, st.integers(-6, 6).filter(bool))
@settings(max_examples=150)
def test_stability_equivalence(delta, r, a, b):
    """The three one-sided stabilities agree on arbitrary (r, zeta) lattices."""
    ctx = Context(delta)
    zeta = ctx.elem(a, 0) + b * ctx.order_generator()
    lat = Lattice(ctx, ctx.elem(r, 0), zeta)
    s1, s2, s3 = (lat.stable_under(k) for k in (1, 2, 3))
    assert s1 == s2 == s3


@given(deltas, intval, st.integers(-6, 6).filter(bool), st.integers(1, 30))
@settings(max_examples=150)
def test_stable_lattices_are_ideals(delta, a, b, ridx):
    """Canonical (r, zeta) data with r | norm gives sigma-stable ideals."""
    ctx = Context(delta)
    zeta = ctx.elem(a, 0) + b * ctx.order_generator()
    norm = int(zeta.norm())
    if norm == 0:
        return
    divisors = [d for d in range(1, abs(norm) + 1) if norm % d == 0]
    r = divisors[ridx % len(divisors)]
    lat = Lattice(ctx, ctx.elem(r, 0), zeta)
    assert lat.stable_under(1) and lat.stable_under(2) and lat.stable_under(3)
    delta_star = lat.discriminant() / (r * r)
    assert delta_star.denominator == 1
    assert lat.is_ideal_of(int(delta_star))


def test_ideal_membership_examples():
    """Containment in the order is part of being an ideal."""
    prime = prime_over_two(ctx23())
    assert prime.is_ideal_of(-23)
    assert not prime.is_ideal_of(-92)
    ctx4 = Context(-4)
    doubled = Lattice(ctx4, ctx4.elem(2, 0), ctx4.tau())
    assert doubled.is_ideal_of(-16)
    assert not doubled.is_ideal_of(-64)
    half = quadratic_order(-4).scale(ctx4.elem(Fr(1, 2), 0))
    assert not half.is_ideal_of(-4)


def test_ideal_context_mismatch():
    """A non-square discriminant ratio, or no discriminant, is a usage error."""
    with pytest.raises(ValueError):
        prime_over_two(ctx23()).is_ideal_of(-20)
    with pytest.raises(ValueError):
        order_lattice(ctx23(), -46)
    with pytest.raises(ValueError, match="discriminants of opposite sign"):
        order_lattice(Context(-4), 5)
    for bad in (0, -5, 2):  # Context's error, so 0 is no ZeroDivisionError
        with pytest.raises(ValueError, match="nonzero and 0 or 1 mod 4"):
            order_lattice(ctx23(), bad)


def test_order_lattices_inside_context():
    """Orders of square-ratio discriminants live in one context."""
    ctx = ctx23()
    assert order_lattice(ctx, -23) == quadratic_order(-23)
    sub = order_lattice(ctx, -92)
    assert sub.canonical_basis().zeta == ctx.tau()
    sub9 = order_lattice(ctx, -207)
    assert sub9.canonical_basis().zeta == ctx.elem(Fr(1, 2), Fr(3, 2))
    assert sub9.is_subset_of(quadratic_order(-23))


def test_products():
    """Ideal products: unit action, conjugate product, class of order three."""
    ctx = ctx23()
    order = quadratic_order(-23)
    prime = prime_over_two(ctx)
    assert order * prime == prime
    assert order * order == order
    assert prime * prime.conjugate() == order.scale(ctx.elem(2, 0))
    square = prime * prime
    assert not square.is_principal()
    assert (square * prime).is_principal()


@given(deltas, intval, st.integers(-4, 4).filter(bool), intval, st.integers(-4, 4).filter(bool))
@settings(max_examples=60)
def test_product_commutes(delta, a1, b1, a2, b2):
    """Lattice products are commutative."""
    ctx = Context(delta)
    lat1 = Lattice(ctx, ctx.one(), ctx.elem(a1, 0) + b1 * ctx.order_generator())
    lat2 = Lattice(ctx, ctx.elem(2, 0), ctx.elem(a2, 0) + b2 * ctx.order_generator())
    assert lat1 * lat2 == lat2 * lat1


def test_conjugation():
    """Conjugation is an involution fixing the order."""
    ctx = ctx23()
    order = quadratic_order(-23)
    prime = prime_over_two(ctx)
    assert order.conjugate() == order
    assert prime.conjugate() != prime
    assert prime.conjugate().conjugate() == prime
    assert prime.conjugate().to_form() == Form(4, 2, 6)


def test_principality():
    """Scaled orders are principal; the prime over 2 is not; cubes are."""
    ctx = ctx23()
    order = quadratic_order(-23)
    prime = prime_over_two(ctx)
    assert order.is_principal()
    assert not prime.is_principal()
    assert prime.cube_is_principal()
    assert order.cube_is_principal()
    alpha = ctx.elem(Fr(3, 2), Fr(1, 2))  # norm 8
    assert order.scale(alpha).is_principal()
    with pytest.raises(ValueError):
        quadratic_order(8).is_principal()


def test_product_preserves_primitive_discriminant():
    """Products of equal-discriminant primitive classes stay in discriminant."""
    ctx = ctx23()
    prime = prime_over_two(ctx)
    pairs = [
        (prime, prime.conjugate()),
        (prime, prime),
        (quadratic_order(-23), prime),
    ]
    for lat1, lat2 in pairs:
        d1 = lat1.to_form().content_and_primitive()[1].discriminant()
        d2 = lat2.to_form().content_and_primitive()[1].discriminant()
        assert d1 == d2 == -23
        prod = lat1 * lat2
        assert prod.to_form().content_and_primitive()[1].discriminant() == -23


@given(st.sampled_from([-23, -4, -20, 8, 12]), intval, st.integers(-5, 5).filter(bool))
@settings(max_examples=100)
def test_lattices_containing_one_are_orders(delta, a, b):
    """An integer-normed lattice containing 1 is the order of its discriminant."""
    ctx = Context(delta)
    zeta = ctx.elem(a, 0) + b * ctx.order_generator()
    lat = Lattice(ctx, ctx.one(), zeta)
    assert lat.is_integer_normed()
    disc = lat.discriminant()
    assert disc.denominator == 1
    assert lat == order_lattice(ctx, int(disc))


@given(st.sampled_from([-23, -4, 8, 12]), rat, st.fractions(min_value=-3, max_value=3, max_denominator=2))
@settings(max_examples=150)
def test_multipliers_are_quadratic_integers(delta, u, v):
    """A non-rational z with z L inside L has integer trace and norm."""
    ctx = Context(delta)
    if v == 0:
        return
    z = ctx.elem(u, v)
    lat = Lattice(ctx, ctx.elem(2, 0), ctx.one() + 2 * ctx.order_generator())
    e1, e2 = ctx.elem(2, 0), ctx.one() + 2 * ctx.order_generator()
    if lat.contains(z * e1) and lat.contains(z * e2):
        assert z.is_quadratic_integer()


def test_matrix_embedding_examples():
    """Multiplication matrices of the canonical bases."""
    order4 = quadratic_order(-4)
    sub = order4.matrix_embedding(1)
    assert sub == Sublattice(((0, -1), (1, 0)), 1)
    assert sub.det_form() == Form(1, 0, 1)
    prime = prime_over_two(ctx23())
    sub1 = prime.matrix_embedding(1)
    assert sub1 == Sublattice(((0, -3), (2, -1)), 2)
    assert sub1.det_form() == Form(6, -2, 4)
    # conj(zeta) acts by the adjugate of zeta's matrix ((0, -3), (2, -1))
    assert prime.matrix_embedding(2) == prime.matrix_embedding(3) == Sublattice(
        ((-1, 3), (-2, 0)), 2)
    for k in (1, 2, 3):
        assert check_stability(prime.matrix_embedding(k), k)
    with pytest.raises(ValueError):
        prime.matrix_embedding(4)


def test_matrix_embedding_refuses_by_one_stability_test():
    """On span(r, zeta) over a grid of r and zeta, stable_under(k) agrees with
    the closure scan for k = 1..4, both ways for every k, and matrix_embedding
    refuses an integer-normed lattice as not stable exactly when the scan
    fails, and every other lattice as not integer-normed; the planes it
    returns pass the matrix closure scan.  span(2, (1 + tau)/4) at -15 has
    norm form (4, 1, 1) but trace(zeta) = 1/2, so it is the first kind, not
    the second."""
    ctx15 = Context(-15)
    quarter = Lattice(ctx15, ctx15.elem(2), ctx15.elem(Fr(1, 4), Fr(1, 4)))
    assert quarter.to_form() == Form(4, 1, 1)
    seen, outcomes = set(), set()
    grid = [quarter]
    for delta in (-15, -23, 5, 12):
        ctx = Context(delta)
        grid += [Lattice(ctx, ctx.elem(r), ctx.elem(Fr(u, 4), v))
                 for r in (Fr(1, 2), 1, 2, 3, 4) for u in range(-8, 9)
                 for v in (Fr(1, 4), Fr(1, 2), Fr(3, 4), 1, 2)]
    for lat in grid:
        for k in (1, 2, 3, 4):
            stable = stability_oracle(lat, k)
            assert lat.stable_under(k) == stable
            outcomes.add((k, stable))
            if k == 4:
                continue
            kind = (lat.is_integer_normed(), stable)
            seen.add(kind)
            if kind == (True, True):
                assert matrix_stability_oracle(lat.matrix_embedding(k), k)
                continue
            message = "not stable" if kind[0] else "not integer-normed"
            with pytest.raises(ValueError, match=message):
                lat.matrix_embedding(k)
    assert seen == {(True, True), (True, False), (False, False)}
    assert outcomes == {(k, stable) for k in (1, 2, 3, 4) for stable in (True, False)}


@st.composite
def rational_lattices(draw):
    """A lattice of Q(tau): half of the time two random rational generators,
    mostly not integer-normed; otherwise a determinant-1 recombination of
    (r, zeta), with zeta in the order or with quarter coordinates and r a
    divisor of norm(zeta) or of trace(zeta)^2 - norm(zeta) when that is a
    nonzero integer, so that both outcomes of every sigma_k are common."""
    ctx = Context(draw(deltas))
    if draw(st.booleans()):
        e1 = ctx.elem(draw(rat), draw(rat))
        e2 = ctx.elem(draw(rat), draw(rat))
        if e1.u * e2.v != e2.u * e1.v:
            return Lattice(ctx, e1, e2)
    if draw(st.booleans()):
        zeta = ctx.elem(draw(intval), 0) + draw(st.integers(1, 6)) * ctx.order_generator()
    else:
        zeta = ctx.elem(Fr(draw(intval), 4), Fr(draw(st.integers(1, 8)), 4))
    t, nm = zeta.trace(), zeta.norm()
    target = abs(draw(st.sampled_from([nm, t * t - nm])))
    if target.denominator == 1 and target and draw(st.booleans()):
        target = int(target)
        r = draw(st.sampled_from([d for d in range(1, target + 1) if target % d == 0]))
    else:
        r = draw(st.sampled_from([Fr(1, 2), 1, 2, 3, 4, 6]))
    c1, c2 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return Lattice(ctx, ctx.elem(r) + c1 * zeta, ctx.elem(c2 * r) + (1 + c1 * c2) * zeta)


@given(rational_lattices(), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=500)
def test_stable_under_matches_closure_oracle(lat, k):
    """The criterion on the canonical basis agrees with the closure scan on
    arbitrary rational lattices, integer-normed or not."""
    assert lat.stable_under(k) == stability_oracle(lat, k)


def test_stability_never_forms_a_product(monkeypatch):
    """check_stability, canonicalize, induced_pairing, stable_under and
    matrix_embedding decide stability and build pairings without a single
    coupling product."""

    def refuse(*args):
        raise AssertionError("a coupling product was formed")

    monkeypatch.setattr(matembed, "matrix_pair", refuse)
    monkeypatch.setattr(lattices, "sigma", refuse)
    prime = prime_over_two(ctx23())
    assert [prime.stable_under(k) for k in (1, 2, 3, 4)] == [True, True, True, False]
    for k in (1, 2, 3):
        sub = prime.matrix_embedding(k)
        assert check_stability(sub, k)
        assert canonicalize(sub.phi((1, 1)), sub.phi((0, 1)), k).r == sub.r
        assert induced_pairing(sub, k)[1] == sub.det_form()
    sub = Sublattice(((1, 2), (3, 4)), 3)
    assert [check_stability(sub, k) for k in (1, 2, 3, 4)] == [False, False, False, True]
    assert induced_pairing(sub, 4)[2] == Quadruple(-5, 0, -3, -9)
    with pytest.raises(ValueError, match="not stable"):
        induced_pairing(sub, 1)
    with pytest.raises(ValueError, match="not stable"):
        canonicalize(sub.a, ((3, 0), (0, 3)), 2)
    for k in (0, 5):
        with pytest.raises(ValueError, match="coupling index must be 1..4"):
            check_stability(sub, k)
        with pytest.raises(ValueError, match="coupling index must be 1..4"):
            prime.stable_under(k)


def test_sigma_and_matrix_pair_share_the_index_error():
    """Both models reject a coupling index outside 1..4 with one text."""
    ctx = ctx23()
    e = ((1, 0), (0, 1))
    for k in (0, 5):
        with pytest.raises(ValueError) as lattice_error:
            sigma(k, ctx.one(), ctx.tau())
        with pytest.raises(ValueError) as matrix_error:
            matrix_pair(k, e, e)
        message = "coupling index must be 1..4"
        assert str(lattice_error.value) == str(matrix_error.value) == message


def test_matrix_embedding_respects_products():
    """The embedded plane is closed under the matching matrix product."""
    prime = prime_over_two(ctx23())
    for k in (1, 2, 3):
        assert matrix_stability_oracle(prime.matrix_embedding(k), k)


def test_embed_form_examples():
    """Conic embeddings reproduce the form and the right discriminant."""
    lat = embed_form(Form(2, 1, 3))
    assert lat is not None
    assert lat.to_form() == Form(2, 1, 3)
    assert lat.discriminant() == -23
    basis = lat.canonical_basis()
    assert (basis.r, basis.zeta) == (2, lat.ctx.elem(Fr(3, 4), Fr(1, 4)))
    assert embed_form(Form(1, 1, 6)) == quadratic_order(-23)
    assert embed_form(Form(1, 0, 1)) == quadratic_order(-4)
    assert embed_form(Form(1, 0, -2)) == quadratic_order(8)


def test_embed_form_signs():
    """Negative definite forms have no embedding; degenerate ones are errors."""
    assert embed_form(Form(-1, 0, -2)) is None
    with pytest.raises(DegenerateFormError):
        embed_form(Form(1, 2, 1))


@given(intval, intval, intval)
@settings(max_examples=80)
def test_embed_form_roundtrip(m, k, n):
    """Whenever the bounded conic search succeeds, the basis realizes the form."""
    f = Form(m, k, n)
    if f.discriminant() == 0:
        return
    lat = embed_form(f)
    if lat is None:
        # legitimate: m need not be a rational norm, e.g. (2, 0, 3)
        return
    assert lat.to_form() == f
    assert lat.discriminant() == f.discriminant()


@pytest.mark.parametrize("coefficients", [(0, 2, 1), (0, 3, -2), (0, -2, 5)])
def test_embed_form_zero_leading_coefficient(coefficients):
    """m = 0 forms embed through a zero divisor; e1 = 0 is never tried."""
    lat = embed_form(Form(*coefficients))
    assert lat is not None
    assert lat.to_form() == Form(*coefficients)
    assert lat.e1.norm() == 0 and not lat.e1.is_zero()


def test_embed_form_height_is_fixed():
    """The search height is not a parameter: a large one hung on forms whose
    m is no rational norm, like 2 for Q(sqrt(-20)) (a^2 + 20 b^2 = 2 d^2 has
    no nonzero solution mod 5)."""
    with pytest.raises(TypeError):
        embed_form(Form(2, 2, 3), height_bound=10**4)
    assert lattices._EMBED_HEIGHT == 10
    assert embed_form(Form(2, 2, 3)) is None


def embed_form_oracle(form: Form, height_bound: int = 10) -> Lattice | None:
    """The (h, d, a, b) scan and quadratic solve that embed_form replaced."""
    delta = form.discriminant()
    if delta == 0:
        raise DegenerateFormError("embedding requires a nondegenerate form")
    if form.definiteness() is Definiteness.NEGATIVE_DEFINITE:
        # norms in the delta < 0 algebra are positive; no lattice exists
        return None
    ctx = Context(delta)
    m, k, n = form.m, form.k, form.n
    for h in range(1, height_bound + 1):
        for d in range(1, h + 1):
            for a in range(-h, h + 1):
                for b in range(-h, h + 1):
                    if max(abs(a), abs(b), d) != h:
                        continue
                    if gcd(a, gcd(b, d)) != 1:
                        continue
                    if a * a - delta * b * b != m * d * d:
                        continue
                    e1 = QuadElem(ctx, Fraction(a, d), Fraction(b, d))
                    e2 = _solve_second_generator(ctx, e1, k, n)
                    if e2 is not None:
                        return Lattice(ctx, e1, e2)
    return None


def _solve_second_generator(
    ctx: Context, e1: QuadElem, k: int, n: int
) -> QuadElem | None:
    """Exact solve of trace(e1 conj(e2)) = k, norm(e2) = n, orientation > 0."""
    delta = ctx.delta
    u1, v1 = e1.u, e1.v
    candidates: list[tuple[Fraction, Fraction]] = []
    if u1 != 0:
        # x = (k/2 + delta v1 y) / u1, then a quadratic in y
        qa = -Fraction(delta) * e1.norm() / (u1 * u1)
        qb = Fraction(k) * delta * v1 / (u1 * u1)
        qc = Fraction(k * k, 4) / (u1 * u1) - n
        if qa == 0:
            if qb != 0:
                ys = [-qc / qb]
            else:
                ys = []
        else:
            disc = qb * qb - 4 * qa * qc
            root = exact_sqrt(disc)
            if root is None:
                ys = []
            else:
                ys = sorted({(-qb - root) / (2 * qa), (-qb + root) / (2 * qa)})
        for y in ys:
            x = (Fraction(k, 2) + delta * v1 * y) / u1
            candidates.append((y, x))
    else:
        # trace condition pins y; norm condition gives x^2
        y = Fraction(-k) / (2 * delta * v1)
        xx = n + delta * y * y
        root = exact_sqrt(xx)
        if root is not None:
            for x in sorted({root, -root}):
                candidates.append((y, x))
    for y, x in sorted(candidates):
        e2 = QuadElem(ctx, x, y)
        if u1 * y - x * v1 <= 0:
            continue
        if e2.norm() == n and (e1 * e2.conj()).trace() == k:
            return e2
    return None


@given(intval, intval, intval, st.integers(1, 10))
@example(4, 0, -1, 10)    # square discriminant, m > 0
@example(-3, 1, 1, 10)    # indefinite, m < 0
@example(-1, 4, -3, 10)   # square discriminant, m < 0
@example(0, 1, 3, 10)     # m = 0, where the oracle finds e1 = -1 + tau first
@example(0, 2, 1, 10)     # m = 0, where the oracle divides by zero
@example(2, 0, 3, 10)     # no embedding in the box
@settings(max_examples=200)
def test_embed_form_matches_oracle(m, k, n, height):
    """The kernel search and the closed-form e2 give the oracle's exact basis,
    at every height up to the fixed one (the module constant is patched).

    Where the oracle tries e1 = 0 and divides by zero (m = 0), the new search
    must still return None or a lattice realizing the form.
    """
    form = Form(m, k, n)
    if form.discriminant() == 0:
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattices, "_EMBED_HEIGHT", height)
        lat = embed_form(form)
    try:
        expected = embed_form_oracle(form, height)
    except ZeroDivisionError:
        assert m == 0
        assert lat is None or lat.to_form() == form
        return
    if expected is None:
        assert lat is None
    else:
        assert (lat.e1, lat.e2) == (expected.e1, expected.e2)


@given(deltas, st.lists(st.tuples(rat, rat | st.just(Fr(0))), min_size=1, max_size=4))
@settings(max_examples=400)
@example(-23, [(Fr(1), Fr(0)), (Fr(2), Fr(0))])  # rationals only
@example(-23, [(Fr(0), Fr(1)), (Fr(0), Fr(2))])  # no rational
@example(-23, [(Fr(1), Fr(1)), (Fr(2), Fr(2))])  # dependent
@example(-23, [(Fr(1, 2), Fr(1, 3)), (Fr(0), Fr(0)), (Fr(5, 4), Fr(0))])  # a zero generator
def test_canonical_data_matches_hand_reduction(delta, gens):
    """The shared Hermite form gives the oracle's (r, u, v), and raises where it raises."""
    ctx = Context(delta)
    elems = [ctx.elem(u, v) for u, v in gens]
    assert outcome(_canonical_data, elems) == outcome(canonical_data_oracle, elems)
    if len(elems) == 2:
        # a lattice needs independent generators, which its constructor checks
        e1, e2 = elems
        independent = e1.u * e2.v - e2.u * e1.v != 0
        assert (outcome(Lattice, ctx, e1, e2) != "ValueError") == independent

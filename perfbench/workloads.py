"""The benchmark's workloads: seeded inputs, one request each, output checks.

Every workload is a closed loop with one client: a request is sent only after
the previous one has returned.  A workload is a fixed list of requests (one
"pass"); the runner repeats the pass for the run's duration.  Each request
returns its output as text, which the byte-identity and reference
comparisons hash, and as a value, which the checks read.

Why these four (each keeps one layer busy and leaves the others nearly idle):

  catalog-neg   the catalog user's main window; bound by semigroup_probe and
                the definite branch of Form.represent.
  catalog-pos   the same two functions through the indefinite (box-scan)
                branch of Form.represent, plus positive-discriminant
                enumeration; a change to the definite path must not move it.
  classify-big  CLI classification of large positive definite forms; bound by
                the (a, c) box scan in minus_minus_witnesses, and never calls
                semigroup_probe.
  algebra       small library requests; the only workload that runs the
                pairings, trigroup, matembed and lattices modules.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from math import isqrt

# Full SHA-1 of each catalog window's stdout at the commit the benchmark was
# defined on.  Any change to a verdict, a witness or the formatting shows here.
CATALOG_WINDOWS = {
    "catalog-neg": {
        "full": (["--dmin", "-400", "--dmax", "-3"],
                 "3f5d134a69cb8cec57e8e3eca3e1c06e656867d2"),
        "tiny": (["--dmin", "-60", "--dmax", "-3"],
                 "c5129fbcbcaf27579f7e2921041255e348690289"),
    },
    "catalog-pos": {
        "full": (["--dmin", "5", "--dmax", "8", "--box", "6"],
                 "73ef9cb5a2b387f8dd84a2d3b2e8f7ce3346e616"),
        "tiny": (["--dmin", "5", "--dmax", "5", "--box", "3"],
                 "ffd4815dd831c92a6fa14fe67c33a4bae7aa41e7"),
    },
}

# classify-big: requests per pass (half uniform forms, half quadruple forms)
CLASSIFY_REQUESTS = {"full": 100, "tiny": 4}
# Coefficient window of the classified forms.  The minus-minus scan visits
# about 4*sqrt(m*n)/(1 - k^2/(4mn)) cells, so m and n are kept within a
# factor 1.5 of each other and |k| <= sqrt(m*n)/2: a pass then costs nearly
# the same on every seed, while every form is still "large".
CLASSIFY_LOW = {"full": 70_000, "tiny": 700}
CLASSIFY_HIGH = {"full": 100_000, "tiny": 1_000}
QUADRUPLE_ENTRY = {"full": 300, "tiny": 30}

# algebra: one cycle of the request mix; a pass is CYCLES cycles, shuffled.
ALGEBRA_MIX = (("pair", 20), ("ideal", 12), ("matrix", 10), ("bracket", 7), ("embed", 1))
ALGEBRA_CYCLES = {"full": 20, "tiny": 1}


class Capture(io.StringIO):
    """A stdout stand-in that notes when the first byte was written."""

    first: float | None = None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = time.perf_counter()
        return super().write(text)


def run_cli(package, argv: list[str]):
    """One in-process CLI call: (stdout, first-byte time, stdout)."""
    out = Capture()
    with contextlib.redirect_stdout(out):
        code = package.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code} for {argv}")
    text = out.getvalue()
    return text, out.first, text


# -- catalog-neg / catalog-pos ---------------------------------------------


class Catalog:
    """One catalog call over a fixed discriminant window."""

    def __init__(self, name: str) -> None:
        self.name = name

    def make_inputs(self, package, seed: int, size: str) -> list:
        argv, expected_sha1 = CATALOG_WINDOWS[self.name][size]
        return [(["catalog", *argv], expected_sha1)]

    def run(self, package, request):
        return run_cli(package, request[0])

    def check(self, package, request, text: str) -> bool:
        return hashlib.sha1(text.encode()).hexdigest() == request[1]

    def ops(self, text: str) -> int:
        """Records emitted by one call."""
        return text.count("\n")


# -- classify-big ----------------------------------------------------------


class ClassifyBig:
    """A seeded stream of `classify m k n` calls on large definite forms."""

    name = "classify-big"

    def make_inputs(self, package, seed: int, size: str) -> list:
        rng = random.Random(seed)
        low, high = CLASSIFY_LOW[size], CLASSIFY_HIGH[size]
        requests = []
        for _ in range(CLASSIFY_REQUESTS[size] // 2):
            m, n = rng.randint(low, high), rng.randint(low, high)
            half_root = isqrt(m * n) // 2
            requests.append(("uniform", (m, rng.randint(-half_root, half_root), n)))
            requests.append(("quadruple", self._quadruple_form(package, rng, size)))
        return requests

    @staticmethod
    def _quadruple_form(package, rng: random.Random, size: str) -> tuple[int, int, int]:
        """A form derived from a random quadruple, so it has a witness."""
        low, high, bound = CLASSIFY_LOW[size], CLASSIFY_HIGH[size], QUADRUPLE_ENTRY[size]
        while True:
            quad = package.pairings.Quadruple(*(rng.randint(-bound, bound) for _ in range(4)))
            m, k, n = quad.form().coefficients()
            if low <= m <= high and low <= n <= high and 4 * k * k <= m * n:
                return (m, k, n)

    def run(self, package, request):
        return run_cli(package, ["classify", *map(str, request[1])])

    def check(self, package, request, text: str) -> bool:
        kind, coefficients = request
        form = package.forms.Form(*coefficients)
        record = json.loads(text)
        if record["plus_decision"] != "decided" or record["minus_decision"] != "decided":
            return False
        plus = record["plus_witness"]
        if plus is not None:
            params = package.pairings.PlusParams(
                *(int(plus[key]) for key in ("m", "k", "n", "p", "q")))
            r = params.r
            if package.forms.Form(r * params.m, r * params.k, r * params.n) != form:
                return False
        minus = record["minus_witness"]
        if minus is not None:
            if package.pairings.Quadruple(*map(int, minus)).form() != form:
                return False
        return kind == "uniform" or minus is not None

    def ops(self, text: str) -> int:
        return 1


# -- algebra ---------------------------------------------------------------


class Algebra:
    """A seeded stream of small library requests in a fixed mix."""

    name = "algebra"

    def make_inputs(self, package, seed: int, size: str) -> list:
        rng = random.Random(seed)
        kinds = [kind for kind, count in ALGEBRA_MIX for _ in range(count)]
        kinds *= ALGEBRA_CYCLES[size]
        rng.shuffle(kinds)
        discriminants = [d for d in range(-4000, -2) if d % 4 in (0, 1)]
        requests = []
        for kind in kinds:
            if kind == "pair":
                requests.append(self._pair_input(package, rng))
            elif kind == "ideal":
                delta = rng.choice(discriminants)
                form = rng.choice(package.forms.reduced_forms(delta))
                principal = form == package.forms.principal_form(delta)
                requests.append(("ideal", (delta, form.coefficients(), principal)))
            elif kind == "matrix":
                requests.append(self._matrix_input(rng))
            elif kind == "bracket":
                requests.append(self._bracket_input(rng))
            else:
                s = rng.randint(1, 3)
                k = rng.randint(-20, 20)
                n = (k * k) // (4 * s * s) + rng.randint(1, 30)
                requests.append(("embed", (s * s, k, n)))
        return requests

    @staticmethod
    def _pair_input(package, rng: random.Random):
        """A plus family (variant 1-3) or the minus-minus family (4)."""
        variant = rng.randint(1, 4)
        while True:
            if variant == 4:
                entries = tuple(rng.randint(-30, 30) for _ in range(4))
                if package.pairings.Quadruple(*entries).form().discriminant() != 0:
                    return ("pair", (variant, entries))
                continue
            m, k, n = (rng.randint(-50, 50) for _ in range(3))
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            params = package.pairings.PlusParams(m, k, n, p, q)
            if k * k - 4 * m * n != 0 and params.r != 0:
                return ("pair", (variant, (m, k, n, p, q)))

    @staticmethod
    def _matrix_input(rng: random.Random):
        """A stable sublattice span(A, rE), given by a unimodular pair of
        generators, with a nondegenerate determinant form."""
        while True:
            a = ((rng.randint(-6, 6), rng.randint(-6, 6)),
                 (rng.randint(-6, 6), rng.randint(-6, 6)))
            trace, det = a[0][0] + a[1][1], a[0][0] * a[1][1] - a[0][1] * a[1][0]
            scalar = a[0][1] == 0 and a[1][0] == 0 and a[0][0] == a[1][1]
            if scalar or trace * trace == 4 * det:
                continue
            k = rng.randint(1, 4)
            stable_by = abs(det if k <= 3 else trace * trace - det)
            choices = [r for r in range(1, 13) if stable_by % r == 0]
            r = rng.choice(choices)
            t = rng.randint(-3, 3)
            # (A + t rE, rE) up to order spans the same lattice as (A, rE)
            unimodular = ((1, t), (0, 1)) if rng.random() < 0.5 else ((t, 1), (1, 0))
            return ("matrix", (a, r, k, unimodular))

    @staticmethod
    def _bracket_input(rng: random.Random):
        while True:
            form = tuple(rng.randint(-20, 20) for _ in range(3))
            base = tuple(rng.randint(-20, 20) for _ in range(3))
            e0 = (rng.randint(-5, 5), rng.randint(-5, 5))
            value = base[0] * e0[0] ** 2 + base[1] * e0[0] * e0[1] + base[2] * e0[1] ** 2
            if value != 0:
                return ("bracket", (form, base, e0))

    def run(self, package, request):
        """(repr of the result, None: no stdout, the result)."""
        kind, data = request
        result = getattr(self, "_" + kind)(package, data)
        return repr(result), None, result

    @staticmethod
    def _pair(package, data):
        variant, values = data
        pairings = package.pairings
        if variant == 4:
            pairing, form = pairings.make_minus_minus(pairings.Quadruple(*values))
        else:
            pairing, form = pairings.make_plus(variant, pairings.PlusParams(*values))
        return pairing, form, pairings.is_normed(pairing, form), pairings.type_of(pairing, form)

    @staticmethod
    def _ideal(package, data):
        delta, (m, k, n), _ = data
        ctx = package.lattices.Context(delta)
        ideal = package.lattices.Lattice(
            ctx, ctx.elem(m), ctx.elem(Fraction(-k, 2), Fraction(1, 2)))
        cube = ideal * ideal * ideal
        return (ideal.is_ideal_of(delta), ideal.is_principal(), cube.is_principal(),
                cube.canonical_basis())

    @staticmethod
    def _matrix(package, data):
        a, r, k, ((u11, u12), (u21, u22)) = data
        matembed = package.matembed
        gens = [tuple(tuple(u1 * a[i][j] + (u2 * r if i == j else 0) for j in (0, 1))
                      for i in (0, 1))
                for u1, u2 in ((u11, u12), (u21, u22))]
        lattice = matembed.canonicalize(gens[0], gens[1], k)
        pairing, form, params = matembed.induced_pairing(lattice, k)
        return lattice, pairing, form, params, package.pairings.is_normed(pairing, form)

    @staticmethod
    def _bracket(package, data):
        form, base, e0 = data
        trigroup = package.trigroup
        multiplicative = trigroup.bracket_is_multiplicative(package.forms.Form(*form))
        return multiplicative, trigroup.anchored_pairings(package.forms.Form(*base), e0)

    @staticmethod
    def _embed(package, data):
        return package.lattices.embed_form(package.forms.Form(*data))

    def check(self, package, request, result) -> bool:
        """Compare the result with what the request's own data implies."""
        kind, data = request
        pairings = package.pairings
        if kind == "pair":
            _, _, normed, pairing_type = result
            expected = pairings.TYPE_MM if data[0] == 4 else pairings.PLUS_VARIANT_TYPES[data[0]]
            return normed and pairing_type == expected
        if kind == "ideal":
            _, _, principal = data
            is_ideal, is_principal, _, _ = result
            return is_ideal and is_principal == principal
        if kind == "matrix":
            lattice, pairing, form, _, normed = result
            expected = pairings.TYPE_MM if data[2] == 4 else pairings.PLUS_VARIANT_TYPES[data[2]]
            return (normed and lattice.r == data[1]
                    and pairings.type_of(pairing, form) == expected)
        if kind == "bracket":
            multiplicative, anchored = result
            m, k, n = data[1]
            params = pairings.PlusParams(m, k, n, *data[2])
            return multiplicative and all(
                anchored[v - 1] == pairings.make_plus(v, params) for v in (1, 2, 3))
        return result is not None and result.to_form() == package.forms.Form(*data)

    def ops(self, text: str) -> int:
        return 1


WORKLOADS = {
    "catalog-neg": Catalog("catalog-neg"),
    "catalog-pos": Catalog("catalog-pos"),
    "classify-big": ClassifyBig(),
    "algebra": Algebra(),
}

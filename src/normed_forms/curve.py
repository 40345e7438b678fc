"""The real witness curve of a form (floating point).

For m > 0 and n > 0, theta sweeps out embeddings (alpha, beta, gamma, delta)
realizing the form over the reals, using circular functions in the definite
case and hyperbolic ones in the indefinite case; each embedding induces a
minus-minus quadruple (a, b, c, d).  The exact witness bounds of
classify.minus_minus_bounds come from this parametrization; the curve itself
serves plotting and cross-checks, and nothing exact depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .forms import DegenerateFormError, Definiteness, Form


@dataclass(frozen=True)
class CurvePoint:
    """One sample of the real witness curve."""

    theta: float
    a: float
    b: float
    c: float
    d: float


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A real embedding (alpha, beta, gamma, delta) of a form.

    Realizes the form through alpha^2 + eps gamma^2 = m,
    2(alpha beta + eps gamma delta) = k, beta^2 + eps delta^2 = n, where eps
    is +1 in the circular case and -1 in the hyperbolic case.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    eps: int

    def realized_coefficients(self) -> tuple[float, float, float]:
        """(m, k, n) this embedding induces, for checking against a form."""
        return (
            self.alpha * self.alpha + self.eps * self.gamma * self.gamma,
            2 * (self.alpha * self.beta + self.eps * self.gamma * self.delta),
            self.beta * self.beta + self.eps * self.delta * self.delta,
        )


def _curve_context(form: Form) -> tuple[float, int]:
    """(phase, eps) of the witness curve; eps is +1 circular, -1 hyperbolic.

    The phase is acos(k / sqrt(4mn)) or acosh(|k| / sqrt(4mn)), taken as
    atan2(sqrt(|disc|), k) and asinh(sqrt(disc) / sqrt(4mn)) from the exact
    integer discriminant, so no digits cancel when |disc| is small against 4mn.
    """
    kind = form.definiteness()
    if kind is Definiteness.DEGENERATE:
        raise DegenerateFormError("the witness curve needs a nondegenerate form")
    m, k, n = form.coefficients()
    if m <= 0 or n <= 0:
        raise ValueError("the witness curve needs m > 0 and n > 0")
    disc = form.discriminant()
    try:
        if kind is Definiteness.POSITIVE_DEFINITE:
            phase = math.atan2(math.sqrt(-disc), k)
            return (-phase if k < 0 else phase), 1
        return math.asinh(math.sqrt(disc) / math.sqrt(4 * m * n)), -1
    except OverflowError:
        raise ValueError(
            "the coefficients are too large for the floating-point witness curve"
        ) from None


def curve_phase(form: Form) -> float:
    """The phase offset of the witness curve."""
    return _curve_context(form)[0]


def curve_embedding(form: Form, theta: float, branch: int = 1) -> EmbeddingMatrix:
    """Point (alpha, beta, gamma, delta) of the real embedding curve.

    cosh is even, so a hyperbolic phase cannot carry the sign of k; for an
    indefinite form with k < 0 the curve negates beta and delta instead.
    """
    phase, eps = _curve_context(form)
    s, c = (math.sin, math.cos) if eps == 1 else (math.sinh, math.cosh)
    m, k, n = form.coefficients()
    sign = 1 if branch >= 0 else -1
    sm = sign * math.sqrt(m)
    sn = sign * math.sqrt(n) * (-1 if eps == -1 and k < 0 else 1)
    return EmbeddingMatrix(
        alpha=sm * c(theta),
        beta=sn * c(theta + phase),
        gamma=sm * s(theta),
        delta=sn * s(theta + phase),
        eps=eps,
    )


def embedding_to_quadruple(emb: EmbeddingMatrix) -> tuple[float, float, float, float]:
    """Recover the quadruple a witness embedding induces.

    Requires w = alpha delta - beta gamma != 0 with at least half its bits left
    after the cancellation; far out on a hyperbola both products grow like
    exp(2 |theta|) while w stays fixed, and ZeroDivisionError says so."""
    alpha, beta, gamma, delta, eps = emb.alpha, emb.beta, emb.gamma, emb.delta, emb.eps
    w = alpha * delta - beta * gamma
    if abs(w) <= 2**-26 * (abs(alpha * delta) + abs(beta * gamma)):
        raise ZeroDivisionError("embedding is degenerate to floating-point precision")
    a = (delta * (alpha * alpha - eps * gamma * gamma) + 2 * alpha * beta * gamma) / w
    b = delta * (3 * beta * beta - eps * delta * delta) / w
    c = (gamma * (beta * beta - eps * delta * delta) + 2 * alpha * beta * delta) / w
    d = gamma * (3 * alpha * alpha - eps * gamma * gamma) / w
    return a, b, c, d


def curve_quadruple(
    form: Form, theta: float, branch: int = 1
) -> tuple[float, float, float, float]:
    """Point (a, b, c, d) of the real minus-minus witness curve."""
    return embedding_to_quadruple(curve_embedding(form, theta, branch))


def curve_sample(form: Form, thetas, branch: int = 1) -> list[CurvePoint]:
    """Evaluate the witness curve at the given parameter values."""
    points = []
    for theta in thetas:
        try:
            quad = curve_quadruple(form, theta, branch)
            finite = all(map(math.isfinite, quad))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError(
                f"the witness curve leaves the floating-point range at theta = {theta}"
            )
        points.append(CurvePoint(float(theta), *quad))
    return points

"""The real witness curve of a form (floating point).

For m > 0 and n > 0, theta sweeps out embeddings (alpha, beta, gamma, delta)
and minus-minus quadruples (a, b, c, d) realizing the form over the reals,
using circular functions in the definite case and hyperbolic ones in the
indefinite case.  The exact witness bounds of classify.minus_minus_bounds
come from this parametrization; the curve itself serves plotting and
cross-checks, and nothing exact depends on it.
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

    def realized_coefficients(self, eps: int = 1) -> tuple[float, float, float]:
        """(m, k, n) this embedding induces, for checking against a form."""
        return (
            self.alpha * self.alpha + eps * self.gamma * self.gamma,
            2 * (self.alpha * self.beta + eps * self.gamma * self.delta),
            self.beta * self.beta + eps * self.delta * self.delta,
        )


def _curve_context(form: Form):
    """(phase, sin-like, cos-like) for the witness curve of the form."""
    kind = form.definiteness()
    if kind is Definiteness.DEGENERATE:
        raise DegenerateFormError("the witness curve needs a nondegenerate form")
    m, k, n = form.coefficients()
    if m <= 0 or n <= 0:
        raise ValueError("the witness curve needs m > 0 and n > 0")
    try:
        ratio = k / math.sqrt(4 * m * n)
    except OverflowError:
        raise ValueError(
            "the coefficients are too large for the floating-point witness curve"
        ) from None
    if kind is Definiteness.POSITIVE_DEFINITE:
        phase = math.acos(ratio)
        if k < 0:
            phase = -phase
        return phase, math.sin, math.cos
    phase = math.acosh(abs(ratio))
    if k < 0:
        phase = -phase
    return phase, math.sinh, math.cosh


def curve_phase(form: Form) -> float:
    """The phase offset of the witness curve."""
    return _curve_context(form)[0]


def curve_embedding(form: Form, theta: float, branch: int = 1) -> EmbeddingMatrix:
    """Point (alpha, beta, gamma, delta) of the real embedding curve."""
    phase, s, c = _curve_context(form)
    m, _, n = form.coefficients()
    sm, sn = math.sqrt(m), math.sqrt(n)
    sign = 1 if branch >= 0 else -1
    return EmbeddingMatrix(
        alpha=sign * sm * c(theta),
        beta=sign * sn * c(theta + phase),
        gamma=sign * sm * s(theta),
        delta=sign * sn * s(theta + phase),
    )


def curve_quadruple(
    form: Form, theta: float, branch: int = 1
) -> tuple[float, float, float, float]:
    """Point (a, b, c, d) of the real minus-minus witness curve."""
    phase, s, c = _curve_context(form)
    m, _, n = form.coefficients()
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


def embedding_to_quadruple(
    emb: EmbeddingMatrix, eps: int = 1
) -> tuple[float, float, float, float]:
    """Recover the quadruple a witness embedding induces.

    eps is +1 in the definite (circular) case and -1 in the indefinite
    (hyperbolic) case.  Requires alpha delta - beta gamma != 0.
    """
    alpha, beta, gamma, delta = emb.alpha, emb.beta, emb.gamma, emb.delta
    w = alpha * delta - beta * gamma
    if w == 0:
        raise ZeroDivisionError("embedding is degenerate")
    a = (delta * (alpha * alpha - eps * gamma * gamma) + 2 * alpha * beta * gamma) / w
    b = delta * (3 * beta * beta - eps * delta * delta) / w
    c = (gamma * (beta * beta - eps * delta * delta) + 2 * alpha * beta * delta) / w
    d = gamma * (3 * alpha * alpha - eps * gamma * gamma) / w
    return a, b, c, d


def curve_sample(form: Form, thetas, branch: int = 1) -> list[CurvePoint]:
    """Evaluate the witness curve at the given parameter values."""
    points = []
    for theta in thetas:
        try:
            a, b, c, d = curve_quadruple(form, theta, branch)
        except OverflowError:
            raise ValueError(
                f"the witness curve leaves the floating-point range at theta = {theta}"
            ) from None
        points.append(CurvePoint(theta=float(theta), a=a, b=b, c=c, d=d))
    return points

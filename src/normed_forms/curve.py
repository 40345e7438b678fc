"""The real witness curve of a form (floating point).

For m > 0 and n > 0, theta sweeps out embeddings (alpha, beta, gamma, delta)
realizing the form over the reals, using circular functions in the definite
case and hyperbolic ones in the indefinite case; each embedding induces a
minus-minus quadruple (a, b, c, d).  Each call checks the form and derives the
curve once, before its first point; a form with |disc|, k, m, n or 4mn past
floating point is refused.  Definite points agree with the exact bounds of
classify.minus_minus_bounds, proved there without the curve, which serves
plotting and cross-checks; nothing exact depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .forms import DegenerateFormError, Definiteness, Form

__all__ = ["CurvePoint", "EmbeddingMatrix", "curve_embedding", "curve_phase", "curve_sample",
           "embedding_to_quadruple"]


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


def _curve(form: Form, branch: int):
    """(phase, at) of the witness curve, where at(theta) is its embedding.

    The phase, acos(k / sqrt(4mn)) or acosh(|k| / sqrt(4mn)), is taken as
    atan2(sqrt(|disc|), k) and asinh(sqrt(disc) / sqrt(4mn)) from the exact
    integer discriminant, so no digits cancel when |disc| is small against 4mn.
    cosh is even, so a hyperbolic phase cannot carry the sign of k; for an
    indefinite form with k < 0 the curve negates beta and delta instead.

    w = alpha delta - beta gamma comes from the exact discriminant, not from a
    cancellation.  Any real embedding has (alpha^2 + eps gamma^2)(beta^2 + eps
    delta^2) - (alpha beta + eps gamma delta)^2 = eps w^2, that is mn - k^2/4
    = eps w^2, so w^2 = |disc|/4.  On the curve w = sqrt(mn) sin(phase) or
    sigma sqrt(mn) sinh(phase) at every theta (sigma = -1 where beta and delta
    are negated; the branch sign cancels), and the phase has the sign of k in
    (-pi, pi) or is positive, so w is sqrt(|disc|)/2, negated when k < 0.
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


def curve_phase(form: Form) -> float:
    """The phase offset of the witness curve."""
    return _curve(form, 1)[0]


def curve_embedding(form: Form, theta: float, branch: int = 1) -> EmbeddingMatrix:
    """Point (alpha, beta, gamma, delta) of the real embedding curve."""
    return _curve(form, branch)[1](theta)


def embedding_to_quadruple(emb: EmbeddingMatrix) -> tuple[float, float, float, float]:
    """Recover the quadruple a witness embedding induces (w != 0)."""
    alpha, beta, gamma, delta, eps, w = emb.alpha, emb.beta, emb.gamma, emb.delta, emb.eps, emb.w
    a = (delta * (alpha * alpha - eps * gamma * gamma) + 2 * alpha * beta * gamma) / w
    b = delta * (3 * beta * beta - eps * delta * delta) / w
    c = (gamma * (beta * beta - eps * delta * delta) + 2 * alpha * beta * delta) / w
    d = gamma * (3 * alpha * alpha - eps * gamma * gamma) / w
    return a, b, c, d


def curve_sample(form: Form, thetas, branch: int = 1) -> list[CurvePoint]:
    """Evaluate the witness curve at the given parameter values."""
    at = _curve(form, branch)[1]
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

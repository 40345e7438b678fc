"""The real witness curve of a form (floating point).

For m > 0 and n > 0, theta sweeps out real embeddings (alpha, beta, gamma,
delta) of the form, circular in the definite case and hyperbolic in the
indefinite case, and each embedding induces a minus-minus point (a, b, c, d);
curve_sample returns those points.  Each call checks the form and derives the
curve once, before its first point; a form with |disc|, k, m, n or 4mn past
floating point is refused.  Definite points agree with the exact bounds of
classify.minus_minus_bounds, proved there without the curve, which serves
plotting and cross-checks; nothing exact depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .forms import DegenerateFormError, Definiteness, Form

__all__ = ["CurvePoint", "curve_phase", "curve_sample"]


@dataclass(frozen=True)
class CurvePoint:
    """One sample of the real witness curve."""

    theta: float
    a: float
    b: float
    c: float
    d: float


def _curve(form: Form, branch: int):
    """(phase, point) of the witness curve, where point(theta) is (a, b, c, d).

    point builds the curve's embedding (alpha, beta, gamma, delta) at theta,
    which realizes the form over the reals: alpha^2 + eps gamma^2 = m,
    2(alpha beta + eps gamma delta) = k and beta^2 + eps delta^2 = n, with
    eps = +1 circular or -1 hyperbolic.  It returns the quadruple that
    embedding induces, each coordinate divided by w = alpha delta - beta gamma.

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

    def point(theta: float) -> tuple[float, float, float, float]:
        alpha, beta = sm * c(theta), sn * c(theta + phase)
        gamma, delta = sm * s(theta), sn * s(theta + phase)
        return ((delta * (alpha * alpha - eps * gamma * gamma) + 2 * alpha * beta * gamma) / w,
                delta * (3 * beta * beta - eps * delta * delta) / w,
                (gamma * (beta * beta - eps * delta * delta) + 2 * alpha * beta * delta) / w,
                gamma * (3 * alpha * alpha - eps * gamma * gamma) / w)

    return phase, point


def curve_phase(form: Form) -> float:
    """The phase offset of the witness curve."""
    return _curve(form, 1)[0]


def curve_sample(form: Form, thetas, branch: int = 1) -> list[CurvePoint]:
    """Evaluate the witness curve at the given parameter values."""
    point = _curve(form, branch)[1]
    points = []
    for theta in thetas:
        try:
            quad = point(theta)
        except OverflowError:  # cosh or sinh past |theta| of about 710
            quad = (math.inf,)
        if not all(map(math.isfinite, quad)):
            raise ValueError("the witness curve leaves the floating-point range "
                             f"at theta = {theta}")
        points.append(CurvePoint(float(theta), *quad))
    return points

#!/usr/bin/env python3
"""Trace the real curve on which all minus-minus witnesses must lie.

For a form with m n != 0 the quadruples (a, b, c, d) deriving it sweep a
one-parameter real curve: an ellipse pair for definite forms, hyperbolic
branches otherwise.  Integer witnesses are exactly the integer points on
the curve.  The curve proves nothing: the finite search box of a definite
form is proved without it, in the classify module docstring, and computed
exactly by classify.minus_minus_bounds; the curve's extents only illustrate
that box.  The script
samples the curve for (4, 2, 6) and (2, 1, 3), locates the integer witness
of the latter, shows how the sign of k enters an indefinite curve, and
checks the embedding matrices that generate the curve.
"""

import math

from normed_forms import (
    Form,
    Quadruple,
    curve_embedding,
    curve_phase,
    curve_sample,
    embedding_to_quadruple,
    minus_minus_bounds,
    search_minus_minus,
)


def sample_rows(form, count, branch=1):
    thetas = [2 * math.pi * i / count for i in range(count)]
    return curve_sample(form, thetas, branch=branch)


def main():
    form = Form(4, 2, 6)
    print(f"curve of {form}: phase {curve_phase(form):+.6f} rad")
    print("  theta ->  (a, b, c, d)")
    for point in sample_rows(form, 7):
        print(f"  {point.theta:8.5f} -> ({point.a:+8.4f}, {point.b:+8.4f},"
              f" {point.c:+8.4f}, {point.d:+8.4f})")

    bounds = minus_minus_bounds(form)
    tops = [0.0, 0.0, 0.0, 0.0]
    for point in sample_rows(form, 4096):
        for i, value in enumerate((point.a, point.b, point.c, point.d)):
            tops[i] = max(tops[i], abs(value))
    print("  curve extents vs integer box:")
    for name, top, bound in zip("abcd", tops, bounds):
        print(f"    sup |{name}| = {top:.4f}, box bound {bound}")
    witness, decision = search_minus_minus(form)
    print(f"  no integer point lies on the curve: witness {witness} ({decision.value})")

    print()
    form = Form(2, 1, 3)
    target, _ = search_minus_minus(form)
    print(f"curve of {form}: integer witness {target}")
    best = None
    for branch in (1, -1):
        for point in sample_rows(form, 200000, branch=branch):
            err = max(
                abs(point.a - target.a),
                abs(point.b - target.b),
                abs(point.c - target.c),
                abs(point.d - target.d),
            )
            if best is None or err < best[0]:
                best = (err, point.theta, branch)
    err, theta, branch = best
    print(f"  the witness sits on branch {branch:+d} at theta = {theta:.5f}"
          f" (distance {err:.2e})")

    print()
    for form in (Form(1, 3, 1), Form(1, -3, 1)):
        print(f"indefinite {form}: hyperbolic parametrization, two branches")
        for branch in (1, -1):
            point = curve_sample(form, [0.0], branch=branch)[0]
            print(f"  branch {branch:+d} at theta 0:"
                  f" ({point.a:+.1f}, {point.b:+.1f}, {point.c:+.1f}, {point.d:+.1f})")
    print("  (k < 0 negates beta and delta of the embedding, hence c and d)")

    print()
    print("the curve is generated by a matrix embedding; its realized")
    print("coefficients reproduce the form, and so does its quadruple:")
    form = Form(2, 1, 3)
    emb = curve_embedding(form, 0.7)
    print(f"  realized_coefficients at theta 0.7: "
          f"{tuple(round(c, 9) for c in emb.realized_coefficients())}")
    a, b, c, d = embedding_to_quadruple(emb)
    equations = (a * a - c * d, a * c - b * d, c * c - a * b)
    print(f"  (a^2 - cd, ac - bd, c^2 - ab) = {tuple(round(v, 9) for v in equations)}")


if __name__ == "__main__":
    main()

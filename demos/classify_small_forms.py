#!/usr/bin/env python3
"""Classify small positive definite forms by the pairing types they admit.

For a positive definite form both searches are finite: the plus-family
search runs over divisors represented by the primitive part, and the
minus-minus search runs over an exact coefficient box.  The script works
through (2, 1, 3) and its double (4, 2, 6), whose answers differ in an
instructive way, then prints a one-line summary for every reduced form of
discriminant -23 and -47.
"""

from normed_forms import (
    Form,
    full_classification,
    minus_minus_bounds,
    reduced_forms,
    search_minus_minus,
    search_plus,
    semigroup_probe,
)


def describe(form):
    report = full_classification(form)
    plus = "all three plus types" if report.plus_params else "no plus type"
    minus = "the minus-minus type" if report.minus_quadruple else "no minus-minus type"
    print(f"  {form}: {plus}, {minus}"
          f" ({report.plus_decision.value}/{report.minus_decision.value})")
    return report


def main():
    print("A form admits a type when some pairing of that type is normed for it.")

    print()
    print("Example: (2, 1, 3), discriminant -23")
    form = Form(2, 1, 3)
    report = describe(form)
    quad = report.minus_quadruple
    print(f"  witness quadruple {quad} derives {quad.form()}")
    amax, bmax, cmax, dmax = minus_minus_bounds(form)
    print(f"  search box |a| <= {amax}, |b| <= {bmax}, |c| <= {cmax}, |d| <= {dmax}")

    print()
    print("Example: (4, 2, 6), the double of (2, 1, 3)")
    form = Form(4, 2, 6)
    report = describe(form)
    params = report.plus_params
    print(f"  witness parameters {params}: base {params.base_form()},"
          f" r = {params.r}, so the pairing is normed for {params.r} * (2, 1, 3)")
    witness, decision = search_minus_minus(form)
    rows = 2 * minus_minus_bounds(form)[0] + 1
    print(f"  minus-minus search: {witness} after solving {rows} rows ({decision.value})")

    print()
    print("Doubling swaps the answers: the primitive form has only the")
    print("minus-minus type, its double has only the plus types.")

    print()
    print("Multiplicativity of values is necessary for any type:")
    for form in (Form(2, 1, 3), Form(2, 0, 3)):
        probe = semigroup_probe(form)
        if probe.counterexample_count == 0:
            verdict = "closed"
        else:
            verdict = f"{probe.counterexample_count} counterexamples"
        print(f"  values of {form} under products: {verdict}")

    for delta in (-23, -47):
        print()
        print(f"All reduced forms of discriminant {delta}:")
        for form in reduced_forms(delta):
            describe(form)

    print()
    print("Plus witnesses exist exactly when the primitive part represents")
    print("the content; search_plus((4, 2, 6)) ->", search_plus(Form(4, 2, 6))[0])


if __name__ == "__main__":
    main()

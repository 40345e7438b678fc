"""Command-line front end for form inspection, classification and catalogs.

Five subcommands, all thin adapters over the library:

    form-info   facts about one form (discriminant, content, reduction)
    classify    which pairing families realize a form, with witnesses
    curve       CSV samples of the real witness curve (for plotting)
    verify      check a user-supplied pairing against a form
    catalog     classify every reduced primitive form in a discriminant range

Each cmd_* computes and returns (output, exit status).  The output is a
record dict (form-info, classify, verify) or newline-terminated lines
(curve; catalog's lazy generator, [] after --out).  main alone writes
stdout, attaches elapsed_ms under --timing and maps refusals to exit 2:
input checks raise ValueError, as the library does on degenerate and
over-budget input, and main prints `error: <text>` for it.  Records are
sorted-key JSON lines with every integer rendered as a decimal string
(consumers never lose precision to doubles); `_decimal` is the one place where
integers become strings, for JSON and CSV alike.  Output bytes are
deterministic for fixed inputs and flags; catalog records carry no timing.

Exit codes: 0 success, 1 verification negative, 2 input error (an input
check or the library's ValueError), 3 inconclusive under --strict, 4 I/O
failure (a reader that closes stdout early, as `| head` does, included; it
exits quietly).

The catalog's records reach stdout one by one as they are computed,
in canonical order (ascending discriminant, then enumeration order of the
forms), so the JSON lines of adjacent sub-windows concatenate to the full
window's bytes and a wide window can be split across concurrent runs; --out
streams them into a temporary file beside the target and then replaces the
target atomically.

The catalog's semigroup_* fields: a positive definite form with a plus or
minus-minus witness is closed by proof (ClassificationReport.has_witness) and
is not probed.  Without a witness, semigroup_probe counts the counterexamples
on its 7x7 sample exactly, and each one proves that the form is not closed.
For indefinite forms the fields stay advisory (decided false, closed null).
The probe runs once per box-symmetry orbit {(m, +-k, n), (n, +-k, m)} within
a discriminant: x2 -> -x2 and x1 <-> x2 map the sample and search boxes onto
themselves, so the fields are equal across the orbit.  An orbit without a
witness is classified once too: two witness bijections show that its forms
share the whole record tail, verdict and semigroup fields (see
_catalog_record).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator
from itertools import chain
from math import gcd, isqrt

from .classify import ClassificationReport, full_classification, order3_verdict
from .curve import curve_sample
from .forms import (
    MAX_SEARCH_ROWS,
    Definiteness,
    Form,
    _is_discriminant,
    principal_form,
    reduced_forms,
    semigroup_probe,
)
from .pairings import Pairing, is_normed, type_of

_HYPERBOLIC_COMMENT = "# hyperbolic parametrization: s = sinh, c = cosh\n"
# curve builds every theta and point in memory, so --samples is bounded
MAX_CURVE_SAMPLES = 100_000
# catalog solves for n at about (4/3) * box^2 pairs (m, k) per positive delta
MAX_CATALOG_BOX = 1000
# catalog classifies and probes each reduced form of a negative discriminant,
# about sqrt(|delta|) of them (up to about 0.7 s for one discriminant near
# the cap: -99839, 475 forms, in process); the cap holds for positive
# windows too
MAX_CATALOG_DISCRIMINANT = 10**5


def _decimal(value):
    """value with every int, at any depth, as a decimal string.

    Bools (by exact type), None and strings pass through; tuples become lists.
    """
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is dict:
        return {key: _decimal(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        return [_decimal(item) for item in value]
    return value


def _fail(message: str, code: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


def _verdict_fields(report: ClassificationReport) -> dict:
    """The classification fields shared by classify and catalog records."""
    plus, quad = report.plus_params, report.minus_quadruple
    return {
        "definiteness": report.definiteness.value,
        "plus_witness": None if plus is None else {**vars(plus), "r": plus.r},
        "plus_decision": report.plus_decision.value,
        "minus_witness": None if quad is None else (quad.a, quad.b, quad.c, quad.d),
        "minus_decision": report.minus_decision.value,
        "order3": None if quad is None else order3_verdict(quad).value,
    }


def cmd_form_info(args: argparse.Namespace) -> tuple[dict, int]:
    form = Form(args.m, args.k, args.n)
    if form.is_zero():
        raise ValueError("the zero form has no content or primitive part")
    kind = form.definiteness()
    content, primitive = form.content_and_primitive()
    record = {
        "command": "form-info",
        "form": form.coefficients(),
        "discriminant": form.discriminant(),
        "definiteness": kind.value,
        "degenerate": kind is Definiteness.DEGENERATE,
        "content": content,
        "primitive_part": primitive.coefficients(),
        "is_primitive": form.is_primitive(),
        "is_reduced": None,
        "reduced": None,
        "reduction_transform": None,
        "principal_form": None,
        "is_principal_class": None,
    }
    if kind is Definiteness.POSITIVE_DEFINITE:
        reduced, transform = primitive.reduce()
        principal = principal_form(primitive.discriminant())
        record["is_reduced"] = form.is_reduced()
        record["reduced"] = reduced.coefficients()
        record["reduction_transform"] = transform
        record["principal_form"] = principal.coefficients()
        record["is_principal_class"] = reduced == principal
    return record, 0


def cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    if args.box < 0:
        raise ValueError("--box must not be negative")
    if args.box > MAX_SEARCH_ROWS:
        raise ValueError(f"--box must be at most {MAX_SEARCH_ROWS}")
    form = Form(args.m, args.k, args.n)
    report = full_classification(form, box_bound=args.box)
    record = {
        "command": "classify",
        "form": form.coefficients(),
        "discriminant": form.discriminant(),
        **_verdict_fields(report),
    }
    return record, 3 if args.strict and not report.fully_decided else 0


def cmd_curve(args: argparse.Namespace) -> tuple[list[str], int]:
    # checked first: the step divides by --samples, and every theta is built
    # in memory before curve_sample checks the form
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.samples > MAX_CURVE_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_CURVE_SAMPLES}")
    form = Form(args.m, args.k, args.n)
    definite = form.definiteness() is Definiteness.POSITIVE_DEFINITE
    theta_max = args.theta_max
    if theta_max is None:
        theta_max = 2 * math.pi if definite else 2.0
    step = (theta_max - args.theta_min) / args.samples
    # not finite when either end is nan or infinite, or their gap overflows
    if not math.isfinite(step):
        raise ValueError("the theta window must be finite")
    thetas = [args.theta_min + i * step for i in range(args.samples)]
    points = curve_sample(form, thetas, 1 if args.branch == "plus" else -1)
    lines = [] if definite else [_HYPERBOLIC_COMMENT]
    lines.append("theta,a,b,c,d\n")
    for pt in points:
        cells = [format(v, ".12g") for v in (pt.theta, pt.a, pt.b, pt.c, pt.d)]
        lines.append(",".join(cells) + "\n")
    return lines, 0


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    pairing = Pairing(
        ((args.entries[0], args.entries[1]), (args.entries[2], args.entries[3])),
        ((args.entries[4], args.entries[5]), (args.entries[6], args.entries[7])),
    )
    form = Form(args.entries[8], args.entries[9], args.entries[10])
    normed = is_normed(pairing, form)
    type_label = None
    if normed and form.discriminant() != 0:
        type_label = str(type_of(pairing, form))
    record = {
        "command": "verify",
        "form": form.coefficients(),
        "normed": normed,
        "type": type_label,
        "commutative": pairing.is_commutative(),
        "traceless": pairing.is_traceless(),
    }
    return record, 0 if normed else 1


def _positive_delta_forms(delta: int, box: int) -> Iterator[Form]:
    """Primitive forms of positive discriminant delta with 1 <= m <= box,
    |n| <= box (a normalized finite sample; the full set is infinite), in
    ascending (m, k, n) order: n = (k^2 - delta)/4m for each k = delta mod 2
    with k^2 <= delta + 4m*box, the k that give n <= box."""
    for m in range(1, box + 1):
        reach = isqrt(delta + 4 * m * box)
        for k in range(-reach + (reach + delta) % 2, reach + 1, 2):
            n, rest = divmod(k * k - delta, 4 * m)
            if rest == 0 and n >= -box and gcd(m, k, n) == 1:
                yield Form(m, k, n)


def _catalog_record(delta: int, form: Form,
                    orbits: dict[tuple[int, int, int], tuple[dict | None, dict]]) -> dict:
    """The catalog record of one form of discriminant delta.  orbits maps each
    box-symmetry orbit (min(m, n), |k|, max(m, n)) of delta to its shared
    record tail: (verdict fields or None, semigroup fields).

    x2 -> -x2 and x1 <-> x2 map the sample box and the search box onto
    themselves and turn (m, k, n) into (m, -k, n) and (n, k, m), so all forms
    of an orbit have the same sample values and represent the same products
    (on all of Z^2 for definite forms, inside the box for indefinite ones):
    the semigroup fields are shared.  So are the verdict fields of an orbit
    without a witness.  The witness bijections (a, b, c, d) -> (-a, -b, c, d)
    and (a, b, c, d) -> (c, d, a, b) take the minus-minus witnesses of
    (m, k, n) to those of (m, -k, n) and (n, k, m), inside the same boxes
    (the box is a cube for indefinite forms; for definite forms the search
    is complete).  f o sigma represents r exactly when f does, and the
    content is the same, so the plus search finds a witness for all forms of
    the orbit or for none.  Without a witness the fields depend only on the
    definiteness, which the orbit shares, so its twins skip
    full_classification.  They would not have been refused either: its
    budget reads the content and the box, and on a definite form amax,
    which (m, -k, n) shares; reduced forms have m <= n, so no definite twin
    (n, k, m) with n != m is listed.
    """
    orbit = (min(form.m, form.n), abs(form.k), max(form.m, form.n))
    verdict, semigroup = orbits.get(orbit, (None, None))
    if verdict is None:  # the orbit's first form, or one with a witness
        report = full_classification(form)
        verdict = _verdict_fields(report)
        if semigroup is None:
            # a witness proves closure (ClassificationReport.has_witness);
            # indefinite records keep the advisory probe, whose fields the
            # pinned windows fix
            if report.has_witness and report.definiteness is Definiteness.POSITIVE_DEFINITE:
                decided, count = True, 0
            else:
                probe = semigroup_probe(form)
                decided, count = probe.decided, probe.counterexample_count
            semigroup = {
                "semigroup_decided": decided,
                "semigroup_counterexamples": count,
                "semigroup_closed": count == 0 if decided else None,
            }
            orbits[orbit] = (None if report.has_witness else verdict, semigroup)
    return _decimal({"delta": delta, "form": form.coefficients(), **verdict, **semigroup})


def _catalog_records(dmin: int, dmax: int, box: int) -> Iterator[dict]:
    """The record of each form of the window, yielded in canonical order as
    it is computed; each discriminant's forms are enumerated when it is
    reached, and share one orbit dict."""
    for delta in range(dmin, dmax + 1):
        if not _is_discriminant(delta):
            continue
        forms = reduced_forms(delta) if delta < 0 else _positive_delta_forms(delta, box)
        orbits: dict[tuple[int, int, int], tuple[dict | None, dict]] = {}
        for form in forms:
            yield _catalog_record(delta, form, orbits)


_CSV_COLUMNS = (
    "delta m k n definiteness plus_decision plus_r plus_p plus_q minus_decision "
    "minus_a minus_b minus_c minus_d order3 semigroup_decided semigroup_closed"
).split()


def _record_to_csv(record: dict) -> str:
    """The record's row in _CSV_COLUMNS order: the form and both witnesses
    flattened into their columns, None as an empty cell, bools as true/false."""
    plus = record["plus_witness"] or {}
    minus = record["minus_witness"] or [None] * 4
    flat = {
        **record,
        **dict(zip("mkn", record["form"])),
        **{f"plus_{key}": plus.get(key) for key in "rpq"},
        **{f"minus_{key}": value for key, value in zip("abcd", minus)},
    }
    cells = (flat[column] for column in _CSV_COLUMNS)
    return ",".join("" if c is None else json.dumps(c) if isinstance(c, bool) else c
                    for c in cells)


def cmd_catalog(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    if args.dmin > args.dmax:
        raise ValueError("--dmin must not exceed --dmax")
    if args.dmax >= 0 and args.dmin <= 0:
        raise ValueError("range must be entirely negative or entirely positive")
    if args.box < 1:
        raise ValueError("--box must be at least 1")
    if args.box > MAX_CATALOG_BOX:
        raise ValueError(f"--box must be at most {MAX_CATALOG_BOX}")
    if max(abs(args.dmin), abs(args.dmax)) > MAX_CATALOG_DISCRIMINANT:
        raise ValueError("--dmin and --dmax must be at most "
                         f"{MAX_CATALOG_DISCRIMINANT} in absolute value")
    records = _catalog_records(args.dmin, args.dmax, args.box)
    if args.format == "jsonl":
        lines = (json.dumps(r, sort_keys=True) + "\n" for r in records)
    else:
        rows = (_record_to_csv(r) + "\n" for r in records)
        lines = chain([",".join(_CSV_COLUMNS) + "\n"], rows)
    if args.out is None:
        return lines, 0
    try:
        _write_atomically(args.out, lines)
    except OSError as exc:
        return [], _fail(f"cannot write {args.out}: {exc}", 4)
    return [], 0


def _write_atomically(path: str, lines: Iterable[str]) -> None:
    """Stream lines into a temporary file beside path, then rename it onto path.

    A failure, in the writes or in producing the lines, leaves path as it was
    (never truncated) and removes the temporary file.
    """
    temporary = f"{path}.{os.getpid()}.tmp"
    handle = open(temporary, "x", encoding="utf-8")
    try:
        with handle:
            handle.writelines(lines)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normed-forms",
        description="Exact classification of integer normed pairings on "
        "binary quadratic forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, form=True):
        """The subcommand name, run by func; form adds the positionals m k n."""
        subparser = sub.add_parser(name, help=summary)
        for coefficient in ("m", "k", "n") if form else ():
            subparser.add_argument(coefficient, type=int)
        subparser.set_defaults(func=func)
        return subparser

    info = command("form-info", cmd_form_info, "facts about one form")
    classify = command("classify", cmd_classify, "which pairing families realize a form")
    classify.add_argument("--box", type=int, default=100,
                          help="search bound for indefinite forms, "
                          f"0 to {MAX_SEARCH_ROWS}; rejected at once are "
                          "positive definite forms whose minus-minus scan "
                          f"exceeds {MAX_SEARCH_ROWS} rows, and indefinite forms "
                          "whose content's square root exceeds "
                          f"{MAX_SEARCH_ROWS} or whose plus search would solve "
                          f"more than {MAX_SEARCH_ROWS + 1} rows")
    classify.add_argument("--strict", action="store_true",
                          help="exit 3 when any verdict is merely bounded")

    curve = command("curve", cmd_curve, "CSV samples of the real witness curve")
    curve.add_argument("--samples", type=int, default=64,
                       help=f"grid points, 1 to {MAX_CURVE_SAMPLES}")
    curve.add_argument("--theta-min", type=float, default=0.0,
                       help="default 0; write a negative value as --theta-min=-1e-3")
    curve.add_argument("--theta-max", type=float, default=None,
                       help="default: one period (definite) or 2.0 (indefinite); "
                            "write a negative value as --theta-max=-1e-3")
    curve.add_argument("--branch", choices=("plus", "minus"), default="plus")

    verify = command("verify", cmd_verify,
                     "check a pairing (two row-major 2x2 matrices) against a form",
                     form=False)
    verify.add_argument("entries", type=int, nargs=11, metavar="INT",
                        help="a11 a12 a21 a22 b11 b12 b21 b22 m k n")

    catalog = command("catalog", cmd_catalog, "classify a discriminant range", form=False)
    window = f"discriminant window bound, |D| at most {MAX_CATALOG_DISCRIMINANT}"
    catalog.add_argument("--dmin", type=int, required=True, help=window)
    catalog.add_argument("--dmax", type=int, required=True, help=window)
    catalog.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    catalog.add_argument("--out", default=None, help="output path (default stdout)")
    catalog.add_argument("--box", type=int, default=12,
                         help="coefficient bound for positive discriminants, "
                         f"at most {MAX_CATALOG_BOX}")
    # last, so that each help text lists it after the command's own options
    for record_command in (info, classify, verify):
        record_command.add_argument("--timing", action="store_true",
                                    help="attach elapsed_ms")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        output, status = args.func(args)
    except ValueError as exc:  # includes DegenerateFormError
        return _fail(str(exc), 2)
    if isinstance(output, dict):  # a record; every record command has --timing
        record = _decimal(output)
        if args.timing:
            record["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
        output = [json.dumps(record, sort_keys=True) + "\n"]
    try:
        for line in output:
            sys.stdout.write(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`catalog ... | head -1`): an I/O failure.
        # stdout goes to devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4
    return status


if __name__ == "__main__":
    sys.exit(main())

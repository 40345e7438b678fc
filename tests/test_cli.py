"""Tests for the command line interface: records, exit codes, determinism."""

import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import normed_forms
from normed_forms import Form, PlusParams, Quadruple, classify, cli, full_classification
from normed_forms.cli import _decimal, main
from normed_forms.forms import exact_sqrt


def run(capsys, argv):
    """Invoke the CLI and return (exit code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_form_info_record(capsys):
    """All fields of the form-info record for a doubled form."""
    code, out, _ = run(capsys, ["form-info", "4", "2", "6"])
    assert code == 0
    record = json.loads(out)
    assert record == {
        "command": "form-info",
        "content": "2",
        "definiteness": "positive_definite",
        "degenerate": False,
        "discriminant": "-92",
        "form": ["4", "2", "6"],
        "is_primitive": False,
        "is_reduced": True,
        "is_principal_class": False,
        "primitive_part": ["2", "1", "3"],
        "principal_form": ["1", "1", "6"],
        "reduced": ["2", "1", "3"],
        "reduction_transform": [["1", "0"], ["0", "1"]],
    }


def test_form_info_indefinite_nulls_reduction(capsys):
    """Reduction fields are null outside the positive definite case."""
    code, out, _ = run(capsys, ["form-info", "1", "0", "-2"])
    assert code == 0
    record = json.loads(out)
    assert record["definiteness"] == "indefinite"
    assert record["discriminant"] == "8"
    assert record["reduced"] is None
    assert record["is_reduced"] is None
    assert record["is_principal_class"] is None
    assert record["principal_form"] is None
    assert record["reduction_transform"] is None


def test_form_info_zero_form_fails(capsys):
    """The zero form is a usage error on stderr."""
    code, out, err = run(capsys, ["form-info", "0", "0", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["form-info", "2", "1", "3"],
    ["classify", "2", "1", "3"],
    ["verify", "1", "-1", "-1", "-2", "-1", "-1", "-1", "1", "2", "1", "3"],
], ids=lambda argv: argv[0])
def test_record_timing_opt_in(capsys, argv):
    """Wall-clock data appears only when requested, and it is the only field
    that --timing adds to a record."""
    _, out, _ = run(capsys, argv)
    plain = json.loads(out)
    assert "elapsed_ms" not in plain
    _, out, _ = run(capsys, [*argv, "--timing"])
    timed = json.loads(out)
    assert isinstance(timed.pop("elapsed_ms"), float)
    assert timed == plain


# one accepted call of each subcommand, with the type of its output
COMMAND_OUTPUTS = [
    (["form-info", "4", "2", "6"], dict, 0),
    (["classify", "1", "3", "1", "--box", "0", "--strict"], dict, 3),
    (["curve", "1", "3", "1", "--samples", "5"], list, 0),
    (["verify", "1", "0", "0", "1", "1", "0", "0", "1", "1", "0", "1"], dict, 1),
    (["catalog", "--dmin", "-30", "--dmax", "-20"], Iterator, 0),
]


@pytest.mark.parametrize("argv, kind, status", COMMAND_OUTPUTS)
def test_commands_return_output_and_write_nothing(capsys, argv, kind, status):
    """A command computes and returns (output, exit status); only main writes.
    Its output, written by main, is the command's stdout."""
    args = cli.build_parser().parse_args(argv)
    output, code = args.func(args)
    assert isinstance(output, kind) and code == status
    if kind is dict:
        lines = [json.dumps(_decimal(output), sort_keys=True) + "\n"]
    else:
        lines = list(output)
    assert capsys.readouterr() == ("", "")
    assert run(capsys, argv) == (status, "".join(lines), "")


def test_library_value_errors_exit_two(capsys, monkeypatch):
    """main turns a ValueError raised inside a command's library call into
    exit 2 with its text on stderr and nothing on stdout."""
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "full_classification", boom)
    monkeypatch.setattr(cli, "curve_sample", boom)
    for argv in (["classify", "2", "1", "3"], ["curve", "2", "1", "3"]):
        assert run(capsys, argv) == (2, "", "error: boom\n")


def test_classify_matches_library(capsys):
    """The classify record is a plain serialization of full_classification."""
    code, out, _ = run(capsys, ["classify", "2", "1", "3"])
    assert code == 0
    record = json.loads(out)
    report = full_classification(Form(2, 1, 3))
    assert record["plus_decision"] == report.plus_decision.value
    assert record["minus_decision"] == report.minus_decision.value
    assert record["plus_witness"] is None is report.plus_params
    quad = report.minus_quadruple
    assert record["minus_witness"] == [str(v) for v in (quad.a, quad.b, quad.c, quad.d)]
    assert record["order3"] == "order-3"
    assert record["discriminant"] == "-23"


def test_classify_plus_witness_fields(capsys):
    """Plus parameters serialize with their represented divisor r."""
    _, out, _ = run(capsys, ["classify", "4", "2", "6"])
    record = json.loads(out)
    assert record["plus_witness"] == {
        "m": "2",
        "k": "1",
        "n": "3",
        "p": "-1",
        "q": "0",
        "r": "2",
    }
    assert record["minus_witness"] is None
    assert record["order3"] is None


def test_classify_strict_exit_code(capsys):
    """A bounded outcome under --strict exits 3; without it, 0."""
    code, out, _ = run(capsys, ["classify", "1", "3", "1", "--box", "0", "--strict"])
    assert code == 3
    assert json.loads(out)["minus_decision"] == "bounded"
    code, _, _ = run(capsys, ["classify", "1", "3", "1", "--box", "0"])
    assert code == 0


def test_classify_degenerate_fails(capsys):
    """Degenerate forms cannot be classified."""
    code, _, err = run(capsys, ["classify", "1", "2", "1"])
    assert code == 2
    assert "error" in err


def test_curve_csv(capsys):
    """Header, half-open theta grid, and the exact theta = 0 row."""
    code, out, _ = run(capsys, ["curve", "4", "2", "6", "--samples", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,a,b,c,d"
    assert len(lines) == 5
    assert lines[1] == "0,2,-2.5,1,0"
    thetas = [float(line.split(",")[0]) for line in lines[1:]]
    step = 2 * math.pi / 4
    for i, theta in enumerate(thetas):
        assert abs(theta - i * step) < 1e-9


def test_curve_theta_window(capsys):
    """Explicit window: theta_min + i (theta_max - theta_min) / samples."""
    _, out, _ = run(
        capsys,
        ["curve", "4", "2", "6", "--samples", "4", "--theta-min", "1.0", "--theta-max", "3.0"],
    )
    thetas = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert thetas == [1.0, 1.5, 2.0, 2.5]


def test_curve_negative_theta_in_exponent_notation(capsys):
    """In `--theta-min -1e-3` argparse takes `-1e-3` for an option; the `=`
    form that the help states passes the value."""
    code, out, err = run(capsys, ["curve", "1", "0", "1", "--theta-min=-1e-3"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[0] == "-0.001"


def test_curve_hyperbolic_comment(capsys):
    """Indefinite curves carry the hyperbolic comment line and 2.0 window."""
    code, out, _ = run(capsys, ["curve", "1", "3", "1", "--samples", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# hyperbolic parametrization: s = sinh, c = cosh"
    assert lines[1] == "theta,a,b,c,d"
    assert lines[2] == "0,1,8,3,0"
    assert float(lines[3].split(",")[0]) == 1.0


def test_curve_minus_branch(capsys):
    """The minus branch negates the theta = 0 row."""
    _, out, _ = run(capsys, ["curve", "4", "2", "6", "--samples", "1", "--branch", "minus"])
    assert out.strip().split("\n")[1] == "0,-2,2.5,-1,-0"


def test_curve_rejects_zero_sides(capsys):
    """m n = 0, a negative side, a degenerate form, no samples or too many,
    coefficients beyond floating point (also (1, 0, 1) in a basis with
    201-digit entries, whose 401-digit m has no float square root) or a
    non-finite theta window exit 2."""
    code, _, err = run(capsys, ["curve", "0", "1", "5"])
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, ["curve", "1", "2", "1"])
    assert code == 2
    huge = str(10**400)
    for argv in (["-1", "0", "-3"], ["2", "1", "-3"], ["4", "2", "6", "--samples", "-1"],
                 ["4", "2", "6", "--samples", str(cli.MAX_CURVE_SAMPLES + 1)],
                 ["1", "0", huge], ["1", huge, "1"], ["1", str(10**300), "1"],
                 ["1", "0", "1", "--theta-max", "nan"], ["1", "0", "1", "--theta-max", "inf"],
                 ["1", "0", "1", "--theta-min=-inf"],
                 ["1", "0", "1", "--theta-min", "1e308", "--theta-max=-1e308"],
                 ["1", "3", "1", "--theta-min", "236", "--samples", "1"],
                 ["1", "3", "1", "--theta-min", "1000"]):
        code, out, err = run(capsys, ["curve", *argv])
        assert code == 2 and out == ""
        assert err.startswith("error:")
    far_basis = Form(1, 0, 1).transform(((10**200, 1), (10**200 - 1, 1)))
    code, out, err = run(capsys, ["curve", *map(str, far_basis.coefficients()), "--samples", "1"])
    assert (code, out) == (2, "")
    assert err == "error: the coefficients are too large for the floating-point witness curve\n"


def test_curve_far_windows(capsys):
    """A tiny phase or a window far out on a hyperbola gives finite points;
    only overflow exits 2."""
    for argv in ([str(10**20), str(2 * 10**20 + 1), str(10**20)],
                 ["1", "3", "1", "--theta-min", "12"],
                 ["1", "3", "1", "--theta-min", "9", "--theta-max", "12"],
                 ["1", "3", "1", "--theta-min", "235", "--samples", "1"]):
        code, out, err = run(capsys, ["curve", *argv])
        assert code == 0 and err == ""
        rows = [line for line in out.splitlines() if not line.startswith(("#", "theta"))]
        assert rows and all(map(math.isfinite, map(float, ",".join(rows).split(","))))


def test_verify_accepts_witness(capsys):
    """Entries are a1 then a2, row-major; the known minus-minus witness."""
    code, out, _ = run(
        capsys,
        ["verify", "1", "-1", "-1", "-2", "-1", "-1", "-1", "1", "2", "1", "3"],
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "verify",
        "commutative": True,
        "form": ["2", "1", "3"],
        "normed": True,
        "traceless": True,
        "type": "(-,-)",
    }


def test_verify_rejects_non_normed(capsys):
    """A failed check exits 1 with normed false and no type."""
    code, out, _ = run(
        capsys,
        ["verify", "1", "0", "0", "1", "1", "0", "0", "1", "1", "0", "1"],
    )
    assert code == 1
    record = json.loads(out)
    assert record["normed"] is False
    assert record["type"] is None


def test_usage_errors_exit_two(capsys):
    """argparse failures and an out-of-range --box keep the conventional exit code."""
    with pytest.raises(SystemExit) as info:
        main(["classify", "2", "1"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["curve", "4", "2", "6", "--branch", "sideways"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, ["classify", "1", "3", "1", "--box", "-5"])
    assert code == 2 and out == ""
    assert err.startswith("error:")
    # caps are checked before any search, so these return at once
    huge = str(10**12)
    code, out, err = run(capsys, ["classify", "1", "3", "1", "--box", huge])
    assert (code, out) == (2, "")
    assert err == f"error: --box must be at most {cli.MAX_SEARCH_ROWS}\n"
    code, out, err = run(capsys, ["catalog", "--dmin", "5", "--dmax", "5", "--box", huge])
    assert (code, out) == (2, "")
    assert err == f"error: --box must be at most {cli.MAX_CATALOG_BOX}\n"


def test_oversized_searches_exit_two(capsys, monkeypatch):
    """Positive definite forms whose minus-minus scan would solve more than
    MAX_SEARCH_ROWS rows, indefinite forms whose plus search would
    trial-divide their content beyond MAX_SEARCH_ROWS or solve more than
    MAX_SEARCH_ROWS + 1 rows over the content's divisors, and catalog
    windows beyond MAX_CATALOG_DISCRIMINANT, exit 2 before any search."""
    # the largest classify-big forms (amax about 330) stay accepted
    code, out, _ = run(capsys, ["classify", "100000", "50000", "100000"])
    assert code == 0 and json.loads(out)["minus_decision"] == "decided"
    # a content-1 form at the largest box, and the 240 divisors of 720720 at
    # the default box, stay accepted with their former bytes
    for argv, digest in ((["1", "3", "1", "--box", "1000000"],
                          "f6b1acb0d0091f4a51e36c400db49c74bea0f11e"),
                         (["720720", "720720", "-720720"],
                          "b1f5499044a388e0047ff89fb4b30b8b27c2b292")):
        code, out, _ = run(capsys, ["classify", *argv])
        assert code == 0 and hashlib.sha1(out.encode()).hexdigest() == digest
    # any search would now fail: both searches solve rows only through these
    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(Form, "represent", no_search)
    monkeypatch.setattr(classify, "_scan_quadruples", no_search)
    monkeypatch.setattr(cli, "_catalog_records", None)
    code, out, err = run(capsys, ["classify", "1", "2", "1"])
    assert (code, out) == (2, "")
    assert err == "error: classification requires a nondegenerate form\n"
    cap = cli.MAX_SEARCH_ROWS
    # (10^30, 0, 10^30) has amax = 10^15; (2.5e11, 1, 2.5e11 + 1) has
    # amax = 500000, one row over the cap
    for shape, rows in (((10**30, 0, 10**30), 2 * 10**15 + 1),
                        ((250_000_000_000, 1, 250_000_000_001), cap + 1)):
        code, out, err = run(capsys, ["classify", *map(str, shape)])
        assert (code, out) == (2, "")
        assert err == (f"error: the minus-minus search would solve {rows} rows, "
                       f"more than {cap}\n")
    # indefinite forms of content 10^30 and (cap + 1)^2, whose square roots
    # bound the plus search's divisor loop
    for content, root in ((10**30, 10**15), ((cap + 1) ** 2, cap + 1)):
        code, out, err = run(capsys, ["classify", str(content), "0", str(-content)])
        assert (code, out) == (2, "")
        assert err == (f"error: the plus search would trial-divide up to {root}, "
                       f"more than {cap}\n")
    # 240 divisors of 720720 times box + 1 rows each
    code, out, err = run(capsys, ["classify", "720720", "720720", "-720720",
                                  "--box", str(cap)])
    assert (code, out) == (2, "")
    assert err == (f"error: the plus search would solve {240 * (cap + 1)} rows, "
                   f"more than {cap + 1}\n")
    window_cap = cli.MAX_CATALOG_DISCRIMINANT
    message = (f"error: --dmin and --dmax must be at most {window_cap} "
               "in absolute value\n")
    for window in ((-10**9, -999_999_000), (-window_cap - 4, -3),
                   (window_cap, window_cap + 1)):
        code, out, err = run(capsys, ["catalog", "--dmin", str(window[0]),
                                      "--dmax", str(window[1])])
        assert (code, out, err) == (2, "", message)


def test_classify_divides_content_once(capsys, monkeypatch):
    """The budget check and the plus search share one trial division of the
    content."""
    divisors = classify._positive_divisors
    calls = []

    def counted(value):
        calls.append(value)
        return divisors(value)

    monkeypatch.setattr(classify, "_positive_divisors", counted)
    code, _, _ = run(capsys, ["classify", "720720", "720720", "-720720"])
    assert code == 0
    assert calls == [720720]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_catalog_jsonl_window(capsys):
    """Ascending deltas with the reduced-forms enumeration inside each."""
    code, out, _ = run(capsys, ["catalog", "--dmin", "-30", "--dmax", "-20"])
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["delta"] for r in records] == [
        "-28",
        "-27",
        "-24",
        "-24",
        "-23",
        "-23",
        "-23",
        "-20",
        "-20",
    ]
    by_form = {tuple(r["form"]): r for r in records}
    witness = by_form[("2", "1", "3")]
    assert witness["minus_witness"] == ["-1", "2", "1", "-1"]
    assert witness["plus_witness"] is None
    assert witness["order3"] == "order-3"


def test_catalog_deterministic_and_out_file(capsys, tmp_path):
    """Byte-identical output for repeated runs, on stdout and in --out."""
    args = ["catalog", "--dmin", "-30", "--dmax", "-20"]
    _, first, _ = run(capsys, args)
    _, second, _ = run(capsys, args)
    assert first == second
    out_path = tmp_path / "window.jsonl"
    code, stdout, _ = run(capsys, args + ["--out", str(out_path)])
    assert code == 0 and stdout == ""
    assert out_path.read_text() == first


def test_catalog_streams_records(monkeypatch):
    """Each record reaches stdout before the next one is computed, and each
    discriminant's records reach it before the next discriminant's forms are
    enumerated."""
    out = io.StringIO()
    events = []
    compute, enumerate_forms = cli._catalog_record, cli.reduced_forms

    def record(delta, shape, probes):
        events.append(("record", delta, out.getvalue().count("\n")))
        return compute(delta, shape, probes)

    def forms(delta):
        events.append(("forms", delta, out.getvalue().count("\n")))
        return enumerate_forms(delta)

    monkeypatch.setattr(cli, "_catalog_record", record)
    monkeypatch.setattr(cli, "reduced_forms", forms)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["catalog", "--dmin", "-30", "--dmax", "-20"]) == 0
    expected, written = [], 0
    for delta, count in ((-28, 1), (-27, 1), (-24, 2), (-23, 3), (-20, 2)):
        expected.append(("forms", delta, written))
        expected.extend(("record", delta, written + i) for i in range(count))
        written += count
    assert events == expected
    assert out.getvalue().count("\n") == written


# one probe per orbit; the two windows have 24 and 16 witness-free records
@pytest.mark.parametrize("window, probe_count", [
    (["--dmin", "-60", "--dmax", "-3"], 19),
    (["--dmin", "5", "--dmax", "8", "--box", "6"], 7),
])
def test_catalog_probes_only_without_certificate(capsys, monkeypatch, window, probe_count):
    """A definite record with a witness is closed by proof and skips the
    probe; every other record takes the fields of one probe per box-symmetry
    orbit (min(m, n), |k|, max(m, n)) of its discriminant, run on the orbit's
    first form, and they equal a direct probe of the record's own form."""
    probed = []
    probe = cli.semigroup_probe

    def counting(form, *args, **kwargs):
        probed.append(form.coefficients())
        return probe(form, *args, **kwargs)

    monkeypatch.setattr(cli, "semigroup_probe", counting)
    code, out, _ = run(capsys, ["catalog", *window])
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    expected, orbits = [], set()
    for r in records:
        certified = r["plus_witness"] is not None or r["minus_witness"] is not None
        if r["definiteness"] == "positive_definite" and certified:
            assert r["semigroup_decided"] is True and r["semigroup_closed"] is True
            assert r["semigroup_counterexamples"] == "0"
            continue
        m, k, n = (int(v) for v in r["form"])
        orbit = (r["delta"], min(m, n), abs(k), max(m, n))
        if orbit not in orbits:
            orbits.add(orbit)
            expected.append((m, k, n))
        direct = probe(Form(m, k, n))
        assert r["semigroup_decided"] is direct.decided
        assert r["semigroup_counterexamples"] == str(direct.counterexample_count)
        assert r["semigroup_closed"] == (
            direct.counterexample_count == 0 if direct.decided else None)
    assert probed == expected
    assert len(probed) == probe_count


def test_catalog_classifies_each_witness_free_orbit_once(monkeypatch):
    """A witness-free orbit shares its whole record tail, so its twins skip
    full_classification: the -400..-3 catalog classifies 808 of its 1,108
    forms, and each record equals the one its form gets alone, with a fresh
    orbit dict."""
    calls = 0
    classify_form = cli.full_classification

    def counting(form, *args, **kwargs):
        nonlocal calls
        calls += 1
        return classify_form(form, *args, **kwargs)

    monkeypatch.setattr(cli, "full_classification", counting)
    records = list(cli._catalog_records(-400, -3, 12))
    assert (calls, len(records)) == (808, 1108)
    for record in records:
        form = Form(*(int(c) for c in record["form"]))
        assert record == cli._catalog_record(int(record["delta"]), form, {})


@given(st.tuples(*[st.integers(-10**6, 10**6)] * 4))
def test_witness_bijections_map_onto_the_orbit(entries):
    """(a, b, c, d) -> (-a, -b, c, d) and (a, b, c, d) -> (c, d, a, b) take a
    minus-minus witness of (m, k, n) to one of (m, -k, n) and of (n, k, m),
    the bijections behind the orbit sharing of _catalog_record."""
    a, b, c, d = entries
    m, k, n = Quadruple(a, b, c, d).form().coefficients()
    assert Quadruple(-a, -b, c, d).form() == Form(m, -k, n)
    assert Quadruple(c, d, a, b).form() == Form(n, k, m)


def test_catalog_csv_schema(capsys):
    """The CSV header pins the flattened column set."""
    code, out, _ = run(capsys, ["catalog", "--dmin", "-23", "--dmax", "-23", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "delta,m,k,n,definiteness,plus_decision,plus_r,plus_p,plus_q,"
        "minus_decision,minus_a,minus_b,minus_c,minus_d,order3,"
        "semigroup_decided,semigroup_closed"
    )
    assert len(lines) == 4
    assert lines[1].startswith("-23,1,1,6,positive_definite,decided,1,-1,0,decided,")


def test_catalog_empty_window(capsys):
    """A window with no discriminants emits nothing and succeeds."""
    code, out, _ = run(capsys, ["catalog", "--dmin", "-30", "--dmax", "-29"])
    assert code == 0
    assert out == ""


def test_catalog_rejects_mixed_window(capsys):
    """Ranges crossing zero, reversed ranges and a --box below 1, on a
    positive or a negative window, are usage errors."""
    for window in (["--dmin", "-5", "--dmax", "5"], ["--dmin", "-3", "--dmax", "-4"],
                   ["--dmin", "5", "--dmax", "8", "--box", "0"],
                   ["--dmin", "-4", "--dmax", "-3", "--box", "0"],
                   ["--dmin", "-4", "--dmax", "-3", "--box", "-7"]):
        code, out, err = run(capsys, ["catalog", *window])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
    assert err == "error: --box must be at least 1\n"


def test_catalog_positive_window(capsys):
    """Indefinite windows enumerate primitive forms inside the box."""
    code, out, _ = run(capsys, ["catalog", "--dmin", "5", "--dmax", "8", "--box", "6"])
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert records
    assert all(r["definiteness"] == "indefinite" for r in records)
    deltas = [int(r["delta"]) for r in records]
    assert deltas == sorted(deltas)
    for r in records:
        m, k, n = (int(v) for v in r["form"])
        assert k * k - 4 * m * n == int(r["delta"])
        assert 1 <= m <= 6 and abs(n) <= 6
        assert math.gcd(math.gcd(m, k), n) == 1


def positive_delta_forms_oracle(delta: int, box: int) -> list[tuple[int, int, int]]:
    """The cell scan that _positive_delta_forms replaced: an exact square
    root per (m, n) cell of the box, then a set and a sort."""
    found: set[tuple[int, int, int]] = set()
    for m in range(1, box + 1):
        for n in range(-box, box + 1):
            root = exact_sqrt(delta + 4 * m * n)
            if root is None:
                continue
            for k in {root, -root}:
                if gcd(gcd(m, k), n) == 1:
                    found.add((m, k, n))
    return sorted(found)


def test_positive_delta_forms_match_oracle():
    """Solving for n yields the cell scan's forms in its order, on every
    valid delta in 1..200 (squares and k = 0 rows included) and five boxes."""
    assert (1, 0, -2) in positive_delta_forms_oracle(8, 2)
    for delta in range(1, 201):
        if delta % 4 not in (0, 1):
            continue
        for box in (1, 2, 3, 6, 12):
            solved = [f.coefficients() for f in cli._positive_delta_forms(delta, box)]
            assert solved == positive_delta_forms_oracle(delta, box), (delta, box)


def test_catalog_out_missing_directory(capsys, tmp_path):
    """An unwritable --out exits 4 and creates nothing."""
    target = tmp_path / "missing" / "window.jsonl"
    code, out, err = run(capsys, ["catalog", "--dmin", "-23", "--dmax", "-23",
                                  "--out", str(target)])
    assert code == 4 and out == ""
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_catalog_out_failed_replace_keeps_target(capsys, monkeypatch, tmp_path):
    """A failure while replacing --out leaves the old file and no temporary."""
    target = tmp_path / "window.jsonl"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, _, err = run(capsys, ["catalog", "--dmin", "-23", "--dmax", "-23",
                                "--out", str(target)])
    assert code == 4 and "replace refused" in err
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_catalog_out_streams_lines(capsys, tmp_path):
    """--out writes each line as it is computed: the traced allocation peak
    stays below half of the file it writes (the joined text alone would
    exceed it)."""
    target = tmp_path / "window.jsonl"
    # a first run leaves lazy imports and one-time allocations out of the trace
    run(capsys, ["catalog", "--dmin", "-23", "--dmax", "-23", "--out", str(target)])
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, ["catalog", "--dmin", "-400", "--dmax", "-3",
                                  "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = target.stat().st_size
    assert size > 300_000
    assert peak < size / 2, (peak, size)


def test_catalog_out_error_mid_window_keeps_target(monkeypatch, tmp_path):
    """An exception raised while the window is still being computed leaves
    the old file and no temporary."""
    target = tmp_path / "window.jsonl"
    target.write_text("old\n")
    compute, calls = cli._catalog_record, []

    def record(delta, shape, probes):
        calls.append(delta)
        if len(calls) == 5:
            raise RuntimeError("record failed")
        return compute(delta, shape, probes)

    monkeypatch.setattr(cli, "_catalog_record", record)
    with pytest.raises(RuntimeError, match="record failed"):
        main(["catalog", "--dmin", "-60", "--dmax", "-3", "--out", str(target)])
    assert len(calls) == 5
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


# exact stdout covering every record shape (form, matrix, plus parameters,
# quadruple, bools, nulls), so any change to serialization shows byte for byte
STDOUT_PINS = {
    ("classify", "4", "2", "6"):
        '{"command": "classify", "definiteness": "positive_definite", '
        '"discriminant": "-92", "form": ["4", "2", "6"], "minus_decision": "decided", '
        '"minus_witness": null, "order3": null, "plus_decision": "decided", '
        '"plus_witness": {"k": "1", "m": "2", "n": "3", "p": "-1", "q": "0", "r": "2"}}\n',
    ("classify", "2", "1", "3"):
        '{"command": "classify", "definiteness": "positive_definite", '
        '"discriminant": "-23", "form": ["2", "1", "3"], "minus_decision": "decided", '
        '"minus_witness": ["-1", "2", "1", "-1"], "order3": "order-3", '
        '"plus_decision": "decided", "plus_witness": null}\n',
    ("form-info", "4", "2", "6"):
        '{"command": "form-info", "content": "2", "definiteness": "positive_definite", '
        '"degenerate": false, "discriminant": "-92", "form": ["4", "2", "6"], '
        '"is_primitive": false, "is_principal_class": false, "is_reduced": true, '
        '"primitive_part": ["2", "1", "3"], "principal_form": ["1", "1", "6"], '
        '"reduced": ["2", "1", "3"], "reduction_transform": [["1", "0"], ["0", "1"]]}\n',
    ("verify", "1", "-1", "-1", "-2", "-1", "-1", "-1", "1", "2", "1", "3"):
        '{"command": "verify", "commutative": true, "form": ["2", "1", "3"], '
        '"normed": true, "traceless": true, "type": "(-,-)"}\n',
}


@pytest.mark.parametrize("argv", sorted(STDOUT_PINS))
def test_record_stdout_pinned(capsys, argv):
    """Single-record commands print exactly the recorded bytes."""
    _, out, _ = run(capsys, list(argv))
    assert out == STDOUT_PINS[argv]


CATALOG_SHA1 = {
    ("--dmin", "-60", "--dmax", "-3"): "c5129fbcbcaf27579f7e2921041255e348690289",
    ("--dmin", "-400", "--dmax", "-3"): "3f5d134a69cb8cec57e8e3eca3e1c06e656867d2",
    ("--dmin", "5", "--dmax", "24", "--box", "8"): "f402ed64160912ea57bdeb27528b916b2dc46c65",
    ("--dmin", "5", "--dmax", "5", "--box", "3"): "ffd4815dd831c92a6fa14fe67c33a4bae7aa41e7",
    ("--dmin", "5", "--dmax", "8", "--box", "6"): "73ef9cb5a2b387f8dd84a2d3b2e8f7ce3346e616",
    ("--dmin", "-100", "--dmax", "-3", "--format", "csv"):
        "49b67361fc6ed8df79c7b0997569146629382523",
    ("--dmin", "5", "--dmax", "12", "--box", "4", "--format", "csv"):
        "5375533ea2eac8110bf8a6bff7c8869c6e613aa6",
}


@pytest.mark.parametrize("window", sorted(CATALOG_SHA1))
def test_catalog_bytes_pinned(capsys, window):
    """JSON-lines and CSV catalog windows keep their recorded SHA-1."""
    code, out, _ = run(capsys, ["catalog", *window])
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == CATALOG_SHA1[window]


@pytest.mark.parametrize("shards, window", [
    ((("-400", "-201"), ("-200", "-3")), ("--dmin", "-400", "--dmax", "-3")),
    ((("5", "13"), ("14", "24")), ("--dmin", "5", "--dmax", "24", "--box", "8")),
])
def test_catalog_shards_concatenate(capsys, shards, window):
    """Adjacent sub-windows, run separately, concatenate to the full
    window's pinned JSON-lines bytes."""
    out = ""
    for dmin, dmax in shards:
        code, shard, _ = run(capsys, ["catalog", "--dmin", dmin, "--dmax", dmax,
                                      *window[4:]])
        assert code == 0 and shard
        out += shard
    assert hashlib.sha1(out.encode()).hexdigest() == CATALOG_SHA1[window]


WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def workflow_digest_pins() -> list[tuple[list[str], str]]:
    """(commands, SHA-1) of each CI step line `digest=$(... | sha1sum ...)`,
    with the digest that the step's next line tests; a `(a; b)` group gives
    the commands whose outputs concatenate."""
    lines = WORKFLOW.read_text().splitlines()
    pins = []
    for line, check in zip(lines, lines[1:]):
        found = re.search(r"digest=\$\((.*)\| sha1sum", line)
        if found:
            commands = [c.strip(" ()") for c in found.group(1).split(";")]
            digest = re.fullmatch(r'\s*test "\$digest" = ([0-9a-f]{40})', check)
            pins.append((commands, digest.group(1)))
    return pins


def test_workflow_digests_match_in_process_output(capsys):
    """Every catalog, classify, form-info and verify digest that CI pins
    equals the SHA-1 of the same commands run in process, so CI and these
    tests cannot drift."""
    pins = workflow_digest_pins()
    assert len(pins) >= 9
    assert {shlex.split(c)[1] for commands, _ in pins for c in commands} == {
        "catalog", "classify", "form-info", "verify"}
    for commands, digest in pins:
        out = ""
        for command in commands:
            program, *argv = shlex.split(command)
            assert program == "normed-forms"
            code, text, _ = run(capsys, argv)
            assert code == 0
            out += text
        assert hashlib.sha1(out.encode()).hexdigest() == digest, commands


def test_decimal_renders_only_ints():
    """Ints at any depth become decimal strings; nothing else changes."""
    value = {"b": True, "f": False, "none": None, "s": "x", "big": -10**40,
             "nested": ((1, -2), [3, {"k": 0}])}
    assert _decimal(value) == {
        "b": True, "f": False, "none": None, "s": "x",
        "big": "-10000000000000000000000000000000000000000",
        "nested": [["1", "-2"], ["3", {"k": "0"}]],
    }


def module_command(*argv):
    """The argv and environment of python -m normed_forms on this package."""
    src = os.path.dirname(os.path.dirname(normed_forms.__file__))
    return [sys.executable, "-m", "normed_forms", *argv], {**os.environ, "PYTHONPATH": src}


def run_module(*argv):
    """Run python -m normed_forms in a fresh interpreter; (exit code, stdout)."""
    command, env = module_command(*argv)
    done = subprocess.run(command, capture_output=True, env=env, timeout=120)
    return done.returncode, done.stdout


def test_catalog_into_closed_pipe_exits_four():
    """A reader that leaves after one line, as in `catalog ... | head -1`, is
    an I/O failure: exit 4 and no traceback.  The window's 1108 records are
    far more than a pipe buffers, so the writer meets the closed pipe."""
    command, env = module_command("catalog", "--dmin", "-400", "--dmax", "-3")
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as process:
        first = json.loads(process.stdout.readline())
        process.stdout.close()
        stderr = process.stderr.read()
        code = process.wait(timeout=120)
    assert first["delta"] == "-400"
    assert code == 4
    assert stderr == b""


def test_module_entry_point_exit_codes():
    """Bytes and exit codes survive __main__'s sys.exit in a real process."""
    window = ("--dmin", "-60", "--dmax", "-3")
    code, out = run_module("catalog", *window)
    assert code == 0
    assert hashlib.sha1(out).hexdigest() == CATALOG_SHA1[window]
    code, out = run_module("verify", "1", "0", "0", "1", "1", "0", "0", "1", "1", "0", "1")
    assert code == 1 and json.loads(out)["normed"] is False
    code, out = run_module("classify", "1", "3", "1", "--box", "0", "--strict")
    assert code == 3 and json.loads(out)["command"] == "classify"

"""Tests for the command line interface: records, exit codes, determinism."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import normed_forms
from normed_forms import Form, PlusParams, Quadruple, cli, full_classification
from normed_forms.cli import _decimal, main


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


def test_form_info_timing_opt_in(capsys):
    """Wall-clock data appears only when requested."""
    _, out, _ = run(capsys, ["form-info", "2", "1", "3"])
    assert "elapsed_ms" not in json.loads(out)
    _, out, _ = run(capsys, ["form-info", "2", "1", "3", "--timing"])
    assert "elapsed_ms" in json.loads(out)


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
    coefficients beyond floating point or a non-finite theta window exit 2."""
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
                 ["1", "0", "1", "--theta-min", "1e308", "--theta-max=-1e308"]):
        code, out, err = run(capsys, ["curve", *argv])
        assert code == 2 and out == ""
        assert err.startswith("error:")


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
    assert err == f"error: --box must be at most {cli.MAX_CLASSIFY_BOX}\n"
    code, out, err = run(capsys, ["catalog", "--dmin", "5", "--dmax", "5", "--box", huge])
    assert (code, out) == (2, "")
    assert err == f"error: --box must be at most {cli.MAX_CATALOG_BOX}\n"


def test_oversized_searches_exit_two(capsys, monkeypatch):
    """Positive definite forms whose minus-minus scan would solve more than
    MAX_CLASSIFY_BOX rows, indefinite forms whose plus search would
    trial-divide their content beyond MAX_CLASSIFY_BOX, and catalog windows
    beyond MAX_CATALOG_DISCRIMINANT, exit 2 before any search."""
    # the largest classify-big forms (amax about 330) stay accepted
    code, out, _ = run(capsys, ["classify", "100000", "50000", "100000"])
    assert code == 0 and json.loads(out)["minus_decision"] == "decided"
    # any search would now fail
    monkeypatch.setattr(cli, "full_classification", None)
    monkeypatch.setattr(cli, "_catalog_records", None)
    cap = cli.MAX_CLASSIFY_BOX
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
    window_cap = cli.MAX_CATALOG_DISCRIMINANT
    message = (f"error: --dmin and --dmax must be at most {window_cap} "
               "in absolute value\n")
    for window in ((-10**9, -999_999_000), (-window_cap - 4, -3),
                   (window_cap, window_cap + 1)):
        code, out, err = run(capsys, ["catalog", "--dmin", str(window[0]),
                                      "--dmax", str(window[1])])
        assert (code, out, err) == (2, "", message)


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
    """Ranges crossing zero are a usage error."""
    code, _, err = run(capsys, ["catalog", "--dmin", "-5", "--dmax", "5"])
    assert code == 2
    assert "error" in err


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

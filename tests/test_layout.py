"""Guards on the package layout: exports, the exact/float split, the demos."""

import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import normed_forms
import normed_forms.classify
import normed_forms.cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# stdout SHA-1 of the exact demos; witness_curves prints floats, so it is
# only required to run cleanly
DEMO_SHA1 = {
    "class_group_order3": "5fd9cd51340392c018fee06fa35294625dd1d997",
    "classify_small_forms": "6d5e4c5c4c2b0ee022132fcd41c75dba9045e4b0",
    "composition_identities": "06593e36f31077a3ca81e48db068fb534319bce1",
    "witness_curves": None,
}


def test_every_export_resolves_once():
    names = normed_forms.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(normed_forms, name), name


def test_test_only_helper_is_not_exported():
    assert "anchored_match_plus" not in normed_forms.__all__
    assert not hasattr(normed_forms, "anchored_match_plus")


def test_classify_is_exact():
    namespace = vars(normed_forms.classify)
    assert not any(isinstance(v, types.ModuleType) and v.__name__ == "math"
                   for v in namespace.values())
    assert not [name for name in namespace if name.startswith("curve_")]
    for name in ("CurvePoint", "EmbeddingMatrix", "embedding_to_quadruple"):
        assert name not in namespace


def test_cli_uses_no_private_classify_names():
    """The CLI adapts classify's public interface; search costs stay there."""
    private = [name for name, value in vars(normed_forms.cli).items()
               if name.startswith("_")
               and getattr(value, "__module__", None) == "normed_forms.classify"]
    assert private == []


def test_curve_names_still_exported():
    for name in ("CurvePoint", "EmbeddingMatrix", "curve_embedding", "curve_phase",
                 "curve_quadruple", "curve_sample", "embedding_to_quadruple"):
        assert getattr(normed_forms, name).__module__ == "normed_forms.curve"


@pytest.mark.parametrize("demo", sorted(DEMO_SHA1))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    if DEMO_SHA1[demo] is not None:
        assert hashlib.sha1(proc.stdout).hexdigest() == DEMO_SHA1[demo]

"""Guards on the package layout: exports, the exact/float split, the demos."""

import hashlib
import importlib
import inspect
import os
import re
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


def test_each_public_name_is_stated_once():
    """Each library module lists its own public names; the package adds none."""
    union = []
    for name in ("forms", "pairings", "trigroup", "matembed", "lattices", "classify", "curve"):
        module = importlib.import_module(f"normed_forms.{name}")
        for export in module.__all__:
            obj = getattr(module, export)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (name, export)
            assert getattr(normed_forms, export) is obj, (name, export)
        union += module.__all__
    assert len(union) == len(set(union))
    assert sorted(normed_forms.__all__) == sorted(union)


def test_test_only_helper_is_not_exported():
    assert "anchored_match_plus" not in normed_forms.__all__
    assert not hasattr(normed_forms, "anchored_match_plus")


def test_classify_is_exact():
    namespace = vars(normed_forms.classify)
    assert not any(isinstance(v, types.ModuleType) and v.__name__ == "math"
                   for v in namespace.values())
    assert not [name for name, value in namespace.items()
                if value is normed_forms.curve
                or getattr(value, "__module__", None) == "normed_forms.curve"]


def test_cli_uses_no_private_classify_names():
    """The CLI adapts classify's public interface; search costs stay there."""
    private = [name for name, value in vars(normed_forms.cli).items()
               if name.startswith("_")
               and getattr(value, "__module__", None) == "normed_forms.classify"]
    assert private == []


def test_curve_names_still_exported():
    """A point has one public route: curve_sample, returning CurvePoints."""
    for name in ("CurvePoint", "curve_phase", "curve_sample"):
        assert getattr(normed_forms, name).__module__ == "normed_forms.curve"
    for name in ("EmbeddingMatrix", "curve_embedding", "embedding_to_quadruple"):
        assert not hasattr(normed_forms, name)
        assert not hasattr(normed_forms.curve, name)


def test_readme_python_examples_run():
    """Every python block of README.md runs, so no example names a removed API."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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

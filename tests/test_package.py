"""The package's public names: what a bare import loads, and what each name is."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import socperf

SUBMODULES = ("dataset", "errors", "profiles", "roofline", "sim")


def run_fresh(code: str):
    """The JSON that `code` prints, run in a fresh interpreter."""
    src = str(Path(socperf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_bare_import_loads_no_simulator():
    loaded = run_fresh(
        "import json, sys, socperf\n"
        "socperf.builtin_dataset()\n"
        "before = sorted(m for m in sys.modules if m.startswith('socperf'))\n"
        "socperf.simulate\n"
        "print(json.dumps([before, 'socperf.sim' in sys.modules]))\n")
    before, sim_after = loaded
    for module in ("sim", "calibrate", "roofline", "emit", "cli"):
        assert f"socperf.{module}" not in before
    assert sim_after


def test_importing_emit_loads_no_simulator():
    loaded = run_fresh(
        "import json, sys, socperf.emit\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('socperf'))))\n")
    assert "socperf.sim" not in loaded and "socperf.dataset" not in loaded


def test_each_public_name_is_its_defining_modules_object():
    for name in socperf.__all__:
        home = importlib.import_module(f"socperf.{socperf._HOME[name]}")
        assert getattr(socperf, name) is getattr(home, name), name
        assert vars(socperf)[name] is getattr(home, name), name
    for module in SUBMODULES:
        assert getattr(socperf, module) is sys.modules[f"socperf.{module}"]
    assert set(socperf.__all__) | set(SUBMODULES) <= set(dir(socperf))
    names = {}
    exec("from socperf import *", names)
    assert all(names[name] is getattr(socperf, name) for name in socperf.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        socperf.nope


@pytest.mark.parametrize("first_import", [
    "import socperf.cli\nC = socperf.calibrate",
    "from socperf.calibrate import calibrate as C",
    "import socperf.calibrate as C",
], ids=["import_cli", "from_calibrate_import", "import_calibrate_as"])
def test_calibrate_stays_the_function_however_its_module_loads(first_import):
    is_function = run_fresh(
        f"{first_import}\nimport json, socperf, types\n"
        "print(json.dumps([type(socperf.calibrate) is types.FunctionType,\n"
        "                  C is socperf.calibrate]))\n")
    assert is_function == [True, True]

"""Every name in an export table resolves on its module, and the package re-exports each."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigenreflect

LIBRARY = ("poly", "completion", "gqsp", "circuit", "sim", "oracle", "testgen")
MODULES = ["eigenreflect"] + [f"eigenreflect.{name}" for name in (*LIBRARY, "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", LIBRARY)
def test_package_reexports_the_module_objects(name):
    module = importlib.import_module(f"eigenreflect.{name}")
    absent = object()
    stale = [n for n in module.__all__ if getattr(eigenreflect, n, absent) is not getattr(module, n)]
    assert stale == []


def test_package_exports_exactly_the_library_modules():
    modules = [importlib.import_module(f"eigenreflect.{name}") for name in LIBRARY]
    assert eigenreflect.__all__ == [n for m in modules for n in m.__all__]


def test_import_loads_no_cli():
    package_root = str(Path(eigenreflect.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys, eigenreflect\n"
        "print([m for m in ('eigenreflect.cli', 'argparse') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

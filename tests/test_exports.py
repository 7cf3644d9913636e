"""Every name in an export table resolves on its module."""

import importlib

import pytest

MODULES = ["eigenreflect"] + [
    f"eigenreflect.{name}"
    for name in ("poly", "completion", "gqsp", "circuit", "sim", "oracle", "testgen", "cli")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)

"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import riskflow

MODULES = ["riskflow"] + [
    f"riskflow.{info.name}" for info in pkgutil.iter_modules(riskflow.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    dangling = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert dangling == []


def test_every_module_is_checked():
    expected = {"riskflow.distributions", "riskflow.static_risk", "riskflow.dynamic_risk"}
    assert expected <= set(MODULES)

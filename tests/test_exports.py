"""Every name a ``dlpc`` module lists in ``__all__`` resolves on that module."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import dlpc

MODULES = sorted(m.name for m in pkgutil.walk_packages(dlpc.__path__, "dlpc."))


def test_walk_finds_the_driver_and_transport_modules():
    assert {"dlpc.devcomp", "dlpc.rpc", "dlpc.drivers.vqe", "dlpc.drivers.optimizers"} <= set(
        MODULES
    )


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

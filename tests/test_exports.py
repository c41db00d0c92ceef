"""Every name a radialpadic module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import radialpadic


def _modules():
    yield radialpadic
    for info in pkgutil.iter_modules(radialpadic.__path__, "radialpadic."):
        yield importlib.import_module(info.name)


EXPORTING = [m for m in _modules() if hasattr(m, "__all__")]


def test_exporting_modules_are_found():
    names = {m.__name__ for m in EXPORTING}
    assert names >= {"radialpadic", "radialpadic.harness", "radialpadic.scenario_io", "radialpadic.scenarios"}


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []

"""Every name a radialpadic module lists in ``__all__`` resolves."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_the_library_imports_only_the_standard_library():
    # a fresh interpreter without site-packages: a third-party import fails
    # there, and every module it holds came from the library's own imports
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import radialpadic\n"
        "for info in pkgutil.iter_modules(radialpadic.__path__, 'radialpadic.'):\n"
        "    importlib.import_module(info.name)\n"
        "print('\\n'.join(sys.modules))\n"
    )
    src = str(Path(radialpadic.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "radialpadic.scenario_io" in loaded
    foreign = [name for name in loaded
               if name != "__main__" and name.partition(".")[0] not in sys.stdlib_module_names
               and name.partition(".")[0] != "radialpadic"]
    assert foreign == []

"""The package surface: the top-level exports are the README's library sketch, and each resolves on first use."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinosc

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch():
    return re.search(r"## Library sketch\n.*?```python\n(.*?)```", README.read_text(), re.DOTALL)[1]


def test_top_level_exports_are_the_readme_sketch():
    imported = re.search(r"^from spinosc import (.*)$", _sketch(), re.MULTILINE)[1]
    assert spinosc.__all__ == [name.strip() for name in imported.split(",")]


def test_readme_sketch_runs_as_written():
    exec(compile(_sketch(), str(README), "exec"), {})


def test_every_name_in_a_module_all_resolves():
    for info in pkgutil.iter_modules(spinosc.__path__):
        module = importlib.import_module(f"spinosc.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"spinosc.{info.name}.__all__ names {missing}"


def test_each_export_is_the_object_its_module_defines():
    owners = {"ModelParams": "model", "block_spectrum": "spectral", "critical_coupling": "spectral", "eta": "metric",
              "thermo_point": "thermo"}
    assert sorted(owners) == sorted(spinosc.__all__)
    for name, owner in owners.items():
        assert getattr(spinosc, name) is getattr(importlib.import_module(f"spinosc.{owner}"), name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from spinosc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spinosc.__all__)


def test_an_unknown_name_raises_attribute_error_naming_it():
    for name in ("no_such_name", "_no_such_name"):
        with pytest.raises(AttributeError, match=f"module 'spinosc' has no attribute '{name}'"):
            getattr(spinosc, name)


# After a bare `import spinosc`: whether dir() lists every export, then whether the submodules
# that `import spinosc` loaded when its exports were eager still resolve as attributes.
BARE_IMPORT = """
import json, spinosc
listed = set(spinosc.__all__) <= set(dir(spinosc))
print(json.dumps([listed, spinosc.thermo.thermo_point.__module__, spinosc.metric.eta.__module__,
                  [getattr(spinosc, name).__name__ for name in ("model", "smallmat", "spectral")]]))
"""


def test_after_a_bare_import_dir_lists_the_exports_and_submodules_resolve():
    # A fresh interpreter, so that no submodule is loaded before the script asks for it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-S", "-c", BARE_IMPORT], env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0 and child.stderr == "", child.stderr
    assert json.loads(child.stdout) == [
        True, "spinosc.thermo", "spinosc.metric", ["spinosc.model", "spinosc.smallmat", "spinosc.spectral"]
    ]

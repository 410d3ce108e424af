"""The package surface: the top-level exports are the README's library sketch."""

import importlib
import pkgutil
import re
from pathlib import Path

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

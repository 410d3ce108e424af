"""numpy belongs to the matrix oracles: the production commands run, in a fresh interpreter, without it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Runs `python -m spinosc *argv` in this interpreter, output discarded, then
# prints its exit code and whether numpy was imported.
RUN = """
import contextlib, io, json, runpy, sys
sys.argv = ["spinosc", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("spinosc", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, "numpy" in sys.modules]))
"""

# Imports the CLI module only, then lists the spinosc modules loaded and whether numpy is.
IMPORT_CLI = """
import json, sys
import spinosc.cli
print(json.dumps([sorted(name for name in sys.modules if name.startswith("spinosc.")), "numpy" in sys.modules]))
"""


def _fresh(source, *argv):
    child = subprocess.run([sys.executable, "-c", source, *argv], capture_output=True, text=True, timeout=120)
    assert child.returncode == 0 and child.stderr == "", child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize(
    "argv,code",
    [
        (("spectrum", "--n", "0", "--mu", "1"), 0),
        (("thermo", "--n", "0", "--mu", "1"), 0),
        (("thermo", "--n", "0", "--mu", "2"), 3),
        (("sweep", "--subspaces", "0", "3", "--steps", "41"), 0),
        (("sweep", "--steps", "41", "--format", "json"), 0),
        (("fig", "--id", "3"), 0),
        (("fig", "--id", "1", "--format", "json"), 0),
        (("--help",), 0),
        (("sweep", "--bogus"), 2),
        (("sweep", "--tau", "-1"), 2),
    ],
)
def test_production_commands_never_import_numpy(argv, code):
    assert _fresh(RUN, *argv) == [code, False]


def test_verify_imports_numpy():
    assert _fresh(RUN, "verify", "--cutoff", "2") == [0, True]


def test_importing_the_cli_loads_every_spanned_module_without_numpy(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from trace_run import SPANNED

    modules, numpy_loaded = _fresh(IMPORT_CLI)
    assert {f"spinosc.{name.partition('.')[0]}" for name in SPANNED} <= set(modules)
    assert not numpy_loaded

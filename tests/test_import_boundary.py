"""No command imports numpy: each runs, in a fresh interpreter, without it.

Nor do the matrix oracles: the 2x2 ones (build_block, eig2, expm2, the metrics, the matrix-route
partition function), the truncated full space, which is a sparse map checked block by block, verify,
and perfbench's output checker, which holds sampled rows to that partition function.  The one
`import numpy` left in the package is inside smallmat.eigN, which only the tests' dense cross-check calls.

Nor do they load dataclasses or inspect, which cost every CLI child ~9 ms to import: records are NamedTuples.
Nor multiprocessing, concurrent or threading: a large sweep forks its workers with os.fork alone.
Nor pathlib, which loads urllib.parse and ipaddress too: emit opens a path with open() and names it with os.fspath.
Nor fractions, which loads decimal (~3 ms): verify's exact-root oracle imports it only when it runs.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinosc"

# The production path and the matrix oracles it must not load when it is imported.
PRODUCTION = ("model", "spectral", "thermo", "sweep")
ORACLES = {"metric", "smallmat", "fullspace", "verify"}

# The modules a production command must not load.
HEAVY = (
    "numpy", "dataclasses", "inspect", "multiprocessing", "concurrent", "threading", "pathlib", "fractions", "decimal"
)

# Runs `python -m spinosc *argv` in this interpreter, output discarded, then
# prints its exit code and which of HEAVY were imported.
RUN = f"""
import contextlib, io, json, runpy, sys
sys.argv = ["spinosc", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("spinosc", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, [name for name in {HEAVY!r} if name in sys.modules]]))
"""

# Imports the CLI module only, then lists the spinosc modules loaded and which of HEAVY are.
IMPORT_CLI = f"""
import json, sys
import spinosc.cli
spinosc_modules = sorted(name for name in sys.modules if name.startswith("spinosc."))
print(json.dumps([spinosc_modules, [name for name in {HEAVY!r} if name in sys.modules]]))
"""


def _fresh(source, *argv):
    # -S: no site module, so no .pth file in site-packages loads a module
    # before the source runs; this interpreter's sys.path finds the packages.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-S", "-c", source, *argv], env=env, capture_output=True, text=True, timeout=120
    )
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
        # More than one part of rows: forked workers, on a machine with more than one CPU.
        (("sweep", "--subspaces", "0", "1", "--steps", "8193"), 0),
    ],
)
def test_production_commands_never_import_numpy(argv, code):
    assert _fresh(RUN, *argv) == [code, []]


# Calls every 2x2 matrix oracle, the full space and verify, then perfbench's checker with the matrix route on unbroken and
# broken points, and prints the checker's problems and whether numpy was imported.
ORACLES_AND_CHECKER = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
from check import Problems, check_point
from workloads import Point
from spinosc import fullspace, metric, model, smallmat, thermo, verify
from spinosc.model import ModelParams

for mu, n in ((1.0, 0), (3.0, 0), (0.5, 4)):
    params = ModelParams(5.0, 1.0, mu)
    block = model.build_block(params, n)
    model.sigma_z_residual(params, n)
    smallmat.eig2(block)
    smallmat.expm2(block, -1.0)
    smallmat.frobenius(x for row in block for x in row)
    verify._max_abs(x for row in block for x in row)
    metric.eta(params, n)
    metric.eta_from_vectors(params, n)
    metric.verify_metric(params, n)
    thermo.partition_function(params, n, 1.0)
    fullspace.symmetry_report(params, 8)
    fullspace.block_decomposition_check(params, 8)
verify.run_checks(cutoff=2)
problems = Problems()
for n, mu, tau in ((0, 0.5, 1.0), (1, 1.0, 5.0), (0, 2.5, 2.0), (0, 3.0, 1.0), (2, 2.0, 0.7)):
    point = thermo.thermo_point(ModelParams(5.0, 1.0, mu), n, tau)
    check_point(problems, f"n={{n}} mu={{mu}} tau={{tau}}", Point(5.0, 1.0, n, mu, tau), point.region.value,
                point.z, point.free_energy, point.entropy, point.specific_heat, None, None, oracle=True)
print(json.dumps([list(problems), "numpy" in sys.modules]))
"""


def test_matrix_oracles_and_the_bench_checker_never_import_numpy():
    assert _fresh(ORACLES_AND_CHECKER) == [[], False]


# Runs `python -m spinosc *argv` with numpy blocked (`import numpy` raises ImportError) or imported first.
WITH_NUMPY = """
import runpy, sys
if sys.argv.pop(1) == "blocked":
    sys.modules["numpy"] = None
else:
    import numpy
sys.argv = ["spinosc", *sys.argv[1:]]
runpy.run_module("spinosc", run_name="__main__", alter_sys=True)
"""


def _output(numpy, *argv):
    """(exit code, stdout bytes, stderr bytes) of a fresh -S child; numpy is "blocked" or "imported"."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-S", "-c", WITH_NUMPY, numpy, *argv], env=env, capture_output=True,
                           timeout=120)
    return child.returncode, child.stdout, child.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--n", "2", "--mu", "1"),
        ("thermo", "--n", "0", "--mu", "3"),
        ("sweep", "--subspaces", "0", "3", "--steps", "41"),
        ("fig", "--id", "3"),
        ("verify", "--cutoff", "2"),
        ("verify", "--cutoff", "8"),
        ("verify", "--cutoff", "127"),
    ],
)
def test_every_command_prints_the_same_bytes_with_numpy_blocked(argv):
    blocked = _output("blocked", *argv)
    assert blocked[0] == 0 and blocked[2] == b"", blocked[2]
    assert blocked == _output("imported", *argv)


def test_the_only_numpy_import_in_the_package_is_inside_eigN():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.partition(".")[0] == "numpy" for module in modules):
                inside = [f.name for f in functions if node in ast.walk(f)]
                found.append((path.name, inside))
    assert found == [("smallmat.py", ["eigN"])]


def test_math_hypot_is_called_only_in_the_two_frobenius_norms():
    # The oracle modules share smallmat.frobenius; model keeps its own, since the production path loads no smallmat.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if getattr(node, "attr", None) == "hypot" or getattr(node, "id", None) == "hypot":  # math.hypot, hypot
                found.append((path.name, [f.name for f in functions if node in ast.walk(f)]))
    assert sorted(found) == [("model.py", ["sigma_z_residual"]), ("smallmat.py", ["frobenius"])]


def test_importing_the_cli_loads_every_spanned_module_without_numpy(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from trace_run import SPANNED

    modules, loaded = _fresh(IMPORT_CLI)
    assert {f"spinosc.{name.partition('.')[0]}" for name in SPANNED} <= set(modules)
    assert loaded == []


# Imports one module, then lists the spinosc submodules loaded.
IMPORT_ONLY = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("spinosc."))))
"""


def test_importing_the_package_loads_no_submodule():
    # The exports resolve on first use (the package's __getattr__), so a bare import runs only __init__.
    assert _fresh(IMPORT_ONLY, "spinosc") == []


def test_importing_the_sweep_loads_the_production_path_and_no_oracle():
    assert _fresh(IMPORT_ONLY, "spinosc.sweep") == [f"spinosc.{name}" for name in sorted(PRODUCTION)]


def _module_level_imports(tree):
    """The spinosc modules a module imports when it loads: every import outside a def or class body."""
    pending, names = list(tree.body), set()
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("spinosc.") for alias in node.names}
        elif isinstance(node, ast.ImportFrom):  # from .x import f, from . import x, and their absolute forms
            module = None if node.module in (None, "spinosc") else node.module.removeprefix("spinosc.")
            names |= {module} if module else {alias.name for alias in node.names}
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))
    return names


def test_production_modules_import_no_matrix_oracle_at_load():
    # The oracles may import the production path, never the reverse: thermo's partition_function
    # and _defined import metric and smallmat inside the function, when they run.
    for name in PRODUCTION:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")
        assert _module_level_imports(tree) & ORACLES == set(), name

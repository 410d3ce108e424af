"""What `spinosc verify` catches, measured on mutants of the package.

Each case edits one exact source text in a copy of the package under
tmp_path (the package under test is never edited), runs
`python -m spinosc ARGV verify --cutoff 8` on the copy in a child,
and asserts its kill: the exit code and the set of checks that FAIL.  A
change that lets a mutant survive, or changes which checks see it, fails
here; the table is the record of what each check is for.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import spinosc

SIGMA_Z = "sigma-z pseudo-hermiticity (blocks)"
SPECTRUM = "truncated spectrum matches block union"
FULL_SPACE = "full-space symmetries and PT image (grading, sigma-z, parity, H_pt - H)"
METRIC_ROUTES = "metric routes agree (eigenvectors vs closed)"
INTERTWINES = "metric intertwines block (unbroken)"
DUAL_ROUTE = "partition function dual route"


class Mutant(NamedTuple):
    file: str
    text: str
    replacement: str
    argv: tuple[str, ...]
    exit: int
    failing: frozenset[str]


_MU = ("fullspace.py", "+ params.mu * (np.kron(a, sigma_plus)", "+ params.mu * (1 + 1e-9) * (np.kron(a, sigma_plus)")
_ALPHA = ("fullspace.py", "0.5 * params.alpha * np.kron(eye_osc, sigma_z)",
          "0.5 * params.alpha * (1 + 1e-9) * np.kron(eye_osc, sigma_z)")
_BLOCK_COUPLING = ("model.py", "[-coupling, -0.5 * params.alpha", "[-coupling * (1 + 1e-9), -0.5 * params.alpha")
_DEFAULTS = ("--alpha", "5")
# The defaults times 2**-40, exactly.
_DEFAULTS_SCALED = ("--alpha", "4.547473508864641e-12", "--homega", "9.094947017729282e-13")

MUTANTS = {
    # sigma_y's spin swap without its sz_i sz_j signs turns mu into -mu in H_pt; ||H_pt - H|| keeps its norm.
    "pt-flip-without-signs": Mutant("fullspace.py", "(np.outer(sz, sz) * h[np.ix_(swap, swap)]).conj()",
                                    "h[np.ix_(swap, swap)].conj()", _DEFAULTS, 4, frozenset({FULL_SPACE})),
    # Near resonance mu_c(0) is 5e-6: only a full-space coupling in units of homega sees this one.
    "full-space-mu-near-resonance": Mutant(*_MU, ("--alpha", "1.00001"), 4, frozenset({FULL_SPACE})),
    "full-space-mu": Mutant(*_MU, _DEFAULTS, 4, frozenset({SPECTRUM, FULL_SPACE})),
    "full-space-alpha": Mutant(*_ALPHA, _DEFAULTS, 4, frozenset({SPECTRUM, FULL_SPACE})),
    # A fault in the code under test: the kernel's sqrt of a negative discriminant raises ValueError.
    # It is a verification failure (exit 4), not a usage error (exit 2).
    "phase-rule-levels-plus-one": Mutant("spectral.py", "(n + 1) * 2e-323), n + 1, math.inf",
                                         "(n + 1) * 2e-323), n + 2, math.inf", _DEFAULTS, 4,
                                         frozenset({METRIC_ROUTES, INTERTWINES, DUAL_ROUTE, SPECTRUM})),
    # The closed metric in each branch, against the eigenvector route and the intertwining.
    "eta-unbroken-off-sign": Mutant("metric.py", "off = -sign * 2.0 * coupling / d", "off = sign * 2.0 * coupling / d",
                                    _DEFAULTS, 4, frozenset({METRIC_ROUTES, INTERTWINES})),
    "eta-unbroken-diag": Mutant("metric.py", "diag = abs(params.delta) / d",
                                "diag = abs(params.delta) / d * (1 + 1e-9)",
                                _DEFAULTS, 4, frozenset({METRIC_ROUTES, INTERTWINES, DUAL_ROUTE})),
    "eta-broken-off": Mutant("metric.py", "off = -sign * abs(params.delta) / d",
                             "off = -sign * abs(params.delta) / d * (1 + 1e-9)",
                             _DEFAULTS, 4, frozenset({METRIC_ROUTES, INTERTWINES})),
    # eig2's vectors and second eigenvalue reach verify only through the eigenvector metric.
    "eig2-left-vector-at-lambda": Mutant("smallmat.py", "_null_vector(adj, np.conj(lam))", "_null_vector(adj, lam)",
                                         _DEFAULTS, 4, frozenset({METRIC_ROUTES})),
    "eig2-second-eigenvalue": Mutant("smallmat.py", "lam2 = det / lam1", "lam2 = det / lam1 * (1 + 1e-9)",
                                     _DEFAULTS, 4, frozenset({METRIC_ROUTES})),
    "eig2-second-row-sign": Mutant("smallmat.py", "v2 = np.array([lam - d, c]", "v2 = np.array([lam - d, -c]",
                                   _DEFAULTS, 4, frozenset({METRIC_ROUTES})),
    # The block's lower coupling, at the defaults and at 2**-40 times them, where the sigma-z row reads alike.
    "block-coupling": Mutant(*_BLOCK_COUPLING, _DEFAULTS, 4, frozenset({SIGMA_Z, INTERTWINES, DUAL_ROUTE})),
    "block-coupling-scaled": Mutant(*_BLOCK_COUPLING, _DEFAULTS_SCALED, 4,
                                    frozenset({SIGMA_Z, INTERTWINES, DUAL_ROUTE})),
}


def _verify_copy(tmp_path, argv, edit=None):
    """(exit code, stdout, stderr) of `verify --cutoff 8` on a copy of the package, with edit applied."""
    package = tmp_path / "spinosc"
    shutil.copytree(Path(spinosc.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        file, text, replacement = edit
        source = (package / file).read_text()
        assert source.count(text) == 1, f"{file} no longer holds {text!r} exactly once"
        (package / file).write_text(source.replace(text, replacement))
    result = subprocess.run(
        [sys.executable, "-m", "spinosc", *argv, "verify", "--cutoff", "8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
    )
    return result.returncode, result.stdout, result.stderr


def test_the_unedited_copy_passes(tmp_path):
    status, stdout, stderr = _verify_copy(tmp_path, _DEFAULTS)
    assert (status, stderr) == (0, "")
    assert stdout.endswith("all 8 checks passed\n")


@pytest.mark.parametrize("name", MUTANTS)
def test_verify_kills_the_mutant(tmp_path, name):
    mutant = MUTANTS[name]
    status, stdout, stderr = _verify_copy(tmp_path, mutant.argv, mutant[:3])
    failing = {line[len("FAIL "):].split(": ", 1)[0] for line in stdout.splitlines() if line.startswith("FAIL ")}
    assert (status, stderr, failing) == (mutant.exit, "", mutant.failing), stdout

"""What `spinosc verify` catches, measured on mutants of the package.

Each case edits one exact source text in a copy of the package under
tmp_path (the package under test is never edited), runs
`python -m spinosc --alpha ALPHA verify --cutoff 8` on the copy in a child,
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

SPECTRUM = "truncated spectrum matches block union"
FULL_SPACE = "full-space symmetries and PT image (grading, sigma-z, parity, H_pt - H)"
METRIC_ROUTES = "metric routes agree (eigenvectors vs closed)"
INTERTWINES = "metric intertwines block (unbroken)"
DUAL_ROUTE = "partition function dual route"


class Mutant(NamedTuple):
    file: str
    text: str
    replacement: str
    alpha: str
    exit: int
    failing: frozenset[str]


_MU = ("fullspace.py", "+ params.mu * (np.kron(a, sigma_plus)", "+ params.mu * (1 + 1e-9) * (np.kron(a, sigma_plus)")
_ALPHA = ("fullspace.py", "0.5 * params.alpha * np.kron(eye_osc, sigma_z)",
          "0.5 * params.alpha * (1 + 1e-9) * np.kron(eye_osc, sigma_z)")

MUTANTS = {
    # sigma_y's spin swap without its sz_i sz_j signs turns mu into -mu in H_pt; ||H_pt - H|| keeps its norm.
    "pt-flip-without-signs": Mutant("fullspace.py", "(np.outer(sz, sz) * h[np.ix_(swap, swap)]).conj()",
                                    "h[np.ix_(swap, swap)].conj()", "5", 4, frozenset({FULL_SPACE})),
    # Near resonance mu_c(0) is 5e-6: only a full-space coupling in units of homega sees this one.
    "full-space-mu-near-resonance": Mutant(*_MU, "1.00001", 4, frozenset({FULL_SPACE})),
    "full-space-mu": Mutant(*_MU, "5", 4, frozenset({SPECTRUM, FULL_SPACE})),
    "full-space-alpha": Mutant(*_ALPHA, "5", 4, frozenset({SPECTRUM, FULL_SPACE})),
    # A fault in the code under test: the kernel's sqrt of a negative discriminant raises ValueError.
    # It is a verification failure (exit 4), not a usage error (exit 2).
    "phase-rule-levels-plus-one": Mutant("spectral.py", "(n + 1) * 2e-323), n + 1, math.inf",
                                         "(n + 1) * 2e-323), n + 2, math.inf", "5", 4,
                                         frozenset({METRIC_ROUTES, INTERTWINES, DUAL_ROUTE, SPECTRUM})),
}


def _verify_copy(tmp_path, alpha, edit=None):
    """(exit code, stdout, stderr) of `verify --cutoff 8` on a copy of the package, with edit applied."""
    package = tmp_path / "spinosc"
    shutil.copytree(Path(spinosc.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        file, text, replacement = edit
        source = (package / file).read_text()
        assert source.count(text) == 1, f"{file} no longer holds {text!r} exactly once"
        (package / file).write_text(source.replace(text, replacement))
    result = subprocess.run(
        [sys.executable, "-m", "spinosc", "--alpha", alpha, "verify", "--cutoff", "8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
    )
    return result.returncode, result.stdout, result.stderr


def test_the_unedited_copy_passes(tmp_path):
    status, stdout, stderr = _verify_copy(tmp_path, "5")
    assert (status, stderr) == (0, "")
    assert stdout.endswith("all 8 checks passed\n")


@pytest.mark.parametrize("name", MUTANTS)
def test_verify_kills_the_mutant(tmp_path, name):
    mutant = MUTANTS[name]
    status, stdout, stderr = _verify_copy(tmp_path, mutant.alpha, mutant[:3])
    failing = {line[len("FAIL "):].split(": ", 1)[0] for line in stdout.splitlines() if line.startswith("FAIL ")}
    assert (status, stderr, failing) == (mutant.exit, "", mutant.failing), stdout

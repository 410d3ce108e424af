"""What `spinosc verify` catches, measured on mutants of the package.

Each case edits one exact source text in a copy of the package under
tmp_path (the package under test is never edited), runs
`python -m spinosc ARGV verify --cutoff 8` on the copy in a child,
and asserts its kill: the exit code and the set of checks that FAIL.  A
recorded survivor asserts exit 0 and no FAIL.  A change that lets a mutant
survive, kills a recorded survivor, or changes which checks see a mutant,
fails here; the table is the record of what each check is for.
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
COALESCENCE = "coalescence location (exact discriminant sign vs closed)"
STENCIL = "log-derivative finite differences"


class Mutant(NamedTuple):
    file: str
    text: str
    replacement: str
    argv: tuple[str, ...]
    exit: int
    failing: frozenset[str]


_MU = ("fullspace.py", "(params.mu, lowering, _SIGMA_PLUS),\n        (-params.mu, raising, _SIGMA_MINUS)",
       "(params.mu * (1 + 1e-9), lowering, _SIGMA_PLUS),\n        (-params.mu * (1 + 1e-9), raising, _SIGMA_MINUS)")
_ALPHA = ("fullspace.py", "(0.5 * params.alpha, eye, _SIGMA_Z)", "(0.5 * params.alpha * (1 + 1e-9), eye, _SIGMA_Z)")
_BLOCK_COUPLING = ("model.py", "(complex(-coupling), complex(-0.5 * params.alpha",
                   "(complex(-coupling * (1 + 1e-9)), complex(-0.5 * params.alpha")
_DEFAULTS = ("--alpha", "5")
# The defaults times 2**-40, exactly.
_DEFAULTS_SCALED = ("--alpha", "4.547473508864641e-12", "--homega", "9.094947017729282e-13")

MUTANTS = {
    # sigma_y's spin swap without its sz_i sz_j signs turns mu into -mu in H_pt; ||H_pt - H|| keeps its norm.
    "pt-flip-without-signs": Mutant("fullspace.py", "(sz[i] * sz[j] * at(i ^ 1, j ^ 1)).conjugate()",
                                    "at(i ^ 1, j ^ 1).conjugate()", _DEFAULTS, 4, frozenset({FULL_SPACE})),
    # Near resonance mu_c(0) is 5e-6: only a full-space coupling in units of homega sees this one.
    "full-space-mu-near-resonance": Mutant(*_MU, ("--alpha", "1.00001"), 4, frozenset({FULL_SPACE})),
    "full-space-mu": Mutant(*_MU, _DEFAULTS, 4, frozenset({SPECTRUM, FULL_SPACE})),
    "full-space-alpha": Mutant(*_ALPHA, _DEFAULTS, 4, frozenset({SPECTRUM, FULL_SPACE})),
    # The ladder operator lowers by two levels: its couplings leave the invariant blocks.
    "lowering-skips-a-level": Mutant("fullspace.py",
                                     "{(n, n + 1): math.sqrt(n + 1.0) for n in range(levels - 1)}",
                                     "{(n, n + 2): math.sqrt(n + 1.0) for n in range(levels - 2)}",
                                     _DEFAULTS, 4, frozenset({SPECTRUM, FULL_SPACE})),
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
    # eig2's vectors reach verify only through the eigenvector metric; its eigenvalues through the block check too.
    "eig2-left-vector-at-lambda": Mutant("smallmat.py", "_null_vector(adj, lam.conjugate())", "_null_vector(adj, lam)",
                                         _DEFAULTS, 4, frozenset({METRIC_ROUTES})),
    "eig2-second-eigenvalue": Mutant("smallmat.py", "lam2 = det / lam1", "lam2 = det / lam1 * (1 + 1e-9)",
                                     _DEFAULTS, 4, frozenset({METRIC_ROUTES, SPECTRUM})),
    "eig2-second-row-sign": Mutant("smallmat.py", "v2 = (lam - d, c)", "v2 = (lam - d, -c)",
                                   _DEFAULTS, 4, frozenset({METRIC_ROUTES})),
    # The block's lower coupling, at the defaults and at 2**-40 times them, where the sigma-z row reads alike.
    "block-coupling": Mutant(*_BLOCK_COUPLING, _DEFAULTS, 4, frozenset({SIGMA_Z, INTERTWINES, DUAL_ROUTE})),
    "block-coupling-scaled": Mutant(*_BLOCK_COUPLING, _DEFAULTS_SCALED, 4,
                                    frozenset({SIGMA_Z, INTERTWINES, DUAL_ROUTE})),
    # The kernel's Z in each branch, against the matrix trace.
    "kernel-unbroken-z": Mutant("thermo.py", "cv = x * x / (c * c)\n        z = prefactor * damping * c",
                                "cv = x * x / (c * c)\n        z = prefactor * damping * c * (1 + 1e-9)",
                                _DEFAULTS, 4, frozenset({DUAL_ROUTE})),
    "kernel-broken-z": Mutant("thermo.py", "cv = x * x * (-1.0 - t * t)\n        z = prefactor * damping * c",
                              "cv = x * x * (-1.0 - t * t)\n        z = prefactor * damping * c * (1 + 1e-9)",
                              _DEFAULTS, 4, frozenset({DUAL_ROUTE})),
    # expm2 reaches verify only through the trace Z = tr(exp(-H/tau) eta): its cosh term carries all of Z.
    "expm2-cosh-term": Mutant("smallmat.py", "cosh = cmath.cosh(sq)", "cosh = cmath.cosh(sq) * (1 + 1e-9)",
                              _DEFAULTS, 4, frozenset({DUAL_ROUTE})),
    # The sinh term is sinh(s q)/q times the traceless block M, and tr(M eta) = 0, so Z never sees it:
    # the dual route's trace tr(exp(-H/tau) eta M) against its closed form does.
    "expm2-sinh-term": Mutant("smallmat.py", "cmath.sinh(sq) / q", "cmath.sinh(sq) / q * (1 + 1e-9)",
                              _DEFAULTS, 4, frozenset({DUAL_ROUTE})),
    # mu_c with sqrt(n + 2): the exact discriminant's sign sees the moved root.  The stencil row's kill is
    # incidental: its n = 0 point at 1.25 mu_c lands at 0.88 of the true mu_c, where the step's relative
    # error on correct values is 6.2e-6.
    "critical-coupling-sqrt-n-plus-2": Mutant("spectral.py", "abs(params.delta) / (2.0 * math.sqrt(n + 1.0))",
                                              "abs(params.delta) / (2.0 * math.sqrt(n + 2.0))", _DEFAULTS, 4,
                                              frozenset({COALESCENCE, STENCIL})),
    # Recorded survivors: verify passes these wrong printed values (exit 0, no FAIL row).  Only the
    # finite-difference row reads the kernel's F, S and C_v, through derivatives of ln Z taken by a
    # step and held to a relative 1e-6, and these errors lie under it.  A high-precision reference
    # for S, F and C_v (the ROADMAP's 60-digit stdlib reference) must turn each into a kill.
    "kernel-unbroken-s": Mutant("thermo.py", "s = log(prefactor) + log(c) - x * tanh(x)",
                                "s = (log(prefactor) + log(c) - x * tanh(x)) * (1 + 1e-7)", _DEFAULTS, 0, frozenset()),
    "kernel-broken-s": Mutant("thermo.py", "s = log(prefactor) + log(c) + x * t",
                              "s = (log(prefactor) + log(c) + x * t) * (1 + 1e-7)", _DEFAULTS, 0, frozenset()),
    "kernel-unbroken-cv": Mutant("thermo.py", "cv = x * x / (c * c)\n", "cv = x * x / (c * c) * (1 + 1e-6)\n",
                                 _DEFAULTS, 0, frozenset()),
    "kernel-broken-cv": Mutant("thermo.py", "cv = x * x * (-1.0 - t * t)", "cv = x * x * (-1.0 - t * t) * (1 + 1e-6)",
                               _DEFAULTS, 0, frozenset()),
    "kernel-unbroken-f": Mutant("thermo.py", "f = neg_tau * log(z)\n            s = log(prefactor) + log(c) - x",
                                "f = neg_tau * log(z) * (1 + 1e-9)\n            s = log(prefactor) + log(c) - x",
                                _DEFAULTS, 0, frozenset()),
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

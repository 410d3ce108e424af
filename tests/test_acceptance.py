"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
All tolerances are fixed here; grids avoid exact coalescence couplings (where
eigenvalues of the defective block are conditioned at the sqrt(eps) level)
and cosine zeros of the broken-region partition function (where a relative
comparison loses meaning) — both exclusions are properties of the model, not
of the implementation.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from spinosc.fullspace import block_decomposition_check, symmetry_report
from spinosc.metric import eta, eta_from_vectors, verify_metric
from spinosc.model import ModelParams, build_block
from spinosc.smallmat import expm2
from spinosc.spectral import PhaseRegion, block_spectrum, critical_coupling
from spinosc.thermo import (
    entropy,
    finite_diff_check,
    partition_function,
    specific_heat,
    thermo_point,
)
from spinosc.verify import _ulps_from_root

from rowview import cli_rows

ALPHA = 5.0
HOMEGA = 1.0


def _params(mu: float) -> ModelParams:
    return ModelParams(ALPHA, HOMEGA, mu)


def _mu_c(n: int) -> float:
    return critical_coupling(_params(0.0), n)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_criterion_1_ep_locations():
    expected = {
        0: 2.0,
        1: 1.414213562373095,
        2: 1.1547005383792515,
        5: 0.81649658092772603,
    }
    worst_closed = 0.0
    worst_ulps = 0
    for n, target in expected.items():
        worst_closed = max(worst_closed, abs(_mu_c(n) - target))
        worst_ulps = max(worst_ulps, _ulps_from_root(_params(0.0).delta, n, _mu_c(n)))
    ok = worst_closed < 1e-12 and worst_ulps <= 2
    _report(
        "criterion-1 ep-locations",
        ok,
        f"closed-form err {worst_closed:.2e}, exact root within {worst_ulps} ulps",
    )


def _region_grids(n: int):
    mu_c = _mu_c(n)
    unbroken = np.linspace(0.02, 0.98, 40) * mu_c
    broken = np.linspace(1.02, 3.0, 40) * mu_c
    return unbroken, broken


def test_criterion_2_metric_reproduction():
    pinned_unbroken = np.array(
        [[1.1547005383792515, 0.57735026918962576], [0.57735026918962576, 1.1547005383792515]]
    )
    pinned_broken = np.array(
        [[1.3416407864998738, 0.89442719099991586], [0.89442719099991586, 1.3416407864998738]]
    )
    err_pinned = max(
        float(np.max(np.abs(eta(_params(1.0), 0).matrix - pinned_unbroken))),
        float(np.max(np.abs(eta(_params(3.0), 0).matrix - pinned_broken))),
    )

    worst_route = 0.0
    for n in range(9):
        unbroken, broken = _region_grids(n)
        for mu in np.concatenate([unbroken, broken]):
            params = _params(float(mu))
            diff = np.max(np.abs(eta_from_vectors(params, n) - eta(params, n).matrix))
            worst_route = max(worst_route, float(diff))

    ok = err_pinned < 1e-12 and worst_route < 1e-10
    _report(
        "criterion-2 metric-reproduction",
        ok,
        f"pinned-entry err {err_pinned:.2e}, route disagreement {worst_route:.2e}",
    )


def test_criterion_3_intertwining():
    worst = 0.0
    for n in range(9):
        unbroken, _ = _region_grids(n)
        for mu in unbroken:
            params = _params(float(mu))
            h = build_block(params, n)
            g = eta(params, n).matrix
            residual = np.linalg.norm(g @ h - h.conj().T @ g)
            worst = max(worst, float(residual / np.linalg.norm(h)))
    broken_residual = verify_metric(_params(3.0), 0).intertwining_residual
    broken_err = abs(broken_residual - 6.3245553203367587)
    ok = worst < 1e-10 and broken_err < 1e-9
    _report(
        "criterion-3 intertwining",
        ok,
        f"unbroken relative residual {worst:.2e}, broken diagnostic err {broken_err:.2e}",
    )


def test_criterion_4_partition_dual_route():
    taus = np.logspace(-1.0, 2.0, 13)
    worst_rel = 0.0
    worst_imag = 0.0
    total = kept = 0
    for n in range(9):
        mu_c = _mu_c(n)
        for factor in (0.3, 0.6, 0.9, 1.1, 1.5, 2.5):
            params = _params(factor * mu_c)
            g = eta(params, n).matrix
            h = build_block(params, n)
            disc = params.delta**2 - 4.0 * params.mu**2 * (n + 1)
            for tau in taus:
                total += 1
                raw = complex(np.trace(expm2(h, -1.0 / float(tau)) @ g))
                worst_imag = max(worst_imag, abs(raw.imag) / max(abs(raw), 1e-300))
                z_closed = thermo_point(params, n, float(tau)).z
                # Relative comparison is meaningless straddling a cosine zero.
                if disc < 0.0 and abs(math.cos(0.5 * math.sqrt(-disc) / tau)) < 1e-2:
                    continue
                kept += 1
                z_matrix = partition_function(params, n, float(tau))
                worst_rel = max(worst_rel, abs(z_matrix - z_closed) / abs(z_closed))
    ok = worst_rel < 1e-10 and worst_imag <= 1e-10 and kept >= 0.9 * total
    _report(
        "criterion-4 partition-dual-route",
        ok,
        f"max relative diff {worst_rel:.2e}, max imag residue {worst_imag:.2e}, "
        f"{kept}/{total} points compared",
    )


def test_criterion_5_derivative_correctness():
    # tau is chosen per point so that the reduced argument b/tau sits where
    # the specific heat is O(0.3) while |ln Z| stays small: the pinned step
    # 1e-4*tau makes the centered second difference lose ~4 eps |ln Z| / h^2
    # to cancellation, so wild |ln Z| would drown the 1e-6 contract for
    # reasons unrelated to the derivatives under test.
    points = 0
    worst = 0.0
    for n in range(9):
        mu_c = _mu_c(n)
        cases = []
        for f in (0.45, 0.55, 0.65, 0.75):
            mu = f * mu_c
            half_gap = 0.5 * math.sqrt(16.0 - 4.0 * mu**2 * (n + 1))
            cases += [(mu, half_gap / x) for x in (0.65, 0.8, 0.95)]
        for f in (1.15, 1.25, 1.35, 1.45):
            mu = f * mu_c
            half_gap = 0.5 * math.sqrt(4.0 * mu**2 * (n + 1) - 16.0)
            cases += [(mu, half_gap / x) for x in (0.55, 0.7, 0.85)]
        for mu, tau in cases:
            params = _params(mu)
            report = finite_diff_check(params, n, tau)
            z = partition_function(params, n, tau)
            s_fd = math.log(z) + tau * report.d1_numeric
            c_fd = 2.0 * tau * report.d1_numeric + tau**2 * report.d2_numeric
            s_err = abs(s_fd - entropy(params, n, tau)) / abs(entropy(params, n, tau))
            c_err = abs(c_fd - specific_heat(params, n, tau)) / abs(specific_heat(params, n, tau))
            worst = max(worst, s_err, c_err)
            points += 1
    ok = points >= 200 and worst < 1e-6
    _report(
        "criterion-5 derivative-correctness",
        ok,
        f"{points} grid points, max relative error {worst:.2e}",
    )


def test_criterion_6_figure_behavior():
    tau = 5.0
    subspaces = (0, 1, 2, 5)
    problems = []

    for n in subspaces:
        mu_c = _mu_c(n)
        for side in (-1.0, 1.0):
            # (a) entropy exceeds 4 close to the coalescence point ...
            for gap in (1e-4, 3e-4):
                s = entropy(_params(mu_c + side * gap), n, tau)
                if s is None or abs(s) <= 4.0:
                    problems.append(f"S small at n={n} gap={side * gap:g}")
            # ... follows the -1/2 log law over two decades ...
            offsets = []
            for gap in (1e-2, 1e-3, 1e-4):
                s = entropy(_params(mu_c + side * gap), n, tau)
                offsets.append(s + 0.5 * math.log(gap))
            if max(np.abs(offsets)) > 2.0 or max(offsets) - min(offsets) > 0.2:
                problems.append(f"log-law offset unstable at n={n} side={side:+g}")
            # ... and |F| grows monotonically toward it.
            f_values = []
            for gap in (1e-2, 1e-3, 1e-4):
                params = _params(mu_c + side * gap)
                f_values.append(abs(-tau * math.log(partition_function(params, n, tau))))
            if not (f_values[0] < f_values[1] < f_values[2]):
                problems.append(f"|F| not growing at n={n} side={side:+g}")

    # (b) specific-heat sign split across the full figure dataset.
    for row in cli_rows("fig", "--id", "3"):
        if row.region is PhaseRegion.UNBROKEN and row.specific_heat < 0.0:
            problems.append(f"negative Cv in unbroken row mu={row.mu}")
        if row.region is PhaseRegion.BROKEN and row.valid and row.specific_heat > 0.0:
            problems.append(f"positive Cv in broken row mu={row.mu}")

    # (c) specific heat vanishes at the coalescence points.
    for n in subspaces:
        mu_c = _mu_c(n)
        for factor in (0.3, 0.6, 0.95):
            for side in (-1.0, 1.0):
                value = specific_heat(_params(mu_c * (1.0 + side * factor * 1e-2)), n, tau)
                if abs(value) >= 1e-2:
                    problems.append(f"Cv large near coalescence n={n}")

    _report("criterion-6 figure-behavior", not problems, "; ".join(problems) or "all panels behave")


def test_criterion_7_fullspace_oracle():
    cutoff = 8
    worst_multiset = 0.0
    # Exact-coalescence couplings excluded: a defective block's eigenvalues
    # are conditioned at the sqrt(eps) level in any dense solver.
    for mu in (0.0, 0.6, 1.3, 3.0):
        check = block_decomposition_check(_params(mu), cutoff)
        worst_multiset = max(worst_multiset, check.max_deviation)

    ground_ok = True
    for mu in (0.0, 0.6, 1.0, 1.3, 3.0):
        check = block_decomposition_check(_params(mu), cutoff)
        ground_ok = ground_ok and min(abs(check.computed - (-2.5))) < 1e-8

    params = _params(1.0)
    report = symmetry_report(params, cutoff)
    # Not PT symmetric: H_pt - H is -alpha sigma_z + mu sigma_x (a^dag - a) entrywise, a tenth of ||H|| or more.
    levels = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
    pt_difference = (-params.alpha * np.kron(np.eye(levels), np.diag([1.0, -1.0]))
                     + params.mu * np.kron(a.T - a, [[0.0, 1.0], [1.0, 0.0]]))
    pt_ratio = float(np.linalg.norm(pt_difference)) / report.h_norm
    sym_ok = (
        report.commutator_residual < 1e-12 * report.h_norm
        and report.sigma_z_residual < 1e-12 * report.h_norm
        and report.pt_residual < 1e-12 * report.h_norm
        and pt_ratio > 0.1
    )
    ok = worst_multiset < 1e-8 and ground_ok and sym_ok
    _report(
        "criterion-7 fullspace-oracle",
        ok,
        f"multiset deviation {worst_multiset:.2e}, ground state present: {ground_ok}, "
        f"commutator {report.commutator_residual:.2e}, pt ratio {pt_ratio:.2f}",
    )


def test_criterion_8_hermitian_limit_entropy():
    params = _params(0.0)
    worst = 0.0
    for n in (0, 1):
        spectrum = block_spectrum(params, n)
        energies = (spectrum.e_plus.real, spectrum.e_minus.real)
        for tau in (0.5, 1.0, 5.0):
            weights = [math.exp(-e / tau) for e in energies]
            z = sum(weights)
            gibbs = -sum((w / z) * math.log(w / z) for w in weights)
            worst = max(worst, abs(entropy(params, n, tau) - gibbs))
    ok = worst < 1e-9
    _report("criterion-8 hermitian-limit-entropy", ok, f"max |S - Gibbs| {worst:.2e}")


def test_criterion_9_emission_determinism(tmp_path):
    mismatches = []
    for fig_id in (1, 2, 3):
        outputs = []
        for attempt in ("a", "b"):
            target = tmp_path / f"fig{fig_id}_{attempt}.csv"
            result = subprocess.run(
                [sys.executable, "-m", "spinosc", "fig", "--id", str(fig_id), "--output", str(target)],
                capture_output=True,
                text=True,
            )
            if result.returncode != 0:
                mismatches.append(f"fig {fig_id} run failed: {result.stderr.strip()}")
                break
            outputs.append(target.read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            mismatches.append(f"fig {fig_id} runs differ")
    _report(
        "criterion-9 emission-determinism",
        not mismatches,
        "; ".join(mismatches) or "three figure datasets byte-identical across runs",
    )

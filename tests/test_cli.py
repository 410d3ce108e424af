import errno
import json
import math
import os
import random
import signal
import subprocess
import sys

import mpmath
import pytest

from spinosc import fullspace, smallmat, thermo, verify
from spinosc.cli import main
from spinosc.model import ModelParams
from spinosc.spectral import critical_coupling


def run_cli(*args, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "spinosc", *args],
        capture_output=True,
        text=True,
    )


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_spectrum_at_coalescence():
    result = run_cli("spectrum", "--n", "0", "--mu", "2")
    assert result.returncode == 0
    assert "region = Exceptional" in result.stdout
    assert "mu_c = 2" in result.stdout
    assert "E_plus = 0.5" in result.stdout


def test_spectrum_broken_pair():
    result = run_cli("spectrum", "--n", "0", "--mu", "3")
    assert result.returncode == 0
    assert "E_plus = 0.5+2.2360679775i" in result.stdout


def test_spectrum_decoupled_limit():
    result = run_cli("spectrum", "--n", "0", "--mu", "0")
    assert result.returncode == 0
    assert "E_plus = 2.5" in result.stdout
    assert "E_minus = -1.5" in result.stdout


def test_thermo_hermitian_limit():
    result = run_cli("thermo", "--n", "0", "--mu", "0", "--tau", "1")
    assert result.returncode == 0
    assert "Z = 4.56377406896" in result.stdout


def test_thermo_regular_point():
    result = run_cli("thermo", "--n", "0", "--mu", "1", "--tau", "1")
    assert result.returncode == 0
    assert "Z = 4.08251436932" in result.stdout
    assert "Cv = 0.353158819743" in result.stdout


def test_thermo_exit_code_at_coalescence():
    result = run_cli("thermo", "--n", "0", "--mu", "2", "--tau", "1")
    assert result.returncode == 3
    assert "region = Exceptional" in result.stdout
    assert "Z = undefined" in result.stdout


def _thermo_fields(*args):
    """Exit code and the `name = value` lines of a thermo call."""
    result = run_cli(*args)
    assert result.stderr == ""
    return result.returncode, dict(line.split(" = ") for line in result.stdout.splitlines())


def test_thermo_at_a_tiny_scale_is_the_scale_one_point():
    # Every energy times 1e-7: the phase is decided by mu/mu_c = 0.4 alone, so the point is Unbroken, not
    # Exceptional; Z, S and C_v are those of scale 1 and F is 1e-7 times its F.
    code, tiny = _thermo_fields("--alpha", "1.5e-7", "--homega", "1e-7", "thermo", "--n", "0", "--mu", "1e-8",
                                "--tau", "1e-7")
    assert (code, tiny["region"]) == (0, "Unbroken")
    code, unit = _thermo_fields("--alpha", "1.5", "--homega", "1", "thermo", "--n", "0", "--mu", "0.1",
                                "--tau", "1")
    assert (code, unit["region"]) == (0, "Unbroken")
    for name, factor in (("Z", 1.0), ("S", 1.0), ("Cv", 1.0), ("F", 1e-7)):
        assert float(tiny[name]) == pytest.approx(factor * float(unit[name]), rel=1e-12, abs=0.0), name


def test_thermo_at_zero_detuning_is_exceptional_only_at_zero_coupling():
    # alpha == homega puts mu_c at 0: there the point coalesces, and any coupling above it is broken, with
    # the metric weight 2 of a two-level pair, so S -> ln 2 as mu/tau -> 0.
    code, fields = _thermo_fields("--alpha", "1", "--homega", "1", "thermo", "--n", "0", "--mu", "0")
    assert (code, fields["region"], fields["S"]) == (3, "Exceptional", "undefined")
    code, fields = _thermo_fields("--alpha", "1", "--homega", "1", "thermo", "--n", "0", "--mu", "1e-9")
    assert (code, fields["region"], fields["S"]) == (0, "Broken", format(math.log(2.0), ".12g"))


@pytest.mark.parametrize("mu", ["0", "1.5e-162"])
def test_thermo_refuses_a_point_whose_discriminant_is_underflow_noise(mu):
    # delta**2 rounds up to one subnormal ulp, 5e-324 against a true 3.1e-324, and mu**2 rounds to 0: at
    # mu = 0 sqrt(delta**2) is ~25% off |delta|, and mu = 1.5e-162 > mu_c is broken although disc is 5e-324.
    code, fields = _thermo_fields("--alpha", "9.999999999982296e-151", "--homega", "1e-150", "thermo",
                                  "--n", "0", "--mu", mu)
    assert (code, fields["region"], fields["Z"]) == (3, "Exceptional", "undefined")


def test_sweep_rejects_single_step():
    result = run_cli("sweep", "--mu-min", "0", "--mu-max", "4", "--steps", "1")
    assert result.returncode == 2
    assert "steps" in result.stderr


def test_sweep_csv_to_stdout():
    result = run_cli("sweep", "--subspaces", "0", "--steps", "5", "--tau", "5")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "n,mu,tau,region,mu_c,Z,F,S,Cv,valid"
    assert len(lines) == 6


def test_fig_writes_file(tmp_path):
    target = tmp_path / "fig3.csv"
    result = run_cli("fig", "--id", "3", "--steps", "9", "--output", str(target))
    assert result.returncode == 0
    content = target.read_text()
    assert content.startswith("n,mu,tau,region,mu_c")
    assert "Exceptional" in content


def test_fig_is_the_sweep_preset_for_every_id():
    sweep = run_cli("sweep", "--subspaces", "0", "1", "2", "5", "--steps", "9")
    assert sweep.returncode == 0
    for fig_id in ("1", "2", "3"):
        fig = run_cli("fig", "--id", fig_id, "--steps", "9")
        assert fig.returncode == 0
        assert fig.stdout == sweep.stdout


def test_unwritable_output_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    result = run_cli("sweep", "--steps", "5", "--output", str(target))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: could not write sweep output to {target}")
    assert len(result.stderr.strip().splitlines()) == 1
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("tau", ["1e-3", "1e-4"])
def test_thermo_where_cosh_overflows_is_undefined_not_nan(tau):
    args = ("thermo", "--n", "0", "--mu", "1", "--tau", tau)
    quiet = run_cli(*args, python_flags=("-W", "ignore"))
    strict = run_cli(*args, python_flags=("-W", "error::RuntimeWarning"))
    for result in (quiet, strict):
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
    assert quiet.stdout == strict.stdout
    for line in ("Z = undefined", "F = undefined", "S = undefined", "Cv = 0"):
        assert line in quiet.stdout.splitlines()


def test_thermo_prints_the_unbroken_cv_past_x_350():
    # x = b/tau = 2/tau is ~352 at mu = 0: C_v ~ 9e-301 is a normal double and prints as one.
    tau = "0.005681818181818182"
    result = run_cli("thermo", "--n", "0", "--mu", "0", "--tau", tau)
    assert result.returncode == 0, result.stderr
    with mpmath.workdps(50):
        x = 2 / mpmath.mpf(float(tau))
        exact = float(x**2 / mpmath.cosh(x) ** 2)
    assert 351.9 < float(x) < 352.1
    assert f"Cv = {exact:.12g}" in result.stdout.splitlines()


def test_sweep_json_at_tiny_tau_has_no_nan():
    result = run_cli("sweep", "--tau", "1e-3", "--steps", "5", "--format", "json")
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout, parse_constant=_reject_constant)
    assert result.stderr == ""
    unbroken = [r for r in rows if r["region"] == "Unbroken"]
    assert unbroken
    for row in unbroken:
        assert (row["Z"], row["F"], row["S"], row["Cv"], row["valid"]) == (None, None, None, 0.0, False)


def test_fig_rejects_unknown_id():
    result = run_cli("fig", "--id", "4")
    assert result.returncode == 2


def test_negative_coupling_rejected():
    result = run_cli("spectrum", "--n", "0", "--mu", "-1")
    assert result.returncode == 2
    assert "mu" in result.stderr


def test_the_removed_ep_window_flag_is_a_usage_error():
    # The sweep's mask is EP_WINDOW * |homega - alpha|; no flag sets it.
    for command in ("sweep", "fig"):
        result = run_cli(command, *(("--id", "1") if command == "fig" else ()), "--ep-window", "0")
        assert (result.returncode, result.stdout) == (2, "")
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if "error:" in line]
        assert errors == ["spinosc: error: unrecognized arguments: --ep-window 0"]


def test_verify_passes_on_defaults():
    result = run_cli("verify", "--cutoff", "6")
    assert result.returncode == 0
    assert "all 8 checks passed" in result.stdout
    assert "FAIL" not in result.stdout


@pytest.mark.parametrize("alpha", ["-5", "7"])
def test_verify_block_check_takes_no_coupling_at_a_coalescence(alpha):
    # |homega - alpha| = 6 puts mu_c of subspace 0 at 3, a defective block whose
    # eigenvalues no dense solver resolves to 1e-8; the check's couplings scale with mu_c.
    result = run_cli("--alpha", alpha, "verify", "--cutoff", "8")
    assert "Traceback" not in result.stderr
    assert "PASS truncated spectrum matches block union" in result.stdout, result.stdout


def run_verify_in_process(capsys, *args, cutoff=8):
    """(exit status, stdout lines) of `spinosc *args verify --cutoff cutoff` run in this process, stderr empty."""
    status = main([*args, "verify", "--cutoff", str(cutoff)])
    out, err = capsys.readouterr()
    assert err == ""
    return status, out.splitlines()


def test_verify_skips_closed_z_outside_double_range(monkeypatch):
    # On verify's scale-free grid every closed Z is in double range, so one
    # subspace's is taken out of it: those points are skipped, not compared.
    real = verify.thermo_point
    monkeypatch.setattr(verify, "thermo_point", lambda params, n, tau: real(params, n, tau)._replace(z=None)
                        if n == 0 else real(params, n, tau))
    check = {result.name: result for result in verify.run_checks(cutoff=2)}["partition function dual route"]
    assert check.passed


def test_verify_skips_dual_route_points_near_a_zero_of_z(monkeypatch):
    # With homega 1 and homega - alpha = pi / (2 sqrt 5), the broken Z's cos(Im e_plus / tau) has
    # its argument at pi / 2 at mu = 1.5 mu_c and tau = 0.25 in every subspace: those six points
    # are skipped, and every other point is compared, damped or not.
    alpha = 1.0 - math.pi / (2.0 * math.sqrt(5.0))
    real, compared = verify.partition_function, []

    def spy(params, n, tau):
        compared.append((n, params.mu, tau))
        return real(params, n, tau)

    monkeypatch.setattr(verify, "partition_function", spy)
    check = {result.name: result for result in verify.run_checks(alpha, 1.0, cutoff=2)}["partition function dual route"]
    assert check.passed
    zeros = [(n, 1.5 * critical_coupling(ModelParams(alpha, 1.0, 0.0), n), 0.25) for n in range(6)]
    assert len(compared) == 138 and not set(zeros) & set(compared)


def test_verify_fails_a_stencil_it_cannot_evaluate(monkeypatch, capsys):
    # Z < 0 on a stencil: the lower point of the first stencil (n = 0, mu = 1,
    # tau = 1) sees a negative matrix-route Z, and the check fails there
    # instead of raising.  The dual route holds its own partition_function.
    real = thermo.partition_function
    monkeypatch.setattr(thermo, "partition_function", lambda params, n, tau: (-1.0 if tau < 1.0 else 1.0)
                        * real(params, n, tau))
    status, lines = run_verify_in_process(capsys)
    assert status == 4
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL log-derivative finite differences: cannot evaluate the stencil at n = 0, mu = 1, tau = 1: "
        "partition function negative on the stencil around tau = 1.0"]


@pytest.mark.parametrize(
    "alpha,failed",
    [
        ("5000", {"log-derivative finite differences": "cannot evaluate the stencil at n = 0, mu = 1249.75, "
                  "tau = 1249.75: exp(-0.8000800240040009 * m) leaves double range"}),
        ("1e10", {"log-derivative finite differences": "cannot evaluate the stencil at n = 0, mu = 2499999999.75, "
                  "tau = 2.5e+09: exp(-3.99960004039596e-07 * m) leaves double range"}),
        ("-1e3", {"log-derivative finite differences": "cannot evaluate the stencil at n = 0, mu = 250.25, "
                  "tau = 250.25: exp(-3.99560443556044 * m) leaves double range"}),
        ("28981.14427316356", {"log-derivative finite differences": "cannot evaluate the stencil at n = 0, "
                               "mu = 7245.03606829, tau = 7245.04: exp(-0.13801173666687866 * m) leaves double "
                               "range"}),
    ],
)
def test_verify_fails_where_the_matrix_exponential_leaves_double_range(monkeypatch, capsys, alpha, failed):
    # expm2 raises OverflowError instead of printing numpy's warnings; every
    # check that reaches it fails with one line.  stderr stays empty with
    # warnings as errors.  The scale-free grid keeps every term in range, so
    # the overflow is forced: expm2 takes 1000 times its scale at the top of
    # the first stencil, tau = (1 + 1e-4) * max(|homega - alpha|, homega) / 4.
    real, top = smallmat.expm2, 0.25 * max(abs(1.0 - float(alpha)), 1.0)
    monkeypatch.setattr(smallmat, "expm2", lambda m, scale: real(m, 1e3 * scale if top < -1.0 / scale < 1.001 * top
                                                                   else scale))
    status, lines = run_verify_in_process(capsys, f"--alpha={alpha}")
    assert status == 4
    assert dict(line[5:].split(": ", 1) for line in lines if line.startswith("FAIL ")) == failed


def test_verify_never_passes_a_check_whose_stencils_were_all_skipped(monkeypatch):
    def unevaluable(params, n, tau):
        raise OverflowError("out of range")

    monkeypatch.setattr(verify, "finite_diff_check", unevaluable)
    check = {result.name: result for result in verify.run_checks(cutoff=2)}["log-derivative finite differences"]
    assert not check.passed
    assert check.detail == "cannot evaluate the stencil at n = 0, mu = 1, tau = 1: out of range"


def test_verify_checks_the_cutoff_before_any_check_runs(monkeypatch):
    def first_check(*args):
        raise AssertionError("a check ran before the cutoff was checked")

    monkeypatch.setattr(verify, "critical_coupling", first_check)
    monkeypatch.setattr(verify, "sigma_z_residual", first_check)
    with pytest.raises(ValueError, match=r"cutoff must be in \[2, 127\], got 128"):
        verify.run_checks(cutoff=128)


def test_verify_fails_a_check_whose_residual_is_nan(monkeypatch):
    # max(0.0, nan) is 0.0, so a NaN folded into the worst residual would pass.
    monkeypatch.setattr(verify, "sigma_z_residual", lambda params, n: float("nan"))
    check = verify.run_checks(cutoff=2)[0]
    assert check == ("sigma-z pseudo-hermiticity (blocks)", False, "cannot evaluate the block at n = 0, mu = 0: "
                     "the residual is nan")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_fails_the_point_where_one_metric_entry_is_not_finite(monkeypatch, bad):
    # The eigenvector metric's last entry at one point only: max() over the entries would drop a NaN there.
    mu = 1.2 * critical_coupling(ModelParams(5.0, 1.0, 0.0), 2)
    real = verify.eta_from_vectors

    def poisoned(params, n):
        (a, b), (c, d) = real(params, n)
        return ((a, b), (c, bad)) if (n, params.mu) == (2, mu) else ((a, b), (c, d))

    monkeypatch.setattr(verify, "eta_from_vectors", poisoned)
    name = "metric routes agree (eigenvectors vs closed)"
    check = {result.name: result for result in verify.run_checks(cutoff=2)}[name]
    assert check == (name, False, f"cannot evaluate the metric at n = 2, mu = {mu:.12g}: the residual is {bad}")


def test_verify_names_the_first_point_whose_metric_is_not_unimodular(monkeypatch):
    def verify_metric(params, n):
        diag = real(params, n)
        broken = params.mu > verify.critical_coupling(params, n)
        return diag._replace(det_error=1.0) if broken else diag

    real = verify.verify_metric
    monkeypatch.setattr(verify, "verify_metric", verify_metric)
    check = {result.name: result for result in verify.run_checks(cutoff=2)}["metric intertwines block (unbroken)"]
    assert not check.passed
    assert check.detail.startswith("cannot evaluate the metric at n = 0, mu = 2.4: the closed metric is not "
                                   "positive definite with unit determinant")


@pytest.mark.parametrize(
    "alpha,cutoff",
    [pytest.param(alpha, 8, id=alpha) for alpha in ("12", "50", "1000", "5000", "-5", "7", "-1000", "1e10", "3e16",
                                                    "0.99", "0.999", "1.01", "1.00003", "1.00001", "1.000001",
                                                    "1.0000001")]
    + [(alpha, 127) for alpha in ("0.5", "0.9", "0.99", "1.01", "1.1", "1.5", "2", "3", "-0.5", "-1")]
    + [("0.5", cutoff) for cutoff in (16, 32, 64)],
)
def test_verify_passes_from_far_detuning_to_near_resonance(capsys, alpha, cutoff):
    # Temperatures in units of max(|homega - alpha|, homega): in units of
    # |homega - alpha| alone, tau would fall far below homega near resonance
    # (0.99 to 1.0000001), and Z would underflow.  The metric's eigenvector route
    # works on the traceless block, whose entries keep delta's digits near
    # resonance.  The full-space row holds H_pt - H to its closed form entry
    # by entry, which does not fade as homega a^dag a grows with the cutoff.
    status, lines = run_verify_in_process(capsys, f"--alpha={alpha}", cutoff=cutoff)
    assert status == 0, [line for line in lines if line.startswith("FAIL")]


def _half_gap_scaled(real, params, n):
    # 8.2e-9 apart at cutoff 8, within an absolute 1e-8, but 7.4e-10 of the spectral radius.
    spectrum, centre = real(params, n), 0.5 * (2 * n + 1) * params.homega
    return spectrum._replace(e_plus=centre + (spectrum.e_plus - centre) * (1 + 1e-9),
                             e_minus=centre + (spectrum.e_minus - centre) * (1 + 1e-9))


def _level_shifted(real, params, n):
    # sqrt(n + 2) for sqrt(n + 1) in the gap: subspace n + 1's gap around subspace n's centre.
    spectrum = real(params, n + 1)
    return spectrum._replace(e_plus=spectrum.e_plus - params.homega, e_minus=spectrum.e_minus - params.homega)


def _centre_shifted(real, params, n):
    spectrum = real(params, n)
    return spectrum._replace(e_plus=spectrum.e_plus + 1e-7 * params.homega,
                             e_minus=spectrum.e_minus + 1e-7 * params.homega)


@pytest.mark.parametrize("mutate", [_half_gap_scaled, _level_shifted, _centre_shifted])
def test_verify_truncated_spectrum_catches_a_wrong_block_spectrum(monkeypatch, mutate):
    real = fullspace.block_spectrum
    monkeypatch.setattr(fullspace, "block_spectrum", lambda params, n: mutate(real, params, n))
    check = verify.run_checks(cutoff=8)[6]
    assert check.name == "truncated spectrum matches block union" and not check.passed


@pytest.mark.parametrize("alpha,homega", [("0", "5e-324"), ("-5e-324", "5e-324"), ("0", "1e-323")])
def test_verify_refuses_a_temperature_grid_that_rounds_to_zero(alpha, homega):
    # The lowest grid temperature, max(|homega - alpha|, homega) / 8, is 0 here.
    result = run_cli(f"--alpha={alpha}", f"--homega={homega}", "verify")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: max(|homega - alpha|, homega) = ") and result.stderr.count("\n") == 1
    assert result.stderr.endswith(" is too small for verify's temperature grid\n")


@pytest.mark.parametrize("alpha,homega", [(1.0, 1.0), (1e-300, 1e-300)])
def test_verify_refuses_zero_detuning(alpha, homega):
    with pytest.raises(ValueError, match="^alpha == homega: every subspace coalesces at mu = 0"):
        verify.run_checks(alpha, homega, cutoff=2)


@pytest.mark.parametrize(
    "alpha,homega", [(5.0, 1e154), (5.0, 1e200), (5.0, 1e308), (-1.7e308, 1.7e308), (1.3e154, 1.0)]
)
def test_verify_refuses_a_discriminant_that_overflows_on_its_grid(alpha, homega):
    # Refused before the first check, so no check meets an overflowing block (warnings are errors here).
    with pytest.raises(ValueError, match="^the discriminant of subspace 0 overflows"):
        verify.run_checks(alpha, homega, cutoff=4)


def _norm_by_squares(entries):
    # A Frobenius norm that squares each entry: fsum raises OverflowError once the sum leaves double range.
    return math.sqrt(math.fsum(abs(x) ** 2 for x in entries))


def _sigma_z_residual_by_norms(params, n):
    # A sigma-z oracle that squares the block's entries: at alpha 5e153 the first block whose
    # norm leaves double range is n = 5, mu = 3.75e153.
    (a, b), (c, d) = verify.build_block(params, n)
    return abs(_norm_by_squares((a, -b, -c, d)) - _norm_by_squares((a, c, b, d)))


def _symmetry_report_by_squares(params, cutoff):
    # A full-space oracle whose ||H|| squares H's entries, as a dense norm does: at alpha 5e153 and
    # cutoff 8, ||H||**2 leaves double range at the row's one point, mu = 1.25e153.
    report = fullspace.symmetry_report(params, cutoff)
    return report._replace(h_norm=_norm_by_squares(fullspace.assemble_full(params, cutoff).values()))


@pytest.mark.parametrize(
    "args,name,detail,patch",
    [
        (("--alpha", "5e153", "verify", "--cutoff", "8"),
         "full-space symmetries and PT image (grading, sigma-z, parity, H_pt - H)",
         "cannot evaluate the full space at mu = 1.25e+153: intermediate overflow in fsum",
         ("symmetry_report", _symmetry_report_by_squares)),
        (("--alpha", "5e-310", "--homega", "1e-310", "verify"), "metric routes agree (eigenvectors vs closed)",
         "cannot evaluate the metric at n = 0, mu = 4e-311: metric is singular at mu = 4e-311 "
         "(coalescence for subspace n = 0)", None),
        # The row's own oracle squares nothing and evaluates at every point (see the next test).
        (("--alpha", "5e153", "verify", "--cutoff", "4"), "sigma-z pseudo-hermiticity (blocks)",
         "cannot evaluate the block at n = 5, mu = 3.75e+153: intermediate overflow in fsum",
         ("sigma_z_residual", _sigma_z_residual_by_norms)),
    ],
)
def test_verify_fails_the_first_point_an_oracle_cannot_evaluate(capsys, monkeypatch, args, name, detail, patch):
    if patch is not None:
        monkeypatch.setattr(verify, *patch)
    status = main(list(args))
    out, err = capsys.readouterr()
    assert (status, err) == (4, "")
    assert f"FAIL {name}: {detail}" in out.splitlines()


def test_verify_full_space_row_evaluates_where_its_norms_are_in_range(capsys):
    # At cutoff 4, ||H|| is 9.7e153 and every residual is 0, while ||H_pt - H|| (1.6e154) would overflow
    # when squared: the row compares H_pt - H with its closed form entry by entry, so it evaluates.
    # At cutoff 8, ||H|| (1.5e154) would itself overflow when squared; math.hypot squares no entry.
    # The block at n = 5, mu = 3.75e153 has a Frobenius norm beyond double range; the sigma-z row
    # divides by its largest |entry|, which squares nothing, so it evaluates too.
    for cutoff in (4, 8):
        status, lines = run_verify_in_process(capsys, "--alpha=5e153", cutoff=cutoff)
        assert status == 4
        assert "PASS full-space symmetries and PT image (grading, sigma-z, parity, H_pt - H): max relative " \
               "residual 0.000e+00" in lines
        assert "PASS sigma-z pseudo-hermiticity (blocks): max relative residual 0.000e+00" in lines


def test_verify_fails_the_truncated_spectrum_row_where_a_block_solver_raises(monkeypatch):
    # A ValueError inside the block check reaches the row as its FAIL line.
    def not_converged(m):
        raise ValueError("Eigenvalues did not converge")

    monkeypatch.setattr(fullspace, "eig2", not_converged)
    check = {result.name: result for result in verify.run_checks(cutoff=2)}["truncated spectrum matches block union"]
    assert check == ("truncated spectrum matches block union", False,
                     "cannot evaluate the truncated spectrum at mu = 0: Eigenvalues did not converge")


@pytest.mark.parametrize("args", [("--alpha", "3e16"), ("--alpha", "5e-310", "--homega", "1e-310")])
def test_verify_locates_the_coalescence_at_extreme_scales(args):
    # mu_c is ~1e16 at 3e16, where doubles are 2 apart, and subnormal at
    # 5e-310.  The exact discriminant places it within 2 ulps at both.
    result = run_cli(*args, "verify", "--cutoff", "4")
    assert result.stderr == ""
    lines = [line for line in result.stdout.splitlines() if "coalescence location" in line]
    assert len(lines) == 1 and lines[0].startswith("PASS coalescence location (exact discriminant sign vs closed): ")


def test_verify_fails_a_misplaced_critical_coupling(monkeypatch):
    def three_ulps_high(params, n):
        mu_c = critical_coupling(params, n)
        for _ in range(3):
            mu_c = math.nextafter(mu_c, math.inf)
        return mu_c

    for mutant in (
        lambda params, n: abs(params.delta) / (2.0 * math.sqrt(n + 2.0)),
        lambda params, n: abs(params.delta) / math.sqrt(n + 1.0),
        three_ulps_high,
    ):
        monkeypatch.setattr(verify, "critical_coupling", mutant)
        check = verify.run_checks(cutoff=2)[1]
        assert check == ("coalescence location (exact discriminant sign vs closed)", False, "max ulps 3.000e+00")


def test_verify_contract_over_extreme_parameters():
    # The inputs above, then seeded pairs over +-1e-300 .. 1e308.  Each
    # child gives a verdict or one error line, never a traceback or warning.
    pairs = [(5e153, 1.0), (5.0, 1e154), (5.0, 1e200), (5.0, 1e308), (-1.7e308, 1.7e308), (1.3e154, 1.0),
             (3e16, 1.0), (5e-310, 1e-310), (1.0, 1.0), (1e-300, 1e-300)]
    rng = random.Random(18)
    pairs += [(rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 308), 10 ** rng.uniform(-300, 308)) for _ in range(2)]
    for alpha, homega in pairs:
        result = run_cli(f"--alpha={alpha!r}", f"--homega={homega!r}", "verify", "--cutoff", "2")
        assert result.returncode in (0, 2, 4), (alpha, homega, result.stderr)
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        if result.stderr:
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
            assert result.stdout == ""


@pytest.mark.parametrize("tau", ["1e-160", "1e-320"])
def test_thermo_at_tiny_tau_broken_is_undefined(tau):
    result = run_cli("thermo", "--n", "0", "--mu", "3", "--tau", tau, python_flags=("-W", "error::RuntimeWarning"))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert "region = Broken" in lines
    for key in ("Z", "F", "S", "Cv"):
        assert f"{key} = undefined" in lines


@pytest.mark.parametrize("tau", ["1e-160", "1e-320"])
def test_sweep_at_tiny_tau_broken_is_undefined(tau):
    args = ("sweep", "--subspaces", "0", "--mu-min", "2.5", "--mu-max", "3", "--steps", "3", "--tau", tau)
    csv = run_cli(*args, python_flags=("-W", "error::RuntimeWarning"))
    assert csv.returncode == 0, csv.stderr
    assert csv.stderr == ""
    rows = csv.stdout.splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        assert row.split(",")[3:] == ["Broken", "2", "", "", "", "", "false"]
    result = run_cli(*args, "--format", "json", python_flags=("-W", "error::RuntimeWarning"))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    for row in json.loads(result.stdout, parse_constant=_reject_constant):
        assert (row["Z"], row["F"], row["S"], row["Cv"], row["valid"]) == (None, None, None, None, False)


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--n", "0", "--mu", "1e300"),
        ("thermo", "--n", "0", "--mu", "1e300"),
        ("sweep", "--mu-max", "1e300"),
        ("spectrum", "--n", "1" + "0" * 400, "--mu", "1"),
        ("thermo", "--n", "1" + "0" * 400, "--mu", "1"),
        ("sweep", "--subspaces", "1" + "0" * 400),
        ("--alpha", "1e200", "spectrum", "--n", "0", "--mu", "1"),
        ("sweep", "--mu-max", "inf"),
        ("--alpha", "nan", "sweep"),
        ("sweep", "--tau", "inf"),
        ("sweep", "--steps", str(10**12)),
        ("verify", "--cutoff", "128"),
        ("verify", "--cutoff", "1000000000"),
    ],
)
def test_out_of_range_inputs_exit_2_with_one_line(args):
    result = run_cli(*args)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.strip().splitlines()) == 1


def _closed_stdout_run(args, env, first_line):
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinosc", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    if first_line:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), stderr


@pytest.mark.parametrize("unbuffered", [pytest.param("", id="buffered"), pytest.param("1", id="unbuffered")])
def test_closed_stdout_exits_0_quietly(unbuffered):
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    # Ten blocks of ~180 kB each: the writer meets the closed pipe mid-sweep.
    sweep = ("sweep", "--subspaces", *map(str, range(10)), "--steps", "2001")
    assert _closed_stdout_run(sweep, env, b"n,mu,tau,region,mu_c,Z,F,S,Cv,valid\n") == (0, b"")
    # Closed before the interpreter is up: the short text meets it at the flush.
    thermo = ("thermo", "--n", "0", "--mu", "1")
    assert _closed_stdout_run(thermo, env, None) == (0, b"")


def _closed_fd1_run(*args):
    """A CLI run started with descriptor 1 closed, through the shell's >&-."""
    return subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "spinosc", *args], capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--n", "0", "--mu", "1"),
        ("thermo", "--n", "0", "--mu", "1"),
        ("sweep", "--steps", "3"),
        ("fig", "--id", "1", "--steps", "3", "--output", "-"),
        ("verify", "--cutoff", "4"),
    ],
)
def test_closed_stdout_at_start_exits_2_with_one_line(args):
    result = _closed_fd1_run(*args)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: standard output is closed\n")


def test_closed_stdout_does_not_stop_a_sweep_to_a_file(tmp_path):
    target = tmp_path / "rows.csv"
    result = _closed_fd1_run("sweep", "--steps", "3", "--output", str(target))
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert target.read_text() == run_cli("sweep", "--steps", "3").stdout


def _children(pid):
    """The pids of a process's children, where /proc lists them."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as listing:
            return [int(child) for child in listing.read().split()]
    except OSError:
        return []


def test_ctrl_c_exits_130_quietly_after_reaping_the_workers():
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinosc", "sweep", "--subspaces", "0", "1", "--steps", "500000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        # A child that inherits SIGINT ignored (a test run started as a background
        # job) installs no KeyboardInterrupt handler and would drop the Ctrl-C.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    assert proc.stdout.readline() == b"n,mu,tau,region,mu_c,Z,F,S,Cv,valid\n"
    assert proc.stdout.readline().startswith(b"0,0,5,Unbroken,")  # the workers are forked before any row
    workers = _children(proc.pid)
    proc.send_signal(signal.SIGINT)
    _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (130, b"")
    assert not [pid for pid in workers if os.path.exists(f"/proc/{pid}")]


@pytest.mark.parametrize("command", ["spectrum", "thermo"])
def test_negative_zero_coupling_prints_as_zero(command):
    negative, positive = run_cli(command, "--n", "0", "--mu", "-0.0"), run_cli(command, "--n", "0", "--mu", "0")
    assert negative.returncode == positive.returncode == 0
    assert (negative.stdout, negative.stderr) == (positive.stdout, positive.stderr)
    assert "mu = 0\n" in negative.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_output_write_that_fails_part_way_exits_2_with_one_line():
    result = run_cli("sweep", "--subspaces", "0", "1", "--steps", "2001", "--output", "/dev/full")
    assert result.returncode == 2
    assert result.stderr.startswith("error: could not write sweep output to /dev/full")
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("spectrum", "--n", "0", "--mu", "1"), id="spectrum"),
        pytest.param(("thermo", "--n", "0", "--mu", "1"), id="thermo"),
        pytest.param(("sweep", "--steps", "3"), id="sweep"),
        # Two subspaces of 9,000 steps: more than one grid part, so the sweep forks.
        pytest.param(("sweep", "--subspaces", "0", "1", "--steps", "9000"), id="forked-sweep"),
        pytest.param(("fig", "--id", "1", "--steps", "3"), id="fig"),
        pytest.param(("verify", "--cutoff", "4"), id="verify"),
    ],
)
def test_failed_write_to_stdout_names_it_and_exits_2(args):
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >/dev/full', "sh", sys.executable, "-m", "spinosc", *args],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    no_space = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert result.stderr == f"error: could not write to standard output: {no_space}\n"


def test_rejected_sweep_opens_no_output(tmp_path):
    existing = tmp_path / "existing.csv"
    existing.write_text("kept\n")
    result = run_cli("sweep", "--steps", str(10**12), "--output", str(existing))
    assert result.returncode == 2 and "row cap" in result.stderr
    assert existing.read_text() == "kept\n"
    new = tmp_path / "new.csv"
    result = run_cli("sweep", "--mu-max", "1e300", "--output", str(new))
    assert result.returncode == 2 and result.stderr.startswith("error: ")
    assert not new.exists()


@pytest.mark.parametrize("mu_min,steps", [("1.709958252995875e+153", 518), ("3.1780093832669478e+153", 26279)])
def test_sweep_whose_last_coupling_rounds_past_mu_max_into_overflow_opens_no_output(tmp_path, mu_min, steps):
    # mu_min + (steps - 1) * width rounds to 6.703903964971299e+153, one ulp above
    # mu_max, where the discriminant of subspace 0 overflows though it does not at
    # mu_max.  The second grid has two parts, so it would fork a worker.
    target = tmp_path / "o.csv"
    result = run_cli("sweep", "--subspaces", "0", "--mu-min", mu_min, "--mu-max", "6.703903964971298e+153",
                     "--steps", str(steps), "--output", str(target))
    assert result.returncode == 2
    assert result.stderr == "error: the discriminant of subspace 0 overflows: alpha, homega or mu is too large\n"
    assert not target.exists()


@pytest.mark.parametrize("format", ["csv", "json"])
def test_output_file_and_stdout_carry_the_same_bytes(tmp_path, format):
    args = ("sweep", "--subspaces", "3", "0", "3", "1", "--steps", "41", "--tau", "1", "--format", format)
    outputs = []
    for run in range(2):
        target = tmp_path / f"run{run}.{format}"
        to_file = run_cli(*args, "--output", str(target))
        to_stdout = run_cli(*args)
        assert to_file.returncode == to_stdout.returncode == 0
        assert to_file.stdout == to_file.stderr == to_stdout.stderr == ""
        outputs += [target.read_bytes(), to_stdout.stdout.encode()]
    assert len(set(outputs)) == 1
    assert outputs[0] == run_cli(*args[:2], "0", "1", "3", *args[6:]).stdout.encode()


@pytest.mark.parametrize(
    "args",
    [
        ("--alpha", "-1e3", "spectrum", "--n", "0", "--mu", "1"),
        ("--alpha", "-2.5e1", "spectrum", "--n", "0", "--mu", "1"),
        ("--alpha", "-1E3", "spectrum", "--n", "0", "--mu", "1"),
        ("--alpha", "-5.", "thermo", "--n", "0", "--mu", "1"),
        ("--homega", "-1e-3", "spectrum", "--n", "0", "--mu", "1"),
        ("sweep", "--steps", "3", "--mu-min", "-1e-3"),
        ("sweep", "--steps", "3", "--tau", "-1e3"),
        ("thermo", "--n", "0", "--mu", "-2.5E-1"),
    ],
)
def test_negative_numbers_in_exponent_form_read_as_values(args):
    # Each spelling must behave as its "=" form: the same stdout, stderr and exit code.
    i = next(k for k, arg in enumerate(args) if arg.startswith("-") and not arg.startswith("--"))
    joined = (*args[: i - 1], f"{args[i - 1]}={args[i]}", *args[i + 1 :])
    spaced, equals = run_cli(*args), run_cli(*joined)
    assert (spaced.returncode, spaced.stdout, spaced.stderr) == (equals.returncode, equals.stdout, equals.stderr)
    assert spaced.returncode in (0, 2) and "Traceback" not in spaced.stderr
    assert "expected one argument" not in spaced.stderr


def test_verify_fails_a_check_that_compared_no_point():
    check = verify._bounded("skipped", 1.0, "max", "the point {}", [(1,), (2,)], lambda point: None)
    assert check == ("skipped", False, "no point was compared: the residual skipped every point")


def test_verify_fails_the_dual_route_when_every_point_of_it_is_skipped():
    # Every coupling of this grid is Exceptional, so the closed Z of every dual-route point is None.
    result = run_cli("--alpha", "5e-310", "--homega", "1e-310", "verify")
    assert (result.returncode, result.stderr) == (4, "")
    assert ("FAIL partition function dual route: no point was compared: the residual skipped every point"
            in result.stdout.splitlines())

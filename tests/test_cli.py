import json
import os
import subprocess
import sys

import pytest


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


def test_verify_passes_on_defaults():
    result = run_cli("verify", "--cutoff", "6")
    assert result.returncode == 0
    assert "all 8 checks passed" in result.stdout
    assert "FAIL" not in result.stdout


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_output_write_that_fails_part_way_exits_2_with_one_line():
    result = run_cli("sweep", "--subspaces", "0", "1", "--steps", "2001", "--output", "/dev/full")
    assert result.returncode == 2
    assert result.stderr.startswith("error: could not write sweep output to /dev/full")
    assert len(result.stderr.strip().splitlines()) == 1


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

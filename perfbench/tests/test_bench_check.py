import re
from pathlib import Path

import pytest

from spinosc.sweep import SweepSpec, render_csv, render_json, run_sweep

from check import Ledger, check_verify
from workloads import Command, Grid, build

GRID = Grid(5.0, 1.0, 5.0, (0, 1, 3), 0.0, 4.0, 41)


def _command(grid):
    return Command("sweep", ("sweep", "--format", grid.fmt), grid=grid)


def _rows(grid):
    spec = SweepSpec(grid.alpha, grid.homega, grid.tau, grid.subspaces, grid.mu_min, grid.mu_max, grid.steps)
    return run_sweep(spec)


@pytest.fixture(scope="module")
def csv_text():
    return render_csv(_rows(GRID))


def _judge(command, stdout, returncode=0, stderr=""):
    ledger = Ledger(seed=7)
    ok, tally = ledger.record(command, returncode, stdout.encode(), stderr, b"")
    return ledger, ok, tally


def test_clean_csv_passes_and_is_tallied(csv_text):
    ledger, ok, tally = _judge(_command(GRID), csv_text)
    assert ok and ledger.failed == 0, ledger.problems
    assert tally["rows"] == GRID.rows == 123
    assert tally["Unbroken"] + tally["Broken"] + tally["Exceptional"] == 123
    # mu = 2 and mu = 1 sit exactly on mu_c for n = 0 and n = 3.
    assert tally["Exceptional"] == 2


def test_clean_json_passes():
    grid = Grid(41.0, 1.0, 4.0, (0, 24), 0.0, 4.0, 21, fmt="json")
    ledger, ok, tally = _judge(_command(grid), render_json(_rows(grid)))
    assert ok, ledger.problems
    assert tally["Exceptional"] == 1 and tally["Unbroken"] == 41


def _corrupt_digit(text, line_no, column):
    lines = text.split("\n")
    fields = lines[line_no].split(",")
    value = fields[column]
    i = next(k for k, ch in enumerate(value) if ch.isdigit() and ch != "0")
    fields[column] = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]
    lines[line_no] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("column", [1, 4, 5, 6, 7, 8])
def test_one_corrupted_digit_counts_a_failure(csv_text, column):
    ledger, ok, _ = _judge(_command(GRID), _corrupt_digit(csv_text, 10, column))
    assert not ok
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_nan_field_counts_a_failure(csv_text):
    lines = csv_text.split("\n")
    fields = lines[5].split(",")
    fields[7] = "nan"
    lines[5] = ",".join(fields)
    ledger, ok, _ = _judge(_command(GRID), "\n".join(lines))
    assert not ok and ledger.failed == 1
    assert any("non-finite" in p for p in ledger.problems)


def test_nan_in_json_counts_a_failure():
    grid = Grid(41.0, 1.0, 4.0, (0,), 0.0, 4.0, 5, fmt="json")
    text = re.sub(r'"S": [^,\n]+', '"S": NaN', render_json(_rows(grid)), count=1)
    ledger, ok, _ = _judge(_command(grid), text)
    assert not ok and ledger.failed == 1
    assert any("NaN" in p for p in ledger.problems)


def test_wrong_header_counts_a_failure(csv_text):
    ledger, ok, _ = _judge(_command(GRID), csv_text.replace("Cv,valid", "Cv,ok", 1))
    assert not ok


def test_exit_code_one_counts_a_failure(csv_text):
    ledger, ok, _ = _judge(_command(GRID), csv_text, returncode=1)
    assert not ok and ledger.failed == 1
    assert "exit code 1" in ledger.problems[0]


def test_traceback_or_runtime_warning_on_stderr_counts_a_failure(csv_text):
    for stderr in ("Traceback (most recent call last):\n", "x.py:1: RuntimeWarning: overflow\n"):
        ledger, ok, _ = _judge(_command(GRID), csv_text, stderr=stderr)
        assert not ok


def test_second_output_must_be_byte_identical(csv_text):
    ledger = Ledger(seed=7)
    command = _command(GRID)
    assert ledger.record(command, 0, csv_text.encode(), "", b"")[0]
    assert ledger.record(command, 0, csv_text.encode(), "", b"")[0]
    assert not ledger.record(command, 0, csv_text.replace("\n", "\r\n").encode(), "", b"")[0]
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_verify_summary_rules():
    good = "PASS a: x\nPASS b: y\nall 2 checks passed\n"
    assert not check_verify(good)
    assert check_verify("PASS a: x\nFAIL b: y\n1 of 2 checks failed\n")
    assert check_verify("PASS a: x\nall 2 checks passed\n")


def test_workload_seed_moves_inputs_but_not_row_counts(tmp_path: Path):
    for name in ("cli-mix", "grid-sweep-csv", "unbroken-sweep-json"):
        a, b, again = build(name, 1, tmp_path), build(name, 2, tmp_path), build(name, 1, tmp_path)
        assert a == again
        assert a != b
        rows = lambda w: sorted(c.grid.rows for c in w.commands if c.grid)
        assert rows(a) == rows(b)
    assert [c.grid.rows for c in build("grid-sweep-csv", 3, tmp_path).commands] == [100050]
    assert [c.grid.rows for c in build("unbroken-sweep-json", 3, tmp_path).commands] == [50025]

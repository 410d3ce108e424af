"""A large sweep is evaluated and rendered by one process per CPU: the same bytes, and no process left behind.

Every test pins the CPU count by monkeypatching os.sched_getaffinity, so
the machine's own count never decides which path runs.
"""

import json
import os
import signal

import pytest

from spinosc import sweep
from spinosc.cli import main
from spinosc.sweep import SweepSpec, emit, render_json, run_sweep

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the multi-process path needs os.fork")

GRID_SWEEP = ["sweep", "--subspaces", *map(str, range(50)), "--steps", "2001", "--tau", "5.1",
              "--mu-min", "0.02", "--mu-max", "4.01"]
UNBROKEN_SWEEP = ["--alpha", "41", "sweep", "--subspaces", *map(str, range(25)), "--steps", "2001", "--tau", "4.9",
                  "--mu-min", "0.03", "--mu-max", "4"]


def _pin(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _count_forks(monkeypatch):
    """The pids of the workers forked from here on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(argv, monkeypatch, capsys, cpus, output=None):
    """(exit code, bytes written, workers forked) of main(argv) with `cpus` CPUs pinned."""
    _pin(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    code = main([*argv, "--output", str(output)] if output else argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    _no_child_left()
    return code, output.read_bytes() if output else captured.out.encode(), len(forks)


@pytest.mark.parametrize(
    "argv,units",
    [
        pytest.param([*GRID_SWEEP, "--format", "csv"], 50, id="grid-sweep-csv"),
        pytest.param([*GRID_SWEEP, "--format", "json"], 50, id="grid-sweep-json"),
        pytest.param([*UNBROKEN_SWEEP, "--format", "json"], 25, id="unbroken-sweep-json"),
        pytest.param([*UNBROKEN_SWEEP, "--format", "csv"], 25, id="unbroken-sweep-csv"),
        # Three parts of 16,384, 16,384 and 7,233 steps per subspace.
        pytest.param(["sweep", "--subspaces", "0", "7", "--steps", "40001"], 6, id="parts-csv"),
        # One subspace: the units are the four parts of its grid.
        pytest.param(["sweep", "--steps", "50001", "--format", "json"], 4, id="parts-json"),
        # Duplicate, out-of-order subspaces: three units, fewer than the CPUs.
        pytest.param(["sweep", "--subspaces", "3", "0", "3", "1", "--steps", "6000", "--tau", "1"], 3,
                     id="duplicates-csv"),
    ],
)
def test_workers_write_the_bytes_of_one_process(argv, units, tmp_path, monkeypatch, capsys):
    code, expected, forks = _run(argv, monkeypatch, capsys, 1, tmp_path / "one")
    assert (code, forks) == (0, 0)
    # Two CPUs, to a file: one worker.  Four CPUs, to stdout: min(4, units)
    # processes, this one and the workers.
    assert _run(argv, monkeypatch, capsys, 2, tmp_path / "two") == (0, expected, 1)
    assert _run(argv, monkeypatch, capsys, 4) == (0, expected, min(4, units) - 1)


def test_one_process_writes_the_bytes_of_the_blocks(tmp_path, monkeypatch, capsys):
    argv = ["sweep", "--subspaces", "3", "0", "3", "1", "--steps", "6000", "--tau", "1", "--format", "json"]
    _, written, _ = _run(argv, monkeypatch, capsys, 1, tmp_path / "one.json")
    spec = SweepSpec(5.0, 1.0, 1.0, (3, 0, 3, 1), 0.0, 4.0, 6000)
    assert written == render_json(run_sweep(spec)).encode()


def _forbid_fork(monkeypatch):
    def forked():
        raise AssertionError("a small sweep forked")

    monkeypatch.setattr(os, "fork", forked)


@pytest.mark.parametrize(
    "argv",
    [
        ["fig", "--id", "1"],
        ["fig", "--id", "2", "--format", "json"],
        ["fig", "--id", "3"],
        ["sweep"],
        ["sweep", "--format", "json"],
        # 16,384 rows, one part's worth, over two subspaces.
        ["sweep", "--subspaces", "0", "1", "--steps", "8192"],
    ],
)
def test_small_sweeps_never_fork(argv, monkeypatch, capsys):
    _pin(monkeypatch, 2)
    _forbid_fork(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_one_step_past_one_part_forks(monkeypatch, capsys):
    argv = ["sweep", "--subspaces", "0", "1", "--steps", "8193"]
    assert _run(argv, monkeypatch, capsys, 2)[2] == 1


def test_this_process_runs_no_other_thread():
    # conftest.py caps BLAS at one thread before numpy loads; a pool would
    # keep every sweep here in one process, and the fork tests would fail.
    assert not sweep._other_threads()


def test_other_os_threads_keep_the_sweep_in_one_process(monkeypatch, capsys):
    # A BLAS pool is OS threads that Python's threading module does not see.
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: ["1", "2"] if path == "/proc/self/task" else listdir(path))
    assert sweep._other_threads()
    _pin(monkeypatch, 2)
    _forbid_fork(monkeypatch)
    assert main(["sweep", "--subspaces", "0", "1", "--steps", "8193"]) == 0


def test_other_python_threads_keep_the_sweep_in_one_process_without_proc(monkeypatch, capsys):
    import threading

    def no_proc(path):
        raise FileNotFoundError(2, "No such file or directory", path)

    monkeypatch.setattr(os, "listdir", no_proc)
    assert not sweep._other_threads()
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert sweep._other_threads()
    _pin(monkeypatch, 2)
    _forbid_fork(monkeypatch)
    assert main(["sweep", "--subspaces", "0", "1", "--steps", "8193"]) == 0


def test_a_refused_sweep_forks_nothing_and_opens_no_output(tmp_path, monkeypatch, capsys):
    _pin(monkeypatch, 2)
    _forbid_fork(monkeypatch)
    existing = tmp_path / "existing.csv"
    existing.write_text("kept\n")
    assert main(["sweep", "--subspaces", "0", "1", "--steps", "500001", "--output", str(existing)]) == 2
    assert existing.read_text() == "kept\n"
    new = tmp_path / "new.csv"
    assert main(["sweep", "--steps", "50001", "--mu-max", "1e300", "--output", str(new)]) == 2
    assert not new.exists()
    assert capsys.readouterr().err.count("error: ") == 2


SPEC = SweepSpec(5.0, 1.0, 5.0, (0, 1, 2, 3), 0.0, 4.0, 8000)


def test_emit_refuses_blocks_before_it_forks_or_opens(tmp_path, monkeypatch):
    # SPEC itself would fork a worker on two CPUs; its blocks fork nothing.
    _pin(monkeypatch, 2)
    _forbid_fork(monkeypatch)
    blocks = run_sweep(SPEC)
    existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
    existing.write_text("kept\n")
    for target in (existing, new):
        with pytest.raises(TypeError, match="^emit takes a SweepSpec, got list; "):
            emit(blocks, "csv", target)
    assert existing.read_text() == "kept\n"
    assert not new.exists()


class _Failing:
    """A destination whose third write raises `error`."""

    def __init__(self, error):
        self.error, self.writes = error, 0

    def write(self, text):
        self.writes += 1
        if self.writes == 3:
            raise self.error


@pytest.mark.parametrize("error", [BrokenPipeError, KeyboardInterrupt])
def test_a_failed_write_reaps_every_worker(error, monkeypatch):
    _pin(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    with pytest.raises(error):
        emit(SPEC, "csv", _Failing(error()))
    assert len(forks) == 2
    _no_child_left()


def test_an_interrupt_in_this_process_reaps_every_worker(monkeypatch):
    _pin(monkeypatch, 2)
    parent, kernel, calls = os.getpid(), sweep.closed_forms, []

    def interrupted(*args):
        if os.getpid() == parent:
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
        return kernel(*args)

    monkeypatch.setattr(sweep, "closed_forms", interrupted)
    with pytest.raises(KeyboardInterrupt), open(os.devnull, "w") as handle:
        emit(SPEC, "json", handle)
    _no_child_left()


def _failing_worker(monkeypatch, how):
    parent, kernel = os.getpid(), sweep.closed_forms

    def failing(*args):
        if os.getpid() != parent:
            how()
        return kernel(*args)

    monkeypatch.setattr(sweep, "closed_forms", failing)


def _raise():
    raise ValueError("a worker's own error")


@pytest.mark.parametrize(
    "how,status",
    [(_raise, "exited with status 1"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9")],
)
def test_a_failing_worker_exits_2_with_one_line(how, status, tmp_path, monkeypatch, capsys):
    _pin(monkeypatch, 3)
    _failing_worker(monkeypatch, how)
    assert main(["sweep", "--subspaces", "0", "1", "2", "--steps", "8000", "--output", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sweep worker 1 of 2 {status} before sending all its rows\n"
    _no_child_left()


def test_a_worker_that_cannot_start_exits_2_with_one_line(monkeypatch, capsys):
    _pin(monkeypatch, 2)

    def unavailable():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", unavailable)
    assert main(["sweep", "--subspaces", "0", "1", "--steps", "8193", "--output", os.devnull]) == 2
    assert capsys.readouterr().err == (
        "error: could not start a sweep worker: [Errno 11] Resource temporarily unavailable\n"
    )
    _no_child_left()


def test_a_worker_without_a_pipe_exits_2_naming_the_worker_not_stdout(monkeypatch, capsys):
    _pin(monkeypatch, 2)

    def unavailable():
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(os, "pipe", unavailable)
    assert main(["sweep", "--subspaces", "0", "1", "--steps", "8193"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: could not start a sweep worker: [Errno 24] Too many open files\n"
    _no_child_left()


def test_each_process_formats_each_of_its_parts_once_and_no_observable(tmp_path, monkeypatch):
    # The sibling of test_sweep.py's number-rule test, with two processes:
    # each process logs its calls of _json_numbers to a file of its own.
    _pin(monkeypatch, 2)
    numbers = sweep._json_numbers

    def logged(values):
        with open(tmp_path / f"calls-{os.getpid()}", "a") as handle:
            handle.write(json.dumps(values) + "\n")
        return numbers(values)

    monkeypatch.setattr(sweep, "_json_numbers", logged)
    subspaces = [str(n) for n in range(25)]
    argv = ["--alpha", "41", "sweep", "--subspaces", *subspaces, "--steps", "2001", "--tau", "5", "--format", "json"]
    assert main([*argv, "--output", str(tmp_path / "sweep.json")]) == 0
    _no_child_left()
    calls = {
        int(log.name.partition("-")[2]): [json.loads(line) for line in log.read_text().splitlines()]
        for log in tmp_path.glob("calls-*")
    }
    blocks = run_sweep(SweepSpec(41.0, 1.0, 5.0, tuple(range(25)), 0.0, 4.0, 2001))
    mu = blocks[0].mu.tolist()
    # Unit i goes to process i mod 2, and this process is process 0.
    assert calls.pop(os.getpid()) == [mu] + [[5.0, block.mu_c] for block in blocks[0::2]]
    assert list(calls.values()) == [[mu] + [[5.0, block.mu_c] for block in blocks[1::2]]]

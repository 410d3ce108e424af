"""Checkout layout and child-process launching shared by both runs."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120.0


def blas_cap() -> int:
    """CPUs this process may run on: the BLAS thread cap for every child."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env(cap: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update((var, str(cap)) for var in BLAS_VARS)
    return env


@dataclass(frozen=True)
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: str


def run_child(argv: list[str], env: dict[str, str]) -> Child:
    """Run `python *argv` to completion.

    Wall time runs from spawn to reap; peak RSS comes from wait4.  A child
    still running after CHILD_TIMEOUT_S is killed, and none is left behind.
    """
    out_path, err_path = OUT / "child.out", OUT / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_text(errors="replace")
    )

"""Layered benchmark of the spinosc CLI.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  With --trace 0 it launches fresh
`python -m spinosc ...` children one at a time (a closed loop with one
client) and reports the end-to-end metrics; with --trace 1 it calls the same
commands in-process through `spinosc.cli.main` with every public library
function wrapped in a span, and reports per-layer metrics.  Every output is
checked (see check.py).  The last line of stdout is the JSON result; the
lines before it are a readable report, and the same result with the
environment record is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from children import BLAS_VARS, OUT, ROOT, SRC, blas_cap, child_env, run_child
from workloads import WORKLOADS, build

# Fresh `import spinosc` interpreters timed before the loop; one more is
# timed after every cycle, so setup_s samples the whole run.
SETUP_AT_START = 3
# The workload whose invocation tail is reported, and the percentile it runs
# long enough to reach on any machine.  A sweep run has too few children.
TAIL_WORKLOAD, TAIL_PCT = "cli-mix", 90.0


def time_setup(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter running `import spinosc`."""
    child = run_child(["-c", "import spinosc"], env)
    if child.returncode != 0:
        raise RuntimeError(f"`import spinosc` failed: {child.stderr.strip()}")
    return child.wall_s


def measure_cli(workload, seconds: float, seed: int, env: dict[str, str]) -> dict:
    # check imports spinosc, which is importable only once main() has put src/ on sys.path.
    from check import Ledger
    from stats import median, samples_needed, tail

    ledger = Ledger(seed)
    time_setup(env)  # compiles bytecode and fills the file cache; not kept
    setup = [time_setup(env) for _ in range(SETUP_AT_START)]

    def invoke(command):
        command.clear_output()
        child = run_child(["-m", "spinosc", *command.argv], env)
        _, tally = ledger.record(command, child.returncode, child.stdout, child.stderr, command.read_output())
        return child, tally["rows"]

    # The first child meets a cold file cache; its output is checked but its
    # time is not kept.  Interpreter start and import stay in every sample.
    invoke(workload.commands[0])
    walls, rss, row_walls, rows_total = [], [], 0.0, 0
    reports_tail = workload.name == TAIL_WORKLOAD
    min_children = samples_needed(TAIL_PCT) if reports_tail else 0
    start = time.perf_counter()
    cycles = 0
    while len(walls) < min_children or time.perf_counter() - start < seconds:
        for command in workload.commands:
            child, rows = invoke(command)
            walls.append(child.wall_s)
            rss.append(child.maxrss_mb)
            if command.grid is not None:
                row_walls += child.wall_s
                rows_total += rows
        setup.append(time_setup(env))
        cycles += 1
    report = {"failed_frac": (ledger.failed / ledger.attempted, "ratio")}
    if reports_tail:
        tail_value, tail_label, beyond = tail(walls)
        report["invocation_tail_ms"] = (tail_value * 1e3, f"ms ({tail_label} of {len(walls)}, {beyond} beyond)")
    return {
        "ledger": ledger,
        "metrics": {
            "setup_s": (median(setup), "s"),
            "invocation_p50_ms": (median(walls) * 1e3, "ms"),
            "rows_per_s": (rows_total / row_walls, "1/s"),
            "peak_rss_mb": (max(rss), "MB"),
        },
        "report": report,
        "details": {
            "invocations": len(walls),
            "cycles": cycles,
            "rows_measured": rows_total,
            "setup_samples": len(setup),
        },
        "samples": {"invocation_ms": [w * 1e3 for w in walls], "setup_s": setup},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(cap: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_cap": cap,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinosc" / "__init__.py").is_file():
        print(f"error: no spinosc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cap = blas_cap()
    env = child_env(cap)
    # The traced run computes in this process: cap BLAS before numpy loads.
    os.environ.update((var, env[var]) for var in BLAS_VARS)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    workload = build(args.workload, args.seed, OUT)
    if args.trace:
        from trace_run import measure_traced

        result = measure_traced(workload, args.seconds, args.seed, env)
    else:
        result = measure_cli(workload, args.seconds, args.seed, env)

    ledger = result["ledger"]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rows_per_invocation": {" ".join(c.argv[:3]): c.grid.rows for c in workload.commands if c.grid},
        "environment": environment(cap),
        "details": result["details"],
        "samples": result.get("samples", {}),
        "problems": ledger.problems,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
        "report_only": {name: {"value": value, "unit": unit} for name, (value, unit) in result["report"].items()},
    }
    out_file = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}")
    for key, value in record["details"].items():
        print(f"  {key}: {value}")
    for name, metric in {**record["metrics"], **record["report_only"]}.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")
    print(f"  attempted {ledger.attempted}, failed {ledger.failed}; full record in {out_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced in-process run: per-layer counts and self times.

The workload's commands are called through `spinosc.cli.main(argv)` in this
process.  Passes alternate untraced and traced; only the traced passes feed
the span recorder, and the wall-time difference between the two is the
tracing overhead.  Only the functions the metrics name are wrapped (SPANNED);
a helper they call untraced counts in its caller's self time.  Self times
are net of the tracer's cost per span, measured before the run.  Metrics a
workload never exercises read 0.
"""

from __future__ import annotations

import io
import time
import traceback
import warnings
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout

from check import Ledger
from children import OUT, SRC, run_child
from spans import SpanRecorder, calibrate, instrument
from stats import median

IMPORTTIME_REPEATS = 5
CLI_COMMANDS = ("spectrum", "thermo", "sweep", "fig", "verify")
THERMO_FUNCTIONS = ("thermo_point", "partition_function", "entropy", "specific_heat", "finite_diff_check")
SPANNED = frozenset(
    {
        "cli.main",
        "cli.build_parser",
        *(f"thermo.{name}" for name in THERMO_FUNCTIONS),
        "metric.eta",
        "metric.eta_from_vectors",
        "smallmat.expm2",
        "smallmat.eig2",
        "smallmat.eigN",
        "spectral.classify",
        "model.build_block",
        "sweep.run_sweep",
        "sweep.render_csv",
        "sweep.render_json",
        "sweep.emit",
        "fullspace.assemble_full",
        "fullspace.block_decomposition_check",
        "verify.run_checks",
    }
)


def parse_importtime(stderr: str) -> tuple[float, float, float]:
    """(interpreter, numpy, spinosc self) milliseconds from `-X importtime` output.

    interpreter: cumulative time of the top-level imports other than spinosc
    (the interpreter's own start-up imports); numpy: cumulative time of the
    numpy package; spinosc self: summed self time of spinosc's own modules.
    """
    interpreter = numpy_us = spinosc_self = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        own, cumulative, raw = int(fields[0]), int(fields[1]), fields[2]
        name = raw.strip()
        top_level = len(raw) - len(raw.lstrip()) == 1
        if name == "spinosc" or name.startswith("spinosc."):
            spinosc_self += own
        elif top_level:
            interpreter += cumulative
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return interpreter / 1e3, numpy_us / 1e3, spinosc_self / 1e3


def measure_imports(env) -> tuple[float, float, float]:
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        child = run_child(["-X", "importtime", "-c", "import spinosc"], env)
        if child.returncode != 0:
            raise RuntimeError(f"`import spinosc` failed: {child.stderr.strip()}")
        samples.append(parse_importtime(child.stderr))
    return tuple(median(column) for column in zip(*samples))


def measure_traced(workload, seconds: float, seed: int, env) -> dict:
    import spinosc
    import spinosc.cli

    if not spinosc.__file__.startswith(str(SRC)):
        raise RuntimeError(f"spinosc imported from {spinosc.__file__}, not from {SRC}")
    ledger = Ledger(seed)
    imports = measure_imports(env)
    recorder = SpanRecorder()
    recorder.inside_ns, recorder.outside_ns = calibrate()
    # Per command name, one sample per pass: the mean wall time of that
    # name's calls in the pass.  cli-mix runs `verify` at two cutoffs and
    # `fig` for three ids, so a pass mean follows one fixed mix of calls.
    command_walls = defaultdict(list)
    tally = Counter()

    def one_pass(keep: bool) -> float:
        wall = 0.0
        pass_walls = defaultdict(list)
        for command in workload.commands:
            out, err = io.StringIO(), io.StringIO()
            command.clear_output()
            with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    code = spinosc.cli.main(list(command.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    code = None
                    err.write(traceback.format_exc())
                elapsed = time.perf_counter() - start
            stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
            stdout = out.getvalue().encode()
            output = command.read_output()
            _, row_tally = ledger.record(command, code, stdout, stderr, output)
            wall += elapsed
            if keep:
                pass_walls[command.name].append(elapsed)
                tally.update(row_tally)
                if command.grid is not None:
                    tally["bytes"] += len(output or stdout)
                    tally[f"rows_{command.grid.fmt}"] += row_tally["rows"]
        for name, walls in pass_walls.items():
            command_walls[name].append(sum(walls) / len(walls))
        return wall

    # Warm-up: first eigensolves and cold caches are not measured.
    one_pass(keep=False)
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        untraced += one_pass(keep=True)
        restore = instrument(recorder, "spinosc", SPANNED)
        try:
            traced += one_pass(keep=False)
        finally:
            restore()
        passes += 1
    recorder.dump(OUT / f"spans-{workload.name}-seed{seed}.json")

    def calls(name):
        return recorder.totals(name)[0]

    def self_per_call(name, scale):
        count, own = recorder.totals(name)
        return own / count / scale if count else 0.0

    def per_point(name):
        points = calls("thermo.thermo_point")
        return recorder.calls_within(name, "thermo.thermo_point") / points if points else 0.0

    def self_per_row(name, rows):
        return recorder.totals(name)[1] / rows / 1e3 if rows else 0.0

    main_calls = calls("cli.main")
    metrics = {
        "import.interpreter_ms": (imports[0], "ms"),
        "import.numpy_ms": (imports[1], "ms"),
        "import.spinosc_self_ms": (imports[2], "ms"),
        "cli.overhead_ms": (
            (recorder.totals("cli.main")[1] + recorder.totals("cli.build_parser")[1]) / main_calls / 1e6
            if main_calls
            else 0.0,
            "ms",
        ),
    }
    for name in CLI_COMMANDS:
        walls = command_walls.get(name)
        metrics[f"cli.{name}.p50_ms"] = (median(walls) * 1e3 if walls else 0.0, "ms")
    for name in THERMO_FUNCTIONS:
        metrics[f"thermo.{name}.calls"] = (calls(f"thermo.{name}") / passes, "count")
        metrics[f"thermo.{name}.self_us"] = (self_per_call(f"thermo.{name}", 1e3), "us")
    metrics.update(
        {
            "metric.eta.us": (self_per_call("metric.eta", 1e3), "us"),
            "metric.eta_from_vectors.us": (self_per_call("metric.eta_from_vectors", 1e3), "us"),
            "smallmat.expm2.us": (self_per_call("smallmat.expm2", 1e3), "us"),
            "smallmat.eig2.calls": (calls("smallmat.eig2") / passes, "count"),
            "spectral.classify.calls_per_point": (per_point("spectral.classify"), "calls/point"),
            "model.build_block.calls_per_point": (per_point("model.build_block"), "calls/point"),
            "sweep.run_sweep.self_us_per_row": (self_per_row("sweep.run_sweep", tally["rows"]), "us/row"),
            "sweep.render_csv.us_per_row": (self_per_row("sweep.render_csv", tally["rows_csv"]), "us/row"),
            "sweep.render_json.us_per_row": (self_per_row("sweep.render_json", tally["rows_json"]), "us/row"),
            "sweep.emit.ms": (self_per_call("sweep.emit", 1e6), "ms"),
            "sweep.output_bytes": (tally["bytes"] / passes, "bytes"),
            "sweep.rows": (tally["rows"] / passes, "count"),
            "sweep.rows_unbroken": (tally["Unbroken"] / passes, "count"),
            "sweep.rows_broken": (tally["Broken"] / passes, "count"),
            "sweep.rows_exceptional": (tally["Exceptional"] / passes, "count"),
            "sweep.valid_frac": (tally["valid"] / tally["rows"] if tally["rows"] else 0.0, "ratio"),
            "fullspace.assemble_full.ms": (self_per_call("fullspace.assemble_full", 1e6), "ms"),
            "fullspace.block_decomposition_check.ms": (
                self_per_call("fullspace.block_decomposition_check", 1e6),
                "ms",
            ),
            "smallmat.eigN.ms": (self_per_call("smallmat.eigN", 1e6), "ms"),
            "verify.run_checks.ms": (self_per_call("verify.run_checks", 1e6), "ms"),
            "trace.overhead_frac": ((traced - untraced) / untraced, "ratio"),
        }
    )
    return {
        "ledger": ledger,
        "metrics": metrics,
        "report": {"failed_frac": (ledger.failed / ledger.attempted, "ratio")},
        "details": {
            "passes": passes,
            "untraced_pass_s": untraced / passes,
            "traced_pass_s": traced / passes,
            "span_nodes": sum(1 for _ in recorder.nodes()),
            "spans_per_pass": recorder.span_count() / passes,
            "span_cost_inside_ns": recorder.inside_ns,
            "span_cost_outside_ns": recorder.outside_ns,
            # The overhead the calibrated span cost predicts; near
            # trace.overhead_frac when the netting is sound.
            "predicted_overhead_frac": recorder.span_count()
            * (recorder.inside_ns + recorder.outside_ns)
            / 1e9
            / untraced,
        },
    }

"""Coupling sweeps over subspaces and deterministic CSV/JSON emission.

A sweep's units are its distinct subspaces, in ascending n, times the parts
of its mu grid of at most _PART_ROWS steps each.  The kernel
thermo.closed_forms evaluates one unit per call.  emit, given the sweep's
SweepSpec, is the one way to write a sweep; run_sweep returns every unit's
block, and render_csv and render_json render blocks in memory.
Rows within EP_WINDOW * |homega - alpha| of a critical coupling are tagged
Exceptional and carry no observables; undefined values serialize as empty
CSV fields / JSON nulls, never as sentinel numbers.

emit writes one unit at a time and formats the mu texts of each grid part
once per process.  Where the grid has more rows than one part, it evaluates
and renders the units in one process per CPU this process may run on
(os.sched_getaffinity), up to one per unit: unit i goes to process i mod k,
where this process is process 0 and the others are forked workers that send
their texts back through pipes.  This process writes every text in
unit order, so the bytes are those of one process.  Smaller grids, and
processes without os.fork or with other threads running (a BLAS pool
among them), use this process alone.  SweepSpec validates the whole grid
when it is built, so a sweep is refused before emit opens its destination.

A renderer builds a block's text with one `%` over its defined observables:
each row is a head (n), its mu text and the template of its kernel code,
with tau, mu_c, the region and the valid flag baked in.  A JSON number is
json's own for the value's .12g text, repr(float(.12g text)); it is applied
only where one cheap test, on the whole text and then on each text, says a
text may differ.  Output is byte-identical for identical inputs.
"""

from __future__ import annotations

import io
import math
import os
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator
from numbers import Integral
from typing import NamedTuple, NoReturn

from .model import ModelParams, check_subspace_index
from .spectral import critical_coupling, phase_rule
from .thermo import ClosedForms, _check_tau, closed_forms, row_kind

__all__ = ["SweepSpec", "SweepBlock", "run_sweep", "emit", "CSV_HEADER", "MAX_ROWS", "EP_WINDOW"]

CSV_HEADER = "n,mu,tau,region,mu_c,Z,F,S,Cv,valid"

MAX_ROWS = 1_000_000
"""Largest grid a sweep evaluates: distinct subspaces times steps.

The kernel evaluates, and emit writes, at most _PART_ROWS steps at a time;
README gives the peak resident memory this costs per process.  Split a
larger grid into several sweeps.
"""


EP_WINDOW = 2.5e-7
"""Half-width around each subspace's mu_c, in units of |homega - alpha|: 1e-6 at the defaults, and scale-free."""


class SweepSpec(namedtuple("SweepSpec", "alpha homega tau subspaces mu_min mu_max steps")):
    """Grid description: mu in [mu_min, mu_max] with `steps` uniform points per subspace.

    Rows within EP_WINDOW * |homega - alpha| of each subspace's own mu_c join the
    Exceptional run, the middle one of the kernel's three runs (unbroken, Exceptional, broken).

    Stored canonical: the subspaces distinct and ascending, every energy a float (0.0 for -0.0).
    """

    __slots__ = ()

    def __new__(
        cls,
        alpha: float,
        homega: float,
        tau: float,
        subspaces: tuple[int, ...],
        mu_min: float,
        mu_max: float,
        steps: int,
    ):
        tau = _check_tau(tau)
        for name, value in (("mu_min", mu_min), ("mu_max", mu_max)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not subspaces:
            raise ValueError("at least one subspace index is required")
        subspaces = tuple(sorted({check_subspace_index(n) for n in subspaces}))
        if mu_min < 0.0:
            raise ValueError(f"mu_min must be nonnegative, got {mu_min}")
        if not mu_min < mu_max:
            raise ValueError(f"mu_min must be below mu_max, got [{mu_min}, {mu_max}]")
        if isinstance(steps, bool) or not isinstance(steps, Integral) or steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
        mu_min = float(mu_min) + 0.0  # + 0.0 turns -0.0 into 0.0
        # ModelParams checks alpha and homega; |disc| peaks in the top subspace at mu_max or _units' last point.
        params, width = ModelParams(alpha, homega, mu_max), (float(mu_max) - mu_min) / (steps - 1)
        phase_rule(params.delta, subspaces[-1])(max(params.mu, mu_min + (steps - 1) * width))
        if len(subspaces) * steps > MAX_ROWS:
            raise ValueError(f"{len(subspaces)} subspaces x {steps} steps exceeds the {MAX_ROWS} row cap")
        return super().__new__(cls, params.alpha, params.homega, tau, subspaces, mu_min, params.mu, steps)

    @classmethod
    def _make(cls, iterable):
        """Build from an iterable through __new__'s checks; _replace builds through this too."""
        return cls(*iterable)


class SweepBlock(NamedTuple):
    """One subspace's sweep over one part of the mu grid: the kernel's output for it."""

    n: int
    mu_c: float
    mu: array
    tau: float
    columns: ClosedForms


_PART_ROWS = 1 << 14
"""Most steps the kernel evaluates, and a renderer formats, at a time."""


def _units(spec: SweepSpec) -> list[tuple[int, float, array]]:
    """The sweep's units, n-major: (n, mu_c, part) per distinct subspace in ascending n and part of the mu grid.

    A part is at most _PART_ROWS steps; the units of a part share its mu array.
    """
    width = (spec.mu_max - spec.mu_min) / (spec.steps - 1)
    parts = [
        array("d", [spec.mu_min + i * width for i in range(start, min(start + _PART_ROWS, spec.steps))])
        for start in range(0, spec.steps, _PART_ROWS)
    ]
    mu_cs = [critical_coupling(ModelParams(spec.alpha, spec.homega, 0.0), n) for n in spec.subspaces]
    return [(n, mu_c, part) for n, mu_c in zip(spec.subspaces, mu_cs) for part in parts]


def _evaluate(spec: SweepSpec, unit: tuple[int, float, array]) -> SweepBlock:
    """One unit's block: the kernel over its part of the mu grid."""
    n, mu_c, part = unit
    window = EP_WINDOW * abs(spec.homega - spec.alpha)
    return SweepBlock(n, mu_c, part, spec.tau, closed_forms(spec.alpha, spec.homega, n, part, spec.tau, window))


def run_sweep(spec: SweepSpec) -> list[SweepBlock]:
    """Evaluate the grid: per distinct subspace in ascending n, one block per part of the mu grid."""
    return [_evaluate(spec, unit) for unit in _units(spec)]


def _csv_numbers(values: list[float]) -> list[str]:
    """The .12g text of every value, by one % operation."""
    return ("%.12g\n" * len(values) % tuple(values)).split("\n")[:-1]


def _json_may_differ(text: str, numbers: int) -> bool:
    """Whether a .12g text among the `numbers` in text may differ from json's number for it, repr(float(text)).

    Only an integer text (no "."), an exponent 12 to 15 (a "+"; repr writes
    it positionally) and a subnormal (an "e-3"; its repr can be shorter) can.
    """
    return text.count(".") < numbers or "+" in text or "e-3" in text


def _json_numbers(values: list[float]) -> list[str]:
    """The JSON number json.dumps writes for float of the .12g text, for every value."""
    text = "%.12g\n" * len(values) % tuple(values)
    texts = text.split("\n")[:-1]
    if _json_may_differ(text, len(values)):
        texts = [repr(float(t)) if _json_may_differ(t, 1) else t for t in texts]
    return texts


_JSON_KEYS = ("n", "mu", "tau", "region", "mu_c", "Z", "F", "S", "Cv", "valid")
_FLAGS = ("false", "true")


def _render(block: SweepBlock, mu_texts: list[str], args: list[float], head: str, sep: str, template) -> str:
    """The block's rows, each head + mu text + its template, filled by one % from args.

    template(region, valid, defined) serves every row of one kernel code;
    defined holds a flag per observable.  sep and the next row's head
    follow it, and are cut after the last row.
    """
    codes = block.columns.codes
    templates = {}
    for code in set(codes):
        region, defined = row_kind(code)
        templates[code] = template(region.value, _FLAGS[all(defined[1:])], defined) + sep + head
    pieces = [head] * (2 * len(codes) + 1)
    pieces[1::2] = mu_texts
    pieces[2::2] = map(templates.__getitem__, codes)
    pieces[-1] = pieces[-1][: -len(sep + head)]
    return "".join(pieces) % tuple(args)


def render_csv(block: SweepBlock | list[SweepBlock], mu_texts: list[str] | None = None) -> str:
    """The CSV lines of one block; of a list of blocks, as run_sweep returns, the whole document in memory.

    mu_texts, if given, are the block's mu values as _csv_numbers formats them.
    """
    if not isinstance(block, SweepBlock):
        return _document(block, "csv")
    if mu_texts is None:
        mu_texts = _csv_numbers(block.mu.tolist())
    tau, mu_c = _csv_numbers([block.tau, block.mu_c])

    def template(region, valid, defined):
        return ",".join(["", tau, region, mu_c, *(("", "%.12g")[flag] for flag in defined), valid]) + "\n"

    return _render(block, mu_texts, block.columns.values, f"{block.n},", "", template)


def render_json(block: SweepBlock | list[SweepBlock], mu_texts: list[str] | None = None) -> str:
    """The JSON records of one block, joined by ',\\n'; of a list of blocks, the whole document.

    The document is the text of json.dumps(payload, indent=2), written
    without the pure-Python encoder.  mu_texts, if given, are the block's mu
    values as _json_numbers formats them.
    """
    if not isinstance(block, SweepBlock):
        return _document(block, "json")
    if mu_texts is None:
        mu_texts = _json_numbers(block.mu.tolist())
    tau, mu_c = _json_numbers([block.tau, block.mu_c])

    def template(region, valid, defined, number="%.12g"):
        texts = (tau, f'"{region}"', mu_c, *(("null", number)[flag] for flag in defined), valid)
        return "".join(f',\n    "{key}": {text}' for key, text in zip(_JSON_KEYS[2:], texts)) + "\n  }"

    head = f'  {{\n    "n": {block.n},\n    "mu": '
    args = block.columns.values
    text = _render(block, mu_texts, args, head, ",\n", template)
    # Each record holds mu, tau and mu_c, already JSON numbers, and its defined
    # observables; where one may differ, they are rendered again as JSON numbers.
    if _json_may_differ(text, 3 * len(block.columns.codes) + len(args)):
        text = _render(block, mu_texts, _json_numbers(args), head, ",\n", lambda *kind: template(*kind, "%s"))
    return text


def _unit_texts(spec: SweepSpec, units: list, format: str) -> Iterator[str]:
    """Each unit's text, evaluated and rendered in this process one unit at a time.

    Units come n-major, so each grid part recurs once per subspace.  A
    part's mu texts are formatted at its first unit and kept, joined, until
    its last.
    """
    render, numbers = (render_csv, _csv_numbers) if format == "csv" else (render_json, _json_numbers)
    last = {id(part): i for i, (_, _, part) in enumerate(units)}
    kept = {}
    for i, unit in enumerate(units):
        key = id(unit[2])
        if key in kept:
            texts = (kept[key] if last[key] > i else kept.pop(key)).split("\n")
        else:
            texts = numbers(unit[2].tolist())
            if last[key] > i:
                kept[key] = "\n".join(texts)
        yield render(_evaluate(spec, unit), texts)


def _other_threads() -> bool:
    """Whether a thread besides this one runs in this process, counted as CPython counts them before a fork.

    /proc/self/task lists the OS threads, a BLAS pool started by importing
    numpy among them; where there is no /proc, Python's own threads count.
    """
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        threading = sys.modules.get("threading")
        return threading is not None and threading.active_count() > 1


def _processes(spec: SweepSpec, units: list) -> int:
    """How many processes evaluate and render a sweep: one per CPU this process may run on, at most one per unit.

    One where the grid fits in one part, where there is no os.fork, or
    where other threads run: a forked child gets none of them, but may get
    a lock one of them holds, and from Python 3.12 os.fork warns of them.
    """
    if len(spec.subspaces) * spec.steps <= _PART_ROWS or not hasattr(os, "fork") or _other_threads():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, len(units))


def _spec_texts(spec: SweepSpec, format: str) -> Iterator[str]:
    """The text of each unit of the sweep, in order: unit i from process i mod k of _processes' k.

    Process 0 is this one; each other is a forked worker that sends its
    texts in order through a pipe, read here as their turn comes.  Whatever
    ends the iteration, the read ends are closed, workers still running are
    killed, and every worker is reaped before it returns.  A worker that
    stops early raises ChildProcessError naming its exit status.
    """
    units = _units(spec)
    processes = _processes(spec, units)
    readers = []
    running = {}  # worker index -> pid, until reaped
    finished = False
    try:
        for index in range(1, processes):
            try:
                read_end, write_end = os.pipe()
                readers.append(open(read_end, "rb"))
                with open(write_end, "wb") as writer:
                    pid = os.fork()
                    if pid == 0:
                        _work(spec, units[index::processes], format, writer, readers)
            except OSError as exc:
                raise ChildProcessError(f"could not start a sweep worker: {exc}") from exc
            running[index] = pid
        own = _unit_texts(spec, units[::processes], format)
        for i in range(len(units)):
            index = i % processes
            text = next(own) if index == 0 else _receive(readers[index - 1])
            if text is None:
                _, status = os.waitpid(running.pop(index), 0)
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"sweep worker {index} of {processes - 1} {how} before sending all its rows")
            yield text
        finished = True
    finally:
        for reader in readers:
            reader.close()
        for pid in running.values():
            if not finished:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _work(spec: SweepSpec, units: list, format: str, writer, readers) -> NoReturn:
    """A forked worker's whole life: send each unit's text, framed by its length, then exit.

    It ends in os._exit, so it never returns into its caller's frames, flushes
    none of the stdio buffers it was forked with, and prints nothing.
    """
    status = 1
    try:
        for reader in readers:
            reader.close()
        for text in _unit_texts(spec, units, format):
            data = text.encode("ascii")
            writer.write(b"%d\n" % len(data))
            writer.write(data)
        writer.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(reader) -> str | None:
    """The next text a worker sent; None where it stopped before sending all of it."""
    size = reader.readline()
    if size.endswith(b"\n"):
        data = reader.read(int(size))
        if len(data) == int(size):
            return data.decode("ascii")
    return None


def _write(texts: Iterable[str], format: str, handle) -> None:
    """The document around a sweep's texts: the CSV header, or the JSON brackets and separators."""
    if format == "csv":
        handle.write(CSV_HEADER + "\n")
        for text in texts:
            handle.write(text)
        return
    separator = "[\n"
    for text in texts:
        handle.write(separator)
        handle.write(text)
        separator = ",\n"
    handle.write("[]\n" if separator == "[\n" else "\n]\n")


def _document(blocks: list[SweepBlock], format: str) -> str:
    """The whole document of a list of blocks, each non-empty block rendered on its own."""
    render = render_csv if format == "csv" else render_json
    buffer = io.StringIO()
    _write((render(block) for block in blocks if len(block.mu)), format, buffer)
    return buffer.getvalue()


def emit(spec: SweepSpec, format: str = "csv", destination=None) -> None:
    """Write the sweep of a SweepSpec as CSV or JSON to a path, a writable object, or stdout.

    Each unit is written as soon as it is rendered, so neither the rows nor
    the whole text are ever held.  A grid larger than one part is evaluated
    and rendered by one process per CPU, with the same bytes.  Anything but
    a SweepSpec raises TypeError before a worker or the destination is
    touched.  destination None or "-" means stdout; IO failures on a path
    are re-raised with the destination named as given, and a write that
    fails part-way leaves the part already written.
    """
    if not isinstance(spec, SweepSpec):
        raise TypeError(f"emit takes a SweepSpec, got {type(spec).__name__}; render_csv and render_json render blocks")
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    texts = _spec_texts(spec, format)
    try:
        if destination is None or destination == "-":
            destination = sys.stdout
        if hasattr(destination, "write"):
            _write(texts, format, destination)
            return
        path = os.fspath(destination)
        try:
            with open(path, "w", newline="") as handle:
                _write(texts, format, handle)
        except ChildProcessError:
            raise  # a worker stopped; the destination is not at fault
        except OSError as exc:
            raise OSError(f"could not write sweep output to {path}: {exc}") from exc
    finally:
        texts.close()

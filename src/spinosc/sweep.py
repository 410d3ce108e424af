"""Coupling sweeps over subspaces and deterministic CSV/JSON emission.

A sweep's units are its distinct subspaces, in ascending n, times the parts
of its mu grid of at most _PART_ROWS steps each.  The kernel
thermo.closed_forms evaluates one unit per call.  emit, given the sweep's
SweepSpec, is the one way to write a sweep; run_sweep returns every unit's
block, and render_csv and render_json render blocks in memory.
Rows near a coalescence point (within ep_window of the critical coupling)
are tagged Exceptional and carry no observables; undefined values serialize
as empty CSV fields / JSON nulls, never as sentinel numbers.

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
with tau, mu_c, the region and the valid flag baked in.  A JSON observable
whose .12g text is not json's number for it is rewritten afterwards, found
by cheap tests on the whole block first.  Output is byte-identical for
identical inputs.
"""

from __future__ import annotations

import io
import math
import os
import re
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator
from numbers import Integral
from typing import NamedTuple, NoReturn

from .model import ModelParams, check_subspace_index
from .spectral import critical_coupling, discriminant
from .thermo import ClosedForms, _check_tau, closed_forms, row_kind

__all__ = ["SweepSpec", "SweepBlock", "run_sweep", "emit", "CSV_HEADER", "MAX_ROWS"]

CSV_HEADER = "n,mu,tau,region,mu_c,Z,F,S,Cv,valid"

MAX_ROWS = 1_000_000
"""Largest grid a sweep evaluates: distinct subspaces times steps.

The kernel evaluates, and emit writes, at most _PART_ROWS steps at a time;
README gives the peak resident memory this costs per process.  Split a
larger grid into several sweeps.
"""


class SweepSpec(namedtuple("SweepSpec", "alpha homega tau subspaces mu_min mu_max steps ep_window")):
    """Grid description: mu in [mu_min, mu_max] with `steps` uniform points per subspace."""

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
        ep_window: float = 1e-6,
    ):
        _check_tau(tau)
        for name, value in (("mu_min", mu_min), ("mu_max", mu_max)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not subspaces:
            raise ValueError("at least one subspace index is required")
        for n in subspaces:
            check_subspace_index(n)
        if mu_min < 0.0:
            raise ValueError(f"mu_min must be nonnegative, got {mu_min}")
        if not mu_min < mu_max:
            raise ValueError(f"mu_min must be below mu_max, got [{mu_min}, {mu_max}]")
        # ModelParams checks alpha and homega; |disc| peaks at mu_max in the top subspace.
        discriminant(ModelParams(alpha, homega, mu_max), max(subspaces))
        if isinstance(steps, bool) or not isinstance(steps, Integral) or steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
        if len(set(subspaces)) * steps > MAX_ROWS:
            raise ValueError(f"{len(set(subspaces))} subspaces x {steps} steps exceeds the {MAX_ROWS} row cap")
        if ep_window < 0.0 or not math.isfinite(ep_window):
            raise ValueError(f"ep_window must be a finite nonnegative value, got {ep_window}")
        subspaces = tuple(int(n) for n in subspaces)
        return super().__new__(cls, alpha, homega, tau, subspaces, mu_min, mu_max, steps, ep_window)

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
    subspaces = sorted(set(spec.subspaces))
    mu_cs = [critical_coupling(ModelParams(spec.alpha, spec.homega, 0.0), n) for n in subspaces]
    return [(n, mu_c, part) for n, mu_c in zip(subspaces, mu_cs) for part in parts]


def _evaluate(spec: SweepSpec, unit: tuple[int, float, array]) -> SweepBlock:
    """One unit's block: the kernel over its part of the mu grid."""
    n, mu_c, part = unit
    tau = float(spec.tau)
    return SweepBlock(n, mu_c, part, tau, closed_forms(spec.alpha, spec.homega, n, part, tau, (mu_c, spec.ep_window)))


def run_sweep(spec: SweepSpec) -> list[SweepBlock]:
    """Evaluate the grid: per distinct subspace in ascending n, one block per part of the mu grid."""
    return [_evaluate(spec, unit) for unit in _units(spec)]


def _csv_numbers(values: list[float]) -> list[str]:
    """The .12g text of every value, by one % operation."""
    return ("%.12g\n" * len(values) % tuple(values)).split("\n")[:-1]


# .12g texts whose JSON number is not a string rule away: exponents 12 to 15,
# which json writes positionally, and subnormals, whose shortest repr can
# have fewer digits than their .12g text.
_REPR_EXPONENT = r"e(?:\+1[2-5]|-30[89]|-3[12]\d)"
_REPR_TEXT = re.compile(rf"^.*{_REPR_EXPONENT}$", re.MULTILINE)


def _json_numbers(values: list[float]) -> list[str]:
    """The JSON number json.dumps writes for float of the .12g text, for every value."""
    text = "%.12g\n" * len(values) % tuple(values)
    if "e+1" in text or "e-3" in text:
        text = _REPR_TEXT.sub(lambda match: repr(float(match[0])), text)
    # An integer text becomes a JSON float by its ".0".
    return [t if "." in t or "e" in t else t + ".0" for t in text.split("\n")[:-1]]


# The same rules for an observable field of a rendered JSON record, whose
# .12g text the template wrote.
_JSON_INTEGER = re.compile(r'("(?:Z|F|S|Cv)": -?\d+),')
_JSON_REPR = re.compile(rf'("(?:Z|F|S|Cv)": )(-?[\d.]+{_REPR_EXPONENT}),')


_JSON_KEYS = ("n", "mu", "tau", "region", "mu_c", "Z", "F", "S", "Cv", "valid")
_FLAGS = ("false", "true")


def _render(block: SweepBlock, mu_texts: list[str], args: list, head: str, sep: str, template) -> str:
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

    return _render(block, mu_texts, block.columns.values.tolist(), f"{block.n},", "", template)


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

    def template(region, valid, defined):
        texts = (tau, f'"{region}"', mu_c, *(("null", "%.12g")[flag] for flag in defined), valid)
        return "".join(f',\n    "{key}": {text}' for key, text in zip(_JSON_KEYS[2:], texts)) + "\n  }"

    head = f'  {{\n    "n": {block.n},\n    "mu": '
    args = block.columns.values.tolist()
    text = _render(block, mu_texts, args, head, ",\n", template)
    # Cheap whole-block tests decide whether a rule can apply: an integer
    # text is a number without a ".", so there are fewer "." than numbers,
    # and an exponent 12 to 15 has a "+".  Rewriting a text that needs no fix
    # leaves it as it is; missing one changes bytes.
    if text.count(".") < 3 * len(block.columns.codes) + len(args):
        text = _JSON_INTEGER.sub(r"\1.0,", text)
    if "+" in text or args and min(map(abs, args)) < 1e-307:
        text = _JSON_REPR.sub(lambda match: f"{match[1]}{float(match[2])!r},", text)
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
    if len(set(spec.subspaces)) * spec.steps <= _PART_ROWS or not hasattr(os, "fork") or _other_threads():
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
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            with open(write_end, "wb") as writer:
                try:
                    pid = os.fork()
                except OSError as exc:
                    raise ChildProcessError(f"could not start a sweep worker: {exc}") from exc
                if pid == 0:
                    _work(spec, units[index::processes], format, writer, readers)
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

"""Coupling sweeps over subspaces and deterministic CSV/JSON emission.

run_sweep evaluates the grid in parts of at most _PART_ROWS steps, one call
of the array kernel thermo.closed_forms per subspace and part, and returns
the columns as SweepBlocks, the form in which emit and the renderers take a
sweep.  Rows near a coalescence point (within ep_window of the critical
coupling) are tagged Exceptional and carry no observables; undefined values
serialize as empty CSV fields / JSON nulls, never as sentinel numbers.  emit
writes one block at a time, formatting the mu texts once per distinct mu
array.  A renderer builds a block's text with one `%` over its defined
observables: each row is a head (n), its mu text and a template chosen by
its region, valid flag and which observables are defined, with tau, mu_c and
the words baked in.  A JSON number goes through _json_numbers only where its
.12g text may differ from it.  Output is byte-identical for identical inputs.
"""

from __future__ import annotations

import io
import math
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import ModelParams, check_subspace_index
from .spectral import critical_coupling, discriminant
from .thermo import REGIONS, ClosedForms, closed_forms

__all__ = ["SweepSpec", "SweepBlock", "run_sweep", "emit", "CSV_HEADER", "MAX_ROWS"]

CSV_HEADER = "n,mu,tau,region,mu_c,Z,F,S,Cv,valid"

MAX_ROWS = 1_000_000
"""Largest grid a sweep evaluates: distinct subspaces times steps.

The kernel evaluates, and emit writes, at most _PART_ROWS steps at a time,
and the columns wait for emit, so the peak resident memory of a `spinosc
sweep` grows by about 35-55 bytes per row over a ~30 MB start (44 MB at
400k rows of 2,000 steps; one subspace of 1M steps 79 MB as CSV, 84 MB as
JSON; Python 3.11, numpy 2.4, x86-64).  Split a larger grid into several
sweeps.
"""


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: mu in [mu_min, mu_max] with `steps` uniform points per subspace."""

    alpha: float
    homega: float
    tau: float
    subspaces: tuple[int, ...]
    mu_min: float
    mu_max: float
    steps: int
    ep_window: float = 1e-6

    def __post_init__(self):
        for name in ("tau", "mu_min", "mu_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.subspaces:
            raise ValueError("at least one subspace index is required")
        for n in self.subspaces:
            check_subspace_index(n)
        if self.mu_min < 0.0:
            raise ValueError(f"mu_min must be nonnegative, got {self.mu_min}")
        if not self.mu_min < self.mu_max:
            raise ValueError(f"mu_min must be below mu_max, got [{self.mu_min}, {self.mu_max}]")
        # ModelParams checks alpha and homega; |disc| peaks at mu_max in the top subspace.
        discriminant(ModelParams(self.alpha, self.homega, self.mu_max), max(self.subspaces))
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)) or self.steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps!r}")
        if len(set(self.subspaces)) * self.steps > MAX_ROWS:
            raise ValueError(
                f"{len(set(self.subspaces))} subspaces x {self.steps} steps exceeds the {MAX_ROWS} row cap"
            )
        if self.ep_window < 0.0 or not math.isfinite(self.ep_window):
            raise ValueError(f"ep_window must be a finite nonnegative value, got {self.ep_window}")
        object.__setattr__(self, "subspaces", tuple(int(n) for n in self.subspaces))


class SweepBlock(NamedTuple):
    """One subspace's sweep over one part of the mu grid: the kernel's output columns."""

    n: int
    mu_c: float
    mu: np.ndarray
    tau: float
    columns: ClosedForms


_PART_ROWS = 1 << 14
"""Most steps the kernel evaluates, and a renderer formats, at a time."""


def run_sweep(spec: SweepSpec) -> list[SweepBlock]:
    """Evaluate the grid: per distinct subspace in ascending n, one block per part of the mu grid.

    A part is at most _PART_ROWS steps; the blocks of a part share its mu array.
    """
    mu = spec.mu_min + np.arange(spec.steps) * ((spec.mu_max - spec.mu_min) / (spec.steps - 1))
    parts = [mu[start : start + _PART_ROWS] for start in range(0, spec.steps, _PART_ROWS)]
    tau = float(spec.tau)
    blocks = []
    for n in sorted(set(spec.subspaces)):
        mu_c = critical_coupling(ModelParams(spec.alpha, spec.homega, 0.0), n)
        for part in parts:
            columns = closed_forms(spec.alpha, spec.homega, n, part, tau, np.abs(part - mu_c) <= spec.ep_window)
            blocks.append(SweepBlock(n, mu_c, part, tau, columns))
    return blocks


def _csv_numbers(values: list[float]) -> list[str]:
    """The .12g text of every value, by one % operation."""
    return ("%.12g\n" * len(values) % tuple(values)).split("\n")[:-1]


# .12g texts whose JSON number is not a string rule away: exponents 12 to 15,
# which json writes positionally, and subnormals, whose shortest repr can
# have fewer digits than their .12g text.
_REPR_TEXT = re.compile(r"^.*e(?:\+1[2-5]|-30[89]|-3[12]\d)$", re.MULTILINE)


def _json_numbers(values: list[float]) -> list[str]:
    """The JSON number json.dumps writes for float of the .12g text, for every value."""
    text = "%.12g\n" * len(values) % tuple(values)
    if "e+1" in text or "e-3" in text:
        text = _REPR_TEXT.sub(lambda match: repr(float(match[0])), text)
    # An integer text becomes a JSON float by its ".0".
    return [t if "." in t or "e" in t else t + ".0" for t in text.split("\n")[:-1]]


_JSON_KEYS = ("n", "mu", "tau", "region", "mu_c", "Z", "F", "S", "Cv", "valid")
_FLAGS = ("false", "true")
_DIGITS = (27, 9, 3, 1)  # a row's Z, F, S and Cv kinds as one base-3 number


def _render(block: SweepBlock, mu_texts: list[str], kinds: np.ndarray, args: list, head: str, sep: str, template) -> str:
    """The block's rows, each head + mu text + its template, filled by one % from args.

    kinds[i, j] is 0 (undefined), 1 (%.12g) or 2 (%s) for row i's observable
    j.  template(region, valid, kinds) serves every row with that key; sep
    and the next row's head follow it, and are cut after the last row.
    """
    columns = block.columns
    keys = (columns.region.astype(np.intp) * 162 + columns.valid * 81 + kinds @ _DIGITS).tolist()
    templates = {
        key: template(REGIONS[key // 162].value, _FLAGS[key // 81 % 2], [key // d % 3 for d in _DIGITS]) + sep + head
        for key in set(keys)
    }
    pieces = [head] * (2 * len(keys) + 1)
    pieces[1::2] = mu_texts
    pieces[2::2] = map(templates.__getitem__, keys)
    pieces[-1] = pieces[-1][: -len(sep + head)]
    return "".join(pieces) % tuple(args)


def render_csv(block: SweepBlock | list[SweepBlock], mu_texts: list[str] | None = None) -> str:
    """The CSV lines of one block; of a list of blocks, as run_sweep returns, the whole document.

    mu_texts, if given, are the block's mu values as _csv_numbers formats them.
    """
    if not isinstance(block, SweepBlock):
        return _document(block, "csv")
    if mu_texts is None:
        mu_texts = _csv_numbers(block.mu.tolist())
    tau, mu_c = _csv_numbers([block.tau, block.mu_c])
    values = np.column_stack(block.columns[1:5])
    defined = ~np.isnan(values)

    def template(region, valid, kinds):
        return ",".join(["", tau, region, mu_c, *(("", "%.12g")[kind] for kind in kinds), valid]) + "\n"

    return _render(block, mu_texts, defined, values[defined].tolist(), f"{block.n},", "", template)


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
    values = np.column_stack(block.columns[1:5])
    defined = ~np.isnan(values)
    size = np.abs(values)
    # Every value whose .12g text may not be its JSON number goes through
    # _json_numbers: near-integers (the ".0" rule, ±0 too; the test holds for
    # every |x| >= 5e10, so exponents 12 to 15 as well) and subnormals.
    # Flagging a value too many costs time only; missing one changes bytes.
    slow = (np.abs(values - np.rint(values)) <= 1e-11 * size) | (size < 1e-307)
    args = values[defined].tolist()
    at = np.flatnonzero(slow[defined]).tolist()
    if at:
        for i, text in zip(at, _json_numbers([args[i] for i in at])):
            args[i] = text

    def template(region, valid, kinds):
        texts = (tau, f'"{region}"', mu_c, *(("null", "%.12g", "%s")[kind] for kind in kinds), valid)
        return "".join(f',\n    "{key}": {text}' for key, text in zip(_JSON_KEYS[2:], texts)) + "\n  }"

    head = f'  {{\n    "n": {block.n},\n    "mu": '
    return _render(block, mu_texts, defined.astype(np.intp) + slow, args, head, ",\n", template)


def _write(blocks: Iterable[SweepBlock], format: str, handle) -> None:
    csv = format == "csv"
    render, numbers, between = (render_csv, _csv_numbers, "") if csv else (render_json, _json_numbers, ",\n")
    if csv:
        handle.write(CSV_HEADER + "\n")
    separator = between if csv else "[\n"
    # A one-entry memo of mu texts: the blocks of one grid part share its mu
    # array.  It holds the array, so the identity test cannot see a reused id.
    mu = texts = None
    for block in blocks:
        if not len(block.mu):
            continue
        if block.mu is not mu:
            mu, texts = block.mu, numbers(block.mu.tolist())
        handle.write(separator)
        handle.write(render(block, texts))
        separator = between
    if not csv:
        handle.write("[]\n" if separator == "[\n" else "\n]\n")


def _document(blocks: list[SweepBlock], format: str) -> str:
    buffer = io.StringIO()
    _write(blocks, format, buffer)
    return buffer.getvalue()


def emit(blocks: Iterable[SweepBlock], format: str = "csv", destination=None) -> None:
    """Write a sweep's blocks as CSV or JSON to a path, a writable object, or stdout.

    Each block is written as soon as it is rendered, so neither the rows nor
    the whole text are ever held.  destination None or "-" means stdout; IO
    failures on a path are re-raised with the destination named, and a write
    that fails part-way leaves the part already written.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    if destination is None or destination == "-":
        destination = sys.stdout
    if hasattr(destination, "write"):
        _write(blocks, format, destination)
        return
    path = Path(destination)
    try:
        with open(path, "w", newline="") as handle:
            _write(blocks, format, handle)
    except OSError as exc:
        raise OSError(f"could not write sweep output to {path}: {exc}") from exc

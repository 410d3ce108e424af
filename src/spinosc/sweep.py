"""Coupling sweeps over subspaces and deterministic CSV/JSON emission.

run_sweep evaluates each subspace's whole coupling grid with one call of the
array kernel thermo.closed_forms and returns the columns as one SweepBlock
per subspace.  Rows near a coalescence point (within ep_window of the
critical coupling) are tagged Exceptional and carry no observables; undefined
values serialize as empty CSV fields / JSON nulls, never as sentinel numbers.
emit writes one block at a time; the renderers format the values a block
shares (n, tau, mu_c, the mu grid) once and each observable column with one
`%` operation.  Output is byte-identical for identical inputs.
"""

from __future__ import annotations

import io
import math
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import ModelParams, check_subspace_index
from .spectral import PhaseRegion, critical_coupling, discriminant
from .thermo import REGIONS, ClosedForms, closed_forms

__all__ = ["SweepSpec", "SweepRow", "SweepBlock", "run_sweep", "emit", "figure_dataset", "CSV_HEADER", "MAX_ROWS"]

CSV_HEADER = "n,mu,tau,region,mu_c,Z,F,S,Cv,valid"

MAX_ROWS = 1_000_000
"""Largest grid a sweep evaluates: distinct subspaces times steps.

Output is written one block of at most _PART_ROWS rows at a time, so peak
resident memory of a `spinosc sweep`, CSV or JSON alike, grows by about 40
bytes per row over a ~30 MB start when the rows are spread over many
subspaces (32-45 MB at 50k-400k rows of 2,000 steps), and by about 90 bytes
per step of one subspace, whose whole grid the kernel evaluates at once
(43-119 MB at 50k-1M steps; Python 3.11, numpy 2.4, x86-64).  A sweep at the
cap stays under ~0.12 GB.  Split a larger grid into several sweeps.
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
        for name in ("alpha", "homega", "tau", "mu_min", "mu_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.homega <= 0.0:
            raise ValueError(f"homega must be positive, got {self.homega}")
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
        # The discriminant is largest in size at mu_max and the top subspace.
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


class SweepRow(NamedTuple):
    n: int
    mu: float
    tau: float
    region: PhaseRegion
    mu_c: float
    z: float | None
    free_energy: float | None
    entropy: float | None
    specific_heat: float | None
    valid: bool


class SweepBlock(NamedTuple):
    """One subspace's sweep as columns: the kernel's output over the mu grid."""

    n: int
    mu_c: float
    mu: np.ndarray
    tau: float
    columns: ClosedForms

    def rows(self) -> Iterator[SweepRow]:
        """The block's rows in mu order; None where NaN marks an undefined value."""
        columns = self.columns
        observables = ([None if math.isnan(v) else v for v in values.tolist()] for values in columns[1:5])
        return map(
            SweepRow._make,
            zip(
                repeat(self.n),
                self.mu.tolist(),
                repeat(self.tau),
                map(REGIONS.__getitem__, columns.region.tolist()),
                repeat(self.mu_c),
                *observables,
                columns.valid.tolist(),
            ),
        )


def run_sweep(spec: SweepSpec) -> list[SweepBlock]:
    """Evaluate the grid: one block per distinct subspace, in ascending n.

    Every block shares the one mu array; output is fully deterministic.
    """
    mu = spec.mu_min + np.arange(spec.steps) * ((spec.mu_max - spec.mu_min) / (spec.steps - 1))
    tau = float(spec.tau)
    blocks = []
    for n in sorted(set(spec.subspaces)):
        mu_c = critical_coupling(ModelParams(spec.alpha, spec.homega, 0.0), n)
        columns = closed_forms(spec.alpha, spec.homega, n, mu, tau, np.abs(mu - mu_c) <= spec.ep_window)
        blocks.append(SweepBlock(n, mu_c, mu, tau, columns))
    return blocks


def figure_dataset(fig: int, spec: SweepSpec | None = None) -> list[SweepRow]:
    """Sweep sufficient to re-plot one observable panel set, as rows.

    fig 1 -> free energy, 2 -> entropy, 3 -> specific heat.  The default spec
    covers subspaces (0, 1, 2, 5) over mu in [0, 4] at tau = 5, where the
    selected observable is populated on every non-exceptional row.
    """
    if fig not in (1, 2, 3):
        raise ValueError(f"figure id must be 1, 2 or 3, got {fig!r}")
    if spec is None:
        spec = SweepSpec(
            alpha=5.0,
            homega=1.0,
            tau=5.0,
            subspaces=(0, 1, 2, 5),
            mu_min=0.0,
            mu_max=4.0,
            steps=161,
        )
    return [row for block in run_sweep(spec) for row in block.rows()]


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


def _observable(values: np.ndarray, numbers, undefined: str) -> list[str]:
    """numbers() of a column's defined entries; `undefined` where NaN stands."""
    defined = ~np.isnan(values)
    texts = numbers(values[defined].tolist())
    if len(texts) == len(values):
        return texts
    text = iter(texts).__next__
    return [text() if flag else undefined for flag in defined.tolist()]


_JSON_KEYS = ("n", "mu", "tau", "region", "mu_c", "Z", "F", "S", "Cv", "valid")
# One record as json.dumps(payload, indent=2) lays out a list of flat dicts.
_JSON_RECORD = "  {\n" + ",\n".join(f'    "{key}": %s' for key in _JSON_KEYS) + "\n  }"
_FLAGS = ("false", "true")


def _fields(block: SweepBlock, numbers, undefined: str, regions: list[str]) -> zip:
    """Per row: the mu, region, Z, F, S, Cv and valid texts of the block."""
    columns = block.columns
    return zip(
        numbers(block.mu.tolist()),
        map(regions.__getitem__, columns.region.tolist()),
        *(_observable(values, numbers, undefined) for values in columns[1:5]),
        map(_FLAGS.__getitem__, columns.valid.tolist()),
    )


def render_csv(block: SweepBlock | list[SweepBlock]) -> str:
    """The CSV lines of one block; of a list of blocks, as run_sweep returns, the whole document."""
    if not isinstance(block, SweepBlock):
        return _document(block, "csv")
    tau, mu_c = _csv_numbers([block.tau, block.mu_c])
    # The block's tau and mu_c are the region's neighbours on every line.
    regions = [f"{tau},{region.value},{mu_c}" for region in REGIONS]
    lines = map(",".join, _fields(block, _csv_numbers, "", regions))
    return f"{block.n}," + f"\n{block.n},".join(lines) + "\n"


def render_json(block: SweepBlock | list[SweepBlock]) -> str:
    """The JSON records of one block, joined by ',\\n'; of a list of blocks, the whole document.

    The document is the text of json.dumps(payload, indent=2), written
    without the pure-Python encoder.
    """
    if not isinstance(block, SweepBlock):
        return _document(block, "json")
    tau, mu_c = _json_numbers([block.tau, block.mu_c])
    record = _JSON_RECORD % (block.n, "%s", tau, "%s", mu_c, "%s", "%s", "%s", "%s", "%s")
    regions = [f'"{region.value}"' for region in REGIONS]
    return ",\n".join(map(record.__mod__, _fields(block, _json_numbers, "null", regions)))


_PART_ROWS = 1 << 14
"""Rows rendered at a time; bounds the texts alive when a subspace has many steps."""


def _parts(blocks: Iterable[SweepBlock]) -> Iterator[SweepBlock]:
    """The blocks cut into consecutive blocks of at most _PART_ROWS rows."""
    for block in blocks:
        for start in range(0, len(block.mu), _PART_ROWS):
            rows = slice(start, start + _PART_ROWS)
            yield block._replace(mu=block.mu[rows], columns=ClosedForms(*(column[rows] for column in block.columns)))


def _write(blocks: Iterable[SweepBlock], format: str, handle) -> None:
    if format == "csv":
        handle.write(CSV_HEADER + "\n")
        for block in _parts(blocks):
            handle.write(render_csv(block))
        return
    opening = "[\n"
    for block in _parts(blocks):
        handle.write(opening)
        handle.write(render_json(block))
        opening = ",\n"
    handle.write("[]\n" if opening == "[\n" else "\n]\n")


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

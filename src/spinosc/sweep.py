"""Coupling sweeps over subspaces and deterministic CSV/JSON emission.

run_sweep evaluates each subspace's whole coupling grid with one call of the
array kernel thermo.closed_forms and builds the rows from its columns.  Rows
near a coalescence point (within ep_window of the critical coupling) are
tagged Exceptional and carry no observables; undefined values serialize as
empty CSV fields / JSON nulls, never as sentinel numbers.  The renderers
format each value a grid shares (n, mu, tau, region, mu_c) once.  Output is
byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import ModelParams, check_subspace_index
from .spectral import PhaseRegion, critical_coupling, discriminant
from .thermo import REGIONS, closed_forms

__all__ = ["SweepSpec", "SweepRow", "run_sweep", "emit", "figure_dataset", "CSV_HEADER", "MAX_ROWS"]

CSV_HEADER = "n,mu,tau,region,mu_c,Z,F,S,Cv,valid"

MAX_ROWS = 1_000_000
"""Largest grid a sweep evaluates: distinct subspaces times steps.

Peak resident memory of a `spinosc sweep` grows by about 0.4 kB per row for
CSV and 0.65 kB per row for JSON over a ~35 MB start (measured at 50k-400k
rows, Python 3.11, numpy 2.4, x86-64), so a sweep at the cap stays under
~0.7 GB.  Split a larger grid into several sweeps.
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


def _grid(spec: SweepSpec) -> np.ndarray:
    width = (spec.mu_max - spec.mu_min) / (spec.steps - 1)
    return spec.mu_min + np.arange(spec.steps) * width


def _optional(values: np.ndarray) -> list[float | None]:
    """Python floats, None where NaN marks an undefined value."""
    out = values.astype(object)
    out[np.isnan(values)] = None
    return out.tolist()


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the grid; rows are ordered by (n, mu) and fully deterministic.

    The mu and tau objects are shared by every subspace's rows.
    """
    mu = _grid(spec)
    mus = mu.tolist()
    tau = float(spec.tau)
    rows = []
    for n in sorted(set(spec.subspaces)):
        mu_c = critical_coupling(ModelParams(spec.alpha, spec.homega, 0.0), n)
        columns = closed_forms(spec.alpha, spec.homega, n, mu, tau, np.abs(mu - mu_c) <= spec.ep_window)
        rows += map(
            SweepRow._make,
            zip(
                repeat(n),
                mus,
                repeat(tau),
                map(REGIONS.__getitem__, columns.region.tolist()),
                repeat(mu_c),
                *map(_optional, columns[1:5]),
                columns.valid.tolist(),
            ),
        )
    return rows


def figure_dataset(fig: int, spec: SweepSpec | None = None) -> list[SweepRow]:
    """Sweep sufficient to re-plot one observable panel set.

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
    return run_sweep(spec)


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _opt(value: float | None) -> str:
    return "" if value is None else _fmt(value)


_CHUNK_ROWS = 1 << 14
"""Rows rendered per pass; bounds the memory of the per-column strings."""


def _chunks(rows: list[SweepRow]):
    return (rows[start : start + _CHUNK_ROWS] for start in range(0, len(rows), _CHUNK_ROWS))


def _column(rows: list[SweepRow], field: int) -> list:
    return list(map(itemgetter(field), rows))


def _shared(values: list, text) -> map:
    """text(value) for every entry, computed once per distinct object.

    Rows of one grid share their n, mu, tau, region, mu_c and valid objects,
    so such a column costs one conversion per grid point, not per row.
    """
    distinct = dict(zip(map(id, values), values))
    cache = {key: text(value) for key, value in distinct.items()}
    return map(cache.__getitem__, map(id, values))


def _texts(values: list) -> list[str]:
    """_opt of every value; one % operation formats all the defined ones."""
    defined = [value for value in values if value is not None]
    texts = ("%.12g\n" * len(defined) % tuple(defined)).split("\n")
    if len(defined) == len(values):
        texts.pop()
        return texts
    defined_texts = iter(texts)
    return ["" if value is None else next(defined_texts) for value in values]


def _region_text(region: PhaseRegion) -> str:
    return region.value


def _csv_flag(value) -> str:
    return "true" if value else "false"


def _csv_chunk(rows: list[SweepRow]) -> str:
    columns = [
        _shared(_column(rows, 0), str),
        _shared(_column(rows, 1), _fmt),
        _shared(_column(rows, 2), _fmt),
        _shared(_column(rows, 3), _region_text),
        _shared(_column(rows, 4), _fmt),
        *(_texts(_column(rows, field)) for field in range(5, 9)),
        _shared(_column(rows, 9), _csv_flag),
    ]
    return "\n".join(map(",".join, zip(*columns)))


def render_csv(rows: list[SweepRow]) -> str:
    return "\n".join([CSV_HEADER, *map(_csv_chunk, _chunks(rows))]) + "\n"


def _json_text(text: str) -> str:
    """JSON number of a _opt text, as json.dumps writes float(text); null for ''."""
    if not text:
        return "null"
    number = float(text)
    return repr(number) if math.isfinite(number) else json.dumps(number)


def _json_number(value: float | None) -> str:
    return _json_text(_opt(value))


def _json_region(region: PhaseRegion) -> str:
    return json.dumps(region.value)


_JSON_KEYS = ("n", "mu", "tau", "region", "mu_c", "Z", "F", "S", "Cv", "valid")
# One record as json.dumps(payload, indent=2) lays out a list of flat dicts.
_JSON_RECORD = "  {\n" + ",\n".join(f'    "{key}": %s' for key in _JSON_KEYS) + "\n  }"


def _json_chunk(rows: list[SweepRow]) -> str:
    columns = [
        _shared(_column(rows, 0), json.dumps),
        _shared(_column(rows, 1), _json_number),
        _shared(_column(rows, 2), _json_number),
        _shared(_column(rows, 3), _json_region),
        _shared(_column(rows, 4), _json_number),
        *(map(_json_text, _texts(_column(rows, field))) for field in range(5, 9)),
        _shared(_column(rows, 9), json.dumps),
    ]
    return ",\n".join(map(_JSON_RECORD.__mod__, zip(*columns)))


def render_json(rows: list[SweepRow]) -> str:
    """The text of json.dumps(payload, indent=2), written without the pure-Python encoder."""
    if not rows:
        return "[]\n"
    return "[\n" + ",\n".join(map(_json_chunk, _chunks(rows))) + "\n]\n"


def emit(rows: list[SweepRow], format: str = "csv", destination=None) -> None:
    """Write rows as CSV or JSON to a path, a writable object, or stdout.

    destination None or "-" means stdout; IO failures are re-raised with the
    destination named.
    """
    if format == "csv":
        text = render_csv(rows)
    elif format == "json":
        text = render_json(rows)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")

    if destination is None or destination == "-":
        sys.stdout.write(text)
        return
    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"could not write sweep output to {path}: {exc}") from exc

"""Row view of sweep output for the tests: one record per (n, mu), None where undefined.

The library hands out column blocks only; these records are what the tests
compare row by row.
"""

import contextlib
import io
import json
import math
from itertools import repeat
from typing import NamedTuple

from spinosc.cli import main
from spinosc.spectral import PhaseRegion
from spinosc.sweep import run_sweep
from spinosc.thermo import REGIONS


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


def block_rows(block):
    """The block's rows in mu order; None where NaN marks an undefined value."""
    columns = block.columns
    observables = ([None if math.isnan(v) else v for v in values.tolist()] for values in columns[1:5])
    return map(
        SweepRow._make,
        zip(
            repeat(block.n),
            block.mu.tolist(),
            repeat(block.tau),
            map(REGIONS.__getitem__, columns.region.tolist()),
            repeat(block.mu_c),
            *observables,
            columns.valid.tolist(),
        ),
    )


def rows_of(blocks):
    return [row for block in blocks for row in block_rows(block)]


def sweep_rows(spec):
    return rows_of(run_sweep(spec))


def cli_rows(*argv):
    """The rows a `spinosc ... --format json` run prints, read back from its JSON (values at 12 digits)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    keys = ("n", "mu", "tau", "region", "mu_c", "Z", "F", "S", "Cv", "valid")
    records = [[record[key] for key in keys] for record in json.loads(out.getvalue())]
    return [SweepRow(n, mu, tau, PhaseRegion(region), *rest) for n, mu, tau, region, *rest in records]

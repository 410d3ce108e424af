"""Row view of sweep output for the tests: one record per (n, mu), None where undefined.

The library hands out blocks of kernel codes and values only; these records
are what the tests compare row by row.
"""

import contextlib
import io
import json
from typing import NamedTuple

from spinosc.cli import main
from spinosc.spectral import PhaseRegion
from spinosc.sweep import run_sweep
from spinosc.thermo import OBSERVABLE_BITS, REGIONS, ClosedForms, row_kind


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
    """The block's rows in mu order; None where the kernel left a value undefined."""
    codes, values = block.columns
    defined = iter(values)
    for mu, code in zip(block.mu.tolist(), codes):
        region, flags = row_kind(code)
        observables = (next(defined) if flag else None for flag in flags)
        yield SweepRow(block.n, mu, block.tau, region, block.mu_c, *observables, all(flags[1:]))


def columns_of(regions, z, free_energy, entropy, specific_heat):
    """The kernel's columns for hand-made rows: a region per row, None where a value is undefined."""
    codes, values = bytearray(), []
    for region, row in zip(regions, zip(z, free_energy, entropy, specific_heat)):
        code = REGIONS.index(region) << 4
        for bit, value in zip(OBSERVABLE_BITS, row):
            if value is not None:
                code |= bit
                values.append(float(value))
        codes.append(code)
    return ClosedForms(bytes(codes), values)


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

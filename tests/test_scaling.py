"""The scaling relation of the production path.

The model is homogeneous of degree 1: scaling alpha, homega, mu, tau and
ep_window by the same lambda leaves Z, S and C_v unchanged and multiplies F
by lambda.  For lambda a power of two every scaled input is exact, so a
sweep must reproduce the lambda = 1 sweep bit for bit.  The phase rule's
Exceptional band is relative to delta**2 above its subnormal floor, so this
holds, right up to mu_c, at every lambda where delta**2 and each mu**2 stay
normal doubles.
"""

import pytest

from spinosc.sweep import CSV_HEADER, SweepSpec, render_csv, run_sweep
from spinosc.thermo import REGIONS, closed_forms, row_kind

from rowview import rows_of

SCALED_COLUMNS = [CSV_HEADER.split(",").index(name) for name in ("Z", "S", "Cv", "region", "valid")]


def _sweep(scale, tau):
    """The figure grid, every energy times scale: its blocks and its CSV."""
    spec = SweepSpec(5.0 * scale, 1.0 * scale, tau * scale, (0, 1, 2, 5), 0.0, 4.0 * scale, 161, 1e-6 * scale)
    blocks = run_sweep(spec)
    return blocks, render_csv(blocks)


def _bits(value):
    return None if value is None else value.hex()


def _csv_columns(text):
    return [[line.split(",")[i] for i in SCALED_COLUMNS] for line in text.splitlines()]


SCALES = [-40, -20, -3, -1, 1, 3, 10, 20, 40]


@pytest.mark.parametrize("tau", [5.0, 0.5])
@pytest.mark.parametrize("k", SCALES)
def test_scaling_every_energy_by_a_power_of_two_scales_f_alone(k, tau):
    scale = 2.0**k
    blocks, text = _sweep(1.0, tau)
    scaled_blocks, scaled_text = _sweep(scale, tau)
    assert [block.columns.codes for block in scaled_blocks] == [block.columns.codes for block in blocks]
    rows, scaled_rows = rows_of(blocks), rows_of(scaled_blocks)
    assert len(rows) == len(scaled_rows) == 4 * 161
    for row, scaled in zip(rows, scaled_rows):
        assert [_bits(scaled.z), _bits(scaled.entropy), _bits(scaled.specific_heat)] == [
            _bits(row.z),
            _bits(row.entropy),
            _bits(row.specific_heat),
        ]
        f = None if row.free_energy is None else scale * row.free_energy
        assert _bits(scaled.free_energy) == _bits(f)
    assert _csv_columns(scaled_text) == _csv_columns(text)


def _window_free(scale, tau):
    """closed_forms with no ep window on 2,001 couplings across mu_c = 2 of n = 0, every energy times scale.

    Returns the codes and, per row, the hex of its defined values with F divided by scale.
    """
    width = 0.2 / 2000
    mu = [(1.9 + i * width) * scale for i in range(2001)]
    codes, values = closed_forms(5.0 * scale, 1.0 * scale, 0, mu, tau * scale, 0.0)
    values = iter(values)
    rows = []
    for code in codes:
        flags = row_kind(code)[1]
        row = [next(values) if flag else None for flag in flags]
        if row[1] is not None:
            row[1] /= scale
        rows.append([_bits(value) for value in row])
    return codes, rows


@pytest.mark.parametrize("tau", [5.0, 0.5])
@pytest.mark.parametrize("k", SCALES)
def test_scaling_holds_up_to_mu_c_with_no_ep_window(k, tau):
    # Without the mask only the phase rule decides the rows next to mu_c, so its band must scale too.
    codes, rows = _window_free(1.0, tau)
    assert {row_kind(code)[0] for code in codes} == set(REGIONS)
    assert _window_free(2.0**k, tau) == (codes, rows)

"""The scaling relation of the production path.

The model is homogeneous of degree 1: scaling alpha, homega, mu and tau by
the same lambda leaves Z, S and C_v unchanged and multiplies F by lambda.
For lambda a power of two every scaled input is exact, so a sweep must
reproduce the lambda = 1 sweep bit for bit, and so must the CLI's text but
for the columns that scale.  The phase rule's Exceptional band is relative
to delta**2 above its subnormal floor, and a sweep's mask is EP_WINDOW *
|delta| around each mu_c, so this holds, right up to mu_c, at every lambda
where delta**2 and each mu**2 stay normal doubles.
"""

import contextlib
import io

import pytest

from spinosc.cli import main
from spinosc.sweep import CSV_HEADER, SweepSpec, render_csv, run_sweep
from spinosc.thermo import REGIONS, closed_forms, row_kind
from spinosc.verify import run_checks

from rowview import rows_of

SCALED_COLUMNS = [CSV_HEADER.split(",").index(name) for name in ("Z", "S", "Cv", "region", "valid")]


def _sweep(scale, tau):
    """The figure grid, every energy times scale: its blocks and its CSV."""
    spec = SweepSpec(5.0 * scale, 1.0 * scale, tau * scale, (0, 1, 2, 5), 0.0, 4.0 * scale, 161)
    blocks = run_sweep(spec)
    return blocks, render_csv(blocks)


def _cli_sweep(scale, mu_min, mu_max, steps):
    """The CSV of a CLI sweep of subspace 0 at alpha 5, homega 1 and tau 5, every energy times scale."""
    energies = [repr(value * scale) for value in (5.0, 1.0, 5.0, mu_min, mu_max)]
    argv = ["--alpha", energies[0], "--homega", energies[1], "sweep", "--tau", energies[2]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--mu-min", energies[3], "--mu-max", energies[4], "--steps", str(steps)]) == 0
    return out.getvalue()


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


def _column(text, name):
    return [line.split(",")[CSV_HEADER.split(",").index(name)] for line in text.splitlines()[1:]]


@pytest.mark.parametrize("k", SCALES)
def test_cli_sweep_masks_the_same_rows_at_every_scale(k):
    # Rows 0, 1, 2, 3 and 4 times scale, with mu_c = 2 * scale: the mask, 1e-6 at scale 1, scales with mu_c,
    # so only the row at mu_c is Exceptional however close the rows are in absolute terms.
    scale = 2.0**k
    text, scaled_text = _cli_sweep(1.0, 0.0, 4.0, 5), _cli_sweep(scale, 0.0, 4.0, 5)
    assert _column(text, "region") == ["Unbroken", "Unbroken", "Exceptional", "Broken", "Broken"]
    assert _csv_columns(scaled_text) == _csv_columns(text)
    free_energies = [row.free_energy for row in rows_of(run_sweep(SweepSpec(5.0, 1.0, 5.0, (0,), 0.0, 4.0, 5)))]
    assert _column(scaled_text, "F") == ["" if f is None else "%.12g" % (scale * f) for f in free_energies]


@pytest.mark.parametrize("k", SCALES)
def test_cli_sweep_masks_a_row_just_past_mu_c_at_every_scale(k):
    # mu_c * (1 + 1e-7) lies 2e-7 * scale past mu_c = 2 * scale, inside the mask of 1e-6 * scale.
    mu = 2.0 * (1.0 + 1e-7)
    assert _column(_cli_sweep(1.0, mu, 4.0, 2), "region")[0] == "Exceptional"
    assert _column(_cli_sweep(2.0**k, mu, 4.0, 2), "region")[0] == "Exceptional"


@pytest.mark.parametrize("k,cutoff", [(-40, 8), (-20, 8), (20, 8), (40, 8), (20, 127)])
def test_verify_reports_the_same_checks_at_every_scale(k, cutoff):
    # verify's temperatures are multiples of max(|homega - alpha|, homega), its
    # couplings fractions of mu_c, and its bounds relative: names, verdicts and
    # residuals do not move.
    assert run_checks(5.0 * 2.0**k, 2.0**k, cutoff) == run_checks(5.0, 1.0, cutoff)

import io
import json

import numpy as np
import pytest

from spinosc.model import ModelParams
from spinosc.spectral import PhaseRegion, classify
from spinosc.sweep import (
    CSV_HEADER,
    MAX_ROWS,
    SweepRow,
    SweepSpec,
    emit,
    figure_dataset,
    render_csv,
    render_json,
    run_sweep,
)
from spinosc.thermo import thermo_point


def _spec(**overrides):
    base = dict(
        alpha=5.0,
        homega=1.0,
        tau=5.0,
        subspaces=(0,),
        mu_min=0.0,
        mu_max=4.0,
        steps=9,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_grid_hits_coalescence_row():
    rows = run_sweep(_spec())
    at_two = [r for r in rows if r.mu == 2.0]
    assert len(at_two) == 1
    assert at_two[0].region is PhaseRegion.EXCEPTIONAL
    assert not at_two[0].valid
    assert at_two[0].z is None


def test_rows_ordered_and_complete():
    rows = run_sweep(_spec(subspaces=(1, 0)))
    assert len(rows) == 18
    keys = [(r.n, r.mu) for r in rows]
    assert keys == sorted(keys)


def test_endpoint_rows_match_thermo_point():
    rows = run_sweep(_spec(tau=1.0, mu_min=0.0, mu_max=1.0, steps=2))
    for row, mu in zip(rows, (0.0, 1.0)):
        point = thermo_point(ModelParams(5, 1, mu), 0, 1.0)
        assert row.z == pytest.approx(point.z, rel=1e-15)
        assert row.free_energy == pytest.approx(point.free_energy, rel=1e-15)
        assert row.entropy == pytest.approx(point.entropy, rel=1e-15)
        assert row.specific_heat == pytest.approx(point.specific_heat, rel=1e-15)


@pytest.mark.parametrize(
    "bad",
    [
        dict(steps=1),
        dict(steps=2.5),
        dict(mu_min=2.0, mu_max=1.0),
        dict(ep_window=-1.0),
        dict(tau=0.0),
        dict(subspaces=()),
        dict(subspaces=(-1,)),
        dict(mu_min=-0.5),
        dict(alpha=float("inf")),
        dict(homega=float("nan")),
        dict(tau=float("inf")),
        dict(mu_max=float("inf")),
        dict(mu_max=1e300),
        dict(alpha=1e200),
        dict(subspaces=(2**53,)),
    ],
)
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        _spec(**bad)


def test_region_matches_classify_outside_window():
    spec = _spec(steps=41)
    for row in run_sweep(spec):
        if abs(row.mu - row.mu_c) > spec.ep_window:
            assert row.region is classify(ModelParams(5, 1, row.mu), row.n)
        else:
            assert row.region is PhaseRegion.EXCEPTIONAL


def test_region_sign_structure_in_rows():
    for row in run_sweep(_spec(steps=33)):
        if row.region is PhaseRegion.UNBROKEN:
            assert row.specific_heat >= 0.0
        elif row.region is PhaseRegion.BROKEN and row.valid:
            assert row.specific_heat <= 0.0


def test_csv_header_and_empty_rows():
    assert render_csv([]) == CSV_HEADER + "\n"


def test_csv_single_valid_row():
    rows = run_sweep(_spec(tau=1.0, mu_min=0.5, mu_max=1.0, steps=2))
    text = render_csv(rows[:1])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert fields[3] == "Unbroken"
    assert fields[-1] == "true"
    assert float(fields[5]) > 0.0


def test_csv_negative_z_row_has_empty_observables():
    # mu=3, tau=1 gives a negative partition function on the first subspace.
    rows = run_sweep(_spec(tau=1.0, mu_min=3.0, mu_max=3.5, steps=2))
    fields = render_csv(rows[:1]).strip().split("\n")[1].split(",")
    assert float(fields[5]) < 0.0  # Z present and negative
    assert fields[6] == "" and fields[7] == ""  # F, S empty
    assert fields[8] != ""  # Cv still defined
    assert fields[-1] == "false"


def test_csv_values_carry_twelve_significant_digits():
    rows = run_sweep(_spec(tau=1.0, mu_min=0.0, mu_max=1.0, steps=2))
    line = render_csv(rows[1:2]).strip().split("\n")[1]
    assert "4.08251436932" in line


def test_json_mirrors_fields_with_nulls():
    rows = run_sweep(_spec(steps=9))
    payload = json.loads(render_json(rows))
    assert len(payload) == 9
    exceptional = [entry for entry in payload if entry["region"] == "Exceptional"]
    assert len(exceptional) == 1
    assert exceptional[0]["Z"] is None and exceptional[0]["valid"] is False
    first = payload[0]
    assert set(first) == {"n", "mu", "tau", "region", "mu_c", "Z", "F", "S", "Cv", "valid"}


def test_emission_is_deterministic():
    spec = _spec(steps=17)
    assert render_csv(run_sweep(spec)) == render_csv(run_sweep(spec))
    assert render_json(run_sweep(spec)) == render_json(run_sweep(spec))


def test_emit_to_file_and_stream(tmp_path):
    rows = run_sweep(_spec(steps=5))
    target = tmp_path / "rows.csv"
    emit(rows, "csv", target)
    buffer = io.StringIO()
    emit(rows, "csv", buffer)
    assert target.read_text() == buffer.getvalue()


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit([], "yaml", io.StringIO())


def test_emit_reports_destination_on_failure(tmp_path):
    with pytest.raises(OSError, match="missing"):
        emit([], "csv", tmp_path / "missing" / "rows.csv")


def test_figure_dataset_defaults():
    rows = figure_dataset(3)
    assert sorted({r.n for r in rows}) == [0, 1, 2, 5]
    for row in rows:
        if row.region is PhaseRegion.UNBROKEN:
            assert row.specific_heat >= 0.0
        elif row.valid:
            assert row.specific_heat <= 0.0


def test_figure_dataset_free_energy_grows_near_coalescence():
    spec = _spec(subspaces=(1,), mu_min=0.1, mu_max=2.8, steps=28, tau=5.0)
    rows = figure_dataset(1, spec)
    mu_c = rows[0].mu_c
    valid = [(abs(r.mu - mu_c), abs(r.free_energy)) for r in rows if r.free_energy is not None]
    closest = min(valid)[1]
    farthest = max(valid)[1]
    assert closest > farthest


def test_figure_dataset_rejects_unknown_id():
    with pytest.raises(ValueError):
        figure_dataset(4)


def test_rows_are_plain_records():
    row = run_sweep(_spec(steps=2, mu_min=0.0, mu_max=1.0))[0]
    assert isinstance(row, SweepRow)
    assert row.mu_c == 2.0


def test_row_cap_is_checked_before_any_allocation():
    with pytest.raises(ValueError, match="row cap"):
        _spec(steps=10**12)
    with pytest.raises(ValueError, match="row cap"):
        _spec(subspaces=(0, 1), steps=MAX_ROWS // 2 + 1)
    # Repeated subspace indices count once.
    assert _spec(subspaces=(0, 0), steps=MAX_ROWS).steps == MAX_ROWS


def _fmt_reference(value):
    return format(value, ".12g")


def _opt_reference(value):
    return "" if value is None else _fmt_reference(value)


def render_csv_reference(rows):
    """The row-at-a-time CSV renderer the column renderer replaced."""
    lines = [CSV_HEADER]
    for r in rows:
        fields = [str(r.n), _fmt_reference(r.mu), _fmt_reference(r.tau), r.region.value, _fmt_reference(r.mu_c)]
        fields += [_opt_reference(v) for v in (r.z, r.free_energy, r.entropy, r.specific_heat)]
        lines.append(",".join(fields + ["true" if r.valid else "false"]))
    return "\n".join(lines) + "\n"


def render_json_reference(rows):
    """json.dumps(indent=2) of the rounded rows, as the column renderer must write it."""

    def roundtrip(value):
        return None if value is None else float(_fmt_reference(value))

    payload = [
        {
            "n": r.n,
            "mu": roundtrip(r.mu),
            "tau": roundtrip(r.tau),
            "region": r.region.value,
            "mu_c": roundtrip(r.mu_c),
            "Z": roundtrip(r.z),
            "F": roundtrip(r.free_energy),
            "S": roundtrip(r.entropy),
            "Cv": roundtrip(r.specific_heat),
            "valid": r.valid,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _byte_identity_rows():
    # Unbroken, Exceptional and broken rows with a negative Z (F, S None).
    rows = run_sweep(_spec(tau=1.0, subspaces=(0, 3), steps=33))
    # Huge F and exponent-format values.
    rows += run_sweep(_spec(tau=1e300, mu_min=0.5, mu_max=3.5, steps=7))
    # Z beyond double range, tiny Cv, and an underflowed Z.
    rows += run_sweep(_spec(tau=1e-3, subspaces=(0, 40), steps=9))
    unbroken = PhaseRegion.UNBROKEN
    rows += [
        # Equal values held by distinct objects, signed zeros, values .12g
        # prints without ".0", and exponents 12 to 15, where json switches
        # to positional notation and .12g does not.
        SweepRow(7, 0.0, 2.0, unbroken, 1.5, -0.0, 1e12, 123456789012345.0, 5e-324, True),
        SweepRow(7, -0.0, float("2"), unbroken, 1.5, 0.0, -2.5e15, 1e16, -1e-5, False),
        SweepRow(8, 1e-4, 3.0, PhaseRegion.BROKEN, 1e20, None, None, 0.1 + 0.2, 1 / 3, False),
        SweepRow(8, 123456789012.5, 3.0, PhaseRegion.EXCEPTIONAL, 9.999999999995, None, None, None, None, False),
    ]
    return rows


def test_renderers_are_byte_identical_to_the_row_renderers(monkeypatch):
    rows = _byte_identity_rows()
    csv_text, json_text = render_csv(rows), render_json(rows)
    assert csv_text == render_csv_reference(rows)
    assert json_text == render_json_reference(rows)
    assert ",-0," in csv_text and ",,,,false" in csv_text and "e+300" in csv_text
    # Chunk boundaries inside a grid and between grids change nothing.
    monkeypatch.setattr("spinosc.sweep._CHUNK_ROWS", 5)
    assert render_csv(rows) == csv_text
    assert render_json(rows) == json_text


def test_empty_render_matches_the_row_renderers():
    assert render_csv([]) == render_csv_reference([]) == CSV_HEADER + "\n"
    assert render_json([]) == render_json_reference([]) == "[]\n"

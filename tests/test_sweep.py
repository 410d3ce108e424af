import io
import json
from array import array

import numpy as np
import pytest

from spinosc.cli import main
from spinosc.model import ModelParams
from spinosc.spectral import PhaseRegion, classify
from spinosc.sweep import (
    CSV_HEADER,
    MAX_ROWS,
    SweepBlock,
    SweepSpec,
    _csv_numbers,
    _json_numbers,
    emit,
    render_csv,
    render_json,
    run_sweep,
)
from spinosc.thermo import REGIONS, thermo_point

from rowview import SweepRow, block_rows, cli_rows, columns_of, rows_of, sweep_rows


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


RENDER = {"csv": render_csv, "json": render_json}


def _emitted(spec, format="csv"):
    """The text emit writes for spec."""
    buffer = io.StringIO()
    emit(spec, format, buffer)
    return buffer.getvalue()


def test_grid_hits_coalescence_row():
    rows = sweep_rows(_spec())
    at_two = [r for r in rows if r.mu == 2.0]
    assert len(at_two) == 1
    assert at_two[0].region is PhaseRegion.EXCEPTIONAL
    assert not at_two[0].valid
    assert at_two[0].z is None


def test_rows_ordered_and_complete():
    blocks = run_sweep(_spec(subspaces=(1, 0, 1)))
    assert [block.n for block in blocks] == [0, 1]
    assert blocks[0].mu is blocks[1].mu
    rows = rows_of(blocks)
    assert len(rows) == 18
    keys = [(r.n, r.mu) for r in rows]
    assert keys == sorted(keys)


def test_endpoint_rows_match_thermo_point():
    rows = sweep_rows(_spec(tau=1.0, mu_min=0.0, mu_max=1.0, steps=2))
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


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_spec_checks_tau_by_the_thermo_rule(tau):
    with pytest.raises(ValueError, match=f"^tau must be a positive energy, got {tau}$"):
        _spec(tau=tau)


def test_spec_is_a_named_tuple_of_its_fields():
    spec = _spec(subspaces=[3, 0])
    assert spec == (5.0, 1.0, 5.0, (3, 0), 0.0, 4.0, 9, 1e-6)
    assert repr(spec) == (
        "SweepSpec(alpha=5.0, homega=1.0, tau=5.0, subspaces=(3, 0), mu_min=0.0, mu_max=4.0, steps=9, ep_window=1e-06)"
    )


def test_replace_and_make_check_like_the_constructor():
    spec = _spec()
    with pytest.raises(ValueError, match=r"^tau must be a positive energy, got -1.0$"):
        spec._replace(tau=-1.0, steps=1)
    with pytest.raises(ValueError, match=r"^steps must be an integer >= 2, got 1$"):
        spec._replace(steps=1)
    with pytest.raises(ValueError, match="row cap"):
        SweepSpec._make([*spec[:6], MAX_ROWS + 1, spec.ep_window])
    replaced = spec._replace(subspaces=[3, 0])
    assert type(replaced) is SweepSpec and replaced.subspaces == (3, 0)


def test_region_matches_classify_outside_window():
    spec = _spec(steps=41)
    for row in sweep_rows(spec):
        if abs(row.mu - row.mu_c) > spec.ep_window:
            assert row.region is classify(ModelParams(5, 1, row.mu), row.n)
        else:
            assert row.region is PhaseRegion.EXCEPTIONAL


def test_region_sign_structure_in_rows():
    for row in sweep_rows(_spec(steps=33)):
        if row.region is PhaseRegion.UNBROKEN:
            assert row.specific_heat >= 0.0
        elif row.region is PhaseRegion.BROKEN and row.valid:
            assert row.specific_heat <= 0.0


def test_csv_header_and_empty_rows():
    assert render_csv([]) == CSV_HEADER + "\n"


def test_csv_single_valid_row():
    spec = _spec(tau=1.0, mu_min=0.5, mu_max=1.0, steps=2)
    lines = _emitted(spec).strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1:] == render_csv(run_sweep(spec)[0]).strip().split("\n")
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert fields[3] == "Unbroken"
    assert fields[-1] == "true"
    assert float(fields[5]) > 0.0


def test_csv_negative_z_row_has_empty_observables():
    # mu=3, tau=1 gives a negative partition function on the first subspace.
    block = run_sweep(_spec(tau=1.0, mu_min=3.0, mu_max=3.5, steps=2))[0]
    fields = render_csv(block).split("\n")[0].split(",")
    assert float(fields[5]) < 0.0  # Z present and negative
    assert fields[6] == "" and fields[7] == ""  # F, S empty
    assert fields[8] != ""  # Cv still defined
    assert fields[-1] == "false"


def test_csv_values_carry_twelve_significant_digits():
    block = run_sweep(_spec(tau=1.0, mu_min=0.0, mu_max=1.0, steps=2))[0]
    line = render_csv(block).split("\n")[1]
    assert "4.08251436932" in line


def test_json_mirrors_fields_with_nulls():
    payload = json.loads(_emitted(_spec(steps=9), "json"))
    assert len(payload) == 9
    exceptional = [entry for entry in payload if entry["region"] == "Exceptional"]
    assert len(exceptional) == 1
    assert exceptional[0]["Z"] is None and exceptional[0]["valid"] is False
    first = payload[0]
    assert set(first) == {"n", "mu", "tau", "region", "mu_c", "Z", "F", "S", "Cv", "valid"}


def test_emission_is_deterministic():
    spec = _spec(steps=17, subspaces=(0, 2))
    for format in ("csv", "json"):
        assert _emitted(spec, format) == _emitted(spec, format) == RENDER[format](run_sweep(spec))


def test_emit_to_file_and_stream(tmp_path):
    spec = _spec(steps=5)
    target = tmp_path / "rows.csv"
    emit(spec, "csv", target)
    assert target.read_text() == _emitted(spec) == render_csv(run_sweep(spec))


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit(_spec(), "yaml", io.StringIO())
    # Nothing is opened for an unknown format.
    target = tmp_path / "rows.yaml"
    with pytest.raises(ValueError):
        emit(_spec(), "yaml", target)
    assert not target.exists()


def test_emit_reports_destination_on_failure(tmp_path, monkeypatch):
    with pytest.raises(OSError, match="missing"):
        emit(_spec(), "csv", tmp_path / "missing" / "rows.csv")
    # The destination is named as it was given.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError, match=r"^could not write sweep output to \./missing/rows\.csv: "):
        emit(_spec(), "csv", "./missing/rows.csv")


def test_figure_dataset_defaults():
    records = cli_rows("fig", "--id", "3")
    assert sorted({r.n for r in records}) == [0, 1, 2, 5]
    for row in records:
        if row.region is PhaseRegion.UNBROKEN:
            assert row.specific_heat >= 0.0
        elif row.valid:
            assert row.specific_heat <= 0.0


def test_figure_dataset_free_energy_grows_near_coalescence():
    spec = _spec(subspaces=(1,), mu_min=0.1, mu_max=2.8, steps=28, tau=5.0)
    records = sweep_rows(spec)
    mu_c = records[0].mu_c
    valid = [(abs(r.mu - mu_c), abs(r.free_energy)) for r in records if r.free_energy is not None]
    closest = min(valid)[1]
    farthest = max(valid)[1]
    assert closest > farthest


def test_rows_are_plain_records():
    block = run_sweep(_spec(steps=2, mu_min=0.0, mu_max=1.0))[0]
    assert isinstance(block, SweepBlock)
    row = next(block_rows(block))
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


def _block(n, mu_c, mu, tau, regions, z, free_energy, entropy, specific_heat):
    """A hand-made block; None marks an undefined value, and a row is valid where F, S and C_v are defined."""
    return SweepBlock(n, mu_c, array("d", mu), tau, columns_of(regions, z, free_energy, entropy, specific_heat))


def _byte_identity_specs():
    return [
        # Unbroken, Exceptional and broken rows with a negative Z (F, S None),
        # from duplicate, out-of-order subspaces.
        _spec(tau=1.0, subspaces=(3, 0, 3), steps=33),
        # Huge F and exponent-format values.
        _spec(tau=1e300, mu_min=0.5, mu_max=3.5, steps=7),
        # Z beyond double range, tiny Cv, and an underflowed Z.
        _spec(tau=1e-3, subspaces=(0, 40), steps=9),
    ]


def _byte_identity_blocks():
    blocks = [block for spec in _byte_identity_specs() for block in run_sweep(spec)]
    unbroken, broken, exceptional = REGIONS
    blocks += [
        # Signed zeros (a -0.0 mu too), values .12g prints without ".0", a
        # subnormal, and exponents 12 to 16: json writes 12 to 15 in
        # positional notation and .12g does not.
        _block(
            7, 1.5, [0.0, -0.0], 2.0, [unbroken] * 2,
            [-0.0, 0.0], [1e12, -2.5e15], [123456789012345.0, 1e16], [5e-324, -1e-5],
        ),
        # The same tau as the block above, held by a distinct object.
        _block(
            8, 1e20, [1e-4, 123456789012.5], float("2"), [broken, exceptional],
            [None, None], [None, None], [0.1 + 0.2, None], [1 / 3, None],
        ),
        _block(9, 9.999999999995, [999999999999.5], 3.0, [exceptional], [None], [None], [None], [None]),
    ]
    assert blocks[-3].tau == blocks[-2].tau and blocks[-3].tau is not blocks[-2].tau
    return blocks


def test_renderers_are_byte_identical_to_the_row_renderers(tmp_path, capsys, monkeypatch):
    blocks = _byte_identity_blocks()
    rows = rows_of(blocks)
    # The same sweeps evaluated and rendered in grid parts of 5 steps.
    monkeypatch.setattr("spinosc.sweep._PART_ROWS", 5)
    parts = _byte_identity_blocks()
    monkeypatch.undo()
    assert len(parts) > len(blocks)
    assert rows_of(parts) == rows
    renderers = (("csv", render_csv_reference, render_csv), ("json", render_json_reference, render_json))
    for format, reference, render in renderers:
        expected = reference(rows)
        assert render(blocks) == expected
        assert render(parts) == expected
        # emit writes the document of each sweep, to a file and to stdout, and
        # in grid parts of 5 steps; one CPU keeps those in this process.
        for spec in _byte_identity_specs():
            document = render(run_sweep(spec))
            assert document == reference(sweep_rows(spec))
            target = tmp_path / f"rows.{format}"
            emit(spec, format, target)
            assert target.read_bytes().decode() == document
            emit(spec, format)
            assert capsys.readouterr().out == document
            with monkeypatch.context() as patch:
                patch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
                patch.setattr("spinosc.sweep._PART_ROWS", 5)
                assert _emitted(spec, format) == document
    csv_text, json_text = render_csv(blocks), render_json(blocks)
    assert ",-0," in csv_text and ",,,,false" in csv_text and "e+300" in csv_text
    assert '"mu": -0.0' in json_text and "123456789012000.0" in json_text and "5e-324" in json_text


def test_empty_render_matches_the_row_renderers():
    assert render_csv([]) == render_csv_reference([]) == CSV_HEADER + "\n"
    assert render_json([]) == render_json_reference([]) == "[]\n"


def test_empty_block_renders_nothing():
    empty = _block(7, 1.5, [], 2.0, [], [], [], [], [])
    assert render_csv(empty) == render_json(empty) == ""
    blocks = run_sweep(_spec(steps=3))
    for render in (render_csv, render_json):
        assert render([empty, *blocks, empty]) == render(blocks)
    assert render_json([empty]) == "[]\n"


def _json_rule_values():
    """Seeded doubles over decimal exponents -324 to 308, integers, and edge values."""
    rng = np.random.default_rng(4)
    mantissas = rng.uniform(1.0, 10.0, 90_000) * rng.choice([-1.0, 1.0], 90_000)
    exponents = rng.integers(-324, 309, 90_000)
    values = [float(f"{m!r}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    # Integers up to 14 digits: ".0" texts below 1e12, exponent texts above.
    values += rng.integers(-(10**14), 10**14, 9_990).astype(float).tolist()
    values += [-0.0, 5e-324, 999999999999.5, 1e15, -1e15, 9.99999999999e15, 1e16, 1e-5, 0.0, 2.0]
    return [value for value in values if np.isfinite(value)]


def test_json_number_rule_matches_float_repr():
    values = _json_rule_values()
    assert len(values) > 99_000
    assert _json_numbers(values) == [repr(float(format(x, ".12g"))) for x in values]


def _property_blocks():
    """Blocks whose observables hold every kind of value the JSON fast path must tell apart.

    Seeded: the JSON rule values, near-integers k (1 +- u 1e-11) up to 12
    digits, values across [1e11, 1e16], subnormals up to 1e-307 and signed
    zeros, with undefined holes, in all three regions with both valid flags.
    Blocks 2k and 2k + 1 share their mu array, as the blocks of a grid part do.
    """
    rng = np.random.default_rng(6)
    signs = rng.choice([-1.0, 1.0], 12_000)
    values = _json_rule_values()
    values += (np.floor(10 ** rng.uniform(0, 12, 6_000)) * (1 + rng.uniform(-1, 1, 6_000) * 1e-11) * signs[:6_000]).tolist()
    values += (10 ** rng.uniform(11, 16, 4_000) * signs[6_000:10_000]).tolist()
    values += (np.ldexp(rng.uniform(1, 2, 1_996), rng.integers(-1074, -1019, 1_996)) * signs[10_000:11_996]).tolist()
    values += [0.0, -0.0, 1e-307, -1e-307]
    values = np.array(values)
    rng.shuffle(values)
    assert len(values) == 111_863
    observables = np.append(values, values[:1]).reshape(-1, 4)
    holes = rng.random(observables.shape) < 0.15
    rows = len(observables)
    regions = [REGIONS[k] for k in rng.integers(0, 3, rows).tolist()]
    observables = [
        [None if hole else value for value, hole in zip(row, row_holes)]
        for row, row_holes in zip(observables.tolist(), holes.tolist())
    ]
    blocks, size = [], 2_000
    for n, start in enumerate(range(0, rows, size)):
        stop = min(start + size, rows)
        if n % 2 == 0:
            mu = array("d", values[start:stop].tolist())
        tau, mu_c = float(values[n]), float(values[-n - 1])
        columns = columns_of(regions[start:stop], *zip(*observables[start:stop]))
        blocks.append(SweepBlock(n, mu_c, mu[: stop - start], tau, columns))
    return blocks


def _first_difference(actual, expected):
    """None for equal texts, else the first differing line pair: cheap to report where a diff of megabytes is not."""
    if actual == expected:
        return None
    lines = enumerate(zip(actual.split("\n"), expected.split("\n")))
    return next(((i, a, b) for i, (a, b) in lines if a != b), ("lengths", len(actual), len(expected)))


def test_fast_renderers_match_the_row_renderers_on_every_kind_of_value():
    blocks = _property_blocks()
    rows = rows_of(blocks)
    assert {(row.region, row.valid) for row in rows} == {(region, flag) for region in REGIONS for flag in (False, True)}
    for format, reference, render, join in (
        ("csv", render_csv_reference, render_csv, lambda texts: CSV_HEADER + "\n" + "".join(texts)),
        ("json", render_json_reference, render_json, lambda texts: "[\n" + ",\n".join(texts) + "\n]\n"),
    ):
        expected = reference(rows)
        assert _first_difference(render(blocks), expected) is None
        assert _first_difference(join(map(render, blocks)), expected) is None


def test_json_observables_bypass_the_number_rule_on_the_unbroken_grid(tmp_path, monkeypatch):
    # 50,025 Unbroken rows: no observable is near an integer or subnormal,
    # so _json_numbers sees only the mu grid once and each block's tau and
    # mu_c.  Routing every value through it would keep the bytes but fail here.
    # One CPU keeps every call in this process, where they are counted;
    # test_sweep_workers.py counts them across two processes.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []

    def counted(values):
        calls.append(values)
        return _json_numbers(values)

    monkeypatch.setattr("spinosc.sweep._json_numbers", counted)
    subspaces = [str(n) for n in range(25)]
    argv = ["--alpha", "41", "sweep", "--subspaces", *subspaces, "--steps", "2001", "--tau", "5", "--format", "json"]
    assert main([*argv, "--output", str(tmp_path / "sweep.json")]) == 0
    blocks = run_sweep(_spec(alpha=41.0, subspaces=tuple(range(25)), steps=2001))
    assert calls == [blocks[0].mu.tolist()] + [[5.0, block.mu_c] for block in blocks]


@pytest.mark.parametrize("format", ["csv", "json"])
def test_each_grid_part_is_formatted_once_per_sweep(monkeypatch, format):
    # Units come n-major, so with three parts and three subspaces the units
    # of one part are never adjacent; each part's mu texts are still
    # formatted once, and the bytes are those of rendering each block alone.
    # One CPU keeps every call in this process, where they are counted.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr("spinosc.sweep._PART_ROWS", 5)
    spec = _spec(subspaces=(0, 1, 2), steps=12)
    blocks = run_sweep(spec)
    parts = [block.mu.tolist() for block in blocks[:3]]
    assert [len(part) for part in parts] == [5, 5, 2] and len(blocks) == 9
    render, join = {
        "csv": (render_csv, lambda texts: CSV_HEADER + "\n" + "".join(texts)),
        "json": (render_json, lambda texts: "[\n" + ",\n".join(texts) + "\n]\n"),
    }[format]
    expected = join(render(block) for block in blocks)
    name = f"spinosc.sweep._{format}_numbers"
    numbers, calls = (_csv_numbers if format == "csv" else _json_numbers), []

    def counted(values):
        calls.append(values)
        return numbers(values)

    monkeypatch.setattr(name, counted)
    assert _emitted(spec, format) == expected
    assert [values for values in calls if values in parts] == parts

"""Coupling sweeps over subspaces and deterministic CSV/JSON emission.

Rows near a coalescence point (within ep_window of the critical coupling)
are tagged Exceptional and carry no observables; undefined values serialize
as empty CSV fields / JSON nulls, never as sentinel numbers.  Output is
byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .model import ModelParams, check_subspace_index
from .spectral import PhaseRegion, critical_coupling
from .thermo import thermo_point

__all__ = ["SweepSpec", "SweepRow", "run_sweep", "emit", "figure_dataset", "CSV_HEADER"]

CSV_HEADER = "n,mu,tau,region,mu_c,Z,F,S,Cv,valid"


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
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.ep_window < 0.0 or not math.isfinite(self.ep_window):
            raise ValueError(f"ep_window must be a finite nonnegative value, got {self.ep_window}")
        object.__setattr__(self, "subspaces", tuple(int(n) for n in self.subspaces))


@dataclass(frozen=True)
class SweepRow:
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


def _grid(spec: SweepSpec) -> list[float]:
    width = (spec.mu_max - spec.mu_min) / (spec.steps - 1)
    return [spec.mu_min + i * width for i in range(spec.steps)]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the grid; rows are ordered by (n, mu) and fully deterministic."""
    rows = []
    for n in sorted(set(spec.subspaces)):
        probe = ModelParams(spec.alpha, spec.homega, 0.0)
        mu_c = critical_coupling(probe, n)
        for mu in _grid(spec):
            if abs(mu - mu_c) <= spec.ep_window:
                rows.append(
                    SweepRow(n, mu, spec.tau, PhaseRegion.EXCEPTIONAL, mu_c, None, None, None, None, False)
                )
                continue
            point = thermo_point(ModelParams(spec.alpha, spec.homega, mu), n, spec.tau)
            rows.append(
                SweepRow(
                    n,
                    mu,
                    spec.tau,
                    point.region,
                    mu_c,
                    point.z,
                    point.free_energy,
                    point.entropy,
                    point.specific_heat,
                    point.z_positive,
                )
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


def render_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.n),
                    _fmt(r.mu),
                    _fmt(r.tau),
                    r.region.value,
                    _fmt(r.mu_c),
                    _opt(r.z),
                    _opt(r.free_energy),
                    _opt(r.entropy),
                    _opt(r.specific_heat),
                    "true" if r.valid else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _roundtrip(value: float | None) -> float | None:
    return None if value is None else float(_fmt(value))


def render_json(rows: list[SweepRow]) -> str:
    payload = [
        {
            "n": r.n,
            "mu": _roundtrip(r.mu),
            "tau": _roundtrip(r.tau),
            "region": r.region.value,
            "mu_c": _roundtrip(r.mu_c),
            "Z": _roundtrip(r.z),
            "F": _roundtrip(r.free_energy),
            "S": _roundtrip(r.entropy),
            "Cv": _roundtrip(r.specific_heat),
            "valid": r.valid,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


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

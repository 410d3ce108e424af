"""Seeded workload definitions.

The seed moves tau, the mu endpoints and the command order inside fixed
ranges; it never changes a row count.  Every generated command is one the
CLI must answer with exit code 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_ALPHA = 5.0
DEFAULT_HOMEGA = 1.0
EP_WINDOW = 1e-6


@dataclass(frozen=True)
class Grid:
    """The (n, mu) grid a sweep or fig command must emit, in emission order."""

    alpha: float
    homega: float
    tau: float
    subspaces: tuple[int, ...]
    mu_min: float
    mu_max: float
    steps: int
    fmt: str = "csv"

    def mus(self) -> list[float]:
        width = (self.mu_max - self.mu_min) / (self.steps - 1)
        return [self.mu_min + i * width for i in range(self.steps)]

    @property
    def rows(self) -> int:
        return len(set(self.subspaces)) * self.steps


@dataclass(frozen=True)
class Point:
    alpha: float
    homega: float
    n: int
    mu: float
    tau: float | None = None


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `python -m spinosc *argv`, plus what its output must hold."""

    name: str
    argv: tuple[str, ...]
    grid: Grid | None = None
    point: Point | None = None
    output: Path | None = None

    def clear_output(self) -> None:
        """Remove a previous run's output file, so a stale one is never judged."""
        if self.output is not None:
            self.output.unlink(missing_ok=True)

    def read_output(self) -> bytes:
        if self.output is None or not self.output.exists():
            return b""
        return self.output.read_bytes()


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


def _num(value: float) -> str:
    return repr(float(value))


def mu_c(alpha: float, homega: float, n: int) -> float:
    return abs(homega - alpha) / (2.0 * math.sqrt(n + 1.0))


def _off_critical(rng: random.Random, n: int) -> float:
    """A coupling well inside the unbroken or the broken region of subspace n."""
    factor = rng.uniform(0.2, 0.8) if rng.random() < 0.5 else rng.uniform(1.2, 2.0)
    return round(factor * mu_c(DEFAULT_ALPHA, DEFAULT_HOMEGA, n), 4)


def _sweep_command(name: str, head: tuple[str, ...], grid: Grid, output: Path | None) -> Command:
    argv = head + (
        "--tau", _num(grid.tau),
        "--mu-min", _num(grid.mu_min),
        "--mu-max", _num(grid.mu_max),
        "--steps", str(grid.steps),
        "--format", grid.fmt,
    )
    if output is not None:
        argv += ("--output", str(output))
    return Command(name, argv, grid=grid, output=output)


def cli_mix(rng: random.Random, out_dir: Path) -> Workload:
    tau = round(rng.uniform(3.0, 7.0), 3)
    mu_min = round(rng.uniform(0.0, 0.2), 4)
    mu_max = round(rng.uniform(3.8, 4.2), 4)
    fig_grid = Grid(DEFAULT_ALPHA, DEFAULT_HOMEGA, tau, (0, 1, 2, 5), mu_min, mu_max, 161)
    sweep_grid = Grid(DEFAULT_ALPHA, DEFAULT_HOMEGA, tau, (0,), mu_min, mu_max, 161)
    n_spec, n_thermo = rng.randrange(6), rng.randrange(6)
    mu_spec, mu_thermo = _off_critical(rng, n_spec), _off_critical(rng, n_thermo)
    commands = [
        _sweep_command("fig", ("fig", "--id", str(k)), fig_grid, None) for k in (1, 2, 3)
    ] + [
        _sweep_command("sweep", ("sweep",), sweep_grid, None),
        Command(
            "spectrum",
            ("spectrum", "--n", str(n_spec), "--mu", _num(mu_spec)),
            point=Point(DEFAULT_ALPHA, DEFAULT_HOMEGA, n_spec, mu_spec),
        ),
        Command(
            "thermo",
            ("thermo", "--n", str(n_thermo), "--mu", _num(mu_thermo), "--tau", _num(tau)),
            point=Point(DEFAULT_ALPHA, DEFAULT_HOMEGA, n_thermo, mu_thermo, tau),
        ),
        Command("verify", ("verify", "--cutoff", "8")),
        # Full space of dimension 256, the eigN cap.
        Command("verify", ("verify", "--cutoff", "127")),
    ]
    rng.shuffle(commands)
    return Workload("cli-mix", tuple(commands))


def grid_sweep_csv(rng: random.Random, out_dir: Path) -> Workload:
    grid = Grid(
        DEFAULT_ALPHA,
        DEFAULT_HOMEGA,
        round(rng.uniform(4.5, 5.5), 3),
        tuple(range(50)),
        round(rng.uniform(0.0, 0.05), 4),
        round(rng.uniform(3.95, 4.05), 4),
        2001,
    )
    head = ("sweep", "--subspaces", *map(str, grid.subspaces))
    return Workload(
        "grid-sweep-csv",
        (_sweep_command("sweep", head, grid, out_dir / "grid-sweep.csv"),),
    )


def unbroken_sweep_json(rng: random.Random, out_dir: Path) -> Workload:
    # mu_max stays on mu_c(n=24) = 4 at alpha 41, so exactly the last row of
    # n = 24 is Exceptional and every other row is Unbroken.
    grid = Grid(
        41.0,
        DEFAULT_HOMEGA,
        round(rng.uniform(4.5, 5.5), 3),
        tuple(range(25)),
        round(rng.uniform(0.0, 0.05), 4),
        4.0,
        2001,
        fmt="json",
    )
    head = ("--alpha", _num(grid.alpha), "sweep", "--subspaces", *map(str, grid.subspaces))
    return Workload(
        "unbroken-sweep-json",
        (_sweep_command("sweep", head, grid, out_dir / "unbroken-sweep.json"),),
    )


WORKLOADS = {
    "cli-mix": cli_mix,
    "grid-sweep-csv": grid_sweep_csv,
    "unbroken-sweep-json": unbroken_sweep_json,
}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), out_dir)

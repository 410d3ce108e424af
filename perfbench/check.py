"""Output checker, run outside the timed region.

Each command's first output is checked in full; every later output of the
same command must be byte-identical to it.  Regions and validity are checked
on every row against `classify` and the ep window, and Z, F, S and Cv
against the closed forms re-derived here; on a seeded sample of rows Z and F
are also held to the matrix-route oracle `thermo.partition_function`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections import Counter

from spinosc.model import ModelParams
from spinosc.spectral import classify
from spinosc.thermo import partition_function

from workloads import EP_WINDOW, Command, Grid, Point, mu_c

CSV_HEADER = "n,mu,tau,region,mu_c,Z,F,S,Cv,valid"
COLUMNS = CSV_HEADER.split(",")
REL_TOL = 1e-9
ORACLE_SAMPLE = 200
MAX_PROBLEMS = 5


class Problems(list):
    """Problem messages, capped at MAX_PROBLEMS so a bad 100k-row output stays small."""

    def add(self, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(message)


def _fmt(value: float) -> str:
    return format(value, ".12g")


def closed_forms(alpha: float, homega: float, n: int, mu: float, tau: float):
    """(envelope, Z, S, Cv) of a non-exceptional point from the closed forms.

    envelope = prefactor * exp(-center/tau) is the size Z would have without
    the cosh/cos factor; it scales the Z tolerance where cos nearly cancels.
    S is None where the broken-region Z is nonpositive.
    """
    delta = homega - alpha
    disc = delta * delta - 4.0 * mu * mu * (n + 1)
    center = 0.5 * (2 * n + 1) * homega
    if disc > 0.0:
        d = math.sqrt(disc)
        prefactor = 2.0 * abs(delta) / d
        x = 0.5 * d / tau
        factor = math.cosh(x)
        s = math.log(prefactor) + math.log(factor) - x * math.tanh(x)
        cv = x * x / factor**2 if x < 700.0 else 0.0
    else:
        d = math.sqrt(-disc)
        prefactor = 4.0 * mu * math.sqrt(n + 1.0) / d
        x = 0.5 * d / tau
        factor = math.cos(x)
        s = math.log(prefactor) + math.log(factor) + x * math.tan(x) if factor > 0.0 else None
        cv = -(x * x) * (1.0 + math.tan(x) ** 2)
    envelope = prefactor * math.exp(-center / tau)
    return envelope, envelope * factor, s, cv


def _near(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def _check_z_f(problems: Problems, where: str, route: str, z: float, f, z_ref: float, envelope: float, tau: float):
    z_tol = REL_TOL * max(abs(z_ref), envelope)
    if not _near(z, z_ref, z_tol):
        problems.add(f"{where}: Z {z!r} != {route} {z_ref!r}")
    elif f is not None:
        if z_ref <= 0.0:
            problems.add(f"{where}: F given but the {route} Z is {z_ref!r}")
            return
        f_ref = -tau * math.log(z_ref)
        if not _near(f, f_ref, REL_TOL * max(1.0, abs(f_ref)) + tau * z_tol / z_ref):
            problems.add(f"{where}: F {f!r} != {route} {f_ref!r}")


def check_point(
    problems: Problems,
    where: str,
    point: Point,
    region: str,
    z,
    f,
    s,
    cv,
    valid: bool | None,
    ep_window: float | None,
    oracle: bool,
) -> None:
    """Check one (n, mu, tau) record; observables are floats or None.

    Every record is held to the closed forms; with `oracle` set, Z and F are
    also held to the matrix route.
    """
    alpha, homega, n, mu, tau = point.alpha, point.homega, point.n, point.mu, point.tau
    params = ModelParams(alpha, homega, mu)
    if ep_window is not None and abs(mu - mu_c(alpha, homega, n)) <= ep_window:
        expected_region = "Exceptional"
    else:
        expected_region = classify(params, n).value
    if region != expected_region:
        problems.add(f"{where}: region {region!r}, expected {expected_region!r}")
        return
    if region == "Exceptional":
        if any(v is not None for v in (z, f, s, cv)) or valid:
            problems.add(f"{where}: Exceptional row carries observables or valid=true")
        return
    if z is None or cv is None:
        problems.add(f"{where}: Z or Cv missing on a {region} row")
        return
    defined = z > 0.0
    if valid is not None and valid != defined:
        problems.add(f"{where}: valid={valid} but Z={z!r}")
    if (f is not None) != defined or (s is not None) != defined:
        problems.add(f"{where}: F/S presence does not follow the sign of Z={z!r}")
        return
    envelope, z_closed, s_closed, cv_closed = closed_forms(alpha, homega, n, mu, tau)
    _check_z_f(problems, where, "closed form", z, f, z_closed, envelope, tau)
    if not _near(cv, cv_closed, REL_TOL * max(1.0, abs(cv_closed))):
        problems.add(f"{where}: Cv {cv!r} != closed form {cv_closed!r}")
    if s is not None and (s_closed is None or not _near(s, s_closed, REL_TOL * max(1.0, abs(s_closed)))):
        problems.add(f"{where}: S {s!r} != closed form {s_closed!r}")
    if oracle:
        _check_z_f(problems, where, "matrix route", z, f, partition_function(params, n, tau), envelope, tau)


def _observable(raw, problems: Problems, where: str):
    """Parse one observable field; None for empty/null, reject nan and inf."""
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        problems.add(f"{where}: unparsable value {raw!r}")
        return None
    if not math.isfinite(value):
        problems.add(f"{where}: non-finite value {raw!r}")
        return None
    return value


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _records(grid: Grid, text: str, problems: Problems):
    """Yield (index, field dict) of a CSV or JSON sweep output."""
    if grid.fmt == "json":
        try:
            payload = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            problems.add(f"JSON does not parse: {exc}")
            return
        if not isinstance(payload, list):
            problems.add("JSON payload is not a list")
            return
        for i, record in enumerate(payload):
            if not isinstance(record, dict) or list(record) != COLUMNS:
                problems.add(f"row {i}: keys are not {COLUMNS}")
                continue
            yield i, record
        return
    lines = text.split("\n")
    if lines[-1] != "":
        problems.add("CSV does not end with a newline")
    lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        problems.add(f"CSV header {lines[0] if lines else ''!r}, expected {CSV_HEADER!r}")
        return
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            problems.add(f"row {i}: {len(fields)} fields")
            continue
        yield i, dict(zip(COLUMNS, fields))


def _same_number(raw, expected: float) -> bool:
    if isinstance(raw, str):
        return raw == _fmt(expected)
    return isinstance(raw, (int, float)) and not isinstance(raw, bool) and raw == float(_fmt(expected))


def _flag(raw):
    if raw in ("true", "false"):
        return raw == "true"
    return raw if isinstance(raw, bool) else None


def check_rows(grid: Grid, text: str, sample_seed: str) -> tuple[Problems, Counter]:
    """Check a sweep/fig output against its grid.

    Returns the problems and a tally of rows seen, rows per region and valid rows.
    """
    problems = Problems()
    tally = Counter()
    expected = [
        (n, mu, mu_c(grid.alpha, grid.homega, n)) for n in sorted(set(grid.subspaces)) for mu in grid.mus()
    ]
    sample = set(random.Random(sample_seed).sample(range(len(expected)), min(ORACLE_SAMPLE, len(expected))))
    for i, record in _records(grid, text, problems):
        tally["rows"] += 1
        if i >= len(expected):
            continue
        n, mu, critical = expected[i]
        where = f"row {i}"
        raw_n = record["n"]
        if str(raw_n) != str(n) or isinstance(raw_n, bool):
            problems.add(f"{where}: n {raw_n!r}, expected {n}")
            continue
        if not (_same_number(record["mu"], mu) and _same_number(record["tau"], grid.tau)
                and _same_number(record["mu_c"], critical)):
            problems.add(f"{where}: mu/tau/mu_c {record['mu']!r}/{record['tau']!r}/{record['mu_c']!r} off the grid")
            continue
        valid = _flag(record["valid"])
        if valid is None:
            problems.add(f"{where}: valid {record['valid']!r} is not a boolean")
            continue
        values = [_observable(record[key], problems, where) for key in ("Z", "F", "S", "Cv")]
        point = Point(grid.alpha, grid.homega, n, mu, grid.tau)
        check_point(problems, where, point, record["region"], *values, valid, EP_WINDOW, i in sample)
        tally[record["region"]] += 1
        tally["valid"] += valid
    if tally["rows"] != len(expected):
        problems.add(f"{tally['rows']} rows, expected {len(expected)}")
    return problems, tally


def _key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def check_thermo(point: Point, text: str) -> Problems:
    problems = Problems()
    kv = _key_values(text)
    where = "thermo"
    if kv.get("n") != str(point.n) or kv.get("mu") != _fmt(point.mu) or kv.get("tau") != _fmt(point.tau):
        problems.add(f"{where}: echoed inputs {kv.get('n')!r}, {kv.get('mu')!r}, {kv.get('tau')!r}")
    if kv.get("mu_c") != _fmt(mu_c(point.alpha, point.homega, point.n)):
        problems.add(f"{where}: mu_c {kv.get('mu_c')!r}")
    values = [
        _observable(None if kv.get(key) == "undefined" else kv.get(key, "nan"), problems, where)
        for key in ("Z", "F", "S", "Cv")
    ]
    check_point(problems, where, point, kv.get("region"), *values, None, None, True)
    return problems


def check_spectrum(point: Point, text: str) -> Problems:
    problems = Problems()
    kv = _key_values(text)
    params = ModelParams(point.alpha, point.homega, point.mu)
    region = classify(params, point.n).value
    if kv.get("region") != region:
        problems.add(f"spectrum: region {kv.get('region')!r}, expected {region!r}")
    if kv.get("mu_c") != _fmt(mu_c(point.alpha, point.homega, point.n)):
        problems.add(f"spectrum: mu_c {kv.get('mu_c')!r}")
    disc = params.delta**2 - 4.0 * point.mu**2 * (point.n + 1)
    center = 0.5 * (2 * point.n + 1) * point.homega
    half = 0.5 * math.sqrt(abs(disc))
    if region == "Unbroken":
        want = (complex(center + half), complex(center - half))
    else:
        want = (complex(center, half), complex(center, -half))
    try:
        got = (complex(kv["E_plus"].replace("i", "j")), complex(kv["E_minus"].replace("i", "j")))
        got_disc = float(kv["discriminant"])
    except (KeyError, ValueError):
        problems.add("spectrum: E_plus, E_minus or discriminant missing or unparsable")
        return problems
    scale = REL_TOL * max(1.0, abs(center) + half)
    if any(abs(g - w) > scale for g, w in zip(got, want)) or abs(got_disc - disc) > REL_TOL * max(1.0, abs(disc)):
        problems.add(f"spectrum: {got!r} / {got_disc!r}, expected {want!r} / {disc!r}")
    return problems


VERIFY_SUMMARY = re.compile(r"all (\d+) checks passed")


def check_verify(text: str) -> Problems:
    problems = Problems()
    lines = text.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    summary = VERIFY_SUMMARY.fullmatch(lines[-1]) if lines else None
    if any(line.startswith("FAIL ") for line in lines):
        problems.add("verify: a check failed")
    if summary is None or int(summary.group(1)) != passed or passed == 0:
        problems.add(f"verify: summary {lines[-1] if lines else ''!r} does not report all {passed} checks passed")
    return problems


def check_output(command: Command, text: str, sample_seed: str) -> tuple[Problems, Counter]:
    """Check the data a command produced; returns (problems, row tally)."""
    if command.grid is not None:
        return check_rows(command.grid, text, sample_seed)
    if command.name == "thermo":
        return check_thermo(command.point, text), Counter()
    if command.name == "spectrum":
        return check_spectrum(command.point, text), Counter()
    if command.name == "verify":
        return check_verify(text), Counter()
    raise ValueError(f"no checker for command {command.name!r}")


def stderr_problems(stderr: str) -> list[str]:
    return [f"stderr carries a {word}" for word in ("Traceback", "RuntimeWarning") if word in stderr]


class Ledger:
    """Counts attempted and failed invocations across a run.

    The first output of each command is checked in full; a later output must
    be byte-identical to it, and inherits its verdict and row tally.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[tuple[str, ...], tuple[str, bool, Counter]] = {}

    def record(self, command: Command, returncode, stdout: bytes, stderr: str, output: bytes) -> tuple[bool, Counter]:
        """Judge one invocation; returns (ok, row tally of its output)."""
        self.attempted += 1
        problems = Problems()
        if returncode != 0:
            problems.add(f"exit code {returncode}")
        for message in stderr_problems(stderr):
            problems.add(message)
        digest = hashlib.sha256(stdout + b"\0" + output).hexdigest()
        first = self._first.get(command.argv)
        if first is None:
            data = output if command.output is not None else stdout
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                content, tally = Problems(), Counter()
                content.add("output is not UTF-8")
            else:
                content, tally = check_output(command, text, f"{self.seed}:{command.argv}")
            for message in content:
                problems.add(message)
            self._first[command.argv] = (digest, not content, tally)
        else:
            first_digest, first_ok, tally = first
            if digest != first_digest:
                problems.add("output differs from the first run of the same command")
            elif not first_ok:
                problems.add("output repeats a failed first output")
        if problems:
            self.failed += 1
            label = " ".join(command.argv[:4])
            self.problems.extend(f"{label}: {message}" for message in problems[: MAX_PROBLEMS - len(self.problems)])
            return False, tally
        return True, tally

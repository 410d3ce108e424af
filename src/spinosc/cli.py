"""Command-line surface.

Exit codes: 0 success, 2 usage/validation error (an output that cannot be
written, a closed standard output or a sweep worker that stops early too),
3 requested point sits on a coalescence (all observables undefined), 4
verification failure, 130 interrupted (Ctrl-C).  Data output is a pure
rendering of library results and is byte-identical across identical runs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .model import ModelParams
from .spectral import PhaseRegion, block_spectrum, critical_coupling
from .sweep import SweepSpec, emit
from .thermo import thermo_point
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNDEFINED = 3
EXIT_VERIFY = 4
EXIT_INTERRUPTED = 130


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _fmt_complex(value: complex) -> str:
    if value.imag == 0.0:
        return _fmt(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{_fmt(value.real)}{sign}{_fmt(abs(value.imag))}i"


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative number, exponent forms too, as a value.

    argparse takes a token that starts with "-" for a value only if it is an
    integer or a decimal without an exponent, so "--alpha -1e3" or
    "--alpha -5." read as a missing value.  Subparsers are built from
    type(parser), so they share this rule.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinosc",
        description="Spectra, metrics and thermodynamics of the non-Hermitian spin-oscillator ladder.",
    )
    parser.add_argument("--alpha", type=float, default=5.0, help="level splitting (default 5)")
    parser.add_argument("--homega", type=float, default=1.0, help="oscillator quantum (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="eigenvalues and phase of one subspace")
    p_spec.add_argument("--n", type=int, required=True, help="subspace index")
    p_spec.add_argument("--mu", type=float, required=True, help="coupling strength")

    p_thermo = sub.add_parser("thermo", help="Z, F, S, Cv at one point")
    p_thermo.add_argument("--n", type=int, required=True)
    p_thermo.add_argument("--mu", type=float, required=True)
    p_thermo.add_argument("--tau", type=float, default=5.0, help="temperature in energy units (default 5)")

    def add_sweep_flags(p):
        p.add_argument("--tau", type=float, default=5.0)
        p.add_argument("--mu-min", type=float, default=0.0)
        p.add_argument("--mu-max", type=float, default=4.0)
        p.add_argument("--steps", type=int, default=161)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default="-", help="output path, '-' for stdout (default)")

    p_sweep = sub.add_parser("sweep", help="coupling sweep over chosen subspaces")
    p_sweep.add_argument("--subspaces", type=int, nargs="+", default=[0])
    add_sweep_flags(p_sweep)

    p_fig = sub.add_parser("fig", help="sweep preset over subspaces 0 1 2 5 for one observable figure")
    p_fig.add_argument("--id", type=int, choices=(1, 2, 3), required=True, help="1 F, 2 S, 3 Cv; same rows")
    p_fig.add_argument("--subspaces", type=int, nargs="+", default=[0, 1, 2, 5])
    add_sweep_flags(p_fig)

    p_verify = sub.add_parser("verify", help="run the oracle suite over a built-in grid")
    p_verify.add_argument("--cutoff", type=int, default=8, help="oscillator levels for the full-space checks")

    return parser


def _cmd_spectrum(args) -> int:
    params = ModelParams(args.alpha, args.homega, args.mu)
    spectrum = block_spectrum(params, args.n)
    mu_c = critical_coupling(params, args.n)
    print(f"n = {args.n}")
    print(f"mu = {_fmt(params.mu)}")
    print(f"region = {spectrum.region.value}")
    print(f"mu_c = {_fmt(mu_c)}")
    print(f"discriminant = {_fmt(spectrum.discriminant)}")
    print(f"E_plus = {_fmt_complex(spectrum.e_plus)}")
    print(f"E_minus = {_fmt_complex(spectrum.e_minus)}")
    return EXIT_OK


def _cmd_thermo(args) -> int:
    params = ModelParams(args.alpha, args.homega, args.mu)
    point = thermo_point(params, args.n, args.tau)
    mu_c = critical_coupling(params, args.n)

    def opt(value):
        return "undefined" if value is None else _fmt(value)

    print(f"n = {point.n}")
    print(f"mu = {_fmt(point.mu)}")
    print(f"tau = {_fmt(point.tau)}")
    print(f"region = {point.region.value}")
    print(f"mu_c = {_fmt(mu_c)}")
    print(f"Z = {opt(point.z)}")
    print(f"F = {opt(point.free_energy)}")
    print(f"S = {opt(point.entropy)}")
    print(f"Cv = {opt(point.specific_heat)}")
    if point.region is PhaseRegion.EXCEPTIONAL:
        return EXIT_UNDEFINED
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = SweepSpec(args.alpha, args.homega, args.tau, args.subspaces, args.mu_min, args.mu_max, args.steps)
    # SweepSpec validates the whole grid before emit opens the destination: a rejected sweep writes nothing.
    emit(spec, format=args.format, destination=args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_checks(alpha=args.alpha, homega=args.homega, cutoff=args.cutoff)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "spectrum": _cmd_spectrum,
        "thermo": _cmd_thermo,
        "sweep": _cmd_sweep,
        "fig": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        # Python sets sys.stdout to None when it starts with descriptor 1 closed.
        if sys.stdout is None and getattr(args, "output", "-") == "-":
            raise OSError("standard output is closed")
        status = handlers[args.command](args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout is gone (as with `| head`): stop quietly.  A
        # failed --output write arrives as a plain OSError naming the path.
        # Point stdout at devnull so the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:
        # Failures on files and workers are named where they occur; an OS errno left here is standard output's.
        if isinstance(exc, OSError) and exc.errno is not None:
            exc = f"could not write to standard output: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        # Ctrl-C: emit has already killed and reaped any sweep workers on the way out.
        return EXIT_INTERRUPTED

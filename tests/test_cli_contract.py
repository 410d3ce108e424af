"""The CLI's contract over seeded random inputs, called in process through cli.main.

Calls of spectrum, thermo and small sweeps take log-uniform energies,
couplings and temperatures, couplings near each subspace's coalescence, and
now and then a nan, an inf, a subnormal or a signed zero in their place.
Each call must exit 0, 2 or 3, print at most one line on stderr and no nan
or inf token on stdout, and print the same bytes when it runs again.
"""

import contextlib
import io
import math
import random
import re

from spinosc.cli import main

CALLS = 600
NONFINITE_TOKEN = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)
SPECIAL = ("nan", "inf", "-inf", "5e-324", "1e-310", "2.2e-308", "-0.0", "0", "1e308")


def _number(rng, lo, hi, signed=False):
    """A log-uniform value in [10**lo, 10**hi], or one in ten times a special value."""
    if rng.random() < 0.1:
        return rng.choice(SPECIAL)
    value = 10 ** rng.uniform(lo, hi)
    return repr(-value if signed and rng.random() < 0.5 else value)


def _coupling(rng, mu_c):
    """Log-uniform over [0.01, 100] mu_c, or within 2**-45 .. 2**-5 of mu_c, or a special value."""
    draw = rng.random()
    if draw < 0.1 or not 0.0 < mu_c < math.inf:
        return rng.choice(SPECIAL)
    if draw < 0.4:
        return repr(mu_c * (1.0 + rng.choice((1.0, -1.0)) * 2.0 ** -rng.uniform(5, 45)))
    return repr(mu_c * 10 ** rng.uniform(-2, 2))


def _argv(rng):
    alpha, homega = _number(rng, -3, 3, signed=True), _number(rng, -3, 3)
    n = rng.choice((0, 1, 3, 10, 100, 10**4, 10**6, 2**53 - 1))
    try:
        mu_c = abs(float(homega) - float(alpha)) / (2.0 * math.sqrt(n + 1.0))
    except ValueError:
        mu_c = math.nan
    tau = _number(rng, -4, 4)
    head = [f"--alpha={alpha}", f"--homega={homega}"]
    command = rng.choice(("spectrum", "thermo", "sweep"))
    if command == "spectrum":
        return [*head, "spectrum", f"--n={n}", f"--mu={_coupling(rng, mu_c)}"]
    if command == "thermo":
        return [*head, "thermo", f"--n={n}", f"--mu={_coupling(rng, mu_c)}", f"--tau={tau}"]
    mu_min, mu_max = sorted((_coupling(rng, mu_c), _coupling(rng, mu_c)), key=lambda text: float(text))
    subspaces = sorted({rng.choice((0, 1, 2, 5, 40, n)) for _ in range(rng.randrange(1, 4))})
    return [*head, "sweep", "--subspaces", *map(str, subspaces), f"--tau={tau}", f"--mu-min={mu_min}",
            f"--mu-max={mu_max}", f"--steps={rng.randrange(2, 200)}", f"--format={rng.choice(('csv', 'json'))}"]


def _call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def test_cli_contract_over_seeded_inputs():
    rng = random.Random(3)
    statuses = []
    for _ in range(CALLS):
        argv = _argv(rng)
        status, out, err = _call(argv)
        assert status in (0, 2, 3), (argv, status, err)
        assert err.count("\n") <= 1 and (not err or err.startswith("error: ")), (argv, err)
        assert NONFINITE_TOKEN.search(out) is None, (argv, out)
        assert _call(argv) == (status, out, err), argv
        statuses.append(status)
    # Every outcome occurs: answers, refusals, and points on a coalescence.
    assert {statuses.count(code) > 0 for code in (0, 2, 3)} == {True}

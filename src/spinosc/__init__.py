"""Non-Hermitian spin-oscillator ladder model: block Hamiltonians, spectra,
exceptional points, metric operators, and metric-weighted thermodynamics.

The top level exports the names of the README's library sketch; everything
else is imported from its module (spinosc.sweep, spinosc.verify, ...).
`import spinosc` loads no submodule: each export, and spinosc.<module>,
imports its module on first use (PEP 562).
"""

__version__ = "0.1.0"

__all__ = ["ModelParams", "block_spectrum", "critical_coupling", "eta", "thermo_point"]

# The module that defines each exported name.
_OWNER = {"ModelParams": "model", "block_spectrum": "spectral", "critical_coupling": "spectral", "eta": "metric",
          "thermo_point": "thermo"}


def __getattr__(name):
    """Import the module that defines export `name`, or the submodule `name`, and return the attribute."""
    from importlib import import_module, util

    module = f"{__name__}.{_OWNER.get(name, name)}"
    if name.startswith("_") or not name.isidentifier() or util.find_spec(module) is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(module)
    if name in _OWNER:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Non-Hermitian spin-oscillator ladder model: block Hamiltonians, spectra,
exceptional points, metric operators, and metric-weighted thermodynamics.

The top level exports the names of the README's library sketch; everything
else is imported from its module (spinosc.sweep, spinosc.verify, ...).
"""

from .metric import eta
from .model import ModelParams
from .spectral import block_spectrum, critical_coupling
from .thermo import thermo_point

__version__ = "0.1.0"

__all__ = ["ModelParams", "block_spectrum", "critical_coupling", "eta", "thermo_point"]

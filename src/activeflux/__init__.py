"""Active Flux operators for periodic 1-D advection, with verified structure.

The package builds the block-circulant derivative and mass operators of the
third-order Active Flux discretization (cell averages interleaved with shared
interface point values), exposes their per-mode symbols, checks every
summation-by-parts identity with quantified residuals, and runs the
energy-conserving / energy-dissipating advection experiment with relaxation
Runge-Kutta time stepping.

Every name in a module's ``__all__`` is importable from the package itself.
"""

from . import checks, operators, reconstruction, solver, spectral, symbols
from .checks import *
from .operators import *
from .reconstruction import *
from .solver import *
from .spectral import *
from .symbols import *

__version__ = "0.1.0"

_MODULES = (checks, operators, reconstruction, solver, spectral, symbols)
__all__ = sorted({name for m in _MODULES for name in m.__all__} | {"__version__"})

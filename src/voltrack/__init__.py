"""Adaptive tracking of historical volatility from discrete price data.

The package turns a price series into the observed heteroscedasticity
series (squared log-returns over the sampling interval) and tracks its
slowly varying level with a family of gain-scheduled recursive filters,
alongside classical GARCH baselines.  Gains come from a matrix Riccati
equation; a single scalar parameter theta is tuned by minimizing the
observed one-step prediction error.  Simulation, tuning, experiment and
benchmarking layers sit on top, plus a command-line interface.

Each module's ``__all__`` is its public API, and the package re-exports
all of it.
"""

from . import cli, errors, evaluation, filters, gains, simulate, tuning
from .cli import *
from .errors import *
from .evaluation import *
from .filters import *
from .gains import *
from .simulate import *
from .tuning import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *gains.__all__,
    *filters.__all__,
    *tuning.__all__,
    *simulate.__all__,
    *evaluation.__all__,
    *cli.__all__,
]

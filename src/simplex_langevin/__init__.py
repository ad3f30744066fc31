"""Langevin-perturbed multiplicative weights optimization on probability
simplices: Shahshahani-metric geometry, noisy and deterministic
multiplicative-weights updates, a projected-Langevin baseline, benchmark
objectives, and a rolling-window portfolio evaluation protocol.

The public API is the ``__all__`` of each module below, declared there once.
"""
from . import geometry, objectives, optimizers, portfolio
from .geometry import *  # noqa: F401,F403
from .objectives import *  # noqa: F401,F403
from .optimizers import *  # noqa: F401,F403
from .portfolio import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *geometry.__all__, *objectives.__all__,
           *optimizers.__all__, *portfolio.__all__]

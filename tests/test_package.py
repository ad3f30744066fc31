"""The package's public surface is the union of its modules' ``__all__``."""
import simplex_langevin
from simplex_langevin import geometry, objectives, optimizers, portfolio

MODULES = (geometry, objectives, optimizers, portfolio)


def test_module_names_are_the_package_names():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(simplex_langevin, name) is getattr(module, name), name
    listed = [name for module in MODULES for name in module.__all__]
    assert simplex_langevin.__all__ == ["__version__", *listed]
    assert len(set(simplex_langevin.__all__)) == len(simplex_langevin.__all__)


def test_returned_and_raised_types_are_exported():
    # returned by run_chains and lmwu_step, raised by the run loops and
    # rolling_window_evaluate, and the accepted values of ``variant``
    from simplex_langevin import (  # noqa: F401
        VARIANTS, ChainEnds, StepFailureError, StepResult,
    )


def test_removed_exception_types_are_gone():
    # a bad argument is a ValueError and a failed step a StepFailureError
    for module in (simplex_langevin, *MODULES):
        for name in ("RetractionFailureError", "PortfolioFitError"):
            assert not hasattr(module, name), (module.__name__, name)

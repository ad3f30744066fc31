"""The package's public surface is the union of its modules' ``__all__``,
every name the benchmark's tracer wraps still exists, and the CLI imports
no SciPy."""
import importlib
import os
import subprocess
import sys

import simplex_langevin
from simplex_langevin import geometry, objectives, optimizers, portfolio

MODULES = (geometry, objectives, optimizers, portfolio)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_cli_does_not_import_scipy():
    # the tests may use SciPy; the package does not, and each import it
    # makes is paid by every CLI start
    package_root = os.path.dirname(os.path.dirname(simplex_langevin.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    child = ("import sys, simplex_langevin.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # perfbench/tracing.py reads every name it wraps with getattr: a name the
    # program drops or renames makes `--trace 1` die at install
    monkeypatch.syspath_prepend(REPO)
    tracing = importlib.import_module("perfbench.tracing")
    package = "simplex_langevin"
    names = [(importlib.import_module(f"{package}.{module}"), attr)
             for module, attr, _, _ in tracing.COARSE]
    names += [(optimizers, attr) for attr in tracing.GEOMETRY_LEAVES]
    names += [(objectives.Objective, attr) for attr in tracing.OBJECTIVE_LEAVES]
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer = tracing.Tracer(package)
    tracer.install()
    try:
        for (owner, attr), original in zip(names, originals):
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(names, originals):
        assert getattr(owner, attr) is original, attr

"""Spans around the program's public functions, recorded from outside it.

The tracer wraps functions of ``simplex_langevin`` by replacing module and
class attributes, so the program itself is not edited. Two kinds of record
are kept in memory:

* a span for each call at a coarse layer boundary (``cli.main``,
  ``compare_methods``, ``rolling_window_evaluate``, ``run_optimizer``,
  ``load_returns``): name, module, start, end, parent span, operation id and a
  few counters;
* for the per-step leaf calls (``Objective.value`` / ``.gradient`` and the
  geometry functions the step functions use) one aggregate per parent span
  and function: call count and total time. A compare run makes several
  hundred thousand leaf calls, so one span each would take more memory than
  the workload itself.

Self time of a span is its duration minus the time covered by its child
spans and leaf aggregates. Calls are single-threaded and properly nested, so
the covered time is the plain sum of the children's durations.
"""
from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Span:
    span_id: int
    name: str
    module: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0
    # leaf name -> [calls, seconds]
    leaves: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)


# (module, attribute, span name, layer) of the coarse boundaries. Each
# function is replaced in the namespace its caller looks it up in.
COARSE = (
    ("cli", "main", "cli.main", "cli"),
    ("cli", "run_optimizer", "optimizers.run_optimizer", "optimizers"),
    ("cli", "compare_methods", "portfolio.compare_methods", "portfolio"),
    ("cli", "load_returns", "portfolio.load_returns", "portfolio"),
    ("portfolio", "rolling_window_evaluate",
     "portfolio.rolling_window_evaluate", "portfolio"),
    ("portfolio", "run_optimizer", "optimizers.run_optimizer", "optimizers"),
)

# Geometry functions as the step functions see them: through the
# ``simplex_langevin.optimizers`` namespace.
GEOMETRY_LEAVES = (
    "sample_noise",
    "normalize_retraction",
    "shahshahani_gradient",
    "euclidean_simplex_projection",
    "lift_to_interior",
)
OBJECTIVE_LEAVES = ("value", "gradient")


class Tracer:
    """Installs wrappers on the program, records spans while installed."""

    def __init__(self, package):
        self._pkg = package
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_operation(self, op_id: int) -> None:
        self._op_id = op_id

    def _open(self, name: str, module: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, module, self._op_id, parent, _clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()

    def _coarse(self, fn, name: str, module: str):
        tracer = self
        chain = name == "optimizers.run_optimizer"
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = tracer._open(name, module)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                if chain:
                    span.attrs.update(_chain_attrs(
                        signature.bind(*args, **kwargs).arguments, None, exc))
                raise
            finally:
                tracer._close(span)
            if chain:
                span.attrs.update(_chain_attrs(
                    signature.bind(*args, **kwargs).arguments, result, None))
            return result

        return wrapper

    def _leaf(self, fn, key: str):
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                if stack:
                    acc = stack[-1].leaves.get(key)
                    if acc is None:
                        stack[-1].leaves[key] = [1, dt]
                    else:
                        acc[0] += 1
                        acc[1] += dt

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = {
            m: importlib.import_module(f"{self._pkg}.{m}")
            for m in ("cli", "portfolio", "optimizers", "objectives")
        }
        for mod, attr, name, layer in COARSE:
            owner = modules[mod]
            self._patch(owner, attr, self._coarse(getattr(owner, attr), name, layer))
        opt = modules["optimizers"]
        for attr in GEOMETRY_LEAVES:
            self._patch(opt, attr, self._leaf(getattr(opt, attr), f"geometry.{attr}"))
        objective_cls = modules["objectives"].Objective
        for attr in OBJECTIVE_LEAVES:
            self._patch(
                objective_cls, attr,
                self._leaf(getattr(objective_cls, attr), f"objectives.{attr}"),
            )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def to_records(self) -> list[dict]:
        """Spans as plain dicts, for writing out when the benchmark ends."""
        return [
            {
                "id": s.span_id, "name": s.name, "module": s.module,
                "op": s.op_id, "parent": s.parent,
                "start": s.start, "end": s.end,
                "leaves": {k: [c, t] for k, (c, t) in s.leaves.items()},
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


def _chain_attrs(call: dict, traj, exc) -> dict:
    """Counters of one ``run_optimizer(method, objective, init, cfg)`` call."""
    method, cfg = call["method"], call["cfg"]
    attrs = {
        "method": str(getattr(method, "value", method)),
        "objective": call["objective"].name,
        "beta": float(cfg.beta),
    }
    if traj is not None:
        attrs.update(
            steps=int(cfg.max_iters),
            clamped=int(traj.clamped[1:].sum()),
            resampled=int(traj.resampled[1:].sum()),
            record_bytes=int(
                traj.points.nbytes + traj.f_values.nbytes
                + traj.clamped.nbytes + traj.resampled.nbytes
            ),
            failed=0,
        )
    else:
        # a chain that raised at iteration k executed k step attempts
        iteration = getattr(exc, "iteration", None)
        attrs.update(
            steps=int(iteration or 0), clamped=0, resampled=0,
            record_bytes=0, failed=1,
        )
    return attrs

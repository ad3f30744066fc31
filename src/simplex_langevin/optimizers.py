"""Optimizer steps and run orchestration.

Four update rules over (products of) probability simplices:

* ``lmwu`` — multiplicative weights perturbed by metric Brownian noise with
  its Ito correction drift, resampling draws that would leave the simplex;
* ``linear-mwu`` — deterministic multiplicative weights, linear form;
* ``exp-mwu`` — deterministic multiplicative weights, exponential form;
* ``proj-langevin`` — Euclidean Langevin step followed by exact simplex
  projection (baseline).

``run_optimizer`` drives any of them for a fixed iteration count, recording
every iterate, and ``theoretical_step_bound`` / ``theoretical_iteration_budget``
evaluate the convergence-guarantee formulas for a given constant bundle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    DEFAULT_FLOOR,
    SUM_TOL,
    euclidean_simplex_projection,
    exp_map,
    lift_to_interior,
    normalize_retraction,
    sample_noise,
    shahshahani_gradient,
)
from .objectives import Objective

__all__ = [
    "Method",
    "LmwuConfig",
    "TheoryBudget",
    "StepResult",
    "StepSizeError",
    "StepFailureError",
    "Trajectory",
    "mwu_linear_step",
    "mwu_exponential_step",
    "lmwu_step",
    "projected_langevin_step",
    "run_optimizer",
    "theoretical_step_bound",
    "theoretical_iteration_budget",
]


class Method(str, Enum):
    """Update rules accepted by :func:`run_optimizer` (and the CLI)."""

    LMWU = "lmwu"
    LINEAR_MWU = "linear-mwu"
    EXP_MWU = "exp-mwu"
    PROJECTED_LANGEVIN = "proj-langevin"


class StepSizeError(ValueError):
    """The step size made a multiplicative update factor nonpositive."""


class StepFailureError(RuntimeError):
    """A stochastic step could not produce a valid point.

    ``iteration`` and ``block`` are filled in by the caller that knows them
    (run loop / block layout); both may be None.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 block: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.block = block

    def __str__(self) -> str:
        where = []
        if self.iteration is not None:
            where.append(f"iteration {self.iteration}")
        if self.block is not None:
            where.append(f"block {self.block}")
        base = super().__str__()
        return f"{base} ({', '.join(where)})" if where else base


@dataclass(frozen=True)
class LmwuConfig:
    """Run configuration shared by all methods.

    ``beta`` is the inverse temperature (ignored by the deterministic
    methods), ``floor`` the positivity floor used for clamping and degeneracy
    checks, and ``resample_limit`` the number of extra noise draws allowed
    when a draw would push an iterate off the simplex.
    """

    eps: float
    beta: float
    max_iters: int
    seed: int = 0
    floor: float = DEFAULT_FLOOR
    resample_limit: int = 16

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError("eps must be a positive finite float")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be a positive finite float")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not (0.0 < self.floor < 1.0):
            raise ValueError("floor must lie in (0, 1)")
        if self.resample_limit < 0:
            raise ValueError("resample_limit must be >= 0")


@dataclass(frozen=True)
class TheoryBudget:
    """Constant bundle for the convergence-guarantee formulas.

    M, B bound the objective's smoothness/gradient, ``sigma`` the noise
    magnitude, ``alpha`` and ``C`` the log-Sobolev constants, ``delta`` the
    target accuracy.
    """

    M: float
    B: float
    sigma: float
    alpha: float
    C: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("M", "B", "sigma", "alpha", "C", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.M < 0 or self.B < 0 or self.sigma < 0:
            raise ValueError("M, B, sigma must be nonnegative")
        if self.alpha <= 0 or self.C <= 0 or self.delta <= 0:
            raise ValueError("alpha, C, delta must be positive")


class StepResult(NamedTuple):
    """Point produced by a step plus what it took to get there."""

    point: np.ndarray
    clamped: bool
    resampled: bool


@dataclass(frozen=True)
class Trajectory:
    """Array-backed record of a full run; index 0 is the initial point."""

    points: np.ndarray
    f_values: np.ndarray
    clamped: np.ndarray
    resampled: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def iters(self) -> int:
        return len(self) - 1

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]

    @property
    def final_f(self) -> float:
        return float(self.f_values[-1])

    @property
    def best_f(self) -> float:
        return float(self.f_values.min())


# ---------------------------------------------------------------------------
# single-simplex steps
# ---------------------------------------------------------------------------

def mwu_linear_step(x: np.ndarray, grad: np.ndarray, eps: float) -> np.ndarray:
    """x_i ← x_i (1 − ε g_i) / (1 − ε Σ_j x_j g_j).

    The denominator is computed as the actual sum of the numerators (equal to
    the closed form whenever x sums to 1): dividing by the closed form instead
    lets the float-level sum error grow by a factor 1/denominator every
    iteration, which breaks the simplex invariant after a few hundred steps
    near a vertex.

    Raises:
        StepSizeError: some multiplier 1 − ε g_i is nonpositive, i.e. ``eps``
            is too large for this gradient.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if x.shape != grad.shape:
        raise ValueError("point and gradient must have the same shape")
    mult = 1.0 - eps * grad
    if mult.min() <= 0.0:
        raise StepSizeError(
            f"eps={eps!r} makes a multiplier nonpositive (min {mult.min():.3e})"
        )
    numer = x * mult
    return numer / numer.sum()


def mwu_exponential_step(x: np.ndarray, grad: np.ndarray, eps: float) -> np.ndarray:
    """x_i ← x_i e^{−ε g_i} / Σ_j x_j e^{−ε g_j}, i.e. ``exp_map(x, −ε·grad)``."""
    return exp_map(x, -eps * np.asarray(grad, dtype=float))


def lmwu_step(
    x: np.ndarray,
    grad: np.ndarray,
    cfg: LmwuConfig,
    rng: np.random.Generator,
) -> StepResult:
    """One noisy multiplicative-weights step on a single simplex.

    Numerators x_i − ε x_i g_i + V_i are normalized by their sum (which
    equals the 1 − ε Σ x_j g_j + Σ V_j denominator because x sums to one).
    A draw is rejected and resampled when the sum is <= floor or any
    numerator is nonpositive; after ``cfg.resample_limit`` extra draws the
    last numerator vector is clamped-and-renormalized instead (flagged), or,
    if its sum is still degenerate, the step fails.

    Raises:
        StepFailureError: resample budget exhausted with the component sum
            still <= floor.
    """
    x = np.asarray(x, dtype=float)
    base = x - cfg.eps * shahshahani_gradient(x, grad)
    numer = None
    total = -math.inf
    for attempt in range(cfg.resample_limit + 1):
        draw = sample_noise(x, cfg.eps, cfg.beta, rng, floor=cfg.floor)
        numer = base + draw.values
        total = float(numer.sum())
        if total > cfg.floor and numer.min() > 0.0:
            point, clamped = normalize_retraction(numer, floor=cfg.floor)
            return StepResult(point, clamped, attempt > 0)
    if total > cfg.floor:
        # salvageable: only sign violations remain, clamp them away
        point, _ = normalize_retraction(numer, floor=cfg.floor)
        return StepResult(point, True, cfg.resample_limit > 0)
    raise StepFailureError(
        f"update denominator {total:.3e} stayed below floor after "
        f"{cfg.resample_limit} resamples"
    )


def projected_langevin_step(
    x: np.ndarray,
    grad: np.ndarray,
    eps: float,
    beta: float,
    rng: np.random.Generator,
    *,
    floor: float = DEFAULT_FLOOR,
) -> np.ndarray:
    """Euclidean Langevin step, then exact projection back to the simplex.

    y = x − ε·grad + √(2εβ⁻¹)·z with IID standard normal z; the projection
    output has its zeros lifted to ``floor`` so metric operations stay
    defined downstream.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if x.shape != grad.shape:
        raise ValueError("point and gradient must have the same shape")
    if eps <= 0.0 or beta <= 0.0:
        raise ValueError("eps and beta must be positive")
    y = x - eps * grad + math.sqrt(2.0 * eps / beta) * rng.standard_normal(x.size)
    return lift_to_interior(euclidean_simplex_projection(y), floor=floor)


# ---------------------------------------------------------------------------
# products of simplices
# ---------------------------------------------------------------------------

class _BlockLayout:
    """One slice per simplex block of ``block_dims``. Every walk over the
    blocks goes through this class: init validation, the per-block RNG
    streams, and the blockwise step with its failure tags and simplex check.
    """

    def __init__(self, block_dims: Sequence[int]):
        stops = np.cumsum(block_dims).tolist()
        self.slices = [slice(a, b) for a, b in zip([0] + stops[:-1], stops)]

    def validate_init(self, x: np.ndarray, floor: float) -> None:
        for s in self.slices:
            block = x[s]
            if not np.isfinite(block).all() or block.min() < floor:
                raise ValueError("init coordinates must be finite and >= floor")
            if abs(float(block.sum()) - 1.0) > SUM_TOL:
                raise ValueError("each init block must sum to 1 within 1e-9")

    def rngs(self, seed: int) -> list[np.random.Generator]:
        if len(self.slices) == 1:
            # the canonical stream for the seed, so single-simplex runs are
            # reproducible against a plain default_rng(seed) transcription
            return [np.random.default_rng(seed)]
        return [
            np.random.default_rng(np.random.SeedSequence([seed, b]))
            for b in range(len(self.slices))
        ]

    def step(self, step_fn, x, grad, cfg: LmwuConfig, rngs) -> StepResult:
        """Apply ``step_fn(x_b, grad_b, cfg, rng_b) -> StepResult`` to each
        block b. A single block gets the step's own result, with no copy."""
        if len(self.slices) == 1:
            res = step_fn(x, grad, cfg, rngs[0])
            self._check(res.point, 0)
            return res
        out = np.empty_like(x)
        clamped = resampled = False
        for b, (s, rng) in enumerate(zip(self.slices, rngs)):
            try:
                point, cl, rs = step_fn(x[s], grad[s], cfg, rng)
            except StepFailureError as exc:
                exc.block = b
                raise
            self._check(point, b)
            out[s] = point
            clamped |= cl
            resampled |= rs
        return StepResult(out, clamped, resampled)

    @staticmethod
    def _check(block: np.ndarray, b: int) -> None:
        if abs(float(block.sum()) - 1.0) > SUM_TOL or block.min() <= 0.0:
            raise StepFailureError(
                f"iterate left the simplex (block sum {block.sum()!r}, "
                f"min coord {block.min()!r})", block=b,
            )


def _deterministic(step_fn):
    return lambda x, g, cfg, rng: StepResult(step_fn(x, g, cfg.eps), False, False)


# the per-block step (x, grad, cfg, rng) -> StepResult of each method
_BLOCK_STEPS = {
    Method.LMWU: lmwu_step,
    Method.LINEAR_MWU: _deterministic(mwu_linear_step),
    Method.EXP_MWU: _deterministic(mwu_exponential_step),
    Method.PROJECTED_LANGEVIN: lambda x, g, cfg, rng: StepResult(
        projected_langevin_step(x, g, cfg.eps, cfg.beta, rng, floor=cfg.floor),
        False, False,
    ),
}


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def run_optimizer(
    method: Method | str,
    objective: Objective,
    init,
    cfg: LmwuConfig,
) -> Trajectory:
    """Run ``method`` on ``objective`` from ``init`` for ``cfg.max_iters`` steps.

    Every iterate (including the initial point) is recorded with its
    objective value and the clamp/resample flags of the step that produced
    it. The objective is evaluated once per iterate: its value is recorded
    and its gradient drives the next step. Runs are deterministic in
    (method, objective, init, cfg): stochastic methods derive one RNG
    substream per simplex block from ``cfg.seed``.

    Raises:
        StepFailureError: a stochastic step degenerated; carries the
            iteration index (and block, for multi-block objectives).
        StepSizeError: a linear MWU multiplier went nonpositive.
    """
    step = _BLOCK_STEPS[Method(method)]
    x = np.array(init, dtype=float)
    if x.shape != (objective.dim,):
        raise ValueError(
            f"init has shape {x.shape}, objective {objective.name!r} expects "
            f"({objective.dim},)"
        )
    layout = _BlockLayout(objective.block_dims)
    layout.validate_init(x, cfg.floor)
    rngs = layout.rngs(cfg.seed)

    k_max = cfg.max_iters
    points = np.empty((k_max + 1, objective.dim))
    f_values = np.empty(k_max + 1)
    clamped = np.zeros(k_max + 1, dtype=bool)
    resampled = np.zeros(k_max + 1, dtype=bool)
    points[0] = x
    f_values[0], grad = objective.value_and_grad(x)

    for k in range(1, k_max + 1):
        try:
            x, clamped[k], resampled[k] = layout.step(step, x, grad, cfg, rngs)
        except StepFailureError as exc:
            if exc.iteration is None:
                exc.iteration = k
            raise
        points[k] = x
        f_values[k], grad = objective.value_and_grad(x)
    return Trajectory(points, f_values, clamped, resampled)


# ---------------------------------------------------------------------------
# guarantee formulas
# ---------------------------------------------------------------------------

def theoretical_step_bound(tb: TheoryBudget) -> float:
    """Largest step size the convergence guarantee covers:
    δ²α / (8C(Mσ/2 + B))."""
    denom = 8.0 * tb.C * (0.5 * tb.M * tb.sigma + tb.B)
    if denom <= 0.0:
        raise ValueError("Mσ/2 + B must be positive")
    return (tb.delta ** 2) * tb.alpha / denom


def theoretical_iteration_budget(tb: TheoryBudget, eps: float) -> int:
    """Iterations the guarantee requires at step size ``eps``:
    ⌈(16/3ε)·ln(16(Mσ/2 + B)² / (δ²α))⌉, clamped below at 1."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    arg = 16.0 * (0.5 * tb.M * tb.sigma + tb.B) ** 2 / (tb.delta ** 2 * tb.alpha)
    if arg <= 0.0:
        raise ValueError("budget log argument must be positive")
    return max(1, math.ceil(16.0 / (3.0 * eps) * math.log(arg)))

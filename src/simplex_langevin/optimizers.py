"""Optimizer steps and run orchestration.

Four update rules over (products of) probability simplices:

* ``lmwu`` — multiplicative weights perturbed by metric Brownian noise with
  its Ito correction drift, resampling draws that would leave the simplex;
* ``linear-mwu`` — deterministic multiplicative weights, linear form;
* ``exp-mwu`` — deterministic multiplicative weights, exponential form;
* ``proj-langevin`` — Euclidean Langevin step followed by exact simplex
  projection (baseline).

``run_optimizer`` drives any of them for a fixed iteration count, recording
every iterate; ``run_chains`` keeps only where each seed's chain ended,
advancing ``lmwu`` chains as one array (``_lmwu_rows``, whose one-row case
is ``lmwu_step``); ``theoretical_step_bound`` and
``theoretical_iteration_budget`` evaluate the convergence-guarantee formulas
for a given constant bundle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    DEFAULT_FLOOR,
    SUM_TOL,
    _left_simplex,
    _left_sum,
    _pin_floor,
    _require_positive,
    _simplex_point,
    christoffel_drift,
    euclidean_simplex_projection,
    exp_map,
    lift_to_interior,
    normalize_retraction,  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)
    sample_noise,  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)
    shahshahani_gradient,
)
from .objectives import Objective

__all__ = [
    "Method",
    "LmwuConfig",
    "TheoryBudget",
    "StepResult",
    "StepFailureError",
    "Trajectory",
    "ChainEnds",
    "mwu_linear_step",
    "lmwu_step",
    "projected_langevin_step",
    "run_optimizer",
    "run_chains",
    "theoretical_step_bound",
    "theoretical_iteration_budget",
]


class Method(str, Enum):
    """Update rules accepted by :func:`run_optimizer` (and the CLI)."""

    LMWU = "lmwu"
    LINEAR_MWU = "linear-mwu"
    EXP_MWU = "exp-mwu"
    PROJECTED_LANGEVIN = "proj-langevin"

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown method {value!r} (expected one of {valid})")


class StepFailureError(RuntimeError):
    """A step could not produce a point on the simplex.

    The rolling-window loop that ran the fit sets ``period``, the run loop
    that ran the step sets ``iteration``, and the walk over a product of
    simplices sets ``block``; each stays None otherwise.
    """

    period: int | None = None
    iteration: int | None = None
    block: int | None = None

    def __str__(self) -> str:
        where = []
        if self.period is not None:
            where.append(f"period {self.period}")
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
    methods) and ``floor`` the positivity floor used for clamping and
    degeneracy checks.
    """

    eps: float
    beta: float
    max_iters: int
    seed: int = 0
    floor: float = DEFAULT_FLOOR

    def __post_init__(self) -> None:
        _require_positive("eps", self.eps)
        _require_positive("beta", self.beta)
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, (int, np.integer))):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError("seed must be a non-negative integer")
        if not (0.0 < self.floor < 1.0):
            raise ValueError("floor must lie in (0, 1)")


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
        ValueError: ``eps`` is not a positive finite float.
        StepFailureError: some multiplier 1 − ε g_i is nonpositive, i.e.
            ``eps`` is too large for this gradient.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if x.shape != grad.shape:
        raise ValueError("point and gradient must have the same shape")
    _require_positive("eps", eps)
    mult = 1.0 - eps * grad
    if mult.min() <= 0.0:
        raise StepFailureError(
            f"eps={float(eps)!r} makes a multiplier nonpositive (min {mult.min():.3e})"
        )
    numer = x * mult
    return numer / _left_sum(numer)


# extra noise draws an lmwu step may take when a draw would leave the simplex
_RESAMPLE_LIMIT = 16


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
    numerator is nonpositive; after 16 extra draws the last numerator
    vector is clamped-and-renormalized instead (flagged), or, if its sum is
    still degenerate, the step fails. It is :func:`_lmwu_rows` on one row,
    each attempt drawing ``rng.standard_normal(n)``.

    Raises:
        StepFailureError: resample budget exhausted with the component sum
            still <= floor, or a point off the simplex (an accepted +inf
            numerator, as a −inf gradient coordinate gives).
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if x.shape != grad.shape:
        raise ValueError(f"dimension mismatch: point {x.shape} vs gradient {grad.shape}")
    points, clamped, resampled, failure = _lmwu_rows(
        x[None], grad[None], cfg, lambda rows: rng.standard_normal((rows.size, x.size)))
    if failure is not None:
        raise failure[1]
    return StepResult(points[0], bool(clamped[0]), bool(resampled[0]))


def _denominator_failure(total: float) -> StepFailureError:
    return StepFailureError(
        f"update denominator {total:.3e} stayed below floor after "
        f"{_RESAMPLE_LIMIT} resamples"
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
    defined downstream. A proposal y that is not finite raises
    :class:`StepFailureError`.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if x.shape != grad.shape:
        raise ValueError("point and gradient must have the same shape")
    _require_positive("eps", eps)
    _require_positive("beta", beta)
    y = x - eps * grad + math.sqrt(2.0 * eps / beta) * rng.standard_normal(x.size)
    return _project_proposal(y, floor)


def _project_proposal(y: np.ndarray, floor: float) -> np.ndarray:
    if not np.isfinite(y).all():
        raise StepFailureError("Langevin proposal is not finite")
    try:
        projected = euclidean_simplex_projection(y)
    except ValueError as exc:  # coordinates too large to have a threshold
        raise StepFailureError(f"Langevin proposal cannot be projected: {exc}") from None
    return lift_to_interior(projected, floor=floor)


# ---------------------------------------------------------------------------
# products of simplices
# ---------------------------------------------------------------------------

class _BlockLayout:
    """One slice per simplex block of ``block_dims``. Every walk over the
    blocks goes through this class: init validation, the per-block RNG
    streams, and the run's step, one float step per block; over several
    blocks a failure names its block.
    """

    def __init__(self, block_dims: Sequence[int]):
        stops = np.cumsum(block_dims).tolist()
        self.slices = [slice(a, b) for a, b in zip([0] + stops[:-1], stops)]

    def validate_init(self, x: np.ndarray, floor: float) -> None:
        for s in self.slices:
            _simplex_point(x[s], floor)

    def rngs(self, seed: int) -> list[np.random.Generator]:
        if len(self.slices) == 1:
            # the canonical stream for the seed, so single-simplex runs are
            # reproducible against a plain default_rng(seed) transcription
            return [np.random.default_rng(seed)]
        return [
            np.random.default_rng(np.random.SeedSequence([seed, b]))
            for b in range(len(self.slices))
        ]

    def step(self, method: Method, cfg: LmwuConfig, seed: int):
        """``method``'s step over every block, each block on its own stream
        of ``seed``: ``(x, grad) -> (point, clamped, resampled)`` on float
        lists. A single block gets its float step as it is."""
        steps = [_float_step(method, cfg, rng, s.stop - s.start)
                 for s, rng in zip(self.slices, self.rngs(seed))]
        if len(steps) == 1:
            return steps[0]

        def blocks_step(x: list, grad: list):
            out = []
            clamped = resampled = False
            for b, (s, step) in enumerate(zip(self.slices, steps)):
                try:
                    point, cl, rs = step(x[s], grad[s])
                except StepFailureError as exc:
                    exc.block = b
                    raise
                out += point
                clamped |= cl
                resampled |= rs
            return out, clamped, resampled

        return blocks_step


def _off_simplex_error(point: np.ndarray) -> StepFailureError:
    return StepFailureError(
        f"iterate left the simplex (block sum {float(_left_sum(point))!r}, "
        f"min coord {float(point.min())!r})"
    )


def _float_step(method: Method, cfg: LmwuConfig, rng: np.random.Generator,
                n: int):
    """``method``'s step on one simplex of ``n`` coordinates, with the
    per-step simplex check: ``(x, grad) -> (point, clamped, resampled)``
    on float lists.

    It does the public NumPy step's operations in the same order on Python
    floats, so it gives the same bits: every sum goes through
    ``_left_sum``, ``sqrt`` is correctly rounded, ``exp-mwu`` keeps NumPy's
    ``exp``, and the normals come from ``rng`` in blocks in the order
    ``rng.standard_normal(n)`` gives them. The clamp and the lift call
    ``_pin_floor`` as the NumPy steps do. A start below the floor, a
    multiplier <= 0, an ``exp-mwu`` sum of 0 and a Langevin proposal that is
    not finite or has no threshold go to the NumPy code, which raises.
    """
    eps, beta, floor = cfg.eps, cfg.beta, cfg.floor
    drift_c, noise_c = 0.5 * eps / beta, 2.0 * eps / beta
    sd = math.sqrt(noise_c)
    draws = _normal_lists(rng, n)

    def lmwu(x, g):
        if min(x) < floor:
            christoffel_drift(np.array(x), eps, beta, floor=floor)  # raises
        s_x = _left_sum([1.0 / v for v in x])
        terms = [(v - eps * (v * gv), drift_c * (n + 1.0 - (1.0 + v) * s_x),
                  math.sqrt(noise_c * v)) for v, gv in zip(x, g)]
        for attempt in range(_RESAMPLE_LIMIT + 1):
            numer = [b + (d + r * z) for (b, d, r), z in zip(terms, next(draws))]
            total = _left_sum(numer)
            if total > floor and min(numer) > 0.0:
                break
        if not total > floor:
            raise _denominator_failure(total)
        point = [v / total for v in numer]
        if min(point) >= floor:
            return point, False, attempt > 0
        return _pin_floor(point, floor), True, attempt > 0

    def linear_mwu(x, g):
        mult = [1.0 - eps * gv for gv in g]
        numer = [v * m for v, m in zip(x, mult)]
        total = _left_sum(numer)
        if min(mult) > 0.0 and total > 0.0:
            return [v / total for v in numer], False, False
        return mwu_linear_step(np.array(x), np.array(g), eps).tolist(), False, False

    def exp_mwu(x, g):
        v = [-eps * gv for gv in g]
        top = max(v)
        e = np.exp(np.array([t - top for t in v])).tolist()
        w = [a * b for a, b in zip(x, e)]
        total = _left_sum(w)
        if total > 0.0:
            return [t / total for t in w], False, False
        return exp_map(np.array(x), np.array(v)).tolist(), False, False

    def proj_langevin(x, g):
        y = [v - eps * gv + sd * z for v, gv, z in zip(x, g, next(draws))]
        u = sorted(y, reverse=True)
        css = list(accumulate(u))
        rho = [k for k in range(n) if u[k] - (css[k] - 1.0) / (k + 1) > 0.0]
        if rho and all(map(math.isfinite, y)):
            theta = (css[rho[-1]] - 1.0) / (rho[-1] + 1.0)
            point = [max(v - theta, 0.0) for v in y]
            if min(point) < floor:
                point = _pin_floor(point, floor)
            return point, False, False
        return _project_proposal(np.array(y), floor).tolist(), False, False

    step = {Method.LMWU: lmwu, Method.LINEAR_MWU: linear_mwu,
            Method.EXP_MWU: exp_mwu, Method.PROJECTED_LANGEVIN: proj_langevin,
            }[method]

    def checked_step(x: list, grad: list):
        point, clamped, resampled = step(x, grad)
        if abs(_left_sum(point) - 1.0) <= SUM_TOL and min(point) > 0.0:
            return point, clamped, resampled
        raise _off_simplex_error(np.array(point))

    return checked_step


def _normal_lists(rng: np.random.Generator, n: int):
    """``rng.standard_normal(n)`` draw after draw as float lists, drawn in
    blocks as ``_Normals`` draws them."""
    while True:
        yield from rng.standard_normal((max(1, _NORMAL_BLOCK // n), n)).tolist()


# ---------------------------------------------------------------------------
# run loops
# ---------------------------------------------------------------------------

def _initial_point(objective: Objective, init, floor: float):
    """``init`` as a validated float vector, and the objective's blocks."""
    x = np.array(init, dtype=float)
    if x.shape != (objective.dim,):
        raise ValueError(
            f"init has shape {x.shape}, objective {objective.name!r} expects "
            f"({objective.dim},)"
        )
    layout = _BlockLayout(objective.block_dims)
    layout.validate_init(x, floor)
    return x, layout


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
    substream per simplex block from ``cfg.seed``. Steps and objective run
    on float lists, with the bits of the public NumPy step.

    Raises:
        StepFailureError: a step could not produce a point; carries the
            iteration index (and the block, over a product of simplices).
    """
    method = Method(method)
    x, layout = _initial_point(objective, init, cfg.floor)
    step = layout.step(method, cfg, cfg.seed)
    k_max = cfg.max_iters
    points = np.empty((k_max + 1, objective.dim))
    f_values = np.empty(k_max + 1)
    clamped = np.zeros(k_max + 1, dtype=bool)
    resampled = np.zeros(k_max + 1, dtype=bool)
    evaluate = objective._on_floats()
    points[0] = x
    x = x.tolist()
    f_values[0], grad = evaluate(x)

    for k in range(1, k_max + 1):
        try:
            x, clamped[k], resampled[k] = step(x, grad)
        except StepFailureError as exc:
            exc.iteration = k
            raise
        points[k] = x
        f_values[k], grad = evaluate(x)
    return Trajectory(points, f_values, clamped, resampled)


class ChainEnds(NamedTuple):
    """Where the chains of :func:`run_chains` ended, one row per seed: the
    (K, n) final points, the (K,) final values and the (K,) lowest values
    along each chain."""

    final_points: np.ndarray
    final_f: np.ndarray
    best_f: np.ndarray


# chains advanced as one array; longer seed lists run in slices of this
# width, so memory does not grow with the number of seeds
_CHAIN_SLICE = 256
# normals drawn from a chain's generator at once (rounded down to whole draws)
_NORMAL_BLOCK = 768


class _Normals:
    """Each chain's standard normals in draw order, one n-vector per draw.

    A generator's normals do not depend on how calls split them, so drawing
    a block of draws at once and handing them out in order gives each chain
    the values ``rng.standard_normal(n)`` would give it, draw after draw.
    """

    def __init__(self, rngs: list[np.random.Generator], n: int):
        self.rngs = rngs
        self._buf = np.empty((len(rngs), max(1, _NORMAL_BLOCK // n), n))
        self._used = np.full(len(rngs), self._buf.shape[1])

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next draw of each chain in ``rows`` (distinct indices)."""
        for k in rows[self._used[rows] == self._buf.shape[1]]:
            self._buf[k] = self.rngs[k].standard_normal(self._buf.shape[1:])
            self._used[k] = 0
        z = self._buf[rows, self._used[rows]]
        self._used[rows] += 1
        return z


def _lmwu_rows(x, grad, cfg: LmwuConfig, take):
    """One ``lmwu`` step on each row of ``x``; ``take(rows)`` gives the next
    normal draw of each row in ``rows``, and only rejected rows draw again.
    Returns the new points of the rows before the first row that failed,
    their clamped and resampled masks, and that row's (index, error) or
    None."""
    floor = cfg.floor
    # a draw z gives the numerator base + (drift + scale * z), the
    # base + sample_noise(...) of the same z
    base = x - cfg.eps * shahshahani_gradient(x, grad)
    drift = christoffel_drift(x, cfg.eps, cfg.beta, floor=floor)
    scale = np.sqrt((2.0 * cfg.eps / cfg.beta) * x)
    numer = base + (drift + scale * take(np.arange(len(x))))
    total = _left_sum(numer)
    ok = (total > floor) & (numer.min(axis=-1) > 0.0)
    resampled = ~ok
    for _ in range(_RESAMPLE_LIMIT):
        rows = np.flatnonzero(~ok)
        if rows.size == 0:
            break
        redraw = base[rows] + (drift[rows] + scale[rows] * take(rows))
        numer[rows] = redraw
        total[rows] = _left_sum(redraw)
        ok[rows] = (total[rows] > floor) & (redraw.min(axis=-1) > 0.0)
    # past its resamples a row keeps its last draw: clamped while the sum
    # is above the floor, failed otherwise
    failed = np.flatnonzero(~(total > floor))
    m = int(failed[0]) if failed.size else len(x)
    points = numer[:m] / total[:m, None]
    clamped = points.min(axis=-1) < floor
    for k in np.flatnonzero(clamped):
        points[k] = _pin_floor(points[k].tolist(), floor)
    failure = (m, _denominator_failure(float(total[m]))) if failed.size else None
    off = np.flatnonzero(_left_simplex(points))
    if off.size:
        m = int(off[0])
        failure = (m, _off_simplex_error(points[m]))
    return points[:m], clamped[:m], resampled[:m], failure


def run_chains(
    method: Method | str,
    objective: Objective,
    init,
    cfg: LmwuConfig,
    seeds,
) -> ChainEnds:
    """Run one chain of ``method`` per seed from ``init`` and return where
    each ended.

    Chain k ends bit-identical to
    ``run_optimizer(method, objective, init, replace(cfg, seed=seeds[k]))``:
    same final point, final value and lowest value. ``lmwu`` chains advance
    as one (K, n) array, in slices of a fixed width, with no per-step
    history. A chain of another method is its seed's ``run_optimizer`` run,
    so such a sweep holds one trajectory, (iters + 1)·(n + 1) floats.

    Raises:
        ValueError: an objective of several simplex blocks, no seeds, a
            seed that is not a non-negative integer, or a bad init.
        StepFailureError: the error of the lowest-index chain that fails,
            as ``run_optimizer`` raises it for that seed.
    """
    method = Method(method)
    if len(objective.block_dims) != 1:
        raise ValueError("run_chains takes single-simplex objectives only")
    x, layout = _initial_point(objective, init, cfg.floor)
    # each seed passes through the config its run_optimizer twin gets, so
    # the seed rule holds here too
    seeds = [replace(cfg, seed=s).seed for s in seeds]
    if not seeds:
        raise ValueError("run_chains needs at least one seed")
    if method is not Method.LMWU:
        runs = (run_optimizer(method, objective, x, replace(cfg, seed=s))
                for s in seeds)
        ends = [(t.final_point.copy(), t.final_f, t.best_f) for t in runs]
        return ChainEnds(*(np.array(part) for part in zip(*ends)))
    ends = [
        _run_slice(objective, x, cfg, layout, seeds[i:i + _CHAIN_SLICE])
        for i in range(0, len(seeds), _CHAIN_SLICE)
    ]
    return ChainEnds(*(np.concatenate(part) for part in zip(*ends)))


def _run_slice(objective: Objective, init: np.ndarray, cfg: LmwuConfig,
               layout: _BlockLayout, seeds: list[int]):
    """The ``lmwu`` chains of ``seeds`` advanced together as one array."""
    normals = _Normals([layout.rngs(s)[0] for s in seeds], init.size)
    x = np.tile(init, (len(seeds), 1))
    f, grad = objective.values_and_grads(x)
    best = f.copy()
    # chains [0, m) still run: a failing chain ends itself and every later
    # one, so the failure kept is always that of the lowest-index chain
    m = len(seeds)
    failure = None
    for k in range(1, cfg.max_iters + 1):
        new, _, _, failed = _lmwu_rows(x[:m], grad[:m], cfg, normals.take)
        if failed is not None:
            m, failure = failed
            failure.iteration = k
            if m == 0:
                break
        x[:m] = new
        f[:m], grad[:m] = objective.values_and_grads(x[:m])
        np.minimum(best[:m], f[:m], out=best[:m])
    if failure is not None:
        raise failure
    return x, f, best


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
    _require_positive("eps", eps)
    arg = 16.0 * (0.5 * tb.M * tb.sigma + tb.B) ** 2 / (tb.delta ** 2 * tb.alpha)
    if arg <= 0.0:
        raise ValueError("budget log argument must be positive")
    return max(1, math.ceil(16.0 / (3.0 * eps) * math.log(arg)))

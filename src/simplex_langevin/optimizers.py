"""Optimizer steps and run orchestration.

Four update rules over (products of) probability simplices:

* ``lmwu`` — multiplicative weights perturbed by metric Brownian noise with
  the divergence drift ε/β, resampling draws that would leave the simplex;
* ``linear-mwu`` — deterministic multiplicative weights, linear form;
* ``exp-mwu`` — deterministic multiplicative weights, exponential form;
* ``proj-langevin`` — Euclidean Langevin step followed by exact simplex
  projection (baseline).

``run_optimizer`` drives any of them for a fixed iteration count, recording
every iterate; ``run_chains`` keeps only where each seed's chain ended,
advancing ``lmwu`` chains as one array (``_lmwu_rows``). The public steps
are the run's float step on one point. ``theoretical_step_bound`` and
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
    _points,
    _require_floor,
    _require_positive,
    _simplex_point,
    # no step calls these; perfbench/tracing.py wraps them in this namespace
    euclidean_simplex_projection,  # noqa: F401
    lift_to_interior,  # noqa: F401
    normalize_retraction,  # noqa: F401
    sample_noise,  # noqa: F401
    shahshahani_gradient,  # noqa: F401
)
from .objectives import Objective, _OnFloats

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


def _seed_rule(seed):
    """The seed rule of every run: a non-negative integer, returned as is."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return seed


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
        _seed_rule(self.seed)
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
    near a vertex. It is the run's float step on one point.

    Raises:
        ValueError: ``eps`` is not a positive finite float.
        StepFailureError: some multiplier 1 − ε g_i is nonpositive, i.e.
            ``eps`` is too large for this gradient, or the point left the
            simplex (a NaN or ±inf gradient coordinate gives no point).
    """
    cfg = LmwuConfig(eps=eps, beta=1.0, max_iters=0)
    return _one_point_step(Method.LINEAR_MWU, x, grad, cfg).point


# extra noise draws an lmwu step may take when a draw would leave the simplex
_RESAMPLE_LIMIT = 16


def _denominator_failure(total: float) -> StepFailureError:
    return StepFailureError(
        f"update denominator {total:.3e} stayed below floor after "
        f"{_RESAMPLE_LIMIT} resamples"
    )


def lmwu_step(
    x: np.ndarray,
    grad: np.ndarray,
    cfg: LmwuConfig,
    rng: np.random.Generator,
) -> StepResult:
    """One noisy multiplicative-weights step on a single simplex.

    Numerators x_i − ε x_i g_i + ε/β + √(2εx_i/β)·z_i are normalized by
    their sum; ε/β is the divergence term of Riemannian Langevin dynamics
    in the Shahshahani metric, whose stationary law is exp(−βf).
    A draw is rejected and resampled when the sum is <= floor or any
    numerator is nonpositive; after 16 extra draws the last numerator
    vector is clamped-and-renormalized instead (flagged), or, if its sum is
    still degenerate, the step fails. It is the run's float step on one
    point, each attempt drawing ``rng.standard_normal(n)``.

    Raises:
        ValueError: the point rule, or a coordinate of ``x`` below the floor or NaN.
        StepFailureError: resample budget exhausted with the component sum
            still <= floor, or a point off the simplex (an accepted +inf
            numerator, as a −inf gradient coordinate gives).
    """
    return _one_point_step(Method.LMWU, x, grad, cfg, rng)


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

    y = x − ε·grad + √(2εβ⁻¹)·z with z = ``rng.standard_normal(n)``; the
    projection output has its zeros lifted to ``floor`` so metric operations
    stay defined downstream. It is the run's float step on one point, under
    :class:`LmwuConfig`'s rules for ε, β and the floor. A proposal y that is
    not finite or too large to project, or a point off the simplex, raises
    :class:`StepFailureError`.
    """
    cfg = LmwuConfig(eps=eps, beta=beta, max_iters=0, floor=floor)
    return _one_point_step(Method.PROJECTED_LANGEVIN, x, grad, cfg, rng).point


def _one_point_step(method: Method, x, grad, cfg: LmwuConfig, rng=None):
    """The public steps: the point rule on ``x`` and ``grad`` (for ``lmwu``
    the floor rule too), then the float step, each draw ``rng.standard_normal(n)``."""
    x, grad = _points(point=x, gradient=grad)
    if method is Method.LMWU:
        _require_floor(x, cfg.floor)
    draws = iter(lambda: rng.standard_normal(x.size).tolist(), None)
    point, clamped, resampled = _float_step(method, x.size, cfg, draws)(
        x.tolist(), grad.tolist())
    return StepResult(np.array(point), clamped, resampled)


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

    def step(self, method: Method, cfg: LmwuConfig):
        """``method``'s step over every block, each block on its own stream
        of ``cfg.seed``: ``(x, grad) -> (point, clamped, resampled)`` on
        float lists. A single block gets its float step as it is."""
        steps = [_float_step(method, s.stop - s.start, cfg,
                             _normal_lists(rng, s.stop - s.start))
                 for s, rng in zip(self.slices, self.rngs(cfg.seed))]
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


def _float_step(method: Method, n: int, cfg: LmwuConfig, draws):
    """``method``'s step on one simplex of ``n`` coordinates under ``cfg``,
    with the per-step simplex check: ``(x, grad) -> (point, clamped,
    resampled)`` on float lists, each draw the next n-list of ``draws``.

    The one implementation of each rule, behind the runs and the public
    steps; ``lmwu`` has the bits of its batch :func:`_lmwu_rows`: sums go
    through ``_left_sum``, ``sqrt`` is correctly rounded, ``exp-mwu`` takes
    ``math.exp`` (as ``exp_map`` and f1, f2 do), and the clamp and the lift
    call ``_pin_floor``. It raises every step failure itself. Where a rule
    forms no point (a NaN gradient coordinate, or ±inf where ∞ − ∞ arises),
    the point is all NaN, which the simplex check rejects. ``lmwu`` leaves
    the floor rule of its point to ``lmwu_step`` and the run loops.
    """
    eps, beta, floor = float(cfg.eps), float(cfg.beta), float(cfg.floor)
    drift, noise_c = eps / beta, 2.0 * eps / beta
    sd = math.sqrt(noise_c)

    def lmwu(x, g):
        terms = [(v - eps * (v * gv), math.sqrt(noise_c * v)) for v, gv in zip(x, g)]
        for attempt in range(_RESAMPLE_LIMIT + 1):
            numer = [b + (drift + r * z) for (b, r), z in zip(terms, next(draws))]
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
        if min(mult) <= 0.0 and not any(map(math.isnan, mult)):
            raise StepFailureError(f"eps={eps!r} makes a multiplier "
                                   f"nonpositive (min {min(mult):.3e})")
        return [math.nan] * n, False, False

    def exp_mwu(x, g):
        v = [-eps * gv for gv in g]
        top = max(v)
        e = [math.exp(t - top) for t in v]
        w = [a * b for a, b in zip(x, e)]
        total = _left_sum(w)
        if total > 0.0:
            return [t / total for t in w], False, False
        return [math.nan] * n, False, False

    def proj_langevin(x, g):
        y = [v - eps * gv + sd * z for v, gv, z in zip(x, g, next(draws))]
        if not all(map(math.isfinite, y)):
            raise StepFailureError("Langevin proposal is not finite")
        u = sorted(y, reverse=True)
        css = list(accumulate(u))
        rho = [k for k in range(n) if u[k] - (css[k] - 1.0) / (k + 1) > 0.0]
        if not rho:
            raise StepFailureError(
                "Langevin proposal cannot be projected: coordinates of magnitude "
                f"{max(map(abs, y)):.3e} leave no projection threshold in float64")
        theta = (css[rho[-1]] - 1.0) / (rho[-1] + 1.0)
        point = [max(v - theta, 0.0) for v in y]
        if min(point) < floor:
            point = _pin_floor(point, floor)
        return point, False, False

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
    on float lists; the public steps take the same float step.

    A ``linear-mwu`` or ``exp-mwu`` step that returns its own input bit for
    bit, on f1–f6 or the portfolio loss, ends the stepping: those steps and
    objectives are functions of the point, so every later row would repeat
    that one, and it fills them. A user ``fn`` is still called once per
    iterate, as it may count its calls or change over time.

    Raises:
        StepFailureError: a step could not produce a point; carries the
            iteration index (and the block, over a product of simplices).
    """
    method = Method(method)
    x, layout = _initial_point(objective, init, cfg.floor)
    step = layout.step(method, cfg)
    k_max = cfg.max_iters
    points = np.empty((k_max + 1, objective.dim))
    f_values = np.empty(k_max + 1)
    clamped = np.zeros(k_max + 1, dtype=bool)
    resampled = np.zeros(k_max + 1, dtype=bool)
    evaluate = objective._on_floats()
    # every point passes the simplex check, so its coordinates are positive
    # and equal floats have equal bits
    stops = (method in (Method.LINEAR_MWU, Method.EXP_MWU)
             and isinstance(objective.fn, _OnFloats))
    points[0] = x
    x = x.tolist()
    f_values[0], grad = evaluate(x)

    for k in range(1, k_max + 1):
        try:
            new, clamped[k], resampled[k] = step(x, grad)
        except StepFailureError as exc:
            exc.iteration = k
            raise
        if stops and new == x:
            points[k:] = points[k - 1]
            f_values[k:] = f_values[k - 1]
            break
        x = new
        points[k] = x
        f_values[k], grad = evaluate(x)
    return Trajectory(points, f_values, clamped, resampled)


def _final_points(chains, iters: int, gradients) -> list:
    """Where each ``(method, init, cfg)`` chain on one simplex ends after
    ``iters`` steps, or the ``StepFailureError`` its step raised, located by
    iteration. The chains take their float steps in lockstep and keep no
    history. Each step makes one stacked call over the chains still running:
    ``gradients(rows)``, built again whenever a chain leaves, maps the (K, n)
    stack of the points of chains ``rows`` to their (K, n) gradients. A chain
    whose row has the bits of its objective's gradient ends as
    ``run_optimizer(method, objective, init, replace(cfg, max_iters=iters))``
    does, bit for bit."""
    steps, live = [], {}
    for c, (method, init, cfg) in enumerate(chains):
        x = np.array(init, dtype=float)
        layout = _BlockLayout([x.size])
        layout.validate_init(x, cfg.floor)
        steps.append(layout.step(method, cfg))
        live[c] = x.tolist()
    ends = [None] * len(chains)
    stack = None
    for k in range(1, iters + 1):
        if not live:
            break
        if stack is None:
            stack = gradients(list(live))
        grads = stack(np.array([*live.values()])).tolist()
        for (c, x), grad in zip(list(live.items()), grads):
            try:
                live[c] = steps[c](x, grad)[0]
            except StepFailureError as exc:
                exc.iteration = k
                ends[c] = exc
                del live[c]
                stack = None
    for c, x in live.items():
        ends[c] = np.array(x)
    return ends


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
    Until some call leaves a chain out, every chain sits at one offset.
    """

    def __init__(self, rngs: list[np.random.Generator], n: int):
        self.rngs = rngs
        self._buf = np.empty((len(rngs), max(1, _NORMAL_BLOCK // n), n))
        self._used = np.full(len(rngs), self._buf.shape[1])
        self._apart = False

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next draw of each chain in ``rows`` (distinct indices); while
        the chains sit at one offset and all draw, a column of the buffer."""
        self._apart |= rows.size < len(self.rngs)
        if not self._apart and self._used[0] < self._buf.shape[1]:
            self._used += 1
            return self._buf[:, self._used[0] - 1]
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
    None.

    Each question (does a row redraw or fail, clamp, leave the simplex) is
    first put to the whole stack as one min or max, which passes exactly
    when every row's would, and fails on a NaN. Only a failed check builds
    the row masks, so the bits are those of the per-row checks.
    """
    eps, beta, floor = float(cfg.eps), float(cfg.beta), float(cfg.floor)
    # overflowing inputs (ε·g or the drift at ±inf, inf − inf in a sum, an
    # accepted +inf numerator: inf / inf) end in the step's own error
    with np.errstate(over="ignore", invalid="ignore"):
        # a draw z gives the numerator base + (drift + scale * z), the terms
        # of the float lmwu; each row is at or above the floor, as there
        base = x - eps * (x * grad)
        drift = eps / beta
        scale = np.sqrt((2.0 * eps / beta) * x)
        numer = base + (drift + scale * take(np.arange(len(x))))
        total = _left_sum(numer)
        m, failure = len(x), None
        resampled = clamped = np.zeros(m, dtype=bool)
        if not (numer.min() > 0.0 and total.min() > floor):
            ok = (total > floor) & (numer.min(axis=-1) > 0.0)
            resampled = ~ok
            for _ in range(_RESAMPLE_LIMIT):
                rows = np.flatnonzero(~ok)
                if rows.size == 0:
                    break
                redraw = base[rows] + (drift + scale[rows] * take(rows))
                numer[rows] = redraw
                total[rows] = _left_sum(redraw)
                ok[rows] = (total[rows] > floor) & (redraw.min(axis=-1) > 0.0)
            # past its resamples a row keeps its last draw: clamped while the
            # sum is above the floor, failed otherwise
            failed = np.flatnonzero(~(total > floor))
            if failed.size:
                m = int(failed[0])
                failure = (m, _denominator_failure(float(total[m])))
        points = numer[:m] / total[:m, None]
        if not points.min(initial=floor) >= floor:
            clamped = points.min(axis=-1) < floor
            for k in np.flatnonzero(clamped):
                points[k] = _pin_floor(points[k].tolist(), floor)
        # every coordinate is now at or above the floor, or a row is NaN
        if not np.abs(_left_sum(points) - 1.0).max(initial=0.0) <= SUM_TOL:
            m = int(np.flatnonzero(_left_simplex(points))[0])
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
    # every seed meets its run_optimizer twin's rule before any chain runs
    seeds = [_seed_rule(s) for s in seeds]
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

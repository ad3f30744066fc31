"""Seeded differential harness: random run cases checked against the
reference loops.

One generator draws every case from seeded NumPy: a quadratic objective on
n = 2–14 coordinates, a Dirichlet init lifted to the floor, a floor in
1e-12–1e-4, ε in 1e-4–1, β in 0.1–1e4, 1–300 steps and 5 seeds, with
the four methods in turn. A kernel rewrite is checked here against
``run_optimizer``, the per-step loop that every other loop must reproduce
bit for bit; ``run_optimizer``'s float steps are checked against a block
walk over NumPy steps at every n, on cases forced to resample and clamp,
on products of two simplices, on gradients with NaN, ±inf and huge
coordinates, and on deterministic runs of f1 and f2 past the exact fixed
point where ``run_optimizer`` stops stepping. Those NumPy steps are
``optimizers._lmwu_rows`` (the batch of ``run_chains``) on one row,
``exp_map``, and a plain NumPy transcription of the ``linear-mwu`` and
``proj-langevin`` rules kept here; the public
``lmwu_step``, itself the floor rule and the float step on one point, is
checked against the floor rule and that row on seeded edge inputs. Both add
every sum left to right, so n >= 8, where ``ndarray.sum`` adds pairwise, is
no exception. A second generator draws portfolio grids (panels, presets,
method subsets, variants, warm and cold starts), and each cell of a grid,
whose cells all fit in one lockstep stack per window, must equal its
one-cell grid and a rolling loop that fits each window with
``run_optimizer``, failures included; so must the cells of two fixed grids
whose moments overflow where one preset's λ_k are zero. The last check
runs the ``exp`` paths in child processes with NumPy's SIMD targets
disabled, and requires the same bytes as on the full CPU.
"""
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from simplex_langevin import optimizers
from simplex_langevin.cli import PAPER_PRESETS
from simplex_langevin.geometry import (
    SUM_TOL,
    _left_simplex,
    _left_sum,
    _require_floor,
    barycenter,
    euclidean_simplex_projection,
    exp_map,
    lift_to_interior,
)
from simplex_langevin.objectives import (
    Objective,
    PortfolioLoss,
    portfolio_moments,
    portfolio_objective,
)
from simplex_langevin.objectives import test_function as benchmark
from simplex_langevin.optimizers import (
    LmwuConfig,
    Method,
    StepFailureError,
    StepResult,
    Trajectory,
    lmwu_step,
    run_chains,
    run_optimizer,
)
from simplex_langevin.portfolio import (
    RISK_PRESETS,
    VARIANTS,
    ReturnPanel,
    RiskPreset,
    _child_seed,
    compare_methods,
)

CASES = 200
SEEDS_PER_CASE = 5
# the methods whose every iterate is kept at or above the floor; the
# deterministic ones only keep it positive
FLOORED = (Method.LMWU, Method.PROJECTED_LANGEVIN)


class Case(NamedTuple):
    index: int
    method: Method
    objective: Objective
    init: np.ndarray
    cfg: LmwuConfig
    seeds: list[int]


def _quadratic(a: np.ndarray, b: np.ndarray, block_dims=None) -> Objective:
    """f(x) = ½·xᵀAx + b·x, gradient Ax + b, on one simplex or on the
    product of simplices ``block_dims``."""

    def fn(x):
        g = a @ x + b
        return float(0.5 * (x @ (a @ x)) + b @ x), g

    return Objective(name=f"quadratic-{b.size}", dim=b.size,
                     block_dims=block_dims or (b.size,), fn=fn)


def generate_cases(count: int = CASES, seed: int = 20251) -> list[Case]:
    rng = np.random.default_rng(seed)
    methods = list(Method)
    cases = []
    for index in range(count):
        n = int(rng.integers(2, 15))
        g = rng.standard_normal((n, n))
        a = 10.0 ** rng.uniform(-1.0, 2.0) * (g + g.T) / 2.0
        b = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(n)
        floor = 10.0 ** rng.uniform(-12.0, -4.0)
        # small concentrations put coordinates at, or down to, the floor
        alpha = np.full(n, 10.0 ** rng.uniform(-1.5, 1.0))
        init = lift_to_interior(rng.dirichlet(alpha), floor=floor)
        cfg = LmwuConfig(
            eps=10.0 ** rng.uniform(-4.0, 0.0),
            beta=10.0 ** rng.uniform(-1.0, 4.0),
            max_iters=int(rng.integers(1, 301)),
            floor=floor,
        )
        seeds = rng.choice(2**31, size=SEEDS_PER_CASE, replace=False).tolist()
        cases.append(Case(index, methods[index % len(methods)],
                          _quadratic(a, b), init, cfg, seeds))
    return cases


def per_seed_runs(case: Case):
    """The reference: ``run_optimizer`` per seed, up to and including the
    first failing seed. Returns the trajectories and that failure or None."""
    trajs = []
    for seed in case.seeds:
        try:
            trajs.append(run_optimizer(case.method, case.objective, case.init,
                                       replace(case.cfg, seed=seed)))
        except StepFailureError as exc:
            return trajs, exc
    return trajs, None


def assert_on_simplex(points: np.ndarray, case: Case) -> None:
    """Each point (or each row of a stack) is finite, sums to 1 and is
    positive; for the ``FLOORED`` methods, at or above the floor."""
    assert np.isfinite(points).all()
    assert (np.abs(points.sum(axis=-1) - 1.0) <= SUM_TOL).all()
    assert points.min() > 0.0
    if case.method in FLOORED:
        assert points.min() >= case.cfg.floor


@pytest.fixture(scope="module")
def references():
    """Each case with its per-seed runs and failure, run once for all tests."""
    return [(case, *per_seed_runs(case)) for case in generate_cases()]


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_chains_equal_per_seed_runs(references, method):
    # the same ends bit for bit, or the lowest failing seed's failure; every
    # recorded iterate of the per-seed runs is on the simplex (at or above
    # the floor for the FLOORED methods), the invariant the lmwu kernels
    # rely on in place of a floor check of their own
    checked = 0
    for case, trajs, failure in references:
        if case.method is not method:
            continue
        checked += 1
        for traj in trajs:
            assert_on_simplex(traj.points, case)
        if failure is not None:
            with pytest.raises(StepFailureError) as info:
                run_chains(method, case.objective, case.init, case.cfg,
                           case.seeds)
            assert (str(info.value), info.value.iteration) == (
                str(failure), failure.iteration), case.index
            continue
        ends = run_chains(method, case.objective, case.init, case.cfg,
                          case.seeds)
        for k, traj in enumerate(trajs):
            assert np.array_equal(ends.final_points[k], traj.final_point), case.index
            assert ends.final_f[k] == traj.final_f, case.index
            assert ends.best_f[k] == traj.best_f, case.index
            assert_on_simplex(ends.final_points[k], case)
    assert checked == CASES // len(Method)


def test_cases_reach_the_regimes_they_claim(references):
    # failures and full runs of every method, failures at n >= 8, lmwu
    # runs that clamp, and inits with coordinates at the floor
    failed = [case for case, _, failure in references if failure is not None]
    assert 0 < len(failed) < CASES
    assert {case.method for case, _, failure in references
            if failure is None} == set(Method)
    assert any(case.objective.dim >= 8 for case in failed)
    assert any(traj.clamped.any() for case, trajs, _ in references
               for traj in trajs if case.method is Method.LMWU)
    assert any(case.init.min() == case.cfg.floor for case, _, _ in references)
    # in one run_chains stack of lmwu seeds: an iteration where some seed
    # redraws or clamps beside a seed that does neither, so the row masks of
    # _lmwu_rows run beside plain rows; and a seed that redrew and still runs
    # past its next block of normals, which _Normals then hands out while
    # the seeds sit at different offsets
    mixed = refilled_apart = False
    for case, trajs, _ in references:
        if case.method is not Method.LMWU or not trajs:
            continue
        flags = np.array([t.resampled | t.clamped for t in trajs])
        mixed |= bool((flags.any(axis=0) & ~flags.all(axis=0)).any())
        block = optimizers._NORMAL_BLOCK // case.objective.dim
        for traj in trajs:
            redrawn = np.flatnonzero(traj.resampled)
            if redrawn.size:
                # iteration k's first redraw is draw k (from 0), and the
                # chain takes a draw per step and at least one more per
                # redrawn step
                refill = -(-(redrawn[0] + 1) // block) * block
                refilled_apart |= bool(traj.iters + traj.resampled.sum() > refill)
    assert mixed and refilled_apart


def numpy_linear_mwu(x, g, eps):
    """The ``linear-mwu`` rule in NumPy: x·(1 − εg) over its left sum."""
    mult = 1.0 - eps * g
    if mult.min() <= 0.0:
        raise StepFailureError(
            f"eps={float(eps)!r} makes a multiplier nonpositive (min {mult.min():.3e})"
        )
    numer = x * mult
    return numer / _left_sum(numer)


def numpy_proj_langevin(x, g, eps, beta, rng, floor):
    """The ``proj-langevin`` rule in NumPy: the proposal, its exact
    projection, and the lift of its zeros to the floor."""
    y = x - eps * g + math.sqrt(2.0 * eps / beta) * rng.standard_normal(x.size)
    if not np.isfinite(y).all():
        raise StepFailureError("Langevin proposal is not finite")
    try:
        projected = euclidean_simplex_projection(y)
    except ValueError as exc:  # coordinates too large to have a threshold
        raise StepFailureError(f"Langevin proposal cannot be projected: {exc}") from None
    return lift_to_interior(projected, floor=floor)


def numpy_lmwu(x, g, cfg, rng):
    """The ``lmwu`` rule in NumPy: the floor rule on ``x``, then
    ``optimizers._lmwu_rows``, the batch of ``run_chains``, on the one row
    ``x``, each attempt drawing ``rng.standard_normal(n)``, with its
    clamped and resampled flags."""
    _require_floor(x, cfg.floor)
    points, clamped, resampled, failure = optimizers._lmwu_rows(
        x[None], g[None], cfg, lambda rows: rng.standard_normal((rows.size, x.size)))
    if failure is not None:
        raise failure[1]
    return StepResult(points[0], bool(clamped[0]), bool(resampled[0]))


# the NumPy step of each method, as (x, grad, cfg, rng) -> StepResult
NUMPY_STEPS = {
    Method.LMWU: numpy_lmwu,
    Method.LINEAR_MWU: lambda x, g, cfg, rng: StepResult(
        numpy_linear_mwu(x, g, cfg.eps), False, False),
    Method.EXP_MWU: lambda x, g, cfg, rng: StepResult(
        exp_map(x, -cfg.eps * g), False, False),
    Method.PROJECTED_LANGEVIN: lambda x, g, cfg, rng: StepResult(
        numpy_proj_langevin(x, g, cfg.eps, cfg.beta, rng, cfg.floor),
        False, False),
}


def numpy_loop(method, objective, init, cfg):
    """The reference for run_optimizer's float steps: the per-step loop over
    the NumPy steps, walking the blocks in order, each on its own
    generator, with the simplex check after each block's step. Returns the
    trajectory, or the StepFailureError located at its iteration (and its
    block, over several blocks)."""
    stops = np.cumsum(objective.block_dims).tolist()
    slices = [slice(a, b) for a, b in zip([0] + stops[:-1], stops)]
    if len(slices) == 1:
        rngs = [np.random.default_rng(cfg.seed)]
    else:
        rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, b]))
                for b in range(len(slices))]
    points = np.empty((cfg.max_iters + 1, objective.dim))
    f_values = np.empty(cfg.max_iters + 1)
    clamped = np.zeros(cfg.max_iters + 1, dtype=bool)
    resampled = np.zeros(cfg.max_iters + 1, dtype=bool)
    points[0] = init
    f_values[0], grad = objective.value_and_grad(points[0])
    for k in range(1, cfg.max_iters + 1):
        for b, (s, rng) in enumerate(zip(slices, rngs)):
            try:
                point, cl, rs = NUMPY_STEPS[method](points[k - 1][s], grad[s],
                                                    cfg, rng)
                if _left_simplex(point):
                    raise optimizers._off_simplex_error(point)
            except StepFailureError as exc:
                exc.iteration = k
                if len(slices) > 1:
                    exc.block = b
                return exc
            points[k][s] = point
            clamped[k] |= cl
            resampled[k] |= rs
        f_values[k], grad = objective.value_and_grad(points[k])
    return Trajectory(points, f_values, clamped, resampled)


def branch_cases() -> list[Case]:
    """Cases forced off the plain path, every method: ε = 0.03, β = 1 over 5
    steps on n = 3 resamples draws that it then keeps unclamped; ε = 0.5,
    β = 1e8 and floor 1e-6 clamp on quadratics of n = 3, 5, 7 and 10. The
    same two settings run on a product of simplices of 3 and 9 coordinates,
    and a linear objective steep on the second block only fails
    ``linear-mwu`` there. Last, ``lmwu`` with every numerator positive and
    their sum below the floor (ε = 1, β = 1e20, each g_i = 1 − 1e-8), which
    it redraws until it fails."""
    rng = np.random.default_rng(7)
    resample = LmwuConfig(eps=0.03, beta=1.0, max_iters=5)
    clamp = LmwuConfig(eps=0.5, beta=1e8, max_iters=200, floor=1e-6)
    settings = [(3, None, resample)]
    settings += [(n, None, clamp) for n in (3, 5, 7, 10)]
    settings += [(12, (3, 9), cfg) for cfg in (resample, clamp)]
    seeds = list(range(SEEDS_PER_CASE))
    cases = []
    for n, blocks, cfg in settings:
        g = rng.standard_normal((n, n))
        objective = _quadratic(10.0 * (g + g.T), rng.standard_normal(n), blocks)
        init = np.concatenate([np.full(d, 1.0 / d) for d in blocks or (n,)])
        for method in Method:
            cases.append(Case(-1, method, objective, init, cfg, seeds))
    steep = np.zeros(12)
    steep[3] = 50.0
    cases.append(Case(-1, Method.LINEAR_MWU,
                      _quadratic(np.zeros((12, 12)), steep, (3, 9)),
                      cases[-1].init, resample, seeds))
    cases.append(Case(-1, Method.LMWU,
                      _quadratic(np.zeros((3, 3)), np.full(3, 1.0 - 1e-8)),
                      np.full(3, 1.0 / 3.0),
                      LmwuConfig(eps=1.0, beta=1e20, max_iters=3, floor=1e-6),
                      seeds))
    return cases


def _outcome(run, expected, label) -> str:
    """Check ``run`` (a trajectory or StepFailureError) against the NumPy
    loop's ``expected`` bit for bit, and name what happened in it."""
    if isinstance(run, StepFailureError):
        assert isinstance(expected, StepFailureError), label
        assert (str(run), run.iteration, run.block) == (
            str(expected), expected.iteration, expected.block), label
        return re.match(r"\w+", str(run)).group() + (
            "" if run.block is None else f" in block {run.block}")
    assert isinstance(expected, Trajectory), (label, str(expected))
    for field in ("points", "f_values", "clamped", "resampled"):
        assert (getattr(run, field).tobytes()
                == getattr(expected, field).tobytes()), (label, field)
    return ("clamped" if run.clamped.any() else
            "resampled" if run.resampled.any() else "plain")


def test_float_steps_equal_the_numpy_loop(references):
    # every point, value and flag bit for bit, or the same failure text at
    # the same iteration and block: on each generated case's runs (those of
    # the references fixture, up to its first failing seed), and on the
    # branch and two-block cases
    outcomes = set()
    for case, trajs, failure in references:
        runs = trajs + ([failure] if failure is not None else [])
        for seed, run in zip(case.seeds, runs):
            expected = numpy_loop(case.method, case.objective, case.init,
                                  replace(case.cfg, seed=seed))
            outcomes.add(_outcome(run, expected, case.index))
    for case in branch_cases():
        for seed in case.seeds:
            cfg = replace(case.cfg, seed=seed)
            try:
                run = run_optimizer(case.method, case.objective, case.init, cfg)
            except StepFailureError as exc:
                run = exc
            expected = numpy_loop(case.method, case.objective, case.init, cfg)
            outcomes.add(_outcome(run, expected,
                                  (case.method.value, case.objective.block_dims)))
    # the runs reach each branch: plain runs, runs that resample but never
    # clamp, runs that clamp, each kind of step failure, and a failure in
    # the second block of a product
    assert {"plain", "resampled", "clamped", "update", "iterate", "eps",
            "eps in block 1"} <= outcomes


@pytest.mark.parametrize("method", [Method.LINEAR_MWU, Method.EXP_MWU],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("fid, init", [("f1", "paper"), ("f1", "uniform"),
                                       ("f2", "uniform")])
def test_runs_past_a_fixed_point_equal_the_numpy_loop(method, fid, init):
    # on a bundled objective, run_optimizer stops stepping a deterministic
    # run at its exact fixed point and fills the rows after it; the NumPy
    # loop steps to the end, and every row is the same bit for bit
    objective = benchmark(fid)
    start = (PAPER_PRESETS[fid].init if init == "paper"
             else barycenter(objective.dim))
    cfg = LmwuConfig(eps=PAPER_PRESETS[fid].det_eps, beta=1.0, max_iters=7000)
    expected = numpy_loop(method, objective, start, cfg)
    _outcome(run_optimizer(method, objective, start, cfg), expected,
             (method.value, fid, init))
    # the first step that returns its own input comes before the last step
    repeats = np.flatnonzero((expected.points[1:] == expected.points[:-1])
                             .all(axis=1))
    assert repeats.size and repeats[0] + 1 < cfg.max_iters


def test_clamp_and_lift_stay_on_floats(monkeypatch):
    # the forced-clamp cases on one simplex: the lmwu clamp and the
    # proj-langevin lift repair the float point in place, in run_optimizer
    # and in run_chains, and never hand it to normalize_retraction,
    # euclidean_simplex_projection or lift_to_interior; the runs still equal
    # the NumPy loop bit for bit, whose lmwu row repairs through _pin_floor
    # inside _lmwu_rows and whose proj-langevin step projects and lifts
    cases = [case for case in branch_cases()
             if case.cfg.floor == 1e-6 and len(case.objective.block_dims) == 1]
    expected = [[numpy_loop(case.method, case.objective, case.init,
                            replace(case.cfg, seed=seed)) for seed in case.seeds]
                for case in cases]

    def handed_to_numpy(*args, **kwargs):
        raise AssertionError("a float step handed its point to the NumPy step")

    monkeypatch.setattr(optimizers, "normalize_retraction", handed_to_numpy)
    monkeypatch.setattr(optimizers, "euclidean_simplex_projection", handed_to_numpy)
    monkeypatch.setattr(optimizers, "lift_to_interior", handed_to_numpy)
    repaired = set()
    for case, refs in zip(cases, expected):
        label = (case.method.value, case.objective.dim)
        for seed, ref in zip(case.seeds, refs):
            try:
                run = run_optimizer(case.method, case.objective, case.init,
                                    replace(case.cfg, seed=seed))
            except StepFailureError as exc:
                run = exc
            _outcome(run, ref, label)
            if isinstance(ref, Trajectory) and (
                    ref.clamped.any() or (ref.points == case.cfg.floor).any()):
                repaired.add(case.method)
        failed = [ref for ref in refs if isinstance(ref, StepFailureError)]
        if failed:
            with pytest.raises(StepFailureError) as info:
                run_chains(case.method, case.objective, case.init, case.cfg,
                           case.seeds)
            assert (str(info.value), info.value.iteration) == (
                str(failed[0]), failed[0].iteration), label
            continue
        ends = run_chains(case.method, case.objective, case.init, case.cfg,
                          case.seeds)
        for k, ref in enumerate(refs):
            assert ends.final_points[k].tobytes() == ref.points[-1].tobytes(), label
            assert ends.final_f[k] == ref.final_f, label
            assert ends.best_f[k] == ref.best_f, label
    # lmwu clamps, and proj-langevin lifts a coordinate to the floor
    assert {Method.LMWU, Method.PROJECTED_LANGEVIN} <= repaired


EDGE_VALUES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e17, -1e17,
               0.0, -0.0)
EDGE_CASES = 1000


def _edge_quadratic(a, b, coords, values, start):
    """The quadratic of ``a`` and ``b`` whose gradient takes ``values`` at
    ``coords`` from its ``start``-th evaluation on, so the edge gradient
    reaches a run at step ``start`` + 1. It counts its evaluations, so each
    run gets its own."""
    calls = itertools.count()

    def fn(x):
        g = a @ x + b
        if next(calls) >= start:
            g[coords] = values
        return float(0.5 * (x @ (a @ x)) + b @ x), g

    return Objective(name=f"edge-{b.size}", dim=b.size, block_dims=(b.size,),
                     fn=fn)


def edge_cases(count: int = EDGE_CASES, seed: int = 20261):
    """Seeded cases, the four methods in turn on n = 2–8, each a factory of
    a fresh objective whose gradient holds NaN, ±inf, ±1e308, ±1e17 or ±0.0
    at one to n coordinates from step 1–3 on, with its init and config."""
    rng = np.random.default_rng(seed)
    methods = list(Method)
    cases = []
    for index in range(count):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n))
        a, b = g + g.T, rng.standard_normal(n)
        coords = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        values = [EDGE_VALUES[i] for i in rng.integers(len(EDGE_VALUES), size=coords.size)]
        start = int(rng.integers(0, 3))
        floor = 10.0 ** rng.uniform(-12.0, -4.0)
        init = lift_to_interior(rng.dirichlet(np.ones(n)), floor=floor)
        cfg = LmwuConfig(eps=10.0 ** rng.uniform(-4.0, 0.0),
                         beta=10.0 ** rng.uniform(-1.0, 4.0),
                         max_iters=int(rng.integers(1, 11)), floor=floor,
                         seed=int(rng.integers(2**31)))
        cases.append((index, methods[index % len(methods)],
                      partial(_edge_quadratic, a, b, coords, values, start),
                      init, cfg))
    return cases


def test_edge_gradients_equal_the_numpy_loop():
    # the same trajectory bytes or the same failure text and iteration as
    # the NumPy loop, which may warn; the float path warns nothing
    outcomes = set()
    for index, method, objective, init, cfg in edge_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                run = run_optimizer(method, objective(), init, cfg)
            except StepFailureError as exc:
                run = exc
        with np.errstate(all="ignore"):
            expected = numpy_loop(method, objective(), init, cfg)
        outcomes.add((method, _outcome(run, expected, (index, method.value))))
    # every method has runs that end and runs that fail; lmwu meets a
    # degenerate update, linear-mwu an oversized step, proj-langevin a
    # proposal it cannot project, and every method but proj-langevin an
    # iterate off the simplex
    failures = {(Method.LMWU, "update"), (Method.LINEAR_MWU, "eps"),
                (Method.PROJECTED_LANGEVIN, "Langevin")}
    failures |= {(m, "iterate") for m in Method if m is not Method.PROJECTED_LANGEVIN}
    assert failures | {(m, "plain") for m in Method} <= outcomes


LMWU_CALLS = 1000


def lmwu_call_cases(count: int = LMWU_CALLS, seed: int = 20262):
    """Seeded public ``lmwu_step`` calls on n = 1–8: a Dirichlet point at or
    above a floor in 1e-12–1e-2, ε in 1e-5–10 and β in 1e-2–1e8, and in
    turn a plain call, edge values (NaN, ±inf, ±1e308, ±1e17, ±0.0) at one
    to n gradient coordinates, one at a coordinate of the point, and the
    point 1.5× off the simplex, above or below it."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        n = int(rng.integers(1, 9))
        floor = 10.0 ** rng.uniform(-12.0, -2.0)
        x = np.maximum(rng.dirichlet(np.full(n, 10.0 ** rng.uniform(-1.0, 1.0))),
                       floor)
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 3.0)
        kind = index % 4
        if kind == 1:
            coords = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            g[coords] = [EDGE_VALUES[i] for i in
                         rng.integers(len(EDGE_VALUES), size=coords.size)]
        elif kind == 2:
            x[int(rng.integers(n))] = EDGE_VALUES[int(rng.integers(len(EDGE_VALUES)))]
        elif kind == 3:
            x = x * (1.5 if rng.random() < 0.5 else 1.0 / 1.5)
        cfg = LmwuConfig(eps=10.0 ** rng.uniform(-5.0, 1.0),
                         beta=10.0 ** rng.uniform(-2.0, 8.0), max_iters=1,
                         floor=floor)
        yield index, x, g, cfg, int(rng.integers(2**31))


def _call(step, x, g, cfg, seed):
    """``step``'s point bytes and flags, or its exception type and text."""
    try:
        point, clamped, resampled = step(x.copy(), g.copy(), cfg,
                                         np.random.default_rng(seed))
    except Exception as exc:
        return type(exc), str(exc)
    return point.dtype, point.shape, point.tobytes(), clamped, resampled


# points the floor rule rejects, each with the text that names its first
# failing coordinate: +0.0 and −0.0 below the floor in either order, NaN,
# and NaN with 0.0
FLOOR_POINTS = [
    ([0.5, 0.0, -0.0, 0.5], "coordinate 0.000e+00 below floor 1.000e-12"),
    ([0.5, -0.0, 0.0, 0.5], "coordinate -0.000e+00 below floor 1.000e-12"),
    ([0.5, math.nan, 0.5], "coordinate nan below floor 1.000e-12"),
    ([0.5, math.nan, 0.0, 0.5], "coordinate nan below floor 1.000e-12"),
    ([0.0, 0.5, math.nan, 0.5], "coordinate 0.000e+00 below floor 1.000e-12"),
]


def floor_point_cases():
    """The ``FLOOR_POINTS`` as ``lmwu_call_cases`` gives its calls."""
    cfg = LmwuConfig(eps=0.1, beta=1.0, max_iters=1)
    for index, (x, _) in enumerate(FLOOR_POINTS, start=LMWU_CALLS):
        yield index, np.array(x), np.zeros(len(x)), cfg, 0


def test_public_lmwu_step_equals_the_numpy_row():
    # every call gives the NumPy row's point bytes and flags, or its
    # exception type and text; the NumPy row may warn, the public step
    # warns nothing. The floor points follow the generated calls.
    outcomes = set()
    for index, x, g, cfg, seed in [*lmwu_call_cases(), *floor_point_cases()]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            public = _call(lmwu_step, x, g, cfg, seed)
        with np.errstate(all="ignore"):
            expected = _call(numpy_lmwu, x, g, cfg, seed)
        assert public == expected, index
        if index >= LMWU_CALLS:
            assert public == (ValueError, FLOOR_POINTS[index - LMWU_CALLS][1])
        outcomes.add(public[0] if len(public) == 2 else public[3:])
    # points plain, resampled, clamped; below-floor points and each failure
    assert {(False, False), (False, True), (True, True), ValueError,
            StepFailureError} <= outcomes


# ---------------------------------------------------------------------------
# portfolio grids: each cell of a grid, whose cells all fit in one lockstep
# stack per window, equals the cell run alone and its fits by run_optimizer
# ---------------------------------------------------------------------------

GRIDS = 40


class Grid(NamedTuple):
    index: int
    panel: ReturnPanel
    presets: list[RiskPreset]
    methods: list[Method]
    cfg: LmwuConfig
    window: int
    variant: str
    warm_start: bool


def generate_grids(count: int = GRIDS, seed: int = 20263) -> list[Grid]:
    """Panels of n = 2–8 assets with 1–4 scored periods after a window of
    2–8 rows; 1–3 presets of order 1–5 whose lower orders may weigh 0 (zero
    middle terms); 1–4 of the methods in a drawn order; ε in 0.1–1000 and β
    in 0.1–1e8, so that some cells fail at a later window or iteration
    while the other methods of their preset finish."""
    rng = np.random.default_rng(seed)
    grids = []
    for index in range(count):
        n = int(rng.integers(2, 9))
        window = int(rng.integers(2, 9))
        periods = window + int(rng.integers(1, 5))
        scale = 10.0 ** rng.uniform(-2.0, -0.5)
        returns = np.maximum(rng.uniform(-scale, scale, n)
                             + scale * rng.standard_t(4, (periods, n)), -0.9)
        panel = ReturnPanel(tuple(f"d{t}" for t in range(periods)),
                            tuple(f"a{i}" for i in range(n)), returns)
        presets = []
        for p in range(int(rng.integers(1, 4))):
            order = int(rng.integers(1, 6))
            lam = rng.random(order) * (rng.random(order) < 0.6)
            lam[-1] = rng.random() + 0.1
            presets.append(RiskPreset(f"p{p}", tuple((lam / lam.sum()).tolist())))
        methods = [Method(m) for m in rng.permutation([m.value for m in Method])
                   [:int(rng.integers(1, 5))]]
        cfg = LmwuConfig(eps=10.0 ** rng.uniform(-1.0, 3.0),
                         beta=10.0 ** rng.uniform(-1.0, 8.0),
                         max_iters=int(rng.integers(0, 40)),
                         floor=10.0 ** rng.uniform(-10.0, -3.0),
                         seed=int(rng.integers(2**31)))
        grids.append(Grid(index, panel, presets, methods, cfg, window,
                          str(rng.choice(VARIANTS)), bool(rng.integers(2))))
    return grids


def _grid(grid: Grid, presets, methods):
    return compare_methods(grid.panel, presets, methods, grid.cfg, grid.window,
                           variant=grid.variant, warm_start=grid.warm_start)


def rolling_fit(grid: Grid, method: Method, preset: RiskPreset):
    """The cell's rolling fit, window by window through ``run_optimizer``
    on the window's loss, seeded as ``compare_methods`` seeds the cell: its
    per-period losses, or the ``StepFailureError`` of its first failed fit,
    located by period."""
    returns, window, cfg = grid.panel.returns, grid.window, grid.cfg
    cell_seed = _child_seed(cfg.seed, *f"{method.value}/{preset.name}".encode())
    coef = [(-1.0) ** k * lam for k, lam in enumerate(preset.lambdas, 1)]
    prev, losses = barycenter(returns.shape[1]), []
    for j in range(len(returns) - window):
        loss = PortfolioLoss(returns[j:j + window], preset.lambdas)
        try:
            w_hat = run_optimizer(method, portfolio_objective(loss),
                                  lift_to_interior(prev, floor=cfg.floor),
                                  replace(cfg, seed=_child_seed(cell_seed, j))
                                  ).final_point
        except StepFailureError as exc:
            exc.period = window + j + 1
            return exc
        out = coef[0] * float(w_hat @ returns[window + j])
        if grid.variant == "window-moments":
            moments = portfolio_moments(loss, w_hat)
            for k in range(2, len(coef) + 1):
                out += coef[k - 1] * moments[k - 1]
        losses.append(out)
        if grid.warm_start:
            prev = w_hat
    return np.array(losses)


def _cells_equal_alone(grid: Grid):
    """Check each cell of ``grid`` against its one-cell grid and against
    its :func:`rolling_fit`; returns the grid's ``(reports, failures)``."""
    reports, failures = _grid(grid, grid.presets, grid.methods)
    keys = [(m.value, p.name) for m in grid.methods for p in grid.presets]
    assert list(reports) == [k for k in keys if k in reports], grid.index
    assert list(failures) == [k for k in keys if k in failures], grid.index
    for method in grid.methods:
        for preset in grid.presets:
            key = (method.value, preset.name)
            alone, alone_failures = _grid(grid, [preset], [method])
            ref = rolling_fit(grid, method, preset)
            if key in failures:
                assert isinstance(ref, StepFailureError), grid.index
                for exc in failures[key], alone_failures[key]:
                    assert (str(exc), exc.period, exc.iteration) == (
                        str(ref), ref.period, ref.iteration), grid.index
                continue
            assert key not in alone_failures, grid.index
            assert not isinstance(ref, StepFailureError), grid.index
            for report in reports[key], alone[key]:
                assert (report.per_period_losses.tobytes()
                        == ref.tobytes()), grid.index
            assert reports[key].score == alone[key].score, grid.index
    return reports, failures


def test_grid_cells_equal_the_cell_alone():
    failed, mixed, later = 0, 0, 0
    for grid in generate_grids():
        reports, failures = _cells_equal_alone(grid)
        for (_, preset), exc in failures.items():
            failed += 1
            mixed += any(k[1] == preset for k in reports)
            later += exc.period > grid.window + 1
    # failures beside methods that finish, and failures past the first window
    assert failed and mixed and later


NAN_EXIT = "iterate left the simplex (block sum nan, min coord nan)"


@pytest.mark.parametrize("returns, window, presets, texts", [
    # 12 periods with one return of 1e80: mv's centred series stays finite
    # up to its square, equal's overflows at its fourth power; mv's zero
    # λ_3..λ_5 times those powers would give its gradient nan
    ([[0.004 * (t % 5) - 0.008, 1e80 if t == 5 else 0.003 * (t % 4) - 0.004,
       0.002 * (t % 3)] for t in range(12)], 8,
     [RISK_PRESETS["mv"], RISK_PRESETS["equal"]],
     {("linear-mwu", "mv"): "eps=1e-150 makes a multiplier nonpositive "
                            "(min -3.646e+08)",
      ("linear-mwu", "equal"): NAN_EXIT,
      ("exp-mwu", "mv"): "iterate left the simplex (block sum 1.0, "
                         "min coord 0.0)",
      ("exp-mwu", "equal"): NAN_EXIT}),
    # a window of 2 with a return of 1e160: c² overflows, and c³ gives the
    # sparse preset a −inf gradient as long as its zero λ_3 adds nothing,
    # where mvsk's λ_3 weighs in
    ([[0.01, 1e160, 0.0], [0.0, -0.5, 0.02], [0.01, 0.01, 0.01]], 2,
     [RiskPreset("sparse", (0.5, 0.0, 0.0, 0.5)), RISK_PRESETS["mvsk"]],
     {("linear-mwu", "sparse"): "eps=1e-150 makes a multiplier nonpositive "
                                "(min -inf)",
      ("linear-mwu", "mvsk"): NAN_EXIT,
      ("exp-mwu", "sparse"): NAN_EXIT,
      ("exp-mwu", "mvsk"): NAN_EXIT}),
], ids=["above-the-top-order", "zero-weight-below-it"])
def test_overflowing_grid_cells_keep_their_own_orders(returns, window,
                                                      presets, texts):
    # each row of the shared stack adds only its own preset's terms
    periods = len(returns)
    panel = ReturnPanel(tuple(f"d{t}" for t in range(periods)),
                        ("a", "b", "c"), np.array(returns))
    grid = Grid("overflow", panel, presets, [Method.LINEAR_MWU, Method.EXP_MWU],
                LmwuConfig(eps=1e-150, beta=1e8, max_iters=20, floor=1e-6),
                window, "literal", True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports, failures = _cells_equal_alone(grid)
    assert reports == {}
    assert {key: str(exc) for key, exc in failures.items()} == {
        key: f"{text} (period {window + 1}, iteration 1)"
        for key, text in texts.items()}


def _top(preset: RiskPreset) -> int:
    return max(k for k, lam in enumerate(preset.lambdas, 1) if lam != 0.0)


def test_grids_reach_the_regimes_they_claim():
    grids = generate_grids()
    assert {g.variant for g in grids} == set(VARIANTS)
    assert {g.warm_start for g in grids} == {True, False}
    assert any(len(g.methods) == len(Method) for g in grids)
    assert any(0.0 in p.lambdas[:-1] for g in grids for p in g.presets)
    # one stack of presets of different top orders, which a failed cell
    # leaves while the cells of a preset of another top order finish
    shared = []
    for g in grids:
        tops = {p.name: _top(p) for p in g.presets}
        if len(set(tops.values())) > 1:
            reports, failures = _grid(g, g.presets, g.methods)
            shared += [g.index for (_, p) in failures
                       if any(tops[q] != tops[p] for _, q in reports)]
    assert shared


# NumPy's AVX-512 dispatch targets, and every dispatch target (the baseline
# routines only): the machines the variant check emulates
NPY_VARIANTS = (None, ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
                ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))
VARIANT_CHILD = """
import contextlib, hashlib, io, os, tempfile
import numpy as np
from simplex_langevin.cli import main
from simplex_langevin.geometry import exp_map
digest = hashlib.sha256()
with tempfile.TemporaryDirectory() as out:
    for fid in ("f1", "f2", "f3", "f4", "f5", "f6"):
        for init in ("uniform", "paper"):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = main(["optimize", "--objective", fid, "--init", init,
                             "--method", "exp-mwu", "--iters", "2000",
                             "--seed", "3", "--out", out])
            with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
                digest.update(f"{code} {text.getvalue()}".encode() + fh.read())
rng = np.random.default_rng(7)
for _ in range(500):
    n = int(rng.integers(2, 15))
    x = rng.dirichlet(np.ones(n))
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 2.0)
    digest.update(exp_map(x, v).tobytes())
print(digest.hexdigest())
"""


def test_exp_paths_do_not_depend_on_numpy_simd_dispatch():
    # one child per emulated machine, each disabling only the targets this
    # CPU has; where it has none of them the variants simply agree
    from numpy._core._multiarray_umath import __cpu_features__
    package_root = os.path.dirname(os.path.dirname(optimizers.__file__))
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    digests = {}
    for features in NPY_VARIANTS:
        env = dict(base, OPENBLAS_NUM_THREADS="1")
        if features is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(
                f for f in features if __cpu_features__.get(f))
        proc = subprocess.run([sys.executable, "-c", VARIANT_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests[env.get("NPY_DISABLE_CPU_FEATURES")] = proc.stdout.strip()
    assert len(set(digests.values())) == 1, digests

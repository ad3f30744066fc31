"""Seeded differential harness: random run cases checked against the
reference loop.

One generator draws every case from seeded NumPy: a quadratic objective on
n = 2–14 coordinates (n >= 8 reaches NumPy's pairwise summation), a
Dirichlet init lifted to the floor, a floor in 1e-12–1e-4, ε in 1e-4–1e-1,
β in 0.1–1e4, 1–300 steps and 5 seeds, with the four methods in turn. A
kernel rewrite is checked here against ``run_optimizer``, the per-step
loop that every other loop must reproduce bit for bit; ``run_optimizer``'s
float steps on simplices of n <= 7 are checked against the NumPy per-step
loop over the public steps.
"""
import re
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from simplex_langevin import optimizers
from simplex_langevin.geometry import SUM_TOL, exp_map, lift_to_interior
from simplex_langevin.objectives import Objective
from simplex_langevin.optimizers import (
    LmwuConfig,
    Method,
    StepFailureError,
    StepResult,
    Trajectory,
    _BlockLayout,
    lmwu_step,
    mwu_linear_step,
    projected_langevin_step,
    run_chains,
    run_optimizer,
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


def _quadratic(a: np.ndarray, b: np.ndarray) -> Objective:
    """f(x) = ½·xᵀAx + b·x, gradient Ax + b."""

    def fn(x):
        g = a @ x + b
        return float(0.5 * (x @ (a @ x)) + b @ x), g

    return Objective(name=f"quadratic-{b.size}", dim=b.size,
                     block_dims=(b.size,), fn=fn)


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
            eps=10.0 ** rng.uniform(-4.0, -1.0),
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


def assert_on_simplex(point: np.ndarray, case: Case) -> None:
    assert np.isfinite(point).all()
    assert abs(float(point.sum()) - 1.0) <= SUM_TOL
    assert point.min() > 0.0
    if case.method in FLOORED:
        assert point.min() >= case.cfg.floor


@pytest.fixture(scope="module")
def references():
    """Each case with its per-seed runs and failure, run once for all tests."""
    return [(case, *per_seed_runs(case)) for case in generate_cases()]


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_chains_equal_per_seed_runs(references, method):
    # the same ends bit for bit, or the lowest failing seed's failure
    checked = 0
    for case, trajs, failure in references:
        if case.method is not method:
            continue
        checked += 1
        for traj in trajs:
            assert_on_simplex(traj.final_point, case)
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
    # failures and full runs of every method, failures in the pairwise-sum
    # regime, lmwu runs that clamp, and inits with coordinates at the floor
    failed = [case for case, _, failure in references if failure is not None]
    assert 0 < len(failed) < CASES
    assert {case.method for case, _, failure in references
            if failure is None} == set(Method)
    assert any(case.objective.dim >= 8 for case in failed)
    assert any(traj.clamped.any() for case, trajs, _ in references
               for traj in trajs if case.method is Method.LMWU)
    assert any(case.init.min() == case.cfg.floor for case, _, _ in references)


# the public NumPy step of each method, as (x, grad, cfg, rng) -> StepResult
NUMPY_STEPS = {
    Method.LMWU: lmwu_step,
    Method.LINEAR_MWU: lambda x, g, cfg, rng: StepResult(
        mwu_linear_step(x, g, cfg.eps), False, False),
    Method.EXP_MWU: lambda x, g, cfg, rng: StepResult(
        exp_map(x, -cfg.eps * g), False, False),
    Method.PROJECTED_LANGEVIN: lambda x, g, cfg, rng: StepResult(
        projected_langevin_step(x, g, cfg.eps, cfg.beta, rng, floor=cfg.floor),
        False, False),
}


def numpy_loop(method, objective, init, cfg):
    """The reference for run_optimizer's float steps: the per-step loop over
    the public NumPy steps, each step through ``_BlockLayout.step``. Returns
    the trajectory, or the StepFailureError located at its iteration."""
    layout = _BlockLayout(objective.block_dims)
    rngs = layout.rngs(cfg.seed)
    x = np.array(init, dtype=float)
    points = np.empty((cfg.max_iters + 1, objective.dim))
    f_values = np.empty(cfg.max_iters + 1)
    clamped = np.zeros(cfg.max_iters + 1, dtype=bool)
    resampled = np.zeros(cfg.max_iters + 1, dtype=bool)
    points[0] = x
    f_values[0], grad = objective.value_and_grad(x)
    for k in range(1, cfg.max_iters + 1):
        try:
            x, clamped[k], resampled[k] = layout.step(
                NUMPY_STEPS[method], x, grad, cfg, rngs)
        except StepFailureError as exc:
            exc.iteration = k
            return exc
        points[k] = x
        f_values[k], grad = objective.value_and_grad(x)
    return Trajectory(points, f_values, clamped, resampled)


def branch_cases() -> list[Case]:
    """Cases forced off the plain path, every method: ε = 0.03, β = 1 over 5
    steps on n = 3 resamples draws that it then keeps unclamped; ε = 0.5,
    β = 1e8 and floor 1e-6 clamp on quadratics of n = 3, 5 and 7."""
    rng = np.random.default_rng(7)
    settings = [(3, LmwuConfig(eps=0.03, beta=1.0, max_iters=5))]
    settings += [(n, LmwuConfig(eps=0.5, beta=1e8, max_iters=200, floor=1e-6))
                 for n in (3, 5, 7)]
    cases = []
    for n, cfg in settings:
        g = rng.standard_normal((n, n))
        objective = _quadratic(10.0 * (g + g.T), rng.standard_normal(n))
        for method in Method:
            cases.append(Case(-1, method, objective, np.full(n, 1.0 / n), cfg,
                              list(range(SEEDS_PER_CASE))))
    return cases


def test_float_steps_equal_the_numpy_loop(monkeypatch):
    # every point, value and flag bit for bit, or the same failure text at
    # the same iteration, on each n <= 7 case and seed
    float_runs = []
    float_step = optimizers._float_step

    def counted_float_step(*args):
        float_runs.append(args)
        return float_step(*args)

    monkeypatch.setattr(optimizers, "_float_step", counted_float_step)
    cases = [case for case in generate_cases() if case.objective.dim <= 7]
    outcomes = []
    runs = 0
    for case in cases + branch_cases():
        for seed in case.seeds:
            runs += 1
            cfg = replace(case.cfg, seed=seed)
            expected = numpy_loop(case.method, case.objective, case.init, cfg)
            try:
                traj = run_optimizer(case.method, case.objective, case.init, cfg)
            except StepFailureError as exc:
                assert isinstance(expected, StepFailureError), case.index
                assert (str(exc), exc.iteration) == (
                    str(expected), expected.iteration), case.index
                outcomes.append(re.match(r"\w+", str(exc)).group())
                continue
            assert isinstance(expected, Trajectory), (case.index, str(expected))
            for field in ("points", "f_values", "clamped", "resampled"):
                assert (getattr(traj, field).tobytes()
                        == getattr(expected, field).tobytes()), (case.index, field)
            outcomes.append("clamped" if traj.clamped.any() else
                            "resampled" if traj.resampled.any() else "plain")
    # the float path ran every run, and the runs reach each branch: plain
    # runs, runs that resample but never clamp, runs that clamp, and each
    # kind of step failure
    assert len(float_runs) == runs
    assert {"plain", "resampled", "clamped", "update", "iterate", "eps"} <= set(
        outcomes)

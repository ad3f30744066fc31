"""Seeded differential harness: random run cases checked against the
reference loops.

One generator draws every case from seeded NumPy: a quadratic objective on
n = 2–14 coordinates, a Dirichlet init lifted to the floor, a floor in
1e-12–1e-4, ε in 1e-4–1e-1, β in 0.1–1e4, 1–300 steps and 5 seeds, with
the four methods in turn. A kernel rewrite is checked here against
``run_optimizer``, the per-step loop that every other loop must reproduce
bit for bit; ``run_optimizer``'s float steps are checked against a block
walk over the public NumPy steps at every n, on cases forced to resample
and clamp, and on products of two simplices. Both add every sum left to
right, so n >= 8, where ``ndarray.sum`` adds pairwise, is no exception.
"""
import re
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from simplex_langevin import optimizers
from simplex_langevin.geometry import (
    SUM_TOL,
    _left_simplex,
    exp_map,
    lift_to_interior,
)
from simplex_langevin.objectives import Objective
from simplex_langevin.optimizers import (
    LmwuConfig,
    Method,
    StepFailureError,
    StepResult,
    Trajectory,
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
    the public NumPy steps, walking the blocks in order, each on its own
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
    ``linear-mwu`` there."""
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


def test_clamp_and_lift_stay_on_floats(monkeypatch):
    # the forced-clamp cases on one simplex: the lmwu clamp and the
    # proj-langevin lift repair the float point in place, in run_optimizer
    # and in run_chains, and never hand it to normalize_retraction or
    # _project_proposal; the runs still equal the NumPy loop bit for bit,
    # whose lmwu_step repairs through _pin_floor inside _lmwu_rows and whose
    # projected_langevin_step calls _project_proposal
    cases = [case for case in branch_cases()
             if case.cfg.floor == 1e-6 and len(case.objective.block_dims) == 1]
    expected = [[numpy_loop(case.method, case.objective, case.init,
                            replace(case.cfg, seed=seed)) for seed in case.seeds]
                for case in cases]

    def handed_to_numpy(*args, **kwargs):
        raise AssertionError("a float step handed its point to the NumPy step")

    monkeypatch.setattr(optimizers, "normalize_retraction", handed_to_numpy)
    monkeypatch.setattr(optimizers, "_project_proposal", handed_to_numpy)
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

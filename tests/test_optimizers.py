"""Unit tests for the update rules, run loops, and guarantee formulas."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplex_langevin.geometry import exp_map
from simplex_langevin import optimizers
from simplex_langevin.cli import PAPER_PRESETS
from simplex_langevin.objectives import Objective, PortfolioLoss, portfolio_objective
from simplex_langevin.objectives import test_function as benchmark
from simplex_langevin.optimizers import (
    LmwuConfig,
    Method,
    StepFailureError,
    TheoryBudget,
    lmwu_step,
    mwu_linear_step,
    projected_langevin_step,
    run_chains,
    run_optimizer,
    theoretical_iteration_budget,
    theoretical_step_bound,
)


class ZeroGauss:
    """Stub generator: standard normals forced to zero, so only the
    deterministic drift part of the noise survives."""

    def standard_normal(self, shape=None):
        return np.zeros(shape if shape is not None else ())


def linear_objective(c):
    c = np.asarray(c, dtype=float)
    return Objective(
        name="linear",
        dim=c.size,
        block_dims=(c.size,),
        fn=lambda p: (float(p @ c), c.copy()),
    )


class TestLinearMwuStep:
    def test_hand_value(self):
        y = mwu_linear_step(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.2)
        # multipliers (0.8, 1), denominator 0.9
        assert_allclose(y, [4.0 / 9.0, 5.0 / 9.0], rtol=1e-15)

    def test_oversized_step_rejected(self):
        with pytest.raises(StepFailureError, match="makes a multiplier nonpositive"):
            mwu_linear_step(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 2.0)

    def test_numpy_scalar_step_size_prints_as_a_float(self):
        cfg = LmwuConfig(eps=np.float64(5.0), beta=1.0, max_iters=3)
        with pytest.raises(StepFailureError) as info:
            run_optimizer("linear-mwu", linear_objective([5.0, -5.0]),
                          [0.5, 0.5], cfg)
        assert str(info.value) == (
            "eps=5.0 makes a multiplier nonpositive (min -2.400e+01) "
            "(iteration 1)"
        )

    def test_uniform_gradient_is_fixed_point(self):
        x = np.array([0.3, 0.6, 0.1])
        y = mwu_linear_step(x, np.full(3, 2.5), 0.1)
        assert_allclose(y, x, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mwu_linear_step(np.array([0.5, 0.5]), np.zeros(3), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_gradient_with_no_point_leaves_the_simplex(self, bad):
        # the step the run loops take, so it fails as they do, warning nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError) as info:
                mwu_linear_step(np.array([0.5, 0.5]), np.array([bad, 0.0]), 0.1)
        assert str(info.value) == (
            "iterate left the simplex (block sum nan, min coord nan)")


class TestExponentialMwuStep:
    """The ``exp-mwu`` step is ``exp_map(x, −ε·g)``."""

    def test_equals_exp_map_of_scaled_gradient(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x = rng.random(n) + 0.1
            x /= x.sum()
            g = rng.normal(0.0, 3.0, n)
            eps = float(rng.uniform(1e-4, 0.5))
            cfg = LmwuConfig(eps=eps, beta=1.0, max_iters=1, floor=1e-9)
            traj = run_optimizer("exp-mwu", linear_objective(g), x, cfg)
            assert np.array_equal(traj.points[1], exp_map(x, -eps * g))

    def test_agrees_with_linear_step_for_small_eps(self):
        x = np.array([0.3, 0.6, 0.1])
        g = np.array([1.0, -0.5, 0.2])
        assert_allclose(
            exp_map(x, -1e-6 * g),
            mwu_linear_step(x, g, 1e-6),
            rtol=0, atol=1e-11,
        )


class TestLmwuStep:
    def test_drift_only_keeps_barycenter_fixed(self):
        # At the barycenter the drift is symmetric, so the normalized update
        # returns the same point exactly once the Gaussian part is zeroed.
        cfg = LmwuConfig(eps=0.1, beta=1.0, max_iters=1)
        res = lmwu_step(np.array([0.5, 0.5]), np.zeros(2), cfg, ZeroGauss())
        assert np.array_equal(res.point, np.array([0.5, 0.5]))
        assert not res.clamped and not res.resampled

    def test_drift_only_numerators(self):
        # eps=0.1, beta=1, n=2 at (0.25, 0.75): drift +0.1 per coordinate,
        # numerators 0.35 and 0.85 summing to 1.2
        cfg = LmwuConfig(eps=0.1, beta=1.0, max_iters=1)
        res = lmwu_step(np.array([0.25, 0.75]), np.zeros(2), cfg, ZeroGauss())
        assert res.point[0] == (0.25 + 0.1) / ((0.25 + 0.1) + (0.75 + 0.1))

    def test_collapses_to_linear_mwu_at_huge_beta(self):
        rng = np.random.default_rng(23)
        cfg = LmwuConfig(eps=1e-3, beta=1e30, max_iters=1)
        obj = benchmark("f1")
        x = np.array([0.3, 0.6, 0.1])
        for _ in range(100):
            g = obj.gradient(x)
            res = lmwu_step(x, g, cfg, np.random.default_rng(rng.integers(2**32)))
            assert_allclose(res.point, mwu_linear_step(x, g, cfg.eps),
                            rtol=0, atol=1e-12)
            x = res.point

    def test_step_failure_when_gradient_dominates(self):
        # εg = 2 makes each base term x(1 − εg) = −x: the numerators sum to
        # −1 + 2ε/β = −0.9998 with noise of sd 0.014, below the floor on
        # every draw
        cfg = LmwuConfig(eps=0.1, beta=1e3, max_iters=1)
        with pytest.raises(StepFailureError, match="update denominator"):
            lmwu_step(np.array([0.5, 0.5]), np.full(2, 20.0),
                      cfg, np.random.default_rng(0))

    def test_clamp_path_after_exhausted_resamples(self):
        # one numerator is deterministically negative but the sum is healthy:
        # every resample fails, then the clamp repair kicks in
        cfg = LmwuConfig(eps=0.1, beta=1e30, max_iters=1)
        res = lmwu_step(np.array([0.9, 0.1]), np.array([0.0, 11.0]),
                        cfg, np.random.default_rng(1))
        assert res.clamped
        assert res.resampled
        assert res.point[1] == cfg.floor
        assert abs(res.point.sum() - 1.0) < 1e-14

    def test_deterministic_per_seed(self):
        cfg = LmwuConfig(eps=1e-3, beta=50.0, max_iters=1)
        x = np.array([0.3, 0.6, 0.1])
        g = np.array([0.5, -1.0, 2.0])
        a = lmwu_step(x, g, cfg, np.random.default_rng(77))
        b = lmwu_step(x, g, cfg, np.random.default_rng(77))
        assert np.array_equal(a.point, b.point)

    def test_infinite_numerator_leaves_the_simplex(self):
        # a −inf gradient coordinate makes an accepted numerator +inf, which
        # normalizes to nan (inf / inf): the step fails as the run loops do
        cfg = LmwuConfig(eps=0.1, beta=1.0, max_iters=1)
        with pytest.raises(StepFailureError) as info, np.errstate(invalid="ignore"):
            lmwu_step(np.array([0.5, 0.5]), np.array([-np.inf, 0.0]), cfg,
                      np.random.default_rng(0))
        assert str(info.value) == (
            "iterate left the simplex (block sum nan, min coord nan)")

    def test_infinite_numerator_warns_nothing(self):
        # the inf / inf of that numerator is not reported as a NumPy warning
        cfg = LmwuConfig(eps=0.1, beta=1.0, max_iters=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError, match="left the simplex"):
                lmwu_step(np.array([0.5, 0.5]), np.array([-np.inf, 0.0]), cfg,
                          np.random.default_rng(0))

    def test_gradient_of_another_shape_is_rejected(self):
        cfg = LmwuConfig(eps=0.1, beta=1.0, max_iters=1)
        with pytest.raises(ValueError) as info:
            lmwu_step(np.array([0.3, 0.6, 0.1]), np.zeros(2), cfg,
                      np.random.default_rng(0))
        assert str(info.value) == "dimension mismatch: point (3,) vs gradient (2,)"


class TestProjectedLangevinStep:
    def test_hand_value_with_collapsed_noise(self):
        y = projected_langevin_step(
            np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.1, 1e30,
            np.random.default_rng(3),
        )
        # x − ε·grad = (0.4, 0.5); projecting adds 0.05 to each coordinate
        assert_allclose(y, [0.45, 0.55], rtol=0, atol=1e-14)

    def test_output_is_interior(self):
        rng = np.random.default_rng(21)
        y = projected_langevin_step(
            np.array([0.05, 0.95]), np.array([30.0, -1.0]), 0.1, 1e4, rng,
            floor=1e-9,
        )
        assert y.min() >= 1e-9
        assert abs(y.sum() - 1.0) < 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            projected_langevin_step(np.array([0.5, 0.5]), np.zeros(2),
                                    -0.1, 1.0, np.random.default_rng(0))

    def test_draws_one_normal_vector_per_call(self):
        # a caller's generator advances by exactly n normals per step
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        x = np.array([0.2, 0.3, 0.5])
        for _ in range(3):
            x = projected_langevin_step(x, np.zeros(3), 0.01, 1.0, rng)
            twin.standard_normal(3)
        assert rng.standard_normal() == twin.standard_normal()


class TestRunOptimizer:
    def test_zero_iterations_records_init_only(self):
        obj = benchmark("f1")
        cfg = LmwuConfig(eps=1e-3, beta=100.0, max_iters=0)
        traj = run_optimizer(Method.LMWU, obj, [0.3, 0.6, 0.1], cfg)
        assert len(traj) == 1
        assert traj.iters == 0
        assert np.array_equal(traj.points[0], [0.3, 0.6, 0.1])
        assert traj.final_f == obj.value([0.3, 0.6, 0.1])

    def test_trajectory_has_budget_plus_one_records(self):
        obj = benchmark("f2")
        cfg = LmwuConfig(eps=1e-4, beta=100.0, max_iters=50, seed=4)
        traj = run_optimizer("lmwu", obj, np.full(3, 1.0 / 3.0), cfg)
        assert len(traj) == 51
        assert traj.iters == 50
        assert traj.f_values[-1] == traj.final_f

    def test_method_accepts_string_or_enum(self):
        obj = benchmark("f1")
        cfg = LmwuConfig(eps=1e-3, beta=1.0, max_iters=5, seed=2)
        a = run_optimizer("linear-mwu", obj, [0.3, 0.6, 0.1], cfg)
        b = run_optimizer(Method.LINEAR_MWU, obj, [0.3, 0.6, 0.1], cfg)
        assert np.array_equal(a.points, b.points)

    def test_unknown_method_names_the_choices(self):
        # the text the CLI prints for --method warp
        obj = benchmark("f1")
        cfg = LmwuConfig(eps=1e-3, beta=1.0, max_iters=5)
        text = (r"^unknown method 'warp' \(expected one of lmwu, linear-mwu, "
                r"exp-mwu, proj-langevin\)$")
        with pytest.raises(ValueError, match=text):
            run_optimizer("warp", obj, [0.3, 0.6, 0.1], cfg)
        with pytest.raises(ValueError, match=text):
            run_chains("warp", obj, [0.3, 0.6, 0.1], cfg, [0])

    def test_deterministic_per_seed(self):
        obj = benchmark("f1")
        cfg = LmwuConfig(eps=1e-4, beta=100.0, max_iters=200, seed=12)
        a = run_optimizer("lmwu", obj, [0.3, 0.6, 0.1], cfg)
        b = run_optimizer("lmwu", obj, [0.3, 0.6, 0.1], cfg)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.f_values, b.f_values)

    def test_seeds_differ(self):
        obj = benchmark("f1")
        base = LmwuConfig(eps=1e-4, beta=100.0, max_iters=50, seed=0)
        other = LmwuConfig(eps=1e-4, beta=100.0, max_iters=50, seed=1)
        a = run_optimizer("lmwu", obj, [0.3, 0.6, 0.1], base)
        b = run_optimizer("lmwu", obj, [0.3, 0.6, 0.1], other)
        assert not np.array_equal(a.points, b.points)

    def test_linear_objective_concentrates_on_argmin(self):
        obj = linear_objective([0.5, 0.2, 0.9])
        cfg = LmwuConfig(eps=0.1, beta=1.0, max_iters=2000)
        traj = run_optimizer("linear-mwu", obj, np.full(3, 1.0 / 3.0), cfg)
        assert traj.final_point[1] > 0.999
        diffs = np.diff(traj.f_values)
        assert (diffs <= 1e-15).all()          # descent up to float rounding
        assert (diffs[:200] < 0).all()         # strict while far from a vertex

    def test_iterates_stay_on_simplex(self):
        obj = benchmark("f3")
        cfg = LmwuConfig(eps=1e-3, beta=2000.0, max_iters=500, seed=8)
        traj = run_optimizer("lmwu", obj, [0.2, 0.75, 0.05], cfg)
        assert np.abs(traj.points.sum(axis=1) - 1.0).max() < 1e-9
        assert traj.points.min() > 0.0

    @pytest.mark.parametrize("fid", list(PAPER_PRESETS))
    def test_lmwu_finishes_at_every_paper_preset(self, fid):
        # the --init paper runs for 25,000 steps; the transcribed
        # christoffel drift failed f2, f3, f5 and f6 here (at iterations
        # 17,700, 9,077, 750 and 22,691)
        preset = PAPER_PRESETS[fid]
        cfg = LmwuConfig(eps=preset.stoch_eps, beta=preset.beta,
                         max_iters=25_000, seed=1)
        traj = run_optimizer("lmwu", benchmark(fid), preset.init, cfg)
        assert traj.iters == 25_000

    def test_single_block_lmwu_matches_hand_loop(self):
        # a one-block run draws from default_rng(seed) itself; εc = 1.35 on
        # the third coordinate makes its base term negative, which drives it
        # to the floor, so resamples and clamps occur
        obj = linear_objective([0.5, 0.2, 0.9])
        cfg = LmwuConfig(eps=1.5, beta=1e8, max_iters=300, seed=5, floor=1e-6)
        traj = run_optimizer("lmwu", obj, np.full(3, 1.0 / 3.0), cfg)
        rng = np.random.default_rng(cfg.seed)
        x = np.full(3, 1.0 / 3.0)
        for k in range(1, cfg.max_iters + 1):
            x, clamped, resampled = lmwu_step(x, obj.gradient(x), cfg, rng)
            assert np.array_equal(traj.points[k], x)
            assert (traj.clamped[k], traj.resampled[k]) == (clamped, resampled)
        assert traj.clamped.any() and traj.resampled.any()

    def test_lmwu_step_draws_the_divergence_drift_law(self):
        # with the noise zeroed, a step at f ≡ 0 gives (x_i + ε/β)/(1 + nε/β),
        # the numerators summed left to right as the step sums them: each
        # coordinate's distance to the barycenter shrinks by 1 + nε/β
        cfg = LmwuConfig(eps=0.1, beta=4.0, max_iters=1)
        d = cfg.eps / cfg.beta
        x = np.array([0.7, 0.2, 0.1])
        for _ in range(20):
            res = lmwu_step(x, np.zeros(3), cfg, ZeroGauss())
            numer = [v + d for v in x.tolist()]
            assert res.point.tolist() == [v / (0.0 + numer[0] + numer[1] + numer[2])
                                          for v in numer]
            assert_allclose(res.point - 1.0 / 3.0, (x - 1.0 / 3.0) / (1.0 + 3 * d),
                            rtol=0, atol=1e-16)
            assert not res.clamped and not res.resampled
            x = res.point

    def test_step_failure_carries_iteration(self):
        # at ε = 1 the base terms x(1 − εg) at this point sum to −1.41, far
        # below what the drift, ε/β = 1e-8, and the noise, sd 1e-4, can lift
        obj = benchmark("f1")
        cfg = LmwuConfig(eps=1.0, beta=1e8, max_iters=10)
        with pytest.raises(StepFailureError) as info:
            run_optimizer("lmwu", obj, [0.3, 0.6, 0.1], cfg)
        assert info.value.iteration == 1

    @pytest.mark.parametrize("method, iters", [
        *(pytest.param(m.value, 25, id=m.value) for m in Method),
        # f1's exp-mwu fixed point, iterate 3,940: a user fn is still called
        # at every later iterate
        pytest.param("exp-mwu", 5000, id="exp-mwu-past-fixed-point"),
    ])
    def test_one_evaluation_per_iterate(self, method, iters):
        f1 = benchmark("f1")
        points = []

        def counted(p):
            points.append(p.copy())
            return f1.value_and_grad(p)

        obj = Objective(name="counted-f1", dim=3, block_dims=(3,), fn=counted)
        cfg = LmwuConfig(eps=1e-3, beta=100.0, max_iters=iters, seed=4)
        traj = run_optimizer(method, obj, [0.3, 0.6, 0.1], cfg)
        assert len(points) == cfg.max_iters + 1
        assert np.array_equal(np.array(points), traj.points)
        if iters == 5000:
            assert np.array_equal(traj.points[3941], traj.points[3940])
            assert not np.array_equal(traj.points[3940], traj.points[3939])

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_gradient_of_the_wrong_length_fails_the_run(self, method):
        # a user fn is evaluated through value_and_grad and its shape checks,
        # though the loops pass the point on as a float list
        obj = Objective(name="short-grad", dim=3, block_dims=(3,),
                        fn=lambda p: (float(p.sum()), np.zeros(2)))
        cfg = LmwuConfig(eps=1e-3, beta=100.0, max_iters=5)
        with pytest.raises(ValueError, match=r"short-grad gradient has shape \(2,\)"):
            run_optimizer(method, obj, [0.3, 0.6, 0.1], cfg)
        with pytest.raises(ValueError, match=r"short-grad gradient has shape \(2,\)"):
            run_chains(method, obj, [0.3, 0.6, 0.1], cfg, [0, 1])

    def test_step_size_error_propagates(self):
        obj = linear_objective([5.0, -5.0])
        cfg = LmwuConfig(eps=1.0, beta=1.0, max_iters=3)
        with pytest.raises(StepFailureError, match="makes a multiplier nonpositive"):
            run_optimizer("linear-mwu", obj, [0.5, 0.5], cfg)

    def test_init_validation(self):
        obj = benchmark("f1")
        cfg = LmwuConfig(eps=1e-3, beta=1.0, max_iters=1)
        with pytest.raises(ValueError):
            run_optimizer("lmwu", obj, [0.5, 0.5], cfg)  # wrong dim
        with pytest.raises(ValueError):
            run_optimizer("lmwu", obj, [0.5, 0.6, 0.1], cfg)  # bad sum
        with pytest.raises(ValueError):
            run_optimizer("lmwu", obj, [0.5, 0.5 - 1e-13, 1e-13], cfg)  # < floor

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LmwuConfig(eps=0.0, beta=1.0, max_iters=1)
        with pytest.raises(ValueError):
            LmwuConfig(eps=0.1, beta=-1.0, max_iters=1)
        with pytest.raises(ValueError):
            LmwuConfig(eps=0.1, beta=1.0, max_iters=-1)
        with pytest.raises(ValueError):
            LmwuConfig(eps=0.1, beta=1.0, max_iters=1, floor=2.0)
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                LmwuConfig(eps=0.1, beta=1.0, max_iters=bad)
        for bad in (-1, 1.5, True):
            with pytest.raises(ValueError,
                               match="seed must be a non-negative integer"):
                LmwuConfig(eps=0.1, beta=1.0, max_iters=1, seed=bad)


def two_block_objective():
    """f1 on coordinates 0-2 plus f2 on coordinates 3-5: a separable
    objective over a product of two 3-simplices."""
    f1, f2 = benchmark("f1"), benchmark("f2")
    return Objective(
        name="f1+f2",
        dim=6,
        block_dims=(3, 3),
        fn=lambda p: (
            f1.value(p[:3]) + f2.value(p[3:]),
            np.concatenate([f1.gradient(p[:3]), f2.gradient(p[3:])]),
        ),
    )


class TestMultiBlockRun:
    INITS = (np.array([0.3, 0.6, 0.1]), np.array([0.4, 0.1, 0.5]))
    CFG = LmwuConfig(eps=1e-3, beta=50.0, max_iters=300, seed=7)

    @pytest.mark.parametrize("method", ["linear-mwu", "exp-mwu"])
    def test_deterministic_blocks_match_single_block_runs(self, method):
        traj = run_optimizer(
            method, two_block_objective(), np.concatenate(self.INITS), self.CFG
        )
        for b, fid in enumerate(("f1", "f2")):
            alone = run_optimizer(method, benchmark(fid), self.INITS[b], self.CFG)
            assert np.array_equal(traj.points[:, 3 * b:3 * b + 3], alone.points)
        assert not traj.clamped.any() and not traj.resampled.any()

    @pytest.mark.parametrize("method", ["lmwu", "proj-langevin"])
    def test_stochastic_blocks_match_hand_loops(self, method):
        cfg = self.CFG
        traj = run_optimizer(
            method, two_block_objective(), np.concatenate(self.INITS), cfg
        )
        clamped = np.zeros(cfg.max_iters + 1, dtype=bool)
        resampled = np.zeros(cfg.max_iters + 1, dtype=bool)
        for b, fid in enumerate(("f1", "f2")):
            obj = benchmark(fid)
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, b]))
            x = self.INITS[b]
            points = [x]
            for k in range(1, cfg.max_iters + 1):
                if method == "lmwu":
                    x, cl, rs = lmwu_step(x, obj.gradient(x), cfg, rng)
                    clamped[k] |= cl
                    resampled[k] |= rs
                else:
                    x = projected_langevin_step(
                        x, obj.gradient(x), cfg.eps, cfg.beta, rng, floor=cfg.floor
                    )
                points.append(x)
            assert np.array_equal(traj.points[:, 3 * b:3 * b + 3], np.array(points))
        assert np.array_equal(traj.clamped, clamped)
        assert np.array_equal(traj.resampled, resampled)

    def test_init_validation_per_block(self):
        obj = two_block_objective()
        with pytest.raises(ValueError):  # the blocks sum to 0.9 and 1.1
            run_optimizer("lmwu", obj, [0.3, 0.5, 0.1, 0.4, 0.1, 0.6], self.CFG)
        with pytest.raises(ValueError):  # one coordinate short of the layout
            run_optimizer("lmwu", obj, [0.3, 0.6, 0.1, 0.5, 0.5], self.CFG)

    def test_failure_carries_iteration_and_block(self):
        # the second block's gradient makes each of its base terms
        # x(1 − εg) negative (εg = 10), far below what drift and noise can
        # lift, so only the second block degenerates; the first has none
        obj = Objective(
            name="two-blocks", dim=5, block_dims=(2, 3),
            fn=lambda p: (0.0, np.array([0.0, 0.0, 1e3, 1e3, 1e3])),
        )
        cfg = LmwuConfig(eps=0.01, beta=0.5, max_iters=5)
        with pytest.raises(StepFailureError) as info:
            run_optimizer("lmwu", obj, [0.5, 0.5, 0.98, 0.01, 0.01], cfg)
        assert info.value.iteration == 1
        assert info.value.block == 1
        assert str(info.value).endswith("(iteration 1, block 1)")

    @pytest.mark.parametrize("method, eps, message", [
        ("linear-mwu", 1.0,
         "eps=1.0 makes a multiplier nonpositive (min -4.000e+00)"),
        ("exp-mwu", 1e5, "iterate left the simplex (block sum 1.0, min coord 0.0)"),
    ], ids=["linear-mwu", "exp-mwu"])
    def test_deterministic_failure_carries_block(self, method, eps, message):
        # block 0 has a zero gradient and takes no step; block 1's gradient
        # is too steep for the step size
        c = np.array([0.0, 0.0, 5.0, -5.0])
        obj = Objective(name="two-linear", dim=4, block_dims=(2, 2),
                        fn=lambda p: (float(p @ c), c.copy()))
        cfg = LmwuConfig(eps=eps, beta=1.0, max_iters=3)
        with pytest.raises(StepFailureError) as info:
            run_optimizer(method, obj, [0.5, 0.5, 0.5, 0.5], cfg)
        assert (info.value.iteration, info.value.block) == (1, 1)
        assert str(info.value) == f"{message} (iteration 1, block 1)"


def chain_case(name):
    """(objective, init, cfg) of one batched-chain case."""
    if name == "portfolio":
        # the third asset loses half each period and εg is 0.99995 on it: its
        # multiplier 1 − εg, 5e-5, leaves a numerator that the noise can make
        # negative, so lmwu resamples, then drives it to the 1e-6 floor,
        # where lmwu clamps; the other methods finish
        rng = np.random.default_rng(0)
        returns = 1e-4 * rng.standard_normal((60, 4)) + [0.02, 0.0, -0.5, 0.005]
        obj = portfolio_objective(PortfolioLoss(returns, [0.5, 0.5]))
        cfg = LmwuConfig(eps=3.9996, beta=4e8, max_iters=40, floor=1e-6)
        return obj, [0.5, 0.3, 0.1, 0.1], cfg
    init, beta = {
        "f1": ((0.3, 0.6, 0.1), 100.0),
        "f3": ((0.2, 0.75, 0.05), 5000.0),
        "f6": ((0.4, 0.1, 0.1, 0.2, 0.1, 0.1), 8000.0),
    }[name]
    return benchmark(name), init, LmwuConfig(eps=1e-3, beta=beta, max_iters=200)


def nan_at(objective, points):
    """``objective`` with a NaN gradient at each of ``points``: a chain that
    steps onto one fails its next step, whatever its drift."""
    stops = {tuple(p) for p in np.asarray(points, dtype=float).tolist()}

    def fn(p):
        value, grad = objective.value_and_grad(p)
        return value, np.full(p.size, np.nan) if tuple(p.tolist()) in stops else grad

    return Objective(name=f"{objective.name}-nan", dim=objective.dim,
                     block_dims=objective.block_dims, fn=fn)


def stop_points(objective, init, cfg, stops):
    """Where each ``(seed, k)`` lmwu chain stands after k − 1 steps: at
    ``nan_at`` these points, the chain of each seed fails at iteration k."""
    return [run_optimizer("lmwu", objective, init,
                          replace(cfg, seed=seed, max_iters=k - 1)).final_point
            for seed, k in stops]


def assert_chains_match_runs(method, obj, init, cfg, seeds):
    ends = run_chains(method, obj, init, cfg, seeds)
    assert ends.final_points.shape == (len(seeds), obj.dim)
    for k, seed in enumerate(seeds):
        traj = run_optimizer(method, obj, init, replace(cfg, seed=seed))
        assert np.array_equal(ends.final_points[k], traj.final_point)
        assert ends.final_f[k] == traj.final_f
        assert ends.best_f[k] == traj.best_f


class TestRunChains:
    SEEDS = (5, 2, 9, 3)

    @pytest.mark.parametrize("iters", [None, 0])
    @pytest.mark.parametrize("name", ["f1", "f3", "f6", "portfolio"])
    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_chain_equals_per_seed_run(self, method, name, iters):
        obj, init, cfg = chain_case(name)
        if iters is not None:
            cfg = replace(cfg, max_iters=iters)
        assert_chains_match_runs(method, obj, init, cfg, self.SEEDS)

    def test_portfolio_case_resamples_and_clamps(self):
        obj, init, cfg = chain_case("portfolio")
        trajs = [run_optimizer("lmwu", obj, init, replace(cfg, seed=s))
                 for s in self.SEEDS]
        assert all(t.clamped.any() for t in trajs)
        assert any((t.resampled & ~t.clamped).any() for t in trajs)

    def test_slices_and_normal_blocks(self, monkeypatch):
        # three chains per slice and two draws per normal block, so the
        # seeds span slices and every chain refills its normals often
        monkeypatch.setattr(optimizers, "_CHAIN_SLICE", 3)
        monkeypatch.setattr(optimizers, "_NORMAL_BLOCK", 8)
        obj, init, cfg = chain_case("portfolio")
        assert_chains_match_runs("lmwu", obj, init, cfg, range(7))

    # 260 seeds span two slices of _CHAIN_SLICE = 256 chains
    SLICE_SEEDS = range(660, 920)

    def test_chains_on_both_sides_of_a_slice_edge(self):
        obj, init, cfg = chain_case("f1")
        cfg = replace(cfg, max_iters=20)
        ends = run_chains("lmwu", obj, init, cfg, self.SLICE_SEEDS)
        for k in (0, 255, 256, 259):
            traj = run_optimizer("lmwu", obj, init,
                                 replace(cfg, seed=self.SLICE_SEEDS[k]))
            assert np.array_equal(ends.final_points[k], traj.final_point)
            assert ends.final_f[k] == traj.final_f
            assert ends.best_f[k] == traj.best_f

    def test_lowest_index_failure_of_a_later_slice_is_raised(self):
        # every chain of the first slice runs 600 steps; the last seed, 919,
        # is the first to fail (iteration 494), at a NaN gradient on its path
        cfg = LmwuConfig(eps=1e-4, beta=100.0, max_iters=600)
        obj = nan_at(benchmark("f1"), stop_points(
            benchmark("f1"), [0.3, 0.6, 0.1], cfg, [(919, 494)]))
        for k, seed in enumerate(self.SLICE_SEEDS):
            try:
                run_optimizer("lmwu", obj, [0.3, 0.6, 0.1], replace(cfg, seed=seed))
            except StepFailureError as exc:
                first = exc
                break
        assert (k, first.iteration) == (259, 494)
        with pytest.raises(StepFailureError) as info:
            run_chains("lmwu", obj, [0.3, 0.6, 0.1], cfg, self.SLICE_SEEDS)
        assert str(info.value) == str(first)
        assert info.value.iteration == first.iteration

    def test_lowest_index_failure_is_raised(self):
        # seeds 33 and 16 fail first (iterations 918 and 1118), but seed 2,
        # at iteration 1191, is the first failing seed of the per-seed loop;
        # each fails at a NaN gradient on its own path
        cfg = LmwuConfig(eps=1e-4, beta=100.0, max_iters=1500)
        obj = nan_at(benchmark("f1"), stop_points(
            benchmark("f1"), [0.3, 0.6, 0.1], cfg,
            [(2, 1191), (16, 1118), (33, 918)]))
        errors = {}
        for seed in (2, 16, 33):
            with pytest.raises(StepFailureError) as info:
                run_optimizer("lmwu", obj, [0.3, 0.6, 0.1], replace(cfg, seed=seed))
            errors[seed] = info.value
        assert [errors[s].iteration for s in (2, 16, 33)] == [1191, 1118, 918]
        with pytest.raises(StepFailureError) as info:
            run_chains("lmwu", obj, [0.3, 0.6, 0.1], cfg, range(2, 34))
        assert str(info.value) == str(errors[2])

    def test_step_size_error_propagates(self):
        obj = linear_objective([5.0, -5.0])
        cfg = LmwuConfig(eps=1.0, beta=1.0, max_iters=3)
        with pytest.raises(StepFailureError, match="makes a multiplier nonpositive"):
            run_chains("linear-mwu", obj, [0.5, 0.5], cfg, [0, 1])

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_malformed_gradient_fails_as_in_run_optimizer(self, method):
        # a scalar gradient would broadcast into the (K, n) gradient array
        obj = Objective(name="scalar-grad", dim=3, block_dims=(3,),
                        fn=lambda p: (float(p.sum()), 0.5))
        cfg = LmwuConfig(eps=1e-3, beta=100.0, max_iters=5)
        with pytest.raises(ValueError, match="gradient has shape"):
            run_optimizer(method, obj, [0.3, 0.6, 0.1], cfg)
        with pytest.raises(ValueError, match="gradient has shape"):
            run_chains(method, obj, [0.3, 0.6, 0.1], cfg, [0, 1])

    @pytest.mark.parametrize("method, match", [
        ("linear-mwu", "left the simplex"),
        ("exp-mwu", "left the simplex"),
        ("lmwu", "update denominator nan"),
        ("proj-langevin", "Langevin proposal is not finite"),
    ], ids=["linear-mwu", "exp-mwu", "lmwu", "proj-langevin"])
    def test_nan_gradient_fails_in_both_loops(self, method, match):
        # a NaN iterate is off the simplex: no method may return one, and
        # every method fails as a step at the iteration it was taken
        obj = Objective(name="nan-grad", dim=3, block_dims=(3,),
                        fn=lambda p: (float(p.sum()), np.full(3, np.nan)))
        cfg = LmwuConfig(eps=1e-3, beta=100.0, max_iters=5)
        for run in (lambda: run_optimizer(method, obj, [0.3, 0.6, 0.1], cfg),
                    lambda: run_chains(method, obj, [0.3, 0.6, 0.1], cfg, [0, 1])):
            with pytest.raises(StepFailureError, match=match) as info:
                run()
            assert info.value.iteration == 1

    def test_unprojectable_proposal_fails_in_both_loops(self):
        # coordinates near 1e17 round the projection's threshold test to 0
        # for every k; both loops fail at iteration 1 with the same text
        cfg = LmwuConfig(eps=1e17, beta=1.0, max_iters=3)
        errors = []
        for run in (lambda: run_optimizer("proj-langevin", benchmark("f1"),
                                          [0.3, 0.6, 0.1], cfg),
                    lambda: run_chains("proj-langevin", benchmark("f1"),
                                       [0.3, 0.6, 0.1], cfg, [0, 1])):
            with pytest.raises(StepFailureError,
                               match="Langevin proposal cannot be projected: "
                                     "coordinates of magnitude") as info:
                run()
            assert info.value.iteration == 1
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("method, obj, init, cfg, message", [
        ("linear-mwu", linear_objective([5.0, -5.0]), [0.5, 0.5],
         LmwuConfig(eps=1.0, beta=1.0, max_iters=3),
         "eps=1.0 makes a multiplier nonpositive (min -4.000e+00)"),
        ("exp-mwu", linear_objective([5.0, -5.0]), [0.5, 0.5],
         LmwuConfig(eps=1e5, beta=1.0, max_iters=3),
         "iterate left the simplex (block sum 1.0, min coord 0.0)"),
        ("lmwu", benchmark("f1"), [0.3, 0.6, 0.1],
         LmwuConfig(eps=1.0, beta=1e8, max_iters=10),
         "update denominator"),
    ], ids=["step-size", "off-simplex", "denominator"])
    def test_single_simplex_failure_names_only_its_iteration(
        self, method, obj, init, cfg, message
    ):
        for run in (lambda: run_optimizer(method, obj, init, cfg),
                    lambda: run_chains(method, obj, init, cfg, [0, 1])):
            with pytest.raises(StepFailureError) as info:
                run()
            assert (info.value.iteration, info.value.block) == (1, None)
            assert str(info.value).startswith(message)
            assert str(info.value).endswith(" (iteration 1)")

    @pytest.mark.parametrize("seeds", [
        [0, -1], [0, 1.5], [0, True], [0, None],
        [*range(4 * optimizers._CHAIN_SLICE), -1],
    ], ids=["-1", "1.5", "True", "None", "after-many-valid"])
    def test_seeds_follow_the_config_seed_rule(self, seeds, monkeypatch):
        # every seed is checked before any chain runs, the last of a long
        # list too
        def chain_ran(*args, **kwargs):
            raise AssertionError("a chain ran before every seed was checked")

        monkeypatch.setattr(optimizers, "_run_slice", chain_ran)
        obj, init, cfg = chain_case("f1")
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_chains("lmwu", obj, init, cfg, seeds)

    def test_numpy_integer_seed_accepted(self):
        obj, init, cfg = chain_case("f1")
        assert_chains_match_runs("lmwu", obj, init, cfg, [np.int64(3)])

    def test_float32_step_size_gives_the_runs_bits(self):
        # both lmwu kernels take ε and β as Python floats, so a float32 ε
        # forms the same drift coefficient in the batch as in the run
        obj, init, cfg = chain_case("f1")
        cfg = replace(cfg, eps=np.float32(1e-3))
        assert_chains_match_runs("lmwu", obj, init, cfg, [0, 1, 2])

    def test_rejects_multi_block_objective_and_no_seeds(self):
        cfg = LmwuConfig(eps=1e-3, beta=50.0, max_iters=3)
        init = [0.3, 0.6, 0.1, 0.4, 0.1, 0.5]
        with pytest.raises(ValueError, match="single-simplex"):
            run_chains("lmwu", two_block_objective(), init, cfg, [0, 1])
        with pytest.raises(ValueError, match="at least one seed"):
            run_chains("lmwu", benchmark("f1"), init[:3], cfg, [])


class TestGuaranteeFormulas:
    def test_step_bound_hand_value(self):
        tb = TheoryBudget(M=0.0, B=1.0, sigma=0.0, alpha=1.0, C=1.0, delta=1.0)
        assert theoretical_step_bound(tb) == 0.125

    def test_step_bound_scalings(self):
        tb1 = TheoryBudget(M=0.0, B=1.0, sigma=0.0, alpha=1.0, C=1.0, delta=1.0)
        tb2 = TheoryBudget(M=0.0, B=1.0, sigma=0.0, alpha=1.0, C=1.0, delta=2.0)
        tb3 = TheoryBudget(M=0.0, B=1.0, sigma=0.0, alpha=1.0, C=2.0, delta=1.0)
        assert theoretical_step_bound(tb2) == 4.0 * theoretical_step_bound(tb1)
        assert theoretical_step_bound(tb3) == 0.5 * theoretical_step_bound(tb1)

    def test_iteration_budget_hand_value(self):
        tb = TheoryBudget(M=0.0, B=1.0, sigma=0.0, alpha=1.0, C=1.0, delta=1.0)
        assert theoretical_iteration_budget(tb, 1.0) == 15
        assert theoretical_iteration_budget(tb, 0.5) == 30

    def test_iteration_budget_clamps_at_one(self):
        # log argument exactly 1: 16·B²/(δ²α) with B=1/4, δ=2, α=1
        tb = TheoryBudget(M=0.0, B=0.25, sigma=0.0, alpha=1.0, C=1.0, delta=2.0)
        assert theoretical_iteration_budget(tb, 1.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TheoryBudget(M=0.0, B=1.0, sigma=0.0, alpha=0.0, C=1.0, delta=1.0)
        with pytest.raises(ValueError):
            TheoryBudget(M=-1.0, B=1.0, sigma=0.0, alpha=1.0, C=1.0, delta=1.0)
        tb = TheoryBudget(M=0.0, B=0.0, sigma=0.0, alpha=1.0, C=1.0, delta=1.0)
        with pytest.raises(ValueError):
            theoretical_step_bound(tb)
        good = TheoryBudget(M=0.0, B=1.0, sigma=0.0, alpha=1.0, C=1.0, delta=1.0)
        with pytest.raises(ValueError):
            theoretical_iteration_budget(good, 0.0)


X2, G2 = np.array([0.5, 0.5]), np.array([1.0, 0.0])
TB = TheoryBudget(M=0.0, B=1.0, sigma=0.0, alpha=1.0, C=1.0, delta=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("name, call", [
    ("eps", lambda v: LmwuConfig(eps=v, beta=1.0, max_iters=1)),
    ("beta", lambda v: LmwuConfig(eps=0.1, beta=v, max_iters=1)),
    ("eps", lambda v: mwu_linear_step(X2, G2, v)),
    ("eps", lambda v: projected_langevin_step(
        X2, G2, v, 1.0, np.random.default_rng(0))),
    ("beta", lambda v: projected_langevin_step(
        X2, G2, 0.1, v, np.random.default_rng(0))),
    ("eps", lambda v: theoretical_iteration_budget(TB, v)),
], ids=["config-eps", "config-beta", "linear-mwu-eps", "proj-langevin-eps",
        "proj-langevin-beta", "iteration-budget-eps"])
def test_step_parameters_must_be_positive_finite(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a positive finite float$"):
        call(bad)

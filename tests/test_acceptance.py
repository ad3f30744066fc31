"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Each test prints ``criterion NN <name>: PASS/FAIL (<detail>)`` before its
assertions so the verdict survives in captured output either way.
"""
import itertools
import math
import time

import numpy as np
import pytest

from simplex_langevin.cli import main
from simplex_langevin.geometry import (
    barycenter,
    christoffel_drift,
    distance_sq_barycenter,
    euclidean_simplex_projection,
    exp_map,
    lift_to_interior,
    log_map,
    sample_noise,
)
from simplex_langevin.objectives import (
    PortfolioLoss,
    finite_difference_gradient,
    portfolio_objective,
)
from simplex_langevin.objectives import test_function as benchmark
from simplex_langevin.optimizers import (
    LmwuConfig,
    TheoryBudget,
    lmwu_step,
    mwu_linear_step,
    run_optimizer,
    theoretical_iteration_budget,
    theoretical_step_bound,
)
from simplex_langevin.portfolio import (
    RISK_PRESETS,
    ReturnPanel,
    RiskPreset,
    rolling_window_evaluate,
)

ALL_IDS = ("f1", "f2", "f3", "f4", "f5", "f6")


def report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {verdict} ({detail})", flush=True)


class ZeroGauss:
    def standard_normal(self, shape=None):
        return np.zeros(shape if shape is not None else ())


def interior_point(rng, n):
    x = rng.random(n) + 0.05
    return x / x.sum()


def reference_drift(x, eps, beta):
    """Term-by-term drift (ε/2β)(n+1 − Σ_j 1/x_j − Σ_j x_i/x_j), before the
    two sums are folded into the (1 + x_i)·S shortcut."""
    n = x.size
    out = np.empty(n)
    for i in range(n):
        acc = float(n + 1)
        for j in range(n):
            acc -= 1.0 / x[j]
            acc -= x[i] / x[j]
        out[i] = acc * eps / (2.0 * beta)
    return out


def test_criterion_01_geometry_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    dims = itertools.cycle(range(2, 9))

    round_trip = 0.0
    for _ in range(1000):
        n = next(dims)
        x = interior_point(rng, n)
        y = interior_point(rng, n)
        round_trip = max(
            round_trip,
            float(np.abs(exp_map(x, log_map(x, y).components) - y).max()),
        )
        v = rng.normal(0.0, 1.0, n)
        v -= v.mean()
        round_trip = max(
            round_trip,
            float(np.abs(log_map(x, exp_map(x, v)).components - v).max()),
        )

    shift = 0.0
    for _ in range(1000):
        n = next(dims)
        x = interior_point(rng, n)
        v = rng.normal(0.0, 1.0, n)
        c = float(rng.normal(0.0, 10.0))
        shift = max(
            shift, float(np.abs(exp_map(x, v + c) - exp_map(x, v)).max())
        )

    symmetry = 0.0
    bary_zero = 0.0
    for _ in range(1000):
        n = next(dims)
        x = interior_point(rng, n)
        shuffled = rng.permutation(x)
        symmetry = max(
            symmetry,
            abs(distance_sq_barycenter(x) - distance_sq_barycenter(shuffled)),
        )
        bary_zero = max(bary_zero, abs(distance_sq_barycenter(barycenter(n))))

    drift_gap = 0.0
    for _ in range(1000):
        n = next(dims)
        x = interior_point(rng, n)
        eps = float(rng.uniform(1e-4, 1.0))
        beta = float(rng.uniform(0.1, 1e4))
        drift_gap = max(
            drift_gap,
            float(np.abs(
                christoffel_drift(x, eps, beta) - reference_drift(x, eps, beta)
            ).max()),
        )

    elapsed = time.perf_counter() - started
    ok = (round_trip < 1e-10 and shift < 1e-12 and symmetry == 0.0
          and bary_zero == 0.0 and drift_gap < 1e-12 and elapsed < 5.0)
    report(
        1, "geometry suite", ok,
        f"round-trip {round_trip:.2e}, shift {shift:.2e}, "
        f"symmetry {symmetry:.2e}, barycenter {bary_zero:.2e}, "
        f"drift {drift_gap:.2e}, {elapsed:.1f}s",
    )
    assert round_trip < 1e-10
    assert shift < 1e-12
    assert symmetry == 0.0
    assert bary_zero == 0.0
    assert drift_gap < 1e-12
    assert elapsed < 5.0


def _composition_grid(n, parts):
    """All lattice points k/parts on the closed simplex."""
    pts = []
    for combo in itertools.combinations(range(parts + n - 1), n - 1):
        prev = -1
        row = []
        for c in combo:
            row.append(c - prev - 1)
            prev = c
        row.append(parts + n - 2 - prev)
        pts.append(row)
    return np.array(pts, dtype=float) / parts


def _box_candidates(center, step, half=5):
    n = center.size
    offsets = np.arange(-half, half + 1) * step
    axes = [center[i] + offsets for i in range(n - 1)]
    grids = np.meshgrid(*axes, indexing="ij")
    first = np.stack([g.ravel() for g in grids], axis=1)
    pts = np.column_stack([first, 1.0 - first.sum(axis=1)])
    pts = pts[(pts >= -1e-15).all(axis=1)]
    return np.clip(pts, 0.0, None)


def _grid_project(y, coarse):
    """Brute-force projection: full 0.02 grid, then the 1e-3-scale grid and
    finer boxes refined around the running best until the lattice resolves
    well below the 1e-6 comparison tolerance."""
    best = coarse[np.argmin(((coarse - y) ** 2).sum(axis=1))]
    for step in (4e-3, 1e-3, 2e-4, 4e-5, 8e-6, 1.6e-6, 3.2e-7, 6.4e-8):
        cands = _box_candidates(best, step)
        best = cands[np.argmin(((cands - y) ** 2).sum(axis=1))]
    return best


def test_criterion_02_projection_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    coarse = {n: _composition_grid(n, 50) for n in (2, 3, 4)}

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        y = rng.normal(0.0, 1.5, n)
        p = euclidean_simplex_projection(y)
        q = _grid_project(y, coarse[n])
        worst = max(worst, float(np.linalg.norm(p - q)))

    kkt_ok = True
    for _ in range(20):
        y = rng.normal(0.0, 0.3, 64)
        p = euclidean_simplex_projection(y)
        active = p > 0.0
        theta = y[active] - p[active]
        tau = float(theta.mean())
        kkt_ok = kkt_ok and float(np.ptp(theta)) < 1e-10
        kkt_ok = kkt_ok and bool((y[~active] <= tau + 1e-10).all())
        kkt_ok = kkt_ok and abs(float(p.sum()) - 1.0) < 1e-12
        kkt_ok = kkt_ok and float(p.min()) >= 0.0

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and kkt_ok and elapsed < 30.0
    report(
        2, "projection oracle", ok,
        f"max gap {worst:.2e} over 200 inputs, KKT n=64 "
        f"{'ok' if kkt_ok else 'violated'}, {elapsed:.1f}s",
    )
    assert worst <= 1e-6
    assert kkt_ok
    assert elapsed < 30.0


def test_criterion_03_noise_moments():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    eps, beta, draws = 0.1, 1.0, 1_000_000
    points = [
        barycenter(3),
        np.array([0.7, 0.2, 0.1]),
        rng.dirichlet(np.ones(5)),
    ]
    worst = 0.0
    for x in points:
        drift = christoffel_drift(x, eps, beta)
        values = sample_noise(x, eps, beta, rng, size=draws)
        var_expected = 2.0 * eps / beta * x
        mean_se = np.sqrt(var_expected / draws)
        var_se = var_expected * math.sqrt(2.0 / (draws - 1))
        mean_z = (values.mean(axis=0) - drift) / mean_se
        var_z = (values.var(axis=0, ddof=1) - var_expected) / var_se
        worst = max(worst, float(np.abs(mean_z).max()),
                    float(np.abs(var_z).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 4.0 and elapsed < 60.0
    report(
        3, "noise moments", ok,
        f"max |z| {worst:.2f} over 3 points x 1e6 draws, {elapsed:.1f}s",
    )
    assert worst < 4.0
    assert elapsed < 60.0


def test_criterion_04_beta_limit_collapse():
    obj = benchmark("f1")
    eps = 1e-3
    cfg = LmwuConfig(eps=eps, beta=1e12, max_iters=1)
    stub = ZeroGauss()
    xl = np.array([0.3, 0.6, 0.1])
    xm = xl.copy()
    worst = 0.0
    for _ in range(1000):
        xl = lmwu_step(xl, obj.gradient(xl), cfg, stub).point
        xm = mwu_linear_step(xm, obj.gradient(xm), eps)
        worst = max(worst, float(np.abs(xl - xm).max()))
    ok = worst <= 1e-9
    report(
        4, "beta-limit collapse", ok,
        f"max per-coordinate gap {worst:.2e} over 1000 iterations",
    )
    assert worst <= 1e-9


def test_criterion_05_gradient_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0

    def rel_gap(analytic, numeric):
        scale = max(float(np.linalg.norm(analytic)), 1e-12)
        return float(np.linalg.norm(analytic - numeric)) / scale

    for fid in ALL_IDS:
        obj = benchmark(fid)
        for _ in range(100):
            x = lift_to_interior(rng.dirichlet(np.ones(obj.dim)), floor=0.01)
            worst = max(
                worst,
                rel_gap(obj.gradient(x), finite_difference_gradient(obj, x)),
            )

    panel = np.clip(np.random.default_rng(1).normal(0.002, 0.02, (30, 4)),
                    -0.5, None)
    for preset in RISK_PRESETS.values():
        obj = portfolio_objective(PortfolioLoss(panel, preset.lambdas))
        for _ in range(100):
            w = lift_to_interior(rng.dirichlet(np.ones(4)), floor=0.01)
            analytic = obj.gradient(w)
            numeric = finite_difference_gradient(obj, w)
            worst = max(worst, rel_gap(analytic, numeric))

    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 30.0
    report(
        5, "gradient checks", ok,
        f"max relative gap {worst:.2e} over f1-f6 + 6 portfolio presets, "
        f"{elapsed:.1f}s",
    )
    assert worst < 1e-5
    assert elapsed < 30.0


def test_criterion_06_global_minimum_recovery():
    started = time.perf_counter()
    obj = benchmark("f1")
    init = np.array([0.3, 0.6, 0.1])
    iters = 200_000
    target = obj.known_optimum[1]

    def run_and_check(method, cfg):
        traj = run_optimizer(method, obj, init, cfg)
        sums = traj.points.sum(axis=1)
        assert float(np.abs(sums - 1.0).max()) <= 1e-9
        assert float(traj.points.min()) > 0.0
        return traj.final_f

    mwu_final = run_and_check(
        "linear-mwu", LmwuConfig(eps=1e-3, beta=1.0, max_iters=iters)
    )
    lmwu_finals = [
        run_and_check(
            "lmwu", LmwuConfig(eps=1e-4, beta=100.0, max_iters=iters, seed=s)
        )
        for s in range(20)
    ]
    best = min(lmwu_finals)
    elapsed = time.perf_counter() - started
    ok = abs(best - target) < 1e-2 and mwu_final > best and elapsed < 300.0
    report(
        6, "global-minimum recovery", ok,
        f"best noisy final {best:.6f} vs target {target:.6f} "
        f"(gap {abs(best - target):.2e}), deterministic final "
        f"{mwu_final:.6f}, {elapsed:.0f}s",
    )
    assert abs(best - target) < 1e-2
    assert mwu_final > best
    assert elapsed < 300.0


def test_criterion_07_empirical_optimum_sanity():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    margins = {}
    for fid in ALL_IDS:
        obj = benchmark(fid)
        samples = rng.dirichlet(np.ones(obj.dim), size=100_000)
        sampled_min = min(obj.value(s) for s in samples)
        _, listed_value = obj.known_optimum
        margins[fid] = sampled_min + 1e-9 - listed_value
    elapsed = time.perf_counter() - started
    failing = {fid: m for fid, m in margins.items() if m < 0.0}
    ok = not failing and elapsed < 60.0
    detail = ", ".join(f"{fid} margin {m:+.2e}" for fid, m in margins.items())
    report(7, "empirical-optimum sanity", ok, f"{detail}; {elapsed:.0f}s")
    assert not failing, (
        "listed optimum beaten by uniform sampling for: "
        + ", ".join(f"{fid} (margin {m:+.3e})" for fid, m in failing.items())
    )
    assert elapsed < 60.0


def _dominant_panel():
    t = np.arange(60, dtype=float)
    returns = np.column_stack([
        0.02 + 0.004 * np.sin(t / 3.0),
        0.005 + 0.003 * np.cos(t / 5.0),
        -0.01 + 0.002 * np.sin(t / 7.0 + 1.0),
    ])
    dates = tuple(f"d{int(k):03d}" for k in t)
    return ReturnPanel(dates, ("a0", "a1", "a2"), returns)


def test_criterion_08_portfolio_protocol():
    started = time.perf_counter()
    panel = _dominant_panel()
    window = 20
    preset = RiskPreset(name="mean-only", lambdas=(1.0, 0.0, 0.0, 0.0, 0.0))
    target = -float(panel.returns[window:, 0].mean())
    bumped_rows = panel.returns.copy()
    bumped_rows[-1] += 0.05
    bumped = ReturnPanel(panel.dates, panel.asset_names, bumped_rows)

    methods = ("lmwu", "linear-mwu", "exp-mwu", "proj-langevin")
    gaps = {}
    identities_ok = True
    lookahead_ok = True
    for method in methods:
        rep = rolling_window_evaluate(panel, preset, method, window=window)
        gaps[method] = abs(rep.score - target)
        identities_ok = identities_ok and (
            rep.score == float(rep.per_period_losses.mean())
        )
        rep2 = rolling_window_evaluate(bumped, preset, method, window=window)
        lookahead_ok = lookahead_ok and np.array_equal(
            rep.per_period_losses[:-1], rep2.per_period_losses[:-1]
        )
    worst = max(gaps.values())
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and identities_ok and lookahead_ok and elapsed < 120.0
    report(
        8, "portfolio protocol", ok,
        f"max |score - (-dominant mean)| {worst:.2e}, score-mean identity "
        f"{'exact' if identities_ok else 'BROKEN'}, no-look-ahead "
        f"{'exact' if lookahead_ok else 'BROKEN'}, {elapsed:.0f}s",
    )
    assert worst < 1e-3
    assert identities_ok
    assert lookahead_ok
    assert elapsed < 120.0


def test_criterion_09_budget_formulas():
    tb = TheoryBudget(M=0.0, B=1.0, sigma=0.0, alpha=1.0, C=1.0, delta=1.0)
    bound = theoretical_step_bound(tb)
    budget = theoretical_iteration_budget(tb, 1.0)
    clamp_tb = TheoryBudget(M=0.0, B=0.25, sigma=0.0, alpha=1.0, C=1.0,
                            delta=2.0)
    clamped = theoretical_iteration_budget(clamp_tb, 1.0)
    ok = bound == 0.125 and budget == 15 and clamped == 1
    report(
        9, "budget formulas", ok,
        f"step bound {bound!r} (want 0.125), budget {budget} (want 15), "
        f"log-1 clamp {clamped} (want 1)",
    )
    assert bound == 0.125
    assert budget == 15
    assert clamped == 1


def _strip_runtime_column(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name != "runtime_seconds"]
    return "\n".join(
        ",".join(line.split(",")[i] for i in keep) for line in lines
    )


def _assert_dirs_identical(a, b):
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b
    masked = 0
    for name in names_a:
        bytes_a = (a / name).read_bytes()
        bytes_b = (b / name).read_bytes()
        if name == "portfolio_report.csv":
            # the report schema carries a wall-clock column; compare the
            # deterministic portion
            assert _strip_runtime_column(bytes_a.decode()) == \
                _strip_runtime_column(bytes_b.decode()), name
            masked += 1
        else:
            assert bytes_a == bytes_b, name
    return len(names_a), masked


def test_criterion_10_determinism(tmp_path):
    returns_path = tmp_path / "returns.csv"
    panel = _dominant_panel()
    rows = "\n".join(
        f"{d},{float(r[0])!r},{float(r[1])!r},{float(r[2])!r}"
        for d, r in zip(panel.dates, panel.returns)
    )
    returns_path.write_text(f"date,a0,a1,a2\n{rows}\n")

    commands = {
        "optimize": ["optimize", "--objective", "f1", "--method", "lmwu",
                     "--iters", "200", "--seed", "3"],
        "compare": ["compare", "--objective", "f2", "--iters", "100",
                    "--seed", "1"],
        "sweep": ["sweep", "--objective", "f3", "--method", "lmwu",
                  "--iters", "50", "--samples", "5", "--seed", "2"],
        "portfolio": ["portfolio", "--returns", str(returns_path),
                      "--window", "50", "--method", "lmwu,linear-mwu",
                      "--preset", "mv,equal", "--iters", "80", "--seed", "5",
                      "--per-period"],
    }
    total_files = 0
    total_masked = 0
    for name, argv in commands.items():
        dir_a = tmp_path / f"{name}_a"
        dir_b = tmp_path / f"{name}_b"
        dir_a.mkdir(), dir_b.mkdir()
        assert main(argv + ["--out", str(dir_a)]) == 0, name
        assert main(argv + ["--out", str(dir_b)]) == 0, name
        n_files, n_masked = _assert_dirs_identical(dir_a, dir_b)
        total_files += n_files
        total_masked += n_masked
    report(
        10, "determinism", True,
        f"{total_files} files byte-identical across reruns of "
        f"{len(commands)} commands ({total_masked} wall-clock column masked)",
    )

"""Command-line front end.

Subcommands: ``optimize`` (single run → trajectory CSV), ``compare``
(several methods from one init → per-method trajectories + summary CSV),
``sweep`` (one method over consecutive seeds → sweep CSV), ``portfolio``
(rolling-window evaluation grid → report CSV), and ``noise-check``
(empirical moments of the update noise against their analytic values).

Value resolution, highest priority first: explicit flags, then a
``--config`` file (JSON object or ``key=value`` lines), then the
``SIMPLEX_LANGEVIN_SEED`` environment variable (seed only), then the bundled
per-objective experiment presets (active with ``--init paper``), then hard
defaults. All CSV cells use 17-significant-digit floats so identical runs
produce byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    DEFAULT_FLOOR,
    DegeneratePointError,
    RetractionFailureError,
    barycenter,
    christoffel_drift,
    sample_noise,
    simplex_point,
)
from .objectives import (
    Objective,
    PortfolioLoss,
    TEST_FUNCTION_IDS,
    portfolio_objective,
    test_function,
)
from .optimizers import (
    LmwuConfig,
    Method,
    StepFailureError,
    StepSizeError,
    run_optimizer,
)
from .portfolio import (
    DEFAULT_FIT_CONFIG,
    DEFAULT_WINDOW,
    RISK_PRESETS,
    ReturnsParseError,
    PortfolioFitError,
    RiskPreset,
    VARIANTS,
    compare_methods,
    load_returns,
)

__all__ = ["main", "PAPER_PRESETS", "ENV_SEED"]

ENV_SEED = "SIMPLEX_LANGEVIN_SEED"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

DETERMINISTIC_METHODS = (Method.LINEAR_MWU, Method.EXP_MWU)

# fallback step sizes when neither flags, config, nor a preset supply one
DEFAULT_DET_EPS = 1e-3
DEFAULT_STOCH_EPS = 1e-4
DEFAULT_BETA = 100.0
DEFAULT_ITERS = 10_000


@dataclass(frozen=True)
class ExperimentPreset:
    """Bundled benchmark configuration: init point, per-family step sizes,
    and the inverse temperatures used in the reference experiments."""

    init: tuple[float, ...]
    det_eps: float
    stoch_eps: float
    betas: tuple[float, ...]


PAPER_PRESETS: dict[str, ExperimentPreset] = {
    "f1": ExperimentPreset((0.3, 0.6, 0.1), 1e-3, 1e-4, (10.0, 50.0, 100.0)),
    "f2": ExperimentPreset((0.4, 0.1, 0.5), 1e-3, 5e-5, (10.0, 50.0, 100.0)),
    "f3": ExperimentPreset((0.2, 0.75, 0.05), 1e-2, 1e-3, (10.0, 2000.0, 5000.0)),
    "f4": ExperimentPreset((0.5, 0.4, 0.1), 1e-2, 2e-4, (1000.0, 2000.0, 8000.0)),
    "f5": ExperimentPreset(
        (0.1, 0.05, 0.4, 0.4, 0.05), 5e-2, 5e-3, (800.0, 2000.0, 3000.0)
    ),
    "f6": ExperimentPreset(
        (0.4, 0.1, 0.1, 0.2, 0.1, 0.1), 1e-4, 1e-4, (300.0, 3000.0, 8000.0)
    ),
}


class UsageError(Exception):
    """Bad flag/config values; maps to exit code 2."""


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad JSON config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("JSON config must be an object")
        return cfg
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _pick(args, config: dict, key: str, cast, fallback):
    """flags > config > fallback, with casting applied to config values."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config value for {key!r}: {exc}") from exc
    return fallback


def _pick_seed(args, config: dict) -> int:
    """flags > config > the ``SIMPLEX_LANGEVIN_SEED`` variable > 0."""
    seed = _pick(args, config, "seed", int, None)
    if seed is not None:
        return seed
    env = os.environ.get(ENV_SEED, "0")
    try:
        return int(env)
    except ValueError as exc:
        raise UsageError(f"{ENV_SEED} must be an integer: {env!r}") from exc


def _parse_method(text: str) -> Method:
    try:
        return Method(text)
    except ValueError:
        valid = ", ".join(m.value for m in Method)
        raise UsageError(f"unknown method {text!r} (expected one of {valid})")


def _parse_method_list(text: str | None, default: tuple[Method, ...]):
    if text is None:
        return default
    methods = tuple(_parse_method(t.strip()) for t in text.split(",") if t.strip())
    if not methods:
        raise UsageError("empty method list")
    return methods


def _parse_init(
    text: str | None, objective: Objective, preset: ExperimentPreset | None
) -> np.ndarray:
    if text is None or text == "uniform":
        return np.concatenate([barycenter(d) for d in objective.block_dims])
    if text == "paper":
        if preset is None:
            raise UsageError(
                "--init paper needs one of the bundled objectives "
                f"({', '.join(PAPER_PRESETS)})"
            )
        return np.array(preset.init, dtype=float)
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(
            f"bad --init {text!r}: expected 'uniform', 'paper', or "
            "comma-separated coordinates"
        ) from None
    return np.array(values, dtype=float)


def _objective_id(args, config: dict) -> str | None:
    """The ``--objective`` id, checked against the bundled ids, or None."""
    objective_id = _pick(args, config, "objective", str, None)
    if objective_id is not None and objective_id not in TEST_FUNCTION_IDS:
        raise UsageError(
            f"unknown objective {objective_id!r} "
            f"(expected one of {', '.join(TEST_FUNCTION_IDS)})"
        )
    return objective_id


def _risk_presets(args, config: dict, *, single: bool) -> list[RiskPreset]:
    """The ``--preset`` risk presets (default ``equal``): exactly one name
    when ``single``, otherwise a comma list of names or ``all``."""
    text = _pick(args, config, "preset", str, "equal")
    if text == "all" and not single:
        return list(RISK_PRESETS.values())
    names = [t.strip() for t in text.split(",") if t.strip()]
    if (not names or (single and len(names) > 1)
            or not set(names) <= RISK_PRESETS.keys()):
        expected = "one of" if single else "names from"
        raise UsageError(
            f"bad --preset {text!r} (expected {expected} "
            f"{', '.join(RISK_PRESETS)}{'' if single else ', or all'})"
        )
    return [RISK_PRESETS[n] for n in names]


def _resolve_objective(args, config: dict):
    """Returns (objective, preset-or-None, from_returns flag)."""
    objective_id = _objective_id(args, config)
    returns_path = _pick(args, config, "returns", str, None)
    if (objective_id is None) == (returns_path is None):
        raise UsageError("exactly one of --objective or --returns is required")
    if objective_id is not None:
        return test_function(objective_id), PAPER_PRESETS[objective_id], False
    panel = load_returns(returns_path)
    (preset,) = _risk_presets(args, config, single=True)
    loss = PortfolioLoss(panel.returns, preset.lambdas)
    return portfolio_objective(loss, name=f"portfolio[{preset.name}]"), None, True


def _resolve_cfg(
    args,
    config: dict,
    method: Method,
    preset: ExperimentPreset | None,
    from_returns: bool,
    use_preset: bool,
) -> LmwuConfig:
    deterministic = method in DETERMINISTIC_METHODS
    if from_returns:
        eps_default = DEFAULT_FIT_CONFIG.eps
        beta_default = DEFAULT_FIT_CONFIG.beta
        iters_default = DEFAULT_FIT_CONFIG.max_iters
        floor_default = DEFAULT_FIT_CONFIG.floor
    else:
        if use_preset and preset is not None:
            eps_default = preset.det_eps if deterministic else preset.stoch_eps
            beta_default = max(preset.betas)
        else:
            eps_default = DEFAULT_DET_EPS if deterministic else DEFAULT_STOCH_EPS
            beta_default = DEFAULT_BETA
        iters_default = DEFAULT_ITERS
        floor_default = DEFAULT_FLOOR
    try:
        return LmwuConfig(
            eps=_pick(args, config, "eps", float, eps_default),
            beta=_pick(args, config, "beta", float, beta_default),
            max_iters=_pick(args, config, "iters", int, iters_default),
            seed=_pick_seed(args, config),
            floor=_pick(args, config, "floor", float, floor_default),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _out_dir(args, config: dict) -> str:
    out = _pick(args, config, "out", str, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _trajectory_rows(traj):
    for k in range(len(traj)):
        yield (
            [k, traj.f_values[k]]
            + list(traj.points[k])
            + [traj.clamped[k], traj.resampled[k]]
        )


def _write_trajectory(path: str, traj, dim: int) -> None:
    header = (
        ["iter", "f"]
        + [f"x_{i}" for i in range(1, dim + 1)]
        + ["clamped", "resampled"]
    )
    _write_csv(path, header, _trajectory_rows(traj))


def _print_final(traj) -> None:
    coords = " ".join(_fmt(v) for v in traj.final_point)
    print(f"final f = {_fmt(traj.final_f)}")
    print(f"final x = {coords}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
    config = _load_config(args.config)
    objective, preset, from_returns = _resolve_objective(args, config)
    method = _parse_method(_pick(args, config, "method", str, Method.LMWU.value))
    init_text = _pick(args, config, "init", str, None)
    cfg = _resolve_cfg(
        args, config, method, preset, from_returns, use_preset=init_text == "paper"
    )
    init = _parse_init(init_text, objective, preset)
    traj = run_optimizer(method, objective, init, cfg)
    out = _out_dir(args, config)
    _write_trajectory(os.path.join(out, "trajectory.csv"), traj, objective.dim)
    _print_final(traj)
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    objective, preset, from_returns = _resolve_objective(args, config)
    methods = _parse_method_list(
        _pick(args, config, "method", str, None), tuple(Method)
    )
    init_text = _pick(args, config, "init", str, None)
    init = _parse_init(init_text, objective, preset)
    out = _out_dir(args, config)
    rows = []
    for method in methods:
        cfg = _resolve_cfg(
            args, config, method, preset, from_returns,
            use_preset=init_text == "paper",
        )
        traj = run_optimizer(method, objective, init, cfg)
        _write_trajectory(
            os.path.join(out, f"trajectory_{method.value}.csv"),
            traj,
            objective.dim,
        )
        rows.append([method.value, traj.final_f, traj.best_f, traj.iters])
        print(
            f"{method.value}: final f = {_fmt(traj.final_f)}, "
            f"best f = {_fmt(traj.best_f)}"
        )
    _write_csv(
        os.path.join(out, "summary.csv"),
        ["method", "final_f", "best_f", "iters"],
        rows,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    objective, preset, from_returns = _resolve_objective(args, config)
    method = _parse_method(_pick(args, config, "method", str, Method.LMWU.value))
    count = _pick(args, config, "samples", int, 20)
    if count < 1:
        raise UsageError("--samples must be >= 1 for sweep")
    init_text = _pick(args, config, "init", str, None)
    cfg = _resolve_cfg(
        args, config, method, preset, from_returns, use_preset=init_text == "paper"
    )
    init = _parse_init(init_text, objective, preset)
    rows = []
    finals = []
    for seed in range(cfg.seed, cfg.seed + count):
        traj = run_optimizer(method, objective, init, replace(cfg, seed=seed))
        rows.append([seed, traj.final_f, traj.best_f])
        finals.append(traj.final_f)
    out = _out_dir(args, config)
    _write_csv(os.path.join(out, "sweep.csv"), ["seed", "final_f", "best_f"], rows)
    print(f"seeds = {count}")
    print(f"min final f = {_fmt(min(finals))}")
    print(f"median final f = {_fmt(statistics.median(finals))}")
    return EXIT_OK


def cmd_portfolio(args) -> int:
    config = _load_config(args.config)
    returns_path = _pick(args, config, "returns", str, None)
    if returns_path is None:
        raise UsageError("portfolio requires --returns")
    panel = load_returns(returns_path)
    presets = _risk_presets(args, config, single=False)
    methods = _parse_method_list(
        _pick(args, config, "method", str, None), tuple(Method)
    )
    window = _pick(args, config, "window", int, DEFAULT_WINDOW)
    variant = _pick(args, config, "variant", str, "literal")
    if variant not in VARIANTS:
        raise UsageError(f"unknown variant {variant!r} (expected {VARIANTS})")
    cfg = _resolve_cfg(
        args, config, Method.LMWU, None, from_returns=True, use_preset=False
    )
    if not 2 <= window < panel.n_periods:
        raise UsageError(
            f"--window must satisfy 2 <= window < T={panel.n_periods}"
        )

    table = compare_methods(
        panel, presets, methods, cfg, window,
        variant=variant, warm_start=not args.no_warm_start,
    )
    out = _out_dir(args, config)
    rows = []
    failed = False
    for method, preset_name, report, error in table.iter_cells():
        if report is not None:
            rows.append([
                method.value, preset_name, report.score, report.periods,
                report.variant, report.runtime_seconds,
            ])
            print(f"{method.value} {preset_name}: score = {_fmt(report.score)}")
            if args.per_period:
                _write_csv(
                    os.path.join(
                        out, f"per_period_{method.value}_{preset_name}.csv"
                    ),
                    ["t", "date", "loss"],
                    (
                        [window + 1 + j, report.dates[j], loss]
                        for j, loss in enumerate(report.per_period_losses)
                    ),
                )
        else:
            failed = True
            rows.append([method.value, preset_name, "", "", variant, ""])
            print(
                f"{method.value} {preset_name}: failed: {error}", file=sys.stderr
            )
    _write_csv(
        os.path.join(out, "portfolio_report.csv"),
        ["method", "preset", "score", "periods", "variant", "runtime_seconds"],
        rows,
    )
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_noise_check(args) -> int:
    config = _load_config(args.config)
    init_text = _pick(args, config, "init", str, None)
    objective_id = _objective_id(args, config)
    if objective_id is not None:
        point = _parse_init(
            init_text, test_function(objective_id), PAPER_PRESETS[objective_id]
        )
    elif init_text in ("uniform", "paper"):
        raise UsageError(f"--init {init_text} needs --objective")
    elif init_text is not None:
        point = _parse_init(init_text, None, None)
    else:
        point = barycenter(2)
    floor = _pick(args, config, "floor", float, DEFAULT_FLOOR)
    try:
        point = simplex_point(point)
    except ValueError as exc:
        raise UsageError(f"noise-check point: {exc}") from exc
    if point.min() < floor:
        raise UsageError(
            f"noise-check point has a coordinate below floor {floor:.3e}"
        )
    n_samples = _pick(args, config, "samples", int, 100_000)
    if n_samples < 10_000:
        raise UsageError("--samples must be >= 10000 for a meaningful check")
    eps = _pick(args, config, "eps", float, 0.1)
    beta = _pick(args, config, "beta", float, 1.0)
    seed = _pick_seed(args, config)
    if eps <= 0 or beta <= 0:
        raise UsageError("eps and beta must be positive")

    drift = christoffel_drift(point, eps, beta, floor=floor)
    rng = np.random.default_rng(seed)
    draws = sample_noise(point, eps, beta, rng, floor=floor, size=n_samples)
    values = draws.values
    var_expected = 2.0 * eps / beta * point
    mean = values.mean(axis=0)
    var = values.var(axis=0, ddof=1)
    mean_se = np.sqrt(var_expected / n_samples)
    var_se = var_expected * math.sqrt(2.0 / (n_samples - 1))
    mean_z = (mean - drift) / mean_se
    var_z = (var - var_expected) / var_se

    rows = []
    for i in range(point.size):
        rows.append([
            i + 1, drift[i], mean[i], mean_z[i], var_expected[i], var[i], var_z[i],
        ])
        print(
            f"x_{i + 1}: mean {_fmt(mean[i])} (drift {_fmt(drift[i])}, "
            f"z = {mean_z[i]:+.2f}), var {_fmt(var[i])} "
            f"(expected {_fmt(var_expected[i])}, z = {var_z[i]:+.2f})"
        )
    if args.out is not None or "out" in config:
        out = _out_dir(args, config)
        _write_csv(
            os.path.join(out, "noise_check.csv"),
            ["coord", "drift", "mean", "mean_z", "var_expected", "var", "var_z"],
            rows,
        )
    worst = max(float(np.abs(mean_z).max()), float(np.abs(var_z).max()))
    passed = worst < 4.0
    print(f"{'PASS' if passed else 'FAIL'}: max |z| = {worst:.2f} (threshold 4)")
    return EXIT_OK if passed else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--objective", help="bundled objective id (f1..f6)")
    sub.add_argument("--returns", help="returns CSV path (date,asset1,...)")
    sub.add_argument("--method", help="update rule; comma list where supported")
    sub.add_argument("--eps", type=float, help="step size")
    sub.add_argument("--beta", type=float, help="inverse temperature")
    sub.add_argument("--iters", type=int, help="iteration budget")
    sub.add_argument("--seed", type=int, help="RNG seed")
    sub.add_argument("--floor", type=float, help="positivity floor")
    sub.add_argument(
        "--init", help="'uniform', 'paper', or comma-separated coordinates"
    )
    sub.add_argument("--window", type=int, help="rolling fit window length")
    sub.add_argument("--preset", help="risk preset name (or 'all' for portfolio)")
    sub.add_argument("--out", help="output directory (default: .)")
    sub.add_argument("--samples", type=int, help="draw count / sweep width")
    sub.add_argument("--config", help="config file: JSON object or key=value lines")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplex-langevin",
        description=(
            "Multiplicative-weights and Langevin optimization on products "
            "of probability simplices."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("optimize", help="single run, writes trajectory.csv")
    _add_common(p)
    p.set_defaults(handler=cmd_optimize)

    p = subs.add_parser(
        "compare", help="run several methods from one init, writes summary.csv"
    )
    _add_common(p)
    p.set_defaults(handler=cmd_compare)

    p = subs.add_parser(
        "sweep", help="one method over consecutive seeds, writes sweep.csv"
    )
    _add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = subs.add_parser(
        "portfolio",
        help="rolling-window out-of-sample evaluation, writes portfolio_report.csv",
    )
    _add_common(p)
    p.add_argument(
        "--variant", help=f"out-of-sample loss variant {VARIANTS} (default literal)"
    )
    p.add_argument(
        "--per-period", action="store_true",
        help="also write per_period_<method>_<preset>.csv files",
    )
    p.add_argument(
        "--no-warm-start", action="store_true",
        help="start every window fit from the uniform portfolio",
    )
    p.set_defaults(handler=cmd_portfolio)

    p = subs.add_parser(
        "noise-check",
        help="compare empirical noise moments at a point with analytic values",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_noise_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ReturnsParseError, PortfolioFitError, DegeneratePointError,
            RetractionFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except StepFailureError as exc:
        print(f"error: step failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except StepSizeError as exc:
        print(f"error: step size too large: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

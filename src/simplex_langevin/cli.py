"""Command-line front end.

Subcommands: ``optimize`` (single run → trajectory CSV), ``compare``
(several methods from one init → per-method trajectories + summary CSV),
``sweep`` (one method over consecutive seeds → sweep CSV; ``lmwu`` seeds
advance as one batch, other methods seed by seed), and ``portfolio``
(rolling-window evaluation grid → report CSV).

Each subcommand declares only the flags it reads (``_COMMANDS``). ``main``
merges a ``--config`` file (JSON object or ``key=value`` lines) into them
once: each key is one of those value flags, its value parses like the same
text on the command line, and it fills only a flag left unset. Every run
config comes from ``_resolve_cfg``: the objective source's defaults (the
portfolio fit config for ``--returns``, the per-objective preset for
``--init paper``, else the generic preset) under the set flags, with an unset
seed read from ``SIMPLEX_LANGEVIN_SEED``. CSV cells use 17-significant-digit
floats, so identical runs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from dataclasses import dataclass, replace

import numpy as np

from .geometry import barycenter
from .objectives import (
    Objective,
    PortfolioLoss,
    portfolio_objective,
    test_function,
)
from .optimizers import (
    LmwuConfig,
    Method,
    StepFailureError,
    run_chains,
    run_optimizer,
)
from .portfolio import (
    DEFAULT_FIT_CONFIG,
    DEFAULT_WINDOW,
    RISK_PRESETS,
    ReturnsParseError,
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

DEFAULT_ITERS = 10_000


@dataclass(frozen=True)
class ExperimentPreset:
    """Bundled benchmark configuration: init point, per-family step sizes,
    and the inverse temperature (the largest of the reference experiments)."""

    init: tuple[float, ...]
    det_eps: float
    stoch_eps: float
    beta: float


PAPER_PRESETS: dict[str, ExperimentPreset] = {
    "f1": ExperimentPreset((0.3, 0.6, 0.1), 1e-3, 1e-4, 100.0),
    "f2": ExperimentPreset((0.4, 0.1, 0.5), 1e-3, 5e-5, 100.0),
    "f3": ExperimentPreset((0.2, 0.75, 0.05), 1e-2, 1e-3, 5000.0),
    "f4": ExperimentPreset((0.5, 0.4, 0.1), 1e-2, 2e-4, 8000.0),
    "f5": ExperimentPreset((0.1, 0.05, 0.4, 0.4, 0.05), 5e-2, 5e-3, 3000.0),
    "f6": ExperimentPreset((0.4, 0.1, 0.1, 0.2, 0.1, 0.1), 1e-4, 1e-4, 8000.0),
}

# the run defaults of a bundled objective without --init paper; no init point
GENERIC_PRESET = ExperimentPreset((), 1e-3, 1e-4, 100.0)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])


def _load_config(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"config line {line}: not UTF-8 text") from None
    # as text mode reads it, without the byte-order mark load_returns drops
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    if text.lstrip().startswith(("{", "[")):
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ValueError("JSON config must be an object")
        return cfg
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _merge_config(args) -> None:
    """Fill the value flags left unset on the command line from the
    ``--config`` file. Each key must be one of the subcommand's value flags;
    its value is parsed by that flag's type from ``str(value)``."""
    if args.config is None:
        return
    value_flags = [
        f for f in _COMMANDS[args.command][2] if "action" not in _FLAGS[f]
    ]
    for key, value in _load_config(args.config).items():
        if key not in value_flags:
            raise ValueError(
                f"unknown config key {key!r} for {args.command} "
                f"(expected one of {', '.join(value_flags)})"
            )
        try:
            parsed = _FLAGS[key].get("type", str)(str(value))
        except ValueError as exc:
            raise ValueError(f"config value for {key!r}: {exc}") from exc
        if getattr(args, key) is None:
            setattr(args, key, parsed)


def _env_seed(default: int) -> int:
    """The ``SIMPLEX_LANGEVIN_SEED`` variable, or ``default`` if it is unset."""
    env = os.environ.get(ENV_SEED)
    if env is None:
        return default
    try:
        return int(env)
    except ValueError as exc:
        raise ValueError(f"{ENV_SEED} must be an integer: {env!r}") from exc


# the LmwuConfig field that each run-config flag sets
_CFG_FIELDS = {"eps": "eps", "beta": "beta", "iters": "max_iters", "floor": "floor"}


def _resolve_cfg(args, defaults: LmwuConfig) -> LmwuConfig:
    """``defaults`` with the seed resolved (flag, then the environment) and
    every set run-config flag applied; ``LmwuConfig`` validates the result."""
    seed = _env_seed(defaults.seed) if args.seed is None else args.seed
    flags = {
        field: getattr(args, flag)
        for flag, field in _CFG_FIELDS.items()
        if getattr(args, flag) is not None
    }
    return replace(defaults, seed=seed, **flags)


def _run_cfg(args, preset: ExperimentPreset | None, method: Method) -> LmwuConfig:
    """The run config of ``method``: the portfolio fit config for a
    ``--returns`` objective (no preset), else the preset's defaults."""
    if preset is None:
        return _resolve_cfg(args, DEFAULT_FIT_CONFIG)
    eps = preset.det_eps if method in DETERMINISTIC_METHODS else preset.stoch_eps
    return _resolve_cfg(
        args, LmwuConfig(eps=eps, beta=preset.beta, max_iters=DEFAULT_ITERS)
    )


def _reject_repeats(flag: str, names: list[str]) -> None:
    """A name given twice would run and write the same cells twice."""
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"{flag} repeats {', '.join(repeated)}")


def _parse_method_list(text: str | None, default: tuple[Method, ...]):
    if text is None:
        return default
    methods = tuple(Method(t.strip()) for t in text.split(",") if t.strip())
    if not methods:
        raise ValueError("empty method list")
    _reject_repeats("--method", [m.value for m in methods])
    return methods


def _parse_init(
    text: str | None, objective: Objective, preset: ExperimentPreset | None,
) -> np.ndarray:
    if text is None or text == "uniform":
        return np.concatenate([barycenter(d) for d in objective.block_dims])
    if text == "paper":
        if preset is None:
            raise ValueError(
                "--init paper needs one of the bundled objectives "
                f"({', '.join(PAPER_PRESETS)})"
            )
        return np.array(preset.init, dtype=float)
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(
            f"bad --init {text!r}: expected 'uniform', 'paper', or "
            "comma-separated coordinates"
        ) from None
    if len(values) != objective.dim:
        raise ValueError(
            f"--init has {len(values)} coordinates, objective "
            f"{objective.name!r} has {objective.dim}"
        )
    return np.array(values, dtype=float)


def _risk_presets(text: str | None, *, single: bool) -> list[RiskPreset]:
    """The ``--preset`` risk presets (default ``equal``): exactly one name
    when ``single``, otherwise a comma list of names or ``all``."""
    text = "equal" if text is None else text
    if text == "all" and not single:
        return list(RISK_PRESETS.values())
    names = [t.strip() for t in text.split(",") if t.strip()]
    if (not names or (single and len(names) > 1)
            or not set(names) <= RISK_PRESETS.keys()):
        expected = "one of" if single else "names from"
        raise ValueError(
            f"bad --preset {text!r} (expected {expected} "
            f"{', '.join(RISK_PRESETS)}{'' if single else ', or all'})"
        )
    _reject_repeats("--preset", names)
    return [RISK_PRESETS[n] for n in names]


def _resolve_objective(args):
    """Returns (objective, preset, init). The preset supplies the run
    defaults; it is None for a ``--returns`` objective."""
    # an unknown id is reported before a missing or doubled source
    objective = None if args.objective is None else test_function(args.objective)
    if (objective is None) == (args.returns is None):
        raise ValueError("exactly one of --objective or --returns is required")
    if objective is not None:
        if args.preset is not None:
            raise ValueError("--preset needs --returns, not --objective")
        paper = args.init == "paper"
        preset = PAPER_PRESETS[objective.name] if paper else GENERIC_PRESET
    else:
        panel = load_returns(args.returns)
        (risk,) = _risk_presets(args.preset, single=True)
        loss = PortfolioLoss(panel.returns, risk.lambdas)
        objective = portfolio_objective(loss, name=f"portfolio[{risk.name}]")
        preset = None
    return objective, preset, _parse_init(args.init, objective, preset)


def _out_dir(args) -> str:
    out = "." if args.out is None else args.out
    os.makedirs(out, exist_ok=True)
    return out


# trajectory rows turned into Python values at a time, so a long run is never
# copied whole
_TRAJECTORY_CHUNK = 2048


def _write_trajectory(path: str, traj, dim: int) -> None:
    """The rows ``_write_csv`` writes, one format string each: ``%.17g`` is
    ``_fmt``'s ``format(v, ".17g")``, and ``%d`` gives a flag as 1 or 0.

    A row whose value, point and flags have the bits of the row before it
    (as a run past its fixed point gives) is not formatted again: it takes
    that row's cells after its own ``iter``. Bits, not floats, are compared:
    0.0 == -0.0, yet they print 0 and -0."""
    header = ["iter", "f", *(f"x_{i}" for i in range(1, dim + 1)),
              "clamped", "resampled"]
    row = "%d," + "%.17g," * (dim + 1) + "%d,%d\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(traj), _TRAJECTORY_CHUNK):
            stop = min(start + _TRAJECTORY_CHUNK, len(traj))
            # the chunk from the row before it, which is formatted again
            # (not written) so that the chunk's first rows can repeat it
            lo = max(start - 1, 0)
            fb = traj.f_values[lo:stop].view(np.int64)
            xb = traj.points[lo:stop].view(np.int64)
            cb, rb = traj.clamped[lo:stop], traj.resampled[lo:stop]
            moved = ((fb[1:] != fb[:-1]) | (xb[1:] != xb[:-1]).any(axis=1)
                     | (cb[1:] != cb[:-1]) | (rb[1:] != rb[:-1]))
            fresh = lo + np.concatenate(([0], 1 + np.flatnonzero(moved)))
            fresh_rows = fresh.tolist()
            lines = []
            for j, end, f, x, c, r in zip(
                    fresh_rows, fresh_rows[1:] + [stop],
                    traj.f_values[fresh].tolist(), traj.points[fresh].tolist(),
                    traj.clamped[fresh].tolist(), traj.resampled[fresh].tolist()):
                lines.append(row % (j, f, *x, c, r))
                if end > j + 1:
                    cells = lines[-1].partition(",")[2]
                    lines += [f"{k},{cells}" for k in range(j + 1, end)]
            fh.write("".join(lines[start - lo:]))


def _print_final(traj) -> None:
    coords = " ".join(_fmt(v) for v in traj.final_point)
    print(f"final f = {_fmt(traj.final_f)}")
    print(f"final x = {coords}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
    objective, preset, init = _resolve_objective(args)
    method = Method.LMWU if args.method is None else Method(args.method)
    cfg = _run_cfg(args, preset, method)
    traj = run_optimizer(method, objective, init, cfg)
    out = _out_dir(args)
    _write_trajectory(os.path.join(out, "trajectory.csv"), traj, objective.dim)
    _print_final(traj)
    return EXIT_OK


def cmd_compare(args) -> int:
    objective, preset, init = _resolve_objective(args)
    methods = _parse_method_list(args.method, tuple(Method))
    cfgs = [_run_cfg(args, preset, method) for method in methods]
    rows = []
    for method, cfg in zip(methods, cfgs):
        traj = run_optimizer(method, objective, init, cfg)
        # made once a run has returned, so a bad init leaves no directory
        out = _out_dir(args)
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
    objective, preset, init = _resolve_objective(args)
    method = Method.LMWU if args.method is None else Method(args.method)
    count = 20 if args.samples is None else args.samples
    if count < 1:
        raise ValueError("--samples must be >= 1 for sweep")
    cfg = _run_cfg(args, preset, method)
    seeds = range(cfg.seed, cfg.seed + count)
    ends = run_chains(method, objective, init, cfg, seeds)
    finals = ends.final_f.tolist()
    rows = zip(seeds, finals, ends.best_f.tolist())
    out = _out_dir(args)
    _write_csv(os.path.join(out, "sweep.csv"), ["seed", "final_f", "best_f"], rows)
    print(f"seeds = {count}")
    print(f"min final f = {_fmt(min(finals))}")
    print(f"median final f = {_fmt(statistics.median(finals))}")
    return EXIT_OK


def cmd_portfolio(args) -> int:
    if args.returns is None:
        raise ValueError("portfolio requires --returns")
    panel = load_returns(args.returns)
    presets = _risk_presets(args.preset, single=False)
    methods = _parse_method_list(args.method, tuple(Method))
    window = DEFAULT_WINDOW if args.window is None else args.window
    variant = "literal" if args.variant is None else args.variant
    cfg = _resolve_cfg(args, DEFAULT_FIT_CONFIG)

    # a bad window, variant or floor raises ValueError (exit 2) before any fit
    reports, failures = compare_methods(
        panel, presets, methods, cfg, window,
        variant=variant, warm_start=not args.no_warm_start,
    )
    out = _out_dir(args)
    rows = []
    for key in [(m.value, p.name) for m in methods for p in presets]:
        method, preset_name = key
        if key in reports:
            report = reports[key]
            rows.append([
                method, preset_name, report.score, report.periods,
                report.variant, report.runtime_seconds,
            ])
            print(f"{method} {preset_name}: score = {_fmt(report.score)}")
            if args.per_period:
                _write_csv(
                    os.path.join(out, f"per_period_{method}_{preset_name}.csv"),
                    ["t", "date", "loss"],
                    (
                        [window + 1 + j, report.dates[j], loss]
                        for j, loss in enumerate(report.per_period_losses)
                    ),
                )
        else:
            rows.append([method, preset_name, "", "", variant, ""])
            print(f"{method} {preset_name}: failed: {failures[key]}",
                  file=sys.stderr)
    _write_csv(
        os.path.join(out, "portfolio_report.csv"),
        ["method", "preset", "score", "periods", "variant", "runtime_seconds"],
        rows,
    )
    return EXIT_RUNTIME if failures else EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

# Every flag a subcommand can declare, with its add_argument keywords. The
# value flags (those without an action) default to None, meaning unset.
_FLAGS: dict[str, dict] = {
    "objective": dict(help="bundled objective id (f1..f6)"),
    "returns": dict(help="returns CSV path (date,asset1,...)"),
    "preset": dict(help="risk preset name (or 'all' for portfolio)"),
    "method": dict(help="update rule; comma list where supported"),
    "init": dict(help="'uniform', 'paper', or comma-separated coordinates"),
    "eps": dict(type=float, help="step size"),
    "beta": dict(type=float, help="inverse temperature"),
    "iters": dict(type=int, help="iteration budget"),
    "seed": dict(type=int, help="RNG seed"),
    "floor": dict(type=float, help="positivity floor"),
    "window": dict(type=int, help="rolling fit window length"),
    "variant": dict(help=f"out-of-sample loss variant {VARIANTS} (default literal)"),
    "samples": dict(type=int, help="sweep width"),
    "out": dict(help="output directory (default: .)"),
    "per-period": dict(action="store_true", help="also write per_period_*.csv"),
    "no-warm-start": dict(action="store_true", help="fit every window from uniform"),
}

_RUN_FLAGS = ("objective", "returns", "preset", "method", "init",
              "eps", "beta", "iters", "seed", "floor", "out")

# subcommand -> (handler, help, the flags it declares besides --config)
_COMMANDS = {
    "optimize": (cmd_optimize, "single run, writes trajectory.csv", _RUN_FLAGS),
    "compare": (
        cmd_compare, "run several methods from one init, writes summary.csv",
        _RUN_FLAGS,
    ),
    "sweep": (
        cmd_sweep, "one method over consecutive seeds, writes sweep.csv",
        _RUN_FLAGS + ("samples",),
    ),
    "portfolio": (
        cmd_portfolio,
        "rolling-window out-of-sample evaluation, writes portfolio_report.csv",
        ("returns", "preset", "method", "eps", "beta", "iters", "seed", "floor",
         "window", "variant", "out", "per-period", "no-warm-start"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplex-langevin",
        description=(
            "Multiplicative-weights and Langevin optimization on products "
            "of probability simplices."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(f"--{flag}", **_FLAGS[flag])
        sub.add_argument("--config", help="config file: JSON object or key=value lines")
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        _merge_config(args)
        return args.handler(args)
    except (ReturnsParseError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except StepFailureError as exc:
        print(f"error: step failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

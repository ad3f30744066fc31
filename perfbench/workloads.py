"""The three benchmark workloads: inputs made from the seed, CLI invocations
and the checks on what each invocation wrote.

Why these workloads (ROADMAP names three real ones; each stresses another
layer, so that an optimisation of one layer has a workload that shows it and
one that should not move):

``f1-compare-cli``
    ``compare --objective f1 --init paper`` with all four methods: the long
    single-chain case on n = 3. Time goes to the per-step Python loop in
    ``optimizers`` and to ``cli``, which writes one 17-digit CSV row per step,
    so CSV and recording costs show here. Running K chains as one array
    (batched chains) is bypassed: there is one chain per method.
``f1-escape-sweep``
    ``sweep --method lmwu`` once per beta of the f1 preset, K consecutive
    seeds each: the escape experiment. Many short chains, so batched chains
    show here. beta = 10 is kept on purpose: on the seed code about one
    chain in ten raises ``StepFailureError`` within its first 1500 steps
    (seed 1 at iteration 355), the sweep then exits 1 without writing
    ``sweep.csv``; with 64 chains all of them pass for fewer than one seed
    in a thousand, so the failure shows on every run.
    The invocation counts as a failed operation so the defect stays
    visible; it does not enter the rates.
    beta = 50 and beta = 100 complete and draw about one noise vector per
    step, the baseline against which the portfolio's resampling shows.
``portfolio-rolling``
    ``portfolio`` on a generated n = 10 panel with all four methods, presets
    ``mv,mvsk,equal`` and the default fit config. Time goes to the panel
    value and gradient in ``objectives`` and to the resample and clamp path
    in ``geometry``: with warm starts the lmwu weights reach a vertex within
    the first windows and from then on most steps use up their 16 resamples
    and clamp (the floor-rule defect). ``mv`` puts the most weight on the
    mean, so it reaches the vertex first; ``mvsk`` adds skew and kurtosis
    terms to the gradient; ``equal`` spreads weight over all five moments and
    is the slowest to collapse. The panel's drifts are spread wide against
    its noise so that every seed ranks the assets the same way and reaches
    the vertex at about the same window: the draw rate, and with it the cost
    per step, is then a property of the method, not of one seed's luck.
"""
from __future__ import annotations

import csv
import datetime
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("f1-compare-cli", "f1-escape-sweep", "portfolio-rolling")

# Listed f1 optimum (0.4049, 0.1969, 0.3981) and its value, fixed here so the
# check does not depend on the program's own table.
F1_OPTIMUM_VALUE = 10.154888554262994
F1_FLOOR_SLACK = 1e-3
F1_ESCAPE_TOL = 1e-2

COMPARE_METHODS = ("lmwu", "linear-mwu", "exp-mwu", "proj-langevin")
COMPARE_ITERS = 20_000

# The f1 preset's inverse temperatures, as listed with the benchmark.
SWEEP_BETAS = (10.0, 50.0, 100.0)
SWEEP_CHAINS = 64
SWEEP_ITERS = 1_500

PANEL_ASSETS = 10
PANEL_WINDOW = 250
PANEL_WINDOWS = 4
PANEL_PRESETS = ("mv", "mvsk", "equal")
PANEL_DRIFT = 1e-2  # drifts spread evenly over [-PANEL_DRIFT, PANEL_DRIFT]
PANEL_SCALE = 5e-3
PANEL_DOF = 4.0

SUM_TOL = 1e-9


@dataclass(frozen=True)
class Operation:
    """One CLI invocation: its argv (the output directory is appended at run
    time), the optimizer steps it completes and which checks apply."""

    label: str
    argv: list[str]
    steps: int
    kind: str

    def command(self, out_dir: str) -> list[str]:
        return self.argv + ["--out", out_dir]


def write_panel(path: str, seed: int) -> int:
    """Student-t returns with per-asset drift, n = PANEL_ASSETS, as a CSV.

    Returns the number of periods T.
    """
    rng = np.random.default_rng([seed, 7])
    periods = PANEL_WINDOW + PANEL_WINDOWS
    drift = np.linspace(-PANEL_DRIFT, PANEL_DRIFT, PANEL_ASSETS)
    noise = rng.standard_t(PANEL_DOF, size=(periods, PANEL_ASSETS))
    returns = np.maximum(drift + PANEL_SCALE * noise, -0.9)
    start = datetime.date(2000, 1, 3)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date," + ",".join(f"a{i:02d}" for i in range(PANEL_ASSETS)) + "\n")
        for t in range(periods):
            day = start + datetime.timedelta(days=t)
            fh.write(day.isoformat() + "," + ",".join(
                format(float(v), ".17g") for v in returns[t]) + "\n")
    return periods


def operations(workload: str, seed: int, panel_path: str | None) -> list[Operation]:
    """The invocations of one cycle; every cycle repeats them exactly."""
    if workload == "f1-compare-cli":
        argv = ["compare", "--objective", "f1", "--init", "paper",
                "--iters", str(COMPARE_ITERS), "--seed", str(seed)]
        return [Operation("compare", argv,
                          COMPARE_ITERS * len(COMPARE_METHODS), "compare")]
    if workload == "f1-escape-sweep":
        first = seed * SWEEP_CHAINS
        return [
            Operation(
                f"beta={beta:g}",
                ["sweep", "--objective", "f1", "--init", "paper",
                 "--method", "lmwu", "--beta", repr(beta),
                 "--samples", str(SWEEP_CHAINS), "--iters", str(SWEEP_ITERS),
                 "--seed", str(first)],
                SWEEP_CHAINS * SWEEP_ITERS, "sweep",
            )
            for beta in SWEEP_BETAS
        ]
    if workload == "portfolio-rolling":
        argv = ["portfolio", "--returns", panel_path,
                "--preset", ",".join(PANEL_PRESETS),
                "--window", str(PANEL_WINDOW), "--seed", str(seed)]
        # each window fit runs DEFAULT_FIT_CONFIG.max_iters steps; imported
        # here because only the worker, after timing the import, calls this
        from simplex_langevin.portfolio import DEFAULT_FIT_CONFIG

        fits = len(COMPARE_METHODS) * len(PANEL_PRESETS) * PANEL_WINDOWS
        steps = fits * DEFAULT_FIT_CONFIG.max_iters
        return [Operation("portfolio", argv, steps, "portfolio")]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class CheckResult:
    def __init__(self):
        self.problems: list[str] = []
        self.escaped = 0
        self.csv_bytes = 0

    def fail(self, message: str) -> None:
        self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.problems


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_trajectory(path: str, iters: int, res: CheckResult) -> float | None:
    """Rows sum to 1 within 1e-9 and are strictly positive; returns the last
    f value."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    name = os.path.basename(path)
    if data.shape[0] != iters + 1:
        res.fail(f"{name}: {data.shape[0]} rows, expected {iters + 1}")
        return None
    points = data[:, 2:-2]
    if not np.isfinite(data[:, :-2]).all():
        res.fail(f"{name}: non-finite cell")
    worst = float(np.abs(points.sum(axis=1) - 1.0).max())
    if worst > SUM_TOL:
        res.fail(f"{name}: a row sums to 1 {worst:+.3e} off")
    if not (points > 0.0).all():
        res.fail(f"{name}: a coordinate is not strictly positive")
    return float(data[-1, 1])


def check_output(op: Operation, out_dir: str) -> CheckResult:
    res = CheckResult()
    try:
        names = sorted(os.listdir(out_dir))
    except OSError as exc:
        res.fail(f"no output directory: {exc}")
        return res
    res.csv_bytes = sum(
        os.path.getsize(os.path.join(out_dir, n)) for n in names if n.endswith(".csv")
    )
    try:
        if op.kind == "compare":
            _check_compare(out_dir, res)
        elif op.kind == "sweep":
            _check_sweep(op, out_dir, res)
        else:
            _check_portfolio(op, out_dir, res)
    except (OSError, ValueError, IndexError) as exc:
        res.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return res


def _check_compare(out_dir: str, res: CheckResult) -> None:
    header, rows = _read_rows(os.path.join(out_dir, "summary.csv"))
    if header != ["method", "final_f", "best_f", "iters"]:
        res.fail(f"summary.csv header {header}")
        return
    if [r[0] for r in rows] != list(COMPARE_METHODS):
        res.fail(f"summary.csv methods {[r[0] for r in rows]}")
        return
    for method, final_f, best_f, iters in rows:
        if int(iters) != COMPARE_ITERS:
            res.fail(f"{method}: {iters} iters")
        if not (_finite(final_f) and _finite(best_f)):
            res.fail(f"{method}: non-finite summary")
            continue
        if float(best_f) > float(final_f):
            res.fail(f"{method}: best_f above final_f")
        _check_f1_final(method, float(final_f), res)
        last_f = _check_trajectory(
            os.path.join(out_dir, f"trajectory_{method}.csv"), COMPARE_ITERS, res
        )
        if last_f is not None and last_f != float(final_f):
            res.fail(f"{method}: summary final_f {final_f} != trajectory {last_f}")


def _check_f1_final(label: str, final_f: float, res: CheckResult) -> None:
    if final_f < F1_OPTIMUM_VALUE - F1_FLOOR_SLACK:
        res.fail(f"{label}: final_f {final_f!r} below the f1 optimum")
    if abs(final_f - F1_OPTIMUM_VALUE) < F1_ESCAPE_TOL:
        res.escaped += 1


def _check_sweep(op: Operation, out_dir: str, res: CheckResult) -> None:
    header, rows = _read_rows(os.path.join(out_dir, "sweep.csv"))
    if header != ["seed", "final_f", "best_f"]:
        res.fail(f"sweep.csv header {header}")
        return
    first = int(op.argv[op.argv.index("--seed") + 1])
    if [int(r[0]) for r in rows] != list(range(first, first + SWEEP_CHAINS)):
        res.fail("sweep.csv seeds are not the requested consecutive seeds")
        return
    for seed, final_f, best_f in rows:
        if not (_finite(final_f) and _finite(best_f)):
            res.fail(f"seed {seed}: non-finite row")
            continue
        if float(best_f) > float(final_f):
            res.fail(f"seed {seed}: best_f above final_f")
        _check_f1_final(f"seed {seed}", float(final_f), res)


def _check_portfolio(op: Operation, out_dir: str, res: CheckResult) -> None:
    header, rows = _read_rows(os.path.join(out_dir, "portfolio_report.csv"))
    if header != ["method", "preset", "score", "periods", "variant",
                  "runtime_seconds"]:
        res.fail(f"portfolio_report.csv header {header}")
        return
    # runtime_seconds is wall-clock, so its width varies between runs; it is
    # left out of the byte count, which must repeat exactly
    res.csv_bytes -= sum(len(r[5]) for r in rows if len(r) > 5)
    cells = {(r[0], r[1]): r for r in rows}
    for method in COMPARE_METHODS:
        for preset in PANEL_PRESETS:
            row = cells.get((method, preset))
            if row is None:
                res.fail(f"{method} {preset}: missing cell")
            elif not _finite(row[2]):
                res.fail(f"{method} {preset}: score {row[2]!r}")
            elif row[3] != str(PANEL_WINDOWS):
                res.fail(f"{method} {preset}: periods {row[3]}, "
                         f"expected {PANEL_WINDOWS}")
    if len(rows) != len(cells) or len(cells) != len(COMPARE_METHODS) * len(PANEL_PRESETS):
        res.fail(f"portfolio_report.csv has {len(rows)} rows")

"""Returns ingestion and rolling-window out-of-sample portfolio evaluation.

A returns CSV (``date,asset1,...,assetn``) is loaded into a
:class:`ReturnPanel`; :func:`rolling_window_evaluate` slides a fitting window
over it, fits portfolio weights per window by minimizing the λ-weighted
moment loss with any supported optimizer, and scores each fit on the
following period. :func:`compare_methods` runs the full methods × presets
grid, fitting every cell of a window in one lockstep stack.

Out-of-sample loss comes in two labeled variants (see ``VARIANTS``):
``literal`` applies the moment loss to the single next-period return, which
collapses to −λ₁·(ŵ·r_t) because central moments of one observation vanish;
``window-moments`` keeps that realized mean term but adds the higher-moment
terms evaluated on the fitting window.
"""
from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .geometry import barycenter, lift_to_interior
from .objectives import PortfolioLoss, portfolio_moments
from .objectives import _check_lambdas, _RowGradients
from .optimizers import LmwuConfig, Method, StepFailureError, _final_points
# no fit calls it; perfbench/tracing.py wraps it in this namespace
from .optimizers import run_optimizer  # noqa: F401

__all__ = [
    "DEFAULT_WINDOW",
    "DEFAULT_FIT_CONFIG",
    "VARIANTS",
    "RISK_PRESETS",
    "ReturnPanel",
    "ReturnsParseError",
    "RiskPreset",
    "EvaluationReport",
    "load_returns",
    "rolling_window_evaluate",
    "compare_methods",
]

DEFAULT_WINDOW = 1000

#: Fit budget used when the caller does not supply a config. The large step
#: size with a strong inverse temperature and a loose floor keeps the noisy
#: method stable even when the optimum sits on the simplex boundary.
DEFAULT_FIT_CONFIG = LmwuConfig(
    eps=1.0, beta=1e8, max_iters=600, seed=0, floor=1e-6
)

VARIANTS = ("literal", "window-moments")


class ReturnsParseError(ValueError):
    """Malformed returns CSV; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class ReturnPanel:
    """T periods of simple returns for n assets, in file order."""

    dates: tuple[str, ...]
    asset_names: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", r)
        if r.ndim != 2:
            raise ValueError("returns must be a T x n matrix")
        if r.shape != (len(self.dates), len(self.asset_names)):
            raise ValueError(
                f"returns shape {r.shape} does not match {len(self.dates)} "
                f"dates x {len(self.asset_names)} assets"
            )
        if not np.isfinite(r).all():
            raise ValueError("returns must be finite")
        if r.size and r.min() <= -1.0:
            raise ValueError("simple returns must be > -1")
        if len(set(self.dates)) != len(self.dates):
            raise ValueError("dates must be unique")

    @property
    def n_periods(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.asset_names)


@dataclass(frozen=True)
class RiskPreset:
    """Named nonnegative moment weights summing to one."""

    name: str
    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        lam = tuple(float(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lam)
        _check_lambdas(np.array(lam))


RISK_PRESETS: Mapping[str, RiskPreset] = {
    p.name: p
    for p in (
        RiskPreset("increasing", tuple(np.arange(1.0, 6.0) / 15.0)),
        RiskPreset("degenerate", tuple(np.arange(5.0, 0.0, -1.0) / 15.0)),
        RiskPreset("mv", (1.0 / 2.0, 1.0 / 2.0, 0.0, 0.0, 0.0)),
        RiskPreset("mvs", (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0)),
        RiskPreset("mvsk", (1.0 / 4.0, 1.0 / 4.0, 1.0 / 4.0, 1.0 / 4.0, 0.0)),
        RiskPreset("equal", (1.0 / 5.0,) * 5),
    )
}


@dataclass(frozen=True)
class EvaluationReport:
    """One method x preset rolling evaluation.

    ``dates`` are the scored periods (panel rows ``window`` .. T−1), and
    ``score`` is the arithmetic mean of ``per_period_losses``.
    ``runtime_seconds`` is the wall time of the lockstep stacks that fitted
    the cell with every other cell of its grid, divided by the grid's cells.
    """

    method: str
    preset: str
    window: int
    variant: str
    dates: tuple[str, ...]
    per_period_losses: np.ndarray
    runtime_seconds: float

    @property
    def periods(self) -> int:
        return len(self.dates)

    @property
    def score(self) -> float:
        return float(self.per_period_losses.mean())


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def load_returns(source: str | os.PathLike | IO) -> ReturnPanel:
    """Parse a returns CSV into a :class:`ReturnPanel`.

    Accepts a path or an open text/byte stream. Expected layout: header
    ``date,<asset1>,...,<assetn>`` (a leading UTF-8 byte-order mark is
    ignored) then one row per period with dot-decimal returns. Rows keep
    file order.

    Raises:
        OSError: the path cannot be read.
        ReturnsParseError: bytes that are not UTF-8, empty input, malformed
            header, wrong cell count, non-numeric cell, non-finite or <= -1
            return, or duplicate date; the message names the 1-based line.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
    if isinstance(data, str):
        return _parse_returns(io.StringIO(data, newline=""))
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ReturnsParseError(
            "not UTF-8 text", line=data.count(b"\n", 0, exc.start) + 1
        ) from None
    # decoded in chunks: a StringIO of the whole file holds 4 bytes a character
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    return _parse_returns(text)


def _parse_returns(fh: Iterable[str]) -> ReturnPanel:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ReturnsParseError("empty input", line=1) from None
    header = [c.strip() for c in header]
    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    if len(header) < 2 or header[0].removeprefix("\ufeff").lower() != "date":
        raise ReturnsParseError(
            "header must be 'date,<asset1>,...'", line=1
        )
    assets = tuple(header[1:])
    if any(not a for a in assets):
        raise ReturnsParseError("asset names must be nonempty", line=1)

    dates: list[str] = []
    seen: set[str] = set()
    rows: list[list[float]] = []
    for raw in reader:
        lineno = reader.line_num  # a quoted cell may span physical lines
        if not raw or all(not c.strip() for c in raw):
            continue  # blank line
        if len(raw) != len(header):
            raise ReturnsParseError(
                f"expected {len(header)} cells, got {len(raw)}", line=lineno
            )
        date = raw[0].strip()
        if not date:
            raise ReturnsParseError("empty date", line=lineno)
        if date in seen:
            raise ReturnsParseError(f"duplicate date {date!r}", line=lineno)
        seen.add(date)
        vals = []
        for cell in raw[1:]:
            try:
                v = float(cell)
            except ValueError:
                raise ReturnsParseError(
                    f"non-numeric return {cell.strip()!r}", line=lineno
                ) from None
            if not math.isfinite(v):
                raise ReturnsParseError(
                    f"non-finite return {cell.strip()!r}", line=lineno
                )
            if v <= -1.0:
                raise ReturnsParseError(
                    f"return {v!r} is <= -1", line=lineno
                )
            vals.append(v)
        dates.append(date)
        rows.append(vals)
    if not rows:
        raise ReturnsParseError("no data rows", line=2)
    return ReturnPanel(tuple(dates), assets, np.array(rows, dtype=float))


# ---------------------------------------------------------------------------
# rolling evaluation
# ---------------------------------------------------------------------------

def _child_seed(base_seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([base_seed, *key]).generate_state(1)[0])


def _out_of_sample_loss(
    loss_window: PortfolioLoss,
    w: np.ndarray,
    next_return: np.ndarray,
    variant: str,
) -> float:
    coef = loss_window._coef
    out = coef[0] * float(w @ next_return)
    if variant == "window-moments" and coef.size > 1:
        m = portfolio_moments(loss_window, w)
        for k in range(2, coef.size + 1):
            out += coef[k - 1] * m[k - 1]
    return out


def rolling_window_evaluate(
    panel: ReturnPanel,
    preset: RiskPreset,
    method: Method | str,
    cfg: LmwuConfig = DEFAULT_FIT_CONFIG,
    window: int = DEFAULT_WINDOW,
    *,
    variant: str = "literal",
    warm_start: bool = True,
) -> EvaluationReport:
    """Slide a fitting window over ``panel`` and score out of sample.

    For each period t = window+1 .. T (1-based): fit weights ŵ on the
    preceding ``window`` rows by minimizing the preset's moment loss with
    ``method``, then record the out-of-sample loss for row t under
    ``variant``. Each window fit draws its noise from a seed derived from
    ``cfg.seed`` and the window index, so reports are reproducible and the
    fit for period t never reads row t or later. The score is the mean
    per-period loss. It is the one-cell case of :func:`compare_methods`.

    Args:
        warm_start: start each fit from the previous window's weights
            (lifted to the floor) instead of the uniform portfolio.

    Raises:
        ValueError: window out of range (needs 2 <= window < T), unknown
            variant, or ``cfg.floor`` too large for the panel's dimension.
        StepFailureError: an optimizer step failed; its ``period`` is the
            1-based panel row being scored.
    """
    (cell,) = _fit_cells(panel, cfg, [(Method(method), preset, cfg.seed)],
                         window, variant, warm_start)
    if isinstance(cell, StepFailureError):
        raise cell
    return cell


def _fit_cells(panel, cfg, cells, window, variant, warm_start) -> list:
    """Each ``(method, preset, seed)`` cell's report under ``cfg`` with the
    cell's seed, or its ``StepFailureError``, located by period. Window by
    window every cell's fit steps in one lockstep stack, a lone cell's too:
    one loss per preset on the window's rows serves every cell of that
    preset, and each step makes one gradient call over the stack; a failed
    cell leaves it. ``runtime_seconds`` is the stack's wall time divided by
    all its cells."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r} (expected {VARIANTS})")
    t_total = panel.n_periods
    if window < 2:
        raise ValueError("window must be >= 2")
    if window >= t_total:
        raise ValueError(
            f"window {window} must be smaller than the panel length {t_total}"
        )

    inits = [barycenter(panel.n_assets)] * len(cells)
    losses = [np.empty(t_total - window) for _ in cells]
    ends = [None] * len(cells)
    started = time.perf_counter()
    for j in range(t_total - window):
        live = [c for c, end in enumerate(ends) if end is None]
        if not live:
            break
        rows = panel.returns[j : j + window]
        per_preset = {p: PortfolioLoss(rows, p.lambdas)
                      for p in dict.fromkeys(cells[c][1] for c in live)}
        loss_of = {c: per_preset[cells[c][1]] for c in live}
        # the stack takes its rows in descending top order
        live.sort(key=lambda c: -loss_of[c]._top)
        chains = [(method, lift_to_interior(inits[c], floor=cfg.floor),
                   replace(cfg, seed=_child_seed(seed, j)))
                  for c in live for method, _, seed in [cells[c]]]
        gradients = partial(_RowGradients, [loss_of[c] for c in live])
        for c, w_hat in zip(live, _final_points(chains, cfg.max_iters, gradients)):
            if isinstance(w_hat, StepFailureError):
                w_hat.period = window + j + 1
                ends[c] = w_hat
                continue
            losses[c][j] = _out_of_sample_loss(
                loss_of[c], w_hat, panel.returns[window + j], variant
            )
            if warm_start:
                inits[c] = w_hat
    elapsed = time.perf_counter() - started
    return [end or EvaluationReport(method.value, preset.name, window, variant,
                                    panel.dates[window:], loss,
                                    elapsed / len(cells))
            for end, (method, preset, _), loss in zip(ends, cells, losses)]


def compare_methods(
    panel: ReturnPanel,
    presets: Sequence[RiskPreset],
    methods: Sequence[Method | str],
    cfg: LmwuConfig = DEFAULT_FIT_CONFIG,
    window: int = DEFAULT_WINDOW,
    *,
    variant: str = "literal",
    warm_start: bool = True,
) -> tuple[dict[tuple[str, str], EvaluationReport],
           dict[tuple[str, str], StepFailureError]]:
    """Evaluate every method x preset cell; returns ``(reports, failures)``,
    both keyed by ``(method value, preset name)``, method by method.

    Cells are independent: each gets a seed derived from ``cfg.seed``, the
    method and the preset name, so its report does not depend on which
    other cells are in the grid; a cell whose fit fails is recorded in
    ``failures`` (its ``StepFailureError``, located by period) instead of
    aborting the rest of the grid. Every cell fits in one lockstep stack per
    window; each window's fit ends where ``run_optimizer`` on that window's
    loss ends, bit for bit, so each cell equals its one-cell grid.

    Raises:
        ValueError: unknown method, window out of range, unknown variant or
            floor too large, before any fit.
    """
    methods = [Method(m) for m in methods]
    # seeded by the names, not by grid position, so that a cell's fits do not
    # depend on which other cells were requested; no method value holds "/"
    cells = [(m, p, _child_seed(cfg.seed, *f"{m.value}/{p.name}".encode()))
             for m in methods for p in presets]
    fitted = _fit_cells(panel, cfg, cells, window, variant, warm_start)
    results = {(m.value, p.name): cell for (m, p, _), cell in zip(cells, fitted)}
    reports, failures = {}, {}
    for key, cell in results.items():
        out = failures if isinstance(cell, StepFailureError) else reports
        out[key] = cell
    return reports, failures

"""Unit tests for returns ingestion and rolling-window evaluation."""
import importlib
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplex_langevin.optimizers import LmwuConfig, Method, StepFailureError
from simplex_langevin.portfolio import (
    DEFAULT_FIT_CONFIG,
    RISK_PRESETS,
    ReturnPanel,
    ReturnsParseError,
    RiskPreset,
    compare_methods,
    load_returns,
    rolling_window_evaluate,
)

GOOD_CSV = """date,alpha,beta
2021-01-01,0.01,0.02
2021-01-02,-0.005,0.0
2021-01-03,0.003,-0.001
"""


def panel_from(text):
    return load_returns(io.StringIO(text))


def constant_panel(periods, means):
    """All rows identical: zero variance inside every window."""
    means = np.asarray(means, dtype=float)
    dates = tuple(f"d{t:03d}" for t in range(periods))
    names = tuple(f"a{i}" for i in range(means.size))
    return ReturnPanel(dates, names, np.tile(means, (periods, 1)))


def wiggly_panel(periods, n_assets, seed=0):
    rng = np.random.default_rng(seed)
    rets = rng.normal(0.002, 0.01, size=(periods, n_assets))
    dates = tuple(f"d{t:03d}" for t in range(periods))
    names = tuple(f"a{i}" for i in range(n_assets))
    return ReturnPanel(dates, names, rets)


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MEAN_ONLY = RiskPreset(name="mean-only", lambdas=(1.0, 0.0, 0.0, 0.0, 0.0))


class TestLoadReturns:
    def test_parses_stream(self):
        panel = panel_from(GOOD_CSV)
        assert panel.dates == ("2021-01-01", "2021-01-02", "2021-01-03")
        assert panel.asset_names == ("alpha", "beta")
        assert_allclose(
            panel.returns,
            [[0.01, 0.02], [-0.005, 0.0], [0.003, -0.001]],
            rtol=0, atol=0,
        )
        assert panel.n_periods == 3
        assert panel.n_assets == 2

    def test_parses_path(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text(GOOD_CSV)
        panel = load_returns(p)
        assert panel.n_periods == 3

    def test_parses_bytes_stream(self):
        panel = load_returns(io.BytesIO(GOOD_CSV.encode()))
        assert panel.asset_names == ("alpha", "beta")

    def test_utf8_byte_order_mark_accepted(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        p = tmp_path / "r.csv"
        p.write_text(GOOD_CSV, encoding="utf-8-sig")
        streams = (io.BytesIO(p.read_bytes()), io.StringIO("\ufeff" + GOOD_CSV))
        for source in (p, *streams):
            panel = load_returns(source)
            assert panel.asset_names == ("alpha", "beta")
            assert panel.n_periods == 3

    def test_non_utf8_bytes_name_their_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_bytes(GOOD_CSV.replace("2021-01-02", "caf\xe9").encode("latin-1"))
        for source in (p, io.BytesIO(p.read_bytes())):
            with pytest.raises(ReturnsParseError,
                               match="^line 3: not UTF-8 text$") as info:
                load_returns(source)
            assert info.value.line == 3

    def test_blank_lines_skipped(self):
        panel = panel_from(
            "date,a\n2021-01-01,0.01\n\n2021-01-02,0.02\n\n"
        )
        assert panel.n_periods == 2

    def test_header_case_insensitive(self):
        assert panel_from("Date,a\nd1,0.0\n").asset_names == ("a",)

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("", 1, "empty input"),
            ("price,a\nd1,0.1\n", 1, "header"),
            ("date\nd1\n", 1, "header"),
            ("date,a,\nd1,0.1,0.2\n", 1, "nonempty"),
            ("date,a,b\nd1,0.1\n", 2, "cells"),
            ("date,a\nd1,0.1\n,0.2\n", 3, "empty date"),
            ("date,a\nd1,0.1\nd1,0.2\n", 3, "duplicate"),
            ("date,a\nd1,oops\n", 2, "non-numeric"),
            ("date,a\nd1,inf\n", 2, "non-finite"),
            ("date,a\nd1,nan\n", 2, "non-finite"),
            ("date,a\nd1,-1.5\n", 2, "-1"),
            ("date,a\n", 2, "no data rows"),
            # a quoted date spanning lines 2-3: the bad cell is on line 4
            ('date,a\n"d\n1",0.1\nd2,x\n', 4, "non-numeric"),
        ],
    )
    def test_errors_name_the_line(self, text, line, fragment):
        with pytest.raises(ReturnsParseError) as info:
            panel_from(text)
        assert info.value.line == line
        assert fragment in str(info.value)
        assert str(info.value).startswith(f"line {line}:")

    def test_file_is_parsed_without_a_whole_text_copy(self, tmp_path,
                                                      monkeypatch):
        # the benchmark's 59 KB panel; a StringIO of the whole file alone
        # holds 4 bytes per character
        monkeypatch.syspath_prepend(REPO)
        workloads = importlib.import_module("perfbench.workloads")
        path = tmp_path / "panel.csv"
        workloads.write_panel(str(path), seed=1)
        load_returns(path)  # imports and caches settle outside the trace
        tracemalloc.start()
        try:
            panel = load_returns(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel.n_assets == 10
        assert peak < 6 * path.stat().st_size

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            panel_from("")


class TestReturnPanelValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ReturnPanel(("d1",), ("a",), np.array([[np.inf]]))

    def test_rejects_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            ReturnPanel(("d1",), ("a",), np.array([[-1.0]]))

    def test_rejects_duplicate_dates(self):
        with pytest.raises(ValueError):
            ReturnPanel(("d1", "d1"), ("a",), np.zeros((2, 1)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ReturnPanel(("d1", "d2"), ("a",), np.zeros((2, 2)))


class TestRiskPresets:
    def test_exact_values(self):
        assert RISK_PRESETS["increasing"].lambdas == tuple(
            np.arange(1.0, 6.0) / 15.0
        )
        assert RISK_PRESETS["degenerate"].lambdas == tuple(
            np.arange(5.0, 0.0, -1.0) / 15.0
        )
        assert RISK_PRESETS["mv"].lambdas == (0.5, 0.5, 0.0, 0.0, 0.0)
        third = 1.0 / 3.0
        assert RISK_PRESETS["mvs"].lambdas == (third, third, third, 0.0, 0.0)
        assert RISK_PRESETS["mvsk"].lambdas == (0.25, 0.25, 0.25, 0.25, 0.0)
        assert RISK_PRESETS["equal"].lambdas == (0.2,) * 5

    def test_all_normalized(self):
        for name, preset in RISK_PRESETS.items():
            assert preset.name == name
            assert abs(math.fsum(preset.lambdas) - 1.0) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            RiskPreset(name="bad", lambdas=(0.5, -0.5, 1.0))
        with pytest.raises(ValueError):
            RiskPreset(name="bad", lambdas=(0.5, 0.4))


class TestRollingWindow:
    def test_period_count_and_dates(self):
        panel = wiggly_panel(5, 2)
        rep = rolling_window_evaluate(
            panel, MEAN_ONLY, Method.LINEAR_MWU,
            LmwuConfig(eps=0.5, beta=1.0, max_iters=50), window=3,
        )
        assert rep.periods == 2
        assert rep.per_period_losses.shape == (2,)
        assert rep.dates == panel.dates[3:]
        assert rep.window == 3
        assert rep.variant == "literal"

    def test_score_is_mean_of_losses(self):
        panel = wiggly_panel(10, 3)
        rep = rolling_window_evaluate(
            panel, MEAN_ONLY, "lmwu",
            LmwuConfig(eps=1.0, beta=1e8, max_iters=100, floor=1e-6),
            window=5,
        )
        assert rep.score == float(rep.per_period_losses.mean())

    def test_dominant_asset_recovered(self):
        # asset 0 has a much higher constant mean: a mean-only fit should
        # throw nearly all weight on it, so every literal loss is about
        # the negated dominant return
        panel = constant_panel(8, [0.02, -0.005, 0.001])
        rep = rolling_window_evaluate(
            panel, MEAN_ONLY, Method.LINEAR_MWU,
            LmwuConfig(eps=1.0, beta=1.0, max_iters=600, floor=1e-6),
            window=4,
        )
        assert_allclose(rep.per_period_losses, -0.02, rtol=0, atol=1e-3)

    def test_deterministic_given_config(self):
        panel = wiggly_panel(9, 3, seed=5)
        cfg = LmwuConfig(eps=1.0, beta=1e6, max_iters=80, floor=1e-6, seed=3)
        a = rolling_window_evaluate(panel, MEAN_ONLY, "lmwu", cfg, window=4)
        b = rolling_window_evaluate(panel, MEAN_ONLY, "lmwu", cfg, window=4)
        assert np.array_equal(a.per_period_losses, b.per_period_losses)
        assert a.score == b.score

    def test_seed_changes_stochastic_fit(self):
        panel = wiggly_panel(9, 3, seed=5)
        base = LmwuConfig(eps=1.0, beta=1e8, max_iters=80, floor=1e-6, seed=0)
        other = LmwuConfig(eps=1.0, beta=1e8, max_iters=80, floor=1e-6, seed=1)
        a = rolling_window_evaluate(panel, MEAN_ONLY, "lmwu", base, window=4)
        b = rolling_window_evaluate(panel, MEAN_ONLY, "lmwu", other, window=4)
        assert not np.array_equal(a.per_period_losses, b.per_period_losses)

    def test_no_look_ahead(self):
        # perturbing the final row only changes the final realized loss:
        # every fit reads rows strictly before its scored period
        base = wiggly_panel(8, 3, seed=11)
        bumped_rows = base.returns.copy()
        bumped_rows[-1] += 0.05
        bumped = ReturnPanel(base.dates, base.asset_names, bumped_rows)
        cfg = LmwuConfig(eps=1.0, beta=1e4, max_iters=60, floor=1e-6, seed=7)
        a = rolling_window_evaluate(base, MEAN_ONLY, "lmwu", cfg, window=4)
        b = rolling_window_evaluate(bumped, MEAN_ONLY, "lmwu", cfg, window=4)
        assert np.array_equal(a.per_period_losses[:-1], b.per_period_losses[:-1])
        assert a.per_period_losses[-1] != b.per_period_losses[-1]

    def test_warm_start_toggle_changes_fits(self):
        panel = wiggly_panel(9, 3, seed=2)
        cfg = LmwuConfig(eps=1.0, beta=1e8, max_iters=40, floor=1e-6, seed=0)
        warm = rolling_window_evaluate(
            panel, MEAN_ONLY, "lmwu", cfg, window=4, warm_start=True
        )
        cold = rolling_window_evaluate(
            panel, MEAN_ONLY, "lmwu", cfg, window=4, warm_start=False
        )
        # the first fit starts uniform either way; later fits differ
        assert warm.per_period_losses[0] == cold.per_period_losses[0]
        assert not np.array_equal(warm.per_period_losses, cold.per_period_losses)

    def test_window_bounds(self):
        panel = wiggly_panel(5, 2)
        with pytest.raises(ValueError):
            rolling_window_evaluate(panel, MEAN_ONLY, "linear-mwu",
                                    DEFAULT_FIT_CONFIG, window=5)
        with pytest.raises(ValueError):
            rolling_window_evaluate(panel, MEAN_ONLY, "linear-mwu",
                                    DEFAULT_FIT_CONFIG, window=1)

    def test_unknown_variant_and_method(self):
        panel = wiggly_panel(5, 2)
        with pytest.raises(ValueError):
            rolling_window_evaluate(panel, MEAN_ONLY, "linear-mwu",
                                    DEFAULT_FIT_CONFIG, window=3,
                                    variant="surprise")
        with pytest.raises(ValueError):
            rolling_window_evaluate(panel, MEAN_ONLY, "steepest-descent",
                                    DEFAULT_FIT_CONFIG, window=3)

    def test_fit_failure_carries_period(self):
        # the assets lose half and 40% each period: the gradient −r̄ makes
        # each base term x(1 − εg) negative at ε = 10, far below what the
        # drift, ε/β = 1e-7, and the noise, sd 5e-4, can lift
        panel = constant_panel(6, [-0.5, -0.4])
        bad = LmwuConfig(eps=10.0, beta=1e8, max_iters=5, seed=0)
        with pytest.raises(StepFailureError) as info:
            rolling_window_evaluate(panel, MEAN_ONLY, "lmwu", bad, window=3)
        assert (info.value.period, info.value.iteration) == (4, 1)
        assert str(info.value).endswith("(period 4, iteration 1)")


class TestVariants:
    def test_mean_only_variants_coincide(self):
        # with no higher-moment weight the window terms add nothing
        panel = wiggly_panel(8, 3, seed=4)
        cfg = LmwuConfig(eps=1.0, beta=1e6, max_iters=60, floor=1e-6, seed=0)
        lit = rolling_window_evaluate(panel, MEAN_ONLY, "lmwu", cfg, window=4,
                                      variant="literal")
        wm = rolling_window_evaluate(panel, MEAN_ONLY, "lmwu", cfg, window=4,
                                     variant="window-moments")
        assert np.array_equal(lit.per_period_losses, wm.per_period_losses)

    def test_constant_window_variants_coincide(self):
        # zero variance inside every window: all central moments vanish
        panel = constant_panel(7, [0.01, 0.002])
        cfg = LmwuConfig(eps=0.5, beta=1.0, max_iters=60)
        lit = rolling_window_evaluate(panel, RISK_PRESETS["equal"],
                                      "linear-mwu", cfg, window=3,
                                      variant="literal")
        wm = rolling_window_evaluate(panel, RISK_PRESETS["equal"],
                                     "linear-mwu", cfg, window=3,
                                     variant="window-moments")
        assert np.array_equal(lit.per_period_losses, wm.per_period_losses)

    def test_variance_weight_separates_variants(self):
        panel = wiggly_panel(8, 3, seed=9)
        cfg = LmwuConfig(eps=0.5, beta=1.0, max_iters=60)
        lit = rolling_window_evaluate(panel, RISK_PRESETS["mv"],
                                      "linear-mwu", cfg, window=4,
                                      variant="literal")
        wm = rolling_window_evaluate(panel, RISK_PRESETS["mv"],
                                     "linear-mwu", cfg, window=4,
                                     variant="window-moments")
        assert not np.array_equal(lit.per_period_losses, wm.per_period_losses)
        # identical fits, so the gap is exactly the weighted window variance,
        # which is positive for every period
        assert (wm.per_period_losses > lit.per_period_losses).all()


class TestCompareMethods:
    def test_full_grid(self):
        panel = wiggly_panel(8, 2, seed=3)
        cfg = LmwuConfig(eps=0.5, beta=1e6, max_iters=40, floor=1e-6, seed=0)
        reports, failures = compare_methods(
            panel, [MEAN_ONLY, RISK_PRESETS["mv"]],
            ["linear-mwu", Method.LMWU], cfg, window=4,
        )
        assert not failures
        # keyed by (method value, preset name), in grid order
        assert list(reports) == [
            ("linear-mwu", "mean-only"), ("linear-mwu", "mv"),
            ("lmwu", "mean-only"), ("lmwu", "mv"),
        ]
        for (method, preset), report in reports.items():
            assert (report.method, report.preset) == (method, preset)

    def test_failing_cell_is_recorded_not_fatal(self):
        # the update denominator 1 − ε·Σ x g is 0.4 here, give or take the
        # drift, ε/β = 1.2e-7, and the noise, sd 5e-4: linear-mwu needs it
        # positive, lmwu above its floor, 0.45
        panel = constant_panel(8, [-0.05, -0.05])
        bad = LmwuConfig(eps=12.0, beta=1e8, max_iters=5, floor=0.45, seed=0)
        reports, failures = compare_methods(
            panel, [MEAN_ONLY], ["linear-mwu", "lmwu"], bad, window=4,
        )
        assert list(reports) == [("linear-mwu", "mean-only")]
        assert list(failures) == [("lmwu", "mean-only")]
        assert isinstance(failures[("lmwu", "mean-only")], StepFailureError)

    @pytest.mark.parametrize("window, variant", [(8, "literal"), (4, "bogus")])
    def test_bad_window_or_variant_raises_before_any_fit(
        self, window, variant, monkeypatch
    ):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        # the lockstep loop that runs every window's fits
        monkeypatch.setattr("simplex_langevin.portfolio._final_points", no_fit)
        panel = wiggly_panel(8, 2, seed=3)
        with pytest.raises(ValueError):
            compare_methods(panel, [MEAN_ONLY], ["linear-mwu", "lmwu"],
                            DEFAULT_FIT_CONFIG, window, variant=variant)

    def test_cells_are_seeded_independently(self):
        panel = wiggly_panel(8, 2, seed=3)
        cfg = LmwuConfig(eps=1.0, beta=1e8, max_iters=40, floor=1e-6, seed=0)
        reports, _ = compare_methods(panel, [MEAN_ONLY], ["lmwu"], cfg, window=4)
        solo = rolling_window_evaluate(panel, MEAN_ONLY, "lmwu", cfg, window=4)
        # the cell uses a seed derived from cfg.seed, not cfg.seed itself
        cell = reports[("lmwu", "mean-only")]
        assert not np.array_equal(cell.per_period_losses,
                                  solo.per_period_losses)

    def test_cell_does_not_depend_on_the_grid(self):
        panel = wiggly_panel(8, 2, seed=3)
        cfg = LmwuConfig(eps=1.0, beta=1e8, max_iters=40, floor=1e-6, seed=2)
        presets = [MEAN_ONLY, RISK_PRESETS["equal"], RISK_PRESETS["mv"]]
        methods = ["linear-mwu", "proj-langevin", "lmwu"]
        grid, _ = compare_methods(panel, presets, methods, cfg, window=4)
        for method in methods:
            for preset in presets:
                alone, _ = compare_methods(panel, [preset], [method], cfg,
                                           window=4)
                key = (method, preset.name)
                assert np.array_equal(alone[key].per_period_losses,
                                      grid[key].per_period_losses)
                assert alone[key].score == grid[key].score

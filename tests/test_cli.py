"""Command-line interface tests: exit codes, CSV outputs, precedence."""
import csv
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import simplex_langevin
from simplex_langevin import cli
from simplex_langevin.cli import ENV_SEED, PAPER_PRESETS, main
from simplex_langevin.objectives import test_function as benchmark
from simplex_langevin.optimizers import (
    LmwuConfig,
    StepFailureError,
    Trajectory,
    run_optimizer,
)

RETURNS_CSV = """date,a,b
2021-01-01,0.02,0.001
2021-01-02,0.018,-0.002
2021-01-03,0.022,0.003
2021-01-04,0.019,0.0
2021-01-05,0.021,-0.001
2021-01-06,0.02,0.002
"""


# 12 periods of 3 assets with one return of 1e80: the centred series' fourth
# power overflows, and the equal preset's moments are inf or nan
OVERFLOW_CSV = "date,a,b,c\n" + "".join(
    f"d{t},{0.004 * (t % 5) - 0.008!r},"
    f"{1e80 if t == 5 else 0.003 * (t % 4) - 0.004!r},{0.002 * (t % 3)!r}\n"
    for t in range(12))


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# stands for the path of the ``returns_file`` fixture in parametrized argv
RETURNS = "<returns>"


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def without_runtime(path):
    """The CSV rows without the wall-clock ``runtime_seconds`` column."""
    header, rows = read_csv(path)
    keep = [i for i, h in enumerate(header) if h != "runtime_seconds"]
    return [[row[i] for i in keep] for row in [header] + rows]


# the value flags of one run per subcommand, as typed JSON values
CONFIG_RUNS = {
    "optimize": {"objective": "f1", "method": "lmwu", "init": "paper",
                 "eps": 1e-3, "beta": 50.0, "iters": 30, "seed": 3,
                 "floor": 1e-9},
    "compare": {"objective": "f2", "method": "lmwu,exp-mwu",
                "init": "0.2,0.3,0.5", "eps": 1e-3, "iters": 20, "seed": 1},
    "sweep": {"objective": "f3", "method": "proj-langevin", "beta": 2000,
              "iters": 20, "samples": 3, "seed": 2},
    "portfolio": {"returns": RETURNS, "preset": "mv,equal",
                  "method": "linear-mwu,lmwu", "window": 3,
                  "variant": "window-moments", "eps": 0.5, "beta": 1e8,
                  "iters": 30, "floor": 1e-6, "seed": 4},
}


@pytest.fixture()
def returns_file(tmp_path):
    p = tmp_path / "returns.csv"
    p.write_text(RETURNS_CSV)
    return str(p)


@pytest.fixture()
def bench_run_dir(tmp_path, monkeypatch):
    """An empty working directory next to the benchmark's panel
    (``../panel.csv``), as the byte battery runs its invocations."""
    monkeypatch.syspath_prepend(REPO)
    workloads = importlib.import_module("perfbench.workloads")
    workloads.write_panel(str(tmp_path / "panel.csv"), seed=1)
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    return tmp_path / "run"


class TestOptimize:
    def test_writes_trajectory(self, tmp_path, capsys):
        code = main([
            "optimize", "--objective", "f1", "--iters", "5",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["iter", "f", "x_1", "x_2", "x_3",
                          "clamped", "resampled"]
        assert len(rows) == 6
        assert rows[0][0] == "0"
        assert rows[-1][0] == "5"
        assert "final f" in capsys.readouterr().out

    def test_zero_iters_keeps_only_init(self, tmp_path):
        code = main([
            "optimize", "--objective", "f2", "--iters", "0",
            "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 1
        coords = [float(c) for c in rows[0][2:5]]
        assert coords == pytest.approx([1 / 3] * 3, abs=0)

    def test_paper_init(self, tmp_path):
        code = main([
            "optimize", "--objective", "f1", "--init", "paper",
            "--iters", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert [float(c) for c in rows[0][2:5]] == [0.3, 0.6, 0.1]

    def test_explicit_init(self, tmp_path):
        code = main([
            "optimize", "--objective", "f1", "--init", "0.2,0.3,0.5",
            "--iters", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert [float(c) for c in rows[0][2:5]] == [0.2, 0.3, 0.5]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        argv = ["optimize", "--objective", "f1", "--method", "lmwu",
                "--iters", "50", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() == \
            (b / "trajectory.csv").read_bytes()

    def test_returns_objective_runs_the_fit_config(self, returns_file, tmp_path):
        # no run flags: DEFAULT_FIT_CONFIG's 600 iterations and 1e-6 floor
        code = main(["optimize", "--returns", returns_file, "--preset", "mv",
                     "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header[2:4] == ["x_1", "x_2"]
        assert len(rows) == 601
        points = [[float(c) for c in row[2:4]] for row in rows]
        assert all(abs(sum(p) - 1.0) <= 1e-9 and min(p) >= 1e-6 for p in points)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--objective", "f9"],
            ["optimize"],  # neither --objective nor --returns
            ["optimize", "--objective", "f1", "--method", "warp"],
            ["optimize", "--objective", "f1", "--init", "0.5,0.5"],
            ["optimize", "--objective", "f1", "--iters", "-2"],
            # does not sum to 1
            ["optimize", "--objective", "f1", "--init", "0.5,0.6,0.1"],
            ["portfolio"],  # missing --returns
            ["sweep", "--objective", "f1", "--samples", "0"],
            # a coordinate at 0, and a negative one
            ["optimize", "--objective", "f1", "--init", "0.5,0.5,0"],
            ["optimize", "--objective", "f1", "--init", "0.6,0.5,-0.1"],
            ["sweep", "--objective", "f9"],
            ["portfolio", "--returns", RETURNS, "--preset", "bogus"],
            ["optimize", "--returns", RETURNS, "--preset", "mv,mvsk"],
            # a flag the subcommand does not read
            ["optimize", "--objective", "f1", "--iters", "3", "--window", "5"],
            ["portfolio", "--returns", RETURNS, "--window", "3", "--iters", "5",
             "--objective", "f1"],
            ["optimize", "--objective", "f1", "--iters", "3", "--samples", "4"],
            # run settings go through the LmwuConfig checks
            ["optimize", "--objective", "f1", "--eps", "nan"],
            ["optimize", "--objective", "f1", "--beta", "inf"],
            ["optimize", "--objective", "f1", "--floor", "-1"],
            # --preset selects the risk weights of a --returns objective
            ["optimize", "--objective", "f1", "--preset", "bogus", "--iters", "3"],
            ["sweep", "--objective", "f1", "--preset", "mv"],
            # explicit coordinates must match the objective's dimension
            ["sweep", "--objective", "f5", "--init", "0.5,0.5"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, returns_file, tmp_path, capsys):
        argv = [returns_file if a == RETURNS else a for a in argv]
        assert main(argv + ["--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["optimize", "--returns", RETURNS, "--init", "paper"],
             "--init paper needs one of the bundled objectives"),
            (["optimize", "--objective", "f1", "--init", "0.3,x,0.1"],
             "bad --init '0.3,x,0.1'"),
            (["compare", "--objective", "f1", "--method", ","],
             "empty method list"),
            (["optimize", "--objective", "f1", "--init", "0.5,0.4995,0.0005",
              "--floor", "1e-3"],
             "init coordinates must be finite and >= floor 1.000e-03"),
            # a repeated name would fit and write the same cells again
            (["compare", "--objective", "f1", "--method", "lmwu,lmwu"],
             "--method repeats lmwu"),
            (["portfolio", "--returns", RETURNS, "--preset", "mv,mv"],
             "--preset repeats mv"),
            (["portfolio", "--returns", RETURNS, "--method", "lmwu,lmwu"],
             "--method repeats lmwu"),
            (["optimize", "--objective", "f1", "--seed", "-1"],
             "seed must be a non-negative integer"),
            (["sweep", "--objective", "f1", "--seed", "-1"],
             "seed must be a non-negative integer"),
            (["noise-check"], "invalid choice: 'noise-check'"),
        ],
    )
    def test_usage_error_messages(self, argv, message, returns_file, tmp_path,
                                  capsys):
        argv = [returns_file if a == RETURNS else a for a in argv]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_both_objective_and_returns_exit_2(self, returns_file, tmp_path):
        assert main([
            "optimize", "--objective", "f1", "--returns", returns_file,
            "--out", str(tmp_path),
        ]) == 2

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["optimize", "--objective", "f1", "--turbo"]) == 2

    def test_step_failure_exits_1(self, tmp_path, capsys):
        # at ε = 1 the base terms x(1 − εg) at f1's paper init sum to −1.41
        code = main([
            "optimize", "--objective", "f1", "--method", "lmwu",
            "--init", "paper", "--eps", "1", "--beta", "1e8", "--iters", "10",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_oversized_mwu_step_exits_1(self, tmp_path, capsys):
        code = main([
            "optimize", "--objective", "f1", "--method", "linear-mwu",
            "--eps", "10.0", "--iters", "10", "--out", str(tmp_path),
        ])
        assert code == 1

    @pytest.mark.parametrize("argv, stderr", [
        (["optimize", "--objective", "f1", "--method", "linear-mwu",
          "--eps", "5", "--iters", "100"],
         "error: step failure: eps=5.0 makes a multiplier nonpositive "
         "(min -7.321e+00) (iteration 1)\n"),
        (["optimize", "--objective", "f1", "--method", "exp-mwu",
          "--eps", "1e5", "--iters", "100"],
         "error: step failure: iterate left the simplex "
         "(block sum 1.0, min coord 0.0) (iteration 1)\n"),
        (["portfolio", "--returns", "../panel.csv", "--preset", "mv",
          "--method", "linear-mwu", "--eps", "1000", "--window", "250"],
         "linear-mwu mv: failed: eps=1000.0 makes a multiplier nonpositive "
         "(min -4.171e+00) (period 251, iteration 1)\n"),
        (["optimize", "--objective", "f1", "--method", "proj-langevin",
          "--eps", "1e17", "--iters", "3"],
         "error: step failure: Langevin proposal cannot be projected: "
         "coordinates of magnitude 2.184e+17 leave no projection threshold "
         "in float64 (iteration 1)\n"),
    ], ids=["linear-mwu", "exp-mwu", "portfolio", "proj-langevin"])
    def test_oversized_step_messages(self, argv, stderr, bench_run_dir, capsys):
        # the byte battery's step-failure invocations, on the benchmark panel
        assert main(argv) == 1
        assert capsys.readouterr().err == stderr

    @pytest.mark.parametrize("method, stderr", [
        ("exp-mwu", "error: step failure: iterate left the simplex "
         "(block sum nan, min coord nan) (iteration 1)\n"),
        ("linear-mwu", "error: step failure: eps=1e+308 makes a multiplier "
         "nonpositive (min -1.664e+308) (iteration 1)\n"),
    ], ids=["exp-mwu", "linear-mwu"])
    def test_overflowing_step_prints_only_its_error(self, method, stderr,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        # ε·g overflows to ±inf: the step raises its error and warns nothing
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["optimize", "--objective", "f1", "--method", method,
                         "--eps", "1e308", "--iters", "3"])
        assert code == 1
        assert capsys.readouterr().err == stderr
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("argv, stderr", [
        (["portfolio", "--window", "8"],
         "lmwu equal: failed: update denominator nan stayed below floor "
         "after 16 resamples (period 9, iteration 1)\n"
         "linear-mwu equal: failed: iterate left the simplex "
         "(block sum nan, min coord nan) (period 9, iteration 1)\n"
         "exp-mwu equal: failed: iterate left the simplex "
         "(block sum nan, min coord nan) (period 9, iteration 1)\n"
         "proj-langevin equal: failed: Langevin proposal is not finite "
         "(period 9, iteration 1)\n"),
        (["optimize"], "error: step failure: update denominator nan stayed "
         "below floor after 16 resamples (iteration 1)\n"),
        (["sweep"], "error: step failure: update denominator nan stayed "
         "below floor after 16 resamples (iteration 1)\n"),
    ], ids=lambda v: v[0] if isinstance(v, list) else "")
    def test_overflowing_moments_print_only_the_step_errors(
            self, argv, stderr, tmp_path, monkeypatch, capsys):
        # the centred panel's powers overflow to inf and their sums to nan:
        # each step raises its own error and the loss warns nothing
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.csv").write_text(OVERFLOW_CSV)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--returns", "big.csv", "--preset", "equal",
                         "--out", "out"])
        assert code == 1
        assert capsys.readouterr().err == stderr
        assert [str(w.message) for w in caught] == []

    def test_trajectory_too_long_to_allocate_exits_1(self, tmp_path, capsys):
        # 10¹³ iterates of f1 need 218 TiB, so the allocation fails at once
        code = main(["optimize", "--objective", "f1",
                     "--iters", "10000000000000", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1 and err.endswith("float64\n")
        assert not (tmp_path / "o").exists()

    def test_portfolio_floor_too_large_is_a_usage_error(self, bench_run_dir,
                                                        capsys):
        # rejected by the first window's lift, before any fit or output
        code = main(["portfolio", "--returns", "../panel.csv", "--preset", "mv",
                     "--method", "lmwu", "--floor", "0.2", "--window", "250",
                     "--out", "out"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: floor 2.000e-01 is too large for dimension 10\n"
        )
        assert not (bench_run_dir / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["optimize"], ["compare"], ["sweep"], ["portfolio", "--window", "250"],
    ], ids=lambda argv: argv[0])
    def test_floor_too_large_prints_one_text(self, argv, bench_run_dir,
                                             capsys):
        # a run's init check and the portfolio's first lift give one text
        code = main(argv + ["--returns", "../panel.csv", "--preset", "mv",
                            "--floor", "0.2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: floor 2.000e-01 is too large for dimension 10\n"
        )

    @pytest.mark.parametrize("argv, stderr", [
        (["optimize", "--returns", "nope.csv"],
         "error: [Errno 2] No such file or directory: 'nope.csv'\n"),
        (["portfolio", "--returns", "."],
         "error: [Errno 21] Is a directory: '.'\n"),
        (["optimize", "--objective", "f1", "--iters", "3", "--out", "afile"],
         "error: [Errno 17] File exists: 'afile'\n"),
    ], ids=["missing-returns", "directory-returns", "out-is-a-file"])
    def test_file_errors_print_one_line(self, argv, stderr, tmp_path,
                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        assert main(argv) == 1
        assert capsys.readouterr().err == stderr

    def test_non_utf8_returns_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("date,a\nd1,0.01\nd\xe9,0.02\n".encode("latin-1"))
        code = main(["optimize", "--returns", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"

    def test_returns_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,a\nd1,oops\n")
        code = main([
            "portfolio", "--returns", str(bad), "--out", str(tmp_path),
        ])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestSeedPrecedence:
    def run_traj(self, tmp_path, name, argv, monkeypatch=None, env=None):
        out = tmp_path / name
        out.mkdir()
        if env is not None:
            monkeypatch.setenv(ENV_SEED, env)
        assert main(argv + ["--out", str(out)]) == 0
        return (out / "trajectory.csv").read_bytes()

    BASE = ["optimize", "--objective", "f1", "--method", "lmwu",
            "--iters", "30"]

    def test_env_seed_used(self, tmp_path, monkeypatch):
        by_env = self.run_traj(tmp_path, "env", self.BASE, monkeypatch, "7")
        monkeypatch.delenv(ENV_SEED)
        by_flag = self.run_traj(tmp_path, "flag", self.BASE + ["--seed", "7"])
        default = self.run_traj(tmp_path, "default", self.BASE)
        assert by_env == by_flag
        assert by_env != default  # default seed is 0

    def test_flag_beats_config_beats_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=9\n")
        with_cfg = self.run_traj(
            tmp_path, "cfg", self.BASE + ["--config", str(cfg)],
            monkeypatch, "3",
        )
        plain9 = self.run_traj(tmp_path, "plain9", self.BASE + ["--seed", "9"])
        assert with_cfg == plain9  # config beat the env var
        flag_wins = self.run_traj(
            tmp_path, "flagwins",
            self.BASE + ["--config", str(cfg), "--seed", "4"],
            monkeypatch, "3",
        )
        plain4 = self.run_traj(tmp_path, "plain4", self.BASE + ["--seed", "4"])
        assert flag_wins == plain4

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "eleven")
        assert main(self.BASE + ["--out", str(tmp_path)]) == 2

    def test_negative_env_seed_is_a_usage_error(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setenv(ENV_SEED, "-3")
        assert main(["sweep", "--objective", "f1", "--iters", "3",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer\n"


class TestConfigFile:
    def test_key_value_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run settings\nobjective = f1\niters = 3\n\nseed = 5\n"
        )
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 4

    def test_json_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"objective": "f1", "iters": 2, "method": "exp-mwu"}')
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 3

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("objective=f1\niters=9\n")
        assert main(["optimize", "--config", str(cfg), "--iters", "1",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]", "{not json", "just words\n", "iters: 3\n",
            "itres=3\n",  # not a flag of optimize
            '{"iters": 2.7}', '{"iters": true}',  # not int text
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, text, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["optimize", "--objective", "f1", "--out", str(tmp_path),
                     "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("text", ["[1, 2]", ' ["iters", 3]\n'])
    def test_json_config_must_be_an_object(self, tmp_path, text, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["optimize", "--objective", "f1", "--out", str(tmp_path),
                     "--config", str(cfg)]) == 2
        assert "error: JSON config must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["key=value", "json"])
    @pytest.mark.parametrize("command", list(CONFIG_RUNS))
    def test_config_equals_flags(
        self, command, fmt, returns_file, tmp_path, capsys
    ):
        values = {k: returns_file if v == RETURNS else v
                  for k, v in CONFIG_RUNS[command].items()}
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        extra = ["--per-period"] if command == "portfolio" else []
        flags = [a for k, v in values.items() for a in (f"--{k}", str(v))]
        assert main([command, *flags, *extra, "--out", str(by_flags)]) == 0
        flag_stdout = capsys.readouterr().out
        values["out"] = str(by_config)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(json.dumps(values) if fmt == "json" else
                       "".join(f"{k}={v}\n" for k, v in values.items()))
        assert main([command, "--config", str(cfg), *extra]) == 0
        assert capsys.readouterr().out == flag_stdout
        names = sorted(os.listdir(by_flags))
        assert names and names == sorted(os.listdir(by_config))
        for name in names:
            if name == "portfolio_report.csv":
                assert without_runtime(by_flags / name) == \
                    without_runtime(by_config / name)
            else:
                assert (by_flags / name).read_bytes() == \
                    (by_config / name).read_bytes()

    @pytest.mark.parametrize("text", [
        "objective=f1\niters=3\n", '{"objective": "f1", "iters": 3}',
    ], ids=["key=value", "json"])
    def test_config_with_byte_order_mark(self, tmp_path, text):
        # editors that save "UTF-8 with BOM" start the file with U+FEFF
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\ufeff" + text, encoding="utf-8")
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 4

    @pytest.mark.parametrize("data, line", [
        (b"objective=f1\niters=3\n# caf\xe9\n", 3),
        (b"\xef\xbb\xbf\xff{}", 1),
        (b'{"objective": "f1",\r\n "init": "\xe9"}', 2),
    ], ids=["key=value", "bom", "json-crlf"])
    def test_config_that_is_not_utf8_names_its_line(self, tmp_path, capsys,
                                                    data, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(data)
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: config line {line}: not UTF-8 text\n")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["optimize", "--objective", "f1",
                     "--config", str(tmp_path / "nope.cfg")]) == 2


class TestCompare:
    def test_all_methods_by_default(self, tmp_path):
        code = main([
            "compare", "--objective", "f1", "--iters", "10",
            "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = read_csv(tmp_path / "summary.csv")
        assert header == ["method", "final_f", "best_f", "iters"]
        assert [r[0] for r in rows] == [
            "lmwu", "linear-mwu", "exp-mwu", "proj-langevin",
        ]
        for r in rows:
            assert (tmp_path / f"trajectory_{r[0]}.csv").exists()
            assert r[3] == "10"

    def test_method_list(self, tmp_path):
        code = main([
            "compare", "--objective", "f2", "--iters", "5",
            "--method", "linear-mwu,exp-mwu", "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = read_csv(tmp_path / "summary.csv")
        assert [r[0] for r in rows] == ["linear-mwu", "exp-mwu"]

    def test_bad_init_leaves_no_out_directory(self, tmp_path, capsys):
        # --out is made only once a run has returned
        out = tmp_path / "made"
        code = main(["compare", "--objective", "f1", "--init", "0.3,0.3,0.3",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: init coordinates must sum to 1 within 1e-09, "
            "got 0.8999999999999999\n"
        )
        assert not out.exists()


def csv_writer_trajectory(path, traj, dim):
    """The trajectory file as ``csv.writer`` writes it with ``cli._fmt``
    cells, row by row, each flag as the int 1 or 0: the reference for
    ``cli._write_trajectory``."""
    header = ["iter", "f", *(f"x_{i}" for i in range(1, dim + 1)),
              "clamped", "resampled"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(len(traj)):
            writer.writerow([cli._fmt(c) for c in [
                k, traj.f_values[k], *traj.points[k], int(traj.clamped[k]),
                int(traj.resampled[k])]])


@pytest.mark.parametrize("dim", [3, 10])
def test_trajectory_writer_equals_csv_writer(tmp_path, dim):
    # more rows than two chunks and not a multiple of one; flags set;
    # coordinates pinned at a 1e-12 floor; values of every magnitude
    rows = 2 * cli._TRAJECTORY_CHUNK + 37
    rng = np.random.default_rng(dim)
    points = rng.dirichlet(np.full(dim, 0.2), size=rows)
    points[rng.random((rows, dim)) < 0.2] = 1e-12
    points[1] = [0.1 + 0.2] + [0.7 / (dim - 1)] * (dim - 1)
    f_values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    f_values[:4] = [10.154925652974732, -0.0, 1e-12, 2.0 ** 60]
    traj = Trajectory(points, f_values, rng.random(rows) < 0.3,
                      rng.random(rows) < 0.4)
    assert traj.clamped.any() and traj.resampled.any()
    cli._write_trajectory(tmp_path / "new.csv", traj, dim)
    csv_writer_trajectory(tmp_path / "reference.csv", traj, dim)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


class TestSweep:
    def test_rows_and_seeds(self, tmp_path, capsys):
        code = main([
            "sweep", "--objective", "f1", "--method", "lmwu",
            "--iters", "20", "--samples", "3", "--seed", "5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["seed", "final_f", "best_f"]
        assert [r[0] for r in rows] == ["5", "6", "7"]
        out = capsys.readouterr().out
        assert "min final f" in out and "median final f" in out

    def test_reports_the_first_failing_seed(self, tmp_path, capsys):
        # ε = 0.08 is too large a step for f1: seeds fail, and a later seed
        # fails at an earlier iteration than the first failing seed, at
        # which the per-seed order stops
        cfg = LmwuConfig(eps=0.08, beta=10.0, max_iters=1500)
        failed_at = {}
        for seed in range(2, 34):
            try:
                run_optimizer("lmwu", benchmark("f1"),
                              PAPER_PRESETS["f1"].init, replace(cfg, seed=seed))
            except StepFailureError as exc:
                failed_at[seed] = exc.iteration
        first = failed_at[min(failed_at)]
        assert min(failed_at.values()) < first
        code = main([
            "sweep", "--objective", "f1", "--init", "paper", "--beta", "10",
            "--eps", "0.08", "--iters", "1500", "--seed", "2", "--samples", "32",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert f"(iteration {first})" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestPortfolio:
    def test_report_and_per_period(self, returns_file, tmp_path, capsys):
        code = main([
            "portfolio", "--returns", returns_file, "--window", "3",
            "--method", "linear-mwu", "--preset", "equal",
            "--eps", "0.5", "--beta", "1.0", "--iters", "50",
            "--per-period", "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = read_csv(tmp_path / "portfolio_report.csv")
        assert header == ["method", "preset", "score", "periods",
                          "variant", "runtime_seconds"]
        assert len(rows) == 1
        assert rows[0][:2] == ["linear-mwu", "equal"]
        assert rows[0][3] == "3"
        assert rows[0][4] == "literal"
        pheader, prows = read_csv(
            tmp_path / "per_period_linear-mwu_equal.csv"
        )
        assert pheader == ["t", "date", "loss"]
        assert [r[0] for r in prows] == ["4", "5", "6"]
        assert prows[0][1] == "2021-01-04"

    def test_preset_list_and_all(self, returns_file, tmp_path):
        code = main([
            "portfolio", "--returns", returns_file, "--window", "3",
            "--method", "linear-mwu", "--preset", "mv,mvs",
            "--eps", "0.5", "--beta", "1.0", "--iters", "30",
            "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = read_csv(tmp_path / "portfolio_report.csv")
        assert [(r[0], r[1]) for r in rows] == [
            ("linear-mwu", "mv"), ("linear-mwu", "mvs"),
        ]
        code = main([
            "portfolio", "--returns", returns_file, "--window", "3",
            "--method", "linear-mwu", "--preset", "all",
            "--eps", "0.5", "--beta", "1.0", "--iters", "30",
            "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = read_csv(tmp_path / "portfolio_report.csv")
        assert len(rows) == 6

    @pytest.mark.parametrize(
        "extra",
        [
            ["--preset", "sharpe"],
            ["--window", "99"],
            ["--window", "1"],
            ["--variant", "surprise"],
            ["--eps", "-1.0"],
        ],
    )
    def test_usage_errors(self, returns_file, tmp_path, extra, capsys):
        assert main([
            "portfolio", "--returns", returns_file, "--out", str(tmp_path),
        ] + extra) == 2

    def test_failed_cell_exits_1_with_empty_score(self, tmp_path, capsys):
        # both assets lose half each period: at ε = 100 the gradient makes
        # each base term x(1 − εg) negative, so the first step fails
        losses = tmp_path / "losses.csv"
        losses.write_text("date,a,b\n" + "".join(
            f"2021-01-0{t},-0.5,-0.5\n" for t in range(1, 7)))
        code = main([
            "portfolio", "--returns", str(losses), "--window", "3",
            "--method", "lmwu", "--preset", "equal",
            "--eps", "100", "--beta", "1e8", "--iters", "5",
            "--out", str(tmp_path),
        ])
        assert code == 1
        _, rows = read_csv(tmp_path / "portfolio_report.csv")
        assert rows[0][2] == ""  # empty score marks the failure
        assert "failed" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    # the child imports the same package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(simplex_langevin.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "simplex_langevin.cli",
         "optimize", "--objective", "f1", "--iters", "2",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert "final f" in proc.stdout


# the edge grid: ε and β each over these, --floor over EDGE_FLOORS (None
# leaves it unset), and one run per entry of EDGE_RUNS
EDGE_VALUES = ("5e-324", "1e-308", "1e-300", "1e-12", "0.5", "1", "1e12",
               "1e300", "1e308")
EDGE_FLOORS = (None, "1e-300", "1e-6", "0.3")
EDGE_RUNS = tuple(
    ["optimize", "--objective", "f1", "--method", method, "--iters", "3"]
    for method in ("lmwu", "linear-mwu", "exp-mwu", "proj-langevin")
) + (
    ["sweep", "--objective", "f1", "--method", "lmwu", "--samples", "4",
     "--iters", "3"],
)
EDGE_CASES = 400


def edge_flag_cases(count: int = EDGE_CASES, seed: int = 22):
    """The overflow case that once warned, then a seeded draw from the edge
    grid (1,620 argvs) without repeats."""
    grid = list(itertools.product(EDGE_RUNS, EDGE_VALUES, EDGE_VALUES,
                                  EDGE_FLOORS))
    cases = [
        ["sweep", "--objective", "f1", "--method", "lmwu", "--eps", "1e308",
         "--samples", "4", "--iters", "3"],
    ]
    for i in sorted(np.random.default_rng(seed).choice(len(grid), count - 1,
                                                       replace=False)):
        run, eps, beta, floor = grid[i]
        cases.append([*run, "--eps", eps, "--beta", beta]
                     + ([] if floor is None else ["--floor", floor]))
    return cases


def test_edge_flag_values_end_as_the_cli_says(tmp_path, monkeypatch, capsys):
    # exit 0, 1 or 2; no Python warning; only error: lines on stderr; and
    # no output line longer than 200 characters
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_SEED, raising=False)
    broken = []
    for argv in edge_flag_cases():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        faults = [f"exit {code}"] if code not in (0, 1, 2) else []
        faults += [f"warning: {w.message}" for w in caught]
        faults += [f"stderr: {line}" for line in err.splitlines()
                   if not line.startswith("error: ")]
        faults += [f"{len(line)}-character line" for line in
                   (out + err).splitlines() if len(line) > 200]
        if faults:
            broken.append(f"{' '.join(argv)}: {'; '.join(faults)}")
    assert broken == []


# the argv and --config generator: per flag, (values that a run takes, edge
# values); small run lengths only, since a huge --iters or --samples runs, or
# holds a list of its seeds, before it fails
NUMBER_EDGES = ("0", "-0", "inf", "-inf", "nan", "1e308", "-1e308", "1e-308",
                "5e-324", "1e400", "", "é", "１")
ARGV_VALUES = {
    "objective": (("f1", "f5"), ("f9", "F1", "", "é")),
    "method": (("lmwu", "proj-langevin", "exp-mwu"),
               ("exp-mwu,lmwu", "lmwu,lmwu", ",", "", "é")),
    "init": (("uniform", "paper"),
             ("0.3,0.6,0.1", "0.5,0.5", "nan,0.5,0.5", "-0,0.5,0.5",
              "1e308,1e308,1e308", "inf", "", "é")),
    "preset": (("mv", "equal"), ("all", "mv,mv", "mv,equal", "", "é")),
    "variant": (("literal", "window-moments"), ("", "é")),
    "eps": (("1e-3", "0.5"), NUMBER_EDGES),
    "beta": (("1", "1e8"), NUMBER_EDGES),
    "floor": (("1e-6", "1e-12"), NUMBER_EDGES + ("0.5",)),
    "iters": (("0", "1", "3"), ("-0", "-1", "3.5", "nan", "", "é", "１")),
    "seed": (("0", "7", "18446744073709551616"), ("-0", "-1", "1e3", "", "é")),
    "window": (("2", "3"), ("0", "-1", "1000", "", "é")),
    "samples": (("1", "4"), ("0", "-1", "nan", "", "é")),
    "returns": (("plain.csv", "bom.csv", "crlf.csv", "quoted.csv",
                 "constant.csv"), ("latin1.csv", "single.csv", "missing.csv")),
}
# returns files, by name: a BOM, CRLF, a quoted newline, non-UTF-8 bytes, a
# single row, a constant column
RETURNS_FILES = {
    "plain.csv": RETURNS_CSV.encode(),
    "bom.csv": b"\xef\xbb\xbf" + RETURNS_CSV.encode(),
    "crlf.csv": RETURNS_CSV.replace("\n", "\r\n").encode(),
    "quoted.csv": RETURNS_CSV.replace("date,a,b", 'date,"a\nb",b').encode(),
    "latin1.csv": RETURNS_CSV.replace("date,a,b", "date,caf\xe9,b").encode("latin-1"),
    "single.csv": b"date,a,b\n2021-01-01,0.02,0.001\n",
    "constant.csv": "".join(line.rsplit(",", 1)[0] + ",0.01\n" for line in
                            RETURNS_CSV.splitlines()).replace(
                                ",0.01", ",b", 1).encode(),
}
ARGV_CASES = 600


def _config_bytes(rng, values: dict) -> bytes:
    """``values`` as a --config file: JSON or key=value lines, each maybe
    with a BOM, CRLF line ends or a byte that is not UTF-8."""
    if rng.random() < 0.5:
        text = json.dumps(values, ensure_ascii=False)
    else:
        text = "".join(f"{k}={v}\n" for k, v in values.items())
    if rng.random() < 0.3:
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8")
    if rng.random() < 0.2:
        data = b"\xef\xbb\xbf" + data
    if rng.random() < 0.1:
        cut = int(rng.integers(len(data) + 1))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def argv_cases(directory, count: int = ARGV_CASES, seed: int = 23):
    """Seeded argvs over every subcommand, with their --config files in
    ``directory``. A case sets about half of its subcommand's value flags,
    ``--iters`` and one objective source always, each to a value a run
    takes; up to two of them take an edge value instead. Some flags are
    given twice, and some move into the config file."""
    rng = np.random.default_rng(seed)

    def draw(values):
        return values[rng.integers(len(values))]

    commands = list(cli._COMMANDS)
    for index in range(count):
        command = commands[index % len(commands)]
        flags = [f for f in cli._COMMANDS[command][2]
                 if f not in ("out", "per-period", "no-warm-start")]
        chosen = [f for f in flags if f == "iters" or rng.random() < 0.5]
        if {"objective", "returns"} <= set(flags):  # one source, not both
            source = draw(("objective", "returns"))
            chosen = [f for f in chosen if f not in ("objective", "returns")]
            chosen.append(source)
        elif "returns" in flags and "returns" not in chosen:
            chosen.append("returns")
        edged = set(rng.choice(chosen, size=min(len(chosen),
                                                 int(draw((0, 0, 1, 1, 2)))),
                               replace=False).tolist())
        sets = {f: ARGV_VALUES[f] for f in chosen}
        values = {f: draw(sets[f][f in edged]) for f in chosen}
        if "returns" in values:
            values["returns"] = str(directory / values["returns"])
        argv = [command, "--out", str(directory / f"out-{index}")]
        argv += [f"--{f}" for f in ("per-period", "no-warm-start")
                 if f in cli._COMMANDS[command][2] and rng.random() < 0.5]
        config = {}
        for flag, value in values.items():
            if rng.random() < 0.3:
                config[flag] = value
                continue
            argv += [f"--{flag}", value]
            if rng.random() < 0.1:  # given twice: the last one counts
                argv += [f"--{flag}", draw(sets[flag][0])]
        if config:
            path = directory / f"config-{index}.cfg"
            path.write_bytes(_config_bytes(rng, config))
            argv += ["--config", str(path)]
        yield argv


def test_generated_argv_and_config_end_as_the_cli_says(tmp_path, monkeypatch,
                                                        capsys):
    # exit 0, 1 or 2; no Python warning and no exception out of main; on
    # stderr only error: lines, argparse's usage message, and portfolio's
    # failed: lines
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_SEED, raising=False)
    for name, data in RETURNS_FILES.items():
        (tmp_path / name).write_bytes(data)
    allowed = re.compile(r"error: |usage: | |simplex-langevin \S+: error: "
                         r"|\S+ \S+: failed: ")
    broken, codes = [], set()
    for argv in argv_cases(tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except Exception as exc:  # a traceback, had main been run
                code = f"{type(exc).__name__}: {exc}"
        out, err = capsys.readouterr()
        codes.add(code)
        faults = [f"exit {code}"] if code not in (0, 1, 2) else []
        faults += [f"warning: {w.message}" for w in caught]
        faults += [f"stderr: {line}" for line in err.splitlines()
                   if not allowed.match(line)]
        if faults:
            broken.append(f"{argv}: {'; '.join(faults)}")
    assert broken == []
    assert codes == {0, 1, 2}

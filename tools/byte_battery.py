"""Byte-identity battery: run a fixed list of CLI invocations against one
source tree and write a manifest of everything they produced.

    python3 tools/byte_battery.py --src <tree>/src --out <dir>

Each invocation runs in a fresh interpreter, in its own directory under
``<dir>``, with that tree's ``src`` on ``PYTHONPATH``. ``<dir>/manifest.txt``
gets one line per invocation: its label, exit code, and the sha256 of its
stdout, its stderr and every file it wrote, with the wall-clock
``runtime_seconds`` column removed from CSVs before hashing. Two trees are
byte-identical on the battery when their manifests are equal:

    cmp a/manifest.txt b/manifest.txt

The portfolio panel comes from ``perfbench.workloads.write_panel`` (seed 1),
so the battery exercises the same panel as the benchmark.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from perfbench.workloads import write_panel  # noqa: E402

METHODS = ("lmwu", "linear-mwu", "exp-mwu", "proj-langevin")
PRESETS = ("increasing", "degenerate", "mv", "mvs", "mvsk", "equal")
# invocations run one directory below the battery root, next to the panel
PANEL = os.path.join("..", "panel.csv")
PANEL_WINDOW = ["--window", "250"]

ENTRY = ("import sys; from simplex_langevin.cli import main; "
         "raise SystemExit(main(sys.argv[1:]))")


def invocations() -> list[tuple[str, list[str]]]:
    """(label, argv) of every invocation, in a fixed order."""
    runs = []
    for fid in ("f1", "f2", "f3", "f4", "f5", "f6"):
        for init in ("uniform", "paper"):
            common = ["--objective", fid, "--init", init, "--iters", "2000",
                      "--seed", "3"]
            for method in METHODS:
                runs.append((f"optimize-{fid}-{init}-{method}",
                             ["optimize", "--method", method, *common]))
            runs.append((f"compare-{fid}-{init}", ["compare", *common]))
            # the lmwu sweeps run the batched rows (over the vectorized f1/f2
            # evaluation on f1 and f2); a sweep of any other method is its
            # seeds' run_optimizer runs
            sweeps = METHODS if fid in ("f1", "f2") else ("lmwu", "proj-langevin")
            for method in sweeps:
                runs.append((f"sweep-{fid}-{init}-{method}",
                             ["sweep", "--method", method, "--samples", "8",
                              *common]))
    runs.append(("portfolio-warm", [
        "portfolio", "--returns", PANEL, "--preset", "mv,mvsk,equal",
        *PANEL_WINDOW, "--per-period", "--seed", "0"]))
    for method in METHODS:
        runs.append((f"portfolio-cold-{method}", [
            "portfolio", "--returns", PANEL, "--preset", "all",
            "--method", method, *PANEL_WINDOW, "--no-warm-start",
            "--variant", "window-moments", "--per-period"]))
    for preset in PRESETS:
        runs.append((f"optimize-returns-{preset}", [
            "optimize", "--returns", PANEL, "--preset", preset]))
    # the panel objective through the single-chain loop of every method,
    # and through the batched chains' row-by-row evaluation
    runs.append(("compare-returns-mvsk", [
        "compare", "--returns", PANEL, "--preset", "mvsk"]))
    runs.append(("sweep-returns-equal", [
        "sweep", "--returns", PANEL, "--preset", "equal", "--method", "lmwu",
        "--samples", "8"]))
    # chains of the other methods at n = 10, each its seed's run_optimizer run
    for method in ("exp-mwu", "proj-langevin"):
        runs.append((f"sweep-returns-equal-{method}", [
            "sweep", "--returns", PANEL, "--preset", "equal", "--method", method,
            "--samples", "8"]))
    runs.append(("noise-check-f1", [
        "noise-check", "--objective", "f1", "--init", "paper", "--out", "."]))
    runs.append(("noise-check-f5", [
        "noise-check", "--objective", "f5", "--init", "paper",
        "--samples", "20000", "--seed", "4", "--out", "."]))
    # steps that resample and clamp on most rows (the clamp path of lmwu and
    # the floor lift of proj-langevin)
    clamp = ["--init", "uniform", "--eps", "0.5", "--beta", "1e8",
             "--floor", "1e-6", "--iters", "300", "--seed", "3"]
    for fid, method in (("f3", "lmwu"), ("f5", "lmwu"), ("f3", "proj-langevin")):
        runs.append((f"clamp-optimize-{fid}-{method}", [
            "optimize", "--objective", fid, "--method", method, *clamp]))
    # the same through the batched chains: the pin of the lmwu rows and the
    # floor lift of each proj-langevin chain
    for fid, method in (("f3", "lmwu"), ("f5", "proj-langevin")):
        runs.append((f"clamp-sweep-{fid}-{method}", [
            "sweep", "--objective", fid, "--method", method, "--samples", "8",
            *clamp]))
    # known failures and a usage error: their messages and exit codes count
    runs.append(("fail-optimize-f1-lmwu-beta10", [
        "optimize", "--objective", "f1", "--init", "paper", "--method", "lmwu",
        "--beta", "10", "--iters", "1500", "--seed", "1"]))
    runs.append(("fail-compare-f5-paper", [
        "compare", "--objective", "f5", "--init", "paper"]))
    runs.append(("fail-sweep-f1-beta10", [
        "sweep", "--objective", "f1", "--init", "paper", "--method", "lmwu",
        "--beta", "10.0", "--samples", "64", "--iters", "1500", "--seed", "0"]))
    # steps too large for the deterministic methods
    for method, eps in (("linear-mwu", "5"), ("exp-mwu", "1e5")):
        runs.append((f"fail-optimize-f1-{method}-eps{eps}", [
            "optimize", "--objective", "f1", "--method", method, "--eps", eps,
            "--iters", "100"]))
    # a Langevin proposal too large for the projection to find a threshold
    runs.append(("fail-optimize-f1-proj-langevin-eps1e17", [
        "optimize", "--objective", "f1", "--method", "proj-langevin",
        "--eps", "1e17", "--iters", "3"]))
    runs.append(("fail-portfolio-linear-mwu-eps1000", [
        "portfolio", "--returns", PANEL, "--preset", "mv",
        "--method", "linear-mwu", "--eps", "1000", *PANEL_WINDOW]))
    runs.append(("usage-unknown-objective", ["optimize", "--objective", "f9"]))
    runs.append(("usage-portfolio-floor0.2", [
        "portfolio", "--returns", PANEL, "--preset", "mv", "--method", "lmwu",
        "--floor", "0.2", *PANEL_WINDOW]))
    runs.append(("fail-optimize-missing-returns", [
        "optimize", "--returns", os.path.join("..", "missing.csv")]))
    # bad starting points and names: one text per rule, in every subcommand
    runs.append(("usage-optimize-returns-floor0.2", [
        "optimize", "--returns", PANEL, "--preset", "mv", "--floor", "0.2"]))
    runs.append(("usage-sweep-f1-floor0.5", [
        "sweep", "--objective", "f1", "--floor", "0.5"]))
    runs.append(("usage-noise-check-below-floor", [
        "noise-check", "--init", "0.5,0.4995,0.0005", "--floor", "1e-3"]))
    runs.append(("usage-optimize-init-off-sum", [
        "optimize", "--objective", "f1", "--init", "0.3,0.3,0.3"]))
    runs.append(("usage-unknown-method", [
        "optimize", "--objective", "f1", "--method", "warp"]))
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if not path.endswith(".csv"):
        return _sha(data)
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    if rows and "runtime_seconds" in rows[0]:
        drop = rows[0].index("runtime_seconds")
        rows = [row[:drop] + row[drop + 1:] for row in rows]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return _sha(text.getvalue().encode("utf-8"))


def run(src: str, out: str) -> str:
    """Run the battery against ``src`` into ``out``; returns the manifest path."""
    os.makedirs(out, exist_ok=False)
    write_panel(os.path.join(out, "panel.csv"), seed=1)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    lines = []
    for label, argv in invocations():
        cwd = os.path.join(out, label)
        os.mkdir(cwd)
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=cwd,
                              env=env, capture_output=True, timeout=600)
        parts = [label, f"exit={proc.returncode}",
                 f"stdout={_sha(proc.stdout)}", f"stderr={_sha(proc.stderr)}"]
        parts += [f"{name}={_file_digest(os.path.join(cwd, name))}"
                  for name in sorted(os.listdir(cwd))]
        lines.append(" ".join(parts))
        print(f"{label}: exit {proc.returncode}", flush=True)
    manifest = os.path.join(out, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the tree's src directory")
    parser.add_argument("--out", required=True, help="new directory for the run")
    args = parser.parse_args()
    print(f"manifest: {run(args.src, args.out)}")


if __name__ == "__main__":
    main()

"""Byte-identity battery: run a fixed list of CLI invocations against one
source tree and write a manifest of everything they produced.

    python3 tools/byte_battery.py --src <tree>/src --out <dir>

Each invocation runs in a fresh interpreter, in its own directory under
``<dir>``, with that tree's ``src`` on ``PYTHONPATH``. ``<dir>/manifest.txt``
starts with the environment the bytes may depend on: NumPy's version, the SIMD
targets NumPy dispatches to on this CPU, and the OpenBLAS core in use.
Then it gets one line per invocation: its label, exit code, and the sha256
of its stdout, its stderr and every file it wrote, with the wall-clock
``runtime_seconds`` column removed from CSVs before hashing. Two trees are
byte-identical on the battery when their manifests are equal:

    cmp a/manifest.txt b/manifest.txt

The portfolio panel comes from ``perfbench.workloads.write_panel`` (seed 1),
so the battery exercises the same panel as the benchmark. Next to it go the
``--config`` files of the ``config-*`` labels (``CONFIGS``): one JSON object,
one of ``key=value`` lines, and one that is not UTF-8.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import io
import os
import subprocess
import sys

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from perfbench.workloads import write_panel  # noqa: E402

METHODS = ("lmwu", "linear-mwu", "exp-mwu", "proj-langevin")
PRESETS = ("increasing", "degenerate", "mv", "mvs", "mvsk", "equal")
# invocations run one directory below the battery root, next to the panel
PANEL = os.path.join("..", "panel.csv")
PANEL_WINDOW = ["--window", "250"]

# the --config files written next to the panel, by name
CONFIGS = {
    "config.json": b'{"objective": "f1", "init": "paper", "iters": 2000, '
                   b'"seed": 3, "eps": 0.0001}\n',
    "config.txt": b"# f1 from the paper's init\r\nobjective = f1\r\n"
                  b"init=paper\r\n\r\nmethod=lmwu\r\nsamples=8\r\n"
                  b"iters=2000\r\nseed=3\r\n",
    "config-latin1.txt": b"# caf\xe9\nobjective=f1\n",
}

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
    # a one-cell grid that finishes: its lone chain steps on a one-row stack
    runs.append(("portfolio-one-cell-mvsk-lmwu", [
        "portfolio", "--returns", PANEL, "--preset", "mvsk", "--method", "lmwu",
        *PANEL_WINDOW, "--per-period"]))
    for preset in PRESETS:
        runs.append((f"optimize-returns-{preset}", [
            "optimize", "--returns", PANEL, "--preset", preset]))
    # the panel objective through the single-chain loop of every method,
    # and through the batched chains' one evaluation of the (K, n) stack
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
    # steps that clamp on most rows (the clamp path of lmwu and the floor
    # lift of proj-langevin)
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
    # known failures and a usage error: their messages and exit codes count.
    # The three runs below and the mid-grid portfolio further down failed
    # under the transcribed christoffel drift; with the divergence drift
    # ε/β they finish, and keep their labels so that manifests compare
    runs.append(("fail-optimize-f1-lmwu-beta10", [
        "optimize", "--objective", "f1", "--init", "paper", "--method", "lmwu",
        "--beta", "10", "--iters", "1500", "--seed", "1"]))
    runs.append(("fail-compare-f5-paper", [
        "compare", "--objective", "f5", "--init", "paper"]))
    runs.append(("fail-sweep-f1-beta10", [
        "sweep", "--objective", "f1", "--init", "paper", "--method", "lmwu",
        "--beta", "10.0", "--samples", "64", "--iters", "1500", "--seed", "0"]))
    # lmwu steps too large for f1, whatever the drift: a denominator below
    # the floor at iteration 1, and the first failing seed of a sweep
    runs.append(("fail-optimize-f1-lmwu-eps1", [
        "optimize", "--objective", "f1", "--init", "paper", "--method", "lmwu",
        "--eps", "1", "--beta", "1e8", "--iters", "10"]))
    runs.append(("fail-sweep-f1-lmwu-eps0.08", [
        "sweep", "--objective", "f1", "--init", "paper", "--method", "lmwu",
        "--eps", "0.08", "--beta", "10", "--samples", "64", "--iters", "1500",
        "--seed", "0"]))
    # steps too large for the deterministic methods
    for method, eps in (("linear-mwu", "5"), ("exp-mwu", "1e5")):
        runs.append((f"fail-optimize-f1-{method}-eps{eps}", [
            "optimize", "--objective", "f1", "--method", method, "--eps", eps,
            "--iters", "100"]))
    # a Langevin proposal too large for the projection to find a threshold
    runs.append(("fail-optimize-f1-proj-langevin-eps1e17", [
        "optimize", "--objective", "f1", "--method", "proj-langevin",
        "--eps", "1e17", "--iters", "3"]))
    # ε·g overflows to ±inf: the step's error and no NumPy warning
    for method in ("exp-mwu", "linear-mwu"):
        runs.append((f"fail-optimize-f1-{method}-eps1e308", [
            "optimize", "--objective", "f1", "--method", method,
            "--eps", "1e308", "--iters", "3"]))
    # the same overflow through the batched lmwu rows
    runs.append(("fail-sweep-f1-lmwu-eps1e308", [
        "sweep", "--objective", "f1", "--method", "lmwu", "--eps", "1e308",
        "--samples", "4", "--iters", "3"]))
    runs.append(("fail-portfolio-linear-mwu-eps1000", [
        "portfolio", "--returns", PANEL, "--preset", "mv",
        "--method", "linear-mwu", "--eps", "1000", *PANEL_WINDOW]))
    # under the transcribed drift lmwu failed mid-grid here (mv at iteration
    # 204 of period 251, increasing at iteration 599 of period 252) while the
    # other methods of each preset finished in the same lockstep batches
    runs.append(("fail-portfolio-lmwu-midgrid-eps3", [
        "portfolio", "--returns", PANEL, "--preset", "increasing,mv",
        "--eps", "3", *PANEL_WINDOW, "--per-period", "--seed", "0"]))
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
    runs.append(("usage-optimize-f1-below-floor", [
        "optimize", "--objective", "f1", "--init", "0.5,0.4995,0.0005",
        "--floor", "1e-3"]))
    runs.append(("usage-optimize-init-off-sum", [
        "optimize", "--objective", "f1", "--init", "0.3,0.3,0.3"]))
    runs.append(("usage-unknown-method", [
        "optimize", "--objective", "f1", "--method", "warp"]))
    # run configs from a --config file: JSON, and key=value lines with CRLF
    runs.append(("config-json-compare-f1", [
        "compare", "--config", os.path.join("..", "config.json")]))
    runs.append(("config-kv-sweep-f1", [
        "sweep", "--config", os.path.join("..", "config.txt")]))
    runs.append(("fail-config-not-utf8", [
        "optimize", "--config", os.path.join("..", "config-latin1.txt")]))
    return runs


def environment() -> str:
    """The manifest's first line: what the bytes may depend on besides the
    source tree. The OpenBLAS core is read from the library NumPy bundles,
    if it bundles one."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    core = "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return (f"environment numpy={np.__version__} simd={','.join(simd) or '-'} "
            f"openblas={core}")


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
    for name, data in CONFIGS.items():
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(data)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    lines = [environment()]
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

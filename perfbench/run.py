"""Benchmark of the simplex-langevin CLI on its three real workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload f1-compare-cli --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh child interpreter (``worker.py``) that calls
``simplex_langevin.cli.main`` in-process, one invocation at a time, with
one thread per math library. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs two children that alternate untraced and traced cycles and
reports per-module metrics from spans recorded around the program's public
functions (``tracing.py``). The last line of standard output is one JSON
object; the lines before it print every metric with its unit, median,
tail percentile and sample count, and the run environment. A fuller record,
with the spans of a traced run, is written to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_SAMPLES = 15
# every child is killed once the whole run has taken this long
RUN_TIMEOUT_S = 170
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# Per-layer metrics that exist on some workloads only (the portfolio window
# timings, the projection time): printed, not put in the JSON line, where
# every metric must be measured on every workload.
PRINT_ONLY = {
    "portfolio.fit_ms_per_window": "ms",
    "portfolio.self_ms_per_window": "ms",
    "portfolio.load_returns_ms": "ms",
    "portfolio.self_share": "share",
    "geometry.projection_us": "us",
    "trace.unattributed_share": "share",
}
# Counts that must repeat exactly between runs with the same seed.
EXACT = (
    "geometry.sample_noise_calls_per_step",
    "optimizers.clamp_rate",
    "optimizers.resample_rate",
    "optimizers.draw_accept_ratio",
    "optimizers.failed_chains",
    "optimizers.steps",
    "optimizers.escaped_seeds",
    "cli.csv_bytes",
    "optimizers.record_bytes",
    "portfolio.windows",
    "objectives.value_calls_per_step",
    "objectives.gradient_calls_per_step",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec() -> tuple[dict, dict]:
    """End-to-end and per-layer metrics, name -> (unit, better), as
    BENCHMARK.json at the checkout root lists them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return tuple(
        {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summarize(samples: list[float], better: str = "lower") -> dict:
    """Median, the tail percentile with at least ten samples beyond it on the
    worse side, and the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples) if samples else 0.0, "n": n,
           "tail": None, "tail_pct": None}
    if n >= 11:
        worse_last = sorted(samples, reverse=(better == "higher"))
        out["tail"] = worse_last[n - 11]
        out["tail_pct"] = 100.0 * (n - 10) / n
    return out


def _fmt_stat(name: str, unit: str, st: dict) -> str:
    tail = (f"p{st['tail_pct']:.0f}(worse side) {st['tail']:.6g}"
            if st["tail"] is not None
            else "tail n/a (needs >= 11 samples)")
    return f"  {name:<40} {st['median']:>14.6g} {unit:<7} {tail}, n={st['n']}"


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG", "TZ") if k in os.environ}
    env.update(THREAD_VARS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return proc


def setup_samples(panel: str | None, deadline: float) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = _child(["setup", SRC] + ([panel] if panel else []), deadline)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(rec["import_s"] + rec["load_returns_s"])
    return samples


def run_worker(workdir: str, workload: str, seed: int, seconds: float,
               trace: int, deadline: float) -> dict:
    _child(["run", SRC, workdir, workload, str(seed), repr(seconds), str(trace)],
           deadline)
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def cycle_rates(cycle: dict) -> tuple[float, float] | None:
    """(steps/s, CPU us/step) over the invocations of one cycle that exited 0
    and passed their checks; failed invocations are left out of both."""
    done = [op for op in cycle["ops"] if op["ok"]]
    steps = sum(op["steps"] for op in done)
    if not steps:
        return None
    wall = sum(op["wall_s"] for op in done)
    cpu = sum(op["cpu_s"] for op in done)
    return steps / wall, cpu / steps * 1e6


def end_to_end(result: dict, setup: list[float], names: dict) -> dict:
    rates = [r for r in (cycle_rates(c) for c in result["cycles"]) if r]
    ops = [op for c in result["cycles"] for op in c["ops"]]
    samples = {
        "steps_per_s": [r[0] for r in rates],
        "cpu_us_per_step": [r[1] for r in rates],
        "peak_rss_mb": [result["peak_rss_mb"]],
        "setup_s": setup,
        # the complement of error_rate: a gated metric may not be 0
        "success_rate": [sum(op["ok"] for op in ops) / len(ops)],
    }
    return {k: summarize(samples[k], better) for k, (_, better) in names.items()}


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _self_times(spans: list[dict]) -> dict[int, float]:
    covered = {s["id"]: sum(t for _, t in s["leaves"].values()) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(cycle: dict, spans: list[dict], untraced_sps: float) -> dict:
    """Per-layer metrics of one traced cycle from the spans of its ops."""
    op_ids = {op["op"] for op in cycle["ops"]}
    spans = [s for s in spans if s["op"] in op_ids]
    selfs = _self_times(spans)
    traced_wall = sum(op["wall_s"] for op in cycle["ops"])

    module_self = {m: 0.0 for m in ("cli", "portfolio", "optimizers", "objectives", "geometry")}
    leaf = {}
    for s in spans:
        module_self[s["module"]] += selfs[s["id"]]
        for key, (calls, secs) in s["leaves"].items():
            module_self[key.split(".")[0]] += secs
            acc = leaf.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
    by_id = {s["id"]: s for s in spans}
    chains = [s for s in spans if s["name"] == "optimizers.run_optimizer"]
    lmwu = [s for s in chains if s["attrs"]["method"] == "lmwu"]
    fits = [s for s in chains if s["parent"] is not None
            and by_id[s["parent"]]["name"] == "portfolio.rolling_window_evaluate"]
    rolling = [s for s in spans if s["name"] == "portfolio.rolling_window_evaluate"]
    loads = [s for s in spans if s["name"] == "portfolio.load_returns"]
    roots = [s for s in spans if s["parent"] is None]

    steps = sum(s["attrs"]["steps"] for s in chains)
    lmwu_steps = sum(s["attrs"]["steps"] for s in lmwu)
    clamped = sum(s["attrs"]["clamped"] for s in lmwu)
    draws = sum(s["leaves"].get("geometry.sample_noise", (0, 0.0))[0] for s in lmwu)
    cli_self = sum(selfs[s["id"]] for s in spans if s["name"] == "cli.main")
    projection = [leaf.get(f"geometry.{k}", [0, 0.0]) for k in
                  ("euclidean_simplex_projection", "lift_to_interior")]

    def per_call(key):
        calls, secs = leaf.get(key, (0, 0.0))
        return _ratio(secs, calls) * 1e6

    done = [op for op in cycle["ops"] if op["ok"]]
    traced_sps = _ratio(sum(op["steps"] for op in done), sum(op["wall_s"] for op in done))
    return {
        "cli.self_s": cli_self,
        "cli.csv_bytes": sum(op["csv_bytes"] for op in cycle["ops"]),
        "cli.self_share": _ratio(module_self["cli"], traced_wall),
        "portfolio.windows": len(fits),
        "portfolio.fit_ms_per_window": _ratio(
            sum(s["end"] - s["start"] for s in fits), len(fits)) * 1e3,
        "portfolio.self_ms_per_window": _ratio(
            sum(selfs[s["id"]] for s in rolling), len(fits)) * 1e3,
        "portfolio.load_returns_ms": _ratio(
            sum(s["end"] - s["start"] for s in loads), len(loads)) * 1e3,
        "portfolio.self_share": _ratio(module_self["portfolio"], traced_wall),
        "optimizers.steps": steps,
        "optimizers.self_us_per_step": _ratio(
            sum(selfs[s["id"]] for s in chains), steps) * 1e6,
        "optimizers.clamp_rate": _ratio(clamped, lmwu_steps),
        "optimizers.resample_rate": _ratio(
            sum(s["attrs"]["resampled"] for s in lmwu), lmwu_steps),
        "optimizers.draw_accept_ratio": _ratio(lmwu_steps - clamped, draws),
        "optimizers.record_bytes": sum(s["attrs"]["record_bytes"] for s in chains),
        "optimizers.failed_chains": sum(s["attrs"]["failed"] for s in chains),
        "optimizers.escaped_seeds": sum(op["escaped"] for op in cycle["ops"]),
        "optimizers.self_share": _ratio(module_self["optimizers"], traced_wall),
        "objectives.value_calls_per_step": _ratio(
            leaf.get("objectives.value", [0])[0], steps),
        "objectives.gradient_calls_per_step": _ratio(
            leaf.get("objectives.gradient", [0])[0], steps),
        "objectives.value_us": per_call("objectives.value"),
        "objectives.gradient_us": per_call("objectives.gradient"),
        "objectives.self_share": _ratio(module_self["objectives"], traced_wall),
        "geometry.sample_noise_calls_per_step": _ratio(draws, lmwu_steps),
        "geometry.sample_noise_us": per_call("geometry.sample_noise"),
        "geometry.normalize_retraction_us": per_call("geometry.normalize_retraction"),
        "geometry.shahshahani_gradient_us": per_call("geometry.shahshahani_gradient"),
        "geometry.projection_us": _ratio(
            sum(t for _, t in projection), projection[0][0]) * 1e6,
        "geometry.self_share": _ratio(module_self["geometry"], traced_wall),
        "trace.overhead_share": 1.0 - _ratio(traced_sps, untraced_sps),
        "trace.span_coverage": _ratio(
            sum(s["end"] - s["start"] for s in roots), traced_wall),
        "trace.unattributed_share": _ratio(
            traced_wall - sum(module_self.values()), traced_wall),
        "_traced_wall_s": traced_wall,
        "_module_self_s": module_self,
        "_chain_groups": _chain_groups(lmwu),
    }


def _chain_groups(lmwu: list[dict]) -> dict:
    """Draws per step and clamp rate of the lmwu chains, by objective and beta."""
    groups = {}
    for s in lmwu:
        a = s["attrs"]
        key = f"{a['objective']} beta={a['beta']:g}"
        g = groups.setdefault(key, [0, 0, 0, 0])
        g[0] += a["steps"]
        g[1] += s["leaves"].get("geometry.sample_noise", (0, 0.0))[0]
        g[2] += a["clamped"]
        g[3] += a["failed"]
    return {
        k: {"draws_per_step": _ratio(d, n), "clamp_rate": _ratio(c, n), "failed": f}
        for k, (n, d, c, f) in groups.items()
    }


def per_layer(results: list[dict], names: dict) -> tuple[dict, list[dict], list[str]]:
    """Median of each per-layer metric over the traced cycles of all runs,
    the per-cycle values, and any exact count that did not repeat."""
    cycles = []
    for result in results:
        rates = [cycle_rates(c) for c in result["cycles"] if not c["traced"]]
        untraced = statistics.median([r[0] for r in rates if r] or [0.0])
        for c in result["cycles"]:
            if c["traced"]:
                cycles.append(layer_metrics(c, result["spans"], untraced))
    mismatches = [
        f"{k}: {[c[k] for c in cycles]}" for k in EXACT
        if len({c[k] for c in cycles}) > 1
    ]
    merged = {
        k: summarize([c[k] for c in cycles], names.get(k, ("", "lower"))[1])
        for k in list(names) + list(PRINT_ONLY)
    }
    for k in EXACT:  # counts are reported as counts, not as medians
        merged[k]["median"] = cycles[0][k]
    return merged, cycles, mismatches


# ---------------------------------------------------------------------------
# environment and main
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_thread_env": dict(THREAD_VARS),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "simplex_langevin", "cli.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        e2e_names, layer_names = load_spec()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        panel = None
        if args.workload == "portfolio-rolling":
            panel = os.path.join(workdir, "returns.csv")
            workloads.write_panel(panel, args.seed)
        if args.trace:
            setup = []
            results = [
                run_worker(workdir, args.workload, args.seed, args.seconds / 2, 1,
                           deadline)
                for _ in range(2)
            ]
        else:
            setup = setup_samples(panel, deadline)
            results = [run_worker(workdir, args.workload, args.seed, args.seconds, 0,
                                  deadline)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())
    env["numpy"] = results[0]["numpy"]
    env["program"] = results[0]["program"]

    ops = [op for r in results for c in r["cycles"] for op in c["ops"]]
    failed = [op for op in ops if not op["ok"]]
    # a failed check on an invocation that exited 0 is a wrong output
    wrong = [op for op in failed if op["rc"] == 0]
    correct = not wrong

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {sum(len(r['cycles']) for r in results)}")
    print(f"operations: attempted {len(ops)}, failed {len(failed)}, "
          f"error_rate {len(failed) / len(ops):.4g} (failed/attempted)")
    for op in failed[:6]:
        print(f"  failed op {op['op']} ({op['label']}, exit {op['rc']}, "
              f"{op['wall_s']:.3f}s): {'; '.join(op['problems'])}")

    record = {"args": vars(args), "env": env, "correct": correct,
              "attempted": len(ops), "failed": len(failed)}
    if args.trace:
        merged, cycles, mismatches = per_layer(results, layer_names)
        if mismatches:
            correct = False
            for m in mismatches:
                print(f"  exact count differs between runs: {m}")
        print("per-layer metrics (traced cycles; median, tail, n):")
        units = {k: u for k, (u, _) in layer_names.items()} | PRINT_ONLY
        for name, unit in units.items():
            print(_fmt_stat(name, unit, merged[name]))
        last = cycles[-1]
        print("module self time per traced cycle (s): " + ", ".join(
            f"{m} {t:.4f}" for m, t in last["_module_self_s"].items())
            + f"; traced wall {last['_traced_wall_s']:.4f}, remainder "
            f"{last['_traced_wall_s'] - sum(last['_module_self_s'].values()):.4f}")
        for key, g in last["_chain_groups"].items():
            print(f"  lmwu {key}: draws/step {g['draws_per_step']:.4g}, "
                  f"clamp rate {g['clamp_rate']:.4g}, failed chains {g['failed']}")
        metrics = {k: {"value": merged[k]["median"], "unit": u}
                   for k, (u, _) in layer_names.items()}
        record.update(per_layer_cycles=cycles, spans=[r["spans"] for r in results])
    else:
        e2e = end_to_end(results[0], setup, e2e_names)
        print("end-to-end metrics (untraced; median, tail, n):")
        for name, (unit, _) in e2e_names.items():
            print(_fmt_stat(name, unit, e2e[name]))
        metrics = {k: {"value": e2e[k]["median"], "unit": u}
                   for k, (u, _) in e2e_names.items()}
        record.update(end_to_end=e2e, setup_samples=setup,
                      cycles=results[0]["cycles"])
    print("environment: " + json.dumps(env, sort_keys=True))

    record["correct"] = correct
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)

    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Child process of the benchmark: one fresh interpreter per use.

``worker.py setup SRC [PANEL]``
    times ``import simplex_langevin.cli`` (and ``load_returns`` on PANEL) and
    prints the seconds as JSON.
``worker.py run SRC WORKDIR WORKLOAD SEED SECONDS TRACE``
    runs the workload's invocations in cycles through
    ``simplex_langevin.cli.main``, in this process, until SECONDS have passed,
    checks every output and writes ``result.json`` into WORKDIR. With TRACE
    set, untraced and traced cycles alternate.

Only the standard library is imported before the program import is timed.
"""
import json
import sys
import time


def _setup(src: str, panel: str | None) -> None:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import simplex_langevin.cli  # noqa: F401

    t1 = time.perf_counter()
    load_s = 0.0
    if panel:
        from simplex_langevin.portfolio import load_returns

        load_returns(panel)
        load_s = time.perf_counter() - t1
    print(json.dumps({"import_s": t1 - t0, "load_returns_s": load_s}))


def _run(src, workdir, workload, seed, seconds, trace) -> None:
    import contextlib
    import io
    import os
    import resource
    import shutil

    sys.path.insert(0, src)
    import simplex_langevin
    from simplex_langevin import cli

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import workloads
    from tracing import Tracer

    import numpy

    panel = os.path.join(workdir, "returns.csv")
    ops = workloads.operations(workload, seed, panel)
    tracer = Tracer("simplex_langevin") if trace else None

    cycles = []
    op_id = 0
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(cycles) % 2 == 1
        if traced:
            tracer.install()
        cycle = {"traced": traced, "ops": []}
        cycle_start = time.perf_counter()
        for op in ops:
            op_id += 1
            out_dir = os.path.join(workdir, f"op{op_id}")
            sink = io.StringIO()
            if traced:
                tracer.begin_operation(op_id)
            err = None
            w0 = time.perf_counter()
            c0 = time.process_time()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(op.command(out_dir))
            except Exception as exc:  # a crash is a failed operation
                rc, err = None, f"{type(exc).__name__}: {exc}"
            c1 = time.process_time()
            w1 = time.perf_counter()
            record = {
                "op": op_id, "label": op.label, "rc": rc,
                "wall_s": w1 - w0, "cpu_s": c1 - c0, "steps": op.steps,
            }
            if rc == 0:
                check = workloads.check_output(op, out_dir)
                record.update(
                    ok=check.ok, problems=check.problems[:5],
                    escaped=check.escaped, csv_bytes=check.csv_bytes,
                )
            else:
                tail = sink.getvalue().strip().splitlines()
                record.update(
                    ok=False, problems=[err or (tail[-1] if tail else f"exit {rc}")],
                    escaped=0, csv_bytes=0,
                )
            cycle["ops"].append(record)
            shutil.rmtree(out_dir, ignore_errors=True)
        cycle["wall_s"] = time.perf_counter() - cycle_start
        if traced:
            tracer.uninstall()
        cycles.append(cycle)
        elapsed = time.perf_counter() - started
        mean = elapsed / len(cycles)
        have_both = not trace or len(cycles) >= 2
        if have_both and elapsed >= seconds - mean / 2:
            break

    result = {
        "numpy": numpy.__version__,
        "program": os.path.dirname(simplex_langevin.__file__),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cycles": cycles,
        "spans": tracer.to_records() if tracer else [],
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv) -> int:
    if argv[0] == "setup":
        _setup(argv[1], argv[2] if len(argv) > 2 else None)
    elif argv[0] == "run":
        src, workdir, workload, seed, seconds, trace = argv[1:7]
        _run(src, workdir, workload, int(seed), float(seconds), int(trace))
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

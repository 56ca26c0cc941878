"""Benchmark of the dephimetry CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from src/.
With --trace 0 each invocation is a child `python -m dephimetry ...`, run
one at a time, and the end-to-end metrics are printed.  With --trace 1 the
same argument lists run in-process through dephimetry.cli.main, alternating
untraced and traced, and the per-layer metrics are printed.  Every output is
checked.  The last line of stdout is the result as one JSON object; the line
before it stamps the machine.  Everything the run records, spans included,
goes to bench/out/<workload>-seed<N>-trace<T>/result.json.
"""
from __future__ import annotations

import os

# One BLAS thread here and in every child: on a small shared machine a
# threaded eigendecomposition waits for its slowest core, which makes the
# timings spread several times wider (see bench/README.md).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import check
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREADS_VAR = "DEPHIMETRY_THREADS"

SETUP_REPEATS = 5
# Children still running this long after the start are killed, so that a
# run ends within its 180 s allowance even if the program hangs.
HARD_LIMIT_S = 165.0


class SetupError(RuntimeError):
    pass


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(parent_threads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        THREADS_VAR: "unset" if parent_threads is None else f"{parent_threads!r}, unset for the runs",
    }


def run_child(argv: list[str], env: dict, deadline: float, log: Path) -> dict:
    """Run one child to completion; wall time, exit code and its own peak RSS."""
    with open(log, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "maxrss_mb": usage.ru_maxrss / 1024,
        "stderr": stderr[-2000:],
    }


def timed_loop(seconds: float, run_one) -> list[dict]:
    """Call run_one(index) about seconds / (its wall time) times, at least once:
    another call starts while it would end within half a call of `seconds`."""
    records = []
    start = time.perf_counter()
    while True:
        records.append(run_one(len(records)))
        half = statistics.median(r["wall_s"] for r in records) / 2
        if time.perf_counter() - start + half >= seconds:
            return records


def duplicate_share(points: list[tuple]) -> float:
    """Share of grid points whose (state, n, covariance) repeats an earlier one."""
    seen, repeats = set(), 0
    for state, family, n, alpha, two_beta2 in points:
        key = (state, n, check.covariance(family, n, alpha, two_beta2).tobytes())
        repeats += key in seen
        seen.add(key)
    return repeats / len(points) if points else 0.0


def check_outputs(plan, records: list[dict]) -> None:
    for record in records:
        if record["exit"] != 0:
            record["errors"] = [f"exit code {record['exit']}: {record['stderr']}"]
        else:
            record["errors"] = plan.check(record["index"], Path(record["out"]))


def measure_untraced(plan, seconds: float, workdir: Path, deadline: float):
    env = dict(os.environ)
    env.pop(THREADS_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    log = workdir / "child.err"

    setup_argv = [sys.executable, "-c", "import dephimetry.cli"]
    # The first import byte-compiles the package in a fresh checkout.
    setups = [run_child(setup_argv, env, deadline, log) for _ in range(SETUP_REPEATS + 1)]
    bad = [s for s in setups if s["exit"] != 0]
    if bad:
        raise SetupError(f"`import dephimetry.cli` failed: {bad[0]['stderr']}")
    setup_s = statistics.median(s["wall_s"] for s in setups[1:])

    def run_one(index):
        out = workdir / f"out-{index}"
        argv = [sys.executable, "-m", "dephimetry", *plan.argv(index, out)]
        return {"index": index, "out": str(out), **run_child(argv, env, deadline, log)}

    records = timed_loop(seconds, run_one)
    check_outputs(plan, records)
    wall = statistics.median(r["wall_s"] for r in records)
    metrics = {
        "wall_s": wall,
        "work_per_s": plan.items / wall,
        "peak_rss_mb": max(r["maxrss_mb"] for r in records),
        "setup_s": setup_s,
    }
    return records, metrics, {"setup_runs_s": [s["wall_s"] for s in setups]}


def _call_main(call, argv) -> dict:
    """Run the CLI in-process; an exception is a failed invocation."""
    try:
        code = call(argv)
    except Exception:  # the run goes on and reports the failure
        return {"exit": "exception", "stderr": traceback.format_exc()[-2000:]}
    return {"exit": code, "stderr": ""}


def measure_traced(plan, seconds: float, workdir: Path):
    import dephimetry.cli as cli

    pkg = sys.modules["dephimetry"]
    if Path(pkg.__file__).resolve().parent != (SRC / "dephimetry").resolve():
        raise SetupError(f"dephimetry was imported from {pkg.__file__}, not from {SRC}")
    tracers: list[tracing.Tracer] = []
    missing: list[str] = []
    invocations: list[dict] = []

    def untraced(index):
        out = workdir / f"out-{index}"
        argv = plan.argv(index, out)
        gc.collect()
        start = time.perf_counter()
        outcome = _call_main(cli.main, argv)
        invocations.append({"index": index, "out": str(out), "traced": False,
                            "wall_s": time.perf_counter() - start, **outcome})

    def traced(index):
        out = workdir / f"out-{index}"
        argv = plan.argv(index, out)
        tracer = tracing.Tracer(invocation=index)
        gc.collect()
        with tracing.instrumented(tracer, pkg) as absent:
            outcome = _call_main(lambda a: tracer.call("cli.main", cli.main, (a,)), argv)
        missing[:] = absent
        tracers.append(tracer)
        root = tracer.spans[0]
        invocations.append({"index": index, "out": str(out), "traced": True,
                            "wall_s": root["end"] - root["start"], **outcome})

    def run_pair(pair):
        # Untraced and traced runs alternate, each with its own inputs.
        untraced(2 * pair + 1)
        traced(2 * pair + 2)
        return {"wall_s": invocations[-2]["wall_s"] + invocations[-1]["wall_s"]}

    # A first, untimed run lets lazy set-up and the allocator's caches settle,
    # so that neither side of the overhead comparison pays for them.
    untraced(0)
    invocations[0]["warm_up"] = True
    timed_loop(seconds, run_pair)
    check_outputs(plan, invocations)
    layers = tracing.medians([tracing.summarize(t.spans, duplicate_share) for t in tracers])
    traced_wall = statistics.median(r["wall_s"] for r in invocations if r["traced"])
    untraced_wall = statistics.median(
        r["wall_s"] for r in invocations if not r["traced"] and "warm_up" not in r
    )
    layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    extra = {"missing_names": missing, "spans": [s for t in tracers for s in t.spans]}
    return invocations, layers, extra


def declared_units(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dephimetry" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'dephimetry'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    parent_threads = os.environ.pop(THREADS_VAR, None)
    deadline = time.perf_counter() + HARD_LIMIT_S

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = WORKLOADS[args.workload](args.seed, workdir)
    env = environment(parent_threads)
    try:
        if args.trace:
            invocations, metrics, extra = measure_traced(plan, args.seconds, workdir)
        else:
            invocations, metrics, extra = measure_untraced(plan, args.seconds, workdir, deadline)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 4
    failed = sum(1 for r in invocations if r["errors"])
    for r in invocations:
        for message in r["errors"][:5]:
            print(f"invocation {r['index']}: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "work_per_invocation": f"{plan.items} {plan.items_name}",
        "env": env, "result": result, "invocations": invocations, **extra,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

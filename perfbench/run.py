"""Host-time benchmark of the repro profiler platform.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``workloads.py``):
``tasks_fine``, ``campaign`` and ``record_replay``.  With ``--trace 0``
the run measures the end-to-end metrics with tracing off; with
``--trace 1`` it runs the same workload untraced for half the time and
traced for the other half, and reports the per-layer metrics of
``layers.py`` plus the tracing overhead.  Every operation's output is
checked; a wrong output is a failed operation.  End-to-end times are
host times at reference speed (see ``reference.py``); per-layer times
are raw host times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a readable report.  Each run also writes its full result (and,
traced, its spans) under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: fresh interpreters started per run; setup_s is their median
SETUP_PROBES = 3
#: fresh ``python -m repro --help`` runs per traced run; cli.help_ms is their median
CLI_PROBES = 3
#: samples a tail percentile must leave beyond it
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "cells_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tasks_fine", "campaign", "record_replay"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args, started: str) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
    }


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def run_ops(workload, seconds: float, tracer=None, warmup: bool = False) -> tuple:
    """Closed loop over whole cycles of the workload until ``seconds`` pass.

    Returns ``(warmup_ops, ops)``.  With ``warmup`` one cycle runs before
    the clock starts: its outputs are checked like any other, but its
    times, paid once per process, belong to ``setup_s``.
    """
    import reference
    from workloads import Op

    ref_s = reference.reference_s()

    def one(i):
        nonlocal ref_s
        # Start every operation from the same collector state, so no
        # operation pays for its predecessors' garbage.
        gc.collect()
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            op = workload.op(i)
        except Exception as exc:  # a crashed operation is a failed one
            op = Op(elapsed_s=time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        after_s = reference.reference_s()
        op.ref_s = (ref_s + after_s) / 2
        ref_s = after_s
        return op

    warm = [one(i) for i in range(workload.cycle)] if warmup else []
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(workload.cycle):
            ops.append(one(len(warm) + len(ops)))
        if time.perf_counter() >= deadline:
            return warm, ops


def tail(times_ms: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with
    at least TAIL_SAMPLES samples beyond it, or the maximum of fewer."""
    ordered = sorted(times_ms)
    n = len(ordered)
    index = n - TAIL_SAMPLES - 1 if n > TAIL_SAMPLES else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def fresh_interpreter_s(argv, ready: bytes = b"") -> float:
    """Seconds from starting ``argv`` until it prints ``ready`` (or exits)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        if ready:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            _out, err = proc.communicate(timeout=120)
            if line != ready:
                raise RuntimeError(f"{argv[1]} did not get ready: {err.decode()[-500:]}")
        else:
            _out, err = proc.communicate(timeout=120)
            elapsed = time.perf_counter() - start
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {err.decode()[-500:]}")
    return elapsed


def setup_seconds(workload, seed: int, workdir: str) -> list:
    """Host seconds of each fresh set-up probe."""
    samples = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, os.path.join(HERE, "probe.py"), workload.name, str(seed),
                os.path.join(workdir, f"probe{k}")]
        if getattr(workload, "base_home", None):
            argv.append(workload.base_home)
        samples.append(fresh_interpreter_s(argv, ready=b"ready"))
    return samples


def peak_rss_mb(with_children: bool) -> float:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def end_to_end(workload, ops, setup_samples) -> tuple:
    """End-to-end metrics; every time is at reference speed (reference.py)."""
    import reference

    times_ms = [op.elapsed_s * op.scale * 1e3 for op in ops]
    busy_s = sum(times_ms) / 1e3
    ok = [op for op in ops if op.error is None]
    tail_ms, percentile, beyond = tail(times_ms)
    # A reference timed right after an idle wait for a probe reads slow,
    # so set-up is scaled by the median reference of the operations,
    # which run straight after the probes.
    ref_s = statistics.median(op.ref_s for op in ops)
    metrics = {
        "setup_s": statistics.median(setup_samples) * reference.NOMINAL_S / ref_s,
        "tasks_per_s": sum(op.tasks for op in ok) / busy_s,
        "cells_per_s": sum(op.cells for op in ok) / busy_s,
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(with_children=workload.name == "campaign"),
    }
    raw_ms = [op.elapsed_s * 1e3 for op in ops]
    extra = {
        "fail_ratio": (len(ops) - len(ok)) / len(ops),
        "op_ms_tail_percentile": percentile,
        "op_ms_tail_samples_beyond": beyond,
        "ops": len(ops),
        "ref_ms_p50": ref_s * 1e3,
        "host_setup_s": statistics.median(setup_samples),
        "host_op_ms_p50": statistics.median(raw_ms),
        "host_op_ms_tail": tail(raw_ms)[0],
        "op_ms": times_ms,
        "host_op_ms": raw_ms,
    }
    record_s = sum(op.legs.get("record", 0.0) * op.scale for op in ok)
    if record_s:
        replay_s = sum(op.legs["replay"] * op.scale for op in ok)
        extra["recorded_events_per_s"] = sum(op.counts["recorded"] for op in ok) / record_s
        extra["replayed_events_per_s"] = sum(op.counts["replayed"] for op in ok) / replay_s
    return metrics, extra


def traced(workload, args, tracer, layers) -> tuple:
    cli_ms = 1e3 * statistics.median(
        fresh_interpreter_s([sys.executable, "-m", "repro", "--help"]) for _ in range(CLI_PROBES)
    )
    half = args.seconds / 2.0
    warm, untraced_ops = run_ops(workload, half, warmup=True)
    layers.install(tracer)
    workload.tracer = tracer
    try:
        _, traced_ops = run_ops(workload, half, tracer)
    finally:
        workload.tracer = None
        tracer.uninstall()
    tracer.merge_children()
    overhead = (statistics.median(op.elapsed_s * op.scale for op in traced_ops)
                / statistics.median(op.elapsed_s * op.scale for op in untraced_ops))
    metrics = layers.layer_metrics(tracer, traced_ops, cli_ms, overhead)
    extra = {
        "untraced_ops": len(untraced_ops),
        "traced_ops": len(traced_ops),
        "spans": len(tracer.spans),
        "moves": {name: moves for name, _u, _b, moves in layers.LAYER_METRICS},
    }
    return warm + untraced_ops + traced_ops, metrics, extra


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}-{os.getpid()}"
    workdir = os.path.join(OUT, "work", stamp)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(workdir)
    os.makedirs(results_dir, exist_ok=True)
    # Keep every temporary file of this run, workers included, in the checkout.
    os.environ["TMPDIR"] = workdir

    sys.path.insert(0, HERE)
    import layers
    import workloads
    from tracer import Tracer

    info = environment(args, started)
    tracer = Tracer(child_dir=os.path.join(workdir, "spans")) if args.trace else None
    try:
        os.makedirs(os.path.join(workdir, "ops"))
        workload = workloads.make(args.workload, args.seed, os.path.join(workdir, "ops"))
        if tracer is not None:
            os.makedirs(tracer.child_dir)
            # Trace the pre-fill too: its puts are archive.put_ms_first.
            layers.install(tracer)
            try:
                workload.prepare()
            finally:
                tracer.uninstall()
            tracer.counts.clear()
            ops, metrics, extra = traced(workload, args, tracer, layers)
            units = {name: unit for name, unit, _b, _m in layers.LAYER_METRICS}
        else:
            workload.prepare()
            setup_samples = setup_seconds(workload, args.seed, workdir)
            warm, timed = run_ops(workload, args.seconds, warmup=True)
            metrics, extra = end_to_end(workload, timed, setup_samples)
            ops = warm + timed
            units = END_TO_END_UNITS
        errors = [op.error for op in ops if op.error is not None]
        if tracer is not None:
            tracer.write(os.path.join(results_dir, stamp + "-spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(results_dir, stamp + ".json"), "w", encoding="utf-8") as handle:
        json.dump({"info": info, "result": result, "extra": extra, "errors": errors[:50]},
                  handle, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"sha={info['git_sha'][:12]} python={info['python']} numpy={info['numpy']} "
          f"nproc={info['nproc']} started={info['started']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:32s} {entry['value']:14.4f} {entry['unit']}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"  {name:32s} {value:14.4f}")
    for error in errors[:10]:
        print(f"  FAILED: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics of the traced run: what is wrapped, what is reported.

:data:`LAYER_METRICS` is the one list of per-layer metrics.  Each row
names the end-to-end metric it should move and the workload on which it
does (``moves``); ``BENCHMARK.json`` lists the same names, units and
directions.  Every traced run reports every row: a layer a workload does
not exercise reads 0 there, which is the prediction for that workload.

Times are milliseconds per operation (the span time a layer spent during
the traced operations, divided by their number) unless the unit names
another denominator.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

#: (name, unit, better, moves)
LAYER_METRICS = (
    ("runtime.parallel_ms", "ms/op", "lower", "tasks_per_s and op_ms_p50 on tasks_fine, not cells_per_s"),
    ("runtime.parallel_self_ms", "ms/op", "lower", "tasks_per_s and op_ms_p50 on tasks_fine, not cells_per_s"),
    ("runtime.uninstr_parallel_ms", "ms/op", "lower", "tasks_per_s and op_ms_p50 on tasks_fine, not cells_per_s"),
    ("runtime.tasks", "count/op", "higher", "tasks_per_s on tasks_fine"),
    ("sim.schedule_calls", "count/op", "lower", "tasks_per_s and op_ms_p50 on tasks_fine"),
    ("sim.schedule_calls_per_task", "count/task", "lower", "tasks_per_s and op_ms_p50 on tasks_fine"),
    ("instrument.events", "count/op", "lower", "tasks_per_s on tasks_fine"),
    ("instrument.flushes", "count/op", "lower", "tasks_per_s on tasks_fine"),
    ("instrument.events_per_flush", "count", "higher", "tasks_per_s on tasks_fine"),
    ("substrates.dispatch_ms", "ms/op", "lower", "tasks_per_s on tasks_fine; op_ms_p50 on record_replay"),
    ("profiling.consume_ms", "ms/op", "lower", "tasks_per_s on tasks_fine; op_ms_p50 on record_replay"),
    ("profiling.build_ms", "ms/op", "lower", "tasks_per_s on tasks_fine"),
    ("bots.build_ms", "ms/op", "lower", "op_ms_p50 on tasks_fine"),
    ("bots.verify_ms", "ms/op", "lower", "op_ms_p50 on tasks_fine"),
    ("cube.export_ms", "ms/op", "lower", "op_ms_p50 on campaign and record_replay"),
    ("archive.put_ms_first", "ms/put", "lower", "cells_per_s and op_ms_tail on campaign"),
    ("archive.put_ms_last", "ms/put", "lower", "cells_per_s and op_ms_tail on campaign"),
    ("archive.put_growth", "ratio", "lower", "cells_per_s and op_ms_tail on campaign"),
    ("archive.index_runs", "count", "higher", "cells_per_s and op_ms_tail on campaign"),
    ("archive.load_ms", "ms/op", "lower", "cells_per_s and op_ms_tail on campaign"),
    ("archive.records_ms", "ms/op", "lower", "cells_per_s and op_ms_tail on campaign"),
    ("archive.sentinel_ms", "ms/op", "lower", "cells_per_s and op_ms_tail on campaign"),
    ("supervisor.run_ms", "ms/op", "lower", "cells_per_s on campaign"),
    ("supervisor.cell_overhead_ms", "ms/cell", "lower", "cells_per_s on campaign"),
    ("service.setup_ms", "ms/op", "lower", "setup_s and op_ms_p50 on campaign"),
    ("service.submit_ms", "ms/op", "lower", "setup_s and op_ms_p50 on campaign"),
    ("service.claim_ms", "ms/op", "lower", "setup_s and op_ms_p50 on campaign"),
    ("service.queue_wait_ms", "ms/campaign", "lower", "setup_s and op_ms_p50 on campaign"),
    ("service.ledger_records", "count/op", "lower", "setup_s and op_ms_p50 on campaign"),
    ("recorder.record_ms", "ms/op", "lower", "op_ms_p50 on record_replay, not tasks_per_s on tasks_fine"),
    ("recorder.read_ms", "ms/op", "lower", "op_ms_p50 on record_replay, not tasks_per_s on tasks_fine"),
    ("recorder.replay_ms", "ms/op", "lower", "op_ms_p50 on record_replay, not tasks_per_s on tasks_fine"),
    ("recorder.verify_ms", "ms/op", "lower", "op_ms_p50 on record_replay, not tasks_per_s on tasks_fine"),
    ("recorder.records", "count/op", "higher", "op_ms_p50 on record_replay"),
    ("recorder.bytes_per_record", "B", "lower", "op_ms_p50 on record_replay"),
    ("recorder.recorded_events_per_s", "1/s", "higher", "op_ms_p50 on record_replay"),
    ("recorder.replayed_events_per_s", "1/s", "higher", "op_ms_p50 on record_replay"),
    ("cli.help_ms", "ms", "lower", "setup_s on every workload"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced / untraced op_ms_p50 of this run"),
)

#: span name -> the per-op time metric it feeds
SPAN_METRICS = {
    "runtime.parallel": "runtime.parallel_ms",
    "runtime.uninstr_parallel": "runtime.uninstr_parallel_ms",
    "substrates.dispatch": "substrates.dispatch_ms",
    "profiling.consume": "profiling.consume_ms",
    "profiling.build": "profiling.build_ms",
    "bots.build": "bots.build_ms",
    "bots.verify": "bots.verify_ms",
    "cube.export": "cube.export_ms",
    "archive.load": "archive.load_ms",
    "archive.records": "archive.records_ms",
    "archive.sentinel": "archive.sentinel_ms",
    "supervisor.run": "supervisor.run_ms",
    "service.setup": "service.setup_ms",
    "service.submit": "service.submit_ms",
    "service.claim": "service.claim_ms",
    "recorder.record": "recorder.record_ms",
    "recorder.read": "recorder.read_ms",
    "recorder.replay": "recorder.replay_ms",
    "recorder.verify": "recorder.verify_ms",
}


def install(tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.archive.store import ArchiveStore
    from repro.instrument.layer import BatchedInstrumentationLayer
    from repro.profiling.task_profiler import TaskProfiler
    from repro.runtime.runtime import OpenMPRuntime
    from repro.service.gateway import Gateway
    from repro.sim.core import Environment
    from repro.substrates.manager import SubstrateManager
    from repro.substrates.recorder import RecorderSubstrate
    from repro.supervisor.supervisor import Supervisor

    def parallel_name(args):
        return "runtime.parallel" if args[0].config.instrument else "runtime.uninstr_parallel"

    def parallel_done(t, args, result):
        t.count("runtime.tasks", result.completed_tasks)

    def flush_begin(t, args):
        events = len(args[0].batch.codes)
        if events:
            t.count("instrument.flushes")
            t.count("instrument.events", events)

    def program_built(t, args, program):
        program.verify = t.traced(program.verify, "bots.verify")

    def supervisor_done(t, args, report):
        supervisor = args[0]
        busy_s = sum(result.duration_s for result in report.results)
        t.count("supervisor.cells", len(report.results))
        t.count("supervisor.cell_busy_ms", busy_s * 1e3 / max(1, supervisor.jobs))

    def records_done(t, args, records):
        t.counts["archive.index_runs"] = max(t.counts["archive.index_runs"], len(records))

    tracer.wrap_method(OpenMPRuntime, "parallel", parallel_name, after=parallel_done)
    tracer.wrap_method(Environment, "schedule", "sim.schedule_calls", span=False)
    tracer.wrap_method(BatchedInstrumentationLayer, "flush", "instrument.flush", before=flush_begin, span=False)
    tracer.wrap_method(SubstrateManager, "on_batch", "substrates.dispatch")
    tracer.wrap_method(TaskProfiler, "on_batch", "profiling.consume")
    tracer.wrap_method(TaskProfiler, "build_profile", "profiling.build")
    tracer.wrap_function("repro.bots.registry", "get_program", "bots.build", after=program_built)
    tracer.wrap_function("repro.cube.export", "profile_to_dict", "cube.export")
    tracer.wrap_function("repro.archive.store", "canonical_profile_bytes", "cube.export")
    tracer.wrap_method(ArchiveStore, "put", "archive.put")
    tracer.wrap_method(ArchiveStore, "load_profile", "archive.load")
    tracer.wrap_method(ArchiveStore, "records", "archive.records", after=records_done)
    tracer.wrap_function("repro.archive.sentinel", "compare_to_baseline", "archive.sentinel")
    tracer.wrap_method(Supervisor, "run", "supervisor.run", after=supervisor_done)
    tracer.wrap_method(Gateway, "__init__", "service.setup")
    tracer.wrap_method(Gateway, "submit", "service.submit")
    tracer.wrap_method(Gateway, "claim", "service.claim")
    tracer.wrap_method(RecorderSubstrate, "on_batch", "recorder.record")
    tracer.wrap_function("repro.recorder.chunks", "read_records", "recorder.read")
    tracer.wrap_function("repro.recorder.replay", "replay_recording", "recorder.replay")
    tracer.wrap_function("repro.recorder.replay", "verify_recording", "recorder.verify")
    tracer.wrap_worker_entry("repro.supervisor.supervisor", "worker_main")


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced_ops, cli_help_ms: float, overhead_ratio: float) -> Dict[str, float]:
    """Reduce the spans of the traced operations to :data:`LAYER_METRICS`."""
    n_ops = max(1, len(traced_ops))
    op_ids = set(range(len(traced_ops)))
    totals = tracer.totals(op_ids)
    counts = tracer.counts
    values: Dict[str, float] = {name: 0.0 for name, *_ in LAYER_METRICS}
    for span, metric in SPAN_METRICS.items():
        values[metric] = totals[span]["ms"] / n_ops if span in totals else 0.0
    if "runtime.parallel" in totals:
        values["runtime.parallel_self_ms"] = totals["runtime.parallel"]["self_ms"] / n_ops
    values["runtime.tasks"] = counts["runtime.tasks"] / n_ops
    values["sim.schedule_calls"] = counts["sim.schedule_calls"] / n_ops
    values["sim.schedule_calls_per_task"] = _ratio(counts["sim.schedule_calls"], counts["runtime.tasks"])
    values["instrument.events"] = counts["instrument.events"] / n_ops
    values["instrument.flushes"] = counts["instrument.flushes"] / n_ops
    values["instrument.events_per_flush"] = _ratio(counts["instrument.events"], counts["instrument.flushes"])

    # Puts in start order over the whole run, pre-fill included: the
    # first tenth lands on a near-empty index, the last on a full one.
    puts = sorted((span[1], span[2] - span[1]) for span in tracer.spans if span[0] == "archive.put")
    tenth = len(puts) // 10
    if tenth:
        values["archive.put_ms_first"] = _mean([d for _, d in puts[:tenth]]) / 1e6
        values["archive.put_ms_last"] = _mean([d for _, d in puts[-tenth:]]) / 1e6
        values["archive.put_growth"] = _ratio(values["archive.put_ms_last"], values["archive.put_ms_first"])
    values["archive.index_runs"] = counts["archive.index_runs"]
    values["supervisor.cell_overhead_ms"] = _ratio(
        values["supervisor.run_ms"] * n_ops - counts["supervisor.cell_busy_ms"], counts["supervisor.cells"]
    )
    values["service.queue_wait_ms"] = _mean(tracer.samples["service.queue_wait_ms"])
    values["service.ledger_records"] = _mean(tracer.samples["service.ledger_records"])
    values["recorder.records"] = _mean(tracer.samples["recorder.records"])
    values["recorder.bytes_per_record"] = _mean(tracer.samples["recorder.bytes_per_record"])
    record_s = sum(op.legs.get("record", 0.0) for op in traced_ops)
    replay_s = sum(op.legs.get("replay", 0.0) for op in traced_ops)
    values["recorder.recorded_events_per_s"] = _ratio(sum(op.counts.get("recorded", 0) for op in traced_ops), record_s)
    values["recorder.replayed_events_per_s"] = _ratio(sum(op.counts.get("replayed", 0) for op in traced_ops), replay_s)
    values["cli.help_ms"] = cli_help_ms
    values["trace.overhead_ratio"] = overhead_ratio
    return values

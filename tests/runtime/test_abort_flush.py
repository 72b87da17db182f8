"""An aborted parallel region hands its pending events to the substrates.

Events wait in the instrumentation layer's batch until a flush.  When
the simulated run dies -- a task raises, or the watchdog fires -- the
events emitted so far are everything crash salvage can rebuild from, so
they must reach the tracing substrate (and a recorder) before the error
propagates.
"""

import pytest

from repro.bots.registry import get_program
from repro.errors import FaultInjectionError, SubstrateError, WatchdogTimeout
from repro.faults import plan_for_mode, run_tolerant
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import OpenMPRuntime
from repro.substrates.base import Substrate

ABORTS = [
    ("task_exception", None, FaultInjectionError),
    ("stuck_task", 1e5, WatchdogTimeout),
]


@pytest.mark.parametrize("mode,watchdog_us,error", ABORTS)
def test_aborted_run_traces_every_dispatched_event(mode, watchdog_us, error):
    program = get_program("fib", size="test")
    runtime = OpenMPRuntime(RuntimeConfig(
        n_threads=2, instrument=True, record_events=True, seed=0,
        fault_plan=plan_for_mode(mode, seed=0), watchdog_us=watchdog_us,
    ))
    with pytest.raises(error):
        runtime.parallel(program.body, name=program.label)
    assert runtime.instr.events_dispatched > 0
    assert runtime.trace.total_events() == runtime.instr.events_dispatched
    assert not runtime.instr.batch.codes


@pytest.mark.parametrize("mode,watchdog_us,error", ABORTS)
def test_crash_salvage_rebuilds_from_the_pending_events(mode, watchdog_us, error):
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        plan=plan_for_mode(mode, seed=0), watchdog_us=watchdog_us,
    )
    assert outcome.status == "partial" and outcome.ok
    assert error.__name__ in outcome.salvage.run_error
    assert outcome.salvage.events_seen > 0


class _FailingBatches(Substrate):
    """An essential substrate whose every batch raises."""

    name = "failing"
    essential = True

    def __init__(self):
        self.batches = 0

    def on_batch(self, batch):
        self.batches += 1
        raise SubstrateError(f"batch {self.batches} refused")


def _fib_runtime(substrate, **config):
    runtime = OpenMPRuntime(RuntimeConfig(
        n_threads=2, instrument=True, seed=0,
        substrates=("profiling", substrate), **config,
    ))
    return runtime, get_program("fib", size="test")


def test_batch_whose_dispatch_raised_is_not_dispatched_again():
    substrate = _FailingBatches()
    runtime, program = _fib_runtime(substrate, batch_flush_threshold=1)
    with pytest.raises(SubstrateError, match="batch 1 refused"):
        runtime.parallel(program.body, name=program.label)
    assert substrate.batches == 1


def test_failing_abort_flush_keeps_the_run_error():
    substrate = _FailingBatches()
    runtime, program = _fib_runtime(
        substrate, fault_plan=plan_for_mode("task_exception", seed=0)
    )
    with pytest.raises(FaultInjectionError):
        runtime.parallel(program.body, name=program.label)
    assert substrate.batches == 1

"""The exact text of the kernel's blocked-process diagnostics.

``DeadlockError`` and ``WatchdogTimeout`` name every process still
blocked and what it waits on.  The strings below are pinned verbatim:
the descriptions are formatted only when a report asks for them, and
that must not change a character of what a user reads.
"""

import pytest

from repro.bots.registry import get_program
from repro.errors import DeadlockError, WatchdogTimeout
from repro.faults import plan_for_mode
from repro.runtime import OpenMPRuntime, RuntimeConfig, ZERO_COST
from repro.runtime.runtime import run_parallel
from repro.sim import Environment, Process, SimLock, Timeout


def _unreleased_critical(ctx):
    yield ctx.critical("zone")
    if ctx.thread_id == 0:
        return  # thread 0 never releases
    yield ctx.end_critical("zone")


@pytest.mark.parametrize("instrument", [False, True])
def test_critical_deadlock_message(instrument):
    config = RuntimeConfig(n_threads=2, instrument=instrument, costs=ZERO_COST)
    with pytest.raises(DeadlockError) as excinfo:
        run_parallel(_unreleased_critical, config=config)
    assert str(excinfo.value) == (
        "event queue drained with 2 process(es) still blocked: "
        "thread-0 waiting on event; thread-1 waiting on <acquire critical@zone>"
    )


def test_kernel_deadlock_message_lists_lock_and_event_waiters_sorted():
    env = Environment()
    lock = SimLock(env, "pool")
    never = env.event()

    def holder():
        yield lock.acquire()
        yield Timeout(1.0)  # returns still holding the lock

    def waiter():
        yield Timeout(0.5)
        yield lock.acquire()

    def listener():
        yield never

    Process(env, holder(), name="holder")
    Process(env, waiter(), name="waiter")
    Process(env, listener(), name="listener")
    with pytest.raises(DeadlockError) as excinfo:
        env.run()
    assert str(excinfo.value) == (
        "event queue drained with 2 process(es) still blocked: "
        "listener waiting on event; waiter waiting on <acquire pool>"
    )
    assert env.blocked_report() == (
        "listener waiting on event; waiter waiting on <acquire pool>"
    )


def test_blocked_report_is_none_when_nothing_waits():
    env = Environment()

    def ticker():
        yield Timeout(1.0)

    Process(env, ticker(), name="ticker")
    assert env.blocked_report() == "<none>"
    env.run()
    assert env.blocked_report() == "<none>"


def test_watchdog_message_names_the_event_waiter():
    program = get_program("fib", size="test")
    runtime = OpenMPRuntime(RuntimeConfig(
        n_threads=2, instrument=True, seed=0,
        fault_plan=plan_for_mode("stuck_task", seed=0), watchdog_us=1e5,
    ))
    with pytest.raises(WatchdogTimeout) as excinfo:
        runtime.parallel(program.body, name=program.label)
    assert str(excinfo.value) == (
        "parallel region 'fib/cutoff' exceeded its watchdog deadline of "
        "100000 virtual µs with 1 event(s) still queued "
        "(blocked: thread-0 waiting on event)"
    )
    assert runtime.env.pending() == 1
    assert runtime.env.now == 1e5


def test_watchdog_message_names_the_lock_waiter():
    def hog(ctx):
        yield ctx.critical("zone")
        yield ctx.compute(1e9 if ctx.thread_id == 0 else 1.0)
        yield ctx.end_critical("zone")

    runtime = OpenMPRuntime(RuntimeConfig(
        n_threads=2, instrument=False, costs=ZERO_COST, watchdog_us=1e5,
    ))
    with pytest.raises(WatchdogTimeout) as excinfo:
        runtime.parallel(hog, name="hog")
    assert str(excinfo.value) == (
        "parallel region 'hog' exceeded its watchdog deadline of 100000 "
        "virtual µs with 1 event(s) still queued "
        "(blocked: thread-1 waiting on <acquire critical@zone>)"
    )
    assert runtime.env.pending() == 1

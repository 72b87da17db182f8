"""Unit tests for the simulation kernel: environment, events, time."""

import pytest

from repro.errors import DeadlockError, ProcessError
from repro.sim import Environment, Process, Timeout


def test_empty_environment_runs_to_zero():
    env = Environment()
    assert env.run() == 0.0
    assert env.now == 0.0


def test_schedule_orders_by_time():
    env = Environment()
    order = []
    env.schedule(5.0, lambda v: order.append(v), "b")
    env.schedule(1.0, lambda v: order.append(v), "a")
    env.schedule(9.0, lambda v: order.append(v), "c")
    env.run()
    assert order == ["a", "b", "c"]
    assert env.now == 9.0


def test_simultaneous_events_fifo_by_insertion():
    env = Environment()
    order = []
    for tag in ("first", "second", "third"):
        env.schedule(2.0, lambda v: order.append(v), tag)
    env.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.schedule(-1.0, lambda v: None)


def test_run_until_pauses_and_resumes():
    env = Environment()
    seen = []
    env.schedule(1.0, seen.append, 1)
    env.schedule(10.0, seen.append, 10)
    env.run(until=5.0)
    assert seen == [1]
    assert env.now == 5.0
    env.run()
    assert seen == [1, 10]
    assert env.now == 10.0


def test_run_until_before_now_is_rejected_and_changes_nothing():
    env = Environment()
    seen = []
    env.schedule(10.0, seen.append, 10)
    env.schedule(20.0, seen.append, 20)
    env.run(until=12.0)
    with pytest.raises(ValueError, match="earlier than the current time"):
        env.run(until=5.0)
    assert env.now == 12.0 and env.pending() == 1 and seen == [10]
    env.run(until=12.0)  # until == now stays valid
    assert env.now == 12.0 and seen == [10]
    env.run()
    assert seen == [10, 20] and env.now == 20.0


def test_process_timeout_advances_clock():
    env = Environment()

    def body():
        yield Timeout(3.0)
        yield Timeout(4.0)
        return "done"

    proc = Process(env, body())
    env.run()
    assert proc.done
    assert proc.value == "done"
    assert env.now == 7.0


def test_process_return_value_triggers_terminated_event():
    env = Environment()

    def child():
        yield Timeout(2.0)
        return 42

    results = []

    def parent():
        value = yield proc.terminated
        results.append(value)

    proc = Process(env, child())
    Process(env, parent())
    env.run()
    assert results == [42]


def test_waiting_on_already_terminated_process():
    env = Environment()

    def child():
        yield Timeout(1.0)
        return "early"

    proc = Process(env, child())

    def late_parent():
        yield Timeout(5.0)
        value = yield proc.terminated
        return value

    late = Process(env, late_parent())
    env.run()
    assert late.value == "early"
    assert env.now == 5.0


def test_event_trigger_wakes_all_waiters_with_value():
    env = Environment()
    event = env.event()
    got = []

    def waiter(tag):
        value = yield event
        got.append((tag, value, env.now))

    Process(env, waiter("a"))
    Process(env, waiter("b"))
    env.schedule(4.0, lambda _: event.trigger("payload"))
    env.run()
    assert got == [("a", "payload", 4.0), ("b", "payload", 4.0)]


def test_event_double_trigger_raises():
    env = Environment()
    event = env.event()
    event.trigger()
    with pytest.raises(RuntimeError):
        event.trigger()


def test_deadlock_detection_reports_stuck_process():
    env = Environment()
    event = env.event()  # never triggered

    def stuck():
        yield event

    Process(env, stuck(), name="stuck-proc")
    with pytest.raises(DeadlockError, match="stuck-proc"):
        env.run()


def test_process_exception_wrapped_with_original_chained():
    env = Environment()

    def bad():
        yield Timeout(1.0)
        raise ValueError("boom")

    Process(env, bad(), name="bad-proc")
    with pytest.raises(ProcessError, match="boom") as excinfo:
        env.run()
    assert "bad-proc" in str(excinfo.value)
    # The original exception (and hence its traceback) is always chained.
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_library_errors_propagate_with_type_intact():
    from repro.errors import RuntimeModelError

    env = Environment()

    def bad():
        yield Timeout(1.0)
        raise RuntimeModelError("misuse")

    Process(env, bad(), name="model-proc")
    with pytest.raises(RuntimeModelError, match="misuse") as excinfo:
        env.run()
    assert any("model-proc" in note for note in excinfo.value.__notes__)


def test_system_exit_escapes_unwrapped():
    env = Environment()

    def bail():
        yield Timeout(1.0)
        raise SystemExit(3)

    Process(env, bail(), name="bail-proc")
    with pytest.raises(SystemExit):
        env.run()


def test_yielding_garbage_is_an_error():
    env = Environment()

    def confused():
        yield "not a request"

    Process(env, confused(), name="confused")
    with pytest.raises(ProcessError, match="unsupported request"):
        env.run()


def test_two_processes_interleave_deterministically():
    env = Environment()
    trace = []

    def ticker(name, period, count):
        for _ in range(count):
            yield Timeout(period)
            trace.append((name, env.now))

    Process(env, ticker("fast", 1.0, 3))
    Process(env, ticker("slow", 2.0, 2))
    env.run()
    # At t=2.0 both processes wake; "slow" scheduled its wakeup at t=0,
    # before "fast" scheduled its own at t=1, so insertion order puts
    # slow first -- the deterministic tie-break rule.
    assert trace == [
        ("fast", 1.0),
        ("slow", 2.0),
        ("fast", 2.0),
        ("fast", 3.0),
        ("slow", 4.0),
    ]


def test_timeout_rejects_negative():
    with pytest.raises(ValueError):
        Timeout(-0.5)

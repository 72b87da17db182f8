"""Stream repair and replay: the offline half of the salvage pipeline."""

from types import SimpleNamespace

import pytest

from repro.errors import StreamRepairError
from repro.events import (
    EnterEvent,
    ExitEvent,
    RegionRegistry,
    RegionType,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    repair_stream,
    repair_streams,
    replay_events,
    replay_trace,
)
from repro.events.batch import K_ENTER, K_EXIT, KIND_NAMES
from repro.events.model import implicit_instance_id
from repro.events.validate import collect_task_stream_violations

IMPL = implicit_instance_id(0)


@pytest.fixture()
def regions():
    reg = RegionRegistry()
    return {
        "task": reg.register("taskA", RegionType.TASK),
        "foo": reg.register("foo", RegionType.FUNCTION),
    }


def clean_stream(regions):
    task = regions["task"]
    return [
        EnterEvent(0, 0.0, IMPL, regions["foo"]),
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        TaskEndEvent(0, 2.0, 1, task, instance=1),
        ExitEvent(0, 3.0, IMPL, regions["foo"]),
    ]


def assert_consistent(events):
    """The repaired stream must satisfy the strict task-aware rules."""
    _, violations = collect_task_stream_violations(events, thread_id=0)
    assert violations == []


def test_clean_stream_passes_through_untouched(regions):
    events = clean_stream(regions)
    result = repair_stream(events, thread_id=0)
    assert result.events == events
    assert not result.log.touched
    assert result.log.summary() == "stream clean: no repairs needed"


def test_clock_skew_is_clamped_monotone(regions):
    foo = regions["foo"]
    events = [
        EnterEvent(0, 5.0, IMPL, foo),
        ExitEvent(0, 3.0, IMPL, foo),  # skewed backwards
    ]
    result = repair_stream(events, thread_id=0)
    times = [e.time for e in result.events]
    assert times == sorted(times)
    assert result.log.clamped == 1
    assert_consistent(result.events)


def test_duplicate_lifecycle_events_are_dropped(regions):
    task = regions["task"]
    events = [
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        TaskBeginEvent(0, 1.5, 1, task, instance=1),  # duplicated
        TaskEndEvent(0, 2.0, 1, task, instance=1),
        TaskEndEvent(0, 2.5, 1, task, instance=1),    # duplicated
    ]
    result = repair_stream(events, thread_id=0)
    assert result.log.dropped == 2
    assert 1 in result.log.quarantined
    assert_consistent(result.events)


def test_missing_switch_is_synthesized(regions):
    task = regions["task"]
    events = [
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        TaskBeginEvent(0, 2.0, 2, task, instance=2),
        # the TaskSwitch back to instance 1 was lost:
        TaskEndEvent(0, 3.0, 1, task, instance=1),
        TaskSwitchEvent(0, 4.0, 2, instance=2),
        TaskEndEvent(0, 5.0, 2, task, instance=2),
    ]
    result = repair_stream(events, thread_id=0)
    kinds = [type(e).__name__ for e in result.events]
    assert kinds.count("TaskSwitchEvent") == 2  # one synthesized
    assert result.log.synthesized == 1
    assert_consistent(result.events)


def test_truncated_stream_gets_synthesized_closure(regions):
    task, foo = regions["task"], regions["foo"]
    events = [
        TaskBeginEvent(0, 1.0, 1, task, instance=1),
        EnterEvent(0, 2.0, 1, foo),
        # ... truncated: no exit, no TaskEnd
    ]
    result = repair_stream(events, thread_id=0)
    assert isinstance(result.events[-1], TaskEndEvent)
    assert result.log.synthesized == 2  # exit foo + TaskEnd
    assert "synthesized TaskEnd for instance 1" in result.log.notes
    assert_consistent(result.events)


def test_exit_for_never_entered_region_is_dropped(regions):
    events = [ExitEvent(0, 1.0, IMPL, regions["foo"])]
    result = repair_stream(events, thread_id=0)
    assert result.events == []
    assert result.log.dropped == 1


def test_unknown_event_type_is_unrepairable():
    with pytest.raises(StreamRepairError, match="SimpleNamespace"):
        repair_stream([SimpleNamespace(time=1.0)], thread_id=0)


def test_repair_streams_merges_per_thread_logs(regions):
    task = regions["task"]
    impl1 = implicit_instance_id(1)
    streams = {
        0: [TaskEndEvent(0, 1.0, 9, task, instance=9)],  # orphan end
        1: [ExitEvent(1, 1.0, impl1, regions["foo"])],   # orphan exit
    }
    repaired, log = repair_streams(streams)
    assert repaired[0] == [] and repaired[1] == []
    assert log.dropped == 2
    assert log.quarantined == {9}
    assert log.events_in == 2 and log.events_out == 0


class _CallRecorder:
    """Records every replayed batch row, then the finish time."""

    def __init__(self):
        self.calls = []

    def on_batch(self, batch):
        for kind, thread_id, region, time, instance, _ in batch.rows():
            what = region if kind in (K_ENTER, K_EXIT) else instance
            self.calls.append((KIND_NAMES[kind], thread_id, what, time))

    def on_finish(self, time):
        self.calls.append(("finish", time))


def test_replay_dispatches_in_order_and_finishes(regions):
    listener = _CallRecorder()
    end = replay_events(clean_stream(regions), listener)
    assert end == 3.0
    assert listener.calls == [
        ("enter", 0, regions["foo"], 0.0),
        ("task_begin", 0, 1, 1.0),
        ("task_end", 0, 1, 2.0),
        ("exit", 0, regions["foo"], 3.0),
        ("finish", 3.0),
    ]


def test_replay_trace_merges_thread_streams(regions):
    impl1 = implicit_instance_id(1)
    streams = {
        0: [
            EnterEvent(0, 0.0, IMPL, regions["foo"]),
            ExitEvent(0, 4.0, IMPL, regions["foo"]),
        ],
        1: [
            EnterEvent(1, 1.0, impl1, regions["foo"]),
            ExitEvent(1, 2.0, impl1, regions["foo"]),
        ],
    }
    listener = _CallRecorder()
    replay_trace(streams, listener, finish_time=10.0)
    times = [call[-1] for call in listener.calls]
    assert times == [0.0, 1.0, 2.0, 4.0, 10.0]

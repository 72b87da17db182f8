"""The instrumentation layer: fill, flush boundaries, counts.

Pins the producer half of the columnar hot path:

* ``events_dispatched`` counts individual events, not flushes, and the
  drained stream is exactly the event sequence that was filled;
* :class:`RegionFilter` accounting: suppressed counts are exact and
  filtered events never reach the batch;
* every flush boundary: hard capacity, scheduling-point enter past the
  soft threshold, task lifecycle soft flushes, and the structural
  phase/finish drains;
* payload round-trip through the packed columns.
"""

import pytest

from repro.events.batch import (
    K_ENTER,
    K_EXIT,
    K_METRIC,
    K_TASK_BEGIN,
    K_TASK_END,
)
from repro.events.regions import RegionRegistry, RegionType
from repro.instrument.filtering import RegionFilter
from repro.instrument.layer import InstrumentationLayer


class CollectingListener:
    """Collects the decoded batches, phase markers and the finish."""

    def __init__(self):
        self.calls = []
        self.flushes = 0

    def on_phase_begin(self, name):
        self.calls.append(("phase_begin", name))

    def on_phase_end(self, name):
        self.calls.append(("phase_end", name))

    def on_finish(self, time):
        self.calls.append(("finish", time))

    def on_batch(self, batch):
        self.flushes += 1
        for kind, thread_id, region, time, instance, payload in batch.rows():
            if kind == K_ENTER:
                self.calls.append(("enter", thread_id, region, time, payload))
            elif kind == K_TASK_BEGIN:
                self.calls.append(("task_begin", thread_id, region, instance, time, payload))
            elif kind == K_METRIC:
                self.calls.append(("metric", thread_id, payload, time))
            elif kind == K_EXIT:
                self.calls.append(("exit", thread_id, region, time))
            elif kind == K_TASK_END:
                self.calls.append(("task_end", thread_id, region, instance, time))
            else:
                self.calls.append(("task_switch", thread_id, instance, time))


@pytest.fixture
def regions():
    reg = RegionRegistry()
    return reg, {
        "main": reg.register("main", RegionType.FUNCTION),
        "f": reg.register("f", RegionType.FUNCTION),
        "task": reg.register("task", RegionType.TASK),
        "wait": reg.register("taskwait", RegionType.TASKWAIT),
    }


def _drive(layer, r):
    """One representative event sequence through any layer."""
    layer.enter(0, r["main"], 0.0)
    layer.enter(0, r["f"], 1.0, parameter=("n", 5))
    layer.task_begin(1, r["task"], 9, 2.0, parameter=("n", 3))
    layer.metric(1, {"spawned": 1}, 2.5)
    layer.task_switch(1, -2, 3.0)
    layer.task_end(1, r["task"], 9, 4.0)
    layer.enter(0, r["wait"], 5.0)
    layer.exit(0, r["wait"], 6.0)
    layer.exit(0, r["f"], 7.0)
    layer.exit(0, r["main"], 8.0)
    layer.finish(9.0)


# ----------------------------------------------------------------------
# Event counts and the drained stream
# ----------------------------------------------------------------------
def test_events_dispatched_and_stream_parity(regions):
    reg, r = regions
    listener = CollectingListener()
    layer = InstrumentationLayer(listener=listener, registry=reg)

    _drive(layer, r)

    assert layer.events_dispatched == 9  # the metric is not counted
    assert listener.calls == [
        ("enter", 0, r["main"], 0.0, None),
        ("enter", 0, r["f"], 1.0, ("n", 5)),
        ("task_begin", 1, r["task"], 9, 2.0, ("n", 3)),
        ("metric", 1, {"spawned": 1}, 2.5),
        ("task_switch", 1, -2, 3.0),
        ("task_end", 1, r["task"], 9, 4.0),
        ("enter", 0, r["wait"], 5.0, None),
        ("exit", 0, r["wait"], 6.0),
        ("exit", 0, r["f"], 7.0),
        ("exit", 0, r["main"], 8.0),
        ("finish", 9.0),
    ]


def test_filter_parity_and_suppressed_counts(regions):
    reg, r = regions
    for region_filter in (
        RegionFilter(exclude=("taskwait",)),
        RegionFilter(exclude_types=(RegionType.TASKWAIT,)),
    ):
        listener = CollectingListener()
        layer = InstrumentationLayer(
            listener=listener, region_filter=region_filter, registry=reg
        )
        _drive(layer, r)

        assert layer.filter.suppressed == 2
        assert layer.events_dispatched == 7
        # the filtered region never reaches the drained stream
        assert all(
            call[2] is not r["wait"]
            for call in listener.calls
            if call[0] in ("enter", "exit")
        )


def test_disabled_layer_is_a_noop(regions):
    reg, r = regions
    listener = CollectingListener()
    layer = InstrumentationLayer(enabled=False, listener=listener, registry=reg)
    _drive(layer, r)
    layer.flush()
    assert layer.events_dispatched == 0
    assert not listener.calls and not layer.batch.codes


# ----------------------------------------------------------------------
# Flush boundaries
# ----------------------------------------------------------------------
def test_capacity_hard_flush(regions):
    reg, r = regions
    listener = CollectingListener()
    layer = InstrumentationLayer(
        listener=listener, registry=reg, flush_threshold=4, capacity=4
    )
    for i in range(3):
        layer.enter(0, r["f"], float(i))
    assert listener.flushes == 0  # FUNCTION is not a scheduling point
    layer.enter(0, r["f"], 3.0)  # 4th event hits capacity
    assert listener.flushes == 1
    assert not layer.batch.codes


def test_scheduling_point_enter_soft_flush(regions):
    reg, r = regions
    listener = CollectingListener()
    layer = InstrumentationLayer(
        listener=listener, registry=reg, flush_threshold=2, capacity=100
    )
    layer.enter(0, r["f"], 0.0)
    layer.enter(0, r["f"], 1.0)  # past threshold, but not a sched point
    assert listener.flushes == 0
    layer.enter(0, r["wait"], 2.0)  # TASKWAIT enter drains
    assert listener.flushes == 1


@pytest.mark.parametrize("event", ["task_begin", "task_end", "task_switch"])
def test_task_lifecycle_soft_flush(regions, event):
    reg, r = regions
    listener = CollectingListener()
    layer = InstrumentationLayer(
        listener=listener, registry=reg, flush_threshold=2, capacity=100
    )
    layer.enter(0, r["f"], 0.0)
    if event == "task_begin":
        layer.task_begin(1, r["task"], 5, 1.0)
    elif event == "task_end":
        layer.task_end(1, r["task"], 5, 1.0)
    else:
        layer.task_switch(1, 5, 1.0)
    assert listener.flushes == 1
    assert not layer.batch.codes


def test_sched_point_hook_respects_threshold(regions):
    reg, r = regions
    listener = CollectingListener()
    layer = InstrumentationLayer(
        listener=listener, registry=reg, flush_threshold=3, capacity=100
    )
    layer.enter(0, r["f"], 0.0)
    layer.sched_point()
    assert listener.flushes == 0  # below threshold: nothing drains
    layer.enter(0, r["f"], 1.0)
    layer.enter(0, r["f"], 2.0)
    layer.sched_point()
    assert listener.flushes == 1


def test_phase_and_finish_flush_first(regions):
    reg, r = regions
    listener = CollectingListener()
    layer = InstrumentationLayer(listener=listener, registry=reg)
    layer.enter(0, r["f"], 0.0)
    layer.phase_begin("compute")
    # the buffered enter drains BEFORE the phase marker
    assert [c[0] for c in listener.calls] == ["enter", "phase_begin"]
    layer.exit(0, r["f"], 1.0)
    layer.phase_end("compute")
    layer.finish(2.0)
    assert [c[0] for c in listener.calls] == [
        "enter", "phase_begin", "exit", "phase_end", "finish",
    ]


def test_flush_of_empty_batch_is_silent(regions):
    reg, _ = regions
    listener = CollectingListener()
    layer = InstrumentationLayer(listener=listener, registry=reg)
    layer.flush()
    assert listener.flushes == 0


def test_invalid_thresholds_rejected(regions):
    reg, _ = regions
    with pytest.raises(ValueError):
        InstrumentationLayer(registry=reg, flush_threshold=0)
    with pytest.raises(ValueError):
        InstrumentationLayer(registry=reg, flush_threshold=10, capacity=5)


# ----------------------------------------------------------------------
# Payload round-trip
# ----------------------------------------------------------------------
def test_payloads_round_trip_through_columns(regions):
    reg, r = regions
    listener = CollectingListener()
    layer = InstrumentationLayer(listener=listener, registry=reg)
    layer.enter(0, r["f"], 1.0, parameter=("n", 41))
    layer.task_begin(3, r["task"], -7, 2.0, parameter=("depth", 2))
    layer.metric(2, {"queue": 11}, 3.0)
    layer.flush()
    assert listener.calls == [
        ("enter", 0, r["f"], 1.0, ("n", 41)),
        ("task_begin", 3, r["task"], -7, 2.0, ("depth", 2)),
        ("metric", 2, {"queue": 11}, 3.0),
    ]

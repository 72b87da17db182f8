"""Tests for the instrumentation layer and the tracing substrate."""

import pytest

from repro.events import RegionRegistry, RegionType
from repro.events.batch import KIND_NAMES, EventBatch
from repro.instrument import InstrumentationLayer
from repro.substrates import TracingSubstrate


class CountingListener:
    def __init__(self):
        self.counts = {}

    def _bump(self, kind):
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def on_batch(self, batch):
        for row in batch.rows():
            self._bump(KIND_NAMES[row[0]])

    def on_phase_begin(self, *a, **k):
        self._bump("phase_begin")

    def on_phase_end(self, *a, **k):
        self._bump("phase_end")

    def on_finish(self, *a, **k):
        self._bump("finish")


@pytest.fixture()
def registry():
    return RegionRegistry()


@pytest.fixture()
def region(registry):
    return registry.register("r", RegionType.FUNCTION)


def test_disabled_layer_is_a_noop(region):
    listener = CountingListener()
    layer = InstrumentationLayer(enabled=False, per_event_cost=1.0, listener=listener)
    layer.enter(0, region, 0.0)
    layer.exit(0, region, 1.0)
    layer.task_begin(0, region, 1, 2.0)
    layer.finish(3.0)
    assert listener.counts == {}
    assert not layer.batch.codes
    assert layer.cost == 0.0
    assert layer.events_dispatched == 0


def test_enabled_layer_dispatches_and_counts(registry, region):
    listener = CountingListener()
    layer = InstrumentationLayer(
        enabled=True, per_event_cost=0.5, listener=listener, registry=registry
    )
    layer.enter(0, region, 0.0)
    layer.exit(0, region, 1.0)
    layer.task_begin(0, region, 1, 2.0)
    layer.task_switch(0, -1, 3.0)
    layer.task_end(0, region, 1, 4.0)
    layer.phase_begin("p")
    layer.phase_end("p")
    layer.finish(5.0)
    assert layer.events_dispatched == 5  # phase/finish are not events
    assert listener.counts["enter"] == 1
    assert listener.counts["task_switch"] == 1
    assert listener.counts["finish"] == 1
    assert layer.cost == 0.5


def test_recording_listener_tracks_current_instance(registry, region):
    task = registry.register("t", RegionType.TASK)
    tracing = TracingSubstrate()
    tracing.initialize(registry, 1, 0.0)
    batch = EventBatch(registry)
    batch.add_task_begin(0, task, 1, 1.0)
    batch.add_enter(0, region, 2.0)
    batch.add_exit(0, region, 3.0)
    batch.add_task_end(0, task, 1, 4.0)
    tracing.on_batch(batch)
    trace = tracing.artifact()
    events = list(trace.stream(0))
    assert events[1].executing_instance == 1  # enter inside the task
    # after task_end the implicit task is current again, across batches
    batch.clear()
    batch.add_enter(0, region, 5.0)
    tracing.on_batch(batch)
    assert trace.stream(0)[-1].executing_instance == -1

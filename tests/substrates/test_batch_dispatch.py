"""Batched substrate dispatch: the shim contract, quarantine, accounting.

The columnar hot path hands whole :class:`EventBatch`\\ es to
``SubstrateManager.on_batch``.  These tests pin the contract:

* the base-class fallback shim replays the batch's events, in order,
  through the per-event callbacks;
* ``events_delivered`` counts individual events per batch, not flushes;
* a non-essential substrate raising mid-batch is quarantined, and an
  essential one aborts the run;
* ``extra_cost_per_event`` is cached at dispatch rebuilds and stays
  stable across a mid-run quarantine.
"""

import pytest

from repro.events.batch import EventBatch
from repro.events.regions import RegionRegistry, RegionType
from repro.substrates.base import Substrate
from repro.substrates.governor import GovernorSubstrate
from repro.substrates.manager import SubstrateManager


class ProbeSubstrate(Substrate):
    """Records every callback invocation; overrides no on_batch."""

    essential = False

    def __init__(self, name="probe", per_event_cost=0.0):
        self.name = name
        self.per_event_cost = per_event_cost
        self.calls = []

    def on_enter(self, thread_id, region, time, parameter=None):
        self.calls.append(("enter", thread_id, region.name, time, parameter))

    def on_exit(self, thread_id, region, time):
        self.calls.append(("exit", thread_id, region.name, time))

    def on_task_begin(self, thread_id, region, instance, time, parameter=None):
        self.calls.append(("task_begin", thread_id, region.name, instance, time, parameter))

    def on_task_end(self, thread_id, region, instance, time):
        self.calls.append(("task_end", thread_id, region.name, instance, time))

    def on_task_switch(self, thread_id, instance, time):
        self.calls.append(("task_switch", thread_id, instance, time))

    def on_metric(self, thread_id, counters, time):
        self.calls.append(("metric", thread_id, counters, time))


class BlowupSubstrate(ProbeSubstrate):
    """Raises from on_enter after ``survive`` successful enters."""

    def __init__(self, name="blowup", survive=0, essential=False):
        super().__init__(name=name)
        self.survive = survive
        self.essential = essential

    def on_enter(self, thread_id, region, time, parameter=None):
        if len([c for c in self.calls if c[0] == "enter"]) >= self.survive:
            raise RuntimeError("boom")
        super().on_enter(thread_id, region, time, parameter)


@pytest.fixture
def regions():
    reg = RegionRegistry()
    return reg, {
        "f": reg.register("f", RegionType.FUNCTION),
        "task": reg.register("task", RegionType.TASK),
        "barrier": reg.register("barrier", RegionType.IMPLICIT_BARRIER),
    }


def _mixed_batch(reg, r):
    batch = EventBatch(reg)
    batch.add_enter(0, r["f"], 1.0)
    batch.add_task_begin(1, r["task"], 7, 2.0, parameter=("n", 3))
    batch.add_metric(0, {"cnt": 4}, 2.5)
    batch.add_task_switch(1, -2, 3.0)
    batch.add_task_end(1, r["task"], 7, 4.0)
    batch.add_exit(0, r["f"], 5.0)
    return batch


# ----------------------------------------------------------------------
# Shim equivalence
# ----------------------------------------------------------------------
def test_shim_replays_same_events_same_order(regions):
    reg, r = regions
    per_event = ProbeSubstrate("per-event")
    batched = ProbeSubstrate("batched")
    manager = SubstrateManager([batched])
    manager.initialize(reg, 2, 0.0)

    # Direct per-event delivery to the reference probe...
    per_event.on_enter(0, r["f"], 1.0, None)
    per_event.on_task_begin(1, r["task"], 7, 2.0, ("n", 3))
    per_event.on_metric(0, {"cnt": 4}, 2.5)
    per_event.on_task_switch(1, -2, 3.0)
    per_event.on_task_end(1, r["task"], 7, 4.0)
    per_event.on_exit(0, r["f"], 5.0)
    # ...and one batch through the manager for the other.
    manager.on_batch(_mixed_batch(reg, r))

    assert batched.calls == per_event.calls


def test_events_delivered_counts_events_not_flushes(regions):
    reg, r = regions
    manager = SubstrateManager([ProbeSubstrate()])
    manager.initialize(reg, 2, 0.0)
    batch = _mixed_batch(reg, r)
    assert batch.counted == 5  # the metric row is not cost-bearing
    manager.on_batch(batch)
    manager.on_batch(_mixed_batch(reg, r))
    assert manager.events_delivered == 10


def test_governor_substrate_not_in_batch_fanout(regions):
    reg, r = regions
    gov = GovernorSubstrate()
    probe = ProbeSubstrate()
    manager = SubstrateManager([gov, probe])
    manager.initialize(reg, 2, 0.0)
    assert gov not in manager._targets_on_batch
    assert probe in manager._targets_on_batch
    manager.on_batch(_mixed_batch(reg, r))  # must not touch the governor
    assert len(probe.calls) == 6


# ----------------------------------------------------------------------
# Quarantine semantics
# ----------------------------------------------------------------------
def test_quarantine_mid_batch_spares_other_substrates(regions):
    reg, r = regions
    bad = BlowupSubstrate(survive=0)
    good = ProbeSubstrate("good")
    manager = SubstrateManager([bad, good])
    manager.initialize(reg, 2, 0.0)

    manager.on_batch(_mixed_batch(reg, r))
    assert manager.quarantined("blowup")
    [incident] = manager.incidents
    assert incident.callback == "on_batch"
    # batch granularity: the whole batch was accounted before dispatch
    assert incident.events_delivered == 5
    assert len(good.calls) == 6

    # A second batch is delivered to the survivor only.
    manager.on_batch(_mixed_batch(reg, r))
    assert len(good.calls) == 12
    assert manager.events_delivered == 10


def test_essential_substrate_exception_propagates(regions):
    reg, r = regions
    bad = BlowupSubstrate(survive=0, essential=True)
    manager = SubstrateManager([bad])
    manager.initialize(reg, 2, 0.0)
    with pytest.raises(RuntimeError, match="boom"):
        manager.on_batch(_mixed_batch(reg, r))
    assert not manager.incidents


# ----------------------------------------------------------------------
# extra_cost_per_event caching
# ----------------------------------------------------------------------
def test_extra_cost_cached_and_stable_across_quarantine(regions):
    reg, r = regions
    bad = BlowupSubstrate(survive=2)
    bad.per_event_cost = 0.7
    good = ProbeSubstrate("good", per_event_cost=0.3)
    manager = SubstrateManager([bad, good])
    manager.initialize(reg, 2, 0.0)

    assert manager.extra_cost_per_event == pytest.approx(1.0)
    # The property reads the cached field, not a live re-summation.
    assert manager.extra_cost_per_event is manager._extra_cost_per_event

    # Two enters survive, the third quarantines `bad` mid-run...
    for t in (1.0, 2.0, 3.0):
        batch = EventBatch(reg)
        batch.add_enter(0, r["f"], t)
        manager.on_batch(batch)
    assert manager.quarantined("blowup")
    # ...and the charge must NOT drop: the cost model is part of the
    # deterministic virtual timeline.
    assert manager.extra_cost_per_event == pytest.approx(1.0)

    # The cache is re-derived (same value) on the quarantine rebuild.
    assert manager._extra_cost_per_event == pytest.approx(1.0)

"""SubstrateManager: fan-out order, quarantine, overhead accounting."""

import pytest

from repro.errors import SubstrateError
from repro.events import RegionRegistry, RegionType
from repro.events.batch import EventBatch
from repro.substrates import Substrate, SubstrateManager


class JournalingSubstrate(Substrate):
    """Records every callback into a shared journal (order-sensitive)."""

    essential = False

    def __init__(self, name, journal, per_event_cost=0.0):
        self.name = name
        self.journal = journal
        self.per_event_cost = per_event_cost
        self.initialized = False
        self.finalized_at = None

    def initialize(self, registry, n_threads, start_time, implicit_region=None):
        self.initialized = True

    def on_enter(self, thread_id, region, time, parameter=None):
        self.journal.append((self.name, "enter", thread_id))

    def on_exit(self, thread_id, region, time):
        self.journal.append((self.name, "exit", thread_id))

    def on_task_begin(self, thread_id, region, instance, time, parameter=None):
        self.journal.append((self.name, "task_begin", instance))

    def finalize(self, time):
        self.finalized_at = time

    def artifact(self):
        return list(self.journal)


class BrokenSubstrate(Substrate):
    def __init__(self, name="broken", essential=False, fail_after=0):
        self.name = name
        self.essential = essential
        self.fail_after = fail_after
        self.seen = 0

    def on_enter(self, thread_id, region, time, parameter=None):
        self.seen += 1
        if self.seen > self.fail_after:
            raise RuntimeError("substrate exploded")


@pytest.fixture()
def registry():
    return RegionRegistry()


@pytest.fixture()
def region(registry):
    return registry.register("r", RegionType.FUNCTION)


def make_manager(*substrates):
    manager = SubstrateManager(list(substrates))
    manager.initialize(RegionRegistry(), 2, 0.0)
    return manager


def enters(registry, region, *times):
    """One batch per time: thread 0 enters ``region`` at that time."""
    for time in times:
        batch = EventBatch(registry)
        batch.add_enter(0, region, time)
        yield batch


def test_fanout_preserves_attachment_order(registry, region):
    journal = []
    manager = make_manager(
        JournalingSubstrate("a", journal), JournalingSubstrate("b", journal)
    )
    first, second = EventBatch(registry), EventBatch(registry)
    first.add_enter(0, region, 1.0)
    second.add_exit(0, region, 2.0)
    manager.on_batch(first)
    manager.on_batch(second)
    assert journal == [
        ("a", "enter", 0),
        ("b", "enter", 0),
        ("a", "exit", 0),
        ("b", "exit", 0),
    ]
    assert manager.events_delivered == 2


def test_duplicate_names_rejected():
    with pytest.raises(SubstrateError, match="duplicate"):
        SubstrateManager([JournalingSubstrate("x", []), JournalingSubstrate("x", [])])


def test_nonessential_failure_quarantines_without_killing_others(registry, region):
    journal = []
    survivor = JournalingSubstrate("survivor", journal)
    broken = BrokenSubstrate(fail_after=1)
    manager = make_manager(broken, survivor)

    # broken sees event 1 and survives, raises on event 2 and is
    # quarantined; only the survivor receives event 3
    for batch in enters(registry, region, 1.0, 2.0, 3.0):
        manager.on_batch(batch)

    assert len(manager.incidents) == 1
    incident = manager.incidents[0]
    assert incident.substrate == "broken"
    assert incident.callback == "on_batch"
    assert "substrate exploded" in incident.error
    assert manager.quarantined("broken")
    assert not manager.quarantined("survivor")
    # The survivor saw every event, including the one that broke its peer.
    assert [entry for entry in journal if entry[0] == "survivor"] == [
        ("survivor", "enter", 0),
        ("survivor", "enter", 0),
        ("survivor", "enter", 0),
    ]
    # The broken substrate stopped receiving events after quarantine.
    assert broken.seen == 2


def test_essential_failure_propagates(registry, region):
    manager = make_manager(BrokenSubstrate(essential=True))
    with pytest.raises(RuntimeError, match="substrate exploded"):
        manager.on_batch(next(enters(registry, region, 1.0)))
    assert manager.incidents == []


def test_quarantined_substrate_is_not_finalized(registry, region):
    healthy = JournalingSubstrate("healthy", [])
    broken = BrokenSubstrate(fail_after=0)
    manager = make_manager(broken, healthy)
    manager.on_batch(next(enters(registry, region, 1.0)))
    manager.on_finish(9.0)
    assert healthy.finalized_at == 9.0
    assert manager.quarantined("broken")


def test_extra_cost_is_summed_and_stable_across_quarantine(registry, region):
    broken = BrokenSubstrate(fail_after=0)
    broken.per_event_cost = 0.5
    cheap = JournalingSubstrate("cheap", [], per_event_cost=0.25)
    manager = make_manager(broken, cheap)
    assert manager.extra_cost_per_event == pytest.approx(0.75)
    manager.on_batch(next(enters(registry, region, 1.0)))  # quarantines broken
    # Determinism: the charge is part of the virtual timeline and must
    # not change mid-run.
    assert manager.extra_cost_per_event == pytest.approx(0.75)


def test_report_attributes_events_and_charge_per_substrate(registry, region):
    broken = BrokenSubstrate(fail_after=1)
    cheap = JournalingSubstrate("cheap", [], per_event_cost=0.25)
    manager = make_manager(broken, cheap)
    for batch in enters(registry, region, 0.0, 1.0, 2.0, 3.0):
        manager.on_batch(batch)
    report = manager.report()
    assert report["cheap"]["events"] == 4
    assert report["cheap"]["charged_us"] == pytest.approx(1.0)
    assert report["cheap"]["quarantined"] is False
    assert report["broken"]["quarantined"] is True
    assert report["broken"]["events"] == 2  # delivery stopped at quarantine
    assert "substrate exploded" in report["broken"]["error"]


def test_artifacts_cover_every_substrate_even_quarantined(registry, region):
    journal = []
    manager = make_manager(
        BrokenSubstrate(fail_after=0), JournalingSubstrate("j", journal)
    )
    manager.on_batch(next(enters(registry, region, 1.0)))
    artifacts = manager.artifacts()
    assert set(artifacts) == {"broken", "j"}
    assert artifacts["j"] == [("j", "enter", 0)]


def test_metric_and_phase_do_not_count_as_events(registry):
    manager = make_manager(JournalingSubstrate("j", []))
    batch = EventBatch(registry)
    batch.add_metric(0, {"c": 1}, 1.0)
    manager.on_batch(batch)
    manager.on_phase_begin("p")
    manager.on_phase_end("p")
    assert manager.events_delivered == 0


def test_lookup_helpers(region):
    journal = []
    j = JournalingSubstrate("j", journal)
    manager = make_manager(j)
    assert manager.get("j") is j
    assert manager.get("nope") is None
    assert manager.find(JournalingSubstrate) is j
    assert manager.find(BrokenSubstrate) is None

"""Lenient (salvage-mode) TaskProfiler and the SalvageReport ledger."""

import pytest

from repro.errors import ProfileError
from repro.events import RegionRegistry, RegionType
from repro.events.batch import EventBatch
from repro.governor import MemoryBudget, ResourceGovernor
from repro.profiling import SalvageReport, TaskProfiler


@pytest.fixture()
def reg():
    return RegionRegistry()


@pytest.fixture()
def regions(reg):
    return {
        "impl": reg.register("parallel@x", RegionType.IMPLICIT_TASK),
        "A": reg.register("taskA", RegionType.TASK),
        "foo": reg.register("foo", RegionType.FUNCTION),
    }


def test_strict_profiler_rejects_end_for_unknown_instance(reg, regions):
    profiler = TaskProfiler(1, regions["impl"])
    assert profiler.salvage is None
    batch = EventBatch(reg)
    batch.add_task_end(0, regions["A"], 7, 1.0)
    with pytest.raises(ProfileError, match="unknown instance 7"):
        profiler.on_batch(batch)


def test_lenient_profiler_quarantines_instead(reg, regions):
    profiler = TaskProfiler(1, regions["impl"], strict=False)
    batch = EventBatch(reg)
    batch.add_task_end(0, regions["A"], 7, 1.0)
    profiler.on_batch(batch)  # no raise
    profiler.on_finish(2.0)
    report = profiler.salvage
    assert report.partial
    assert report.events_dropped == 1
    assert 7 in report.instances_quarantined
    assert profiler.build_profile().is_partial


def test_clean_lifecycle_counts_completed_instances(reg, regions):
    profiler = TaskProfiler(1, regions["impl"], strict=False)
    batch = EventBatch(reg)
    batch.add_task_begin(0, regions["A"], 1, 1.0)
    batch.add_task_end(0, regions["A"], 1, 2.0)
    profiler.on_batch(batch)
    profiler.on_finish(3.0)
    report = profiler.salvage
    assert report.instances_completed == 1
    assert report.events_seen == 2  # begin + end; finish is not an event
    # a lenient profiler over clean input is indistinguishable from strict
    assert not report.partial
    assert not profiler.build_profile().is_partial


def test_unfinished_instance_is_quarantined_at_finish(reg, regions):
    profiler = TaskProfiler(1, regions["impl"], strict=False)
    batch = EventBatch(reg)
    batch.add_task_begin(0, regions["A"], 1, 1.0)
    batch.add_enter(0, regions["foo"], 1.5)
    profiler.on_batch(batch)
    profiler.on_finish(2.0)
    report = profiler.salvage
    assert 1 in report.instances_quarantined
    assert any("still active at end of measurement" in n for n in report.notes)
    assert profiler.build_profile().is_partial


def test_lenient_switch_to_unknown_instance_is_dropped(reg, regions):
    profiler = TaskProfiler(1, regions["impl"], strict=False)
    batch = EventBatch(reg)
    batch.add_task_switch(0, 42, 1.0)  # strict would raise
    profiler.on_batch(batch)
    profiler.on_finish(2.0)
    assert profiler.salvage.events_dropped == 1
    assert profiler.salvage.partial


def test_lenient_loop_resumes_after_a_dropped_event(reg, regions):
    profiler = TaskProfiler(1, regions["impl"], strict=False)
    batch = EventBatch(reg)
    batch.add_exit(0, regions["foo"], 0.5)  # nothing open: dropped
    batch.add_task_begin(0, regions["A"], 1, 1.0)
    batch.add_task_end(0, regions["A"], 1, 2.0)
    profiler.on_batch(batch)
    report = profiler.salvage
    assert (report.events_seen, report.events_dropped) == (3, 1)
    assert report.instances_completed == 1
    assert any(n.startswith("dropped exit 'foo'") for n in report.notes)


@pytest.mark.parametrize("strict", [True, False])
def test_failed_switch_leaves_the_current_task_only_when_lenient(reg, regions, strict):
    profiler = TaskProfiler(1, regions["impl"], strict=strict)
    begin = EventBatch(reg)
    begin.add_task_begin(0, regions["A"], 1, 1.0)
    profiler.on_batch(begin)
    switch = EventBatch(reg)
    switch.add_task_switch(0, 42, 2.0)
    if strict:
        with pytest.raises(ProfileError, match="unknown instance 42"):
            profiler.on_batch(switch)
        assert profiler.threads[0].current.instance == 1
    else:
        profiler.on_batch(switch)
        assert profiler.threads[0].current is None
        assert profiler.instance_table[1].suspended


def test_governed_end_bookkeeping_runs_after_a_failed_lenient_end(reg, regions):
    governor = ResourceGovernor(MemoryBudget(max_live_instances=100))
    profiler = TaskProfiler(1, regions["impl"], strict=False, governor=governor)
    batch = EventBatch(reg)
    batch.add_task_begin(0, regions["A"], 1, 1.0)
    batch.add_enter(0, regions["foo"], 1.5)
    batch.add_task_end(0, regions["A"], 1, 2.0)  # foo still open: end fails
    profiler.on_batch(batch)
    assert 1 in profiler.salvage.instances_quarantined
    assert governor.live_instances == 0


def test_salvage_report_roundtrip_and_summary():
    report = SalvageReport(events_seen=10, events_dropped=2, instances_completed=3)
    report.quarantine(5, "unrecoverable")
    data = report.to_dict()
    assert data["partial"] is True
    clone = SalvageReport.from_dict(data)
    assert clone.events_dropped == 2
    assert clone.instances_quarantined == {5}
    assert "quarantined instance 5: unrecoverable" in clone.notes
    assert "partial profile" in clone.summary()
    assert SalvageReport().summary() == "profile complete: no salvage needed"

"""Unit tests for the built-in substrates, driven batch by batch."""

import pytest

from repro.events import RegionRegistry, RegionType
from repro.events.batch import EventBatch
from repro.substrates import OnlineValidationSubstrate, StatsSubstrate


@pytest.fixture()
def registry():
    return RegionRegistry()


# ----------------------------------------------------------------------
# StatsSubstrate
# ----------------------------------------------------------------------
def test_stats_counts_per_kind_thread_and_region_type(registry):
    func = registry.register("f", RegionType.FUNCTION)
    task = registry.register("t", RegionType.TASK)
    stats = StatsSubstrate()
    stats.initialize(registry, 2, 0.0)

    batch = EventBatch(registry)
    batch.add_enter(0, func, 1.0)
    batch.add_exit(0, func, 2.0)
    batch.add_task_begin(1, task, 1, 3.0)
    batch.add_task_switch(1, -2, 4.0)
    batch.add_task_end(1, task, 1, 5.0)
    batch.add_metric(0, {"c": 1}, 5.0)
    stats.on_batch(batch)

    artifact = stats.artifact()
    assert artifact["total_events"] == 5  # metric piggybacks, not counted
    assert artifact["per_thread"] == [2, 3]
    assert artifact["per_kind"] == {
        "enter": 1,
        "exit": 1,
        "task_begin": 1,
        "task_end": 1,
        "task_switch": 1,
        "metric": 1,
    }
    assert artifact["per_region_type"] == {"function": 1}


# ----------------------------------------------------------------------
# OnlineValidationSubstrate
# ----------------------------------------------------------------------
def test_validation_clean_sequence(registry):
    func = registry.register("f", RegionType.FUNCTION)
    task = registry.register("t", RegionType.TASK)
    sub = OnlineValidationSubstrate()
    sub.initialize(registry, 1, 0.0)

    batch = EventBatch(registry)
    batch.add_enter(0, func, 1.0)
    batch.add_exit(0, func, 2.0)
    batch.add_task_begin(0, task, 1, 3.0)
    batch.add_task_end(0, task, 1, 4.0)
    sub.on_batch(batch)
    sub.finalize(5.0)

    artifact = sub.artifact()
    assert artifact["clean"] is True
    assert artifact["violations"] == 0
    assert artifact["events_checked"] == 4


def test_validation_flags_corrupt_stream_online(registry):
    func = registry.register("f", RegionType.FUNCTION)
    task = registry.register("t", RegionType.TASK)
    sub = OnlineValidationSubstrate()
    sub.initialize(registry, 1, 0.0)

    batch = EventBatch(registry)
    batch.add_exit(0, func, 1.0)  # exit with no open region
    batch.add_task_end(0, task, 7, 2.0)  # end of a never-begun instance
    batch.add_enter(0, func, 1.5)  # timestamp going backwards
    batch.add_task_begin(0, task, 1, 3.0)  # begun...
    sub.on_batch(batch)
    sub.finalize(9.0)  # ...but never ended

    artifact = sub.artifact()
    assert artifact["clean"] is False
    kinds = artifact["by_kind"]
    assert kinds["exit-unmatched"] == 1
    assert kinds["end-inactive"] == 1
    assert kinds["time-order"] == 1
    assert kinds["end-count"] == 1  # instance 1 begun, ended 0 times
    assert kinds["end-without-begin"] == 1  # instance 7 ended, never begun
    assert artifact["violations"] == sum(kinds.values())
    assert artifact["first"]  # human-readable samples retained


def test_validation_detects_cross_thread_double_begin(registry):
    task = registry.register("t", RegionType.TASK)
    sub = OnlineValidationSubstrate()
    sub.initialize(registry, 2, 0.0)

    batch = EventBatch(registry)
    batch.add_task_begin(0, task, 1, 1.0)
    batch.add_task_end(0, task, 1, 2.0)
    batch.add_task_begin(1, task, 1, 3.0)  # same instance begun again elsewhere
    batch.add_task_end(1, task, 1, 4.0)
    sub.on_batch(batch)
    sub.finalize(5.0)

    artifact = sub.artifact()
    assert artifact["by_kind"]["begin-count"] == 1
    assert artifact["by_kind"]["end-count"] == 1


def test_validation_allows_untied_migration_between_threads(registry):
    task = registry.register("t", RegionType.TASK)
    sub = OnlineValidationSubstrate()
    sub.initialize(registry, 2, 0.0)

    # Begin on thread 0, suspend, resume and end on thread 1: legal for
    # untied tasks, and the cross-thread known_active set proves it live.
    batch = EventBatch(registry)
    batch.add_task_begin(0, task, 1, 1.0)
    batch.add_task_switch(0, -1, 2.0)
    batch.add_task_switch(1, 1, 3.0)
    batch.add_task_end(1, task, 1, 4.0)
    sub.on_batch(batch)
    sub.finalize(5.0)

    assert sub.artifact()["clean"] is True


def test_validation_caps_recorded_but_counts_all(registry):
    func = registry.register("f", RegionType.FUNCTION)
    sub = OnlineValidationSubstrate(max_recorded=3)
    sub.initialize(registry, 1, 0.0)
    batch = EventBatch(registry)
    for i in range(10):
        batch.add_exit(0, func, float(i))  # ten unmatched exits
    sub.on_batch(batch)
    assert sub.total_violations == 10
    assert len(sub.violations) == 3

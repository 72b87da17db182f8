"""ClassicProfiler.consume_batch: exact equivalence with the per-event path.

The vectorized leaf-pair peel is only worth having if it is *bit*-
identical to the legacy algorithm on every stream shape: deep nesting,
flat leaf storms, parameterized enters (which split call-tree children
and must take the residual path), and multi-batch splits at arbitrary
boundaries.  Error behavior must match too:
task/metric kinds, mismatched exits, and exits on an empty stack raise
:class:`EventOrderError` exactly as the per-event methods do.
"""

import random

import pytest

from repro.errors import EventOrderError
from repro.events.batch import EventBatch
from repro.events.regions import RegionRegistry, RegionType
from repro.profiling.basic import ClassicProfiler


@pytest.fixture
def workload():
    reg = RegionRegistry()
    main = reg.register("main", RegionType.FUNCTION)
    functions = [reg.register(f"f{i}", RegionType.FUNCTION) for i in range(6)]
    return reg, main, functions


def _random_stream(functions, n_events, descend_bias, seed):
    """A properly nested enter/exit stream: [("enter"|"exit", region, t)]."""
    rng = random.Random(seed)
    events = []
    stack = []
    t = 0.0
    while len(events) < n_events:
        t += rng.random()
        if stack and (len(stack) > 12 or rng.random() > descend_bias):
            events.append(("exit", stack.pop(), t))
        else:
            region = rng.choice(functions)
            stack.append(region)
            events.append(("enter", region, t))
    while stack:
        t += rng.random()
        events.append(("exit", stack.pop(), t))
    return events


def _run_legacy(main, events):
    profiler = ClassicProfiler(main)
    t_end = events[-1][2] + 1.0
    profiler.enter(main, 0.0)
    for kind, region, t in events:
        if kind == "enter":
            profiler.enter(region, t)
        else:
            profiler.exit(region, t)
    profiler.exit(main, t_end)
    return profiler.finish()


def _run_batched(reg, main, events, split):
    profiler = ClassicProfiler(main)
    t_end = events[-1][2] + 1.0
    batch = EventBatch(reg)
    batch.add_enter(0, main, 0.0)
    for kind, region, t in events:
        if len(batch.codes) >= split:
            profiler.consume_batch(batch)
            batch = EventBatch(reg)
        if kind == "enter":
            batch.add_enter(0, region, t)
        else:
            batch.add_exit(0, region, t)
    batch.add_exit(0, main, t_end)
    profiler.consume_batch(batch)
    return profiler.finish()


def _tree_equal(a, b):
    if (
        a.region is not b.region
        or a.parameter != b.parameter
        or a.metrics.visits != b.metrics.visits
        or a.metrics.inclusive_time != b.metrics.inclusive_time
        or a.metrics.durations.count != b.metrics.durations.count
        or a.metrics.durations.total != b.metrics.durations.total
        or a.metrics.durations.minimum != b.metrics.durations.minimum
        or a.metrics.durations.maximum != b.metrics.durations.maximum
        or list(a.children.keys()) != list(b.children.keys())
    ):
        return False
    return all(
        _tree_equal(ca, cb)
        for ca, cb in zip(a.children.values(), b.children.values())
    )


# ----------------------------------------------------------------------
# Equivalence on random nesting shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("descend_bias", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("split", [7, 64, 10_000])
def test_random_streams_bit_identical(workload, descend_bias, split):
    reg, main, functions = workload
    events = _random_stream(functions, 600, descend_bias, seed=int(descend_bias * 10))
    legacy = _run_legacy(main, events)
    batched = _run_batched(reg, main, events, split)
    assert _tree_equal(batched, legacy)


def test_leaf_storm_bit_identical(workload):
    """The pure leaf-pair shape the vector peel is built for."""
    reg, main, functions = workload
    events = []
    t = 0.0
    for i in range(500):
        region = functions[i % 6]
        events.append(("enter", region, t := t + 1.0))
        events.append(("exit", region, t := t + 1.0))
    assert _tree_equal(
        _run_batched(reg, main, events, split=128), _run_legacy(main, events)
    )


def test_parameterized_enters_take_residual_path(workload):
    """Payload-flagged enters split children and replay per-event."""
    reg, main, functions = workload
    f = functions[0]
    profiler = ClassicProfiler(main)
    batch = EventBatch(reg)
    batch.add_enter(0, main, 0.0)
    for i, n in enumerate((3, 5, 3)):
        batch.add_enter(0, f, 1.0 + i, parameter=("n", n))
        batch.add_exit(0, f, 1.5 + i)
    batch.add_exit(0, main, 10.0)
    profiler.consume_batch(batch)
    root = profiler.finish()

    legacy = ClassicProfiler(main)
    legacy.enter(main, 0.0)
    for i, n in enumerate((3, 5, 3)):
        legacy.enter(f, 1.0 + i, parameter=("n", n))
        legacy.exit(f, 1.5 + i)
    legacy.exit(main, 10.0)
    assert _tree_equal(root, legacy.finish())
    # two distinct parameterized children, one visited twice
    assert {k[1] for k in root.children} == {("n", 3), ("n", 5)}
    assert root.children[(f, ("n", 3))].metrics.visits == 2


def test_root_open_set_from_first_batch_time(workload):
    reg, main, functions = workload
    profiler = ClassicProfiler(main)
    batch = EventBatch(reg)
    batch.add_enter(0, main, 42.5)
    f = functions[0]
    batch.add_enter(0, f, 43.0)
    batch.add_exit(0, f, 44.0)
    batch.add_exit(0, main, 45.0)
    profiler.consume_batch(batch)
    assert profiler._root_open == 42.5


def test_empty_batch_is_a_noop(workload):
    reg, main, _ = workload
    profiler = ClassicProfiler(main)
    profiler.consume_batch(EventBatch(reg))
    assert profiler._root_open is None
    assert profiler.depth == 0


# ----------------------------------------------------------------------
# Error behavior
# ----------------------------------------------------------------------
def test_task_kind_rejected(workload):
    reg, main, _ = workload
    task = reg.register("task", RegionType.TASK)
    batch = EventBatch(reg)
    batch.add_enter(0, main, 0.0)
    batch.add_task_begin(0, task, 1, 1.0)
    with pytest.raises(EventOrderError, match="cannot process"):
        ClassicProfiler(main).consume_batch(batch)


def test_metric_kind_rejected(workload):
    reg, main, _ = workload
    batch = EventBatch(reg)
    batch.add_enter(0, main, 0.0)
    batch.add_metric(0, {"x": 1}, 1.0)
    with pytest.raises(EventOrderError, match="cannot process"):
        ClassicProfiler(main).consume_batch(batch)


def test_mismatched_exit_raises(workload):
    reg, main, functions = workload
    batch = EventBatch(reg)
    batch.add_enter(0, main, 0.0)
    batch.add_enter(0, functions[0], 1.0)
    batch.add_exit(0, functions[1], 2.0)
    with pytest.raises(EventOrderError, match="does not match"):
        ClassicProfiler(main).consume_batch(batch)


def test_exit_on_empty_stack_raises(workload):
    reg, main, functions = workload
    batch = EventBatch(reg)
    batch.add_exit(0, functions[0], 1.0)
    with pytest.raises(EventOrderError, match="no open region"):
        ClassicProfiler(main).consume_batch(batch)

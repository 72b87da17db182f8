"""Runtime edge cases and error paths."""

import pytest

from repro.errors import DeadlockError, ProcessError, RuntimeModelError
from repro.runtime import (
    CostModel,
    OpenMPRuntime,
    RuntimeConfig,
    TaskState,
    ZERO_COST,
)
from repro.runtime.runtime import run_parallel


def quiet(**kw):
    kw.setdefault("instrument", False)
    kw.setdefault("costs", ZERO_COST)
    return RuntimeConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError, match="n_threads"):
        RuntimeConfig(n_threads=0)
    with pytest.raises(ValueError, match="queue_policy"):
        RuntimeConfig(queue_policy="random")
    with pytest.raises(ValueError, match="steal_policy"):
        RuntimeConfig(steal_policy="roundrobin")


def test_config_rejects_more_threads_than_event_codes_can_hold():
    # The packed event code has 10 thread-id bits; thread 1024 would spill
    # into the region id and be profiled on thread 0 under the wrong region.
    assert RuntimeConfig(n_threads=1024).n_threads == 1024
    with pytest.raises(ValueError, match="n_threads must be <= 1024"):
        RuntimeConfig(n_threads=1025)


def test_config_builders():
    config = RuntimeConfig()
    assert config.with_threads(8).n_threads == 8
    assert config.with_instrumentation(False).instrument is False
    assert config.with_seed(9).seed == 9
    assert config.with_costs(ZERO_COST).costs is ZERO_COST
    # builders do not mutate the original
    assert config.n_threads == 4 and config.instrument is True


def test_cost_model_builders():
    base = CostModel()
    scaled = base.scaled(2.0)
    assert scaled.enqueue_us == base.enqueue_us * 2
    assert scaled.instr_event_us == base.instr_event_us  # untouched
    assert base.with_instrumentation_cost(9.0).instr_event_us == 9.0
    free = base.without_contention()
    assert free.contention_alpha == 0.0 and free.coherence_beta == 0.0


def test_kwargs_forwarded_to_task_body():
    def child(ctx, a, b=0, c=0):
        yield ctx.compute(1.0)
        return a + b + c

    def body(ctx):
        handle = yield ctx.spawn(child, 1, b=2, c=3)
        yield ctx.taskwait()
        return handle.result

    result = run_parallel(body, config=quiet(n_threads=1))
    assert result.return_values == [6]


def test_spawn_label_overrides_region_name():
    def child(ctx):
        yield ctx.compute(1.0)

    def body(ctx):
        yield ctx.spawn(child, label="custom_name")
        yield ctx.taskwait()

    config = RuntimeConfig(n_threads=1, instrument=True, costs=ZERO_COST)
    result = run_parallel(body, config=config)
    assert result.profile.task_tree("custom_name") is not None
    with pytest.raises(KeyError):
        result.profile.task_tree("child")


def test_parallel_result_total_and_kernel_time():
    def body(ctx):
        yield ctx.compute(5.0)

    result = run_parallel(body, config=quiet(n_threads=2))
    assert result.kernel_time == result.duration
    assert result.total("work") == pytest.approx(10.0)
    with pytest.raises(KeyError):
        result.total("nonexistent")


def test_critical_end_without_begin_raises():
    def body(ctx):
        yield ctx.end_critical("zone")

    with pytest.raises(ProcessError, match="released while not held"):
        run_parallel(body, config=quiet(n_threads=1))


def test_unreleased_critical_deadlocks_other_threads():
    """A task that exits while holding a critical section starves waiters;
    the kernel reports the deadlock instead of hanging."""

    def body(ctx):
        yield ctx.critical("zone")
        if ctx.thread_id == 0:
            return  # thread 0 never releases
        yield ctx.end_critical("zone")

    with pytest.raises(DeadlockError):
        run_parallel(body, config=quiet(n_threads=2))


def test_taskwait_without_children_is_cheap_noop():
    def body(ctx):
        yield ctx.taskwait()
        yield ctx.taskwait()
        return "done"

    result = run_parallel(body, config=quiet(n_threads=1))
    assert result.return_values == ["done"]
    assert result.duration == 0.0


def test_many_sequential_barriers():
    def body(ctx):
        for _ in range(10):
            yield ctx.barrier()
        return ctx.thread_id

    result = run_parallel(body, config=quiet(n_threads=4))
    assert sorted(result.return_values) == [0, 1, 2, 3]


def test_task_state_transitions_visible_on_handle():
    states = []

    def child(ctx):
        yield ctx.compute(1.0)

    def body(ctx):
        handle = yield ctx.spawn(child)
        states.append(handle.done)
        yield ctx.taskwait()
        states.append(handle.done)

    run_parallel(body, config=quiet(n_threads=1))
    assert states == [False, True]


def test_zero_compute_takes_zero_time():
    def body(ctx):
        yield ctx.compute(0.0)

    result = run_parallel(body, config=quiet(n_threads=1))
    assert result.duration == 0.0


def test_deeply_nested_spawn_chain():
    """A 60-deep chain of spawn+taskwait: suspension bookkeeping and the
    TSC cope with long dependency chains (the Section V-B caveat)."""

    def chain(ctx, depth):
        if depth == 0:
            yield ctx.compute(1.0)
            return 0
        handle = yield ctx.spawn(chain, depth - 1)
        yield ctx.taskwait()
        return handle.result + 1

    def body(ctx):
        handle = yield ctx.spawn(chain, 60)
        yield ctx.taskwait()
        return handle.result

    config = RuntimeConfig(n_threads=2, instrument=True, costs=ZERO_COST)
    result = run_parallel(body, config=config)
    assert result.return_values[0] == 60
    # concurrency tracks the chain depth
    assert result.profile.max_concurrent_tasks_per_thread() == 61


def test_record_events_without_instrumentation_still_traces():
    def child(ctx):
        yield ctx.compute(1.0)

    def body(ctx):
        yield ctx.spawn(child)
        yield ctx.taskwait()

    config = RuntimeConfig(
        n_threads=1, instrument=False, record_events=True, costs=ZERO_COST
    )
    result = run_parallel(body, config=config)
    assert result.profile is None
    assert result.trace is not None
    assert result.trace.total_events() > 0


def test_implicit_bodies_see_correct_thread_ids():
    def body(ctx):
        yield ctx.compute(1.0)
        return (ctx.thread_id, ctx.n_threads, ctx.task_depth, ctx.is_implicit_task)

    result = run_parallel(body, config=quiet(n_threads=3))
    assert result.return_values == [(0, 3, 0, True), (1, 3, 0, True), (2, 3, 0, True)]


def test_explicit_task_depth_and_ids():
    def child(ctx):
        yield ctx.compute(1.0)
        return (ctx.task_depth, ctx.is_implicit_task, ctx.instance_id)

    def body(ctx):
        handle = yield ctx.spawn(child)
        yield ctx.taskwait()
        return handle.result

    result = run_parallel(body, config=quiet(n_threads=1))
    depth, is_implicit, instance_id = result.return_values[0]
    assert depth == 1
    assert not is_implicit
    assert instance_id == 1

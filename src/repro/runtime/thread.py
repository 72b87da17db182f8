"""The simulated worker thread: one per team member.

A worker thread is one simulation process.  It executes its implicit task
body, interprets directives at task scheduling points, runs the task
scheduler inside taskwaits and barriers, and reports every measurement
event through the instrumentation layer.

Time accounting buckets (per thread, virtual µs):

* ``work``    -- Compute directives (the application's useful work),
* ``mgmt``    -- task management: allocation, queue operations including
  lock waiting, switches, completion bookkeeping, barrier arrival,
* ``instr``   -- instrumentation events (zero when measurement is off),
* ``idle``    -- blocked on the state signal with nothing to run,
* ``critical_wait`` -- waiting to enter critical sections.

The split is what the overhead analysis consumes: the paper's observation
that "instrumentation shifts some of the overhead from the OpenMP runtime
system to the profiling system" shows up as ``instr`` time displacing
``mgmt`` lock-wait time when tasks are tiny and threads are many.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Optional, Tuple

from repro.errors import RuntimeModelError
from repro.events.model import implicit_instance_id
from repro.events.regions import Region
from repro.runtime.context import TaskContext
from repro.runtime.directives import (
    Barrier,
    Compute,
    CriticalBegin,
    CriticalEnd,
    RegionBegin,
    RegionEnd,
    Single,
    Spawn,
    Taskwait,
    TaskYield,
)
from repro.runtime.task import TaskInstance, TaskState
from repro.sim.process import Timeout


class WorkerThread:
    """One simulated team member; `process()` is its sim-process body."""

    def __init__(self, runtime, thread_id: int, implicit_task: TaskInstance) -> None:
        self.rt = runtime
        self.id = thread_id
        self.implicit = implicit_task
        #: tied tasks suspended on this thread (TSC reference set)
        self.suspended_tied: list[TaskInstance] = []
        self.current: TaskInstance = implicit_task
        self.stats = {
            "work": 0.0,
            "mgmt": 0.0,
            "instr": 0.0,
            "idle": 0.0,
            "critical_wait": 0.0,
        }
        #: per-single-site occurrence counters (single claims are keyed
        #: by (site, occurrence) so singles inside loops pair up correctly)
        self._single_counters: dict = {}
        #: tasks executed (fresh dispatches) by this thread
        self.tasks_executed = 0
        self.tasks_stolen = 0

    # ------------------------------------------------------------------
    # Small cost/emission helpers
    # ------------------------------------------------------------------
    def _pay(self, us: float, bucket: str):
        """Charge ``us`` virtual time into an accounting bucket."""
        if us > 0.0:
            self.stats[bucket] += us
            yield Timeout(us)

    def _emit_enter(self, region: Region, parameter: Optional[tuple] = None):
        rt = self.rt
        cost = rt.instr.region_cost(region)
        if cost:
            self.stats["instr"] += cost
            yield Timeout(cost)
        rt.instr.enter(self.id, region, rt.env.now, parameter)

    def _emit_exit(self, region: Region):
        rt = self.rt
        cost = rt.instr.region_cost(region)
        if cost:
            self.stats["instr"] += cost
            yield Timeout(cost)
        rt.instr.exit(self.id, region, rt.env.now)

    def _emit_task_begin(self, task: TaskInstance):
        rt = self.rt
        cost = rt.instr.cost
        if cost:
            self.stats["instr"] += cost
            yield Timeout(cost)
        rt.instr.task_begin(
            self.id, task.region, task.instance_id, rt.env.now, task.parameter
        )

    def _emit_task_end(self, task: TaskInstance):
        rt = self.rt
        cost = rt.instr.cost
        if cost:
            self.stats["instr"] += cost
            yield Timeout(cost)
        rt.instr.task_end(self.id, task.region, task.instance_id, rt.env.now)

    def _emit_task_switch(self, instance_id: int):
        rt = self.rt
        cost = rt.instr.cost
        if cost:
            self.stats["instr"] += cost
            yield Timeout(cost)
        rt.instr.task_switch(self.id, instance_id, rt.env.now)

    def _locked(self, base_cost: float):
        """Acquire the pool lock and charge the contention-scaled hold.

        The caller mutates shared state right after (still holding the
        lock) and must call :meth:`_unlock`.  Both queueing delay and the
        scaled hold are accounted as management time.
        """
        rt = self.rt
        lock = rt.pool_lock
        t0 = rt.env.now
        yield lock.acquire()
        wait = rt.env.now - t0
        costs = rt.costs
        hold = (
            base_cost
            * (1.0 + costs.coherence_beta * (rt.config.n_threads - 1))
            * (1.0 + costs.contention_alpha * lock.waiter_count)
        )
        self.stats["mgmt"] += wait + hold
        if hold > 0.0:
            yield Timeout(hold)

    def _unlock(self, wake: bool = False) -> None:
        self.rt.pool_lock.release()
        if wake:
            self.rt.state_signal.fire()

    # ------------------------------------------------------------------
    # Main process
    # ------------------------------------------------------------------
    def process(self):
        rt = self.rt
        yield from self._pay(rt.costs.parallel_fork_us, "mgmt")
        self.implicit.state = TaskState.RUNNING
        self.implicit.executing_thread = self.id
        self.implicit.owner_thread = self.id
        status = yield from self._run_fragment(self.implicit)
        if status != "completed":
            raise RuntimeModelError(
                f"implicit task of thread {self.id} suspended -- implicit "
                "tasks must handle taskwait inline (internal error)"
            )
        self.implicit.state = TaskState.COMPLETED
        # End-of-region implicit barrier: remaining tasks execute here.
        yield from self._barrier(rt.implicit_barrier_region)
        yield from self._pay(rt.costs.parallel_join_us, "mgmt")

    # ------------------------------------------------------------------
    # Fragment execution
    # ------------------------------------------------------------------
    def _run_fragment(self, task: TaskInstance) -> "GeneratorType":
        """Drive ``task``'s generator until completion or suspension.

        Returns ``'completed'`` or ``'suspended'`` (explicit tasks only).
        """
        rt = self.rt
        gen = task.generator
        if gen is None:
            ctx = TaskContext(rt, task)
            if task.injected_fault is not None:
                produced = rt.fault_injector.faulty_body(ctx, task)
            else:
                produced = task.fn(ctx, *task.args, **task.kwargs)
            if not isinstance(produced, GeneratorType):
                # A plain function: no scheduling points, result immediate.
                task.result = produced
                return "completed"
            gen = task.generator = produced
        if task.resume_exit_region is not None:
            # We suspended inside a taskwait; de-registering the
            # suspension is locked runtime work that is measured inside
            # the still-open taskwait region, then the region closes.
            region, task.resume_exit_region = task.resume_exit_region, None
            yield from self._locked(rt.costs.task_switch_us)
            self._unlock()
            yield from self._emit_exit(region)
        send = task.pending_send
        task.pending_send = None
        while True:
            try:
                directive = gen.send(send)
            except StopIteration as stop:
                task.result = stop.value
                return "completed"
            send = None
            kind = type(directive)
            if kind is Compute:
                self.stats["work"] += directive.us
                if directive.us > 0.0:
                    yield Timeout(directive.us)
                if directive.counters:
                    rt.instr.metric(self.id, directive.counters, rt.env.now)
            elif kind is Spawn:
                send = yield from self._spawn(task, directive)
            elif kind is Taskwait:
                outcome = yield from self._taskwait(task)
                if outcome == "suspended":
                    return "suspended"
            elif kind is TaskYield:
                outcome = yield from self._taskyield(task)
                if outcome == "suspended":
                    return "suspended"
            elif kind is Barrier:
                if task.is_explicit:
                    raise RuntimeModelError(
                        "barrier yielded from an explicit task; OpenMP "
                        "forbids barriers in explicit tasks"
                    )
                yield from self._barrier(rt.barrier_region)
            elif kind is Single:
                send = yield from self._single(task, directive)
            elif kind is CriticalBegin:
                yield from self._critical_begin(directive)
            elif kind is CriticalEnd:
                yield from self._critical_end(directive)
            elif kind is RegionBegin:
                yield from self._emit_enter(
                    rt.user_region(directive.name), directive.parameter
                )
            elif kind is RegionEnd:
                yield from self._emit_exit(rt.user_region(directive.name))
            else:
                raise RuntimeModelError(
                    f"task yielded {directive!r}; expected a runtime directive "
                    "built via TaskContext"
                )

    # ------------------------------------------------------------------
    # Directive handlers
    # ------------------------------------------------------------------
    def _spawn(self, parent: TaskInstance, directive: Spawn):
        rt = self.rt
        task = rt.new_task(directive, parent)
        create_region = rt.create_region_for(task.region)
        yield from self._emit_enter(create_region)
        yield from self._pay(rt.costs.task_alloc_us, "mgmt")
        if task.included:
            # Undeferred/included task (if-clause false or final): the
            # encountering thread executes it right here, no queueing.
            yield from self._emit_exit(create_region)
            yield from self._run_included(task)
            return task.handle
        yield from self._locked(rt.costs.enqueue_us)
        parent.outstanding_children += 1
        rt.outstanding_tasks += 1
        rt.task_pool.push(self.id, task)
        self._unlock(wake=True)
        yield from self._emit_exit(create_region)
        return task.handle

    def _run_included(self, task: TaskInstance):
        """Execute an included task inline, within the creating task.

        Included tasks (and, by construction, all their descendants) never
        queue and never suspend -- their taskwaits are trivially satisfied
        because their own children execute eagerly at the spawn point.
        The profiler still sees full TaskBegin/TaskEnd bracketing, so the
        instance appears in the task trees like any other.
        """
        rt = self.rt
        parent = self.current
        task.state = TaskState.RUNNING
        task.executing_thread = self.id
        task.owner_thread = self.id
        self.current = task
        self.tasks_executed += 1
        yield from self._pay(rt.costs.task_switch_us, "mgmt")
        yield from self._emit_task_begin(task)
        status = yield from self._run_fragment(task)
        if status != "completed":  # pragma: no cover - guarded by design
            raise RuntimeModelError(
                f"included task {task.instance_id} suspended; included tasks "
                "cannot suspend"
            )
        task.state = TaskState.COMPLETED
        task.executing_thread = None
        rt.completed_tasks += 1
        yield from self._emit_task_end(task)
        self.current = parent
        if parent is not None and parent.is_explicit:
            # Resume the creating task's measurement (TaskEnd switched the
            # profiler back to the implicit task).
            yield from self._emit_task_switch(parent.instance_id)

    def _taskwait(self, task: TaskInstance):
        rt = self.rt
        region = rt.taskwait_region
        yield from self._emit_enter(region)
        yield from self._pay(rt.costs.taskwait_us, "mgmt")
        if task.children_complete():
            yield from self._emit_exit(region)
            return "done"
        if task.is_implicit:
            # The implicit task schedules other tasks while it waits.
            yield from self._schedule_until(task.children_complete)
            yield from self._emit_exit(region)
            return "done"
        # Explicit task: suspend at this scheduling point.  Registering
        # the suspension touches shared runtime state, so it goes through
        # the pool lock -- this is what makes taskwait time grow with
        # thread count in the paper's Table III ("the management time for
        # task completion and task switches is attributed to these
        # regions").
        yield from self._locked(rt.costs.task_switch_us)
        task.state = TaskState.SUSPENDED
        task.waiting_in_taskwait = True
        task.resume_exit_region = region
        if task.tied:
            self.suspended_tied.append(task)
        else:
            rt.suspended_untied.append(task)
        self._unlock()
        yield from self._emit_task_switch(implicit_instance_id(self.id))
        return "suspended"

    def _taskyield(self, task: TaskInstance):
        """OpenMP 3.1 taskyield: let queued tasks run before continuing.

        A no-op for implicit tasks (their scheduling points already run
        the scheduler) and when nothing is queued.  Otherwise the task is
        suspended at low priority: the thread prefers queued/stolen tasks
        and resumes the yielded task when nothing else is runnable.
        """
        rt = self.rt
        if task.is_implicit or task.included or rt.task_pool.total_size() == 0:
            # Implicit tasks schedule at their own points; included tasks
            # must not suspend (their descendants ran eagerly anyway).
            return "done"
        region = rt.taskyield_region
        yield from self._emit_enter(region)
        yield from self._locked(rt.costs.task_switch_us)
        task.state = TaskState.SUSPENDED
        task.yielded = True
        task.resume_exit_region = region
        if task.tied:
            self.suspended_tied.append(task)
        else:
            rt.suspended_untied.append(task)
        self._unlock()
        yield from self._emit_task_switch(implicit_instance_id(self.id))
        return "suspended"

    def _barrier(self, region: Region):
        rt = self.rt
        yield from self._emit_enter(region)
        my_generation = rt.barrier_generation
        yield from self._locked(rt.costs.barrier_us)
        rt.barrier_arrivals += 1
        self._unlock(wake=True)

        def barrier_done() -> bool:
            if rt.barrier_generation > my_generation:
                return True
            if (
                rt.barrier_arrivals >= rt.config.n_threads
                and rt.outstanding_tasks == 0
            ):
                # First thread to observe completion releases the team.
                rt.barrier_generation += 1
                rt.barrier_arrivals = 0
                rt.state_signal.fire()
                return True
            return False

        yield from self._schedule_until(barrier_done)
        yield from self._emit_exit(region)

    def _single(self, task: TaskInstance, directive: Single):
        rt = self.rt
        if task.is_explicit:
            raise RuntimeModelError("single construct inside an explicit task")
        occurrence = self._single_counters.get(directive.name, 0)
        self._single_counters[directive.name] = occurrence + 1
        key = (directive.name, occurrence)
        region = rt.single_region(directive.name)
        yield from self._emit_enter(region)
        yield from self._locked(rt.costs.single_us)
        won = key not in rt.single_claims
        if won:
            rt.single_claims[key] = self.id
        self._unlock()
        yield from self._emit_exit(region)
        return won

    def _critical_begin(self, directive: CriticalBegin):
        rt = self.rt
        region = rt.critical_region(directive.name)
        lock = rt.critical_lock(directive.name)
        yield from self._emit_enter(region)
        t0 = rt.env.now
        yield lock.acquire()
        self.stats["critical_wait"] += rt.env.now - t0
        yield from self._pay(rt.costs.critical_us, "mgmt")

    def _critical_end(self, directive: CriticalEnd):
        rt = self.rt
        lock = rt.critical_lock(directive.name)
        lock.release()
        yield from self._emit_exit(rt.critical_region(directive.name))

    # ------------------------------------------------------------------
    # Task scheduling
    # ------------------------------------------------------------------
    def _schedule_until(self, condition):
        """Execute tasks (or idle) until ``condition()`` holds."""
        rt = self.rt
        # Entering the task scheduler is a scheduling point: give the
        # instrumentation layer a chance to drain its batch, so consumers
        # (governor gauges, online validation) are caught up before this
        # thread potentially idles for a long virtual stretch.  A no-op
        # below the soft threshold.
        rt.instr.sched_point()
        while not condition():
            task, fresh = yield from self._find_task()
            if task is not None:
                yield from self._dispatch(task, fresh)
                continue
            if condition():
                break
            t0 = rt.env.now
            yield rt.state_signal.wait()
            self.stats["idle"] += rt.env.now - t0

    def _find_task(self) -> Tuple[Optional[TaskInstance], bool]:
        """Next task to run: resume > local pop > steal.

        Returns ``(task, fresh)`` where ``fresh`` marks a never-executed
        task (TaskBegin) versus a resumption (TaskSwitch).
        """
        rt = self.rt
        # 1) Resume a tied task suspended on this thread whose wait is over.
        for task in self.suspended_tied:
            if task.waiting_in_taskwait and task.children_complete():
                self.suspended_tied.remove(task)
                task.waiting_in_taskwait = False
                return task, False
        # 1b) Resume an untied task from the shared pool (any thread may).
        for task in rt.suspended_untied:
            if task.waiting_in_taskwait and task.children_complete():
                rt.suspended_untied.remove(task)
                task.waiting_in_taskwait = False
                return task, False
        # 2) Pop from the local queue (cheap unlocked emptiness pre-check,
        #    as real runtimes do before touching the shared structure).
        if rt.task_pool.local_size(self.id) > 0:
            yield from self._locked(rt.costs.dequeue_us)
            task = rt.task_pool.pop_local(self.id, self.suspended_tied)
            self._unlock()
            if task is not None:
                return task, True
        # 3) Steal.
        if rt.config.steal and rt.task_pool.total_size() > 0:
            yield from self._locked(rt.costs.steal_us)
            task = rt.task_pool.steal(self.id, self.suspended_tied)
            self._unlock()
            if task is not None:
                self.tasks_stolen += 1
                return task, True
        # 4) Resume a yielded task (taskyield gives queued tasks priority;
        #    once nothing is queued or stealable, the yielder continues).
        for task in self.suspended_tied:
            if task.yielded:
                self.suspended_tied.remove(task)
                task.yielded = False
                return task, False
        for task in rt.suspended_untied:
            if task.yielded:
                rt.suspended_untied.remove(task)
                task.yielded = False
                return task, False
        return None, False

    def _dispatch(self, task: TaskInstance, fresh: bool):
        """Run one fragment of an explicit task, then settle its fate."""
        rt = self.rt
        task.state = TaskState.RUNNING
        task.executing_thread = self.id
        previous = self.current
        self.current = task
        yield from self._pay(rt.costs.task_switch_us, "mgmt")
        if fresh:
            task.owner_thread = self.id
            self.tasks_executed += 1
            yield from self._emit_task_begin(task)
        else:
            yield from self._emit_task_switch(task.instance_id)
        status = yield from self._run_fragment(task)
        self.current = previous
        if status == "completed":
            task.state = TaskState.COMPLETED
            task.executing_thread = None
            yield from self._emit_task_end(task)
            yield from self._locked(rt.costs.task_complete_us)
            rt.outstanding_tasks -= 1
            rt.completed_tasks += 1
            if task.parent is not None:
                task.parent.outstanding_children -= 1
            self._unlock(wake=True)
        else:
            # Suspension bookkeeping already happened inside _taskwait.
            task.executing_thread = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WorkerThread {self.id}>"

"""The task profiling algorithm of the paper (Section IV-C, Fig. 12).

Responsibilities, mapped to the paper:

* **Task-instance table** -- every *active* instance (begun, not completed)
  owns a private call tree and a frame stack; the table keeps them
  addressable across suspension/resumption (Fig. 6-9).
* **Current-task pointer** -- per thread; ``None`` means the implicit task
  is executing.
* **TaskSwitch** -- pauses time measurement on every open region of the
  suspended instance and resumes it on the target instance (Fig. 12 lines
  17-38); simultaneously maintains the **stub node**: the child of the
  implicit task's current scheduling-point node that accumulates the
  task-execution time observed there and counts executed fragments
  (Section IV-B4, Fig. 5).
* **TaskEnd** -- closes the instance's root region, switches back to the
  implicit task, merges the finished instance tree into the aggregate tree
  of its task construct ("a new node is created for the first occurrence
  of this tasking construct; later occurrences are merged with this
  node"), and recycles the instance tree's nodes through the
  :class:`~repro.profiling.pool.NodePool`.

Untied-task *migration* is supported exactly as Section IV-D1 describes:
the instance table is shared between threads, so a task suspended on
thread A can be resumed on thread B -- the pointer to the task-specific
data migrates with the task.  The stub accounting always happens in the
*executing* thread's implicit tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ProfileError
from repro.events.batch import (
    F_PAYLOAD,
    INST_SHIFT,
    K_ENTER,
    K_EXIT,
    K_METRIC,
    K_TASK_BEGIN,
    K_TASK_END,
    K_TASK_SWITCH,
    KIND_MASK,
    RID_MASK,
    RID_SHIFT,
    TID_MASK,
    TID_SHIFT,
)
from repro.events.model import InstanceId, is_implicit
from repro.events.regions import Region, RegionType
from repro.profiling.calltree import CallTreeNode
from repro.profiling.memory import ConcurrencyTracker
from repro.profiling.pool import NodePool


class _Frame:
    """One open region of some task: where, since when, and how much so far.

    ``partial`` accumulates time from fragments completed before the last
    suspension; ``start`` is the virtual time of the last (re)start, or
    ``None`` while the owning task is suspended.
    """

    __slots__ = ("node", "start", "partial", "folded", "folded_region")

    def __init__(
        self,
        node: CallTreeNode,
        start: float,
        folded: bool = False,
        folded_region=None,
    ) -> None:
        self.node = node
        self.start: Optional[float] = start
        self.partial: float = 0.0
        #: frame clipped by the call-path depth limit: exits pop it, but
        #: no metrics are recorded (the time stays in the boundary node)
        self.folded = folded
        self.folded_region = folded_region

    def pause(self, now: float) -> None:
        if self.start is None:
            raise ProfileError(f"pausing already-paused frame for {self.node.display_name()!r}")
        self.partial += now - self.start
        self.start = None

    def resume(self, now: float) -> None:
        if self.start is not None:
            raise ProfileError(f"resuming running frame for {self.node.display_name()!r}")
        self.start = now

    def close(self, now: float) -> float:
        """Total accumulated duration at region exit."""
        if self.start is None:
            raise ProfileError(f"closing paused frame for {self.node.display_name()!r}")
        return self.partial + (now - self.start)


class InstanceData:
    """Measurement state of one active task instance."""

    __slots__ = (
        "instance",
        "region",
        "parameter",
        "root",
        "frames",
        "suspended",
        "begin_time",
        "fragments",
        "home_thread",
        "home_tracker",
        "home_pool",
        "stub_only",
    )

    def __init__(
        self,
        instance: InstanceId,
        region: Region,
        parameter: Optional[tuple],
        root: CallTreeNode,
        begin_time: float,
        home_thread: int,
        home_tracker: Optional[ConcurrencyTracker] = None,
        home_pool: Optional[NodePool] = None,
    ) -> None:
        self.instance = instance
        self.region = region
        self.parameter = parameter
        self.root = root
        self.frames: List[_Frame] = []
        self.suspended = False
        self.begin_time = begin_time
        self.fragments = 0
        self.home_thread = home_thread
        # Untied tasks may end on a different thread than they began on;
        # concurrency accounting and node recycling stay with the home
        # thread (the pointer migrates with the task, Section IV-D1).
        self.home_tracker = home_tracker
        self.home_pool = home_pool
        # Governor ladder level >= L3: the instance keeps only its root
        # node; every interior region is folded into it (depth limit 1).
        self.stub_only = False

    def current_node(self) -> CallTreeNode:
        return self.frames[-1].node if self.frames else self.root


#: Aggregate task trees are keyed by (task region, parameter).
TaskTreeKey = Tuple[Region, Optional[tuple]]


class ThreadTaskProfiler:
    """Per-thread half of the task profiler: implicit tree + current task.

    ``max_call_path_depth`` reproduces Score-P's call-path depth limit
    (the paper's Section IV-B3 concern about exploding trees): regions
    entered beyond the limit are folded into the boundary node -- their
    time stays inside it, no deeper nodes are created, and
    :attr:`truncated_enters` counts the clipped paths.
    """

    def __init__(
        self,
        thread_id: int,
        implicit_region: Region,
        instance_table: Dict[InstanceId, InstanceData],
        start_time: float = 0.0,
        max_call_path_depth: Optional[int] = None,
    ) -> None:
        self.thread_id = thread_id
        self.implicit_root = CallTreeNode(implicit_region)
        self._implicit_frames: List[_Frame] = [_Frame(self.implicit_root, start_time)]
        self._table = instance_table
        self.current: Optional[InstanceData] = None
        self._stub_frame: Optional[_Frame] = None
        #: finished-task aggregate trees of this thread
        self.task_trees: Dict[TaskTreeKey, CallTreeNode] = {}
        # Slabbed allocation amortizes node construction on the columnar
        # hot path; counters (and thus cube exports) are slab-invariant.
        self.pool = NodePool(slab_size=16)
        self.concurrency = ConcurrencyTracker()
        if max_call_path_depth is not None and max_call_path_depth < 1:
            raise ValueError("max_call_path_depth must be >= 1")
        self.max_call_path_depth = max_call_path_depth
        #: enters folded away by the depth limit
        self.truncated_enters = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _frames(self) -> List[_Frame]:
        return self.current.frames if self.current is not None else self._implicit_frames

    def _current_node(self) -> CallTreeNode:
        if self.current is not None:
            return self.current.current_node()
        return self._implicit_frames[-1].node if self._implicit_frames else self.implicit_root

    def implicit_current_node(self) -> CallTreeNode:
        """The implicit task's position, regardless of the current task."""
        return self._implicit_frames[-1].node if self._implicit_frames else self.implicit_root

    # ------------------------------------------------------------------
    # Region events
    # ------------------------------------------------------------------
    def enter(self, region: Region, time: float, parameter: Optional[tuple] = None) -> CallTreeNode:
        """Enter a region in the context of the current task."""
        frames = self._frames()
        limit = self.max_call_path_depth
        if self.current is not None and self.current.stub_only:
            # Governor stub-only accounting: the instance is its root node;
            # interior regions fold into it, preserving inclusive time.
            limit = 1
        if limit is not None and len(frames) >= limit:
            # Depth limit: fold this region into the boundary node.  The
            # folded frame keeps nesting balanced; its time is already
            # inside the boundary node's inclusive time.
            self.truncated_enters += 1
            boundary = frames[-1].node if frames else (
                self.current.root if self.current is not None else self.implicit_root
            )
            frames.append(_Frame(boundary, time, folded=True, folded_region=region))
            return boundary
        if self.current is not None:
            parent = self.current.current_node()
            node = parent.child(region, parameter, factory=self.pool.acquire)
        else:
            parent = self.implicit_current_node()
            node = parent.child(region, parameter)
        frames.append(_Frame(node, time))
        return node

    def exit(self, region: Region, time: float) -> CallTreeNode:
        """Exit the innermost open region of the current task."""
        frames = self._frames()
        # frames[0] is the root frame (implicit task root or instance root);
        # it is closed by finish()/task_end(), never by a plain exit.
        if len(frames) <= 1:
            raise ProfileError(
                f"thread {self.thread_id}: exit {region.name!r} with no open region"
            )
        frame = frames.pop()
        expected = frame.folded_region if frame.folded else frame.node.region
        if expected is not region:
            frames.append(frame)
            raise ProfileError(
                f"thread {self.thread_id}: exit {region.name!r} does not match "
                f"innermost open region {expected.name!r}"
            )
        if not frame.folded:
            frame.node.metrics.record_visit(frame.close(time))
        return frame.node

    def metric(self, counters: dict) -> None:
        """Attribute custom counters to the current task's current node."""
        self._current_node().metrics.add_counters(counters)

    # ------------------------------------------------------------------
    # Task events (Fig. 12)
    # ------------------------------------------------------------------
    def task_begin(
        self,
        region: Region,
        instance: InstanceId,
        time: float,
        parameter: Optional[tuple] = None,
    ) -> InstanceData:
        """TaskBegin: create instance data, switch to it, enter its root."""
        if instance in self._table:
            raise ProfileError(f"instance {instance} already active")
        root = self.pool.acquire(region, parameter)
        data = InstanceData(
            instance,
            region,
            parameter,
            root,
            time,
            self.thread_id,
            home_tracker=self.concurrency,
            home_pool=self.pool,
        )
        self._table[instance] = data
        self.concurrency.instance_created()
        self.task_switch(instance, time)
        # Enter(task instance, task region): open the root frame.
        data.frames.append(_Frame(root, time))
        return data

    def task_switch(self, instance: InstanceId, time: float) -> None:
        """TaskSwitch: suspend the current task, resume ``instance``.

        ``instance`` may be an implicit id (negative), meaning "back to the
        implicit task".
        """
        # -- leave the currently executing explicit task, if any ----------
        if self.current is not None:
            leaving = self.current
            stub = self._stub_frame
            if stub is None:
                raise ProfileError("explicit task current but no stub frame open")
            stub.node.metrics.add_time(stub.close(time))
            self._stub_frame = None
            for frame in leaving.frames:
                frame.pause(time)
            leaving.suspended = True
            self.current = None

        if is_implicit(instance):
            return

        # -- resume / start the target explicit task ----------------------
        data = self._table.get(instance)
        if data is None:
            raise ProfileError(f"task_switch to unknown instance {instance}")
        if data.suspended:
            for frame in data.frames:
                frame.resume(time)
            data.suspended = False
        self.current = data
        data.fragments += 1
        # Stub node: child of the implicit task's current scheduling point.
        anchor = self.implicit_current_node()
        stub = anchor.child(data.region, None, is_stub=True)
        stub.metrics.count_fragment()
        self._stub_frame = _Frame(stub, time)

    def task_end(self, region: Region, instance: InstanceId, time: float) -> CallTreeNode:
        """TaskEnd: close the root, switch to implicit, merge, recycle.

        Returns the (persistent) aggregate tree root the instance was
        merged into.
        """
        data = self._table.get(instance)
        if data is None:
            raise ProfileError(f"task_end for unknown instance {instance}")
        if self.current is not data:
            raise ProfileError(
                f"task_end for instance {instance} which is not current on "
                f"thread {self.thread_id}"
            )
        if len(data.frames) != 1:
            open_names = ", ".join(f.node.region.name for f in data.frames[1:])
            raise ProfileError(
                f"instance {instance} ended with open region(s): {open_names}"
            )
        root_frame = data.frames.pop()
        if root_frame.node is not data.root:
            raise ProfileError("instance root frame does not reference root node")
        data.root.metrics.record_visit(root_frame.close(time))

        self.task_switch(-(self.thread_id + 1), time)  # back to the implicit task

        # Merge into the aggregate tree of this task construct.
        key: TaskTreeKey = (data.region, data.parameter)
        aggregate = self.task_trees.get(key)
        if aggregate is None:
            aggregate = CallTreeNode(data.region, data.parameter)
            self.task_trees[key] = aggregate
        aggregate.merge(data.root)

        del self._table[instance]
        (data.home_pool or self.pool).release_tree(data.root)
        (data.home_tracker or self.concurrency).instance_completed()
        return aggregate

    # ------------------------------------------------------------------
    # Salvage helpers (lenient mode only -- never called on the hot path)
    # ------------------------------------------------------------------
    def salvage_drop_current(self, time: float) -> Optional[InstanceData]:
        """Detach the current explicit task without merging it.

        Used when quarantining an instance whose event history is broken:
        the stub frame is closed (its time is real and stays in the
        implicit tree) but the instance tree is discarded.
        """
        data = self.current
        if data is None:
            return None
        stub = self._stub_frame
        if stub is not None and stub.start is not None:
            stub.node.metrics.add_time(stub.close(time))
        self._stub_frame = None
        self.current = None
        return data

    def salvage_finish(self, time: float) -> CallTreeNode:
        """Force-close whatever is still open, then finish normally."""
        if self.current is not None:
            self.salvage_drop_current(time)
        while len(self._implicit_frames) > 1:
            frame = self._implicit_frames.pop()
            if not frame.folded and frame.start is not None:
                frame.node.metrics.record_visit(frame.close(time))
        return self.finish(time)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self, time: float) -> CallTreeNode:
        """Close the implicit task's root frame; returns the main tree."""
        if self.current is not None:
            raise ProfileError(
                f"thread {self.thread_id} finished while instance "
                f"{self.current.instance} is current"
            )
        if len(self._implicit_frames) != 1:
            open_names = ", ".join(
                f.node.region.name for f in self._implicit_frames[1:]
            )
            raise ProfileError(
                f"thread {self.thread_id} finished with open region(s): {open_names}"
            )
        frame = self._implicit_frames.pop()
        frame.node.metrics.record_visit(frame.close(time))
        return self.implicit_root


class TaskProfiler:
    """Whole-program task profiler: one :class:`ThreadTaskProfiler` per thread.

    The instance table is shared across threads so that untied tasks may
    migrate (Section IV-D1); each event is routed to the executing
    thread's profiler.  The profiler implements the POMP2-style listener
    protocol (:class:`repro.instrument.pomp2.Pomp2Listener`) plus
    ``on_batch`` for the columnar batches the instrumentation layer fills.

    ``strict=False`` selects *lenient* (salvage) mode: instead of raising
    :class:`~repro.errors.ProfileError` on an inconsistent event, the
    profiler drops the event or quarantines the offending task instance
    and records the incident in :attr:`salvage`.  The lenient handlers
    are installed as *instance* attributes shadowing the class methods,
    so the default strict path is byte-identical to the original
    implementation -- no per-event mode check on the hot path.
    """

    def __init__(
        self,
        n_threads: int,
        implicit_region: Region,
        start_time: float = 0.0,
        max_call_path_depth: Optional[int] = None,
        strict: bool = True,
        governor=None,
    ) -> None:
        self.n_threads = n_threads
        self.implicit_region = implicit_region
        self.instance_table: Dict[InstanceId, InstanceData] = {}
        self.threads: List[ThreadTaskProfiler] = [
            ThreadTaskProfiler(
                t,
                implicit_region,
                self.instance_table,
                start_time,
                max_call_path_depth=max_call_path_depth,
            )
            for t in range(n_threads)
        ]
        self.finished = False
        self._finish_time: Optional[float] = None
        self.strict = strict
        self.salvage = None
        if not strict:
            from repro.profiling.salvage import SalvageReport

            self.salvage = SalvageReport()
            # Shadow the listener entry points with the lenient variants.
            self.on_enter = self._salvage_on_enter  # type: ignore[method-assign]
            self.on_exit = self._salvage_on_exit  # type: ignore[method-assign]
            self.on_task_begin = self._salvage_on_task_begin  # type: ignore[method-assign]
            self.on_task_switch = self._salvage_on_task_switch  # type: ignore[method-assign]
            self.on_task_end = self._salvage_on_task_end  # type: ignore[method-assign]
            self.on_finish = self._salvage_on_finish  # type: ignore[method-assign]
        self.governor = governor
        if governor is not None:
            # Governed wrappers compose on top of whichever handlers are
            # installed (strict class methods or lenient instance
            # attributes); with no governor nothing here runs and the
            # hot path stays byte-identical.
            self._gov_live: set = set()
            self._gov_stub: set = set()
            self._base_on_task_begin = self.on_task_begin
            self._base_on_task_end = self.on_task_end
            self.on_task_begin = self._governed_on_task_begin  # type: ignore[method-assign]
            self.on_task_end = self._governed_on_task_end  # type: ignore[method-assign]
            from repro.governor import L1_EAGER_RELEASE, L2_AGGREGATES_ONLY

            governor.attach_gauge(
                "pool_nodes",
                # held_count (free list + virgin slab stock) keeps the
                # gauge honest about slab memory the pool retains.
                lambda: sum(t.pool.live_count + t.pool.held_count for t in self.threads),
            )
            governor.on_level(L1_EAGER_RELEASE, self._ladder_eager_release)
            governor.on_level(L2_AGGREGATES_ONLY, self._ladder_aggregates_only)

    @property
    def truncated_enters(self) -> int:
        """Region enters folded away by the call-path depth limit."""
        return sum(t.truncated_enters for t in self.threads)

    # -- listener protocol -------------------------------------------------
    def on_enter(self, thread_id: int, region: Region, time: float, parameter=None) -> None:
        self.threads[thread_id].enter(region, time, parameter)

    def on_exit(self, thread_id: int, region: Region, time: float) -> None:
        self.threads[thread_id].exit(region, time)

    def on_task_begin(
        self, thread_id: int, region: Region, instance: InstanceId, time: float, parameter=None
    ) -> None:
        self.threads[thread_id].task_begin(region, instance, time, parameter)

    def on_task_switch(self, thread_id: int, instance: InstanceId, time: float) -> None:
        profiler = self.threads[thread_id]
        if not is_implicit(instance):
            data = self.instance_table.get(instance)
            if data is None:
                raise ProfileError(f"task_switch to unknown instance {instance}")
        profiler.task_switch(instance, time)

    def on_task_end(self, thread_id: int, region: Region, instance: InstanceId, time: float) -> None:
        self.threads[thread_id].task_end(region, instance, time)

    def on_metric(self, thread_id: int, counters: dict, time: float) -> None:
        self.threads[thread_id].metric(counters)

    def on_phase_begin(self, name: str) -> None:
        for thread in self.threads:
            thread.concurrency.start_phase(name)

    def on_phase_end(self, name: str) -> None:
        for thread in self.threads:
            thread.concurrency.end_phase()

    def on_finish(self, time: float) -> None:
        """End of measurement: close every thread's implicit root."""
        if self.instance_table:
            raise ProfileError(
                f"measurement finished with active instances: "
                f"{sorted(self.instance_table)}"
            )
        for thread in self.threads:
            thread.finish(time)
        self.finished = True
        self._finish_time = time

    # -- batched dispatch --------------------------------------------------
    def on_batch(self, batch) -> None:
        """Consume one columnar event batch (the deferred-analysis path).

        Strict ungoverned mode -- the hot path -- decodes each packed
        code and calls the per-thread handlers directly, saving the
        listener-protocol frame per event.  Lenient or governed mode
        replays through ``self.on_*`` attribute lookup instead, so the
        shadowed salvage/governed handlers observe every event exactly
        as under per-event dispatch.  Either way the event sequence each
        :class:`ThreadTaskProfiler` sees is identical to the legacy
        path, which is what keeps the cubes byte-identical.
        """
        codes = batch.codes
        times = batch.times
        payloads = batch.payloads
        lookup = batch.registry.lookup
        if not self.strict or self.governor is not None:
            on_enter = self.on_enter
            on_exit = self.on_exit
            on_task_begin = self.on_task_begin
            on_task_end = self.on_task_end
            on_task_switch = self.on_task_switch
            on_metric = self.on_metric
            for i, code in enumerate(codes):
                kind = code & KIND_MASK
                tid = (code >> TID_SHIFT) & TID_MASK
                if kind == K_ENTER:
                    on_enter(
                        tid,
                        lookup((code >> RID_SHIFT) & RID_MASK),
                        times[i],
                        payloads[i] if code & F_PAYLOAD else None,
                    )
                elif kind == K_EXIT:
                    on_exit(tid, lookup((code >> RID_SHIFT) & RID_MASK), times[i])
                elif kind == K_TASK_BEGIN:
                    zz = code >> INST_SHIFT
                    on_task_begin(
                        tid,
                        lookup((code >> RID_SHIFT) & RID_MASK),
                        (zz >> 1) if not zz & 1 else -((zz + 1) >> 1),
                        times[i],
                        payloads[i] if code & F_PAYLOAD else None,
                    )
                elif kind == K_TASK_END:
                    zz = code >> INST_SHIFT
                    on_task_end(
                        tid,
                        lookup((code >> RID_SHIFT) & RID_MASK),
                        (zz >> 1) if not zz & 1 else -((zz + 1) >> 1),
                        times[i],
                    )
                elif kind == K_TASK_SWITCH:
                    zz = code >> INST_SHIFT
                    on_task_switch(
                        tid, (zz >> 1) if not zz & 1 else -((zz + 1) >> 1), times[i]
                    )
                elif kind == K_METRIC:
                    on_metric(tid, payloads[i], times[i])
            return
        threads = self.threads
        instance_table = self.instance_table
        for i, code in enumerate(codes):
            kind = code & KIND_MASK
            thread = threads[(code >> TID_SHIFT) & TID_MASK]
            if kind == K_ENTER:
                thread.enter(
                    lookup((code >> RID_SHIFT) & RID_MASK),
                    times[i],
                    payloads[i] if code & F_PAYLOAD else None,
                )
            elif kind == K_EXIT:
                thread.exit(lookup((code >> RID_SHIFT) & RID_MASK), times[i])
            elif kind == K_TASK_BEGIN:
                zz = code >> INST_SHIFT
                thread.task_begin(
                    lookup((code >> RID_SHIFT) & RID_MASK),
                    (zz >> 1) if not zz & 1 else -((zz + 1) >> 1),
                    times[i],
                    payloads[i] if code & F_PAYLOAD else None,
                )
            elif kind == K_TASK_END:
                zz = code >> INST_SHIFT
                thread.task_end(
                    lookup((code >> RID_SHIFT) & RID_MASK),
                    (zz >> 1) if not zz & 1 else -((zz + 1) >> 1),
                    times[i],
                )
            elif kind == K_TASK_SWITCH:
                zz = code >> INST_SHIFT
                instance = (zz >> 1) if not zz & 1 else -((zz + 1) >> 1)
                if instance >= 0 and instance_table.get(instance) is None:
                    raise ProfileError(
                        f"task_switch to unknown instance {instance}"
                    )
                thread.task_switch(instance, times[i])
            elif kind == K_METRIC:
                thread.metric(payloads[i])

    # -- lenient (salvage) listener variants -------------------------------
    # Installed as instance attributes by __init__(strict=False); the class
    # methods above stay untouched for the strict hot path.
    def _quarantine(self, instance: InstanceId, time: float, reason: str) -> None:
        """Evict an instance whose event history cannot be trusted."""
        self.salvage.quarantine(instance, reason)
        data = self.instance_table.pop(instance, None)
        if data is None:
            return
        for thread in self.threads:
            if thread.current is data:
                thread.salvage_drop_current(time)
        tracker = data.home_tracker
        if tracker is not None and tracker.current > 0:
            tracker.instance_completed()
        if data.home_pool is not None:
            data.home_pool.release_tree(data.root)

    def _salvage_on_enter(self, thread_id, region, time, parameter=None) -> None:
        self.salvage.events_seen += 1
        try:
            self.threads[thread_id].enter(region, time, parameter)
        except ProfileError as exc:
            self.salvage.events_dropped += 1
            self.salvage.note(f"dropped enter {region.name!r}: {exc}")

    def _salvage_on_exit(self, thread_id, region, time) -> None:
        self.salvage.events_seen += 1
        try:
            self.threads[thread_id].exit(region, time)
        except ProfileError as exc:
            self.salvage.events_dropped += 1
            self.salvage.note(f"dropped exit {region.name!r}: {exc}")

    def _salvage_on_task_begin(self, thread_id, region, instance, time, parameter=None) -> None:
        self.salvage.events_seen += 1
        try:
            self.threads[thread_id].task_begin(region, instance, time, parameter)
        except ProfileError as exc:
            self.salvage.events_dropped += 1
            self._quarantine(instance, time, f"task_begin failed: {exc}")

    def _salvage_on_task_switch(self, thread_id, instance, time) -> None:
        self.salvage.events_seen += 1
        try:
            self.threads[thread_id].task_switch(instance, time)
        except ProfileError as exc:
            # task_switch leaves the thread on its implicit task when the
            # target is unusable, which is a consistent state to continue
            # from; the failed switch itself is simply not performed.
            self.salvage.events_dropped += 1
            self.salvage.note(f"dropped task_switch to {instance}: {exc}")

    def _salvage_on_task_end(self, thread_id, region, instance, time) -> None:
        self.salvage.events_seen += 1
        try:
            self.threads[thread_id].task_end(region, instance, time)
            self.salvage.instances_completed += 1
        except ProfileError as exc:
            self.salvage.events_dropped += 1
            self._quarantine(instance, time, f"task_end failed: {exc}")

    def _salvage_on_finish(self, time) -> None:
        for instance in sorted(self.instance_table):
            self._quarantine(instance, time, "still active at end of measurement")
        for thread in self.threads:
            thread.salvage_finish(time)
        self.finished = True
        self._finish_time = time

    # -- governed listener variants ----------------------------------------
    # Installed as instance attributes by __init__(governor=...); they wrap
    # whatever task_begin/task_end handlers were installed below them
    # (strict or lenient) and apply the degradation ladder to new instances.
    def _ladder_eager_release(self) -> None:
        """L1: pools stop retaining freed nodes (eager reclamation)."""
        for thread in self.threads:
            thread.pool.max_free = 0
            thread.pool.trim(0)

    def _ladder_aggregates_only(self) -> None:
        """L2: trim pool free lists down to the configured residue."""
        max_free = self.governor.budget.l2_max_free
        for thread in self.threads:
            thread.pool.max_free = max_free
            thread.pool.trim(max_free)

    def _governed_on_task_begin(self, thread_id, region, instance, time, parameter=None) -> None:
        from repro.governor import L2_AGGREGATES_ONLY, L3_STUB_ONLY

        governor = self.governor
        level = governor.check(time)  # may raise MemoryPressureStop (L4)
        stub = level >= L3_STUB_ONLY
        if level >= L2_AGGREGATES_ONLY:
            # Aggregates-only: drop the per-instance parameter split so
            # all instances of the construct merge into one subtree.
            parameter = None
        self._base_on_task_begin(thread_id, region, instance, time, parameter)
        data = self.instance_table.get(instance)
        if data is None:
            # Lenient base handler dropped/quarantined the begin.
            return
        governor.note_instance_begun(time, stub=stub)
        if stub:
            data.stub_only = True
            self._gov_stub.add(instance)
        else:
            self._gov_live.add(instance)

    def _governed_on_task_end(self, thread_id, region, instance, time) -> None:
        self._base_on_task_end(thread_id, region, instance, time)
        if instance in self._gov_stub:
            self._gov_stub.discard(instance)
            self.governor.note_instance_completed(stub=True)
        elif instance in self._gov_live:
            self._gov_live.discard(instance)
            self.governor.note_instance_completed(stub=False)

    # -- results -----------------------------------------------------------
    def build_profile(self):
        """Package the finished measurement into a :class:`Profile`."""
        from repro.profiling.profile import Profile

        if not self.finished:
            raise ProfileError("build_profile() before on_finish()")
        return Profile.from_task_profiler(self)

"""The simulated OpenMP runtime: team orchestration and shared state.

One :class:`OpenMPRuntime` executes one parallel region -- the shape of
every BOTS kernel and of the paper's experiments, which measure exactly
the tasking kernel's parallel region.  All shared runtime state (the task
pool and its lock, barrier/single bookkeeping, instance ids) lives here;
the per-thread logic lives in :class:`~repro.runtime.thread.WorkerThread`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import RuntimeModelError, WatchdogTimeout
from repro.events.regions import Region, RegionRegistry, RegionType
from repro.events.stream import ProgramTrace
from repro.instrument.layer import InstrumentationLayer
from repro.profiling.profile import Profile
from repro.profiling.task_profiler import TaskProfiler
from repro.runtime.config import RuntimeConfig
from repro.runtime.directives import Spawn
from repro.runtime.queues import TaskPool
from repro.runtime.task import TaskInstance
from repro.runtime.thread import WorkerThread
from repro.sim.core import Environment
from repro.sim.process import Process
from repro.sim.rng import DeterministicRNG
from repro.sim.sync import Signal, SimLock


@dataclass
class ParallelResult:
    """Everything a finished parallel region reports."""

    region_name: str
    #: virtual duration of the region (the paper's "runtime of the
    #: parallel region, containing the tasking kernel")
    duration: float
    #: per-thread return values of the implicit task bodies
    return_values: List[Any]
    #: completed explicit task instances
    completed_tasks: int
    #: per-thread accounting buckets (work/mgmt/instr/idle/critical_wait)
    thread_stats: List[dict]
    pool_stats: dict
    lock_stats: dict
    events_dispatched: int
    downgraded_untied: int
    tasks_stolen: int
    profile: Optional[Profile] = None
    trace: Optional[ProgramTrace] = None
    #: ``{substrate name: artifact}`` for every attached measurement
    #: substrate (``profile`` and ``trace`` above are the two classic
    #: artifacts, kept as first-class fields for compatibility)
    substrate_artifacts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def kernel_time(self) -> float:
        """Alias used throughout the analysis layer."""
        return self.duration

    def total(self, bucket: str) -> float:
        """Sum one accounting bucket over all threads."""
        return sum(stats[bucket] for stats in self.thread_stats)


class OpenMPRuntime:
    """A simulated OpenMP 3.0 runtime executing one parallel region."""

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        registry: Optional[RegionRegistry] = None,
    ) -> None:
        self.config = config if config is not None else RuntimeConfig()
        self.costs = self.config.costs
        self.registry = registry if registry is not None else RegionRegistry()
        self.env = Environment()
        self.rng = DeterministicRNG(self.config.seed)

        # -- shared runtime state ---------------------------------------
        self.pool_lock = SimLock(self.env, "task-pool")
        self.state_signal = Signal(self.env)
        self.task_pool = TaskPool(
            self.config.n_threads,
            self.config.queue_policy,
            self.config.steal_policy,
            self.rng,
            tsc_enabled=self.config.tsc_enabled,
        )
        self.outstanding_tasks = 0
        self.completed_tasks = 0
        self.barrier_generation = 0
        self.barrier_arrivals = 0
        self.single_claims: Dict[tuple, int] = {}
        self.suspended_untied: List[TaskInstance] = []
        self.downgraded_untied = 0
        self._instance_counter = 0
        self._ran = False

        # -- shared region handles ---------------------------------------
        self.taskwait_region = self.registry.register("taskwait", RegionType.TASKWAIT)
        self.taskyield_region = self.registry.register("taskyield", RegionType.TASKYIELD)
        self.barrier_region = self.registry.register("barrier", RegionType.BARRIER)
        self.implicit_barrier_region = self.registry.register(
            "implicit barrier", RegionType.IMPLICIT_BARRIER
        )
        self._task_regions: Dict[str, Region] = {}
        self._create_regions: Dict[Region, Region] = {}
        self._single_regions: Dict[str, Region] = {}
        self._critical_regions: Dict[str, Region] = {}
        self._user_regions: Dict[str, Region] = {}
        self._critical_locks: Dict[str, SimLock] = {}

        # -- measurement --------------------------------------------------
        self.instr = InstrumentationLayer(enabled=False)
        self.profiler: Optional[TaskProfiler] = None
        self.trace: Optional[ProgramTrace] = None
        self.substrate_manager = None
        self._profiling_substrate = None

        # -- fault injection ----------------------------------------------
        # The faults package is only imported when a plan is armed, so
        # the common path never even pays the import.
        self.fault_injector = None
        if self.config.fault_plan is not None:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(self.config.fault_plan)

        # -- resource governor --------------------------------------------
        # Same lazy pattern: without a budget the governor package is
        # never imported and measurement is byte-identical to a build
        # without it.  ``memory_budget`` may be a MemoryBudget, a dict of
        # its fields, or a bare int (cap on live instance trees).
        self.governor = None
        if self.config.memory_budget is not None:
            from repro.governor import MemoryBudget, ResourceGovernor

            budget = self.config.memory_budget
            if isinstance(budget, int):
                budget = MemoryBudget(max_live_instances=budget)
            elif isinstance(budget, dict):
                budget = MemoryBudget.from_dict(budget)
            self.governor = ResourceGovernor(budget)

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------
    def task_region_for(self, directive: Spawn) -> Region:
        name = directive.label or getattr(directive.fn, "__name__", "task")
        region = self._task_regions.get(name)
        if region is None:
            region = self.registry.register(name, RegionType.TASK)
            self._task_regions[name] = region
        return region

    def create_region_for(self, task_region: Region) -> Region:
        region = self._create_regions.get(task_region)
        if region is None:
            region = self.registry.register(
                f"create@{task_region.name}", RegionType.TASK_CREATE
            )
            self._create_regions[task_region] = region
        return region

    def single_region(self, name: str) -> Region:
        region = self._single_regions.get(name)
        if region is None:
            region = self.registry.register(name, RegionType.SINGLE)
            self._single_regions[name] = region
        return region

    def user_region(self, name: str) -> Region:
        region = self._user_regions.get(name)
        if region is None:
            region = self.registry.register(name, RegionType.PHASE)
            self._user_regions[name] = region
        return region

    def critical_region(self, name: str) -> Region:
        region = self._critical_regions.get(name)
        if region is None:
            region = self.registry.register(
                f"critical@{name}", RegionType.CRITICAL
            )
            self._critical_regions[name] = region
        return region

    def critical_lock(self, name: str) -> SimLock:
        lock = self._critical_locks.get(name)
        if lock is None:
            lock = SimLock(self.env, f"critical@{name}")
            self._critical_locks[name] = lock
        return lock

    # ------------------------------------------------------------------
    # Task creation
    # ------------------------------------------------------------------
    def new_task(self, directive: Spawn, parent: TaskInstance) -> TaskInstance:
        tied = directive.tied
        if not tied and not self.config.allow_untied:
            # Paper Section IV-D2: "our instrumentation makes all tasks
            # tied by default" because arbitrary interruption points are
            # not observable.
            tied = True
            self.downgraded_untied += 1
        self._instance_counter += 1
        task = TaskInstance(
            instance_id=self._instance_counter,
            region=self.task_region_for(directive),
            fn=directive.fn,
            args=directive.args,
            kwargs=directive.kwargs,
            parent=parent,
            tied=tied,
            parameter=directive.parameter,
            creation_time=self.env.now,
        )
        # final propagates down the task tree; a final ancestor, a false
        # if-clause, or an included parent makes the task included
        # (executed immediately, never queued).  Descendants of an
        # undeferred task are included too -- the documented
        # simplification (DESIGN.md E5): included tasks must not suspend,
        # so their taskwaits must be trivially satisfiable.
        task.final = directive.final or getattr(parent, "final", False)
        task.included = (
            task.final
            or not directive.if_clause
            or getattr(parent, "included", False)
        )
        if self.fault_injector is not None:
            self.fault_injector.on_new_task(task)
        if self.governor is not None:
            # Admission control at the task-creation scheduling point:
            # the governor re-evaluates pressure (and may raise
            # MemoryPressureStop) before the new task enters the pool.
            # Batched dispatch defers consumer state, so drain the event
            # batch first -- the governor's gauges (pool nodes, live
            # instances, event buffers) must reflect every event up to
            # this scheduling point.
            self.instr.flush()
            self.governor.on_task_created(self.env.now)
        return task

    # ------------------------------------------------------------------
    # Measurement substrates
    # ------------------------------------------------------------------
    def _resolve_substrates(self) -> list:
        """The substrate instances this run should attach.

        ``config.substrates`` entries may be registry names or ready
        instances; when empty, the classic flags select the built-ins
        (``instrument`` -> profiling, ``record_events`` -> tracing).
        """
        config = self.config
        if config.substrates:
            from repro.substrates import get_substrate

            return [
                get_substrate(spec) if isinstance(spec, str) else spec
                for spec in config.substrates
            ]
        substrates: list = []
        if config.instrument:
            from repro.substrates.profiling import ProfilingSubstrate

            substrates.append(ProfilingSubstrate())
        if config.record_events:
            from repro.substrates.tracing import TracingSubstrate

            substrates.append(TracingSubstrate())
        return substrates

    def _setup_substrates(self, implicit_region: Region):
        """Build and initialize the run's substrate manager (or ``None``).

        Also re-exposes the two classic consumers as :attr:`profiler` and
        :attr:`trace` so downstream code (fault injection, salvage,
        analysis) keeps working unchanged.
        """
        substrates = self._resolve_substrates()
        if not substrates:
            return None
        from repro.substrates.governor import GovernorSubstrate
        from repro.substrates.manager import SubstrateManager
        from repro.substrates.profiling import ProfilingSubstrate
        from repro.substrates.tracing import TracingSubstrate

        if self.governor is not None and not any(
            isinstance(s, GovernorSubstrate) for s in substrates
        ):
            # An armed governor always reports through its substrate.
            substrates.append(GovernorSubstrate())
        for substrate in substrates:
            # The config-level depth limit applies unless the substrate
            # was constructed with an explicit one.
            if isinstance(substrate, ProfilingSubstrate):
                if substrate.max_call_path_depth is None:
                    substrate.max_call_path_depth = self.config.max_call_path_depth
                if substrate.governor is None:
                    substrate.governor = self.governor
            elif isinstance(substrate, GovernorSubstrate):
                if substrate.governor is None:
                    substrate.governor = self.governor
        manager = SubstrateManager(substrates)
        manager.initialize(
            self.registry, self.config.n_threads, self.env.now, implicit_region
        )
        self.substrate_manager = manager
        profiling = manager.find(ProfilingSubstrate)
        tracing = manager.find(TracingSubstrate)
        self._profiling_substrate = profiling
        self.profiler = profiling.profiler if profiling is not None else None
        self.trace = tracing.trace if tracing is not None else None
        from repro.substrates.recorder import RecorderSubstrate

        recorder = manager.find(RecorderSubstrate)
        if recorder is not None and self.profiler is not None:
            # Checkpoints snapshot the live profiler; injected here
            # because the profiler only exists after manager init.
            recorder.profiler = self.profiler
        if self.governor is not None and self.trace is not None:
            trace = self.trace
            self.governor.attach_gauge(
                "event_buffer", lambda: sum(len(s) for s in trace.streams)
            )
        return manager

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def parallel(
        self, body_fn, *args: Any, name: str = "parallel", **kwargs: Any
    ) -> ParallelResult:
        """Run ``body_fn(ctx, *args, **kwargs)`` on every team thread.

        ``body_fn`` is a generator function (it may also be a plain
        function if it has no scheduling points).  Returns the
        :class:`ParallelResult`; when instrumentation is enabled the
        result carries the task-aware :class:`~repro.profiling.profile.Profile`.
        """
        if self._ran:
            raise RuntimeModelError(
                "this OpenMPRuntime already executed its parallel region; "
                "create a new runtime per region"
            )
        self._ran = True
        n = self.config.n_threads
        implicit_region = self.registry.register(name, RegionType.IMPLICIT_TASK)

        # Measurement setup: resolve the configured consumers into a
        # substrate manager (Score-P substrate architecture).  The empty
        # default derives the classic wiring from the instrument /
        # record_events flags, so the event sequence each consumer sees --
        # and therefore the cube output -- is identical to the historical
        # direct profiler/recorder wiring.
        manager = self._setup_substrates(implicit_region)
        if manager is not None:
            base_cost = self.costs.instr_event_us if self.config.instrument else 0.0
            region_filter = (
                self.config.measurement_filter if self.config.instrument else None
            )
            # Events fill a struct-of-arrays batch that drains through
            # manager.on_batch at scheduling-point boundaries.
            self.instr = InstrumentationLayer(
                enabled=True,
                per_event_cost=base_cost + manager.extra_cost_per_event,
                listener=manager,
                region_filter=region_filter,
                registry=self.registry,
                flush_threshold=self.config.batch_flush_threshold,
                capacity=self.config.batch_capacity,
            )
            self.instr.phase_begin(name)

        injector = self.fault_injector
        if (
            injector is not None
            and self.trace is not None
            and injector.plan.wants_stream_faults
        ):
            self.trace.attach_injector(injector)

        # Team setup: one implicit task + worker per thread.
        implicit_tasks = [
            TaskInstance(
                instance_id=-(t + 1),
                region=implicit_region,
                fn=body_fn,
                args=args,
                kwargs=kwargs,
                parent=None,
            )
            for t in range(n)
        ]
        workers = [WorkerThread(self, t, implicit_tasks[t]) for t in range(n)]
        for worker in workers:
            Process(self.env, worker.process(), name=f"thread-{worker.id}")

        start = self.env.now
        watchdog = self.config.watchdog_us
        if watchdog is None:
            self.env.run()
        else:
            self.env.run(until=start + watchdog)
            if self.env.pending():
                raise WatchdogTimeout(
                    f"parallel region {name!r} exceeded its watchdog deadline "
                    f"of {watchdog:g} virtual µs with {self.env.pending()} "
                    f"event(s) still queued (blocked: {self.env.blocked_report()})"
                )
        duration = self.env.now - start

        if injector is not None and self.trace is not None:
            # Events still withheld for reordering surface at the end --
            # after the final batch drains, so they land behind every
            # recorded event.
            self.instr.flush()
            for event in injector.drain():
                self.trace.streams[event.thread_id].append_unchecked(event)

        if self.outstanding_tasks != 0:  # pragma: no cover - invariant
            raise RuntimeModelError(
                f"region finished with {self.outstanding_tasks} outstanding tasks"
            )

        profile: Optional[Profile] = None
        substrate_artifacts: Dict[str, Any] = {}
        substrate_report: Dict[str, dict] = {}
        if manager is not None:
            self.instr.phase_end(name)
            self.instr.finish(self.env.now)
            substrate_artifacts = manager.artifacts()
            substrate_report = manager.report()
            if self._profiling_substrate is not None:
                profile = self._profiling_substrate.artifact()
            if manager.incidents and profile is not None:
                # Route quarantines through the salvage machinery: the
                # profile stays usable but carries the what-went-missing
                # ledger (notes alone do not mark it partial).
                if profile.salvage is None:
                    from repro.profiling.salvage import SalvageReport

                    profile.salvage = SalvageReport()
                for incident in manager.incidents:
                    profile.salvage.note(str(incident))
            if (
                self.governor is not None
                and self.governor.incidents
                and profile is not None
            ):
                # Ladder transitions travel with the profile: degraded
                # numbers must never be mistaken for full-fidelity ones.
                if profile.salvage is None:
                    from repro.profiling.salvage import SalvageReport

                    profile.salvage = SalvageReport()
                if not profile.salvage.pressure_incidents:
                    profile.salvage.pressure_incidents.extend(
                        i.to_dict() for i in self.governor.incidents
                    )

        return ParallelResult(
            region_name=name,
            duration=duration,
            return_values=[t.result for t in implicit_tasks],
            completed_tasks=self.completed_tasks,
            thread_stats=[dict(w.stats) for w in workers],
            pool_stats=self.task_pool.stats(),
            lock_stats={
                "acquisitions": self.pool_lock.acquisitions,
                "contended": self.pool_lock.contended_acquisitions,
            },
            events_dispatched=self.instr.events_dispatched,
            downgraded_untied=self.downgraded_untied,
            extra={
                "truncated_enters": (
                    self.profiler.truncated_enters if self.profiler else 0
                ),
                **(
                    {"substrates": substrate_report} if substrate_report else {}
                ),
                **(
                    {"fault_injection": injector.summary()}
                    if injector is not None
                    else {}
                ),
                **(
                    {"governor": self.governor.report()}
                    if self.governor is not None
                    else {}
                ),
            },
            tasks_stolen=sum(w.tasks_stolen for w in workers),
            profile=profile,
            trace=self.trace,
            substrate_artifacts=substrate_artifacts,
        )


def run_parallel(
    body_fn,
    *args: Any,
    config: Optional[RuntimeConfig] = None,
    name: str = "parallel",
    **kwargs: Any,
) -> ParallelResult:
    """One-shot convenience: build a runtime, run the region, return result."""
    runtime = OpenMPRuntime(config)
    return runtime.parallel(body_fn, *args, name=name, **kwargs)

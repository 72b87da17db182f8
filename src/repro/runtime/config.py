"""Runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.events.batch import TID_MASK
from repro.runtime.costs import CostModel


#: Queue disciplines for ready tasks.
QUEUE_POLICIES = ("lifo", "fifo")
#: Victim selection for work stealing.
STEAL_POLICIES = ("random", "sequential")


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything that determines a simulated run besides the program.

    Attributes
    ----------
    n_threads:
        Team size of the (one) parallel region.
    queue_policy:
        ``'lifo'`` is work-first (newest local task first, like libgomp's
        task stack for tied tasks); ``'fifo'`` is breadth-first.
    steal / steal_policy:
        Whether idle threads steal from other threads' queues, and how the
        victim is picked.  Stealing always takes the *oldest* task of the
        victim.
    tsc_enabled:
        Enforce the OpenMP Task Scheduling Constraint: a new tied task may
        only start on a thread if it is a descendant of every task that is
        tied to and suspended on that thread.
    allow_untied:
        If False (the paper's supported mode -- "our instrumentation makes
        all tasks tied by default", Section IV-D2), ``tied=False`` spawn
        requests are silently downgraded to tied and counted.
    instrument:
        Measurement on/off; the off setting is the Section V baseline.
    record_events:
        Also record a full :class:`~repro.events.stream.ProgramTrace`
        (memory-hungry; for tests and trace-based analysis).
    seed:
        Seed for every scheduling decision (steal victims).
    costs:
        The virtual-time :class:`~repro.runtime.costs.CostModel`.
    """

    n_threads: int = 4
    queue_policy: str = "lifo"
    steal: bool = True
    steal_policy: str = "random"
    tsc_enabled: bool = True
    allow_untied: bool = False
    instrument: bool = True
    record_events: bool = False
    seed: int = 0
    costs: CostModel = field(default_factory=CostModel)
    #: Measurement substrates to attach (Score-P substrate architecture):
    #: a sequence of registry names (``"profiling"``, ``"tracing"``,
    #: ``"validation"``, ``"stats"``, or third-party registrations) and/or
    #: ready-made :class:`~repro.substrates.base.Substrate` instances.
    #: Empty (the default) keeps the classic behavior: ``instrument``
    #: attaches the profiling substrate, ``record_events`` the tracing
    #: substrate.  When non-empty this takes over consumer selection
    #: completely (``instrument`` then only controls whether the base
    #: per-event cost is charged and the measurement filter applied).
    substrates: tuple = ()
    #: Score-P style call-path depth limit; regions entered deeper than
    #: this are folded into the boundary node (None = unlimited).
    max_call_path_depth: int | None = None
    #: Score-P style measurement filter (repro.instrument.filtering.
    #: RegionFilter); suppresses enter/exit events and their cost for
    #: matching regions. Task lifecycle events are never filtered.
    measurement_filter: object | None = None
    #: Armed :class:`~repro.faults.plan.FaultPlan` (None = no faults; the
    #: fault machinery is then never imported, let alone invoked).
    fault_plan: object | None = None
    #: Armed :class:`~repro.governor.MemoryBudget` (None = no governor;
    #: the governor machinery is then never imported, let alone invoked,
    #: and measurement behavior is byte-identical to earlier builds).
    memory_budget: object | None = None
    #: Virtual-time watchdog: if set, ``parallel()`` raises
    #: :class:`~repro.errors.WatchdogTimeout` when the region has not
    #: completed within this many virtual µs (stuck-task detection).
    watchdog_us: float | None = None
    #: Soft batch size: past this many buffered events the batch drains
    #: at the next task-scheduling point.
    batch_flush_threshold: int = 1024
    #: Hard batch cap: the batch drains wherever it is at this size.
    batch_capacity: int = 8192
    #: Wall-clock watchdog: real seconds one run may take.  Complements
    #: ``watchdog_us``, which cannot catch a kernel stuck in host Python
    #: *without* advancing virtual time.  Enforced by the supervised
    #: worker (:mod:`repro.supervisor.worker`) via ``SIGALRM`` plus a
    #: parent-side kill -- the in-process runtime cannot interrupt a
    #: non-yielding kernel, so plain ``parallel()`` ignores it.
    wall_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.n_threads > TID_MASK + 1:
            # An event code packs the thread id into the bits of TID_MASK;
            # a larger id would spill into the region-id bits.
            raise ValueError(
                f"n_threads must be <= {TID_MASK + 1}, got {self.n_threads}"
            )
        if not isinstance(self.substrates, tuple):
            # Accept any iterable (lists read naturally at call sites) but
            # store a tuple -- the config is frozen and hash-friendly.
            object.__setattr__(self, "substrates", tuple(self.substrates))
        if self.wall_timeout_s is not None and self.wall_timeout_s <= 0:
            raise ValueError(
                f"wall_timeout_s must be positive, got {self.wall_timeout_s!r}"
            )
        if self.batch_flush_threshold < 1 or self.batch_capacity < self.batch_flush_threshold:
            raise ValueError(
                "need 1 <= batch_flush_threshold <= batch_capacity, got "
                f"batch_flush_threshold={self.batch_flush_threshold!r} "
                f"batch_capacity={self.batch_capacity!r}"
            )
        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(
                f"queue_policy must be one of {QUEUE_POLICIES}, got {self.queue_policy!r}"
            )
        if self.steal_policy not in STEAL_POLICIES:
            raise ValueError(
                f"steal_policy must be one of {STEAL_POLICIES}, got {self.steal_policy!r}"
            )

    # Convenience builders used throughout the analysis layer ----------
    def with_threads(self, n_threads: int) -> "RuntimeConfig":
        return replace(self, n_threads=n_threads)

    def with_instrumentation(self, enabled: bool) -> "RuntimeConfig":
        return replace(self, instrument=enabled)

    def with_seed(self, seed: int) -> "RuntimeConfig":
        return replace(self, seed=seed)

    def with_costs(self, costs: CostModel) -> "RuntimeConfig":
        return replace(self, costs=costs)

    def with_substrates(self, *substrates) -> "RuntimeConfig":
        """Attach measurement substrates (names and/or instances)."""
        return replace(self, substrates=tuple(substrates))

    def with_memory_budget(self, budget) -> "RuntimeConfig":
        """Arm the resource governor with a MemoryBudget (or None)."""
        return replace(self, memory_budget=budget)


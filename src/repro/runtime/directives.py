"""Directives: the requests task bodies yield to the simulated runtime.

A task (or parallel-region) body is a Python generator.  Each ``yield``
of a directive is a *potential task scheduling point*, mirroring OpenMP's
rule that scheduling only happens at defined points -- which is also why,
like the paper's instrumentation-based approach, this runtime cannot
interrupt a task at arbitrary instructions (Section IV-D2).

Directives are plain data; the executing
:class:`~repro.runtime.thread.WorkerThread` interprets them.  User code
normally constructs them through :class:`~repro.runtime.context.TaskContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Compute:
    """Charge ``us`` virtual microseconds of useful work to the thread.

    ``counters`` optionally carries hardware-counter-style metrics
    (flops, bytes, comparisons, ...) that the profiler attributes to the
    current call-path node alongside time -- the Score-P PAPI-metric
    analogue.
    """

    us: float
    label: Optional[str] = None
    counters: Optional[dict] = None

    def __post_init__(self) -> None:
        if not self.us >= 0:
            raise ValueError(f"negative compute time (or NaN): {self.us}")
        if self.counters is not None:
            for name, value in self.counters.items():
                if not isinstance(name, str):
                    raise TypeError(f"counter names must be strings, got {name!r}")
                if value < 0:
                    raise ValueError(f"negative counter {name!r}: {value}")


@dataclass(frozen=True, slots=True)
class Spawn:
    """Create an explicit task executing ``fn(ctx, *args, **kwargs)``.

    The yield evaluates to a :class:`~repro.runtime.task.TaskHandle`.

    ``parameter`` is a ``(name, value)`` pair forwarded to the profiler's
    parameter instrumentation (per-value task sub-trees, paper Table IV).
    ``tied=False`` requests an untied task; unless the runtime config sets
    ``allow_untied`` it is downgraded to tied, as the paper's
    instrumentation does.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: dict = field(default_factory=dict)
    tied: bool = True
    parameter: Optional[tuple] = None
    label: Optional[str] = None
    #: OpenMP ``if`` clause: ``if_clause=False`` makes the task
    #: *undeferred* -- the encountering thread executes it immediately.
    #: (Simplification, documented in DESIGN.md: an undeferred task's
    #: descendants are treated as included too, like a ``final`` task.)
    if_clause: bool = True
    #: OpenMP ``final`` clause: the task and all its descendants become
    #: included tasks, executed immediately by the encountering thread
    #: with no queueing -- the standard's own granularity-control knob.
    final: bool = False


@dataclass(frozen=True, slots=True)
class Taskwait:
    """Wait for completion of all *direct* child tasks (OpenMP 3.0 rule)."""


@dataclass(frozen=True, slots=True)
class TaskYield:
    """OpenMP 3.1 ``taskyield``: an explicit task scheduling point.

    The current task may be suspended in favor of *queued* tasks; a tied
    task resumes on the same thread once the thread has nothing better to
    do.  On the implicit task (or when nothing is queued) it is a no-op.
    """


@dataclass(frozen=True, slots=True)
class Barrier:
    """Team barrier; only implicit tasks may yield it.

    All outstanding explicit tasks of the region are executed inside it
    before any thread proceeds.
    """


@dataclass(frozen=True, slots=True)
class Single:
    """Claim a single construct; the yield evaluates to True on the one
    thread that wins the claim.

    Semantically this is ``single nowait``: there is no implied barrier,
    so programs place an explicit :class:`Barrier` where needed (as the
    BOTS single-producer codes do).
    """

    name: str = "single"


@dataclass(frozen=True, slots=True)
class RegionBegin:
    """Enter a user-defined measurement region (Score-P's user API).

    Purely a profiling construct: structures the call-path profile
    without any scheduling effect.  ``parameter`` optionally qualifies
    the node (one sub-node per value, Score-P parameter instrumentation).
    """

    name: str
    parameter: Optional[tuple] = None


@dataclass(frozen=True, slots=True)
class RegionEnd:
    """Leave a user-defined measurement region."""

    name: str


@dataclass(frozen=True, slots=True)
class CriticalBegin:
    """Enter a named critical section (acquire its lock, in virtual time)."""

    name: str = "critical"


@dataclass(frozen=True, slots=True)
class CriticalEnd:
    """Leave a named critical section."""

    name: str = "critical"

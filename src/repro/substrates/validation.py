"""The online-validation substrate: stream checks *during* execution.

The post-hoc validators (:mod:`repro.events.validate`) need a recorded
trace; this substrate runs the same task-aware consistency rules
*streaming*, while the run executes, by feeding each event into a
per-thread :class:`~repro.events.validate.TaskStreamChecker` the moment
it is dispatched.  No trace is retained -- memory stays O(active
instances), which is exactly why real measurement systems validate
online instead of post-mortem.

Cross-thread rules mirror :func:`~repro.events.validate.collect_trace_violations`:
a live shared ``known_active`` set lets untied migration validate across
threads, per-thread timestamps must be monotone, and at :meth:`finalize`
every explicit instance must have exactly one TaskBegin and one TaskEnd
program-wide.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set

from repro.events.batch import (
    K_ENTER,
    K_EXIT,
    K_TASK_BEGIN,
    K_TASK_END,
    K_TASK_SWITCH,
    EventBatch,
)
from repro.events.model import (
    EnterEvent,
    ExitEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSwitchEvent,
    implicit_instance_id,
)
from repro.events.regions import Region, RegionRegistry
from repro.events.validate import TaskStreamChecker, Violation
from repro.substrates.base import Substrate


class OnlineValidationSubstrate(Substrate):
    """Task-aware stream validation, online.  Artifact: a violations report.

    ``max_recorded`` bounds how many violations are *kept* (memory guard
    for a badly corrupted run); all of them are still counted per kind.
    """

    name = "validation"
    essential = False

    def __init__(self, max_recorded: int = 200, per_event_cost: float = 0.0) -> None:
        self.max_recorded = max_recorded
        self.per_event_cost = per_event_cost
        self.violations: List[Violation] = []
        self.violation_counts: Counter = Counter()
        self.events_checked = 0
        self._checkers: List[TaskStreamChecker] = []
        self._current: List[int] = []
        self._last_time: List[Optional[float]] = []
        self._begun: Dict[int, int] = {}
        self._ended: Dict[int, int] = {}
        self._known_active: Set[int] = set()
        self._finalized = False

    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        # tied=False with the live cross-thread known_active set: tied-ness
        # is not observable per stream once tasks may migrate, exactly as
        # in the post-hoc whole-trace validator.
        self._known_active = set()
        self._checkers = [
            TaskStreamChecker(thread_id=t, tied=False, known_active=self._known_active)
            for t in range(n_threads)
        ]
        self._current = [implicit_instance_id(t) for t in range(n_threads)]
        self._last_time = [None] * n_threads

    # ------------------------------------------------------------------
    def _note(self, violations: List[Violation]) -> None:
        for violation in violations:
            self.violation_counts[violation.kind] += 1
            if len(self.violations) < self.max_recorded:
                self.violations.append(violation)

    def _feed(self, thread_id: int, event) -> None:
        self.events_checked += 1
        checker = self._checkers[thread_id]
        last = self._last_time[thread_id]
        if last is not None and event.time < last:
            self._note(
                [
                    Violation(
                        checker.events_seen,
                        "time-order",
                        f"event #{checker.events_seen}: timestamp {event.time} "
                        f"precedes {last} on thread {thread_id}",
                    )
                ]
            )
        self._last_time[thread_id] = event.time
        self._note(checker.feed(event))

    def on_batch(self, batch: EventBatch) -> None:
        """One decode loop feeding each event to its thread's checker.

        Each event is checked *before* the bookkeeping it implies
        (``_current`` / ``_begun`` / ``_ended`` / ``_known_active``), so a
        task's own TaskBegin is validated against the state before it.
        """
        feed = self._feed
        current = self._current
        begun = self._begun
        ended = self._ended
        known_active = self._known_active
        for kind, thread_id, region, time, instance, payload in batch.rows():
            if kind == K_ENTER:
                feed(
                    thread_id,
                    EnterEvent(thread_id, time, current[thread_id], region, payload),
                )
            elif kind == K_EXIT:
                feed(
                    thread_id,
                    ExitEvent(thread_id, time, current[thread_id], region),
                )
            elif kind == K_TASK_BEGIN:
                feed(
                    thread_id,
                    TaskBeginEvent(
                        thread_id, time, instance, region, instance, payload
                    ),
                )
                current[thread_id] = instance
                begun[instance] = begun.get(instance, 0) + 1
                known_active.add(instance)
            elif kind == K_TASK_END:
                feed(
                    thread_id,
                    TaskEndEvent(thread_id, time, instance, region, instance),
                )
                current[thread_id] = implicit_instance_id(thread_id)
                ended[instance] = ended.get(instance, 0) + 1
            elif kind == K_TASK_SWITCH:
                feed(
                    thread_id,
                    TaskSwitchEvent(thread_id, time, instance, instance),
                )
                current[thread_id] = instance
            # metrics carry no task-consistency information

    # ------------------------------------------------------------------
    def finalize(self, time: float) -> None:
        """Cross-thread closure checks (begin/end counts program-wide)."""
        if self._finalized:
            return
        self._finalized = True
        for instance, count in self._begun.items():
            if count != 1:
                self._note(
                    [
                        Violation(
                            -1,
                            "begin-count",
                            f"instance {instance} has {count} TaskBegin events",
                        )
                    ]
                )
            ended = self._ended.get(instance, 0)
            if ended != 1:
                self._note(
                    [
                        Violation(
                            -1,
                            "end-count",
                            f"instance {instance} begun but ended {ended} times",
                        )
                    ]
                )
        extra = set(self._ended) - set(self._begun)
        if extra:
            self._note(
                [
                    Violation(
                        -1,
                        "end-without-begin",
                        f"TaskEnd without TaskBegin for instance(s) {sorted(extra)}",
                    )
                ]
            )

    @property
    def total_violations(self) -> int:
        return sum(self.violation_counts.values())

    @property
    def clean(self) -> bool:
        return self.total_violations == 0

    def artifact(self) -> dict:
        return {
            "events_checked": self.events_checked,
            "violations": self.total_violations,
            "by_kind": dict(sorted(self.violation_counts.items())),
            "first": [str(v) for v in self.violations[:20]],
            "clean": self.clean,
        }

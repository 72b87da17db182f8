"""The tracing substrate: full event recording as a substrate.

Decodes every flushed :class:`~repro.events.batch.EventBatch` into
event objects appended to a :class:`~repro.events.stream.ProgramTrace`
(the run's ``trace``), tagging each region event with the task instance
executing on its thread.
"""

from __future__ import annotations

from typing import List, Optional

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
from repro.events.stream import ProgramTrace
from repro.substrates.base import Substrate


class TracingSubstrate(Substrate):
    """Records every event into a ProgramTrace (the run's ``trace``)."""

    name = "tracing"
    essential = True

    def __init__(self, per_event_cost: float = 0.0) -> None:
        self.per_event_cost = per_event_cost
        self.trace: Optional[ProgramTrace] = None
        #: per thread: the task instance currently executing there
        self._current: List[int] = []

    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        self.trace = ProgramTrace(n_threads, registry)
        self._current = [implicit_instance_id(t) for t in range(n_threads)]

    def on_batch(self, batch: EventBatch) -> None:
        """One loop building events straight into the trace.

        ``trace.record`` is looked up once per batch *through the
        instance*, so a fault injector that shadowed it (stream-fault
        mode) still intercepts every recorded event.
        """
        record = self.trace.record
        current = self._current
        for kind, thread_id, region, time, instance, payload in batch.rows():
            if kind == K_ENTER:
                record(
                    EnterEvent(thread_id, time, current[thread_id], region, payload)
                )
            elif kind == K_EXIT:
                record(ExitEvent(thread_id, time, current[thread_id], region))
            elif kind == K_TASK_BEGIN:
                current[thread_id] = instance
                record(
                    TaskBeginEvent(
                        thread_id, time, instance, region, instance, payload
                    )
                )
            elif kind == K_TASK_END:
                record(TaskEndEvent(thread_id, time, instance, region, instance))
                current[thread_id] = implicit_instance_id(thread_id)
            elif kind == K_TASK_SWITCH:
                current[thread_id] = instance
                record(TaskSwitchEvent(thread_id, time, instance, instance))
            # metrics live in the profile, not the event trace

    def artifact(self) -> Optional[ProgramTrace]:
        return self.trace

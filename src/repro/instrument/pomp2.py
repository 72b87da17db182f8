"""The POMP2-style per-event listener protocol.

A listener receives the measurement events the instrumented application
produces, one call per event.  :class:`~repro.profiling.task_profiler.TaskProfiler`
implements it: its own ``on_batch`` decodes columnar batches into these
calls in lenient and governed runs, and :mod:`repro.events.replay`
drives it from a recorded :class:`~repro.events.stream.ProgramTrace`.
The live instrumentation layer does not call it per event -- it fills an
:class:`~repro.events.batch.EventBatch` and hands that over whole.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.events.model import InstanceId
from repro.events.regions import Region


@runtime_checkable
class Pomp2Listener(Protocol):
    """What the instrumentation layer calls.  All times are virtual µs."""

    def on_enter(
        self, thread_id: int, region: Region, time: float, parameter: Optional[tuple] = None
    ) -> None: ...

    def on_exit(self, thread_id: int, region: Region, time: float) -> None: ...

    def on_task_begin(
        self,
        thread_id: int,
        region: Region,
        instance: InstanceId,
        time: float,
        parameter: Optional[tuple] = None,
    ) -> None: ...

    def on_task_end(
        self, thread_id: int, region: Region, instance: InstanceId, time: float
    ) -> None: ...

    def on_task_switch(self, thread_id: int, instance: InstanceId, time: float) -> None: ...

    def on_metric(self, thread_id: int, counters: dict, time: float) -> None: ...

    def on_phase_begin(self, name: str) -> None: ...

    def on_phase_end(self, name: str) -> None: ...

    def on_finish(self, time: float) -> None: ...

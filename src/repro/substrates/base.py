"""The measurement-substrate lifecycle contract.

Score-P routes every measurement event through pluggable *substrates*
(the profiling substrate, the tracing substrate, plugin substrates);
event production is thereby decoupled from event consumption.  A
:class:`Substrate` is our analogue: a named consumer with a three-stage
lifecycle --

1. :meth:`initialize` -- called once, before the team starts, with the
   run's region registry, team size, virtual start time, and the implicit
   region handle.
2. :meth:`on_batch` -- called with every flushed
   :class:`~repro.events.batch.EventBatch`; the default replays it
   through the POMP2 event callbacks (``on_enter`` ... ``on_metric``),
   one call per measurement event, in virtual-time order per thread.
3. :meth:`finalize` -- called once with the region's virtual end time;
   afterwards :meth:`artifact` must return whatever the substrate
   produced (a :class:`~repro.profiling.profile.Profile`, a
   :class:`~repro.events.stream.ProgramTrace`, a statistics dict, ...).

All event callbacks default to no-ops so a substrate only implements the
events it cares about.  Substrates are attached to a run through
``RuntimeConfig(substrates=[...])`` (names resolved via the registry in
:mod:`repro.substrates.registry`, or instances passed directly) and are
driven by the :class:`~repro.substrates.manager.SubstrateManager`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.events.batch import (
    K_ENTER,
    K_EXIT,
    K_METRIC,
    K_TASK_BEGIN,
    K_TASK_END,
    K_TASK_SWITCH,
    EventBatch,
)
from repro.events.model import InstanceId
from repro.events.regions import Region, RegionRegistry


class Substrate:
    """Base class for measurement substrates (all callbacks default no-op).

    Class attributes subclasses are expected to override:

    ``name``
        Unique identifier; also the registry key and the key under which
        the substrate's artifact and overhead figures are reported.
    ``essential``
        If True, an exception from this substrate's callbacks aborts the
        run (like the built-in profiler always did); if False -- the
        default -- the manager *quarantines* the substrate: it stops
        receiving events, the incident is recorded, and the run finishes
        with every other substrate intact (PR-1 graceful degradation).
    ``per_event_cost``
        Extra virtual µs the executing thread pays per dispatched event
        *for this substrate*, on top of the base instrumentation cost.
        This is what makes overhead attributable per consumer (paper
        Section V): the manager sums the active substrates' costs into
        the instrumentation layer's per-event charge and reports the
        per-substrate share.
    """

    name: str = "substrate"
    essential: bool = False
    per_event_cost: float = 0.0

    # -- lifecycle ------------------------------------------------------
    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        """Called once before the team starts executing."""

    def finalize(self, time: float) -> None:
        """Called once with the region's virtual end time."""

    def artifact(self) -> Any:
        """The substrate's product after :meth:`finalize` (or ``None``)."""
        return None

    # -- POMP2 event callbacks (no-ops by default) ----------------------
    def on_enter(
        self,
        thread_id: int,
        region: Region,
        time: float,
        parameter: Optional[tuple] = None,
    ) -> None:
        pass

    def on_exit(self, thread_id: int, region: Region, time: float) -> None:
        pass

    def on_task_begin(
        self,
        thread_id: int,
        region: Region,
        instance: InstanceId,
        time: float,
        parameter: Optional[tuple] = None,
    ) -> None:
        pass

    def on_task_end(
        self, thread_id: int, region: Region, instance: InstanceId, time: float
    ) -> None:
        pass

    def on_task_switch(self, thread_id: int, instance: InstanceId, time: float) -> None:
        pass

    def on_metric(self, thread_id: int, counters: dict, time: float) -> None:
        pass

    def on_phase_begin(self, name: str) -> None:
        pass

    def on_phase_end(self, name: str) -> None:
        pass

    # -- batched dispatch ----------------------------------------------
    def on_batch(self, batch: EventBatch) -> None:
        """Consume one columnar :class:`~repro.events.batch.EventBatch`.

        The default implementation is the **fallback shim**: it replays
        the batch through the per-event callbacks, so a substrate that
        only implements ``on_enter``/``on_exit``/... needs no batch
        code.  Dispatch goes through ``self.on_*`` attribute lookup, so
        callbacks rebound as instance attributes at initialize time are
        honored.

        The shim contract: the substrate observes every event of the
        batch, in stream order; exceptions escape to the manager (which
        quarantines or aborts per ``essential``).  Substrates override
        this with a native fast path when they can consume the columns
        directly.
        """
        on_enter = self.on_enter
        on_exit = self.on_exit
        on_task_begin = self.on_task_begin
        on_task_end = self.on_task_end
        on_task_switch = self.on_task_switch
        on_metric = self.on_metric
        for kind, thread_id, region, time, instance, payload in batch.rows():
            if kind == K_ENTER:
                on_enter(thread_id, region, time, payload)
            elif kind == K_EXIT:
                on_exit(thread_id, region, time)
            elif kind == K_TASK_BEGIN:
                on_task_begin(thread_id, region, instance, time, payload)
            elif kind == K_TASK_END:
                on_task_end(thread_id, region, instance, time)
            elif kind == K_TASK_SWITCH:
                on_task_switch(thread_id, instance, time)
            elif kind == K_METRIC:
                on_metric(thread_id, payload, time)

    def __repr__(self) -> str:
        flags = []
        if self.essential:
            flags.append("essential")
        if self.per_event_cost:
            flags.append(f"cost={self.per_event_cost:g}us")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return f"<{type(self).__name__} {self.name!r}{suffix}>"

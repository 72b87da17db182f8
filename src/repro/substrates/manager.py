"""The substrate manager: one listener fanning out to many substrates.

The :class:`~repro.instrument.layer.InstrumentationLayer` hands each
filled :class:`~repro.events.batch.EventBatch`, every phase marker and
the finish to *one* listener, and that listener is the manager driving
every attached substrate (the Score-P substrate architecture).

Two responsibilities beyond fan-out:

* **Graceful degradation.**  An exception from a non-essential
  substrate's callback does not kill the run: the substrate is
  *quarantined* (detached from further dispatch) and the incident is
  recorded as a :class:`SubstrateIncident` -- the runtime surfaces those
  through the PR-1 salvage machinery (`profile.salvage` notes).
  Essential substrates (the profiler, the tracer) keep the historical
  strict behavior: their exceptions propagate.

* **Per-consumer overhead accounting.**  Each substrate declares its own
  ``per_event_cost``; :attr:`extra_cost_per_event` is the sum the
  instrumentation layer charges on top of its base cost, and
  :meth:`report` breaks the charged virtual time down per substrate
  (paper Section V made attributable per consumer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Type

from repro.errors import SubstrateError
from repro.events.regions import Region, RegionRegistry
from repro.substrates.base import Substrate


@dataclass(frozen=True)
class SubstrateIncident:
    """One quarantine event: which substrate broke, where, and how."""

    substrate: str
    callback: str
    error: str
    #: how many events the manager had delivered when the substrate broke
    events_delivered: int

    def __str__(self) -> str:
        return (
            f"substrate {self.substrate!r} quarantined in {self.callback} "
            f"after {self.events_delivered} event(s): {self.error}"
        )


#: Per-event callbacks; overriding any of them puts a substrate in the
#: batch fan-out (the base ``on_batch`` shim replays batches through them).
_EVENT_CALLBACKS = (
    "on_enter",
    "on_exit",
    "on_task_begin",
    "on_task_end",
    "on_task_switch",
    "on_metric",
)


class SubstrateManager:
    """Drives a set of substrates through one run (the layer's listener)."""

    def __init__(self, substrates: Sequence[Substrate]) -> None:
        names = [s.name for s in substrates]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SubstrateError(
                f"duplicate substrate name(s) in one manager: {', '.join(dupes)}"
            )
        #: every attached substrate, in attachment order (fixed for life)
        self.substrates: List[Substrate] = list(substrates)
        #: the substrates still receiving events (shrinks on quarantine)
        self._active: List[Substrate] = list(self.substrates)
        self.incidents: List[SubstrateIncident] = []
        #: events fanned out so far (enter/exit/task lifecycle; metrics and
        #: phase markers piggyback and are not counted, mirroring
        #: ``InstrumentationLayer.events_dispatched``)
        self.events_delivered = 0
        self._finalized = False
        self._rebuild_dispatch()

    def _rebuild_dispatch(self) -> None:
        """Target lists per dispatched callback, skipping inherited no-ops.

        A substrate belongs in the batch fan-out if it consumes batches
        natively (overridden ``on_batch``) or overrides any per-event
        callback (the base ``on_batch`` shim then replays the batch
        through them); one with neither -- the governor -- is skipped
        entirely.  The phase tables likewise list only substrates that
        override the phase callback.  Instance-level shadowing (the
        profiler binds its backend's methods onto ``self`` during
        ``initialize``) is respected because the check compares the
        *bound* method against the base class, which is why the tables
        are rebuilt after initialization and after every quarantine.
        """

        def overrides(substrate: Substrate, callback: str) -> bool:
            base = getattr(Substrate, callback)
            return getattr(getattr(substrate, callback), "__func__", None) is not base

        self._targets_on_batch = [
            s
            for s in self._active
            if overrides(s, "on_batch")
            or any(overrides(s, cb) for cb in _EVENT_CALLBACKS)
        ]
        self._targets_on_phase_begin = [
            s for s in self._active if overrides(s, "on_phase_begin")
        ]
        self._targets_on_phase_end = [
            s for s in self._active if overrides(s, "on_phase_end")
        ]
        # The per-event charge spans *all attached* substrates -- per the
        # documented contract a quarantine never lowers it.
        self._extra_cost_per_event = float(
            sum(s.per_event_cost for s in self.substrates)
        )

    # ------------------------------------------------------------------
    @property
    def extra_cost_per_event(self) -> float:
        """Summed per-event cost of all attached substrates.

        Fixed at attachment time (quarantining a substrate does not
        retroactively lower the charge -- the cost model is part of the
        virtual timeline and must stay deterministic).  The value is
        cached by :meth:`_rebuild_dispatch`; reading it is a field load,
        not a per-event re-summation.
        """
        return self._extra_cost_per_event

    def get(self, name: str) -> Optional[Substrate]:
        """The attached substrate with this name, or ``None``."""
        for substrate in self.substrates:
            if substrate.name == name:
                return substrate
        return None

    def find(self, cls: Type[Substrate]) -> Optional[Substrate]:
        """The first attached substrate of this class, or ``None``."""
        for substrate in self.substrates:
            if isinstance(substrate, cls):
                return substrate
        return None

    def quarantined(self, name: str) -> bool:
        return any(i.substrate == name for i in self.incidents)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        """Initialize every substrate.  Initialization errors always
        propagate -- a substrate that cannot even start is a configuration
        problem, not a mid-run measurement glitch to degrade around."""
        for substrate in self._active:
            substrate.initialize(registry, n_threads, start_time, implicit_region)
        # Initialization may have bound backend methods onto instances
        # (profiler shadowing): refresh the dispatch tables.
        self._rebuild_dispatch()

    def artifacts(self) -> Dict[str, Any]:
        """``{name: artifact}`` for every attached substrate.

        Quarantined substrates are asked too (their partial artifact can
        still be useful); an artifact() that itself raises yields ``None``.
        """
        out: Dict[str, Any] = {}
        for substrate in self.substrates:
            try:
                out[substrate.name] = substrate.artifact()
            except Exception:
                out[substrate.name] = None
        return out

    def report(self) -> Dict[str, dict]:
        """Per-substrate dispatch/overhead accounting.

        ``events`` is how many events the substrate actually received
        (delivery stops at quarantine), ``charged_us`` the virtual time
        its declared ``per_event_cost`` charged to the run.
        """
        by_name = {i.substrate: i for i in self.incidents}
        out: Dict[str, dict] = {}
        for substrate in self.substrates:
            incident = by_name.get(substrate.name)
            events = (
                incident.events_delivered if incident is not None else self.events_delivered
            )
            out[substrate.name] = {
                "events": events,
                "per_event_cost": substrate.per_event_cost,
                "charged_us": events * substrate.per_event_cost,
                "essential": substrate.essential,
                "quarantined": incident is not None,
                "error": incident.error if incident is not None else None,
            }
        return out

    # ------------------------------------------------------------------
    def _quarantine(self, substrate: Substrate, callback: str, exc: Exception) -> None:
        self.incidents.append(
            SubstrateIncident(
                substrate=substrate.name,
                callback=callback,
                error=f"{type(exc).__name__}: {exc}",
                events_delivered=self.events_delivered,
            )
        )
        # Rebuild rather than remove-in-place: dispatch loops iterate a
        # snapshot of the old lists, so this is safe mid-fan-out.
        self._active = [s for s in self._active if s is not substrate]
        self._rebuild_dispatch()

    # ------------------------------------------------------------------
    # Listener protocol of the instrumentation layer
    # ------------------------------------------------------------------
    def on_phase_begin(self, name: str) -> None:
        for substrate in self._targets_on_phase_begin:
            try:
                substrate.on_phase_begin(name)
            except Exception as exc:
                if substrate.essential:
                    raise
                self._quarantine(substrate, "on_phase_begin", exc)

    def on_phase_end(self, name: str) -> None:
        for substrate in self._targets_on_phase_end:
            try:
                substrate.on_phase_end(name)
            except Exception as exc:
                if substrate.essential:
                    raise
                self._quarantine(substrate, "on_phase_end", exc)

    def on_batch(self, batch) -> None:
        """Fan one columnar batch out to every batch-capable substrate.

        One dispatch call per *flush*, with each substrate consuming the
        whole batch (natively or through the base-class replay shim).
        Every substrate observes the events in stream order; the
        interleaving *between* substrates is per batch.

        Quarantine semantics: an exception from a non-essential
        substrate quarantines it; an essential one's propagates.  The
        incident's ``events_delivered`` is the post-batch count -- the
        batch is the granularity at which delivery is accounted.
        """
        self.events_delivered += batch.counted
        for substrate in self._targets_on_batch:
            try:
                substrate.on_batch(batch)
            except Exception as exc:
                if substrate.essential:
                    raise
                self._quarantine(substrate, "on_batch", exc)

    def on_finish(self, time: float) -> None:
        """End of measurement: finalize the still-active substrates.

        Quarantined substrates are *not* finalized -- they broke mid
        stream and their finalize would see inconsistent state; their
        incident record says why their artifact is partial.
        """
        if self._finalized:
            return
        self._finalized = True
        for substrate in self._active:
            try:
                substrate.finalize(time)
            except Exception as exc:
                if substrate.essential:
                    raise
                self._quarantine(substrate, "finalize", exc)

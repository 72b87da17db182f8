"""Reporting substrate for the resource governor.

The governor itself hooks the runtime (admission) and the task profiler
(ladder actions); this substrate is its *reporting* face: it implements
no event callbacks -- the manager's dispatch tables therefore never route
events to it, so it adds zero per-event overhead -- and its artifact is
the governor's final report (ladder level reached, pressure incidents,
stub accounting).  The runtime attaches one automatically whenever a
memory budget is armed; listing ``"governor"`` in
``RuntimeConfig.substrates`` attaches it explicitly (it then reports
``{"enabled": False}`` if no budget was configured).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.events.regions import Region, RegionRegistry
from repro.substrates.base import Substrate


class GovernorSubstrate(Substrate):
    """Surfaces the resource governor's ladder state as a run artifact.

    Overrides no event callbacks, so the manager's batched dispatch
    never routes :class:`~repro.events.batch.EventBatch` flushes here --
    it is a pure artifact carrier.
    """

    name = "governor"
    essential = False
    per_event_cost = 0.0

    def __init__(self, governor=None) -> None:
        #: the armed :class:`~repro.governor.ResourceGovernor`; injected
        #: by the runtime when a memory budget is configured
        self.governor = governor

    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        pass

    def finalize(self, time: float) -> None:
        pass

    def artifact(self) -> Any:
        if self.governor is None:
            return {"enabled": False}
        report = self.governor.report()
        report["enabled"] = True
        return report

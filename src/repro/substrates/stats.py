"""The statistics substrate: cheap per-type / per-thread event counts.

The lightest useful substrate: it keeps counters, nothing else.  Its
artifact feeds the overhead analysis
(:func:`repro.analysis.overhead.event_cost_attribution`): once you know
how many events of each kind each thread produced, a per-event cost
turns directly into an attributable per-kind / per-thread overhead
breakdown (paper Section V).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.events.batch import (
    K_ENTER,
    K_METRIC,
    KIND_MASK,
    KIND_NAMES,
    RID_MASK,
    RID_SHIFT,
    TID_MASK,
    TID_SHIFT,
    EventBatch,
)
from repro.events.regions import Region, RegionRegistry
from repro.substrates.base import Substrate


class StatsSubstrate(Substrate):
    """Counts events per kind, per thread, and enters per region type."""

    name = "stats"
    essential = False

    def __init__(self, per_event_cost: float = 0.0) -> None:
        self.per_event_cost = per_event_cost
        self.n_threads = 0
        self.per_thread: List[int] = []
        self.per_kind: Dict[str, int] = {
            "enter": 0,
            "exit": 0,
            "task_begin": 0,
            "task_end": 0,
            "task_switch": 0,
            "metric": 0,
        }
        #: enter events per region type (the exit mirrors the enter, so
        #: counting one side keeps region visits un-double-counted)
        self.per_region_type: Dict[str, int] = {}

    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        self.n_threads = n_threads
        self.per_thread = [0] * n_threads

    def on_batch(self, batch: EventBatch) -> None:
        """Native batch consume: pure column arithmetic, no per-event work.

        One ``bincount`` over the kind bits, one over the thread bits
        (metric rows excluded -- metrics piggyback and are not counted
        per thread), and a unique-count over the enters' region ids.
        """
        cd = np.frombuffer(batch.codes, dtype=np.int64)
        kinds = cd & KIND_MASK
        kind_counts = np.bincount(kinds, minlength=K_METRIC + 1)
        per_kind = self.per_kind
        for key, count in zip(KIND_NAMES, kind_counts.tolist()):
            per_kind[key] += count
        non_metric = kinds != K_METRIC
        tids = (cd >> TID_SHIFT) & TID_MASK
        thread_counts = np.bincount(
            tids[non_metric], minlength=len(self.per_thread)
        )
        per_thread = self.per_thread
        for t, count in enumerate(thread_counts.tolist()):
            per_thread[t] += count
        enters = cd[kinds == K_ENTER]
        if enters.size:
            rids, counts = np.unique(
                (enters >> RID_SHIFT) & RID_MASK, return_counts=True
            )
            lookup = batch.registry.lookup
            per_region_type = self.per_region_type
            for rid, count in zip(rids.tolist(), counts.tolist()):
                rtype = lookup(rid).region_type.value
                per_region_type[rtype] = per_region_type.get(rtype, 0) + count

    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        """Cost-bearing events (everything except piggybacked metrics)."""
        return sum(
            count for kind, count in self.per_kind.items() if kind != "metric"
        )

    def artifact(self) -> dict:
        return {
            "total_events": self.total_events,
            "per_thread": list(self.per_thread),
            "per_kind": dict(self.per_kind),
            "per_region_type": dict(sorted(self.per_region_type.items())),
        }

"""The profiling substrate: the paper's Fig. 12 profiler as a substrate.

Wraps :class:`~repro.profiling.task_profiler.TaskProfiler`.  At
:meth:`initialize` the freshly-built profiler's bound ``on_batch`` and
phase methods are shadowed onto the substrate instance, so the manager's
fan-out calls land directly on the profiler with no indirection.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SubstrateError
from repro.events.regions import Region, RegionRegistry
from repro.profiling.profile import Profile
from repro.profiling.task_profiler import TaskProfiler
from repro.substrates.base import Substrate


class ProfilingSubstrate(Substrate):
    """Task-aware call-path profiling (the run's ``profile`` artifact).

    Essential by default: a :class:`~repro.errors.ProfileError` from an
    inconsistent event stream aborts the run in strict mode, exactly as
    the directly-wired profiler always did.  Pass ``strict=False`` for
    the PR-1 lenient salvage mode instead.
    """

    name = "profiling"
    essential = True

    def __init__(
        self,
        max_call_path_depth: Optional[int] = None,
        strict: bool = True,
        per_event_cost: float = 0.0,
        governor=None,
    ) -> None:
        self.max_call_path_depth = max_call_path_depth
        self.strict = strict
        self.per_event_cost = per_event_cost
        #: armed :class:`~repro.governor.ResourceGovernor`; the runtime
        #: injects its own when a memory budget is configured
        self.governor = governor
        self.profiler: Optional[TaskProfiler] = None
        self._profile: Optional[Profile] = None

    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        if implicit_region is None:
            raise SubstrateError(
                "profiling substrate needs the run's implicit region handle"
            )
        profiler = TaskProfiler(
            n_threads,
            implicit_region,
            start_time=start_time,
            max_call_path_depth=self.max_call_path_depth,
            strict=self.strict,
            governor=self.governor,
        )
        self.profiler = profiler
        # Short-circuit dispatch: the profiler decodes whole batches
        # itself (routing lenient/governed runs through its salvage and
        # governed per-event handlers).
        self.on_batch = profiler.on_batch
        self.on_phase_begin = profiler.on_phase_begin
        self.on_phase_end = profiler.on_phase_end

    def finalize(self, time: float) -> None:
        if self.profiler is not None:
            self.profiler.on_finish(time)

    def artifact(self) -> Optional[Profile]:
        """The built :class:`~repro.profiling.profile.Profile` (cached)."""
        if self._profile is None and self.profiler is not None and self.profiler.finished:
            self._profile = self.profiler.build_profile()
        return self._profile

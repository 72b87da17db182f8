"""Replay recorded event streams into a task profiler.

The live measurement path feeds the profiler the batches the
instrumentation layer fills; the salvage pipeline instead takes the
(possibly corrupt) event streams the tracing substrate recorded, repairs
them offline, and then replays the repaired events into a fresh lenient
profiler.  Replay packs the events, in global order, into one
:class:`~repro.events.batch.EventBatch` and makes the same two calls
every other event source makes: ``on_batch``, then ``on_finish``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Union

from repro.events.batch import EventBatch
from repro.events.model import (
    AnyEvent,
    EnterEvent,
    ExitEvent,
    TaskBeginEvent,
    TaskCreateBeginEvent,
    TaskCreateEndEvent,
    TaskEndEvent,
    TaskSwitchEvent,
)
from repro.events.regions import Region
from repro.events.stream import ProgramTrace, merge_streams


def replay_events(
    events: Iterable[AnyEvent], listener, finish_time: Optional[float] = None
) -> float:
    """Pack ``events`` in order into one batch for ``listener.on_batch``.

    Task-creation bracket events become plain enter/exit (that is how the
    live layer emits them too).  The batch resolves region ids to the
    events' own :class:`Region` objects.  Then calls ``on_finish`` with
    ``finish_time`` or the last event timestamp; returns that time.
    """
    regions: Dict[int, Region] = {}
    batch = EventBatch(SimpleNamespace(lookup=regions.__getitem__))
    last_time = 0.0
    for event in events:
        last_time = max(last_time, event.time)
        region = getattr(event, "region", None)
        if region is not None:
            regions[region.handle] = region
        if isinstance(event, (EnterEvent, TaskCreateBeginEvent)):
            parameter = getattr(event, "parameter", None)
            batch.add_enter(event.thread_id, region, event.time, parameter)
        elif isinstance(event, (ExitEvent, TaskCreateEndEvent)):
            batch.add_exit(event.thread_id, region, event.time)
        elif isinstance(event, TaskBeginEvent):
            batch.add_task_begin(
                event.thread_id, region, event.instance, event.time,
                event.parameter,
            )
        elif isinstance(event, TaskEndEvent):
            batch.add_task_end(event.thread_id, region, event.instance, event.time)
        elif isinstance(event, TaskSwitchEvent):
            batch.add_task_switch(event.thread_id, event.instance, event.time)
        # Unknown event types are silently skipped: replay is the lenient
        # path, and repair has already flagged anything it could not parse.
    listener.on_batch(batch)
    end = finish_time if finish_time is not None else last_time
    listener.on_finish(end)
    return end


def replay_trace(
    trace: Union[ProgramTrace, Dict[int, List[AnyEvent]]],
    listener,
    finish_time: Optional[float] = None,
) -> float:
    """Replay a whole trace (or per-thread stream dict) in global order."""
    if isinstance(trace, ProgramTrace):
        streams = trace.streams
    else:
        streams = [trace[thread_id] for thread_id in sorted(trace)]
    return replay_events(merge_streams(streams), listener, finish_time=finish_time)

"""Replay recorded event streams into a POMP2 listener.

The live measurement path feeds the profiler directly from the simulated
runtime; the salvage pipeline instead *records* (possibly corrupt) event
streams, repairs them offline, and then replays the repaired events into
a fresh lenient profiler.  Replay is the inverse of
:class:`~repro.substrates.tracing.TracingSubstrate`: each event record is
turned back into the listener callback that produced it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

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
from repro.events.stream import ProgramTrace


def _merged(streams: Dict[int, List[AnyEvent]]) -> List[AnyEvent]:
    indexed = []
    for thread_id in sorted(streams):
        for position, event in enumerate(streams[thread_id]):
            indexed.append((event.time, event.thread_id, position, event))
    indexed.sort(key=lambda item: (item[0], item[1], item[2]))
    return [item[3] for item in indexed]


def replay_events(
    events: Iterable[AnyEvent], listener, finish_time: Optional[float] = None
) -> float:
    """Dispatch each event to the matching ``on_*`` listener callback.

    Task-creation bracket events are replayed as plain enter/exit (that is
    how the live recorder captures them too).  Calls ``on_finish`` with
    ``finish_time`` or the last event timestamp; returns that time.
    """
    last_time = 0.0
    for event in events:
        last_time = max(last_time, event.time)
        if isinstance(event, (EnterEvent, TaskCreateBeginEvent)):
            parameter = getattr(event, "parameter", None)
            listener.on_enter(event.thread_id, event.region, event.time, parameter)
        elif isinstance(event, (ExitEvent, TaskCreateEndEvent)):
            listener.on_exit(event.thread_id, event.region, event.time)
        elif isinstance(event, TaskBeginEvent):
            listener.on_task_begin(
                event.thread_id, event.region, event.instance, event.time,
                event.parameter,
            )
        elif isinstance(event, TaskEndEvent):
            listener.on_task_end(
                event.thread_id, event.region, event.instance, event.time
            )
        elif isinstance(event, TaskSwitchEvent):
            listener.on_task_switch(event.thread_id, event.instance, event.time)
        # Unknown event types are silently skipped: replay is the lenient
        # path, and repair has already flagged anything it could not parse.
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
        events = trace.merged()
    else:
        events = _merged(trace)
    return replay_events(events, listener, finish_time=finish_time)

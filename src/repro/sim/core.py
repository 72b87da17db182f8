"""Event queue, virtual clock, and waitable events.

The :class:`Environment` owns a binary-heap event queue of
``(time, sequence, callback, value)`` entries.  ``sequence`` is a
monotonically increasing integer that breaks ties between events scheduled
for the same virtual time, which makes the whole simulation deterministic:
two runs with identical inputs replay identical event orders.

A process may also continue without a queue entry when it would be the
next event popped anyway (see :meth:`repro.sim.process.Process._resume`);
:meth:`Environment.schedule` therefore counts heap round trips, not
process steps.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Set, Tuple

from repro.errors import DeadlockError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

Callback = Callable[[Any], None]


class Environment:
    """A discrete-event simulation environment with a virtual clock.

    Attributes
    ----------
    now:
        Current virtual time in microseconds.  Only :meth:`run` advances
        it, either by popping an event or by letting the running process
        continue inline.
    """

    __slots__ = ("now", "_queue", "_seq", "_until", "_live")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callback, Any]] = []
        self._seq: int = 0
        #: horizon of the current :meth:`run`; a process never continues
        #: inline past it
        self._until: float = float("inf")
        #: processes that have not finished; deadlock detection and the
        #: blocked report read them
        self._live: Set["Process"] = set()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callback, value: Any = None) -> None:
        """Schedule ``callback(value)`` to run ``delay`` µs from now.

        ``delay`` must be non-negative (NaN is rejected too); a zero delay
        schedules the callback after all callbacks already queued for the
        current instant.
        """
        if not delay >= 0:
            raise ValueError(f"negative delay (or NaN): {delay!r}")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, callback, value))

    def event(self) -> "SimEvent":
        """Create a fresh :class:`SimEvent` bound to this environment."""
        return SimEvent(self)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation until the queue drains (or ``until`` is hit).

        Returns the final virtual time.  Raises
        :class:`~repro.errors.DeadlockError` if the queue drains while
        registered processes are still blocked, and ``ValueError`` (with
        the clock and the queue untouched) if ``until`` lies before
        :attr:`now`: virtual time never runs backwards.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"run(until={until!r}) is earlier than the current time {self.now!r}"
            )
        self._until = horizon = float("inf") if until is None else until
        queue = self._queue
        while queue:
            time, _seq, callback, value = heapq.heappop(queue)
            if time > horizon:
                # Push the event back: the caller may resume the run later.
                heapq.heappush(queue, (time, _seq, callback, value))
                self.now = until
                return self.now
            self.now = time
            callback(value)
        if self._live:
            details = "; ".join(self._blocked()) or "<no detail>"
            raise DeadlockError(
                f"event queue drained with {len(self._live)} process(es) still "
                f"blocked: {details}"
            )
        return self.now

    def pending(self) -> int:
        """Number of queued events (non-zero after a truncated ``run``)."""
        return len(self._queue)

    def blocked_report(self) -> str:
        """Human-readable list of currently blocked processes."""
        return "; ".join(self._blocked()) or "<none>"

    def _blocked(self) -> List[str]:
        """Sorted descriptions of the live processes waiting on something.

        Built on demand: a process only records *what* it waits on.
        """
        return sorted(
            f"{proc.name} waiting on "
            f"{'event' if isinstance(proc.waiting, SimEvent) else proc.waiting}"
            for proc in self._live
            if proc.waiting is not None
        )


class SimEvent:
    """A one-shot waitable event.

    Processes wait on a ``SimEvent`` by yielding it.  :meth:`trigger` wakes
    every waiter at the current virtual time, passing ``value`` into each
    waiting generator.  Waiting on an already-triggered event resumes the
    process immediately (at the current instant) with the stored value.
    """

    __slots__ = ("env", "_waiters", "triggered", "value")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._waiters: List[Callback] = []
        self.triggered: bool = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all current waiters with ``value``."""
        if self.triggered:
            raise RuntimeError("SimEvent triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self.env.schedule(0.0, callback, value)

    def _add_waiter(self, callback: Callback) -> None:
        if self.triggered:
            self.env.schedule(0.0, callback, self.value)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else f"{len(self._waiters)} waiter(s)"
        return f"<SimEvent {state}>"

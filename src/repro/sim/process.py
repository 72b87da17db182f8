"""Generator-based simulated processes and the requests they may yield.

A process body is a generator.  Each ``yield`` hands the kernel a *request*
describing what the process wants to wait for:

a bare delay, or ``Timeout(duration)``
    Resume the process that many µs later.  A bare delay is a ``float``
    (``numpy.float64`` and other ``float`` subclasses included) or an
    ``int``; it is the cheap form, with no request object to allocate.
    A negative or NaN delay raises :class:`ValueError`.

:class:`~repro.sim.core.SimEvent`
    Resume when the event is triggered; the trigger value becomes the value
    of the ``yield`` expression.

:class:`~repro.sim.sync.AcquireRequest` (from ``lock.acquire()``)
    Resume once the lock has been granted to this process.

Processes terminate by returning; the return value is stored in
:attr:`Process.value` and the :attr:`Process.terminated` event fires.
Exceptions raised inside a process propagate out of
:meth:`Environment.run` wrapped in :class:`~repro.errors.ProcessError`.

**Inline resume.**  A delay ``d`` would queue the process as
``(now + d, s)`` with a sequence number ``s`` above every queued one, so
the heap pops it next exactly when every queued event is due after
``now + d`` (a tie goes to the older entry), and the run loop runs it
only within the current ``run(until=...)``.  Then the process simply
continues at ``now + d`` in the same callback: no other callback could
have run in between, and the skipped ``s`` changes no relative order.  A
free lock is granted the same way when nothing else is due now.  A later
wake, a contended lock, an event wait and every wakeup of *another*
process (lock hand-over, event trigger) go through
:meth:`Environment.schedule`, so schedules and virtual times are those of
a kernel that queues every resume.

A blocked process only records what it waits on (:attr:`Process.waiting`);
deadlock and watchdog reports format the descriptions when they are made.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import ProcessError, ReproError, SimulationError
from repro.sim.core import Environment, SimEvent
from repro.sim.sync import AcquireRequest


class Timeout:
    """Request: advance this process's resume point by ``duration`` µs."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if not duration >= 0:
            raise ValueError(f"negative timeout (or NaN): {duration!r}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.duration!r})"


class Process:
    """A running simulated process wrapping a generator.

    Parameters
    ----------
    env:
        The simulation environment.
    generator:
        The process body.  It is started on the next tick of the event
        queue, not synchronously, so creation order does not leak into the
        schedule beyond the deterministic sequence numbers.
    name:
        Used in deadlock reports.
    """

    __slots__ = ("env", "name", "_generator", "done", "value", "terminated", "waiting")

    def __init__(
        self,
        env: Environment,
        generator: Generator[Any, Any, Any],
        name: str = "process",
    ) -> None:
        self.env = env
        self.name = name
        self._generator = generator
        self.done = False
        self.value: Any = None
        self.terminated: SimEvent = env.event()
        #: the SimEvent or lock request this process is blocked on, else None
        self.waiting: Any = None
        env._live.add(self)
        env.schedule(0.0, self._resume, None)

    # ------------------------------------------------------------------
    def _resume(self, send_value: Any) -> None:
        """Advance the generator and act on its requests.

        Loops for as long as this process would be the next event popped
        anyway (see the module docstring); otherwise hands the request to
        the kernel and returns.
        """
        env = self.env
        queue = env._queue
        until = env._until
        send = self._generator.send
        self.waiting = None
        while True:
            try:
                request = send(send_value)
            except StopIteration as stop:
                self.done = True
                self.value = stop.value
                env._live.discard(self)
                self.terminated.trigger(stop.value)
                return
            except ReproError as exc:
                # Library errors propagate with their precise type intact
                # (callers catch DeadlockError, RuntimeModelError, ...);
                # annotate with the process name for diagnosis.
                env._live.discard(self)
                exc.add_note(f"(raised inside simulated process {self.name!r})")
                raise
            except (KeyboardInterrupt, SystemExit):
                # Never swallow or rewrap interpreter-control exceptions.
                env._live.discard(self)
                raise
            except Exception as exc:
                # Application errors are wrapped so callers can distinguish
                # "a simulated process blew up" from errors of their own; the
                # original is always chained (``raise ... from``) so the full
                # traceback survives.
                env._live.discard(self)
                raise ProcessError(
                    f"process {self.name!r} raised {type(exc).__name__}: {exc}"
                ) from exc
            send_value = None

            if type(request) is float:
                delay = request
            elif isinstance(request, AcquireRequest):
                lock = request.lock
                if not lock._held and (not queue or queue[0][0] > env.now):
                    # SimLock._enqueue's grant, minus the queue entry
                    lock._held = True
                    lock.acquisitions += 1
                    continue
                self.waiting = request
                request._grant_to(self._resume)
                return
            elif isinstance(request, SimEvent):
                self.waiting = request
                request._add_waiter(self._resume)
                return
            elif isinstance(request, Timeout):
                delay = request.duration
            elif isinstance(request, (float, int)) and not isinstance(request, bool):
                delay = request
            else:
                self._generator.close()
                env._live.discard(self)
                raise ProcessError(
                    f"process {self.name!r} yielded unsupported request "
                    f"{request!r}; expected a delay, Timeout, SimEvent, or "
                    "lock.acquire()"
                )

            if not delay >= 0:
                self._generator.close()
                env._live.discard(self)
                raise ValueError(
                    f"process {self.name!r} yielded a negative delay (or NaN): "
                    f"{delay!r}"
                )
            wake = env.now + delay
            if wake <= until and (not queue or wake < queue[0][0]):
                env.now = wake
                continue
            env.schedule(delay, self._resume, None)
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"<Process {self.name} {state}>"


def run_all(env: Environment, until: Optional[float] = None) -> float:
    """Convenience wrapper: run the environment to completion."""
    return env.run(until=until)

"""Discrete-event simulation kernel (mini process-based DES).

This subpackage is the bottom-most substrate of the reproduction: a small,
deterministic, process-based discrete-event simulator in the style of SimPy.
The simulated OpenMP runtime (:mod:`repro.runtime`) runs each simulated
thread as one :class:`~repro.sim.process.Process` on a shared
:class:`~repro.sim.core.Environment`.

Design points:

* **Virtual time** is a float in *microseconds*.  Nothing in the kernel
  depends on wall-clock time, so identical inputs give identical schedules.
* **Determinism**: simultaneous events are ordered by an insertion sequence
  number; all randomness used by higher layers flows through
  :class:`~repro.sim.rng.DeterministicRNG`.
* **Processes** are plain Python generators that yield *requests*
  (a bare ``float``/``int`` delay or a :class:`~repro.sim.process.Timeout`,
  lock acquisitions, :class:`~repro.sim.core.SimEvent` waits).  The kernel
  never inspects user frames, so higher layers are free to drive *their
  own* nested generators (the simulated runtime drives task-body
  generators this way).
* **Inline resume**: a process that would be the next event popped anyway
  continues without a heap round trip; the event order is exactly that of
  queueing every resume (see :mod:`repro.sim.process`).
* **Deadlock detection**: if the event queue drains while processes are
  still blocked, :class:`repro.errors.DeadlockError` is raised with a
  description of every stuck process.  Descriptions are formatted only
  when such a report (or :meth:`~repro.sim.core.Environment.blocked_report`)
  asks for them.
"""

from repro.sim.core import Environment, SimEvent
from repro.sim.process import Process, Timeout
from repro.sim.sync import Signal, SimLock
from repro.sim.rng import DeterministicRNG

__all__ = [
    "Environment",
    "SimEvent",
    "Process",
    "Timeout",
    "SimLock",
    "Signal",
    "DeterministicRNG",
]

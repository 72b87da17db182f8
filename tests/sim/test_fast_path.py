"""The kernel's inline-resume fast path keeps the heap-only event order.

A process continues without a queue entry when it would be the next
event popped anyway.  The property test below runs random process mixes
on :mod:`repro.sim` and on a small heap-only reference kernel that
queues every resume, and requires the same trace, clock, queue and lock
statistics from both.
"""

import heapq
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, ProcessError
from repro.sim import Environment, Process, SimLock, Timeout


# ----------------------------------------------------------------------
# Reference kernel: every resume is a heap round trip
# ----------------------------------------------------------------------
class RefDeadlock(Exception):
    pass


class RefEnv:
    def __init__(self):
        self.now, self.queue, self.seq, self.live = 0.0, [], 0, 0

    def schedule(self, delay, fn, value=None):
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, self.seq, fn, value))

    def run(self, until=None):
        while self.queue:
            entry = heapq.heappop(self.queue)
            if until is not None and entry[0] > until:
                heapq.heappush(self.queue, entry)
                self.now = until
                return
            self.now = entry[0]
            entry[2](entry[3])
        if self.live:
            raise RefDeadlock

    def pending(self):
        return len(self.queue)


class RefEvent:
    def __init__(self, env):
        self.env, self.waiters, self.triggered, self.value = env, [], False, None

    def trigger(self, value):
        self.triggered, self.value = True, value
        for fn in self.waiters:
            self.env.schedule(0.0, fn, value)
        self.waiters = []

    def add_waiter(self, fn):
        if self.triggered:
            self.env.schedule(0.0, fn, self.value)
        else:
            self.waiters.append(fn)


class RefLock:
    def __init__(self, env):
        self.env, self.held, self.waiters = env, False, deque()
        self.acquisitions = self.contended_acquisitions = 0

    def enqueue(self, fn):
        if self.held:
            self.contended_acquisitions += 1
            self.waiters.append(fn)
        else:
            self.held = True
            self.acquisitions += 1
            self.env.schedule(0.0, fn)

    def release(self):
        if self.waiters:
            self.acquisitions += 1
            self.env.schedule(0.0, self.waiters.popleft())
        else:
            self.held = False


class RefProcess:
    def __init__(self, env, generator):
        self.env, self.generator = env, generator
        env.live += 1
        env.schedule(0.0, self.resume)

    def resume(self, value):
        try:
            kind, target = self.generator.send(value)
        except StopIteration:
            self.env.live -= 1
            return
        if kind == "delay":
            self.env.schedule(target, self.resume)
        elif kind == "wait":
            target.add_waiter(self.resume)
        else:
            target.enqueue(self.resume)


# ----------------------------------------------------------------------
# One process body, two kernels
# ----------------------------------------------------------------------
class RealKernel:
    Deadlock = DeadlockError

    def __init__(self):
        self.env = Environment()
        self.event, self.lock = self.env.event, lambda: SimLock(self.env)

    def delay(self, kind, d):
        return {"timeout": Timeout, "float": float, "int": int, "np64": np.float64}[kind](d)

    def wait(self, event):
        return event

    def acquire(self, lock):
        return lock.acquire()

    def spawn(self, generator, pid):
        Process(self.env, generator, name=f"p{pid}")


class RefKernel:
    Deadlock = RefDeadlock

    def __init__(self):
        self.env = RefEnv()
        self.event, self.lock = lambda: RefEvent(self.env), lambda: RefLock(self.env)

    def delay(self, kind, d):
        return "delay", d

    def wait(self, event):
        return "wait", event

    def acquire(self, lock):
        return "acquire", lock

    def spawn(self, generator, pid):
        RefProcess(self.env, generator)


def body(kernel, pid, ops, events, locks, trace):
    env = kernel.env
    for step, op in enumerate(ops):
        trace.append((env.now, pid, step))
        if op[0] == "delay":
            yield kernel.delay(op[1], op[2])
        elif op[0] == "wait":
            got = yield kernel.wait(events[op[1]])
            trace.append((env.now, pid, step, "woke", got))
        elif op[0] == "trigger":
            if not events[op[1]].triggered:
                events[op[1]].trigger((pid, step))
        else:  # critical section: acquire, hold, release
            _, which, kind, hold = op
            yield kernel.acquire(locks[which])
            trace.append((env.now, pid, step, "holds", which))
            yield kernel.delay(kind, hold)
            locks[which].release()
    trace.append((env.now, pid, "end"))


def simulate(kernel, program, until):
    trace, outcome = [], []
    events = [kernel.event() for _ in range(3)]
    locks = [kernel.lock() for _ in range(2)]
    for pid, ops in enumerate(program):
        kernel.spawn(body(kernel, pid, ops, events, locks, trace), pid)
    env = kernel.env
    try:
        if until is not None:
            env.run(until=until)
            outcome.append(("paused", env.now, env.pending(), list(trace)))
        env.run()
        outcome.append("drained")
    except kernel.Deadlock:
        outcome.append("deadlock")
    stats = [(lock.acquisitions, lock.contended_acquisitions) for lock in locks]
    return trace, outcome, env.now, env.pending(), stats


DELAYS = (0, 0, 0.5, 1, 2, 3)
delay_kind = st.sampled_from(["timeout", "float", "int", "np64"])


def _delay(kind, d):
    return int(d) if kind == "int" else float(d)


delay_op = st.builds(lambda k, d: ("delay", k, _delay(k, d)), delay_kind, st.sampled_from(DELAYS))
critical_op = st.builds(
    lambda which, k, d: ("critical", which, k, _delay(k, d)),
    st.integers(0, 1), delay_kind, st.sampled_from(DELAYS),
)
op = st.one_of(
    delay_op,
    critical_op,
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("trigger"), st.integers(0, 2)),
)
programs = st.lists(st.lists(op, max_size=10), min_size=1, max_size=5)
horizons = st.one_of(st.none(), st.sampled_from([0, 0.5, 1, 2.5, 4, 7]))


@settings(max_examples=300, deadline=None)
@given(program=programs, until=horizons)
def test_fast_path_matches_heap_only_reference(program, until):
    assert simulate(RealKernel(), program, until) == simulate(RefKernel(), program, until)


def test_fast_path_skips_heap_round_trips():
    """A lone process queues neither its delays nor its free-lock grants."""
    pushes = []

    class CountingEnvironment(Environment):
        def schedule(self, delay, callback, value=None):
            pushes.append(delay)
            super().schedule(delay, callback, value)

    env = CountingEnvironment()
    lock = SimLock(env, "l")

    def ticker():
        for d in (1.0, 2, np.float64(0.5), Timeout(0.5), 0.0):
            yield d
            yield lock.acquire()
            lock.release()

    proc = Process(env, ticker())
    assert env.run() == 4.0 and proc.done
    assert pushes == [0.0]  # the start only
    assert (lock.acquisitions, lock.contended_acquisitions) == (5, 0)


# ----------------------------------------------------------------------
# Bare delays: accepted forms and rejected values
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [-1.0, -1, np.float64(-0.5), math.nan, np.float64("nan")])
def test_negative_or_nan_bare_delay_raises_value_error(bad):
    env = Environment()

    def body():
        yield bad

    Process(env, body(), name="bad")
    with pytest.raises(ValueError, match="'bad' yielded a negative delay"):
        env.run()
    assert env.now == 0.0


def test_bool_is_not_a_delay():
    env = Environment()

    def body():
        yield True

    Process(env, body())
    with pytest.raises(ProcessError, match="unsupported request"):
        env.run()


def test_float_subclass_delay_keeps_its_type_like_timeout():
    # fft's Compute.us is a numpy float64; the clock arithmetic must be
    # the same as for Timeout(np.float64(...)).
    times = []
    for request in (np.float64(1.5), Timeout(np.float64(1.5))):
        env = Environment()

        def body(r=request):
            yield r

        Process(env, body())
        env.run()
        times.append((env.now, type(env.now)))
    assert times[0] == times[1]

"""A NaN delay is rejected at every way into virtual time.

NaN compares false both ways, so a ``< 0`` check let it through: the
clock became NaN and the waking process ran "at nan" ahead of a process
due at 1.0.  ``Compute(nan)`` charged NaN work to the thread.
"""

import math

import numpy as np
import pytest

from repro.errors import ProcessError
from repro.runtime import RuntimeConfig, ZERO_COST
from repro.runtime.directives import Compute
from repro.runtime.runtime import run_parallel
from repro.sim import Environment, Process, Timeout

NANS = [math.nan, np.float64("nan")]


@pytest.mark.parametrize("nan", NANS)
def test_timeout_rejects_nan(nan):
    with pytest.raises(ValueError, match="NaN"):
        Timeout(nan)


@pytest.mark.parametrize("nan", NANS)
def test_schedule_rejects_nan(nan):
    env = Environment()
    with pytest.raises(ValueError, match="NaN"):
        env.schedule(nan, lambda value: None)
    assert env.pending() == 0


@pytest.mark.parametrize("request_of", [Timeout, float], ids=["Timeout", "bare"])
def test_nan_wait_never_reaches_the_clock(request_of):
    env = Environment()
    order = []

    def sleeper():
        yield request_of(math.nan)
        order.append(("sleeper", env.now))

    def punctual():
        yield 1.0
        order.append(("punctual", env.now))

    Process(env, sleeper(), name="sleeper")
    Process(env, punctual(), name="punctual")
    with pytest.raises((ValueError, ProcessError)) as excinfo:
        env.run()
    error = excinfo.value
    assert isinstance(error, ValueError) or isinstance(error.__cause__, ValueError)
    assert order == [] and env.now == 0.0


@pytest.mark.parametrize("nan", NANS)
def test_compute_rejects_nan(nan):
    with pytest.raises(ValueError, match="NaN"):
        Compute(nan)


def test_nan_compute_in_a_task_body_fails_the_run():
    def body(ctx):
        yield ctx.compute(math.nan)

    config = RuntimeConfig(n_threads=1, instrument=False, costs=ZERO_COST)
    with pytest.raises(ProcessError, match="NaN"):
        run_parallel(body, config=config)

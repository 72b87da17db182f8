"""Kill-mid-record harness: real SIGKILLs against the recording substrate."""

import multiprocessing
import os
import signal

import pytest

from repro.faults.recording import crash_recorded_run, record_until_killed
from repro.recorder import read_records, salvage_recording
from repro.recorder.store import events_path


def _fork_ctx():
    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods:  # pragma: no cover - non-POSIX
        pytest.skip("needs fork start method")
    return multiprocessing.get_context("fork")


def test_die_at_exact_record_count_leaves_salvageable_prefix(tmp_path):
    """The deterministic kill: worker SIGKILLs itself the instant record
    N is appended; salvage recovers every *sealed* record before it."""
    record_dir = str(tmp_path / "rec")
    proc = _fork_ctx().Process(
        target=record_until_killed,
        kwargs={
            "record_dir": record_dir,
            "die_after_records": 600,
            "checkpoint_every": 512,
        },
    )
    proc.start()
    proc.join(timeout=60.0)
    assert proc.exitcode == -signal.SIGKILL

    result = salvage_recording(record_dir)
    assert result is not None
    assert result.source == "replay"
    # sealed prefix: everything up to the last chunk/checkpoint boundary
    assert 0 < result.records <= 600 + 1  # +1 for the init wire record
    assert not result.complete
    assert result.profile.salvage is not None


def test_kill_too_late_still_dies_after_complete_run(tmp_path):
    """A die_after the run never reaches must still SIGKILL (the harness
    promises the parent always observes a signal-9 death)."""
    record_dir = str(tmp_path / "rec")
    proc = _fork_ctx().Process(
        target=record_until_killed,
        kwargs={
            "record_dir": record_dir,
            "die_after_records": 10**9,
            "app": "fib",
            "size": "test",
        },
    )
    proc.start()
    proc.join(timeout=60.0)
    assert proc.exitcode == -signal.SIGKILL
    # the run itself completed before the post-run kill
    stream = read_records(events_path(record_dir))
    assert stream.complete


def test_wall_clock_kills_leave_recoverable_streams(tmp_path):
    """Honest mid-write SIGKILLs: wherever they land, every cycle's
    stream must recover to a clean prefix without an exception.

    The kill delay is wall-clock, so on a loaded machine a short window
    can land every kill before the child seals its first chunk --
    recovery is still exercised (empty prefix), but the run proves
    nothing about mid-stream tears.  Widen the window until at least
    one cycle got past a seal; the never-raises invariant is asserted
    on every round regardless of where the kills landed.
    """
    killed = 0
    recovered = 0
    for round_no, kill_after_s in enumerate((0.2, 0.5, 1.0, 2.0)):
        round_dir = tmp_path / f"round{round_no}"
        killed += crash_recorded_run(
            str(round_dir), cycles=2, seed=0, kill_after_s=kill_after_s,
            size="test",
        )
        for cycle in sorted(os.listdir(round_dir)):
            path = events_path(str(round_dir / cycle))
            if not os.path.exists(path):
                continue
            stream = read_records(path, truncate=True)  # must not raise
            recovered += len(stream.records)
            if stream.records:
                assert stream.records[0][0] == "init"
        if killed >= 1 and recovered > 0:
            break
    assert killed >= 1  # at least one child died mid-flight
    assert recovered > 0

"""Crash-safety of the supervisor *itself*, via the real CLI.

These tests launch ``python -m repro supervise`` as a subprocess and
kill it -- SIGKILL mid-campaign (nothing can be flushed) and SIGINT
(graceful drain).  They assert the acceptance criteria of the issue:
the journal replays cleanly, ``--resume`` completes the grid without
re-executing journaled-complete cells, the final results match an
uninterrupted run, and Ctrl-C exits 130 with the partial table printed.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.supervisor import call_cell, outcome_table, run_supervised
from repro.supervisor.journal import Journal, load_journal

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _write_grid(tmp_path, n=6, wall_s=0.5):
    # The grid must take several seconds at --jobs 1 so the kill signal
    # lands mid-campaign even on a loaded machine.
    specs = [
        {
            "kind": "call",
            "cell_id": f"cell-{i}",
            "params": {
                "target": "repro.supervisor.stubs:sleep_cell",
                "kwargs": {"wall_s": wall_s},
            },
        }
        for i in range(n)
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(specs))
    return path


def _supervise(grid, journal, *extra, jobs=1):
    return [
        sys.executable, "-m", "repro", "supervise",
        "--spec-file", str(grid), "--journal", str(journal),
        "--jobs", str(jobs), "--timeout-s", "30", *extra,
    ]


def _wait_for_first_result(journal, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if '"type":"result"' in journal.read_text():
                return
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    pytest.fail("supervisor produced no journaled result in time")


def test_sigkill_mid_campaign_then_resume_completes(tmp_path):
    grid = _write_grid(tmp_path)
    journal = tmp_path / "journal.jsonl"

    proc = subprocess.Popen(
        _supervise(grid, journal), env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for_first_result(journal)
    finally:
        proc.kill()  # SIGKILL: no handler, no flush, no goodbye
        proc.wait(timeout=30)

    state = load_journal(str(journal))
    done_before = state.completed
    attempts_before = dict(state.attempts)
    assert 1 <= len(done_before) < 6  # killed genuinely mid-campaign

    resumed = subprocess.run(
        _supervise(grid, journal, "--resume", str(journal), jobs=2),
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "6/6 cells ok" in resumed.stdout

    after = load_journal(str(journal))
    assert after.completed == {f"cell-{i}" for i in range(6)}
    # journaled-complete cells were replayed, not re-executed
    for cell in done_before:
        assert after.attempts[cell] == attempts_before[cell]

    # ...and the resumed grid matches an uninterrupted run, cell by cell
    fresh_journal = tmp_path / "fresh.jsonl"
    fresh = subprocess.run(
        _supervise(grid, fresh_journal, jobs=2), env=_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert fresh.returncode == 0, fresh.stderr
    fresh_state = load_journal(str(fresh_journal))
    key = lambda s: {
        c: (r["outcome"], r["ok"], r["summary"]) for c, r in s.results.items()
    }
    assert key(after) == key(fresh_state)


def test_sigint_drains_prints_partial_table_and_exits_130(tmp_path):
    grid = _write_grid(tmp_path)
    journal = tmp_path / "journal.jsonl"

    proc = subprocess.Popen(
        _supervise(grid, journal), env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _wait_for_first_result(journal)
        proc.send_signal(signal.SIGINT)
        stdout, _stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    assert proc.returncode == 130
    # completed cells survived and the partial table was printed
    assert "cell-0" in stdout and "slept" in stdout
    assert "campaign interrupted" in stdout
    assert "--resume" in stdout
    state = load_journal(str(journal))
    assert state.interrupted
    assert len(state.completed) >= 1

    # the interrupted journal is a valid resume point
    resumed = subprocess.run(
        _supervise(grid, journal, "--resume", str(journal), jobs=2),
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "6/6 cells ok" in resumed.stdout


def test_sigkilled_worker_is_classified_and_retried_by_cli(tmp_path):
    marker = tmp_path / "flaky.marker"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {
            "kind": "call",
            "cell_id": "flaky",
            "params": {
                "target": "repro.supervisor.stubs:flaky_cell",
                "kwargs": {"marker": str(marker)},
            },
        }
    ]))
    journal = tmp_path / "journal.jsonl"
    result = subprocess.run(
        _supervise(grid, journal, "--retries", "1", "--backoff-s", "0.05"),
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "recovered on retry" in result.stdout
    state = load_journal(str(journal))
    assert state.results["flaky"]["outcome"] == "ok"
    assert state.attempts["flaky"] == 2
    # the first attempt's death by signal was journaled as a crash
    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    crashes = [
        e for e in lines
        if e.get("type") == "result" and e.get("outcome") == "crash"
    ]
    assert len(crashes) == 1 and "SIGKILL" in crashes[0]["summary"]


def test_ctrl_c_right_after_a_journaled_result_keeps_its_outcome(
    tmp_path, monkeypatch
):
    # In-process and deterministic: KeyboardInterrupt lands the moment
    # the first cell's result is durably journaled.  The partial table
    # must report that cell's outcome, as the journal does, not list it
    # as pending.
    journal = tmp_path / "journal.jsonl"
    journal_result = Journal.result

    def result_then_ctrl_c(self, cell_id, attempt, payload):
        journal_result(self, cell_id, attempt, payload)
        raise KeyboardInterrupt

    monkeypatch.setattr(Journal, "result", result_then_ctrl_c)
    report = run_supervised(
        [
            call_cell("repro.supervisor.stubs:ok_cell", {"value": 1}, cell_id="done"),
            call_cell("repro.supervisor.stubs:ok_cell", {"value": 2}, cell_id="later"),
        ],
        jobs=1,
        journal_path=str(journal),
    )

    assert report.interrupted
    outcomes = {r.cell_id: r.outcome for r in report.results}
    assert outcomes == {"done": "ok", "later": "pending"}
    state = load_journal(str(journal))
    assert state.interrupted and state.completed == {"done"}
    assert "pending" not in next(
        line for line in outcome_table(report).splitlines() if "done" in line
    )

"""The crash-safe campaign journal: append-only, fsync'd JSONL.

The supervisor writes one JSON record per line, fsync'd before the
action it describes takes effect ("write-ahead"): a ``start`` record
before a worker launches, a ``result`` record as soon as its outcome is
known.  Appends follow the log contract of :mod:`repro.ioutil`: a
SIGKILL at any byte offset costs at most the final, partial line --
:func:`load_journal` tolerates exactly that and replays the rest, which
is what makes ``--resume`` safe after a crash of the supervisor itself.

Record types::

    {"type":"meta","version":2,"cells":N}
    {"type":"start","cell":ID,"attempt":K}
    {"type":"result","cell":ID,"attempt":K,"outcome":...,"ok":...,
     "status":...,"summary":...,"error":...,"duration_s":...}
    {"type":"interrupt","completed":N}

The ``meta`` record doubles as the schema-version header: replaying a
journal whose declared version is *newer* than this build raises
:class:`~repro.errors.JournalVersionError` up front, so ``--resume``
against a future-format journal fails with one clear message instead
of a ``KeyError`` halfway through records it cannot interpret.  Older
versions load fine (the format only ever gains record types and
outcome values).

Only the supervisor process writes the journal; workers report through
a pipe, so an orphaned worker can never corrupt it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Set

from repro import ioutil
from repro.errors import JournalVersionError

#: Version 2 added the fabric outcomes (``short_circuited``,
#: ``cancelled``, ``stuck``) and made the meta record an enforced
#: schema-version header.
JOURNAL_VERSION = 2

#: Outcomes that settle a cell: re-running cannot improve on them.
#: ``ok``/``partial`` degraded gracefully; ``degraded`` completed under
#: a memory budget (deterministic ladder, so a retry would only degrade
#: again); ``error`` is a deterministic failure that would reproduce;
#: ``short_circuited`` was refused by an open circuit breaker whose
#: class already failed deterministically often enough to prove itself.
TERMINAL_OUTCOMES = frozenset({"ok", "partial", "degraded", "error",
                               "short_circuited"})
#: Transient outcomes worth retrying (and re-running on resume).
#: ``stuck`` -- alive but silent past the heartbeat stall window -- is
#: transient like ``timeout``: the wedge may be a scheduling accident.
RETRYABLE_OUTCOMES = frozenset({"crash", "timeout", "oom", "stuck"})
#: Outcomes that mean "the campaign stopped, not the cell": never
#: retried in-run, re-run by ``--resume``.
RESUMABLE_OUTCOMES = frozenset({"interrupted", "cancelled", "pending"})


class Journal:
    """Append-only writer.  Every record hits the disk before we act."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def record(self, entry: dict) -> None:
        ioutil.append(self.path, entry)

    # Convenience constructors for the record types -------------------
    def meta(self, n_cells: int) -> None:
        self.record({"type": "meta", "version": JOURNAL_VERSION, "cells": n_cells})

    def start(self, cell_id: str, attempt: int) -> None:
        self.record({"type": "start", "cell": cell_id, "attempt": attempt})

    def result(self, cell_id: str, attempt: int, payload: dict) -> None:
        entry = {"type": "result", "cell": cell_id, "attempt": attempt}
        entry.update(payload)
        self.record(entry)

    def interrupt(self, completed: int) -> None:
        self.record({"type": "interrupt", "completed": completed})

    def close(self) -> None:
        """Nothing to release: every record opens, appends and closes."""

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


@dataclass
class JournalState:
    """What a replayed journal says about each cell."""

    #: cell -> its most recent ``result`` record
    results: Dict[str, dict] = field(default_factory=dict)
    #: cell -> number of ``start`` records (attempts ever launched)
    attempts: Dict[str, int] = field(default_factory=dict)
    #: lines that failed to parse (a crash mid-append leaves at most 1)
    skipped_lines: int = 0
    interrupted: bool = False

    @property
    def completed(self) -> Set[str]:
        """Cells whose latest outcome is terminal -- skipped on resume."""
        return {
            cell
            for cell, record in self.results.items()
            if record.get("outcome") in TERMINAL_OUTCOMES
        }


def load_journal(path: str) -> JournalState:
    """Replay a journal, tolerating a torn final line.

    A partial trailing line is the expected residue of a supervisor
    killed mid-append; it is counted in ``skipped_lines`` and otherwise
    ignored, as is any line that fails to parse (corruption never makes
    resume refuse to run -- the worst case is re-running a cell).  The
    one deliberate refusal is a ``meta`` header declaring a *newer*
    schema version than this build writes: that raises
    :class:`~repro.errors.JournalVersionError` instead of guessing at
    records this code predates.
    """
    state = JournalState()
    torn: list = []
    for entry in ioutil.read(path, (JOURNAL_VERSION, JournalVersionError), torn):
        kind = entry.get("type")
        if kind == "start":
            cell = entry.get("cell")
            state.attempts[cell] = max(
                state.attempts.get(cell, 0), int(entry.get("attempt", 0))
            )
        elif kind == "result":
            state.results[entry.get("cell")] = entry
        elif kind == "interrupt":
            state.interrupted = True
    state.skipped_lines = len(torn)
    return state

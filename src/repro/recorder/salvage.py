"""Salvage a profile from whatever a dead run left on disk.

Preference order, newest evidence first:

1. **Current stream replay** -- truncate the torn tail, leniently
   replay the sealed prefix.  This recovers every event that reached a
   sealed chunk, strictly more than any checkpoint can know.
2. **Current checkpoint** -- if the stream is unreadable (bad header,
   undecodable first chunk), fall back to the cube partial the last
   checkpoint captured.
3. **Rotated generations** -- a warm-started retry that died early may
   have rotated a *previous* attempt's stream/checkpoint aside; walk
   those newest-first with the same stream-then-checkpoint preference.

The salvage replay is a pure function of the recorded bytes (no
context-dependent notes are injected), so ``repro verify --against``
can later re-derive the identical partial profile from the same prefix
-- byte-identical verification works for salvaged cubes too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cube.export import profile_from_dict
from repro.recorder.chunks import read_records
from repro.recorder.replay import rebuild_profile
from repro.recorder.store import (
    events_path,
    generation_events_path,
    list_generations,
    load_checkpoint,
)


@dataclass
class SalvageResult:
    """What salvage recovered and where it came from."""

    profile: object
    source: str  # "replay" or "checkpoint"
    generation: Optional[int]  # None = current attempt
    records: int
    chunks: int
    complete: bool
    torn_bytes: int
    notes: list

    def describe(self) -> dict:
        return {
            "source": self.source,
            "generation": self.generation,
            "records": self.records,
            "chunks": self.chunks,
            "complete": self.complete,
            "torn_bytes": self.torn_bytes,
            "notes": list(self.notes),
        }


def _salvage_stream(path: str, *, truncate: bool, generation: Optional[int]):
    stream = read_records(path, truncate=truncate)
    if not stream.count:
        return None
    try:
        profile = rebuild_profile(stream, strict=False)
    except Exception as exc:
        stream.notes.append(f"lenient replay failed: {exc}")
        return None
    return SalvageResult(
        profile=profile,
        source="replay",
        generation=generation,
        records=stream.count,
        chunks=stream.chunks,
        complete=stream.complete,
        torn_bytes=stream.torn_bytes,
        notes=list(stream.notes),
    )


def _salvage_checkpoint(record_dir: str, generation: Optional[int]):
    checkpoint = load_checkpoint(record_dir, generation)
    if checkpoint is None or not checkpoint.get("profile"):
        return None
    try:
        profile = profile_from_dict(checkpoint["profile"])
    except Exception:
        return None  # unreadable checkpoint partial: keep walking
    cursor = checkpoint.get("cursor") or {}
    return SalvageResult(
        profile=profile,
        source="checkpoint",
        generation=generation,
        records=int(checkpoint.get("records") or cursor.get("records") or 0),
        chunks=int(cursor.get("chunks") or 0),
        complete=False,
        torn_bytes=0,
        notes=[f"recovered from checkpoint at t={checkpoint.get('time')}"],
    )


def salvage_recording(record_dir: str) -> Optional[SalvageResult]:
    """Best salvageable profile from ``record_dir``, or ``None``.

    Truncates the current stream's torn tail as a side effect (the only
    on-disk repair recovery ever performs), so later ``repro verify``
    and ``repro replay`` calls see the exact prefix salvage used.
    """
    result = _salvage_stream(
        events_path(record_dir), truncate=True, generation=None
    )
    if result is not None:
        return result
    result = _salvage_checkpoint(record_dir, None)
    if result is not None:
        return result
    for generation in reversed(list_generations(record_dir)):
        result = _salvage_stream(
            generation_events_path(record_dir, generation),
            truncate=False,
            generation=generation,
        )
        if result is not None:
            return result
        result = _salvage_checkpoint(record_dir, generation)
        if result is not None:
            return result
    return None


__all__ = ["SalvageResult", "salvage_recording"]

"""The recording substrate: durable spill of the measurement event stream.

Every :class:`~repro.events.batch.EventBatch` the manager flushes is
sealed, as it is, into one CRC32-checksummed, sequence-numbered chunk
of ``<record_dir>/events.chunks`` (layout: :mod:`repro.recorder.chunks`).
Init and phase records ride in the next chunk's header.  Under the
legacy per-event path (``batch_events=False``) the callbacks append to
the recorder's own batch, which seals every :data:`LEGACY_SEAL_ROWS`
events and at phase and finish boundaries.  Once ``checkpoint_every``
records have sealed since the last checkpoint, the substrate fsyncs the
stream and writes ``checkpoint.json``: a canonical-JSON cube partial
snapshot of the live profiler plus the stream cursor, via
``atomic_write``.

The contract this buys:

* a SIGKILL at any instruction loses at most the batch being sealed
  (and nothing at all up to the last checkpoint's fsync barrier);
* the sealed prefix alone reconstructs a valid partial profile
  (:mod:`repro.recorder.replay`), and the checkpoint is a ready-made
  fallback if even the stream is unreadable;
* a retry pointed at the same ``record_dir`` *warm-starts*: the
  previous attempt's stream and checkpoint are rotated aside as a
  generation (never clobbered -- they remain salvageable) and the prior
  checkpoint is surfaced in the new manifest as ``warm_start``.

The substrate is deliberately **non-essential**: if recording itself
fails mid-run the manager quarantines it and the measured run finishes
normally -- losing durability must never lose the run.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.errors import SubstrateError
from repro.events.batch import EventBatch
from repro.events.model import InstanceId
from repro.events.regions import Region, RegionRegistry
from repro.recorder.chunks import ChunkWriter
from repro.recorder.store import (
    events_path,
    load_checkpoint,
    rotate_generation,
    write_checkpoint,
    write_manifest,
)
from repro.substrates.base import Substrate

#: Events after which the legacy per-event path seals the recorder's own
#: batch (the batched path seals each flushed batch as it arrives).
LEGACY_SEAL_ROWS = 512


class RecorderSubstrate(Substrate):
    """Seals the event stream into chunks + periodic checkpoints.

    Must be constructed with a ``record_dir``; the registry entry exists
    so the name resolves, but an unconfigured instance refuses to
    initialize rather than silently recording nowhere.  The runtime
    injects the live :class:`~repro.profiling.task_profiler.TaskProfiler`
    (``self.profiler``) after substrate setup so checkpoints can
    snapshot real profiling state; without it, checkpoints still record
    the stream cursor.
    """

    name = "recorder"
    essential = False

    def __init__(
        self,
        record_dir: Optional[str] = None,
        *,
        # The sealed stream is the primary durable artifact (flushed
        # after every chunk); checkpoints only speed up salvage and
        # cover a corrupt-beyond-CRC stream, so their cadence is coarse:
        # a snapshot costs a few ms, and every 8192 events keeps the
        # amortized cost under a microsecond per event.
        checkpoint_every: int = 8192,
        per_event_cost: float = 0.0,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.record_dir = record_dir
        self.checkpoint_every = checkpoint_every
        self.per_event_cost = per_event_cost
        self.profiler = None  # injected by the runtime after initialize
        self.writer: Optional[ChunkWriter] = None
        self._batch: Optional[EventBatch] = None  # the legacy path's batch
        self.records = 0
        self.checkpoints = 0
        self.checkpoint_errors = 0
        self.warm_start: Optional[dict] = None
        self._n_threads = 0
        self._start_time = 0.0
        self._init_pending: Optional[Region] = None
        self._next_checkpoint = checkpoint_every
        self._finish_time: Optional[float] = None

    # -- lifecycle ------------------------------------------------------
    def initialize(
        self,
        registry: RegionRegistry,
        n_threads: int,
        start_time: float,
        implicit_region: Optional[Region] = None,
    ) -> None:
        if self.record_dir is None:
            raise SubstrateError(
                "recorder substrate needs a record_dir; construct it as "
                "RecorderSubstrate(record_dir=...) or pass --record on the CLI"
            )
        if implicit_region is None:
            raise SubstrateError("recorder substrate needs an implicit region")
        os.makedirs(self.record_dir, exist_ok=True)
        # Warm start: never clobber a previous attempt's salvageable
        # state -- rotate it aside and remember where that attempt stood.
        previous = load_checkpoint(self.record_dir)
        generation = rotate_generation(self.record_dir)
        if previous is not None:
            self.warm_start = {
                "generation": generation,
                "time": previous.get("time"),
                "cursor": previous.get("cursor"),
            }
        self.writer = ChunkWriter(events_path(self.record_dir), registry)
        self._batch = EventBatch(registry)
        self._n_threads = n_threads
        self._start_time = start_time
        # The INIT record needs the profiler's depth limit, which is
        # injected after manager initialization -- defer it to first use.
        self._init_pending = implicit_region
        write_manifest(self.record_dir, self._manifest(complete=False))

    def _manifest(self, **fields) -> dict:
        return {
            "n_threads": self._n_threads,
            "start_time": self._start_time,
            "checkpoint_every": self.checkpoint_every,
            "warm_start": self.warm_start,
            **fields,
        }

    def _ensure_init(self) -> None:
        if self._init_pending is None:
            return
        depth = None
        profiler = self.profiler
        if profiler is not None and profiler.threads:
            depth = profiler.threads[0].max_call_path_depth
        self.writer.add_record(
            ("init", self._n_threads, self._start_time, self._init_pending, depth)
        )
        self._init_pending = None

    def _seal(self, batch: EventBatch) -> None:
        """Seal ``batch`` as one chunk, then checkpoint if one is due."""
        self._ensure_init()
        self.writer.seal(batch)
        self.records += len(batch)
        if self.records >= self._next_checkpoint and batch.times:
            self._checkpoint(batch.times[-1])

    def _seal_own(self) -> None:
        self._seal(self._batch)
        self._batch.clear()

    def _checkpoint(self, time: float) -> None:
        """Fsync the stream, then snapshot profiler state.

        Checkpoint failures are recorded but never raised: losing a
        checkpoint degrades recovery, it must not abort measurement.
        """
        self._next_checkpoint = self.records + self.checkpoint_every
        try:
            self.writer.sync()
            data = {
                "time": time,
                "records": self.records,
                "cursor": self.writer.cursor(),
                "profile": None,
            }
            if self.profiler is not None:
                from repro.profiling.snapshot import snapshot_profile_dict

                data["profile"] = snapshot_profile_dict(self.profiler, time)
            write_checkpoint(self.record_dir, data)
            self.checkpoints += 1
        except Exception:
            self.checkpoint_errors += 1

    def finalize(self, time: float) -> None:
        if self.writer is None or self.writer.closed:
            return
        self._ensure_init()
        self.records += len(self._batch)
        self._finish_time = time
        self.writer.close(self._batch, finish_time=time)
        write_manifest(
            self.record_dir,
            self._manifest(
                complete=True,
                finish_time=time,
                records=self.records,
                chunks=self.writer.sealed_chunks,
                checkpoints=self.checkpoints,
                checkpoint_errors=self.checkpoint_errors,
            ),
        )

    def artifact(self) -> Any:
        return {
            "record_dir": self.record_dir,
            "records": self.records,
            "chunks": self.writer.sealed_chunks if self.writer else 0,
            "checkpoints": self.checkpoints,
            "checkpoint_errors": self.checkpoint_errors,
            "complete": self._finish_time is not None,
            "finish_time": self._finish_time,
            "warm_start": self.warm_start,
        }

    # -- the event stream -----------------------------------------------
    def on_batch(self, batch: EventBatch) -> None:
        """Seal one flushed batch as one chunk."""
        self._seal(batch)

    def _phase(self, record: tuple) -> None:
        if self._batch.codes:
            self._seal_own()
        self._ensure_init()
        self.writer.add_record(record)
        self.records += 1

    def on_phase_begin(self, name: str) -> None:
        self._phase(("phase_begin", name))

    def on_phase_end(self, name: str) -> None:
        self._phase(("phase_end", name))

    # -- legacy per-event path (batch_events=False) ---------------------
    def _spill(self) -> None:
        if len(self._batch.codes) >= LEGACY_SEAL_ROWS:
            self._seal_own()

    def on_enter(
        self,
        thread_id: int,
        region: Region,
        time: float,
        parameter: Optional[tuple] = None,
    ) -> None:
        self._batch.add_enter(thread_id, region, time, parameter)
        self._spill()

    def on_exit(self, thread_id: int, region: Region, time: float) -> None:
        self._batch.add_exit(thread_id, region, time)
        self._spill()

    def on_task_begin(
        self,
        thread_id: int,
        region: Region,
        instance: InstanceId,
        time: float,
        parameter: Optional[tuple] = None,
    ) -> None:
        self._batch.add_task_begin(thread_id, region, instance, time, parameter)
        self._spill()

    def on_task_end(
        self, thread_id: int, region: Region, instance: InstanceId, time: float
    ) -> None:
        self._batch.add_task_end(thread_id, region, instance, time)
        self._spill()

    def on_task_switch(
        self, thread_id: int, instance: InstanceId, time: float
    ) -> None:
        self._batch.add_task_switch(thread_id, instance, time)
        self._spill()

    def on_metric(self, thread_id: int, counters: dict, time: float) -> None:
        self._batch.add_metric(thread_id, counters, time)
        self._spill()

"""Sealed, checksummed chunk framing for the recorded event stream.

Layout of ``events.chunks``::

    b"RPRC" | version u8          -- file header (5 bytes)
    [ seq u32 | length u32 | crc32 u32 | payload ... ]*   -- sealed chunks

Each chunk is one flushed :class:`~repro.events.batch.EventBatch`, stored
as it is.  Its payload (integers and floats little-endian)::

    header_len u32 | header | codes (rows x int64) | times (rows x float64)

``codes`` and ``times`` are the batch's two columns byte for byte, so
times survive bit-exactly and the packed codes keep the live run's
region handles -- one intern table end to end.  ``header`` is a
canonical-JSON object; empty keys are left out:

* ``rows`` -- the number of events in the columns;
* ``regions`` -- ``[handle, name, type, file, line]`` for each region
  registered since the previous chunk, so any sealed prefix defines
  every region it references, each exactly once;
* ``payloads`` -- ``[row, value]`` for each row with the ``F_PAYLOAD``
  bit set: an enter/task-begin parameter list or a metric's counters;
* ``records`` -- the init and phase records that come *before* the rows;
* ``fin`` -- ``[finish_time, count]`` on the last chunk of a complete
  stream; it comes *after* the rows, and ``count`` is the number of
  records before it.

Every event row counts as one record, and so does every init, phase and
fin record.  Sequence numbers are consecutive from zero and the CRC
covers the payload, so a reader can always answer "which prefix of
this file is trustworthy?":

* short header / short payload  -> torn tail (the write was cut off)
* CRC mismatch                  -> torn or corrupted tail
* sequence gap or absurd length -> corrupted tail
* a CRC-valid payload that fails the decoder's checks -> undecodable

Recovery (:func:`recover_chunks`) stops at the first such defect and,
when asked, truncates the file back to the last sealed chunk -- the only
repair a kill -9 ever requires, because the writer appends whole chunks
with a single buffered write + flush.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from repro.errors import RecordingError
from repro.events.batch import (
    F_PAYLOAD,
    K_ENTER,
    K_EXIT,
    K_METRIC,
    K_TASK_BEGIN,
    K_TASK_END,
    K_TASK_SWITCH,
    KIND_MASK,
    RID_MASK,
    RID_SHIFT,
    TID_MASK,
    TID_SHIFT,
    EventBatch,
)
from repro.events.regions import Region, RegionRegistry, RegionType

MAGIC = b"RPRC"
FORMAT_VERSION = 2
HEADER = MAGIC + bytes([FORMAT_VERSION])

_CHUNK_HEADER = struct.Struct("<III")  # seq, payload length, crc32
_HEADER_LEN = struct.Struct("<I")

#: Upper bound on a single chunk payload; anything larger in a header is
#: treated as corruption rather than an allocation request.
MAX_CHUNK_BYTES = 64 * 1024 * 1024


def _little_endian(column: array) -> array:
    """The column as stored on disk (a byte-swapped copy on big-endian hosts)."""
    if sys.byteorder == "little":
        return column
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


class ChunkWriter:
    """Seals event batches into checksummed chunks.

    One writer records one stream over one :class:`RegionRegistry`: each
    chunk defines the regions registered since the previous one.  Init
    and phase records queued with :meth:`add_record` go into the next
    chunk's header.  ``flush()`` after every seal means a SIGKILL loses
    nothing that was sealed; ``sync()`` (fsync) is reserved for
    checkpoints and close so the steady-state cost stays an in-process
    flush.
    """

    def __init__(self, path: str, registry: RegionRegistry) -> None:
        self.path = path
        self.registry = registry
        self.sealed_chunks = 0
        self.sealed_records = 0
        self._records: List[tuple] = []  # for the next chunk's header
        self._defined = 0  # registry regions already written
        self._handle = open(path, "wb")
        try:
            self._handle.write(HEADER)
            self._handle.flush()
        except Exception:
            self._handle.close()
            raise

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def add_record(self, record: tuple) -> None:
        """Queue an init or phase record for the next chunk's header."""
        self._records.append(record)

    def seal(
        self, batch: Optional[EventBatch] = None, finish_time: Optional[float] = None
    ) -> None:
        """Write the queued records and ``batch`` as one sealed chunk;
        with ``finish_time``, end it with the FIN record."""
        rows = len(batch) if batch is not None else 0
        if not rows and not self._records and finish_time is None:
            return
        header = {"rows": rows}
        if len(self.registry) > self._defined:
            header["regions"] = [
                [r.handle, r.name, r.region_type.value, r.file, r.line]
                for r in list(self.registry)[self._defined:]
            ]
            self._defined = len(self.registry)
        if self._records:
            header["records"] = [
                [r[0], r[1], r[2], r[3].handle, r[4]] if r[0] == "init" else list(r)
                for r in self._records
            ]
        if rows and batch.payloads:
            header["payloads"] = sorted([i, p] for i, p in batch.payloads.items())
        count = self.sealed_records + len(self._records) + rows
        if finish_time is not None:
            header["fin"] = [finish_time, count]
            count += 1
        text = _canonical(header)
        parts = [_HEADER_LEN.pack(len(text)), text]
        if rows:
            parts += [_little_endian(batch.codes), _little_endian(batch.times)]
        payload = b"".join(parts)
        self._handle.write(
            _CHUNK_HEADER.pack(self.sealed_chunks, len(payload), zlib.crc32(payload))
            + payload
        )
        self._handle.flush()
        self.sealed_records = count
        self.sealed_chunks += 1
        self._records.clear()

    def sync(self) -> None:
        """Fsync the sealed chunks -- the durability point checkpoints rely on."""
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def cursor(self) -> dict:
        """Position of the sealed prefix (what recovery can rebuild)."""
        return {"chunks": self.sealed_chunks, "records": self.sealed_records}

    def close(
        self, batch: Optional[EventBatch] = None, finish_time: Optional[float] = None
    ) -> None:
        """Seal the tail and close; with ``finish_time``, append the FIN
        record that marks the stream complete for strict replay."""
        if self._handle.closed:
            return
        try:
            self.seal(batch, finish_time)
            self.sync()
        finally:
            self._handle.close()


class Frame(NamedTuple):
    """One decoded chunk: the records before its rows, the rows, the FIN."""

    records: List[tuple]
    batch: EventBatch
    fin: Optional[tuple]


def _as_tuple(kind, thread_id, region, time, instance, payload) -> tuple:
    """One event row in the legacy record-tuple shape."""
    if kind == K_ENTER:
        return ("enter", thread_id, time, region, payload)
    if kind == K_EXIT:
        return ("exit", thread_id, time, region)
    if kind == K_TASK_BEGIN:
        return ("task_begin", thread_id, time, region, instance, payload)
    if kind == K_TASK_END:
        return ("task_end", thread_id, time, region, instance)
    if kind == K_TASK_SWITCH:
        return ("task_switch", thread_id, time, instance)
    return ("metric", thread_id, time, payload)


@dataclass
class RecoveredStream:
    """Result of reading an ``events.chunks`` file defensively."""

    frames: List[Frame] = field(default_factory=list)
    #: records in the sealed prefix (event rows + init/phase/fin records)
    count: int = 0
    chunks: int = 0
    good_bytes: int = 0
    total_bytes: int = 0
    header_ok: bool = True
    truncated: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def records(self) -> List[tuple]:
        """Every record as a tuple, in stream order (for inspection only:
        replay consumes :attr:`frames` directly)."""
        out: List[tuple] = []
        for frame in self.frames:
            out.extend(frame.records)
            out.extend(_as_tuple(*row) for row in frame.batch.rows())
            if frame.fin is not None:
                out.append(frame.fin)
        return out

    @property
    def torn_bytes(self) -> int:
        return self.total_bytes - self.good_bytes

    @property
    def complete(self) -> bool:
        return bool(self.frames) and self.frames[-1].fin is not None

    @property
    def finish_time(self) -> Optional[float]:
        if self.complete:
            return self.frames[-1].fin[1]
        return None


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise RecordingError(message)


def _is_int(value) -> bool:
    return type(value) is int


def _is_time(value) -> bool:
    return type(value) in (int, float)


def _list(header: dict, key: str) -> list:
    value = header.get(key, [])
    _check(isinstance(value, list), f"bad {key} in chunk header: {value!r}")
    return value


class _Decoder:
    """Stateful chunk decoder: regions and the init record carry across
    chunks.  Every check raises :class:`RecordingError`, never garbage."""

    def __init__(self) -> None:
        self.registry = RegionRegistry()
        self.handles = np.empty(0, dtype=np.int64)
        self.n_threads: Optional[int] = None
        self.finished = False

    def _define(self, entry) -> None:
        _check(isinstance(entry, list) and len(entry) == 5, f"bad region def {entry!r}")
        handle, name, type_value, file, line = entry
        _check(_is_int(handle) and 0 < handle <= RID_MASK, f"bad region handle {handle!r}")
        _check(handle not in self.handles, f"duplicate region def for id {handle}")
        _check(isinstance(name, str), f"bad region name {name!r}")
        _check(file is None or isinstance(file, str), f"bad region file {file!r}")
        _check(line is None or _is_int(line), f"bad region line {line!r}")
        try:
            region_type = RegionType(type_value)
            self.registry.register(name, region_type, file, line, handle=handle)
        except ValueError as exc:
            raise RecordingError(f"bad region def {entry!r}: {exc}") from exc
        self.handles = np.append(self.handles, handle)

    def _region(self, handle) -> Region:
        _check(_is_int(handle) and handle in self.handles,
               f"record references undefined region id {handle!r}")
        return self.registry.lookup(handle)

    def _record(self, entry) -> tuple:
        _check(isinstance(entry, list) and entry, f"bad record {entry!r}")
        kind = entry[0]
        if kind == "init" and len(entry) == 5:
            _, n_threads, start_time, handle, depth = entry
            _check(self.n_threads is None, "duplicate init record")
            _check(_is_int(n_threads) and 0 < n_threads <= TID_MASK + 1,
                   f"bad thread count {n_threads!r}")
            _check(_is_time(start_time), f"bad start time {start_time!r}")
            _check(depth is None or _is_int(depth), f"bad depth limit {depth!r}")
            self.n_threads = n_threads
            return ("init", n_threads, float(start_time), self._region(handle), depth)
        if kind in ("phase_begin", "phase_end") and len(entry) == 2:
            _check(isinstance(entry[1], str), f"bad phase name {entry[1]!r}")
            return (kind, entry[1])
        raise RecordingError(f"unknown record {entry!r}")

    def _batch(self, payload: bytes, offset: int, rows: int, payloads) -> EventBatch:
        batch = EventBatch(self.registry)
        if not rows:
            _check(not payloads, "payloads in a chunk without rows")
            return batch
        _check(self.n_threads is not None, "event rows before the init record")
        end = offset + 8 * rows
        batch.codes.frombytes(payload[offset:end])
        batch.times.frombytes(payload[end:end + 8 * rows])
        if sys.byteorder != "little":
            batch.codes.byteswap()
            batch.times.byteswap()
        codes = np.frombuffer(batch.codes, dtype=np.int64)
        kinds = codes & KIND_MASK
        bad = (codes < 0) | (kinds > K_METRIC)
        if bad.any():
            row = int(np.argmax(bad))
            raise RecordingError(f"row {row}: unknown event kind {int(kinds[row])}")
        threads = (codes >> TID_SHIFT) & TID_MASK
        if (threads >= self.n_threads).any():
            thread_id = int(threads.max())
            raise RecordingError(
                f"thread id {thread_id} out of range for {self.n_threads} thread(s)"
            )
        rids = (codes[kinds <= K_TASK_END] >> RID_SHIFT) & RID_MASK
        undefined = ~np.isin(rids, self.handles)
        if undefined.any():
            rid = int(rids[np.argmax(undefined)])
            raise RecordingError(f"record references undefined region id {rid}")
        flagged = (codes & F_PAYLOAD) != 0
        _check(flagged[kinds == K_METRIC].all(), "metric row without counters")
        _check(
            all(isinstance(e, list) and len(e) == 2 and _is_int(e[0]) for e in payloads)
            and [e[0] for e in payloads] == np.flatnonzero(flagged).tolist(),
            "payload rows do not match the F_PAYLOAD bits",
        )
        for row, value in payloads:
            kind = kinds[row]
            if kind == K_METRIC:
                _check(isinstance(value, dict), f"row {row}: bad counters {value!r}")
            else:
                _check(kind in (K_ENTER, K_TASK_BEGIN) and isinstance(value, list),
                       f"row {row}: bad parameter {value!r}")
                value = tuple(value)
            batch.payloads[row] = value
        batch.counted = rows - int((kinds == K_METRIC).sum())
        return batch

    def decode(self, payload: bytes) -> Frame:
        _check(not self.finished, "chunk after the FIN record")
        _check(len(payload) >= _HEADER_LEN.size, "truncated chunk header")
        (length,) = _HEADER_LEN.unpack_from(payload)
        offset = _HEADER_LEN.size + length
        _check(offset <= len(payload), "truncated chunk header")
        try:
            header = json.loads(payload[_HEADER_LEN.size:offset])
        except ValueError as exc:
            raise RecordingError(f"malformed chunk header: {exc}") from exc
        _check(isinstance(header, dict), f"chunk header is not an object: {header!r}")
        rows = header.get("rows")
        _check(_is_int(rows) and rows >= 0, f"bad row count {rows!r}")
        _check(
            len(payload) == offset + 16 * rows,
            f"column lengths disagree with header: {rows} row(s) need "
            f"{16 * rows} bytes, chunk has {len(payload) - offset}",
        )
        for entry in _list(header, "regions"):
            self._define(entry)
        records = [self._record(entry) for entry in _list(header, "records")]
        batch = self._batch(payload, offset, rows, _list(header, "payloads"))
        fin = header.get("fin")
        if fin is not None:
            _check(isinstance(fin, list) and len(fin) == 2 and _is_time(fin[0])
                   and _is_int(fin[1]), f"bad fin record {fin!r}")
            fin = ("fin", float(fin[0]), fin[1])
            self.finished = True
        return Frame(records, batch, fin)


def recover_chunks(path: str) -> RecoveredStream:
    """Read the trustworthy prefix of a chunk file.

    Never raises on damaged input: whatever defect ends the scan is
    described in ``notes`` and everything before it is returned.  A
    missing or mangled file header makes the whole file untrustworthy
    (``header_ok=False``, zero records).
    """
    stream = RecoveredStream()
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        stream.header_ok = False
        stream.notes.append(f"unreadable stream: {exc}")
        return stream
    stream.total_bytes = len(data)
    if len(data) < len(HEADER) or data[: len(MAGIC)] != MAGIC:
        stream.header_ok = False
        stream.notes.append("missing or torn file header")
        return stream
    if data[len(MAGIC)] != FORMAT_VERSION:
        stream.header_ok = False
        stream.notes.append(
            f"unsupported stream version {data[len(MAGIC)]} "
            f"(supported: {FORMAT_VERSION})"
        )
        return stream
    offset = len(HEADER)
    stream.good_bytes = offset
    decoder = _Decoder()
    while offset < len(data):
        if offset + _CHUNK_HEADER.size > len(data):
            stream.notes.append("torn chunk header at tail")
            break
        seq, length, crc = _CHUNK_HEADER.unpack_from(data, offset)
        if seq != stream.chunks:
            stream.notes.append(
                f"sequence gap: expected chunk {stream.chunks}, found {seq}"
            )
            break
        if length > MAX_CHUNK_BYTES:
            stream.notes.append(f"implausible chunk length {length}")
            break
        start = offset + _CHUNK_HEADER.size
        end = start + length
        if end > len(data):
            stream.notes.append(f"torn chunk payload in chunk {seq}")
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            stream.notes.append(f"crc mismatch in chunk {seq}")
            break
        try:
            frame = decoder.decode(payload)
        except RecordingError as exc:
            stream.notes.append(f"undecodable chunk {seq}: {exc}")
            break
        stream.frames.append(frame)
        stream.count += len(frame.records) + len(frame.batch) + (frame.fin is not None)
        stream.chunks += 1
        offset = end
        stream.good_bytes = offset
    return stream


def read_records(path: str, *, truncate: bool = False) -> RecoveredStream:
    """Recover the sealed prefix; optionally truncate the torn tail.

    Truncation rewinds the file to the last sealed chunk so later
    readers (and warm-started writers rotating the file aside) see a
    clean stream.  A file with a bad header is left untouched -- there
    is no trustworthy prefix to truncate *to*.
    """
    stream = recover_chunks(path)
    if truncate and stream.header_ok and stream.torn_bytes > 0:
        try:
            with open(path, "rb+") as handle:
                handle.truncate(stream.good_bytes)
            stream.truncated = True
            stream.notes.append(f"truncated {stream.torn_bytes} torn tail bytes")
            stream.total_bytes = stream.good_bytes
        except OSError as exc:
            stream.notes.append(f"failed to truncate torn tail: {exc}")
    return stream


__all__ = [
    "ChunkWriter",
    "Frame",
    "RecoveredStream",
    "recover_chunks",
    "read_records",
    "MAGIC",
    "FORMAT_VERSION",
    "HEADER",
    "MAX_CHUNK_BYTES",
]

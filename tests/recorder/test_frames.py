"""Chunk frames: what a sealed EventBatch keeps, and what the decoder refuses.

Each chunk stores one batch's ``codes`` and ``times`` columns as they
are, behind a canonical-JSON header.  These tests pin the properties the
replay path relies on -- bit-exact times, regions defined once and
pinned to the live handles -- and that a CRC-valid chunk failing any
decoder check ends the trusted prefix with an "undecodable chunk" note
(:class:`RecordingError` from replay), never garbage.
"""

import json
import math
import struct
import zlib

import pytest

from repro.errors import RecordingError
from repro.events.batch import (
    F_PAYLOAD,
    K_ENTER,
    K_METRIC,
    EventBatch,
    pack_code,
    unzigzag,
    zigzag,
)
from repro.events.regions import RegionRegistry
from repro.recorder import replay_recording, verify_recording
from repro.recorder.chunks import MAGIC, ChunkWriter, recover_chunks
from repro.recorder.store import events_path

from tests.recorder.streams import comparable, make_regions, write_stream

MAIN = [1, "main", "function", "main.py", 1]
INIT = ["init", 2, 0.0, 1, None]


def _payload(header, codes=(), times=()):
    text = json.dumps(header).encode("utf-8")
    return (
        struct.pack("<I", len(text)) + text
        + struct.pack(f"<{len(codes)}q", *codes)
        + struct.pack(f"<{len(times)}d", *times)
    )


def _write_chunks(path, payloads, version=2):
    """A stream of CRC-valid chunks with hand-built payloads."""
    data = MAGIC + bytes([version])
    for seq, payload in enumerate(payloads):
        data += struct.pack("<III", seq, len(payload), zlib.crc32(payload)) + payload
    with open(path, "wb") as handle:
        handle.write(data)


def _first_chunk(header, codes=(), times=()):
    return _payload({"regions": [MAIN], "records": [INIT], **header}, codes, times)


def _read_payloads(path):
    """The chunk payloads of a stream file, in order."""
    with open(path, "rb") as handle:
        data = handle.read()
    payloads, offset = [], len(MAGIC) + 1
    while offset < len(data):
        _, length, _ = struct.unpack_from("<III", data, offset)
        offset += 12
        payloads.append(data[offset:offset + length])
        offset += length
    return payloads


def _undecodable(tmp_path, payloads):
    """Recover a hand-built stream whose last chunk must be refused."""
    path = events_path(str(tmp_path))
    _write_chunks(path, payloads)
    stream = recover_chunks(path)
    assert stream.chunks == len(payloads) - 1
    assert any(
        note.startswith(f"undecodable chunk {len(payloads) - 1}")
        for note in stream.notes
    ), stream.notes
    return stream


def _seal(path, registry, *batches, init_region=None):
    writer = ChunkWriter(path, registry)
    writer.add_record(("init", 2, 0.0, init_region, None))
    for batch in batches:
        writer.seal(batch)
    writer.close(finish_time=99.0)
    return writer


# ----------------------------------------------------------------------
# What a frame keeps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_random_stream_round_trips_exactly(tmp_path, seed):
    path = str(tmp_path / "events.chunks")
    records = write_stream(path, seed, 120)
    stream = recover_chunks(path)
    assert [comparable(r) for r in stream.records] == [comparable(r) for r in records]


@pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 2**31, -(2**31)])
def test_zigzag_round_trip(value):
    """Task instance ids (negative for implicit tasks) survive the zigzag
    mapping the packed codes store them in."""
    assert unzigzag(zigzag(value)) == value


def test_times_survive_bit_exactly(tmp_path):
    registry = RegionRegistry()
    main = make_regions(registry)[0]
    awkward = [0.0, 1e-17, math.pi, 1 / 3, 2**53 + 1.0, 123456.789012345]
    batch = EventBatch(registry)
    for time in awkward:
        batch.add_exit(0, main, time)
    path = str(tmp_path / "events.chunks")
    _seal(path, registry, batch, init_region=main)
    times = recover_chunks(path).frames[0].batch.times
    # == would pass for close floats; require the identical bits
    assert [t.hex() for t in times] == [float(t).hex() for t in awkward]


def test_regions_defined_once_across_chunks(tmp_path):
    """The second chunk referencing the same region does not re-define
    it, and the decoder resolves it there from the first chunk."""
    registry = RegionRegistry()
    main = make_regions(registry)[0]
    first, second = EventBatch(registry), EventBatch(registry)
    first.add_exit(0, main, 1.0)
    second.add_exit(1, main, 2.0)
    path = str(tmp_path / "events.chunks")
    _seal(path, registry, first, second, init_region=main)
    data = open(path, "rb").read()
    offset = len(MAGIC) + 1
    headers = []
    while offset < len(data):
        _, length, _ = struct.unpack_from("<III", data, offset)
        (size,) = struct.unpack_from("<I", data, offset + 12)
        headers.append(json.loads(data[offset + 16:offset + 16 + size]))
        offset += 12 + length
    assert len(headers[0]["regions"]) == len(registry)
    assert all("regions" not in header for header in headers[1:])
    stream = recover_chunks(path)
    assert [r[3].name for r in stream.records if r[0] == "exit"] == ["main", "main"]


def test_replayed_regions_interned_by_identity_and_pinned(tmp_path):
    registry = RegionRegistry()
    regions = make_regions(registry)
    task = regions[2]
    batch = EventBatch(registry)
    batch.add_enter(0, task, 1.0)
    batch.add_exit(0, task, 2.0)
    path = str(tmp_path / "events.chunks")
    _seal(path, registry, batch, init_region=regions[0])
    stream = recover_chunks(path)
    rows = list(stream.frames[0].batch.rows())
    assert rows[0][2] is rows[1][2]  # same Region object on replay
    assert rows[0][2].handle == task.handle  # pinned to the live handle
    init = stream.frames[0].records[0]
    assert init[3] is stream.frames[0].batch.registry.lookup(regions[0].handle)


def test_payloads_round_trip(tmp_path):
    registry = RegionRegistry()
    main = make_regions(registry)[0]
    batch = EventBatch(registry)
    batch.add_enter(0, main, 1.0, ("depth", 3))
    batch.add_metric(1, {"tasks_created": 4}, 1.5)
    batch.add_exit(0, main, 2.0)
    path = str(tmp_path / "events.chunks")
    _seal(path, registry, batch, init_region=main)
    replayed = recover_chunks(path).frames[0].batch
    assert replayed.payloads == {0: ("depth", 3), 1: {"tasks_created": 4}}
    assert replayed.codes == batch.codes and replayed.counted == batch.counted


# ----------------------------------------------------------------------
# What the decoder refuses
# ----------------------------------------------------------------------
def test_out_of_range_thread_id_is_undecodable(tmp_path):
    """A CRC-valid enter on thread 5 of a 2-thread stream must not crash
    replay with an IndexError."""
    code = pack_code(K_ENTER, thread_id=5, region_id=1)
    _undecodable(tmp_path, [_first_chunk({"rows": 1}, [code], [1.0])])
    report = verify_recording(str(tmp_path), expected_sha="0" * 64)
    assert report.exit_code == 2
    assert any("undecodable chunk 0" in r and "thread id 5" in r for r in report.reasons)
    with pytest.raises(RecordingError, match="undecodable chunk 0"):
        replay_recording(str(tmp_path))


def test_undefined_region_is_undecodable(tmp_path):
    code = pack_code(K_ENTER, thread_id=0, region_id=5)
    stream = _undecodable(tmp_path, [_first_chunk({"rows": 1}, [code], [1.0])])
    assert "undefined region id 5" in stream.notes[0]


def test_unknown_kind_is_undecodable(tmp_path):
    ok = _first_chunk({"rows": 0})
    bad = _payload({"rows": 1}, [pack_code(K_ENTER, 0, 1) | 6], [1.0])
    stream = _undecodable(tmp_path, [ok, bad])
    assert stream.count == 1  # the init record of the intact first chunk
    assert "unknown event kind 6" in stream.notes[0]


def test_payload_keys_must_match_flag_bits(tmp_path):
    code = pack_code(K_ENTER, 0, 1)
    _undecodable(tmp_path, [_first_chunk(
        {"rows": 1, "payloads": [[0, ["depth", 1]]]}, [code], [1.0])])
    _undecodable(tmp_path, [_first_chunk({"rows": 1}, [code | F_PAYLOAD], [1.0])])
    metric = pack_code(K_METRIC, 0, has_payload=True)
    _undecodable(tmp_path, [_first_chunk(
        {"rows": 1, "payloads": [[0, ["not", "counters"]]]}, [metric], [1.0])])


def test_column_lengths_must_agree_with_header(tmp_path):
    code = pack_code(K_ENTER, 0, 1)
    stream = _undecodable(tmp_path, [_first_chunk({"rows": 2}, [code], [1.0])])
    assert "column lengths disagree" in stream.notes[0]


@pytest.mark.parametrize("seed", [0, 3])
def test_truncated_payload_is_undecodable_at_every_cut(tmp_path, seed):
    """Any cut of any chunk payload in a random stream, re-framed with a
    valid CRC, is refused -- it must never decode to wrong records, and
    the chunks before it stay a trusted, exact prefix."""
    path = events_path(str(tmp_path))
    write_stream(path, seed, 30)
    full = recover_chunks(path)
    payloads = _read_payloads(path)
    assert len(payloads) == full.chunks > 1
    for index, payload in enumerate(payloads):
        for cut in range(len(payload)):
            stream = _undecodable(tmp_path, payloads[:index] + [payload[:cut]])
            assert [comparable(r) for r in stream.records] == [
                comparable(r) for r in full.records[: len(stream.records)]
            ]
    _write_chunks(path, payloads)
    assert recover_chunks(path).count == full.count


def test_version_one_stream_is_refused(tmp_path):
    _write_chunks(events_path(str(tmp_path)), [_first_chunk({"rows": 0})], version=1)
    report = verify_recording(str(tmp_path), expected_sha="0" * 64)
    assert report.exit_code == 2
    assert any("unsupported stream version 1" in r for r in report.reasons)

"""Chunk framing: seal/recover round trips and torn-tail recovery.

The load-bearing property (satellite of the recording tentpole): cut a
sealed stream at *every* byte offset and recovery must always return a
clean prefix of the original records -- never an exception, never a
record that was not in the stream.
"""

import pytest

from repro.faults.recording import RECORDING_CORRUPTION_CLASSES, corrupt_recording
from repro.recorder.chunks import (
    HEADER,
    read_records,
    recover_chunks,
)
from repro.recorder.store import events_path

from tests.recorder.streams import (
    comparable,
    random_records,
    write_records,
    write_stream,
)


@pytest.fixture()
def sealed(tmp_path):
    path = tmp_path / "events.chunks"
    write_stream(str(path), 5, 40)
    return path


# ----------------------------------------------------------------------
# Clean round trip
# ----------------------------------------------------------------------
def test_write_read_round_trip(tmp_path):
    path = tmp_path / "events.chunks"
    records = write_stream(str(path), 5, 40)
    stream = recover_chunks(str(path))
    assert stream.header_ok and not stream.torn_bytes
    assert stream.complete and stream.finish_time == 999.0
    assert [comparable(r) for r in stream.records] == [comparable(r) for r in records]
    assert stream.records[-1][0] == "fin"


def test_chunk_count_matches_batching(tmp_path):
    registry, records = random_records(5, 40)
    path = str(tmp_path / "events.chunks")
    writer, batch = write_records(path, registry, records)
    sealed_chunks = writer.sealed_chunks
    writer.close(batch, finish_time=999.0)
    stream = recover_chunks(path)
    # every sealed batch is one chunk; close seals the tail + FIN as one more
    assert stream.chunks == sealed_chunks + 1 == writer.sealed_chunks
    # init + 40 records + fin, each counted once
    assert stream.count == len(stream.records) == 42
    assert writer.cursor() == {"chunks": stream.chunks, "records": 42}


# ----------------------------------------------------------------------
# Truncate at every byte (seeded property test)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_truncation_at_every_byte_yields_clean_prefix(tmp_path, seed):
    path = tmp_path / "events.chunks"
    write_stream(str(path), seed, 40)
    data = path.read_bytes()
    expected = [comparable(r) for r in recover_chunks(str(path)).records]
    torn = tmp_path / "torn.chunks"
    for cut in range(len(data) + 1):
        torn.write_bytes(data[:cut])
        stream = recover_chunks(str(torn))  # must never raise
        got = [comparable(r) for r in stream.records]
        assert got == expected[: len(got)], f"corrupt prefix at cut={cut}"
        assert stream.count == len(got)
        assert stream.good_bytes <= max(cut, len(HEADER))
        assert stream.complete == (cut == len(data))
        if cut < len(HEADER):
            assert not stream.header_ok and not stream.records


def test_truncate_flag_repairs_file_in_place(tmp_path):
    path = tmp_path / "events.chunks"
    write_stream(str(path), 9, 40)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])  # tear mid-final-chunk
    stream = read_records(str(path), truncate=True)
    assert stream.truncated
    assert path.stat().st_size == stream.good_bytes
    again = read_records(str(path))
    assert not again.notes and not again.torn_bytes
    assert again.count == stream.count


# ----------------------------------------------------------------------
# Seeded corruption classes (past what a torn write can produce)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", RECORDING_CORRUPTION_CLASSES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_corruption_reduces_to_clean_prefix(tmp_path, kind, seed):
    record_dir = tmp_path / "rec"
    record_dir.mkdir()
    write_stream(events_path(str(record_dir)), seed, 60)
    intact = recover_chunks(events_path(str(record_dir)))
    expected = [comparable(r) for r in intact.records]

    info = corrupt_recording(str(record_dir), kind, seed=seed)
    assert info["kind"] == kind
    stream = recover_chunks(events_path(str(record_dir)))
    got = [comparable(r) for r in stream.records]
    assert got == expected[: len(got)]
    if got != expected or kind == "garbage_append":
        assert stream.notes, "damage swallowed without a note"


def test_corrupt_recording_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        corrupt_recording(str(tmp_path), "set_on_fire")


def test_mangled_header_means_no_trustworthy_prefix(sealed):
    data = sealed.read_bytes()
    sealed.write_bytes(b"XXX" + data[3:])
    stream = read_records(str(sealed), truncate=True)
    assert not stream.header_ok
    assert not stream.records
    assert not stream.truncated  # nothing trustworthy to truncate *to*
    assert sealed.read_bytes()[:3] == b"XXX"  # file left untouched


def test_unsupported_version_refused(sealed):
    data = bytearray(sealed.read_bytes())
    data[4] = 99
    sealed.write_bytes(bytes(data))
    stream = recover_chunks(str(sealed))
    assert not stream.header_ok
    assert any("version" in note for note in stream.notes)


def test_sigkill_loses_at_most_the_unsealed_buffer(tmp_path):
    """Abandoning a writer (no close) keeps every sealed chunk."""
    registry, records = random_records(11, 40)
    path = tmp_path / "events.chunks"
    writer, batch = write_records(str(path), registry, records)
    sealed = writer.sealed_records
    assert len(batch) > 0  # a short batch is still unsealed
    assert sealed <= len(records) - len(batch)
    del writer  # simulate death without close/seal
    stream = recover_chunks(str(path))
    assert stream.count == sealed
    assert not stream.complete
    assert [comparable(r) for r in stream.records] == [
        comparable(r) for r in records[:sealed]
    ]

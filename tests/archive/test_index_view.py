"""The store's incremental index view answers exactly like a full scan.

A long-lived :class:`ArchiveStore` parses only the bytes appended to
``index.jsonl`` since its last read.  These tests drive random
interleavings of every way the index can change -- puts (fresh and
deduplicated), tags, ``gc``, ``fsck --repair``, torn and unsealed
tails, appends through another store, another process, and a wholesale
``os.replace`` -- and after every step compare the view with a
reference fold over the whole file.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ioutil
from repro.archive import ArchiveStore, fsck
from repro.archive.meta import RunMeta
from repro.archive.store import ArchiveRecord, run_serial
from repro.errors import ArchiveError
from repro.faults.crash import synthetic_profile

SRC = Path(__file__).resolve().parents[2] / "src"


# ----------------------------------------------------------------------
# The reference: a full scan of the index on every question
# ----------------------------------------------------------------------
def _reference_records(path):
    records = {}
    for entry in ioutil.read(path):
        kind = entry.get("type")
        if kind == "run":
            try:
                record = ArchiveRecord.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                continue
            records[record.run_id] = record
        elif kind == "tag":
            record = records.get(entry.get("run_id"))
            tag = entry.get("tag")
            if record is not None and tag and tag not in record.extra_tags:
                record.extra_tags.append(tag)
    return list(records.values())


def _reference_get(records, ref):
    for record in records:
        if record.run_id == ref:
            return record
    if len(ref) >= 6:
        matches = [r for r in records if r.sha256.startswith(ref)]
        unique_shas = {r.sha256 for r in matches}
        if len(unique_shas) == 1:
            return matches[-1]
        if len(unique_shas) > 1:
            return (
                f"hash prefix {ref!r} is ambiguous "
                f"({len(unique_shas)} distinct objects match)"
            )
    known = ", ".join(r.run_id for r in records[-8:]) or "none archived yet"
    return f"no archived run matches {ref!r} (recent run ids: {known})"


def _reference_next_id(path):
    return f"r{max(map(run_serial, ioutil.read(path)), default=0) + 1:04d}"


def _text_mode_read(path):
    """The line reader the index was read with before the view existed."""
    try:
        handle = open(path, encoding="utf-8", errors="replace", newline="\n")
    except FileNotFoundError:
        return []
    entries = []
    with handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


def _store_get(store, ref):
    try:
        return store.get_record(ref)
    except ArchiveError as exc:
        return str(exc)


def assert_matches_full_scan(store):
    path = store.index_path
    assert list(ioutil.read(path)) == _text_mode_read(path)
    expected = _reference_records(path)
    assert store.records() == expected
    refs = {"r9999", "0" * 6}
    for record in expected:
        refs.update((record.run_id, record.sha256, record.sha256[:6]))
    for ref in sorted(refs):
        assert _store_get(store, ref) == _reference_get(expected, ref), ref
    assert f"r{store._max_run_serial() + 1:04d}" == _reference_next_id(path)


# ----------------------------------------------------------------------
# Random interleavings against one long-lived store
# ----------------------------------------------------------------------
def _meta(n):
    return RunMeta(
        kernel=f"k{n % 3}",
        size="test",
        wall_time_us=float(n),
        tags=("nightly",) if n % 4 == 0 else (),
    )


def _replace_index(path, lines):
    tmp = path + ".new"
    with open(tmp, "wb") as handle:
        handle.write(b"".join(lines))
    os.replace(tmp, path)


def _apply(step, arg, store, root):
    path = store.index_path
    records = _reference_records(path)
    if step in ("put", "put_other"):
        target = store if step == "put" else ArchiveStore(root)
        expected_id = _reference_next_id(path)
        record = target.put(synthetic_profile(arg), _meta(arg))
        assert record.run_id == expected_id
    elif step == "put_duplicate":
        stored = [r for r in records if store.has_object(r.sha256)]
        if stored:
            old = stored[arg % len(stored)]
            record = store.put(store.load_object(old.sha256), old.meta)
            assert record.deduplicated
    elif step in ("tag", "tag_other") and records:
        target = store if step == "tag" else ArchiveStore(root)
        record = records[arg % len(records)]
        tagged = target.tag(record.run_id, ("baseline", "candidate", "x")[arg % 3])
        assert set(record.tags) <= set(tagged.tags)
    elif step in ("gc", "gc_other"):
        target = store if step == "gc" else ArchiveStore(root)
        target.gc(keep_last=1 + arg % 3)
    elif step == "fsck_repair":
        fsck(store if arg % 2 else ArchiveStore(root), repair=True)
    elif step == "torn_tail":
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"run","run_id":"r99')
    elif step == "unsealed_run":
        # A complete record missing only its newline.
        sha = records[arg % len(records)].sha256 if records else "0" * 64
        entry = {"type": "run", "run_id": _reference_next_id(path),
                 "sha256": sha, "created": 1.0, "meta": _meta(arg).to_dict()}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True))
    elif step == "unsealed_tag" and records:
        entry = {"type": "tag", "run_id": records[arg % len(records)].run_id,
                 "tag": f"t{arg % 4}"}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True))
    elif step in ("truncate_in_place", "blank_in_place") and os.path.exists(path):
        # Out-of-contract edits of bytes the view already consumed (only
        # appends and os.replace rewrites happen in use): the same inode
        # shrinks, or its last line is overwritten with blanks.
        with open(path, "rb") as handle:
            lines = handle.readlines()
        if lines:
            keep = sum(map(len, lines[:-1]))
            with open(path, "r+b") as handle:
                if step == "truncate_in_place":
                    handle.truncate(keep)
                else:
                    handle.seek(keep)
                    handle.write(b" " * len(lines[-1].rstrip(b"\n")))
    elif step == "replace" and os.path.exists(path):
        with open(path, "rb") as handle:
            lines = handle.readlines()
        mode = arg % 3
        if mode == 1:
            lines = lines[:-1]  # shrinks below what the view consumed
        elif mode == 2:
            lines = lines[1:]
        _replace_index(path, lines)


STEPS = (
    "put", "put", "put_other", "put_duplicate", "tag", "tag_other", "gc",
    "gc_other", "fsck_repair", "torn_tail", "unsealed_run", "unsealed_tag",
    "replace", "truncate_in_place", "blank_in_place",
)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(STEPS), st.integers(0, 40)),
        min_size=1,
        max_size=24,
    )
)
def test_view_equals_full_scan_after_every_step(steps):
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "arch")
        os.makedirs(root)
        store = ArchiveStore(root)
        assert_matches_full_scan(store)
        for step, arg in steps:
            _apply(step, arg, store, root)
            assert_matches_full_scan(store)


def test_handed_out_records_are_never_mutated(tmp_path):
    store = ArchiveStore(str(tmp_path / "arch"))
    first = store.put(synthetic_profile(1), _meta(1))
    before = store.records()
    tagged = store.tag(first.run_id, "baseline")
    assert tagged.extra_tags == ["baseline"]
    assert before[0].extra_tags == []
    after = store.records()
    assert after[0].extra_tags == ["baseline"] and after[0] is not before[0]


def test_threads_reading_one_store_while_another_appends(tmp_path):
    # Readers race each other's refreshes of the shared view while a
    # writer appends through a second store: every answer must be a
    # gap-free, ordered prefix of the index.
    root = str(tmp_path / "arch")
    os.makedirs(root)
    shared = ArchiveStore(root)
    writes = 60
    done = threading.Event()
    failures = []

    def writer():
        store = ArchiveStore(root)
        try:
            for n in range(writes):
                store.put(synthetic_profile(n), _meta(n))
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                ids = [r.run_id for r in shared.records()]
                assert ids == [f"r{n:04d}" for n in range(1, len(ids) + 1)], ids
                if ids:
                    assert shared.get_record(ids[-1]).run_id == ids[-1]
                assert shared._max_run_serial() >= len(ids)
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert len(shared.records()) == writes
    assert_matches_full_scan(shared)


# ----------------------------------------------------------------------
# Another process appends and gc's between two reads
# ----------------------------------------------------------------------
_CHILD = """
import sys
from repro.faults.crash import gc_loop, put_loop
put_loop(sys.argv[1], 100, 6)
gc_loop(sys.argv[1], passes=1, keep_last=2)
"""


def test_other_process_appends_and_gc_between_reads(tmp_path):
    root = str(tmp_path / "arch")
    store = ArchiveStore(root)
    for n in range(4):
        store.put(synthetic_profile(n), _meta(n))
    assert [r.run_id for r in store.records()] == ["r0001", "r0002", "r0003", "r0004"]

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", _CHILD, root], env=env, check=True, timeout=120
    )

    # The child allocated r0005..r0010 in one group, then kept its
    # newest 2.
    assert_matches_full_scan(store)
    survivors = [r.run_id for r in store.records()]
    assert survivors == ["r0001", "r0002", "r0003", "r0004", "r0009", "r0010"]
    with pytest.raises(ArchiveError, match="no archived run matches 'r0005'"):
        store.get_record("r0005")
    assert store.put(synthetic_profile(99), _meta(99)).run_id == "r0011"
    assert_matches_full_scan(store)

"""The shared JSONL write-ahead log (``repro.ioutil``) and its callers.

The supervisor journal, the gateway ledger and the archive index all
append through :func:`repro.ioutil.append` and replay through
:func:`repro.ioutil.read`.  These tests pin the contract they share:
a torn tail never swallows the next record, every truncation point
replays to an intact prefix, newer schema headers raise each caller's
typed error, and the archive index grows by appends only.
"""

import json
import os
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ioutil
from repro.archive import ArchiveStore, fsck
from repro.errors import JournalVersionError, LedgerVersionError
from repro.faults.crash import corrupt_archive, synthetic_meta, synthetic_profile
from repro.service.ledger import LEDGER_VERSION, Ledger, load_ledger
from repro.service.model import CampaignSpec
from repro.supervisor.journal import JOURNAL_VERSION, Journal, load_journal

TORN = b'{"type":"result","cell":"x","att'  # SIGKILL mid-append


def _tear(path):
    with open(path, "ab") as handle:
        handle.write(TORN)


# ----------------------------------------------------------------------
# A record appended after a torn tail survives replay
# ----------------------------------------------------------------------
def _journal_case(tmp_path):
    journal = Journal(str(tmp_path / "journal.jsonl"))
    journal.meta(2)
    journal.start("a", 1)
    _tear(journal.path)
    journal.start("b", 1)  # the next fsync'd record, formerly glued on
    state = load_journal(journal.path)
    assert state.attempts == {"a": 1, "b": 1}
    return state.skipped_lines


def _ledger_case(tmp_path):
    spec = CampaignSpec(kind="fault", apps=("fib",), seeds=(0,)).to_dict()
    ledger = Ledger(str(tmp_path / "ledger.jsonl"))
    ledger.ensure_header()
    ledger.append({"type": "submit", "cid": "c0001", "spec": spec, "at": 1.0})
    _tear(ledger.path)
    # The acknowledged submit the torn tail used to swallow.
    ledger.append({"type": "submit", "cid": "c0002", "spec": spec, "at": 2.0})
    state = load_ledger(ledger.path)
    assert list(state.campaigns) == ["c0001", "c0002"] and not state.violations
    return state.skipped_lines


def _archive_case(tmp_path):
    store = ArchiveStore(str(tmp_path / "arch"))
    store.put(synthetic_profile(1), synthetic_meta(1))
    _tear(store.index_path)
    store.put(synthetic_profile(2), synthetic_meta(2))
    assert [r.run_id for r in store.records()] == ["r0001", "r0002"]
    return fsck(store).counts()["torn_index_line"]


@pytest.mark.parametrize(
    "case", [_journal_case, _ledger_case, _archive_case],
    ids=["journal", "ledger", "archive_index"],
)
def test_record_appended_after_torn_tail_survives_replay(tmp_path, case):
    assert case(tmp_path) == 1


# ----------------------------------------------------------------------
# Property: truncate anywhere, append once, replay the intact prefix
# ----------------------------------------------------------------------
_records = st.lists(
    st.dictionaries(
        st.text(min_size=1, max_size=4),
        st.one_of(st.integers(), st.text(max_size=6), st.none(), st.booleans()),
        max_size=3,
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(records=_records)
def test_append_after_truncation_at_every_offset_replays_intact_prefix(records):
    lines = [
        json.dumps(r, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        for r in records
    ]
    full = b"".join(lines)
    new = {"type": "new", "n": len(records)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        ioutil.append(path, *records)
        with open(path, "rb") as handle:
            assert handle.read() == full  # canonical lines, nothing else
        for offset in range(len(full) + 1):
            with open(path, "wb") as handle:
                handle.write(full[:offset])
            ioutil.append(path, new)
            torn = []
            replayed = list(ioutil.read(path, torn=torn))
            # A record survives iff its JSON text (newline or not) is whole.
            intact, end, partial = [], 0, False
            for record, line in zip(records, lines):
                end += len(line)
                if offset >= end - 1:
                    intact.append(record)
                else:
                    partial = offset > end - len(line)
                    break
            assert replayed == intact + [new]
            assert len(torn) == int(partial) <= 1


def test_torn_lines_report_their_line_numbers(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a":1}\n\nnot json\n[1,2]\n{"b":2}\n{"c"')
    torn = []
    assert list(ioutil.read(path, torn=torn)) == [{"a": 1}, {"b": 2}]
    assert torn == [(3, "not json"), (4, "[1,2]"), (6, '{"c"')]


@pytest.mark.parametrize(
    "load, version, error",
    [
        (load_journal, JOURNAL_VERSION, JournalVersionError),
        (load_ledger, LEDGER_VERSION, LedgerVersionError),
    ],
    ids=["journal", "ledger"],
)
@pytest.mark.parametrize("found", ["newer", "not_an_int"])
def test_newer_meta_header_raises_the_callers_typed_error(
    tmp_path, load, version, error, found
):
    path = str(tmp_path / "log.jsonl")
    ioutil.append(path, {"type": "meta", "version": version})
    _tear(path)
    ioutil.append(
        path, {"type": "meta", "version": version + 1 if found == "newer" else "2"}
    )
    with pytest.raises(error):
        load(path)
    torn = []
    records = list(ioutil.read(path, torn=torn))  # no header check: replays
    assert len(records) == 2 and len(torn) == 1


# ----------------------------------------------------------------------
# The archive index: put/tag append, only gc and fsck --repair rewrite
# ----------------------------------------------------------------------
def _snapshot(path):
    with open(path, "rb") as handle:
        return os.stat(path).st_ino, handle.read()


def test_put_and_tag_only_append_to_the_index(tmp_path):
    store = ArchiveStore(str(tmp_path / "arch"))
    store.put(synthetic_profile(0), synthetic_meta(0))
    inode, before = _snapshot(store.index_path)

    def assert_appended():
        nonlocal before
        now_inode, now = _snapshot(store.index_path)
        assert now_inode == inode  # never replaced by a rewrite
        assert now.startswith(before) and len(now) > len(before)
        before = now

    for serial in range(1, 4):
        store.put(synthetic_profile(serial), synthetic_meta(serial))
        assert_appended()
        store.tag(f"r{serial:04d}", "baseline")
        assert_appended()


def test_gc_and_fsck_repair_rewrite_the_index(tmp_path):
    store = ArchiveStore(str(tmp_path / "arch"))
    for serial in range(3):
        store.put(synthetic_profile(serial), synthetic_meta(serial))
    inode, _ = _snapshot(store.index_path)
    store.gc(keep_last=1)
    gc_inode, after_gc = _snapshot(store.index_path)
    assert gc_inode != inode
    assert json.loads(after_gc.splitlines()[0]) == {"type": "counter", "last_run": 3}
    corrupt_archive(store.root, "torn_index")
    assert fsck(store, repair=True).index_rewritten
    assert _snapshot(store.index_path)[0] != gc_inode
    assert fsck(store).clean


# ----------------------------------------------------------------------
# FileLock
# ----------------------------------------------------------------------
def test_file_lock_is_reentrant_and_times_out_for_other_holders(tmp_path):
    path = tmp_path / "x.lock"
    lock = ioutil.FileLock(path)
    rival = ioutil.FileLock(path, timeout=0.05)
    outcome = []

    def contend():
        try:
            with rival:
                outcome.append("acquired")
        except TimeoutError as exc:
            outcome.append(str(exc))

    with lock:
        with lock:  # nested acquire by the holder must not self-deadlock
            thread = threading.Thread(target=contend)
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
    assert len(outcome) == 1 and "within 0.05 s" in outcome[0]
    with rival:  # released on the outermost exit
        pass

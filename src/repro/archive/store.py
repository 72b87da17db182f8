"""The content-addressed profile store.

Layout of an archive directory::

    <root>/
      objects/<aa>/<sha256>.json.gz   # gzip'd canonical profile JSON
      index.jsonl                     # append-only run/tag records
      index.lock                      # advisory lock for index writes

**Objects** are immutable and keyed by the sha256 of the *canonical*
profile JSON (sorted keys, compact separators), so re-archiving an
identical profile is free: byte-identical content maps to the same key
and the existing object is reused.  The gzip header is written with a
zeroed mtime, making the object file itself a pure function of the
profile content.

**The index** is an append-only JSONL log under the contract of
:mod:`repro.ioutil`: ``put`` and ``tag`` each append one fsync'd record
while holding an advisory lock on ``index.lock``, so concurrent
supervisor workers archiving cells in parallel serialize cleanly and
never allocate the same run id.  A crash mid-append costs at most one
torn final line, which loading skips the same way the supervisor
journal does: corruption never makes the archive refuse to answer, the
worst case is a missing record.  Only :meth:`ArchiveStore.gc` and
``fsck --repair`` rewrite the whole index.

**The index view.**  Each :class:`ArchiveStore` keeps one incremental
view of ``index.jsonl``: the byte offset it has consumed, the last line
it consumed, ``run_id -> ArchiveRecord`` and the run-id high-water
mark.  Every read -- and ``put``, under the lock -- first checks that
the index is still the file the view holds open and still carries the
last consumed line just before the offset (which also fails when the
file shrank below the offset).  If so, only the appended bytes are
parsed (another process's appends included); otherwise the view
rescans from byte 0.  Holding the file open makes the identity check
sound: a rewritten index can never be given the inode number the view
is still reading.  Only
newline-terminated lines advance the offset (:func:`repro.ioutil.scan`);
an unterminated tail is parsed on every call and never cached, so a
complete last record lacking its newline is still returned and a torn
fragment is skipped, exactly as :func:`repro.ioutil.read` treats both,
until the next append seals it.  Records handed out are never mutated:
a ``tag`` line replaces its run's record in the view.  ``put`` only
needs the high-water mark, so a store that has not been asked for
records yet tracks the mark alone, and a fresh process (a supervisor
worker) pays one scan of the index, without building records, on its
first ``put``.

Record types::

    {"type":"run","run_id":"r0001","sha256":...,"created":...,"meta":{...}}
    {"type":"tag","run_id":"r0001","tag":"baseline"}
    {"type":"counter","last_run":7}   # id high-water mark left by gc

Run ids are allocated monotonically: the next id is one past the
highest serial ever recorded, counting every raw ``run`` line plus the
``counter`` high-water record :meth:`ArchiveStore.gc` writes when it
prunes the index.  Pruned ids are therefore never reused -- a run id
keeps naming the same run for the archive's whole life.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import ioutil
from repro.cube.export import profile_from_dict, profile_to_dict
from repro.errors import ArchiveError, ArchiveLockTimeout
from repro.archive.meta import RunMeta

INDEX_NAME = "index.jsonl"
OBJECTS_DIR = "objects"
QUARANTINE_DIR = "quarantine"
GZIP_MAGIC = b"\x1f\x8b"


def _canonical_bytes(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_profile_bytes(profile) -> bytes:
    """The canonical serialized form content addresses are computed on."""
    return _canonical_bytes(profile_to_dict(profile))


def dict_content_hash(data: dict) -> str:
    """The content address of an exported profile dict."""
    return hashlib.sha256(_canonical_bytes(data)).hexdigest()


def content_hash(profile) -> str:
    return dict_content_hash(profile_to_dict(profile))


def run_serial(entry: dict) -> int:
    """The run-id serial an index entry accounts for (0 if none): 7 for
    run ``r0007``, ``last_run`` for the ``counter`` record gc leaves."""
    run_id = entry.get("run_id")
    if entry.get("type") == "counter":
        value = entry.get("last_run", 0)
    elif entry.get("type") == "run" and isinstance(run_id, str) and run_id[:1] == "r":
        value = run_id[1:]
    else:
        return 0
    try:
        return int(value)
    except (TypeError, ValueError):
        return 0


@dataclass
class ArchiveRecord:
    """One ``run`` record of the index, with its tags folded in."""

    run_id: str
    sha256: str
    created: float
    meta: RunMeta
    #: True when ``put`` found the object already present (same content)
    deduplicated: bool = False
    extra_tags: List[str] = field(default_factory=list)

    @property
    def tags(self) -> List[str]:
        seen = list(self.meta.tags)
        for tag in self.extra_tags:
            if tag not in seen:
                seen.append(tag)
        return seen

    def to_dict(self) -> dict:
        return {
            "type": "run",
            "run_id": self.run_id,
            "sha256": self.sha256,
            "created": self.created,
            "meta": self.meta.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArchiveRecord":
        return cls(
            run_id=data["run_id"],
            sha256=data["sha256"],
            created=float(data.get("created", 0.0)),
            meta=RunMeta.from_dict(data.get("meta") or {}),
        )


def _fold(records: Dict[str, ArchiveRecord], entry: dict) -> None:
    """Apply one index entry to ``run_id -> record``.

    A ``tag`` replaces its run's record rather than mutating it, so a
    record once handed out never changes.
    """
    kind = entry.get("type")
    if kind == "run":
        try:
            record = ArchiveRecord.from_dict(entry)
        except (KeyError, TypeError, ValueError):
            return
        records[record.run_id] = record
    elif kind == "tag":
        run_id = entry.get("run_id")
        record = records.get(run_id)
        tag = entry.get("tag")
        if record is not None and tag and tag not in record.extra_tags:
            records[run_id] = dataclasses.replace(
                record, extra_tags=record.extra_tags + [tag]
            )


class _IndexView:
    """One store's incremental view of ``index.jsonl`` (module docstring)."""

    def __init__(self, path: str):
        self.path = path
        self._mutex = threading.Lock()
        self._fd: Optional[int] = None
        self._close: Optional[weakref.finalize] = None
        #: (st_dev, st_ino, pid) of the open index; a forked child reopens
        self._identity: Optional[tuple] = None
        self._reset(build=False)

    def _reset(self, build: bool) -> None:
        self._offset = 0
        self._last = b""
        self._serial = 0
        self._records: Optional[Dict[str, ArchiveRecord]] = {} if build else None

    def _attach(self, build: bool) -> bool:
        """(Re)open the index and start over from byte 0."""
        if self._close is not None:
            self._close()
            self._fd = self._close = self._identity = None
        self._reset(build)
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            return False
        stat = os.fstat(fd)
        self._fd = fd
        self._close = weakref.finalize(self, os.close, fd)
        self._identity = (stat.st_dev, stat.st_ino, os.getpid())
        return True

    def _refresh(self, build: bool) -> Optional[dict]:
        """Consume the complete lines appended since the last call.

        With ``build`` (or once records exist) runs are folded into
        records; otherwise only the high-water mark is kept.  Returns
        the unterminated last line's record, which is not consumed.
        """
        build = build or self._records is not None
        if build and self._records is None:
            self._reset(build)
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            stat = None
        if stat is None or self._identity != (stat.st_dev, stat.st_ino, os.getpid()):
            if not self._attach(build):
                return None
        elif (
            os.pread(self._fd, len(self._last), self._offset - len(self._last))
            != self._last
        ):
            # Rewritten in place, or shrunk below the offset: a read
            # past the end comes back short.
            self._reset(build)
        elif stat.st_size == self._offset:
            return None
        tail = None
        with open(self._fd, "rb", closefd=False) as handle:
            for end, raw, entry in ioutil.scan(handle, self._offset):
                if not raw.endswith(b"\n"):
                    tail = entry
                    break
                self._offset, self._last = end, raw
                if entry is None:
                    continue
                serial = run_serial(entry)
                if serial > self._serial:
                    self._serial = serial
                if build:
                    _fold(self._records, entry)
        return tail

    def records(self) -> List[ArchiveRecord]:
        """The current index's run records, oldest first."""
        with self._mutex:
            tail = self._refresh(build=True)
            if tail is None:
                return list(self._records.values())
            records = dict(self._records)
        _fold(records, tail)
        return list(records.values())

    def get(self, run_id: str) -> Optional[ArchiveRecord]:
        """The current record of ``run_id``, or None."""
        with self._mutex:
            tail = self._refresh(build=True)
            record = self._records.get(run_id)
        if tail is not None and tail.get("run_id") == run_id:
            single = {} if record is None else {run_id: record}
            _fold(single, tail)
            record = single.get(run_id)
        return record

    def serial(self) -> int:
        """The highest run-id serial the index has ever allocated."""
        with self._mutex:
            tail = self._refresh(build=False)
            serial = self._serial
        return serial if tail is None else max(serial, run_serial(tail))


@dataclass
class GcStats:
    """What one :meth:`ArchiveStore.gc` pass removed."""

    runs_dropped: int = 0
    objects_deleted: int = 0
    bytes_freed: int = 0
    #: unreferenced objects that could not be unlinked (OSError); they
    #: stay on disk as garbage a later gc pass can re-collect
    objects_failed: int = 0


class ArchiveStore:
    """A content-addressed archive rooted at one directory.

    ``lock_timeout_s`` bounds how long any index mutation will wait for
    the advisory index lock; past it, :class:`~repro.errors.ArchiveLockTimeout`
    is raised instead of blocking forever.  The default (None) blocks
    indefinitely, and is what every caller in this package uses.  A
    caller working under a time-limited lease can set it below the
    lease TTL, so a wedged lock holder surfaces as a structured error
    rather than as a silently forfeited lease.
    """

    def __init__(self, root: str, *, lock_timeout_s: Optional[float] = None):
        self.root = os.fspath(root)
        if lock_timeout_s is not None and lock_timeout_s <= 0:
            raise ValueError(
                f"lock_timeout_s must be positive, got {lock_timeout_s!r}"
            )
        self.lock_timeout_s = lock_timeout_s
        self._lock = ioutil.FileLock(
            os.path.join(self.root, "index.lock"),
            timeout=lock_timeout_s,
            error=ArchiveLockTimeout,
        )
        self._view = _IndexView(self.index_path)

    # -- paths ---------------------------------------------------------
    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_NAME)

    def object_path(self, sha256: str) -> str:
        return os.path.join(self.root, OBJECTS_DIR, sha256[:2], sha256 + ".json.gz")

    # -- locking -------------------------------------------------------
    def _locked(self) -> ioutil.FileLock:
        """The advisory exclusive lock serializing index writes."""
        os.makedirs(self.root, exist_ok=True)
        return self._lock

    # -- objects -------------------------------------------------------
    @staticmethod
    def _object_intact(path: str) -> bool:
        """Cheap on-disk sanity: the file starts with the gzip magic.

        A bare ``os.path.exists`` would happily trust a zero-byte or
        truncated-header file (the residue of a crash on a filesystem
        without atomic rename, or of outside interference) and make
        ``put`` dedup against garbage forever.  Reading two bytes rules
        out the empty/torn-header cases; full payload verification
        (decompress + sha256) stays in :meth:`load_object` and
        :func:`~repro.archive.fsck.fsck`, which are the paths that pay
        for reading the whole blob anyway.
        """
        try:
            with open(path, "rb") as handle:
                return handle.read(2) == GZIP_MAGIC
        except OSError:
            return False

    def put_object(self, profile) -> tuple:
        """Store the profile blob; returns ``(sha256, created)``.

        ``created`` is False when an intact object with this content
        already exists -- the content-addressed deduplication path.  An
        existing but non-intact file (empty, truncated header) is
        rewritten rather than trusted.
        """
        payload = canonical_profile_bytes(profile)
        sha256 = hashlib.sha256(payload).hexdigest()
        path = self.object_path(sha256)
        if os.path.exists(path) and self._object_intact(path):
            return sha256, False
        # mtime=0 keeps the compressed object a pure function of content.
        blob = gzip.compress(payload, mtime=0)
        ioutil.atomic_write(path, blob)
        return sha256, True

    def has_object(self, sha256: str) -> bool:
        path = self.object_path(sha256)
        return os.path.exists(path) and self._object_intact(path)

    def load_object(self, sha256: str):
        """Load and verify one object back into a ``Profile``.

        Raises :class:`ArchiveError` when the object is missing or its
        bytes no longer hash to their name;
        :class:`~repro.errors.ProfileFormatError` propagates untouched
        when the entry was written by an incompatible format version.
        """
        path = self.object_path(sha256)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            raise ArchiveError(
                f"archive object {sha256[:12]}… is missing from {self.root!r} "
                f"(was it gc'd or the directory pruned?)"
            ) from None
        try:
            payload = gzip.decompress(blob)
        except OSError as exc:
            raise ArchiveError(
                f"archive object {sha256[:12]}… is not valid gzip: {exc}"
            ) from exc
        actual = hashlib.sha256(payload).hexdigest()
        if actual != sha256:
            raise ArchiveError(
                f"archive object {sha256[:12]}… fails verification: content "
                f"hashes to {actual[:12]}… (on-disk corruption)"
            )
        return profile_from_dict(json.loads(payload.decode("utf-8")))

    # -- index ---------------------------------------------------------
    def records(self) -> List[ArchiveRecord]:
        """All run records, oldest first, with ``tag`` records folded in.

        The records are shared with this store's index view and are
        never mutated afterwards; callers must not mutate them either.
        """
        return self._view.records()

    def _max_run_serial(self) -> int:
        """The highest run-id serial the index has ever allocated.

        Counts every raw ``run`` line (not the deduplicated
        :meth:`records` view, which keeps one entry per id) and any
        ``counter`` high-water records gc leaves behind when it prunes,
        so ids stay monotonic even after the records that carried them
        are gone from the index.
        """
        return self._view.serial()

    def get_record(self, ref: str) -> ArchiveRecord:
        """Resolve a run id, full hash, or unambiguous hash prefix."""
        record = self._view.get(ref)
        if record is not None:
            return record
        records = self.records()
        if len(ref) >= 6:
            matches = [r for r in records if r.sha256.startswith(ref)]
            unique_shas = {r.sha256 for r in matches}
            if len(unique_shas) == 1:
                return matches[-1]
            if len(unique_shas) > 1:
                raise ArchiveError(
                    f"hash prefix {ref!r} is ambiguous "
                    f"({len(unique_shas)} distinct objects match)"
                )
        known = ", ".join(r.run_id for r in records[-8:]) or "none archived yet"
        raise ArchiveError(
            f"no archived run matches {ref!r} (recent run ids: {known})"
        )

    # -- high-level API ------------------------------------------------
    def put(self, profile, meta: RunMeta) -> ArchiveRecord:
        """Archive one run: store the blob, append an index record.

        Both the object write and the index append happen under the
        index lock, so a concurrent :meth:`gc` can never observe the
        fresh object before its record exists and delete it as an
        orphan.  Objects are small (gzip'd profile JSON); holding the
        lock across the write is cheap.
        """
        with self._locked():
            sha256, created = self.put_object(profile)
            record = ArchiveRecord(
                run_id=f"r{self._max_run_serial() + 1:04d}",
                sha256=sha256,
                created=time.time(),
                meta=meta,
                deduplicated=not created,
            )
            ioutil.append(self.index_path, record.to_dict())
        return record

    def load_profile(self, ref: str):
        return self.load_object(self.get_record(ref).sha256)

    def tag(self, ref: str, tag: str) -> ArchiveRecord:
        """Append a tag to an existing run record."""
        if not tag:
            raise ArchiveError("tag must be a non-empty string")
        with self._locked():
            record = self.get_record(ref)
            if tag not in record.tags:
                ioutil.append(
                    self.index_path,
                    {"type": "tag", "run_id": record.run_id, "tag": tag},
                )
                record = dataclasses.replace(
                    record, extra_tags=record.extra_tags + [tag]
                )
        return record

    def gc(self, keep_last: Optional[int] = None) -> GcStats:
        """Prune the archive.

        With ``keep_last=N``, only the newest N runs of each
        configuration group (:meth:`RunMeta.group_key`) survive in the
        index.  Objects no longer referenced by any surviving record --
        including orphans from runs that crashed between the object
        write and the index append -- are deleted.
        """
        stats = GcStats()
        with self._locked():
            records = self.records()
            keep = records
            if keep_last is not None:
                if keep_last < 1:
                    raise ArchiveError(f"keep_last must be >= 1, got {keep_last}")
                by_group: Dict[tuple, List[ArchiveRecord]] = {}
                for record in records:
                    by_group.setdefault(record.meta.group_key(), []).append(record)
                survivors = set()
                for group in by_group.values():
                    survivors.update(id(r) for r in group[-keep_last:])
                keep = [r for r in records if id(r) in survivors]
                stats.runs_dropped = len(records) - len(keep)
                # Preserve the id high-water mark across the rewrite so
                # ids of pruned runs are never handed out again.  The
                # index -- counter record first -- is written *before*
                # any object is deleted: an OSError (ENOSPC, permissions)
                # mid-prune then leaves a consistent index whose
                # surviving records all still have their objects;
                # undeleted garbage is re-collectable by a later gc.
                entries: List[dict] = [
                    {"type": "counter", "last_run": self._max_run_serial()}
                ]
                for record in keep:
                    entries.append(record.to_dict())
                    for tag in record.extra_tags:
                        entries.append(
                            {"type": "tag", "run_id": record.run_id, "tag": tag}
                        )
                ioutil.rewrite(self.index_path, entries)
            referenced = {record.sha256 for record in keep}
            objects_root = os.path.join(self.root, OBJECTS_DIR)
            for dirpath, _dirnames, filenames in os.walk(objects_root):
                for filename in filenames:
                    if not filename.endswith(".json.gz"):
                        continue
                    sha256 = filename[: -len(".json.gz")]
                    if sha256 in referenced:
                        continue
                    path = os.path.join(dirpath, filename)
                    try:
                        size = os.path.getsize(path)
                        os.unlink(path)
                    except OSError:
                        # Racing deletion or a failing filesystem: skip
                        # the object (and its stats -- only what was
                        # actually unlinked is counted) and keep pruning.
                        stats.objects_failed += 1
                        continue
                    stats.bytes_freed += size
                    stats.objects_deleted += 1
        return stats

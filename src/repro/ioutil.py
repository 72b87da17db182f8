"""Crash-safe filesystem helpers.

**Whole files** -- exported profiles, reports, supervisor summaries,
archive objects -- go through :func:`atomic_write`, so an interrupted
process (Ctrl-C, SIGKILL, power loss) can never leave a truncated or
half-written file where a previous good one stood: the new content is
staged in a temporary file in the *same directory* (same filesystem, so
the rename is atomic) and moved into place with ``os.replace`` only
after it has been flushed and fsync'd.

**Append-only JSONL logs** -- the supervisor journal, the gateway
ledger and the archive index -- share one write-ahead contract.
:func:`append` writes canonical JSON lines (sorted keys, compact
separators) in one ``O_APPEND`` write and fsyncs before returning, so
a SIGKILL mid-append costs at most one torn final line, and the next
append starts on a fresh line so the fragment never swallows it.
:func:`read` replays a log lazily, skipping and reporting torn lines;
the one refusal is a ``meta`` header from a newer schema version, which
raises the caller's typed error.  :class:`FileLock` serializes
multi-writer logs; :func:`rewrite` replaces a whole log through
:func:`atomic_write` and is reserved for compaction and repair (archive
``gc`` and ``fsck --repair``).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Iterable, Iterator, List, Optional, Tuple, Type, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None


def fsync_directory(directory: Union[str, os.PathLike]) -> None:
    """Flush a directory entry so a completed rename survives a crash.

    Best-effort: some filesystems (and all of Windows) refuse to fsync a
    directory handle; that only weakens durability, not atomicity.
    """
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: Union[str, os.PathLike],
    data: Union[str, bytes],
    *,
    encoding: str = "utf-8",
    durable: bool = True,
) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    Readers never observe a partial file: they see either the previous
    content or the complete new content.  On any failure the temporary
    file is removed and the original file is left untouched.

    ``durable=True`` additionally fsyncs the file (and its directory)
    before/after the rename so the write survives power loss, not just
    process death.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        mode = "wb" if isinstance(data, bytes) else "w"
        kwargs = {} if isinstance(data, bytes) else {"encoding": encoding}
        with os.fdopen(fd, mode, **kwargs) as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(directory)


# ----------------------------------------------------------------------
# Append-only JSONL logs (contract in the module docstring)
# ----------------------------------------------------------------------
def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def append(path: Union[str, os.PathLike], *records: dict) -> None:
    """Durably append ``records`` to the log at ``path`` (created if absent).

    One ``os.write`` (looped only on a short write), then fsync.  A file
    not ending in a newline has a torn tail; a newline is written first
    so the fragment stays its own skipped line.
    """
    data = "".join(_line(record) for record in records).encode("utf-8")
    fd = os.open(os.fspath(path), os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        if os.lseek(fd, 0, os.SEEK_END) > 0:
            os.lseek(fd, -1, os.SEEK_END)
            if os.read(fd, 1) != b"\n":
                data = b"\n" + data
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


def read(
    path: Union[str, os.PathLike],
    header: Optional[Tuple[int, Type[Exception]]] = None,
    torn: Optional[List[Tuple[int, str]]] = None,
) -> Iterator[dict]:
    """Replay a log, yielding its records one line at a time.

    A missing file is an empty log and blank lines are ignored.  Each
    torn line is skipped and, when a ``torn`` list is given, appended to
    it as ``(line number, text)``.  With ``header=(VERSION, error)``, a
    ``meta`` record whose ``version`` is not an int or exceeds
    ``VERSION`` raises ``error(found, VERSION)``.
    """
    try:
        handle = open(path, encoding="utf-8", errors="replace", newline="\n")
    except FileNotFoundError:
        return
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not isinstance(record, dict):
                if torn is not None:
                    torn.append((lineno, line))
                continue
            if header is not None and record.get("type") == "meta":
                supported, error = header
                found = record.get("version")
                if not isinstance(found, int) or found > supported:
                    raise error(found, supported)
            yield record


def rewrite(path: Union[str, os.PathLike], records: Iterable[dict]) -> None:
    """Replace the whole log with ``records`` via :func:`atomic_write`."""
    atomic_write(path, "".join(_line(record) for record in records))


class FileLock:
    """Re-entrant exclusive ``flock`` on a sidecar file; a context manager.

    An RLock serializes this process's threads and lets the holding
    thread nest without a second flock, which would block against its
    own first one.  Past ``timeout`` seconds a waiter raises
    ``error(message)``.  Without ``fcntl`` (Windows) only threads
    serialize.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        timeout: Optional[float] = None,
        error: Type[Exception] = TimeoutError,
    ):
        self.path = os.fspath(path)
        self.timeout = timeout
        self.error = error
        self._tlock = threading.RLock()
        self._depth = 0
        self._handle = None

    def __enter__(self) -> "FileLock":
        wait = -1 if self.timeout is None else self.timeout
        deadline = time.monotonic() + wait
        if not self._tlock.acquire(timeout=wait):
            raise self._timed_out()
        if self._depth == 0:
            try:
                self._handle = self._flock(deadline)
            except BaseException:
                self._tlock.release()
                raise
        self._depth += 1
        return self

    def __exit__(self, *_exc) -> None:
        self._depth -= 1
        if self._depth == 0:
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
        self._tlock.release()

    def _flock(self, deadline: float):
        handle = open(self.path, "a+")
        if fcntl is None:  # pragma: no cover - non-POSIX
            return handle
        flags = fcntl.LOCK_EX | (0 if self.timeout is None else fcntl.LOCK_NB)
        try:
            while True:
                try:
                    fcntl.flock(handle.fileno(), flags)
                    return handle
                except (BlockingIOError, PermissionError):
                    # Only a non-blocking attempt lands here: EWOULDBLOCK
                    # is retried until the deadline, any other errno is a
                    # real filesystem failure and propagates.
                    if time.monotonic() >= deadline:
                        raise self._timed_out() from None
                    time.sleep(min(0.01, self.timeout / 20.0))
        except BaseException:
            handle.close()
            raise

    def _timed_out(self) -> Exception:
        return self.error(
            f"could not acquire the lock at {self.path!r} within "
            f"{self.timeout:g} s (held by a concurrent writer?)"
        )

"""The one append-only JSONL store behind ``runs.jsonl``, ``jobs.jsonl``
and ``audit.jsonl``: one ``json.dumps(data, sort_keys=True)`` object per
line.

:class:`JsonlStore` owns the cross-process :func:`registry_lock` (always
taken before its thread lock), the locked append, the decoded rows
cached against the file's ``(mtime_ns, size)`` and extended by its own
appends, the loader, and the write-aside-and-rename rewrite compaction
uses. Its views decide what a row is and which rows a compaction keeps.

Torn tails: a final line without its newline that does not parse is a
write cut short. The loader skips it with one warning naming the file
and the bytes skipped; the next locked append truncates it first, so a
valid record is never glued onto it. A malformed line that ends in a
newline was written whole and stays a loud error.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import ReproError
from repro.obs.log import get_logger

__all__ = ["JsonlStore", "file_stamp", "registry_lock", "short_digest"]

_log = get_logger(__name__)


def short_digest(text: str) -> str:
    """The 16-hex-digit sha256 prefix records carry as a content
    digest: report, coverage matrix and profile digests."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@contextmanager
def registry_lock(root: Union[str, Path]) -> Iterator[None]:
    """An exclusive cross-process lock on a registry directory.

    Appenders (a serve daemon recording runs, job executors persisting
    transitions) and compactors (``sosae runs/jobs compact``) both take
    it, so a compaction's read-rewrite-rename cannot interleave with a
    concurrent append and drop the appended line. Advisory ``flock`` on
    a sidecar ``.lock`` file; a no-op where ``fcntl`` is unavailable."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    handle = (root / ".lock").open("a+", encoding="utf-8")
    try:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX)
        yield
    finally:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_UN)
        handle.close()


def file_stamp(path: Path) -> Optional[tuple[int, int]]:
    """A file's ``(mtime_ns, size)``, or ``None`` when it is absent."""
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


def _parses(text: Union[str, bytes]) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


class JsonlStore:
    """Rows that ``decode`` builds from each line's JSON object."""

    def __init__(self, path: Union[str, Path], decode: Callable) -> None:
        self.path = Path(path)
        self._decode = decode
        self._lock = threading.Lock()
        self._rows: Optional[tuple] = None
        self._stamp: Optional[tuple[int, int]] = None

    def rows(self) -> tuple:
        """Every row, oldest first."""
        with self._lock:
            return self._fresh_rows()

    def append(self, data: Union[dict, Callable[[tuple], dict]]) -> Any:
        """Append ``data``, or ``data(rows)`` called under the lock with
        rows that include every process's appends. Returns the decoded
        row, or ``None`` when this instance holds no rows to extend."""
        with registry_lock(self.path.parent), self._lock:
            if callable(data):
                data = data(self._fresh_rows())
            elif file_stamp(self.path) != self._stamp:
                self._rows = None  # another process wrote; reload on read
            with self.path.open("a+b") as handle:
                self._mend_tail(handle)
                handle.write(json.dumps(data, sort_keys=True).encode() + b"\n")
            if self._rows is None:
                return None
            row = self._decode(data)
            self._rows += (row,)
            self._stamp = file_stamp(self.path)
            return row

    def rewrite(
        self,
        select: Callable[[tuple], Iterable[int]],
        then: Optional[Callable[[tuple], None]] = None,
    ) -> tuple[tuple, tuple]:
        """Keep the rows at the indices ``select(rows)`` returns, under
        the lock; if any is dropped, the kept lines are written verbatim
        to a ``.tmp`` sibling renamed over the store. ``then(kept)``
        runs last, still under the lock. Returns ``(kept, dropped)``
        rows."""
        with registry_lock(self.path.parent), self._lock:
            lines, rows = self._read()
            keep = set(select(rows))
            kept = tuple(r for i, r in enumerate(rows) if i in keep)
            dropped = tuple(r for i, r in enumerate(rows) if i not in keep)
            if dropped:
                staging = self.path.with_name(self.path.name + ".tmp")
                staging.write_text(
                    "".join(lines[i] + "\n" for i in sorted(keep)),
                    encoding="utf-8",
                )
                staging.replace(self.path)
            self._rows, self._stamp = kept, file_stamp(self.path)
            if then is not None:
                then(kept)
            return kept, dropped

    def _fresh_rows(self) -> tuple:
        # Stamp before reading: an append landing in between costs one
        # extra reload, never a line the cache misses.
        stamp = file_stamp(self.path)
        if self._rows is None or stamp != self._stamp:
            self._rows, self._stamp = self._read()[1], stamp
        return self._rows

    def _read(self) -> tuple[list[str], tuple]:
        """The non-blank lines and their rows, minus a torn tail."""
        try:
            lines = self.path.read_text(encoding="utf-8").split("\n")
        except FileNotFoundError:
            return [], ()
        if lines[-1].strip() and not _parses(lines[-1]):
            torn = lines.pop()
            _log.warning(
                "%s: skipped a torn final line (%d bytes, no newline)",
                self.path,
                len(torn.encode()),
            )
        kept, rows = [], []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                rows.append(self._decode(json.loads(line)))
            except (ValueError, KeyError, TypeError, AttributeError) as err:
                raise ReproError(
                    f"{self.path} line {number} is not a valid record: "
                    f"{err}"
                ) from None
            kept.append(line)
        return kept, tuple(rows)

    def _mend_tail(self, handle) -> None:
        """End the file on a newline: a final line that parses only
        lost its newline; one that does not is torn, and truncated."""
        handle.seek(max(0, handle.seek(0, os.SEEK_END) - 1))
        if handle.read(1) in (b"", b"\n"):
            return
        handle.seek(0)
        content = handle.read()
        start = content.rfind(b"\n") + 1
        if _parses(content[start:]):
            handle.write(b"\n")
            return
        _log.warning(
            "%s: truncated a torn final line (%d bytes) before appending",
            self.path,
            len(content) - start,
        )
        handle.truncate(start)

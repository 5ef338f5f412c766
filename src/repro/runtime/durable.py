"""Durable on-disk state: atomic writes and the write-ahead journal.

Batch sweeps and fault campaigns used to die with their process.  This
module is the crash-safety layer underneath both:

:func:`atomic_write_text`
    Atomic durable file replacement (temp file → flush → fsync →
    ``os.replace`` → fsync of the parent directory); the result cache
    writes its entries this way.
:class:`Journal`
    An append-only JSONL write-ahead log, fsynced per record, each
    record carrying its own integrity digest.  :func:`read_journal`
    recovers from a crash by truncating a torn tail — and refuses to
    guess when corruption appears *before* the tail, which append-only
    writing cannot produce.

The durability discipline is the standard one (fsync the data, replace
atomically, fsync the directory so the rename itself is durable); see
e.g. the crash-consistency literature around rename-based commits.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import IO, Any, Iterator, Mapping

from ..errors import PersistenceError
from .jobs import canonical_json

JOURNAL_FORMAT = 1

#: Length of the per-record integrity digest in journal lines.
_RECORD_DIGEST_HEX = 16


# ---------------------------------------------------------------------------
# durable filesystem primitives
# ---------------------------------------------------------------------------
def fsync_directory(path: Path) -> None:
    """fsync a directory so a just-committed rename survives power loss.

    Platforms without ``O_DIRECTORY`` semantics (or filesystems that
    refuse to open directories) degrade gracefully — the rename is still
    atomic against process death, just not against power failure.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific degradation
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific degradation
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Path, text: str, *, encoding: str = "utf-8",
                      durable: bool = True) -> None:
    """Write ``text`` to ``path`` atomically; optionally durably.

    The temp file lives in the target's directory so ``os.replace`` is a
    same-filesystem rename.  With ``durable=True`` the file contents are
    fsynced before the rename and the directory after it, so the entry
    survives power loss — not merely process kill.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(path.parent)


# ---------------------------------------------------------------------------
# the write-ahead journal
# ---------------------------------------------------------------------------
def _record_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[
        :_RECORD_DIGEST_HEX]


class Journal:
    """Append-only JSONL write-ahead log with per-record integrity.

    Each line is ``{"v": 1, "sha": <digest>, "rec": {...}}`` — the
    digest covers the canonical encoding of ``rec``, so a torn or
    bit-rotted line is detectable in isolation.  :meth:`append` flushes
    and fsyncs per record: once it returns, the record survives the
    process (and, on a journalling filesystem, power loss).

    Open with ``fresh=True`` to truncate and start a new log, or
    ``fresh=False`` to extend an existing one (the resume path).

    :meth:`append` is thread-safe: concurrent writers sharing one
    journal serialise on an internal lock, so records never interleave
    mid-line.
    """

    def __init__(self, path: str | os.PathLike, *, fresh: bool = False,
                 durable: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        self.records_written = 0
        self._lock = threading.Lock()
        mode = "w" if fresh else "a"
        self._handle: IO[str] | None = open(self.path, mode,
                                            encoding="utf-8")
        if fresh and durable:
            fsync_directory(self.path.parent)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    @property
    def closed(self) -> bool:
        return self._handle is None

    # ------------------------------------------------------------------
    def append(self, record: Mapping[str, Any]) -> None:
        """Durably append one record (flushed and fsynced before return)."""
        payload = canonical_json(dict(record))
        line = canonical_json({"v": JOURNAL_FORMAT,
                               "sha": _record_digest(payload),
                               "rec": json.loads(payload)})
        with self._lock:
            if self._handle is None:
                raise PersistenceError(
                    f"journal {self.path} is closed; cannot append")
            self._handle.write(line + "\n")
            self._handle.flush()
            if self.durable:
                os.fsync(self._handle.fileno())
            self.records_written += 1


def _parse_journal_line(line: str) -> dict[str, Any] | None:
    """One journal line → its record, or ``None`` when unverifiable."""
    try:
        envelope = json.loads(line)
    except ValueError:
        return None
    if (not isinstance(envelope, dict)
            or envelope.get("v") != JOURNAL_FORMAT
            or "rec" not in envelope):
        return None
    payload = canonical_json(envelope["rec"])
    if envelope.get("sha") != _record_digest(payload):
        return None
    return envelope["rec"]


def read_journal(path: str | os.PathLike, *,
                 repair: bool = True) -> list[dict[str, Any]]:
    """Recovery scan: the journal's intact records, oldest first.

    A process killed mid-``write`` leaves at most a *torn tail* — one
    damaged region extending to end-of-file.  The scan accepts that and
    (with ``repair=True``) truncates the file back to its last intact
    record, so subsequent appends continue a clean log.  Damage *before*
    the tail — intact records following broken ones — cannot result from
    append-only writing and raises
    :class:`~repro.errors.PersistenceError` instead of silently dropping
    committed records.

    A missing file is an empty journal, not an error.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return []
    records: list[dict[str, Any]] = []
    good_bytes = 0
    torn = False
    offset = 0
    for line in raw.splitlines(keepends=True):
        stripped = line.strip()
        offset += len(line.encode("utf-8"))
        if not stripped:
            continue
        record = _parse_journal_line(stripped)
        if record is None:
            torn = True
            continue
        if torn:
            raise PersistenceError(
                f"journal {path} has intact records after a corrupt one — "
                f"mid-file damage, not a torn tail; refusing to repair")
        records.append(record)
        good_bytes = offset
    if torn and repair:
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(good_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    return records


# ---------------------------------------------------------------------------
# convenience: journal record constructors shared by engine and campaign
# ---------------------------------------------------------------------------
def dispatch_record(key: str, attempt: int) -> dict[str, Any]:
    """A job attempt is about to be handed to a worker."""
    return {"type": "dispatch", "key": key, "attempt": attempt}


def settle_record(key: str, status: str, *, error: str = "",
                  payload: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """A job reached a final status (``ok``/``cached``/``failed``/…)."""
    record: dict[str, Any] = {"type": "settle", "key": key, "status": status}
    if error:
        record["error"] = error
    if payload is not None:
        record["payload"] = dict(payload)
    return record


def iter_settled(records: Mapping[str, Any] | list[dict[str, Any]]
                 ) -> Iterator[tuple[str, dict[str, Any]]]:
    """Yield ``(key, record)`` for every settle record, latest wins order."""
    for record in records:
        if isinstance(record, dict) and record.get("type") == "settle":
            yield record["key"], record

"""Durable on-disk state: checkpoint snapshots and the write-ahead journal.

Everything long-running in this library — deep :meth:`Simulator.run
<repro.semantics.simulator.Simulator.run>` traces, batch sweeps, fault
campaigns — used to die with its process.  This module is the
crash-safety layer underneath all of them:

:func:`checkpoint_to_dict` / :func:`checkpoint_from_dict`
    A versioned, JSON-safe serialisation of
    :class:`~repro.semantics.simulator.Checkpoint` — marking, sequential
    state (UNDEF encoded losslessly), open activations, event indices,
    environment cursors, and the firing policy's RNG stream position.
:class:`CheckpointStore`
    Rotating on-disk snapshots with **atomic durable writes** (temp file
    → flush → fsync → ``os.replace`` → fsync of the parent directory)
    and **corruption detection**: every snapshot carries a SHA-256 of
    its body, and :meth:`CheckpointStore.load_latest` silently falls
    back to the newest *intact* snapshot when the latest one is torn.
:class:`CheckpointHook`
    A :class:`~repro.semantics.simulator.SimHook` that persists a
    snapshot every N steps, so ``repro simulate --checkpoint-every``
    (and any embedding caller) can resume across process restarts with
    byte-identical traces.
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

from ..datapath.ports import PortId
from ..errors import DefinitionError, PersistenceError
from ..petri.marking import Marking
from ..semantics.simulator import Checkpoint, SimHook
from ..semantics.values import UNDEF, Value
from .jobs import canonical_json

CHECKPOINT_FORMAT = 1
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
# checkpoint serialisation
# ---------------------------------------------------------------------------
def _encode_value(value: Value) -> Any:
    """JSON encoding of one simulation value (UNDEF becomes ``null``)."""
    return None if value is UNDEF else value


def _decode_value(encoded: Any) -> Value:
    return UNDEF if encoded is None else encoded


def _encode_rng_state(state: Any) -> Any:
    """``random.Random.getstate()`` tuples → JSON lists (recursively)."""
    if isinstance(state, tuple):
        return [_encode_rng_state(item) for item in state]
    return state


def _decode_rng_state(encoded: Any) -> Any:
    """Inverse of :func:`_encode_rng_state` (``setstate`` needs tuples)."""
    if isinstance(encoded, list):
        return tuple(_decode_rng_state(item) for item in encoded)
    return encoded


def checkpoint_to_dict(checkpoint: Checkpoint) -> dict[str, Any]:
    """Serialise a :class:`Checkpoint` to a JSON-safe, versioned dict."""
    return {
        "format": CHECKPOINT_FORMAT,
        "step": checkpoint.step,
        "marking": {place: count
                    for place, count in sorted(checkpoint.marking.items())},
        "state": [[port.vertex, port.port, _encode_value(value)]
                  for port, value in sorted(checkpoint.state.items(),
                                            key=lambda item: str(item[0]))],
        "activations": [list(entry) for entry in checkpoint.activations],
        "activation_counter": checkpoint.activation_counter,
        "event_index": {arc: index for arc, index
                        in sorted(checkpoint.event_index.items())},
        "env_cursors": {vertex: cursor for vertex, cursor
                        in sorted(checkpoint.env_cursors.items())},
        "rng_state": _encode_rng_state(checkpoint.rng_state),
    }


def checkpoint_from_dict(data: Mapping[str, Any]) -> Checkpoint:
    """Inverse of :func:`checkpoint_to_dict`.

    Raises :class:`~repro.errors.PersistenceError` on an unknown format
    version — a snapshot written by a future engine is not guessed at.
    """
    if data.get("format") != CHECKPOINT_FORMAT:
        raise PersistenceError(
            f"unsupported checkpoint format {data.get('format')!r} "
            f"(this engine reads format {CHECKPOINT_FORMAT})")
    try:
        return Checkpoint(
            step=int(data["step"]),
            marking=Marking(data["marking"]),
            state={PortId(vertex, port): _decode_value(value)
                   for vertex, port, value in data["state"]},
            activations=tuple((place, int(ident), int(start))
                              for place, ident, start in data["activations"]),
            activation_counter=int(data["activation_counter"]),
            event_index={arc: int(index)
                         for arc, index in data["event_index"].items()},
            env_cursors={vertex: int(cursor)
                         for vertex, cursor in data["env_cursors"].items()},
            rng_state=_decode_rng_state(data.get("rng_state")),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise PersistenceError(
            f"malformed checkpoint payload: {error}") from error


def _checkpoint_digest(body: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the checkpoint store
# ---------------------------------------------------------------------------
class CheckpointStore:
    """Rotating directory of integrity-hashed checkpoint snapshots.

    Snapshots are named ``ckpt-<step>.json`` and written with
    :func:`atomic_write_text`, so the store never contains a torn file
    from a process kill; against stronger corruption (power loss on a
    non-journalled filesystem, stray writes) every snapshot embeds a
    SHA-256 of its body and :meth:`load_latest` falls back to the newest
    snapshot whose digest still verifies.  ``keep`` bounds how many
    snapshots survive rotation — at least two, so there is always a
    previous good snapshot to fall back to.
    """

    def __init__(self, root: str | os.PathLike, *, keep: int = 3,
                 durable: bool = True) -> None:
        if keep < 2:
            raise DefinitionError(
                "CheckpointStore keep must be >= 2 (corruption fallback "
                "needs a previous snapshot)")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.durable = durable
        self.corrupt_skipped = 0

    # ------------------------------------------------------------------
    def path_for(self, step: int) -> Path:
        return self.root / f"ckpt-{step:010d}.json"

    def paths(self) -> list[Path]:
        """Snapshot files, oldest first (step order)."""
        return sorted(self.root.glob("ckpt-*.json"))

    # ------------------------------------------------------------------
    def save(self, checkpoint: Checkpoint) -> Path:
        """Persist one snapshot durably; rotate old snapshots out."""
        body = checkpoint_to_dict(checkpoint)
        envelope = {"sha256": _checkpoint_digest(body), "checkpoint": body}
        path = self.path_for(checkpoint.step)
        atomic_write_text(path, canonical_json(envelope) + "\n",
                          durable=self.durable)
        self._rotate()
        return path

    def _rotate(self) -> None:
        paths = self.paths()
        for stale in paths[:-self.keep]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort rotation
                pass

    # ------------------------------------------------------------------
    def _load_path(self, path: Path) -> Checkpoint:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                envelope = json.load(handle)
            except ValueError as error:
                raise PersistenceError(
                    f"checkpoint {path.name} is not valid JSON: "
                    f"{error}") from error
        body = envelope.get("checkpoint")
        if not isinstance(body, dict):
            raise PersistenceError(
                f"checkpoint {path.name} has no checkpoint body")
        if envelope.get("sha256") != _checkpoint_digest(body):
            raise PersistenceError(
                f"checkpoint {path.name} failed integrity verification")
        return checkpoint_from_dict(body)

    def load(self, path: str | os.PathLike) -> Checkpoint:
        """Load one snapshot file, verifying format and integrity."""
        return self._load_path(Path(path))

    def load_latest(self) -> Checkpoint | None:
        """The newest intact snapshot, or ``None`` when the store is empty.

        Corrupt snapshots (bad JSON, digest mismatch, unknown format)
        are skipped — counted in :attr:`corrupt_skipped` — and the scan
        falls back to the previous snapshot, so one torn write never
        strands a resumable run.
        """
        for path in reversed(self.paths()):
            try:
                return self._load_path(path)
            except PersistenceError:
                self.corrupt_skipped += 1
        return None


class CheckpointHook(SimHook):
    """Persist a checkpoint to a :class:`CheckpointStore` every N steps.

    Snapshots are taken inside ``pre_step`` — the documented safe
    boundary — so each one captures exactly the state the step is about
    to start from.  The hook overrides no value-path method and perturbs
    nothing, so traces stay byte-identical to an unhooked run.
    """

    def __init__(self, store: CheckpointStore, every: int) -> None:
        if every <= 0:
            raise DefinitionError(
                f"checkpoint interval must be positive, got {every}")
        self.store = store
        self.every = every
        self.saved_steps: list[int] = []

    def pre_step(self, sim, step: int, marking) -> None:
        if step and step % self.every == 0 and (
                not self.saved_steps or self.saved_steps[-1] != step):
            self.store.save(sim.checkpoint())
            self.saved_steps.append(step)
        return None


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

    :meth:`append` is thread-safe: concurrent writers (e.g. several
    service workers settling distinct queue shards into one shared
    journal) serialise on an internal lock, so records never interleave
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

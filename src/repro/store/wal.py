"""JSONL write-ahead log for the record store, with group commit.

Each mutation the store applies is appended as one JSON line —
``{"kind": ..., "data": ...}`` — before it is acknowledged.  Recovery
replays the log over the most recent snapshot; ``truncate`` is called
after a snapshot has been written, because the snapshot supersedes every
entry logged so far.

One commit path.  ``append`` assigns the entry a seq, buffers its line
and returns a :class:`CommitTicket`; it never writes.  An entry is
durable once its ticket's ``wait()`` returns True.  ``wait`` queues on
the I/O lock, and the waiter holding it commits the whole buffer — its
own entry and every entry appended before it — as one write and one
fsync; the waiters queued behind it then find their entries durable and
return.  A lone committer pays exactly one fsync, N concurrent
committers share one, and the log starts no thread: an entry nobody
waits on is written by the next waiter's commit or by ``close()``.  The
record store waits on every ticket before acknowledging a mutation, so
an acknowledged mutation is on disk.

``durability`` decides only the fsync: ``"group"`` (the default) fsyncs
every commit; ``"none"`` writes and flushes only (survives process death
via the OS page cache, not power loss) — for benchmarks and tests.

Failure model (see DESIGN.md "Failure model").  ``append`` never raises
I/O errors.  A write or fsync failure is first retried with capped
exponential backoff (``_IO_RETRIES`` × ``_IO_BACKOFF``); if the disk stays
sick the batch is **parked** in memory and the log is marked ``failed``.
Parked entries make their tickets' ``wait()`` return False, which the
record store surfaces as a :class:`~repro.core.errors.DurabilityError`
(the serving layer flips to read-only).  A commit on a failed log heals
first: ``heal()`` truncates any torn garbage back to the last known-good
byte and replays the parked lines — merged, in seq order, with the
buffered ones — through the normal write path, so the log heals itself
once the fault clears; while the disk stays sick the commit parks its
batch behind the earlier ones.  A commit that fails any other way (an
injected in-process error) raises to its waiter and leaves its batch
buffered, so no entry is ever dropped while the process lives — a later
line may refer to it (a ``text`` entry, snapshot format 5).

Fault points fired here: ``wal.append`` (before each physical write) and
``wal.fsync`` (before each fsync).  A ``torn`` fault persists a prefix
of the payload and then simulates process death.

The log is deliberately dumb: no framing beyond newlines, no checksums.
A torn final line (crash mid-write) is skipped on replay rather than
aborting recovery.
"""

from __future__ import annotations

import json
import os
import threading
from time import sleep as _sleep
from typing import Callable, Iterator, List, Optional, Set, Tuple

from repro.core.serialize import COMPACT
from repro.faults.plane import FaultPlane, SimulatedCrash, TornWrite
from repro.faults.plane import active as _active_plane

_DURABILITY_MODES = ("group", "none")
#: A failed write or fsync is retried this many times, sleeping
#: ``_IO_BACKOFF`` doubled per attempt and capped, before it is parked.
_IO_RETRIES = 2
_IO_BACKOFF = 0.0005
_IO_BACKOFF_CAP = 0.05


def entry_line(kind: str, text: str) -> str:
    """One journal line around ``text``, the compact JSON of the entry's
    data — exactly ``json.dumps({"kind": kind, "data": data})`` with
    compact separators (kinds are plain identifiers).  Snapshot record
    lines are built by the same function, so a run's WAL line and its
    snapshot line are the same bytes."""
    return f'{{"kind":"{kind}","data":{text}}}\n'


def decode_line(line) -> Tuple[str, dict, Optional[str]]:
    """``(kind, data, text)`` of one journal or snapshot line (str or
    bytes), :func:`entry_line` undone: ``text`` is the JSON ``data`` was
    decoded from — None if the line is framed any other way (spaces, key
    order).  Raises ValueError / KeyError / TypeError when it is not an entry."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    entry = json.loads(line)
    kind, data = entry["kind"], entry["data"]
    head = entry_line(kind, "")[:-2]  # up to the text; "}\n" follows it
    framed = line.startswith(head) and line.endswith("}\n")
    return kind, data, (line[len(head) : -2] if framed else None)


class CommitTicket:
    """Handle for one appended entry; ``wait()`` blocks until the entry is
    durable."""

    __slots__ = ("seq", "_wal")

    def __init__(self, seq: int, wal: "RecordWal") -> None:
        self.seq = seq
        self._wal = wal

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until durable.  Returns False when the entry cannot be
        made durable: the wait timed out queueing for the log, the log is
        closed, or the write is parked behind a disk failure.  Callers
        MUST NOT acknowledge the mutation on False (see
        ``RecordStore._finish``)."""
        return self._wal.wait_durable(self.seq, timeout)

    @property
    def done(self) -> bool:
        return self._wal.is_durable(self.seq)


class RecordWal:
    """Append-only JSONL durability log with group commit, deterministic
    fault injection, and parked-write self-healing."""

    def __init__(
        self,
        path: str,
        durability: str = "group",
        fault_plane: Optional[FaultPlane] = None,
        intact_size: Optional[int] = None,
    ) -> None:
        if durability not in _DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {_DURABILITY_MODES}, got {durability!r}"
            )
        self.path = path
        self.durability = durability
        self.faults = fault_plane if fault_plane is not None else _active_plane()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Never append after a torn fragment: a valid entry concatenated
        # onto it would produce one permanently unparseable line, and every
        # later recovery would stop there and lose everything after it.
        # ``intact_size`` is that check already done by a caller that just
        # read the log (``read``); a long log is then decoded once, not twice.
        if intact_size is None:
            self.repair(path)
        else:
            self._drop_tail(path, intact_size)
        self._fh = open(path, "a", encoding="utf-8")
        #: Bytes appended since open/truncate — the store's size-triggered
        #: rotation watches this, not the file (truncate resets it).
        self.appended_bytes = 0
        #: Byte offset of the last known-good end of file.  Failed writes
        #: may leave partial garbage past it; retries and ``heal`` truncate
        #: back to it before rewriting (JSON is ASCII, so str len == bytes).
        self._good_size = os.path.getsize(path)

        # Commit state.  Lock order: _io_lock before _lock.  The I/O lock
        # is the commit queue: whoever holds it is the only writer, and it
        # captures the buffer *under* it — that keeps the file in append
        # (seq) order and makes a batch atomic against truncation.
        self._lock = threading.Lock()
        self._io_lock = threading.RLock()
        self._buffer: List[Tuple[int, str]] = []
        self._next_seq = 1
        self._durable_seq = 0
        self._closed = False

        # Degradation state (guarded by _lock unless noted).
        self.failed = False
        self.last_error: Optional[BaseException] = None
        self._parked: List[Tuple[int, str]] = []
        self._parked_seqs: Set[int] = set()
        #: Called (outside ``_lock``) when the log first enters the failed
        #: state; the health monitor uses it to flip serving to read-only.
        self.on_degrade: Optional[Callable[[BaseException], None]] = None
        self.retried_writes = 0
        self.degraded_events = 0
        self.healed_events = 0

    # ------------------------------------------------------------------ append

    def append(
        self, kind: str, data: Optional[dict] = None, *, text: Optional[str] = None
    ) -> CommitTicket:
        """Buffer one entry and return its ticket; a ticket's ``wait`` (or
        ``close``) writes it.  ``text`` is ``data`` already encoded (a
        run's codec text, which the store keeps for the snapshot): it is
        spliced into the line instead of encoding ``data`` again."""
        if text is None:
            text = json.dumps(data, separators=COMPACT)
        line = entry_line(kind, text)
        with self._lock:
            if self._closed:
                raise ValueError("append to a closed WAL")
            seq = self._next_seq
            self._next_seq = seq + 1
            self._buffer.append((seq, line))
            self.appended_bytes += len(line)
        return CommitTicket(seq, self)

    def wait_durable(self, seq: int, timeout: Optional[float] = None) -> bool:
        """Block until entry ``seq`` is durable.  Waiters queue on the I/O
        lock; the holder commits the buffer unless a commit ahead of it
        already covered its entry.  A waiter blocked in ``acquire`` cannot
        miss the release that follows that commit, so nobody sleeps past
        their own entry.  ``timeout`` bounds the queueing; a commit once
        started runs to the end (its retries are bounded)."""
        if not self._io_lock.acquire(timeout=-1 if timeout is None else timeout):
            return self.is_durable(seq)
        try:
            # The watermark, the parked set and the closed flag change
            # only under the I/O lock, which this thread now holds: no
            # ``_lock`` needed to read them.
            if not (
                self._durable_seq >= seq or self._closed or seq in self._parked_seqs
            ):
                self._commit_buffer()
            return self._durable_seq >= seq
        finally:
            self._io_lock.release()

    def is_durable(self, seq: int) -> bool:
        with self._lock:
            return self._durable_seq >= seq

    def _advance_durable_locked(self, candidate: int) -> None:
        """Advance the durable watermark to ``candidate``, clamped below
        any parked *or still-buffered* entry.  Caller holds ``_lock``.
        ``_durable_seq`` is a watermark — every seq at or below it must
        be on disk — so an entry sitting in the buffer (written by nobody
        yet) bounds it exactly like a parked one; landing above it would
        falsely resolve the buffered entry's ticket and ack a mutation
        that was never written."""
        if self._parked_seqs:
            candidate = min(candidate, min(self._parked_seqs) - 1)
        if self._buffer:
            candidate = min(candidate, min(seq for seq, _ in self._buffer) - 1)
        if candidate > self._durable_seq:
            self._durable_seq = candidate

    def sync(self, timeout: Optional[float] = None) -> bool:
        """Wait until everything appended so far is durable.  False when
        any entry is parked behind a disk failure or the wait times out."""
        with self._lock:
            last = self._next_seq - 1
        return self.wait_durable(last, timeout)

    # ------------------------------------------------------------------ physical I/O

    def _commit_buffer(self) -> None:
        """Write everything buffered as one batch, fsynced unless
        ``durability`` is ``"none"``.  Caller holds ``_io_lock``:
        capturing the buffer under the I/O lock is what keeps the file in
        seq order, and makes the batch atomic against ``truncate`` (which
        also holds it) — a captured batch can never straddle a
        truncation, so no entry is ever resurrected into the fresh file
        after its snapshot.

        A failed log heals first, which replays the parked and buffered
        lines in seq order; if the disk is still sick the batch is parked
        behind the earlier failures.  Never raises I/O errors: a failed
        batch is parked and its waiters observe False through their
        tickets.  ``SimulatedCrash`` does propagate — it models process
        death, not an error to handle."""
        healthy = not self.failed or self._heal_locked()
        with self._lock:
            batch = self._buffer
            self._buffer = []
        if not batch:
            # Nothing captured — do NOT advance the durable watermark.  An
            # empty buffer does not mean everything is durable: a commit
            # that crashed took its captured batch down with it
            # (_mark_crashed cleared the buffer), and advancing here would
            # mark those never-written entries durable and falsely ack
            # their waiters.
            return
        if not healthy:
            self._park(batch)
            return
        try:
            self._write_payload("".join([line for _, line in batch]))
        except OSError as exc:
            self._park(batch, exc)
            return
        except Exception:
            # Not the disk (an injected in-process error): the commit fails,
            # the entries do not.  Back at the head of the buffer — no
            # entry appended after them may reach the file first — for the
            # next commit to write.
            self._rewind_to_good()
            with self._lock:
                self._buffer[:0] = batch
            raise
        with self._lock:
            self._advance_durable_locked(max(seq for seq, _ in batch))

    def _write_payload(self, data: str) -> None:
        """Write + flush (+ fsync unless ``durability`` is ``"none"``)
        under ``_io_lock``, firing the WAL fault points and retrying
        transient I/O errors with capped exponential backoff.  On
        persistent failure the file is rewound to the last known-good byte
        (no torn garbage survives) and the error is raised for the caller
        to park.  Raises ``SimulatedCrash`` on injected process death."""
        fsync = self.durability != "none"
        attempt = 0
        while True:
            try:
                self.faults.fire("wal.append", bytes=len(data))
                self._fh.write(data)
                self._fh.flush()
                if fsync:
                    self.faults.fire("wal.fsync")
                    os.fsync(self._fh.fileno())
                self._good_size += len(data)
                return
            except TornWrite as fault:
                # Crash mid-write: a prefix of the payload reaches the
                # file (the classic torn tail), then the process dies.
                self._rewind_to_good()
                prefix = data[: max(1, int(len(data) * fault.fraction))] if data else ""
                try:
                    self._fh.write(prefix)
                    self._fh.flush()
                except OSError:
                    pass
                self._mark_crashed()
                raise SimulatedCrash(str(fault)) from None
            except SimulatedCrash:
                self._mark_crashed()
                raise
            except OSError:
                attempt += 1
                self._rewind_to_good()
                if attempt > _IO_RETRIES:
                    raise
                self.retried_writes += 1
                delay = min(_IO_BACKOFF * (2 ** (attempt - 1)), _IO_BACKOFF_CAP)
                if delay > 0:
                    _sleep(delay)

    def _rewind_to_good(self) -> None:
        """Drop any partially-written garbage past the last known-good
        byte and reopen a fresh append handle (the failed one may be
        poisoned).  Best effort: if even this fails, ``heal`` retries it
        later with the same ``_good_size``."""
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            with open(self.path, "rb+") as fh:
                fh.truncate(self._good_size)
        except OSError:
            pass
        try:
            self._fh = open(self.path, "a", encoding="utf-8")
        except OSError:
            # Keep a handle object so later writes raise OSError (and park)
            # rather than AttributeError; heal() replaces it.
            self._fh = open(os.devnull, "a", encoding="utf-8")

    def _mark_crashed(self) -> None:
        """Injected process death: buffered entries are lost and every
        waiter gets False, exactly as if the process had been killed."""
        with self._lock:
            self._closed = True
            self._buffer = []

    # ------------------------------------------------------------------ degradation

    def _park(self, entries: List[Tuple[int, str]], exc: Optional[BaseException] = None) -> None:
        """Retries exhausted: hold the lines in memory and mark the log
        failed.  Never raises — durability failures surface through
        tickets (False), not through ``append``."""
        callback = None
        with self._lock:
            self._parked.extend(entries)
            self._parked_seqs.update(seq for seq, _ in entries)
            if exc is not None:
                self.last_error = exc
            if not self.failed:
                self.failed = True
                self.degraded_events += 1
                callback = self.on_degrade
        if callback is not None:
            try:
                callback(self.last_error)
            except Exception:
                pass

    def heal(self) -> bool:
        """Probe the disk and flush the parked backlog; True when the log
        is healthy again.  Called by the health monitor's probe-on-write;
        every commit on a failed log does the same first.  Safe to call on
        a healthy log (no-op probe)."""
        with self._io_lock:
            return self._heal_locked()

    def _heal_locked(self) -> bool:
        if not self.failed:
            return True
        with self._lock:
            parked = list(self._parked)
            buffered = list(self._buffer)
        # Reopen from scratch: the old handle may be poisoned and the file
        # may carry partial garbage from the failed write.
        try:
            with open(self.path, "rb+") as fh:
                fh.truncate(self._good_size)
            fresh = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            self.last_error = exc
            return False
        try:
            self._fh.close()
        except OSError:
            pass
        self._fh = fresh
        # Replay the parked lines *and* the buffered ones, merged in seq
        # order: parking happens batch by batch, so replaying the parked
        # list alone — or in list order — could put entries on disk out of
        # seq order and recovery would replay the mutations in the wrong
        # order.
        pending = sorted(parked + buffered)
        try:
            self._write_payload("".join(line for _, line in pending))
        except OSError as exc:
            self.last_error = exc
            return False
        with self._lock:
            for seq, _ in parked:
                self._parked_seqs.discard(seq)
            del self._parked[: len(parked)]
            del self._buffer[: len(buffered)]
            if not self._parked:
                self.failed = False
                self.last_error = None
                self.healed_events += 1
            if pending:
                self._advance_durable_locked(max(seq for seq, _ in pending))
        return not self.failed

    def status(self) -> dict:
        """Health snapshot for ``/warp/admin/health``."""
        with self._lock:
            return {
                "path": self.path,
                "durability": self.durability,
                "failed": self.failed,
                "parked_entries": len(self._parked),
                "buffered_entries": len(self._buffer),
                "durable_lag": (self._next_seq - 1) - self._durable_seq,
                "retried_writes": self.retried_writes,
                "degraded_events": self.degraded_events,
                "healed_events": self.healed_events,
                "last_error": repr(self.last_error) if self.last_error else None,
            }

    # ------------------------------------------------------------------ lifecycle

    def truncate(self) -> None:
        """Discard all logged entries (a snapshot now covers them).
        Buffered and parked entries are dropped and their tickets resolve
        immediately: the snapshot that triggered the truncation already
        contains them.  A failed log is healthy again after truncation —
        the new file has nothing to replay."""
        with self._io_lock:
            with self._lock:
                self._buffer = []
                self._parked = []
                self._parked_seqs.clear()
                self._durable_seq = self._next_seq - 1
                self.appended_bytes = 0
                self.failed = False
                self.last_error = None
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = open(self.path, "w", encoding="utf-8")
            self._good_size = 0

    def close(self) -> None:
        """Refuse further appends, commit what is buffered — a failed log
        gets one last heal first, so parked entries are not silently
        dropped when the fault has already cleared — and close the file."""
        with self._io_lock:
            with self._lock:
                self._closed = True
            self._commit_buffer()
            try:
                self._fh.close()
            except OSError:
                pass

    # ------------------------------------------------------------------ recovery

    @staticmethod
    def _intact_lines(path: str) -> Iterator[Tuple[Optional[tuple], int]]:
        """``(entry, end)`` for each intact line of ``path``: ``entry`` is
        :func:`decode_line`'s (None for a blank line) and ``end`` the byte
        offset just past the line.  A line is intact only if it ends with
        a newline *and* decodes: a crash can cut a write at the closing
        brace — valid JSON, no newline — and replay and repair must agree
        on dropping it, which they do by both reading through here."""
        if not os.path.exists(path):
            return
        end = 0
        with open(path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    return  # torn tail from a crash mid-append
                entry = None
                if not line.isspace():
                    try:
                        entry = decode_line(line)
                    except (ValueError, KeyError, TypeError):
                        return
                end += len(line)
                yield entry, end

    @staticmethod
    def _drop_tail(path: str, intact_size: int) -> int:
        """Truncate ``path`` to its intact prefix; returns bytes removed."""
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if intact_size < size:
            with open(path, "rb+") as fh:
                fh.truncate(intact_size)
        return max(0, size - intact_size)

    @staticmethod
    def read(path: str) -> Tuple[List[Tuple[str, dict, Optional[str]]], int]:
        """Every intact entry of ``path`` (as :func:`decode_line` reads it)
        plus the size of the intact prefix, from one decoding pass — hand the
        size to the constructor (``intact_size``) when attaching that log."""
        entries: List[Tuple[str, dict, Optional[str]]] = []
        intact = 0
        for entry, intact in RecordWal._intact_lines(path):
            if entry is not None:
                entries.append(entry)
        return entries, intact

    @staticmethod
    def repair(path: str) -> int:
        """Truncate a torn tail (crash mid-append) to the last intact
        entry.  Returns the number of bytes removed."""
        intact = 0
        for _, intact in RecordWal._intact_lines(path):
            pass
        return RecordWal._drop_tail(path, intact)

    @staticmethod
    def entries(path: str) -> Iterator[Tuple[str, dict]]:
        """Yield ``(kind, data)`` for every intact entry in ``path`` —
        "intact" meaning exactly what :meth:`repair` keeps."""
        for entry, _ in RecordWal._intact_lines(path):
            if entry is not None:
                yield entry[:2]


def open_wal(path: Optional[str], **options) -> Optional[RecordWal]:
    return RecordWal(path, **options) if path is not None else None

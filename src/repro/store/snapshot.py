"""Snapshot files: one header line, then one journal-shaped line per record.

**Format 5** (what :meth:`RecordStore.commit_snapshot` writes)::

    {"version":5,...,"ids":{...,"text":N},...,"records":{"visit":V,"text":T,"run":R,"patch":P}}
    {"kind":"visit","data":{...}}
    {"kind":"text","data":{"id":1,"text":"<html>..."}}
    {"kind":"text","data":{"id":3,"text":"[[\\"Home\\"],\\"select\\",...]"}}
    {"kind":"run","data":{...,"response":{"status":200,"body":1,...},"queries":[[q,ts,2,3]]}}
    {"kind":"patch","data":{...}}

The header is an ordinary JSON object (the C ``json.dumps``, one call);
every following line has the write-ahead log's own shape
(:func:`repro.store.wal.entry_line`), so a run's bytes are the ones its
WAL entry carried and neither side ever builds a whole-history tree: the
writer splices kept text, the reader decodes and inserts one record at a
time.  ``records`` counts the lines that must follow, per kind — a file
cut short at a line boundary is refused like one cut mid-line.

Each response body, SQL text and row payload is written once, as a
``text`` entry, and a run line holds its id instead
(:mod:`repro.ahg.records`): a row is ``[qid, ts, <sql id>, <row id>]``,
the row id naming the entry whose text is the payload's compact JSON
array.  The **segment invariant**: every id a line refers to is defined
by an entry earlier in the same segment — the snapshot plus the WAL after
its marker.  The snapshot holds exactly the entries its runs refer to,
before the run lines; the WAL journals an entry just before the first
line after the marker that needs it.  Ids are never reused: ``ids.text``
in the header is the counter, which entries dropped with their runs may
have passed.  On the ``wiki_py`` benchmark workload format 4 took the WAL
from 1,898 to 1,356 bytes per request, and format 5 to 899 (the snapshot
from 1,434 to 998 bytes per run); the repeats format 5 removes are
session, user and ACL lookups and page reads, whose cached SELECT hits
wrote their whole payload — page text included — once per run.

A build reads the format it writes: formats 1-4 are refused by version.
To upgrade an older file, load and save it once with commit 812ecd4 or
earlier, which reads formats 1-5 and writes format 5.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import tempfile
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.core.errors import ReproError
from repro.core.serialize import COMPACT, UPGRADE_ROUTE
from repro.store.wal import decode_line

FORMAT = 5


def write_snapshot(path: str, header: dict, lines: Iterable[str]) -> None:
    """Write ``header`` and the record ``lines`` to ``path`` via a temp
    file + fsync + rename, so a crash mid-write never destroys the
    previous good file."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, separators=COMPACT))
            fh.write("\n")
            fh.writelines(lines)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


class SnapshotReader:
    """Streaming reader: ``header`` is available at once, ``records()``
    decodes the lines after it one at a time."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "r", encoding="utf-8", newline="")
        try:
            self.header = self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def _refuse(self, what: str) -> ReproError:
        return ReproError(f"snapshot {self.path!r} cannot be loaded: {what}")

    def _read_header(self) -> dict:
        try:
            header = json.loads(self._fh.readline())
        except ValueError:
            header = None
        if not isinstance(header, dict):
            raise self._refuse("the header line is not a JSON object")
        # Only a bare store's format-1 image predates the version field.
        version = header.get("version", 1)
        if version in (1, 2, 3, 4):
            raise self._refuse(f"format {version} is retired; {UPGRADE_ROUTE}")
        if version != FORMAT:
            raise self._refuse(f"unsupported format version {version!r}")
        return header

    def records(self) -> Iterator[Tuple[str, dict, Optional[str]]]:
        """``(kind, data, text)`` per record line, as
        :func:`~repro.store.wal.decode_line` reads it.  Raises
        :class:`ReproError` on a line that is cut short or not an entry,
        and — after the last line — if the file does not hold the records
        its header promises."""
        seen: Dict[str, int] = {}
        for number, line in enumerate(self._fh, start=2):
            try:
                if not line.endswith("\n"):
                    raise ValueError("cut short")
                kind, data, text = decode_line(line)
            except (ValueError, KeyError, TypeError):
                raise self._refuse(f"line {number} is not a complete record") from None
            seen[kind] = seen.get(kind, 0) + 1
            yield kind, data, text
        expected = {k: n for k, n in self.header.get("records", {}).items() if n}
        if seen != expected:
            raise self._refuse(
                f"the header promises records {expected}, the file holds {seen}"
            )

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_snapshot_header(path: str) -> dict:
    """The header object of the snapshot at ``path``."""
    with SnapshotReader(path) as reader:
        return reader.header


@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic collector for a bulk build, and keep it off what
    was built.  Loading a history allocates millions of long-lived
    containers and frees almost none; every collection in between re-walks
    the growing heap to find nothing (measured: ~45 % of load time), and so
    would the first one after it and every full one from then on — so a
    build that succeeds ends with ``gc.freeze()``.  Reference counting still
    frees what was alive then; only what of it later becomes *cyclic* garbage
    stays.  The collector is restored on the way out, also when the load raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if was_enabled:
            gc.enable()

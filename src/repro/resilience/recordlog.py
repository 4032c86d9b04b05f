"""One framed record log: the on-disk format of the service's job journal
(JSON bodies) and of the engine's checkpoint log (pickled bodies).

Each record is a 12-byte header — magic, body length, crc32 of the body —
then the body.  :func:`scan` is the one reader: a record counts when all
three check out, and a damaged one (any byte flipped, header included) is
skipped by resyncing on the next that does, so damage inside a log costs
only that record.  Bytes with no whole record after them are the torn tail
of a crash mid-append, which :meth:`RecordLog.open`, and only it, truncates.
"""

from __future__ import annotations

import logging
import os
import struct
import tempfile
import zlib
from typing import Iterable, List, NamedTuple, Tuple

logger = logging.getLogger(__name__)

HEADER = struct.Struct("<4sII")
MAGIC = b"\x89RL1"  # not ASCII, so never inside a JSON body


def frame(*parts: bytes) -> bytes:
    """One record whose body is ``parts`` joined."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join((HEADER.pack(MAGIC, sum(map(len, parts)), crc), *parts))


class Scan(NamedTuple):
    records: List[Tuple[int, int]]  # (start, stop) of each whole body
    end: int  # just past the last whole record
    damaged: int  # damaged stretches skipped between whole records
    torn: bool  # bytes follow the last whole record


def scan(raw: bytes) -> Scan:
    """Every whole record in a log's bytes."""
    view = memoryview(raw)
    records: List[Tuple[int, int]] = []
    damaged = end = offset = 0
    skipped = False
    while offset < len(raw):
        start = offset + HEADER.size
        if start <= len(raw):
            magic, length, crc = HEADER.unpack_from(view, offset)
            stop = start + length
            if (magic == MAGIC and stop <= len(raw)
                    and zlib.crc32(view[start:stop]) == crc):
                damaged += skipped
                skipped = False
                records.append((start, stop))
                offset = end = stop
                continue
        # Damaged or torn: resync on the next magic whose record checks
        # out; none at all means a torn tail.
        offset = raw.find(MAGIC, offset + 1)
        if offset < 0:
            break
        skipped = True
    return Scan(records, end, damaged, end < len(raw))


def read(path: str) -> bytes:
    """A log's bytes; an absent log reads empty."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return b""


def replace(path: str, chunks: Iterable[bytes], durable: bool) -> None:
    """Atomically make ``chunks`` the whole file at ``path`` (temp file,
    rename).  ``durable`` fsyncs it before the rename; the rename is
    durable once the caller fsyncs the directory."""
    handle, temp_path = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".recordlog-",
        suffix=".tmp",
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            for chunk in chunks:
                stream.write(chunk)
            if durable:
                stream.flush()
                os.fsync(stream.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


class RecordLog:
    """A log open for appends, after its torn tail is truncated."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.handle = open(path, "ab")
        self.size = self.handle.tell()

    @classmethod
    def open(cls, path: str) -> Tuple["RecordLog", bytes, Scan]:
        """Scan the log at ``path`` (created if absent), truncate its torn
        tail, open it for appends; also returns what it read and found."""
        raw = read(path)
        found = scan(raw)
        if found.torn:
            logger.warning("record log %s: torn tail (%d bytes) truncated",
                           path, len(raw) - found.end)
            with open(path, "r+b") as handle:
                handle.truncate(found.end)
        return cls(path), raw, found

    def append(self, *parts: bytes, fsync: bool = False) -> int:
        """Append one record whose body is ``parts`` joined; returns the
        body's offset in the file."""
        record = frame(*parts)
        self.handle.write(record)
        self.handle.flush()
        if fsync:
            os.fsync(self.handle.fileno())
        self.size += len(record)
        return self.size - len(record) + HEADER.size

    def rewrite(self, records: Iterable[bytes]) -> None:
        """Replace the whole log with ``records`` (framed), durably: the
        file, then the directory that holds the rename."""
        self.handle.close()
        try:
            replace(self.path, records, durable=True)
            directory = os.open(os.path.dirname(os.path.abspath(self.path)),
                                os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
        finally:
            self.handle = open(self.path, "ab")
            self.size = self.handle.tell()

    def close(self) -> None:
        if self.handle.closed:
            return
        try:
            self.handle.flush()
            os.fsync(self.handle.fileno())
        except OSError:
            pass
        self.handle.close()

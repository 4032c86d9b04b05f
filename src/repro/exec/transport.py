"""Pluggable wire transports beneath :class:`~repro.exec.channels.ProcessChannel`.

The channel layer owns the *protocol*: framing policy, credit-based flow
control, STOP discipline, chaos injection, and occupancy statistics.  This
module owns the *wire* — how an encoded frame physically crosses between
processes — behind a small duck-typed interface:

``send(items, framed, timeout, abort=None) -> serialize_seconds``
    Deliver one message (a frame of items, or a single unframed object when
    ``framed`` is false); it is on the wire when the call returns — no
    backend keeps anything back in the sender.  Returns the seconds spent
    serializing so the channel can account comm overhead.  Raises
    :class:`TransportFull` when the wire cannot accept the message within
    ``timeout``, or as soon as ``abort()`` (the sender's shutdown check)
    holds while it waits — the channel refunds the frame's credit and
    surfaces a ``ChannelTimeout`` — and :class:`FrameTooLarge` for a
    message it could never accept.

``recv(timeout) -> (items, single, deserialize_seconds)``
    Block up to ``timeout`` for one message.  Exactly one of ``items``
    (a decoded frame) and ``single`` (an unframed object) is meaningful:
    ``items is None`` marks the unframed case.  Raises
    :class:`TransportEmpty` on timeout.

``recv_nowait()``
    Non-blocking :meth:`recv` for drain paths; must never wedge, even when
    a peer died holding a transport lock.

``close()``
    Release this process's wire resources; must not block on dead peers.

Three backends:

:class:`PipeTransport`
    One OS pipe of length-prefixed messages, written and read by the
    calling thread itself under a send lock and a recv lock.  Portable and
    kernel-buffered; every message pays one :func:`encode` (no pickle for a
    raw frame), one ``writev`` and the kernel's two copies, plus one copy
    per ``bytes`` field out of the read buffer — except a raw frame of
    large fields, which are read straight into their own objects.

:class:`ShmRingTransport`
    A shared-memory ring buffer (``multiprocessing.shared_memory``) of
    fixed-size slots with an aligned-int64 seq-number publication
    discipline — the crash-safe ring proven in :mod:`repro.obs.spool`,
    here with blocking flow control instead of overwrite.  Messages are
    written directly into the mapped segment (raw frames entirely
    pickle-free) and decoded straight out of it, so the kernel never
    copies payload bytes at all.

:class:`ThreadTransport`
    An in-process deque for thread-mode pipelines: items move by
    reference, no serialization, no copies — the fastest wire when the
    workload is I/O-bound or the interpreter is free-threaded.

Shared-memory lifecycle: the creating process owns the segment.  Only the
owner's :meth:`~ShmRingTransport.close` unlinks; attached processes merely
unmap.  The owner stays registered with ``multiprocessing.resource_tracker``
so even a SIGKILLed run leaks nothing — the tracker unlinks the segment once
every process that mapped it has died.  Segments are named
``repro-shm-<pid>-<hex>`` so :func:`orphaned_segments` can audit ``/dev/shm``
for leaks (``python -m repro shm-audit``).

Publication ordering relies on the writer storing the slot's seq *after*
its payload, and on aligned 8-byte stores being atomic — true on every
platform CPython supports; on weakly-ordered ISAs the interpreter's own
synchronization has kept this discipline sound for :mod:`repro.obs.spool`
as well.
"""

from __future__ import annotations

import fcntl
import functools
import os
import pickle
import select
import struct
import time
from collections import deque
from threading import Condition
from typing import Any, Callable, List, Optional, Tuple

#: Prefix for every shared-memory segment this package creates — the
#: auditable namespace ``repro shm-audit`` scans for leaks.
SHM_PREFIX = "repro-shm-"

#: Where POSIX named shared memory surfaces as files (Linux).  Platforms
#: without it simply audit clean.
_SHM_DIR = "/dev/shm"

#: Ring slot header: message seq (int64, written last — the publication
#: point), payload length (u32), flags (u32).
_SLOT_HEADER = struct.Struct("<qII")

#: Slot flags.
_FLAG_SINGLE = 0  #: pickled single object (unframed message)
_FLAG_FRAME = 1  #: pickled list of items
_FLAG_RAW = 2  #: raw frame: an index, then its bytes in place (no pickle)
_FLAG_WRAP = 3  #: marker: rest of the ring lap is skipped, message at slot 0
_FLAG_FIELDS = 4  #: pipe only: a raw frame read field by field

#: An int64 cursor cell in the ring header.
_I64 = struct.Struct("<q")

#: Ring header cell offsets (all 8-byte aligned).  ``head_slot`` is the
#: reader's cumulative freed-slot count — the one cell writers read without
#: the recv lock, so it sits alone; the reader's cursors live beside it and
#: the writer's cursors a cache line away.
_OFF_HEAD = 0
_OFF_READ_SLOT = 8
_OFF_READ_SEQ = 16
_OFF_DATA_WAIT = 24
_OFF_TAIL_SLOT = 64
_OFF_NEXT_SEQ = 72
_OFF_SPACE_WAIT = 80
_RING_BASE = 128

#: Defensive cap on one event wait: wakeups are event-driven (set/clear),
#: the timeout only bounds the damage of a peer that died between
#: publishing and signalling.
_WAIT_SLICE = 0.05

class TransportFull(Exception):
    """The wire could not accept a message within its timeout."""


class TransportEmpty(Exception):
    """No message arrived within the timeout."""


class FrameTooLarge(ValueError):
    """A message no amount of waiting gets onto this wire.  The channel
    answers by splitting a multi-item frame; a single item this large is
    the caller's to fix."""


#: The mean ``bytes`` field size from which the pipe reads a raw frame's
#: fields each with its own ``os.read`` (``_FLAG_FIELDS``) rather than the
#: whole frame with one and a copy per field.  Measured across processes,
#: 64-field frames: at 4 KiB a field the whole read still moves more
#: (1.47 vs 1.31 GB/s), from 8 KiB the field reads match or beat it.
_OWN_READ = 8192

#: Head of a raw frame's index: the item count (u32), then the width of
#: the items' shape (u8) — 0 for bare ``bytes`` items, else the field
#: count of the flat tuples, whose field codes follow as ASCII.
_RAW_HEAD = struct.Struct("<IB")

#: The field types a raw frame carries, as the struct codes of their index
#: entries: an int64, a double, and a ``bytes`` field by its u32 length
#: (its bytes follow the index).  Exact types only: a ``bool``, an
#: ``IntEnum`` or a ``bytearray`` would come back as something else.
_FIELD_CODES = {int: "q", float: "d", bytes: "I"}


def encode(items: List[Any], framed: bool) -> Tuple[int, list]:
    """One message as its flag and the parts of its payload, in order: the
    codec both process wires share (the pipe gathers the parts with
    ``writev``, the ring copies them into its slots) and
    :func:`repro.exec.channels.encode_frame` joins.

    A frame of two or more items that all share one flat shape of int64,
    float and ``bytes`` fields, at least one of them ``bytes``, takes the
    raw mode (``_FLAG_RAW``): an index holding the shape once and every
    item's scalars and ``bytes`` lengths, then each ``bytes`` field itself,
    in place.  A bare ``bytes`` item is one such shape; the engine's work
    triple ``(i, value, a_seconds)`` with a ``bytes`` value is another.
    Everything else — a frame of scalar tuples too, which one C
    ``pickle.loads`` rebuilds faster than the raw decoder's loop — is
    pickled once at ``HIGHEST_PROTOCOL``.
    """
    if not framed:
        return _FLAG_SINGLE, [pickle.dumps(items[0], pickle.HIGHEST_PROTOCOL)]
    parts = _raw_parts(items)
    if parts is not None:
        return _FLAG_RAW, parts
    return _FLAG_FRAME, [pickle.dumps(list(items), pickle.HIGHEST_PROTOCOL)]


def decode(flag: int, buf, start: int, end: int) -> Tuple[Optional[list], Any]:
    """The inverse of :func:`encode`, over the payload ``buf[start:end]``
    (pass a memoryview: each ``bytes`` field is then one copy).  Returns
    ``(items, None)`` for a frame, ``(None, obj)`` for an unframed
    message."""
    if flag == _FLAG_RAW:
        return _decode_raw(buf, start), None
    obj = pickle.loads(buf[start:end])
    if flag == _FLAG_FRAME:
        return obj, None
    return None, obj


def _raw_parts(items: List[Any]) -> Optional[list]:
    """A frame's raw-mode payload — its index, then every ``bytes`` field,
    item by item — or ``None`` for a frame the raw mode does not carry.
    Gives up at the first item that does not conform."""
    if len(items) < 2:
        return None
    first = items[0]
    if type(first) is bytes:
        for item in items:
            if type(item) is not bytes:
                return None
        codes, scalars, blobs = "", list(map(len, items)), items
    elif type(first) is tuple and first:
        codes = ""
        for value in first:
            code = _FIELD_CODES.get(type(value))
            if code is None:
                return None
            codes += code
        if "I" not in codes:
            return None  # scalars only: left to pickle (see :func:`encode`)
        shape = tuple(map(type, first))
        scalars = []
        blobs = []
        for item in items:
            if type(item) is not tuple or tuple(map(type, item)) != shape:
                return None
            for value in item:
                if type(value) is bytes:
                    blobs.append(value)
                    scalars.append(len(value))
                else:
                    scalars.append(value)
    else:
        return None
    try:
        index = struct.pack(
            f"<IB{len(codes)}s{(codes or 'I') * len(items)}",
            len(items), len(codes), codes.encode(), *scalars,
        )
    except struct.error:
        return None  # an int beyond int64, or a ``bytes`` of 4 GiB
    return [index, *blobs]


def _raw_index(buf, at: int) -> Tuple[str, tuple, int]:
    """The one parser of a raw frame's index, the index starting at
    ``buf[at]``: ``(codes, scalars, where the index ends)``.  The ring's
    decoder (:func:`_decode_raw`) and the pipe's field reader
    (:func:`_message`) both call it."""
    count, width = _RAW_HEAD.unpack_from(buf, at)
    at += _RAW_HEAD.size
    codes = str(buf[at : at + width], "ascii")
    at += width
    layout = f"<{(codes or 'I') * count}"
    scalars = struct.unpack_from(layout, buf, at)
    return codes, scalars, at + struct.calcsize(layout)


def _decode_raw(buf, body: int) -> List[Any]:
    """The items of the raw frame whose payload starts at ``buf[body]``."""
    codes, scalars, cursor = _raw_index(buf, body)
    width = len(codes)
    items: List[Any] = []
    if not width:
        for length in scalars:
            end = cursor + length
            items.append(bytes(buf[cursor:end]))
            cursor = end
        return items
    blob_fields = [k for k, code in enumerate(codes) if code == "I"]
    for start in range(0, len(scalars), width):
        item = scalars[start : start + width]
        if blob_fields:
            fields = list(item)
            for k in blob_fields:
                end = cursor + fields[k]
                fields[k] = bytes(buf[cursor:end])
                cursor = end
            item = tuple(fields)
        items.append(item)
    return items


def _raw_lengths(codes: str, scalars: tuple):
    """The lengths of a raw frame's ``bytes`` fields, in wire order."""
    if not codes:
        return scalars
    width = len(codes)
    blob_fields = [k for k, code in enumerate(codes) if code == "I"]
    return [
        scalars[start + k]
        for start in range(0, len(scalars), width)
        for k in blob_fields
    ]


def _raw_items(codes: str, scalars: tuple, blobs: list) -> List[Any]:
    """A raw frame's items from its index and its ``bytes`` fields, read
    already (the pipe's field reader; the ring's decoder copies each field
    out of its slot as it goes)."""
    if not codes:
        return blobs
    width = len(codes)
    blob_fields = [k for k, code in enumerate(codes) if code == "I"]
    blobs = iter(blobs)
    items: List[Any] = []
    for start in range(0, len(scalars), width):
        fields = list(scalars[start : start + width])
        for k in blob_fields:
            fields[k] = next(blobs)
        items.append(tuple(fields))
    return items


@functools.cache
def _pipe_max_size() -> int:
    """The largest pipe buffer an unprivileged process may ask for, 0 when
    the system does not say (not Linux).  Read once per process: a forked
    stage reuses its parent's reading."""
    try:
        with open("/proc/sys/fs/pipe-max-size") as limit:
            return int(limit.read())
    except (OSError, ValueError):
        return 0


class PipeTransport:
    """One OS pipe carrying length-prefixed messages, written and read
    directly by the calling thread.

    A message is ``_HEADER`` (payload length, flag) and the payload
    :func:`encode` makes: one pickle of the frame's item list, one pickle
    of an unframed object, or — a raw frame, such as the engine's work
    triples with ``bytes`` values — the raw index followed by the items'
    ``bytes`` fields themselves, gathered by ``writev`` straight from the
    sender's objects.  The reader reads a message into a ``bytearray`` of
    its length and decodes it there, outside the lock: a ``bytes`` field
    costs one copy out of it.  A raw frame whose fields average
    ``_OWN_READ`` bytes or more goes out flagged ``_FLAG_FIELDS`` instead,
    its header giving the length of its index alone: the reader reads the
    index, then each field with one ``os.read`` of its length, so the
    object the kernel fills is the field itself — no copy in user space,
    no per-message buffer.  (Below that size the extra reads, and the
    writer wake-ups each of them makes on a full pipe, cost more than the
    copies they save.)  Writers serialize on ``send_lock``, readers on
    ``recv_lock`` (both channels have several writers, ``work`` several
    readers), so the bytes of one message are contiguous in the pipe.

    Both ends are non-blocking; whoever finds the pipe full or empty polls
    it in ``_WAIT_SLICE`` slices, so every wait can look at its deadline
    and at ``abort``.  A message up to ``PIPE_BUF`` is written atomically.
    A longer one may be accepted in part, and a message is never torn:

    - a writer that *began* a message finishes it, however long the
      readers take, unless ``abort()`` holds (without an ``abort``: unless
      the deadline passed).  Then it abandons the wire — it keeps
      ``send_lock`` for good, so nothing is ever appended to the torn
      message and every later ``send`` on this pipe ends in
      :class:`TransportFull`.  A writer killed mid-message leaves the
      same state behind.
    - a reader whose deadline passes inside a message keeps what it has —
      a resumable reader that remembers the step it stopped in — *and*
      ``recv_lock``, and reports :class:`TransportEmpty`: to its caller
      the message has not arrived yet.  Its next ``recv`` resumes; other
      readers find the lock busy, which reads as empty.  One reading
      thread per process; the resumable reader stays with the process
      that read (a forked child drops it, a spawned one is never sent it).

    The pipe buffer is raised to the most an unprivileged process may ask
    for: a frame of a few hundred KiB then fits whole, and the writer is
    back at its stage instead of trickling the frame out in step with the
    reader (there is no feeder thread to do that for it).
    """

    kind = "pipe"

    #: payload length (u32), ``_FLAG_SINGLE`` / ``_FLAG_FRAME`` /
    #: ``_FLAG_RAW``; or the index length and ``_FLAG_FIELDS``
    _HEADER = struct.Struct("<IB")

    def __init__(self, ctx) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        for end in (self._reader, self._writer):
            os.set_blocking(end.fileno(), False)
        size = _pipe_max_size()
        if size:
            try:
                fcntl.fcntl(self._writer.fileno(), fcntl.F_SETPIPE_SZ, size)
            except (OSError, AttributeError):
                pass  # refused: the default buffer still works
        self.send_lock = ctx.Lock()
        self.recv_lock = ctx.Lock()
        self._iov_max = os.sysconf("SC_IOV_MAX")
        self._abandoned = False
        #: The message this process is part-way through reading:
        #: ``(pid, resumable reader)`` — see :meth:`_read`.
        self._partial: Optional[tuple] = None

    # -- send ---------------------------------------------------------------------

    def send(
        self,
        items: List[Any],
        framed: bool,
        timeout: Optional[float],
        abort: Optional[Callable[[], bool]] = None,
    ) -> float:
        deadline = _deadline(timeout)
        started = time.perf_counter()
        parts = self._wire(items, framed)
        serialize_seconds = time.perf_counter() - started
        if self._abandoned or not self.send_lock.acquire(
            timeout=_remaining(deadline)
        ):
            raise TransportFull("pipe transport send lock busy")
        self._write(parts, deadline, abort)
        self.send_lock.release()
        return serialize_seconds

    @classmethod
    def _wire(cls, items: List[Any], framed: bool) -> list:
        """``items`` as the parts of one pipe message: the header, then
        the payload :func:`encode` makes."""
        flag, parts = encode(items, framed)
        length = sum(map(len, parts))
        if length > 0xFFFFFFFF:
            raise FrameTooLarge(
                f"message of {length} bytes exceeds the pipe wire's 4 GiB "
                f"length prefix"
            )
        if flag == _FLAG_RAW and length >= _OWN_READ * (len(parts) - 1):
            flag, length = _FLAG_FIELDS, len(parts[0])
        parts.insert(0, cls._HEADER.pack(length, flag))
        return parts

    def _write(self, parts: list, deadline, abort) -> None:
        """Write ``parts`` out, holding the send lock.  Returns once all
        of it is in the pipe; :class:`TransportFull`, with the lock
        released, if none of it is.  In between there is no way back: the
        wire is abandoned (send lock kept) and the caller gets
        :class:`TransportFull` all the same."""
        fd = self._writer.fileno()
        begun = False
        while parts:
            try:
                sent = os.writev(fd, parts[: self._iov_max])
            except BlockingIOError:
                if abort is not None and abort():
                    break
                expired = deadline is not None and time.monotonic() >= deadline
                if expired and (abort is None or not begun):
                    break
                _poll(fd, select.POLLOUT, None if begun else deadline)
                continue
            begun = True
            while parts and sent >= len(parts[0]):
                sent -= len(parts.pop(0))
            if sent:
                parts[0] = memoryview(parts[0])[sent:]
        else:
            return
        if begun:
            self._abandoned = True
            raise TransportFull("pipe transport abandoned inside a message")
        self.send_lock.release()
        raise TransportFull("pipe transport full")

    # -- recv ---------------------------------------------------------------------

    def recv(
        self, timeout: Optional[float]
    ) -> Tuple[Optional[List[Any]], Any, float]:
        return self._recv(_deadline(timeout), timeout)

    def recv_nowait(self) -> Tuple[Optional[List[Any]], Any, float]:
        # Bounded acquire: a peer killed while holding the lock must not
        # wedge drain/teardown paths — they treat "busy" as "empty".
        return self._recv(time.monotonic(), 0.01)

    def _recv(self, deadline, lock_timeout):
        partial = self._partial
        if partial is not None and partial[0] != os.getpid():
            partial = self._partial = None  # the forking parent's, not ours
        if partial is None and not self.recv_lock.acquire(timeout=lock_timeout):
            raise TransportEmpty("pipe transport recv lock busy")
        try:
            flag, payload, seconds = self._read(deadline)
        except BaseException:
            if self._partial is None:
                self.recv_lock.release()
            raise
        self.recv_lock.release()
        if flag == _FLAG_FIELDS:
            return payload, None, seconds
        started = time.perf_counter()
        with memoryview(payload) as view:
            items, single = decode(flag, view, 0, len(payload))
        return items, single, time.perf_counter() - started

    def _read(self, deadline) -> Tuple[int, Any, Optional[float]]:
        """One whole message, holding the recv lock: what :func:`_message`
        returns.  Once its first byte is in, the message is read by that
        resumable reader; :class:`TransportEmpty` at the deadline — with
        the reader kept in ``_partial`` iff any of the message was read.
        The next call resumes it."""
        fd = self._reader.fileno()
        partial, self._partial = self._partial, None
        if partial is None:
            head = bytearray(self._HEADER.size)
            while not (filled := _fill(fd, head, 0)):
                _wait(fd, deadline)
            reader = _message(fd, head, filled)
        else:
            reader = partial[1]
        while True:
            try:
                next(reader)
            except StopIteration as done:
                return done.value
            try:
                _wait(fd, deadline)
            except TransportEmpty:
                self._partial = (os.getpid(), reader)
                raise

    # -- lifecycle ----------------------------------------------------------------

    def __getstate__(self):
        # A half-read message is the reading process's own (the pid check
        # drops it in a forked child); a generator does not pickle anyway.
        state = self.__dict__.copy()
        state["_partial"] = None
        return state

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


def _fill(fd: int, buf: bytearray, filled: int) -> int:
    """Read ``buf`` on from ``filled`` until it is full or the pipe is
    empty; returns how far it is filled."""
    while filled < len(buf):
        try:
            got = os.readv(fd, [memoryview(buf)[filled:]])
        except BlockingIOError:
            break
        if not got:
            raise EOFError("pipe transport: every writer is gone")
        filled += got
    return filled


def _message(fd: int, head: bytearray, filled: int):
    """The resumable read of the message whose first ``filled`` header
    bytes are in ``head``.  Yields whenever the pipe is empty; returns
    ``(flag, payload, None)``, or for ``_FLAG_FIELDS`` ``(_FLAG_FIELDS,
    items, seconds spent assembling them)`` — the reads and polls are the
    wire's, not deserialization."""
    while (filled := _fill(fd, head, filled)) < len(head):
        yield
    size, flag = PipeTransport._HEADER.unpack(head)
    payload, filled = bytearray(size), 0
    while (filled := _fill(fd, payload, filled)) < size:
        yield
    if flag != _FLAG_FIELDS:
        return flag, payload, None
    codes, scalars, _ = _raw_index(payload, 0)
    blobs = yield from _take(fd, _raw_lengths(codes, scalars))
    started = time.perf_counter()
    items = _raw_items(codes, scalars, blobs)
    return flag, items, time.perf_counter() - started


def _take(fd: int, sizes):
    """The next fields of the pipe, one ``bytes`` per size, resumably: the
    object ``os.read`` returns is the field itself, unless the pipe held
    less — then the pieces are joined once.  Yields whenever the pipe is
    empty."""
    blobs = []
    for size in sizes:
        pieces = []
        while size:
            try:
                piece = os.read(fd, size)
            except BlockingIOError:
                yield
                continue
            if not piece:
                raise EOFError("pipe transport: every writer is gone")
            pieces.append(piece)
            size -= len(piece)
        blobs.append(b"".join(pieces))
    return blobs


def _wait(fd: int, deadline: Optional[float]) -> None:
    """Wait for the pipe to hold more: one poll, or :class:`TransportEmpty`
    once the deadline has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise TransportEmpty("pipe transport empty")
    _poll(fd, select.POLLIN, deadline)


def _deadline(timeout: Optional[float]) -> Optional[float]:
    return None if timeout is None else time.monotonic() + timeout


def _remaining(deadline: Optional[float]) -> Optional[float]:
    """Seconds until ``deadline`` for a lock acquire (None: no deadline)."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def _poll(fd: int, event: int, deadline: Optional[float]) -> None:
    """Sleep until ``fd`` may be ready for ``event`` — one ``_WAIT_SLICE``
    at most, and not past ``deadline``."""
    wait = _WAIT_SLICE
    if deadline is not None:
        wait = min(wait, max(0.0, deadline - time.monotonic()))
    poller = select.poll()
    poller.register(fd, event)
    poller.poll(wait * 1000)


class ShmRingTransport:
    """A blocking MPMC ring of fixed-size slots in named shared memory.

    Layout: a 128-byte header of aligned-int64 cursors, then ``slots``
    cells of ``slot_bytes`` each.  A message occupies one or more
    *contiguous* cells — the first carries the 16-byte slot header (seq,
    length, flags), the payload runs through the rest.  A message that
    would straddle the ring end is preceded by a WRAP marker that skips
    the remainder of the lap, so payload bytes are always one contiguous
    span (decode is a single ``pickle.loads``/slice over the mapping).

    Publication is torn-write safe the :mod:`repro.obs.spool` way: the
    writer fills payload, length, and flags first and stores the slot's
    seq *last*; a reader polling the head slot treats any seq other than
    the one it expects as "not yet published" — a crashed writer leaves a
    stale seq, never a half-read frame.

    Concurrency: senders serialize on ``send_lock``, receivers on
    ``recv_lock`` (both channels are multi-producer — N workers share the
    done channel, and crashed workers hand chunks back to the work
    channel — and the work channel is multi-consumer).  The writer-side
    cursors (``tail_slot``, ``next_seq``) and reader-side cursors
    (``read_slot``, ``read_seq``) live *in the segment* under their
    respective locks so every process sees one truth; ``head_slot`` (the
    reader's cumulative freed count) is published with a plain aligned
    store and read locklessly by writers for flow control — a stale read
    only makes a writer wait one poll longer.

    Frames decode inside the recv lock, straight out of the mapping
    (:func:`decode`: ``pickle.loads`` on a memoryview slice, or a raw
    frame's ``bytes`` fields copied out one each) — the slot cannot be
    reused until the reader publishes the new ``head_slot``, so the view
    is stable for exactly as long as it is read.  A sender's :func:`encode`
    parts, raw ``bytes`` fields included, are copied straight into the
    slots.
    """

    kind = "shm"

    #: Defaults: 256 slots x 8 KiB = a 2 MiB ring per channel.  A frame of
    #: 64 protocol tuples pickles to ~2 KiB (one slot); the largest single
    #: message may span the whole ring minus one header.
    DEFAULT_SLOTS = 256
    DEFAULT_SLOT_BYTES = 8192

    def __init__(
        self,
        ctx,
        slots: int = DEFAULT_SLOTS,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> None:
        from multiprocessing import shared_memory

        if slots < 2:
            raise ValueError("shm ring needs at least 2 slots")
        if slot_bytes < _SLOT_HEADER.size + 8:
            raise ValueError("shm ring slots too small for a header")
        self.slots = slots
        self.slot_bytes = slot_bytes
        name = f"{SHM_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
        self._shm = shared_memory.SharedMemory(
            create=True, name=name, size=_RING_BASE + slots * slot_bytes
        )
        self.name = self._shm.name
        #: Only the creating process unlinks the segment (attachers merely
        #: unmap); the owner's resource_tracker registration doubles as the
        #: SIGKILL backstop — the tracker unlinks once every mapper died.
        self._owner_pid = os.getpid()
        buf = self._shm.buf
        buf[:_RING_BASE] = b"\0" * _RING_BASE
        for k in range(slots):
            _SLOT_HEADER.pack_into(
                buf, _RING_BASE + k * slot_bytes, -1, 0, 0
            )
        self.send_lock = ctx.Lock()
        self.recv_lock = ctx.Lock()
        #: Wakeups are raw semaphore tokens, not ``ctx.Event``s: an Event
        #: is a Condition over a Lock, and a peer SIGKILLed inside that
        #: lock would wedge every later ``set()`` forever.  ``sem_post``
        #: can never block and ``sem_timedwait`` needs no helper lock, so
        #: the wake path survives any peer death.  Waiters declare
        #: themselves in the header first (the ``*_WAIT`` flag words), so
        #: the steady-state fast path pays no semaphore traffic at all;
        #: drain-then-recheck-then-wait keeps the handoff lossless.
        self.data_sem = ctx.Semaphore(0)
        self.space_sem = ctx.Semaphore(0)
        self._closed = False

    # -- pickling (spawn start method) --------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_shm"] = None
        return state

    def __setstate__(self, state):
        from multiprocessing import resource_tracker, shared_memory

        self.__dict__.update(state)
        self._shm = shared_memory.SharedMemory(name=self.name)
        # Attaching registers with the resource tracker on some Python
        # versions; unregister so a child exiting cannot unlink the ring
        # out from under the rest of the pipeline (bpo-39959).
        try:
            resource_tracker.unregister(self._shm._name, "shared_memory")
        except Exception:
            pass

    # -- helpers ------------------------------------------------------------------

    @property
    def max_payload(self) -> int:
        return self.slots * self.slot_bytes - _SLOT_HEADER.size

    def _cells(self, payload_len: int) -> int:
        """Contiguous slots a message of ``payload_len`` bytes occupies."""
        return -(-(payload_len + _SLOT_HEADER.size) // self.slot_bytes)

    def _wait_space(self, buf, tail: int, cells: int, deadline, abort) -> None:
        """Block (holding the send lock) until ``cells`` slots are free —
        or the deadline passes, or ``abort()`` holds."""
        if tail + cells - _I64.unpack_from(buf, _OFF_HEAD)[0] <= self.slots:
            return
        # Declare the wait in the header first (a plain aligned store the
        # reader polls instead of paying a semaphore signal per message),
        # then drain-then-recheck so a slot freed in between leaves a
        # token the timed wait below consumes immediately.
        _I64.pack_into(buf, _OFF_SPACE_WAIT, 1)
        try:
            while (
                tail + cells - _I64.unpack_from(buf, _OFF_HEAD)[0]
                > self.slots
            ):
                while self.space_sem.acquire(False):
                    pass
                if (
                    tail + cells - _I64.unpack_from(buf, _OFF_HEAD)[0]
                    <= self.slots
                ):
                    return
                if abort is not None and abort():
                    raise TransportFull("shm ring full, sender told to stop")
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TransportFull("shm ring full")
                    self.space_sem.acquire(True, min(remaining, _WAIT_SLICE))
                else:
                    self.space_sem.acquire(True, _WAIT_SLICE)
        finally:
            _I64.pack_into(buf, _OFF_SPACE_WAIT, 0)

    # -- send ---------------------------------------------------------------------

    def send(
        self,
        items: List[Any],
        framed: bool,
        timeout: Optional[float],
        abort: Optional[Callable[[], bool]] = None,
    ) -> float:
        if self._closed:
            raise OSError("shm ring transport is closed")
        deadline = _deadline(timeout)
        started = time.perf_counter()
        flags, parts = encode(items, framed)
        serialize_seconds = time.perf_counter() - started
        payload_len = sum(map(len, parts))
        if payload_len > self.max_payload:
            raise FrameTooLarge(
                f"message of {payload_len} bytes exceeds shm ring capacity "
                f"({self.max_payload} bytes); construct the channel with a "
                f"larger ring or use the pipe transport"
            )
        cells = self._cells(payload_len)
        if not self.send_lock.acquire(timeout=_remaining(deadline)):
            raise TransportFull("shm ring send lock busy")
        try:
            buf = self._shm.buf
            tail = _I64.unpack_from(buf, _OFF_TAIL_SLOT)[0]
            seq = _I64.unpack_from(buf, _OFF_NEXT_SEQ)[0]
            index = tail % self.slots
            if index + cells > self.slots:
                # The message will not fit before the ring end: publish a
                # WRAP marker (it consumes one seq and the rest of the
                # lap) and restart at slot 0.  A timeout after this point
                # leaves a consistent ring — the marker is simply skipped
                # by the reader and the message retries on fresh credit.
                skip = self.slots - index
                self._wait_space(buf, tail, skip, deadline, abort)
                offset = _RING_BASE + index * self.slot_bytes
                struct.pack_into("<II", buf, offset + 8, 0, _FLAG_WRAP)
                _I64.pack_into(buf, offset, seq)
                tail += skip
                seq += 1
                index = 0
                _I64.pack_into(buf, _OFF_TAIL_SLOT, tail)
                _I64.pack_into(buf, _OFF_NEXT_SEQ, seq)
                # Wake a waiting reader now: the payload wait below may
                # itself block on the reader skipping this marker and
                # freeing the tail of the lap.
                if _I64.unpack_from(buf, _OFF_DATA_WAIT)[0]:
                    self.data_sem.release()
            self._wait_space(buf, tail, cells, deadline, abort)
            offset = _RING_BASE + index * self.slot_bytes
            # The parts land straight in the mapped segment: a raw frame's
            # ``bytes`` fields are copied once, from the sender's objects.
            cursor = offset + _SLOT_HEADER.size
            for part in parts:
                end = cursor + len(part)
                buf[cursor:end] = part
                cursor = end
            struct.pack_into("<II", buf, offset + 8, payload_len, flags)
            _I64.pack_into(buf, offset, seq)  # publication point
            _I64.pack_into(buf, _OFF_TAIL_SLOT, tail + cells)
            _I64.pack_into(buf, _OFF_NEXT_SEQ, seq + 1)
            # Signal only a declared waiter: a steady-state reader never
            # sleeps, and an unconditional wake per message would cost
            # more semaphore traffic than the copy itself.
            wake = _I64.unpack_from(buf, _OFF_DATA_WAIT)[0]
        finally:
            self.send_lock.release()
        if wake:
            self.data_sem.release()
        return serialize_seconds

    # -- recv ---------------------------------------------------------------------

    def recv(
        self, timeout: Optional[float]
    ) -> Tuple[Optional[List[Any]], Any, float]:
        deadline = _deadline(timeout)
        if not self.recv_lock.acquire(timeout=timeout):
            raise TransportEmpty("shm ring recv lock busy") from None
        try:
            return self._read_locked(deadline)
        finally:
            self.recv_lock.release()

    def recv_nowait(self) -> Tuple[Optional[List[Any]], Any, float]:
        # Bounded acquire: a peer killed while holding the lock must not
        # wedge drain/teardown paths — they treat "busy" as "empty".
        if not self.recv_lock.acquire(timeout=0.01):
            raise TransportEmpty("shm ring recv lock busy") from None
        try:
            return self._read_locked(time.monotonic())
        finally:
            self.recv_lock.release()

    def _read_locked(
        self, deadline: Optional[float]
    ) -> Tuple[Optional[List[Any]], Any, float]:
        if self._closed:
            raise OSError("shm ring transport is closed")
        buf = self._shm.buf
        read_slot = _I64.unpack_from(buf, _OFF_READ_SLOT)[0]
        read_seq = _I64.unpack_from(buf, _OFF_READ_SEQ)[0]
        while True:
            index = read_slot % self.slots
            offset = _RING_BASE + index * self.slot_bytes
            seq, length, flags = _SLOT_HEADER.unpack_from(buf, offset)
            if seq != read_seq:
                # Unpublished (or torn: a writer died mid-fill leaves the
                # stale seq of a previous lap) — nothing to consume yet.
                # Declare the wait (plain store writers poll), then
                # drain-then-recheck: a publication landing after the
                # drain leaves a token the timed wait consumes at once,
                # so no wakeup is ever lost.
                _I64.pack_into(buf, _OFF_DATA_WAIT, 1)
                try:
                    while self.data_sem.acquire(False):
                        pass
                    if _I64.unpack_from(buf, offset)[0] == read_seq:
                        continue
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TransportEmpty("shm ring empty")
                        self.data_sem.acquire(True, min(remaining, _WAIT_SLICE))
                    else:
                        self.data_sem.acquire(True, _WAIT_SLICE)
                finally:
                    _I64.pack_into(buf, _OFF_DATA_WAIT, 0)
                continue
            if flags == _FLAG_WRAP:
                read_slot += self.slots - index
                read_seq += 1
                self._publish_read(buf, read_slot, read_seq)
                continue
            body = offset + _SLOT_HEADER.size
            started = time.perf_counter()
            items, single = decode(flags, buf, body, body + length)
            deserialize_seconds = time.perf_counter() - started
            read_slot += self._cells(length)
            read_seq += 1
            self._publish_read(buf, read_slot, read_seq)
            return items, single, deserialize_seconds

    def _publish_read(self, buf, read_slot: int, read_seq: int) -> None:
        _I64.pack_into(buf, _OFF_READ_SLOT, read_slot)
        _I64.pack_into(buf, _OFF_READ_SEQ, read_seq)
        # Freed slots become visible to writers last (aligned store).
        _I64.pack_into(buf, _OFF_HEAD, read_slot)
        if _I64.unpack_from(buf, _OFF_SPACE_WAIT)[0]:
            self.space_sem.release()

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        owner = os.getpid() == self._owner_pid
        try:
            self._shm.close()
        except BufferError:
            # A live memoryview pins the mapping (an interrupted decode);
            # leave it mapped — unlink below still reclaims the name.
            pass
        if owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __repr__(self) -> str:
        return (
            f"ShmRingTransport({self.name!r}, slots={self.slots}, "
            f"slot_bytes={self.slot_bytes})"
        )


class ThreadTransport:
    """In-process wire for thread-mode pipelines: items move by reference.

    No serialization, no copies, no kernel — the channel's credit counters
    still bound occupancy, STOP and chaos semantics are unchanged.  Not
    picklable: a thread transport cannot cross a process boundary.
    """

    kind = "thread"

    def __init__(self) -> None:
        self._messages: deque = deque()
        self._ready = Condition()

    def send(
        self,
        items: List[Any],
        framed: bool,
        timeout: Optional[float],
        abort: Optional[Callable[[], bool]] = None,
    ) -> float:
        message = (list(items), framed)
        with self._ready:
            self._messages.append(message)
            self._ready.notify()
        return 0.0

    def recv(
        self, timeout: Optional[float]
    ) -> Tuple[Optional[List[Any]], Any, float]:
        with self._ready:
            if not self._messages and not self._ready.wait_for(
                lambda: self._messages, timeout
            ):
                raise TransportEmpty("thread transport empty")
            items, framed = self._messages.popleft()
        if framed:
            return items, None, 0.0
        return None, items[0], 0.0

    def recv_nowait(self) -> Tuple[Optional[List[Any]], Any, float]:
        with self._ready:
            if not self._messages:
                raise TransportEmpty("thread transport empty")
            items, framed = self._messages.popleft()
        if framed:
            return items, None, 0.0
        return None, items[0], 0.0

    def close(self) -> None:
        # Shared by every thread of the pipeline; a "crashing" worker
        # thread closing its channel must not sever the others.
        pass

    def __reduce__(self):
        raise TypeError(
            "ThreadTransport is in-process only and cannot be pickled; "
            "use the 'pipe' or 'shm' transport for process workers"
        )


#: The transport axis ``--transport`` exposes.
TRANSPORT_KINDS = ("pipe", "shm", "thread")


def make_transport(
    kind: str,
    ctx,
    capacity: int,
    *,
    ring_slots: int = ShmRingTransport.DEFAULT_SLOTS,
    ring_slot_bytes: int = ShmRingTransport.DEFAULT_SLOT_BYTES,
):
    """Build a transport backend by name (see :data:`TRANSPORT_KINDS`).
    ``capacity`` is the channel's, for callers that have one to state: no
    wire bounds its traffic by message count, item credit does that."""
    if kind == "pipe":
        return PipeTransport(ctx)
    if kind == "shm":
        return ShmRingTransport(
            ctx, slots=ring_slots, slot_bytes=ring_slot_bytes
        )
    if kind == "thread":
        return ThreadTransport()
    raise ValueError(
        f"unknown transport {kind!r}; expected one of {TRANSPORT_KINDS}"
    )


# -- /dev/shm leak auditing -------------------------------------------------------


def orphaned_segments(include_generic: bool = False) -> List[str]:
    """Names of shared-memory segments this package (or, with
    ``include_generic``, any ``multiprocessing.shared_memory`` user)
    currently holds in ``/dev/shm``.

    On platforms without a ``/dev/shm`` the audit is vacuously clean.
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    ours = [name for name in sorted(entries) if name.startswith(SHM_PREFIX)]
    if include_generic:
        ours += [name for name in sorted(entries) if name.startswith("psm_")]
    return ours


def reap_stale_segments() -> List[str]:
    """Unlink ring segments whose creating process no longer exists.

    A SIGKILL of the whole process *group* takes the resource tracker down
    with the run, so nobody is left to unlink — the one crash shape no
    in-flight backstop can cover.  Segment names embed the creator pid
    (``repro-shm-<pid>-<hex>``), so a later process can prove staleness
    and reclaim the name.  Unlinking only removes the name: a straggling
    child still unwinding keeps its mapping until it exits.
    """
    from multiprocessing import shared_memory

    reaped = []
    for name in orphaned_segments():
        try:
            pid = int(name.split("-")[2])
        except (IndexError, ValueError):
            continue
        try:
            os.kill(pid, 0)
            continue  # creator alive: the segment may be in flight
        except ProcessLookupError:
            pass
        except PermissionError:
            continue  # pid reused by another user's process
        try:
            segment = shared_memory.SharedMemory(name=name)
            segment.close()
            segment.unlink()
            reaped.append(name)
        except FileNotFoundError:
            pass
    return reaped


def wait_for_reclaim(timeout: float = 5.0) -> List[str]:
    """Segments still present after giving lagging reclaims ``timeout``
    seconds — after a SIGKILL the resource tracker unlinks a segment only
    once every mapping process has died, which takes up to one
    orphan-guard poll interval.  Empty list = clean."""
    deadline = time.monotonic() + timeout
    leaked = orphaned_segments()
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = orphaned_segments()
    return leaked


def assert_no_orphans(timeout: float = 5.0) -> None:
    """Fail loudly if orphaned ``repro-shm-*`` segments persist past the
    reclaim wait window."""
    leaked = wait_for_reclaim(timeout)
    if leaked:
        raise AssertionError(
            f"orphaned shared-memory segments in {_SHM_DIR}: {leaked}"
        )

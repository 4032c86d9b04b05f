"""The wires' internals and the transport plane.

``tests/test_exec_batching`` proves the *channel* contracts hold on every
backend; this file covers what only one wire can get wrong.  The direct
pipe (no feeder thread: the caller writes and reads the fd itself):

- a message is never torn: a writer SIGKILLed inside one leaves the wire
  abandoned — readers see it empty, other writers see it full, both within
  their own deadlines — and nothing after the tear is ever decoded;
- a full pipe honours the send deadline and ``abort`` (cleanly before the
  first byte, by abandoning the wire after it), ``recv_nowait`` never
  blocks, and a reader whose deadline passes inside a message resumes it,
  and reads the larger and smaller messages after it whole;
- a raw frame cut at any byte comes out whole once the rest arrives, each
  ``bytes`` field a ``bytes``, while a second view of the pipe reads it
  empty; a ``spawn`` child is handed no half-read frame;
- an engine parent SIGKILLed while a worker is inside a message larger
  than the pipe buffer strands nobody.

The shm ring:

- publication ordering: a slot whose seq is not yet published (a writer
  died mid-fill, leaving a torn write) is never consumed;
- wrap markers: messages that would straddle the ring end skip to slot 0
  and FIFO order survives arbitrary payload-size mixes (property-based);
- full-ring backpressure: a stuffed ring raises ``TransportFull`` at the
  deadline and recovers once the reader frees slots;
- the raw codec: frames of one flat shape of int64, float and ``bytes``
  fields with a ``bytes`` among them (bare ``bytes``, engine work triples)
  cross both wires without a call to pickle and come back bit for bit; lookalikes are pickled and come
  back as they were; an engine run of ``bytes`` values pickles no work
  frame;
- segment lifecycle: the owner unlinks on close, attached copies never
  unlink, pickling attaches by name, a SIGKILLed run leaks nothing the
  resource tracker cannot reclaim, and ``reap_stale_segments`` reclaims
  the one shape nothing in-flight can (the whole group died at once);
- the thread backend is deliberately unpicklable, and pool/engine reject
  transports that cannot reach their workers.
"""

import copy
import fcntl
import multiprocessing
import os
import pickle
import random
import signal
import struct
import subprocess
import sys
import termios
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import transport as transport_module
from repro.exec.channels import ChannelTimeout, ProcessChannel
from repro.exec.engine import ExecutionEngine, PipelineSpec, run_sequential
from repro.exec.transport import (
    SHM_PREFIX,
    FrameTooLarge,
    PipeTransport,
    ShmRingTransport,
    ThreadTransport,
    TransportEmpty,
    TransportFull,
    _FLAG_FIELDS,
    _FLAG_FRAME,
    _FLAG_RAW,
    encode,
    make_transport,
    orphaned_segments,
    reap_stale_segments,
    wait_for_reclaim,
)

CTX = multiprocessing.get_context()


def tiny_ring(slots=4, slot_bytes=64):
    return ShmRingTransport(CTX, slots=slots, slot_bytes=slot_bytes)


# -- the direct pipe ------------------------------------------------------------------

#: Every wait below gives up here; nothing should get close.
DEADLINE = 20.0


def _until(condition, what):
    deadline = time.monotonic() + DEADLINE
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def _joined(process):
    process.join(DEADLINE)
    assert not process.is_alive()
    return process.exitcode


def _queued_bytes(pipe):
    """Bytes written to the pipe and not yet read."""
    return int.from_bytes(
        fcntl.ioctl(pipe._reader.fileno(), termios.FIONREAD, b"\0" * 4),
        sys.byteorder,
    )


def _pipe_bytes(pipe):
    return fcntl.fcntl(pipe._writer.fileno(), fcntl.F_GETPIPE_SZ)


def stamped(writer, seq, size):
    """A frame that says what it must contain: any tear or splice shows."""
    return [bytes([writer]) * size, b"%d:%d" % (writer, seq)]


def check_stamped(items):
    body, tag = items
    writer, _seq = tag.split(b":")
    assert body == bytes([int(writer)]) * len(body), "spliced frame decoded"
    return int(writer)


def _write_stamped_frames(pipe, writer, size, sent, stop):
    """Frames until told to stop — or until the wire refuses one, which is
    how a writer learns that a peer died holding the send lock.  ``sent``
    and ``stop`` are raw shared cells: an ``Event`` has a lock inside, and
    a writer SIGKILLed in it would hang everyone who asks afterwards."""
    while not stop.value:
        try:
            pipe.send(stamped(writer, sent.value, size), True, timeout=0.2)
        except TransportFull:
            return
        sent.value += 1


def _send_small_until_refused(pipe, outcome):
    """What a surviving writer sees on a wire someone else tore."""
    try:
        pipe.send([b"after the tear"], True, timeout=0.2)
        outcome.value = 1
    except TransportFull:
        outcome.value = 2


#: Raw frames small enough to cut at every byte: bare ``bytes`` and work
#: triples, each with a zero-length field.
CUT_FRAMES = [
    [b"ab", b"", b"xyz"],
    [(1, b"abc", 0.5), (-2, b"", -0.0), ((1 << 63) - 1, b"q", float("nan"))],
]


def _recv_and_compare(pipe, expected, outcome):
    """A spawned reader: 1 in ``outcome`` if the next message is
    ``expected``, type for type."""
    items = pipe.recv(timeout=DEADLINE)[0]
    outcome.value = 1 if typed(items) == typed(expected) else 2


class TestDirectPipe:
    def test_pipe_max_size_is_read_once_per_process(self, monkeypatch):
        """An engine run makes two pipes (``work`` and ``done``); the
        system's pipe limit is read for the first only, and both get it."""
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(transport_module, "open", counting_open, raising=False)
        transport_module._pipe_max_size.cache_clear()
        channels = [
            ProcessChannel(8, name=name, ctx=CTX, transport="pipe")
            for name in ("work", "done")
        ]
        try:
            assert opened == ["/proc/sys/fs/pipe-max-size"]
            size = transport_module._pipe_max_size()
            if size:
                for channel in channels:
                    writer = channel._transport._writer.fileno()
                    assert fcntl.fcntl(writer, fcntl.F_GETPIPE_SZ) == size
        finally:
            for channel in channels:
                channel.close()

    @pytest.mark.parametrize("size", [3000, 200_000])
    def test_writer_killed_mid_run_tears_nothing_and_strands_nobody(
        self, size
    ):
        """Three writers, one SIGKILLed wherever it happens to be: between
        frames, holding the send lock, or (the larger size) inside a
        frame.  The stream goes on or the wire is dead; either way every
        frame that is decoded is whole, every ``recv`` keeps its deadline,
        and the survivors leave within theirs."""
        pipe = PipeTransport(CTX)
        stop = CTX.RawValue("b", 0)
        writers = [
            CTX.Process(
                target=_write_stamped_frames,
                args=(pipe, k, size + k, CTX.RawValue("l", 0), stop),
                daemon=True,
            )
            for k in range(3)
        ]
        try:
            for writer in writers:
                writer.start()
            seen = set()
            while len(seen) < 3:
                seen.add(check_stamped(pipe.recv(timeout=DEADLINE)[0]))
            os.kill(writers[0].pid, signal.SIGKILL)
            assert _joined(writers[0]) == -signal.SIGKILL
            for _ in range(500):
                began = time.monotonic()
                try:
                    check_stamped(pipe.recv(timeout=0.5)[0])
                except TransportEmpty:
                    assert time.monotonic() - began < 2.0
                    break
            stop.value = 1
            survivors = writers[1:]
            while any(writer.is_alive() for writer in survivors):
                try:  # whoever is parked on a full pipe gets room
                    check_stamped(pipe.recv(timeout=0.05)[0])
                except TransportEmpty:
                    pass
            assert [_joined(writer) for writer in survivors] == [0, 0]
        finally:
            for writer in writers:
                writer.kill()
                writer.join(DEADLINE)
            pipe.close()

    def test_writer_killed_inside_a_frame_abandons_the_wire(self):
        pipe = PipeTransport(CTX)
        sent = CTX.RawValue("l", 0)
        victim = CTX.Process(
            target=_write_stamped_frames,
            args=(pipe, 9, 4 * _pipe_bytes(pipe), sent, CTX.RawValue("b", 0)),
            daemon=True,
        )
        try:
            victim.start()
            # nobody reads: the frame cannot fit, so once bytes are queued
            # the victim is inside it, holding the send lock
            _until(lambda: _queued_bytes(pipe) > 0, "the frame to begin")
            assert sent.value == 0
            os.kill(victim.pid, signal.SIGKILL)
            assert _joined(victim) == -signal.SIGKILL
            # a survivor's send is refused at its own deadline...
            outcome = CTX.Value("i", 0)
            survivor = CTX.Process(
                target=_send_small_until_refused, args=(pipe, outcome)
            )
            survivor.start()
            assert _joined(survivor) == 0
            assert outcome.value == 2
            # ...and the torn frame is never handed to a reader, however
            # often it asks: to every caller the wire is just empty
            for _ in range(3):
                began = time.monotonic()
                with pytest.raises(TransportEmpty):
                    pipe.recv(timeout=0.05)
                assert time.monotonic() - began < 1.0
            with pytest.raises(TransportEmpty):
                pipe.recv_nowait()
            assert _queued_bytes(pipe) == 0  # all read, none decoded
        finally:
            victim.kill()
            pipe.close()

    def test_send_deadline_is_clean_before_the_first_byte(self):
        pipe = PipeTransport(CTX)
        try:
            sent = 0
            with pytest.raises(TransportFull):
                while True:
                    pipe.send([b"x" * 2048, b"y"], True, timeout=0.05)
                    sent += 1
            assert sent >= 16
            # refused whole: the lock is free and the stream intact
            assert pipe.recv(timeout=1.0)[0] == [b"x" * 2048, b"y"]
            for _ in range(sent - 1):
                pipe.recv(timeout=1.0)
            pipe.send(["recovered"], True, timeout=1.0)
            assert pipe.recv(timeout=1.0)[0] == ["recovered"]
        finally:
            pipe.close()

    def test_abort_ends_a_full_pipe_wait_and_the_channel_keeps_the_items(self):
        channel = ProcessChannel(
            10_000, name="work", ctx=CTX, batch_size=2, transport="pipe"
        )
        try:
            with pytest.raises(ChannelTimeout):
                while True:
                    channel.put_many([b"x" * 2048, b"y"], timeout=0.05)
            flushed = channel.produces
            assert channel.pending_items == 2
            told = threading.Event()
            threading.Timer(0.1, told.set).start()
            began = time.monotonic()
            with pytest.raises(ChannelTimeout):
                channel.flush(timeout=DEADLINE, abort=told.is_set)
            assert time.monotonic() - began < DEADLINE / 2
            # the refused frame gave its credit back and is still buffered
            assert channel.produces == flushed
            assert channel.pending_items == 2
            received = channel.drain()
            assert len(received) == flushed
            channel.flush(timeout=1.0)
            assert channel.drain() == [b"x" * 2048, b"y"]
        finally:
            channel.close()

    def test_abort_inside_a_frame_abandons_the_wire_for_good(self):
        pipe = PipeTransport(CTX)
        try:
            big = [b"b" * (2 * _pipe_bytes(pipe)), b"t"]
            with pytest.raises(TransportFull, match="abandoned"):
                pipe.send(big, True, timeout=DEADLINE, abort=lambda: True)
            began = time.monotonic()
            with pytest.raises(TransportFull):
                pipe.send([b"later"], True, timeout=DEADLINE)
            assert time.monotonic() - began < 1.0
            with pytest.raises(TransportEmpty):
                pipe.recv(timeout=0.05)
        finally:
            pipe.close()

    def test_reader_resumes_the_message_its_deadline_interrupted(self):
        """The writer is stopped inside a frame four pipe buffers long:
        ``recv_nowait`` takes what is there and returns at once, however
        often it is asked; once the writer runs again the frame comes out
        whole."""
        pipe = PipeTransport(CTX)
        frame = stamped(3, 0, 4 * _pipe_bytes(pipe))
        sender = CTX.Process(
            target=pipe.send, args=(frame, True, DEADLINE), daemon=True
        )
        try:
            sender.start()
            _until(lambda: _queued_bytes(pipe) > 0, "the frame to begin")
            os.kill(sender.pid, signal.SIGSTOP)
            for _ in range(3):
                began = time.monotonic()
                with pytest.raises(TransportEmpty):
                    pipe.recv_nowait()
                assert time.monotonic() - began < 1.0
            assert _queued_bytes(pipe) == 0  # taken, and kept for later
            os.kill(sender.pid, signal.SIGCONT)
            assert pipe.recv(timeout=DEADLINE)[0] == frame
            assert _joined(sender) == 0
            with pytest.raises(TransportEmpty):
                pipe.recv_nowait()
        finally:
            sender.kill()
            pipe.close()

    def test_resumed_reads_then_a_larger_and_a_smaller_message(self):
        """The deadline passes inside the header, then inside the payload
        of a raw work frame; each read resumes where the last stopped.  A
        larger raw message and a smaller pickled one follow, read whole."""
        pipe = PipeTransport(CTX)
        block = _pipe_bytes(pipe) // 8
        first = [(k, bytes([k]) * block, 0.5 * k) for k in range(2)]
        wire = b"".join(PipeTransport._wire(first, True))
        try:
            for piece in (wire[:3], wire[3 : len(wire) // 2]):
                os.write(pipe._writer.fileno(), piece)
                with pytest.raises(TransportEmpty):
                    pipe.recv(timeout=0.05)
                assert pipe._partial is not None
            os.write(pipe._writer.fileno(), wire[len(wire) // 2 :])
            assert typed(pipe.recv(timeout=DEADLINE)[0]) == typed(first)
            larger = [(k, bytes([k]) * (2 * block), -0.0) for k in range(2)]
            pipe.send(larger, True, timeout=DEADLINE)
            assert typed(pipe.recv(timeout=DEADLINE)[0]) == typed(larger)
            assert pipe._partial is None
            smaller = [("small", True)]
            pipe.send(smaller, True, timeout=DEADLINE)
            assert pipe.recv(timeout=DEADLINE)[0] == smaller
        finally:
            pipe.close()

    @pytest.mark.parametrize("frame", CUT_FRAMES, ids=["bare", "triples"])
    def test_a_raw_frame_cut_at_any_byte_resumes_whole(
        self, frame, monkeypatch
    ):
        """No process: the frame's wire bytes go in as two pieces, cut at
        every offset, with a ``recv(timeout=0)`` between them — read whole
        and decoded, then (``_OWN_READ`` 0) read field by field.  The
        reader keeps the cut and ``recv_lock`` (a second view of the pipe
        reads empty), then hands out the frame whole, each ``bytes`` field
        a ``bytes``."""
        assert encode(frame, True)[0] == _FLAG_RAW
        pipe = PipeTransport(CTX)
        other = copy.copy(pipe)  # same pipe and locks, its own read state
        try:
            for own_read, flag in ((1 << 30, _FLAG_RAW), (0, _FLAG_FIELDS)):
                monkeypatch.setattr(transport_module, "_OWN_READ", own_read)
                wire = b"".join(PipeTransport._wire(frame, True))
                assert PipeTransport._HEADER.unpack_from(wire)[1] == flag
                for cut in range(1, len(wire)):
                    os.write(pipe._writer.fileno(), wire[:cut])
                    with pytest.raises(TransportEmpty):
                        pipe.recv(timeout=0)
                    with pytest.raises(TransportEmpty):
                        other.recv_nowait()
                    os.write(pipe._writer.fileno(), wire[cut:])
                    items, single, _ = pipe.recv(timeout=0)
                    assert single is None
                    assert typed(items) == typed(frame)
                    fields = items if type(frame[0]) is bytes else [
                        item[1] for item in items
                    ]
                    assert all(type(field) is bytes for field in fields)
                assert _queued_bytes(pipe) == 0
        finally:
            pipe.close()

    def test_the_writer_flags_field_reads_by_the_mean_field_size(self):
        """Small ``bytes`` fields ride in the whole-message read (one copy
        each beats a read each); from ``_OWN_READ`` bytes a field on
        average, the reader reads each field on its own.  Both come back
        whole and type for type."""
        pipe = PipeTransport(CTX)
        small = [(k, bytes([k]) * 64, 0.5) for k in range(64)]
        large = [bytes([k]) * transport_module._OWN_READ for k in range(3)]
        try:
            for frame, flag in ((small, _FLAG_RAW), (large, _FLAG_FIELDS)):
                header = PipeTransport._wire(frame, True)[0]
                assert PipeTransport._HEADER.unpack(header)[1] == flag
                pipe.send(frame, True, timeout=DEADLINE)
                assert typed(pipe.recv(timeout=DEADLINE)[0]) == typed(frame)
        finally:
            pipe.close()

    def test_a_spawned_child_is_not_handed_the_half_read_frame(self):
        """The parent holds half a raw frame when it starts a ``spawn``
        child on the same pipe: the child's copy carries no read state
        (a generator would not pickle), the parent finishes its frame,
        and the child reads the next whole message."""
        spawn = multiprocessing.get_context("spawn")
        pipe = PipeTransport(spawn)
        first = [(k, bytes([k]) * 65536, 0.5 * k) for k in range(2)]
        second = [(-1, b"", 1.0), (7, b"next", -0.0)]
        wire = b"".join(PipeTransport._wire(first, True))
        outcome = spawn.RawValue("i", 0)
        child = spawn.Process(
            target=_recv_and_compare, args=(pipe, second, outcome),
            daemon=True,
        )
        try:
            os.write(pipe._writer.fileno(), wire[: len(wire) // 2])
            with pytest.raises(TransportEmpty):
                pipe.recv(timeout=0)
            assert pipe._partial is not None
            assert pipe.__getstate__()["_partial"] is None
            child.start()
            os.write(pipe._writer.fileno(), wire[len(wire) // 2 :])
            assert typed(pipe.recv(timeout=DEADLINE)[0]) == typed(first)
            pipe.send(second, True, timeout=DEADLINE)
            assert _joined(child) == 0
            assert outcome.value == 1
            assert _queued_bytes(pipe) == 0
        finally:
            if child.is_alive():
                child.kill()
            pipe.close()

    def test_recv_nowait_treats_a_dead_readers_lock_as_empty(self):
        pipe = PipeTransport(CTX)
        try:
            pipe.send(["unreachable"], False, timeout=1.0)
            assert pipe.recv_lock.acquire(timeout=1.0)  # "died" holding it
            began = time.monotonic()
            with pytest.raises(TransportEmpty):
                pipe.recv_nowait()
            assert time.monotonic() - began < 1.0
            pipe.recv_lock.release()
            assert pipe.recv_nowait()[1] == "unreachable"
        finally:
            pipe.close()

    def test_sigkilled_parent_strands_no_worker_inside_a_big_frame(self):
        """The committer stops reading (its first commit never returns), so
        both workers end up parked inside result frames no pipe buffer can
        hold; then the parent is SIGKILLed.  Every child must notice and
        leave within a few wait slices, abandoning its frame."""
        child_src = (
            "import multiprocessing, sys, time\n"
            f"sys.path.insert(0, {os.path.abspath('src')!r})\n"
            "from repro.exec.engine import ExecutionEngine, PipelineSpec\n"
            "def produce(i): return i\n"
            "def work(i, v): return bytes(3 << 20)\n"
            "def commit(i, r, acc):\n"
            "    pids = [p.pid for p in multiprocessing.active_children()]\n"
            "    print(*pids, flush=True)\n"
            "    time.sleep(600)\n"
            "spec = PipelineSpec(iterations=500, produce=produce,\n"
            "                    work=work, commit=commit,\n"
            "                    finalize=lambda acc: None)\n"
            "ExecutionEngine(workers=2, capacity=8, batch_size=2,\n"
            "                transport='pipe').run(spec)\n"
        )
        before = set(orphaned_segments())
        proc = subprocess.Popen(
            [sys.executable, "-c", child_src],
            stdout=subprocess.PIPE, start_new_session=True,
        )
        children = []
        try:
            children = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(children) >= 3  # the producer and both workers
            _until(
                lambda: _full_pipes(proc.pid),
                "the workers to run into the unread done pipe",
            )
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)
            _until(
                lambda: all(_gone(pid) for pid in children),
                "the orphaned stages to exit",
            )
        finally:
            for pid in [proc.pid] + children:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert set(orphaned_segments()) == before  # `repro shm-audit` clean


def _full_pipes(pid):
    """How many of the process's pipes are full, to within a page (the
    reader may have consumed part of the page at its head)."""
    full = 0
    for fd in os.listdir(f"/proc/{pid}/fd"):
        path = f"/proc/{pid}/fd/{fd}"
        try:
            if not os.readlink(path).startswith("pipe:"):
                continue
            end = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        except OSError:
            continue  # closed meanwhile
        try:
            queued = int.from_bytes(
                fcntl.ioctl(end, termios.FIONREAD, b"\0" * 4), sys.byteorder
            )
            size = fcntl.fcntl(end, fcntl.F_GETPIPE_SZ)
            full += queued + os.sysconf("SC_PAGE_SIZE") > size
        finally:
            os.close(end)
    return full


def _children(pid):
    """The pids of the process's children."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as children:
            return children.read().split()
    except FileNotFoundError:
        return []


def _gone(pid):
    """Exited (reaped or a zombie nobody reaps in this container)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


# -- oversize frames are split, not fatal -------------------------------------------


def produce_block(i):
    return bytes([i % 251]) * 65536


def block_sum(i, block):
    return (i, len(block), block[0])


def append_commit(i, result, acc):
    acc.setdefault("out", []).append(result)


def take_out(acc):
    return acc.get("out", [])


class TestOversizeFrames:
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_a_frame_the_ring_cannot_hold_is_split_not_fatal(self, transport):
        """32 x 64 KiB is more than the 2 MiB ring: this used to kill
        phase A with a ValueError and degrade the run to sequential."""
        spec = PipelineSpec(
            iterations=64, produce=produce_block, work=block_sum,
            commit=append_commit, finalize=take_out,
        )
        result = ExecutionEngine(
            workers=2, batch_size=32, transport=transport
        ).run(spec)
        assert result.output == run_sequential(spec)[0]
        assert not result.metrics.degraded_to_sequential
        assert not result.metrics.producer_crashed
        assert not orphaned_segments()

    def test_split_sticks_and_a_single_oversize_item_still_raises(self):
        ring = tiny_ring(slots=4, slot_bytes=64)
        channel = ProcessChannel(8, batch_size=8, transport=ring)
        try:
            blocks = [b"a" * 100, b"b" * 100, b"c" * 100, b"d" * 100]
            with pytest.raises(ChannelTimeout):
                # four cannot ever fit, two can — one such frame at a time
                channel.put_many(blocks, timeout=0.05)
            assert channel.batch_size == 2
            assert channel.get_many(8, timeout=1.0) == blocks[:2]
            channel.flush(timeout=1.0)
            assert channel.get_many(8, timeout=1.0) == blocks[2:]
            with pytest.raises(FrameTooLarge, match="larger ring"):
                channel.put_many([b"x" * 4096])
        finally:
            channel.close()


# -- publication ordering / torn writes --------------------------------------------


class TestTornWrites:
    def test_unpublished_slot_is_never_consumed(self):
        ring = tiny_ring()
        try:
            ring.send([b"live"], True, timeout=1.0)
            assert ring.recv(timeout=1.0)[0] == [b"live"]
            # A writer that died mid-fill: payload bytes land but the slot
            # seq was never published (it still holds a stale lap's value).
            buf = ring._shm.buf
            offset = 128 + (1 % ring.slots) * ring.slot_bytes
            struct.pack_into("<II", buf, offset + 8, 4, 1)  # length, FRAME
            struct.pack_into("<q", buf, offset, -7)  # seq never published
            with pytest.raises(TransportEmpty):
                ring.recv(timeout=0.1)
        finally:
            ring.close()

    def test_stale_previous_lap_seq_is_not_consumed(self):
        """After a full lap, a slot still holding last lap's seq must read
        as empty, not as a duplicate of the old message."""
        ring = tiny_ring()
        try:
            for lap in range(3):  # several laps over the same slots
                for k in range(2):
                    ring.send([b"x%d" % (lap * 2 + k)], True, timeout=1.0)
                    items, _, _ = ring.recv(timeout=1.0)
                    assert items == [b"x%d" % (lap * 2 + k)]
            with pytest.raises(TransportEmpty):
                ring.recv(timeout=0.05)
        finally:
            ring.close()


# -- wrap handling (property-based) ------------------------------------------------


class TestWrap:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=90),
            min_size=1,
            max_size=30,
        )
    )
    @settings(deadline=None, max_examples=30)
    def test_fifo_survives_arbitrary_wraps(self, sizes):
        """Messages sized to force wrap markers at unpredictable offsets
        still arrive complete and in order."""
        ring = tiny_ring(slots=4, slot_bytes=64)
        try:
            for n, size in enumerate(sizes):
                payload = bytes([n % 251]) * size
                ring.send([payload, b"t"], True, timeout=2.0)
                items, single, _ = ring.recv(timeout=2.0)
                assert single is None
                assert items == [payload, b"t"]
        finally:
            ring.close()

    def test_wrap_marker_skips_to_slot_zero(self):
        ring = tiny_ring(slots=4, slot_bytes=64)
        try:
            # Two sends leave the tail mid-ring; the third is sized so it
            # cannot fit before the ring end and must wrap.
            ring.send([b"a" * 30], True, timeout=1.0)
            ring.send([b"b" * 30], True, timeout=1.0)
            assert ring.recv(timeout=1.0)[0] == [b"a" * 30]
            assert ring.recv(timeout=1.0)[0] == [b"b" * 30]
            ring.send([b"c" * 80], True, timeout=1.0)  # needs 2 slots
            assert ring.recv(timeout=1.0)[0] == [b"c" * 80]
        finally:
            ring.close()


# -- full-ring backpressure --------------------------------------------------------


class TestBackpressure:
    def test_full_ring_raises_transport_full_then_recovers(self):
        ring = tiny_ring(slots=4, slot_bytes=64)
        try:
            sent = 0
            with pytest.raises(TransportFull):
                for _ in range(10):
                    ring.send([b"z" * 40], True, timeout=0.05)
                    sent += 1
            assert sent >= 1
            for _ in range(sent):  # reader frees slots
                ring.recv(timeout=1.0)
            ring.send([b"recovered"], True, timeout=1.0)
            assert ring.recv(timeout=1.0)[0] == [b"recovered"]
        finally:
            ring.close()

    def test_oversize_message_rejected_with_guidance(self):
        ring = tiny_ring(slots=4, slot_bytes=64)
        try:
            with pytest.raises(ValueError, match="larger ring"):
                ring.send([b"x" * 4096], True, timeout=1.0)
        finally:
            ring.close()


# -- the raw codec: frames of one flat shape skip pickle ----------------------------

FORK = multiprocessing.get_context("fork")

INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
#: Every double, and the ones equality cannot tell apart or from themselves.
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), float("nan")]),
)
#: Values from empty to 256 KiB; a seeded generator fills them, so
#: hypothesis draws a size and a seed, not the bytes.
BLOCKS = st.builds(
    lambda size, seed: random.Random(seed).randbytes(size),
    st.one_of(
        st.integers(0, 64),
        st.sampled_from([65536, 256 * 1024]),
        st.integers(0, 256 * 1024),
    ),
    st.integers(0, 1 << 16),
)
#: Engine work frames ``(i, value, a_seconds)``, ints at the int64 bounds.
RAW_TRIPLES = st.lists(
    st.tuples(st.one_of(INT64, st.sampled_from([-(1 << 63), (1 << 63) - 1])),
              BLOCKS, FLOATS),
    min_size=2, max_size=5,
)
RAW_BARE = st.lists(st.binary(max_size=256), min_size=2, max_size=24)


class BytesSubclass(bytes):
    """Must come back as itself, not as ``bytes``."""


#: Ways to make one item of a raw-eligible frame not quite fit the shape.
SPOILERS = (
    lambda i, value, a: (True, value, a),
    lambda i, value, a: (1 << 63, value, a),
    lambda i, value, a: (-(1 << 63) - 1, value, a),
    lambda i, value, a: (i, bytearray(value), a),
    lambda i, value, a: (i, BytesSubclass(value), a),
    lambda i, value, a: (i, (value,), a),
    lambda i, value, a: (i, value),
    lambda i, value, a: value,
)


@st.composite
def lookalikes(draw):
    """A work frame with one item spoiled, cut to a single item, or with
    every value a scalar (no ``bytes`` field left: it stays on pickle)."""
    frame = draw(RAW_TRIPLES)
    cut = draw(st.sampled_from(["spoil", "single", "scalars"]))
    if cut == "single":
        return frame[:1]
    if cut == "scalars":
        return [(i, draw(st.one_of(INT64, FLOATS)), a) for i, _, a in frame]
    at = draw(st.integers(0, len(frame) - 1))
    frame[at] = draw(st.sampled_from(SPOILERS))(*frame[at])
    return frame


LOOKALIKES = lookalikes()


def typed(value):
    """``value`` with every type and float bit pattern spelled out: ``-0.0``
    and ``0.0``, ``nan``, ``True`` and ``1``, ``bytes`` and a subclass all
    differ."""
    if type(value) in (list, tuple):
        return type(value), tuple(typed(v) for v in value)
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), value


def _cross(kind, frame):
    """``frame`` sent by another thread over a fresh ``kind`` wire (it may
    be larger than the pipe buffer) and read back."""
    wire = make_transport(kind, CTX, 64)
    sender = threading.Thread(target=wire.send, args=(frame, True, DEADLINE))
    try:
        sender.start()
        items, single, _ = wire.recv(timeout=DEADLINE)
        assert single is None
        return items
    finally:
        sender.join(DEADLINE)
        wire.close()


def _is_work_frame(obj):
    return type(obj) is list and any(
        type(item) is tuple and len(item) == 3 and type(item[1]) is bytes
        for item in obj
    )


class _CountingPickle:
    """Stands in for ``pickle`` inside ``repro.exec.transport``: counts its
    calls, and those carrying a work frame, in cells forked stages share."""

    HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

    def __init__(self):
        self.calls = FORK.RawValue("l", 0)
        self.work_frames = FORK.RawValue("l", 0)

    def _count(self, obj):
        self.calls.value += 1
        if _is_work_frame(obj):
            self.work_frames.value += 1

    def dumps(self, obj, protocol=None):
        self._count(obj)
        return pickle.dumps(obj, protocol)

    def loads(self, data):
        obj = pickle.loads(data)
        self._count(obj)
        return obj




class TestRawFastPath:
    def test_homogeneous_bytes_round_trip_without_pickle(self):
        ring = ShmRingTransport(CTX)
        try:
            frame = [os.urandom(64) for _ in range(16)]
            ring.send(frame, True, timeout=1.0)
            items, single, deser = ring.recv(timeout=1.0)
            assert single is None
            assert items == frame
            assert deser >= 0.0
        finally:
            ring.close()

    @given(st.lists(st.binary(min_size=0, max_size=128), min_size=2,
                    max_size=24))
    @settings(deadline=None, max_examples=25)
    def test_raw_mode_preserves_every_length_mix(self, frame):
        ring = ShmRingTransport(CTX)
        try:
            ring.send(frame, True, timeout=2.0)
            assert ring.recv(timeout=2.0)[0] == frame
        finally:
            ring.close()

    @pytest.mark.parametrize("kind", ["pipe", "shm"])
    @given(frame=st.one_of(RAW_TRIPLES, RAW_BARE))
    @settings(deadline=None, max_examples=30)
    def test_raw_frames_cross_equal_and_type_identical(self, kind, frame):
        assert encode(frame, True)[0] == _FLAG_RAW
        assert typed(_cross(kind, frame)) == typed(frame)

    @pytest.mark.parametrize("kind", ["pipe", "shm"])
    @given(frame=LOOKALIKES)
    @settings(deadline=None, max_examples=30)
    def test_lookalikes_take_pickle_and_come_back_type_identical(
        self, kind, frame
    ):
        assert encode(frame, True)[0] == _FLAG_FRAME
        assert typed(_cross(kind, frame)) == typed(frame)

    @pytest.mark.parametrize("kind", ["pipe", "shm"])
    def test_a_work_frame_crosses_without_pickle(self, kind, monkeypatch):
        """The ratchet: 16 work triples of 64 KiB each, no call to
        ``pickle.dumps`` or ``pickle.loads`` on either side."""
        counter = _CountingPickle()
        monkeypatch.setattr(transport_module, "pickle", counter)
        frame = [(i, produce_block(i), 0.001 * i) for i in range(16)]
        assert _cross(kind, frame) == frame
        assert counter.calls.value == 0

    @pytest.mark.parametrize("kind", ["pipe", "shm"])
    def test_an_engine_run_of_bytes_values_pickles_no_work_frame(
        self, kind, monkeypatch
    ):
        """Phase A yields 64 KiB blocks, so every work frame takes the raw
        mode, the crash-free hand-back included.  (A one-item chunk — the
        ramp's first, the last few — is an unframed message, pickled like
        STOP; ``done`` frames are protocol tuples, pickled too, which shows
        the counter reaches the forked stages.)"""
        counter = _CountingPickle()
        monkeypatch.setattr(transport_module, "pickle", counter)
        spec = PipelineSpec(
            iterations=96, produce=produce_block, work=block_sum,
            commit=append_commit, finalize=take_out,
        )
        result = ExecutionEngine(
            workers=2, batch_size=16, transport=kind, start_method="fork"
        ).run(spec)
        assert result.output == run_sequential(spec)[0]
        assert result.metrics.comm_overhead["work"]["flushes"] > 2
        assert counter.calls.value > 0
        assert counter.work_frames.value == 0


# -- segment lifecycle -------------------------------------------------------------


class TestLifecycle:
    def test_owner_close_unlinks_segment(self):
        ring = ShmRingTransport(CTX)
        name = ring.name
        assert name in orphaned_segments()
        ring.close()
        assert name not in orphaned_segments()
        ring.close()  # idempotent

    def test_state_copy_attaches_and_non_owner_close_keeps_segment(self):
        # mp locks refuse to pickle outside a real Process spawn, so drive
        # the state protocol directly — exactly what spawn would do.
        ring = ShmRingTransport(CTX)
        try:
            state = ring.__getstate__()
            assert state["_shm"] is None  # only the name crosses
            attached = ShmRingTransport.__new__(ShmRingTransport)
            attached.__setstate__(dict(state))
            attached._owner_pid = -1  # what a child's pid check sees
            ring.send([b"through the copy"], True, timeout=1.0)
            assert attached.recv(timeout=1.0)[0] == [b"through the copy"]
            attached.close()  # not the owner: the name must survive
            assert ring.name in orphaned_segments()
        finally:
            ring.close()
        assert ring.name not in orphaned_segments()

    def test_cross_process_round_trip(self):
        channel = ProcessChannel(capacity=64, batch_size=8, transport="shm")

        def child(chan):
            chan.put_many([(k, bytes([k])) for k in range(40)], timeout=5.0)
            chan.flush_and_close(timeout=5.0)

        process = CTX.Process(target=child, args=(channel.for_caller(),))
        process.start()
        try:
            received = []
            while len(received) < 40:
                received.extend(channel.get_many(8, timeout=5.0))
            assert received == [(k, bytes([k])) for k in range(40)]
        finally:
            process.join(5.0)
            channel.close()
        assert not orphaned_segments()

    def test_reap_stale_segments_reclaims_dead_creators(self):
        from multiprocessing import shared_memory

        # A pid that provably no longer exists: a child that already exited.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        name = f"{SHM_PREFIX}{child.pid}-deadbeef"
        segment = shared_memory.SharedMemory(name=name, create=True, size=64)
        segment.close()
        try:
            reaped = reap_stale_segments()
            assert name in reaped
            assert name not in orphaned_segments()
        finally:
            try:
                shared_memory.SharedMemory(name=name).unlink()
            except FileNotFoundError:
                pass

    def test_sigkilled_run_leaks_no_segments(self):
        """SIGKILL the engine parent mid-flight: children notice
        orphanhood and exit, and the resource tracker unlinks both rings.
        The acceptance gate for the whole lifecycle design."""
        child_src = (
            "import sys, time\n"
            f"sys.path.insert(0, {os.path.abspath('src')!r})\n"
            "from repro.exec.engine import ExecutionEngine, PipelineSpec\n"
            "def produce(i): return i\n"
            "def work(i, v):\n"
            "    time.sleep(0.02)\n"
            "    return v + 1\n"
            "def commit(i, r, acc): acc.setdefault('xs', []).append(r)\n"
            "spec = PipelineSpec(iterations=5000, produce=produce,\n"
            "                    work=work, commit=commit,\n"
            "                    finalize=lambda acc: None)\n"
            "print('starting', flush=True)\n"
            "ExecutionEngine(workers=2, capacity=32, batch_size=8,\n"
            "                transport='shm').run(spec)\n"
        )
        before = set(orphaned_segments())
        proc = subprocess.Popen(
            [sys.executable, "-c", child_src],
            stdout=subprocess.PIPE, start_new_session=True,
        )
        try:
            proc.stdout.readline()  # engine is up
            # mid-flight: a segment's file exists before the creator has
            # registered it with the resource tracker (whose first
            # registration starts it), so wait for the stages too — the
            # tracker and two stages are children once both rings are made
            _until(
                lambda: set(orphaned_segments()) - before
                and len(_children(proc.pid)) >= 3,
                "the run's segments to exist and its stages to start",
            )
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
        leaked = [
            name for name in wait_for_reclaim(timeout=15.0)
            if name not in before
        ]
        assert not leaked, f"SIGKILLed run leaked {leaked}"


# -- backend registry and rejections -----------------------------------------------


class TestRegistry:
    def test_make_transport_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown transport"):
            make_transport("carrier-pigeon", CTX, 16)

    def test_thread_transport_is_unpicklable_by_design(self):
        transport = ThreadTransport()
        with pytest.raises(TypeError):
            pickle.dumps(transport)

    def test_engine_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            ExecutionEngine(transport="bogus")

    def test_pool_rejects_thread_transport(self):
        from repro.service.pool import WorkerPool

        with pytest.raises(ValueError, match="pipe.*shm"):
            WorkerPool(transport="thread")

"""Inter-process channels with the paper's full/empty blocking semantics.

:class:`ProcessChannel` is a bounded FIFO where a produce *blocks* while
the channel is full and a consume *blocks* while it is empty — the
synchronization-array behaviour the simulator models on its 256 32-entry
queues (:func:`repro.core.simulator.schedule`), realized on real OS pipes.

The wire beneath the channel is pluggable (:mod:`repro.exec.transport`):
an OS pipe of length-prefixed messages, a zero-copy shared-memory ring
(``transport="shm"``), or an in-process deque for thread-mode pipelines
(``transport="thread"``).  The channel layer adds what the engine needs on
top of any wire:

**Batched framed transport (the fast path).**  The paper's synchronization
array moves a value between cores in a handful of cycles; a message per
work item instead pays a pickle, a pipe write, and two shared-memory lock
acquisitions per item, so small-payload pipelines are dominated by
communication overhead.  A channel constructed with
``batch_size > 1`` therefore *frames* its traffic: producers accumulate up
to ``batch_size`` items and flush them as one frame — a single serialized
payload, one pipe round-trip — when the batch fills, when ``flush_interval``
seconds have passed since the first buffered item (the latency bound), or
when the producer explicitly flushes (on STOP, before blocking waits, and
at close).  Consumers unframe transparently: :meth:`get` still hands back
one item at a time, in order, so the committer, throttle watermarks, chaos
schedules, and exactly-once dedup all keep their per-item semantics.

Frames are serialized once, by the wire
(:func:`repro.exec.transport.encode`).  A frame of two or more items that
all share one flat shape of int64, float and ``bytes`` fields, at least
one of them ``bytes``, skips pickle: an index holds the shape and the
scalars, and the ``bytes`` go in place — written from the producer's own
objects, copied once into each rebuilt item.  The engine's work frames
take this raw mode whenever phase A yields ``bytes`` (``(i, value,
a_seconds)`` with a ``bytes`` value; 64 KiB blocks on ``pipeline-bulk``);
work frames of scalar values, ``done`` frames of protocol tuples, and any
other frame are pickled once at ``HIGHEST_PROTOCOL``.  A multi-item frame
the wire can never hold (``transport.FrameTooLarge``: 32 items of 64 KiB
against a 2 MiB ring) is split, down to single items, and the channel
keeps to the smaller frame from then on.

**Capacity is counted in items, not frames.**  The bounded-queue invariant
("no channel ever observed above its 32-entry capacity") must survive
batching, so flow control is credit-based on the shared produce/consume
counters: a flush blocks while ``produces - consumes + frame_len`` would
exceed ``capacity``.  :meth:`sample_occupancy` likewise reports
item-granular occupancy, never frames.

**Counter cells, no locks.**  Every counter — produces, consumes,
flushes, STOP tokens, (de)serialize seconds — is a row of shared cells,
one cell per *seat*: the creating process has seat 0 and every
:meth:`~ProcessChannel.for_caller` / :meth:`~ProcessChannel.for_stage`
view gets one of its own, given back by :meth:`~ProcessChannel.unseat`.
A cell has one writer, so an update is a plain aligned store and a stage
killed at any instant leaves every cell whole and no lock held; a reader
sums the row, consumes before produces (the registry's reverse-causal
order, :mod:`repro.obs.registry`).  Credit is check-then-add on the
producer's own cell, so producers that check at once can each pass: with
``P`` producers putting at once a channel holds at most
:meth:`~ProcessChannel.occupancy_bound` items — ``capacity`` plus one
frame for every producer past the first.  A channel with one producer
(phase A on ``work``) never holds more than ``capacity``.

**Back-pressure is a wake-up, not a poll.**  A flush that finds no credit
blocks on the channel's :class:`Wakeup`; whoever advances the consume
counter posts it.  The engine's throttle gate
(:class:`repro.exec.workers.ThrottleGate`) waits on the same primitive.

Chaos decisions (:class:`ChannelChaos`) are keyed by *item* index and are
applied exactly once, when the item is accepted into the send buffer — so a
flush that times out and is retried can never re-apply a latency sleep or
re-enqueue the first copy of a duplicated put.  Consequently a
:class:`ChannelTimeout` from :meth:`put`/:meth:`put_many` means *accepted
but not yet delivered*: retry with :meth:`flush`, not by re-putting the
item.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from repro.obs.events import CHANNEL_IDS, ChaosCode, EventKind
from repro.exec.faults import announce
from repro.exec import transport as _transport
from repro.exec.transport import (
    FrameTooLarge,
    TransportEmpty,
    TransportFull,
    make_transport,
)

#: Sentinel that survives pickling with identity-free equality: workers
#: compare by value, so the producer's copy and the worker's copy agree.
#: STOP is never buried mid-frame: putting it flushes the batch first and
#: sends the sentinel as its own unframed message.
STOP = ("__repro.exec.stop__",)

#: Frame tag of :func:`encode_frame`.  Payload items in this engine are
#: protocol tuples keyed by small ints/strings, so collision with user data
#: is not a practical concern (and is documented: do not send 3-tuples led
#: by this tag).
_FRAME_TAG = "__repro.exec.frame__"

#: Queue waits shorter than this are not traced: they are scheduling
#: noise, and recording them would swamp the bounded spool ring.
_TRACE_WAIT_NS = 100_000

#: Counter seats of one channel: the creating process's own plus one per
#: view alive at once (a stage, a thread, phase A of a pool job).
SEATS = 32

#: Where each counter's row of ``SEATS`` cells starts.  Item counts are
#: int64 cells (``_counts``), seconds are double cells (``_seconds``).
_PRODUCES, _CONSUMES, _FLUSHES, _STOPS_PUT, _STOPS_TAKEN = (
    k * SEATS for k in range(5)
)
_SERIALIZE, _DESERIALIZE = 0, SEATS


class ChannelTimeout(Exception):
    """A bounded get/put/flush did not complete within its timeout."""


def _missed_wake() -> None:
    """Test seam: a :class:`Wakeup` waiter found its condition true only
    after a backstop slice ran out, i.e. a wake was lost.  Tests count
    calls; production does nothing with them."""


class Wakeup:
    """Event-driven blocking for any number of processes (or threads)
    waiting on one shared condition — the engine's single back-pressure
    wait, used for channel credit and for the throttle gate.

    The N-waiter form of the *declare -> re-check -> timed wait*
    discipline ``ShmRingTransport._wait_space`` uses.  A waiter declares
    itself parked, re-checks its condition, then sleeps on its bell;
    whoever changes the condition calls :meth:`wake` *afterwards*, which
    rings every bell — and does nothing when nobody is parked, so the
    steady-state fast path pays one counter read.  Either the waker sees
    the declaration or the waiter's re-check sees the change: no wake is
    lost.

    **One bell per stage.**  Waiters have different thresholds (frame
    sizes, iteration numbers), so a woken waiter may find its condition
    still false and sleep again — or pass, do a chunk of work and be back
    within a millisecond.  On a shared semaphore it then takes the token
    of a sibling the scheduler has not run yet, and the sibling sleeps
    out a whole backstop slice with the pipeline stalled behind it.
    Semaphores cannot be handed to a running process, so the creator
    makes the bells: :meth:`seat` returns a view with a bell of its own,
    to be called (in the creating process) once per stage about to be
    spawned.  Copies made any other way — a bare fork — share their
    origin's bell and race only each other for it.

    Everything is a raw semaphore: ``sem_post`` cannot block on peer
    state and there is no helper lock to die holding, so a SIGKILL at any
    instant — inside :meth:`wake` included — costs the survivors at most
    one ``transport._WAIT_SLICE``, the backstop every sleep is capped at.
    A waiter killed while parked leaves the count one high (every wake
    then rings, a spare token each) until :meth:`reset`.  A stage only
    knows the bells that existed when it was spawned; one spawned later
    is rung by the creator's wakes, not by its older siblings'.
    """

    def __init__(self, ctx) -> None:
        self._semaphore = ctx.Semaphore
        #: Parked-waiter count, kept *as* a semaphore: post/trywait are
        #: atomic across processes without a lock.
        self._parked = ctx.Semaphore(0)
        self._bell = ctx.Semaphore(0)
        self._bells = [self._bell]

    def seat(self) -> "Wakeup":
        """A view of this wake-up with a bell of its own, for one stage."""
        view = copy.copy(self)
        view._bell = self._semaphore(0)
        self._bells.append(view._bell)
        return view

    def unseat(self, view: "Wakeup") -> None:
        """Give back the bell :meth:`seat` made for a stage that is gone —
        for whoever keeps the roster, once it has reaped the stage — so a
        long-lived wake-up (a pool slot's) does not ring every worker it
        ever had.  A wake racing this on another thread may skip one
        bell, once: that waiter is one backstop slice late."""
        if view._bell in self._bells:
            self._bells.remove(view._bell)

    def wait(self, ready, deadline: Optional[float] = None) -> bool:
        """Block until ``ready()`` holds; False if ``deadline`` (a
        ``time.monotonic()`` instant) passed first.  ``ready`` runs in the
        caller, possibly many times."""
        if ready():
            return True
        bell = self._bell
        self._parked.release()
        try:
            while bell.acquire(False):
                pass  # rings meant for nobody, from while we were away
            while not ready():
                backstop = _transport._WAIT_SLICE
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    backstop = min(remaining, backstop)
                if not bell.acquire(True, backstop) and ready():
                    _missed_wake()
                    break
            return True
        finally:
            self._parked.acquire(False)

    def wake(self) -> None:
        """Ring every bell if anyone is parked.  Call *after* the change
        they wait for; never blocks."""
        parked = self._parked.get_value()
        if parked:
            for bell in self._bells:
                # One token per parked waiter: copies sharing a bell all
                # get theirs.  Spares are drained at the next park.
                for _ in range(parked):
                    bell.release()

    @property
    def waiters(self) -> int:
        return self._parked.get_value()

    def reset(self) -> None:
        """Forget dead waiters' declarations and unclaimed rings.  Only
        legal while nobody waits."""
        for semaphore in (self._parked, *self._bells):
            while semaphore.acquire(False):
                pass


def encode_frame(items: List[Any]) -> tuple:
    """Serialize ``items`` into one frame: ``(tag, flag, payload)``.

    The wires' own codec (:func:`repro.exec.transport.encode`) as a pure
    function, for callers that carry frames over a wire of their own: the
    same raw mode for frames of one flat shape of int64, float and
    ``bytes`` fields with a ``bytes`` among them, the same single pickle
    for everything else — only joined into one ``bytes`` where the wires
    write the parts in place.
    """
    flag, parts = _transport.encode(items, True)
    return (_FRAME_TAG, flag, b"".join(parts))


def decode_frame(obj: Any) -> Optional[List[Any]]:
    """The inverse of :func:`encode_frame`; ``None`` for unframed items."""
    if (
        type(obj) is tuple
        and len(obj) == 3
        and obj[0] == _FRAME_TAG
        and type(obj[2]) is bytes
    ):
        with memoryview(obj[2]) as payload:
            return _transport.decode(obj[1], payload, 0, len(payload))[0]
    return None


@dataclass(frozen=True)
class ChannelChaos:
    """Put-side misbehaviour for the chaos harness, keyed by item index.

    Indices count this *process's* payload items on the channel, so
    schedules are deterministic on single-producer channels (the engine
    applies chaos to the phase-A work channel only).  A dropped item
    vanishes silently — the committer recovers through its
    stall/degradation path; a duplicated item exercises the exactly-once
    commit dedup; a delayed item is a latency spike on the wire.  Decisions
    are applied exactly once per index, when the item enters the send
    buffer, so timed-out flush retries are idempotent.
    """

    latency_by_index: Dict[int, float] = field(default_factory=dict)
    duplicate_indices: FrozenSet[int] = field(default_factory=frozenset)
    drop_indices: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(
            self, "latency_by_index", dict(self.latency_by_index)
        )
        object.__setattr__(
            self, "duplicate_indices", frozenset(self.duplicate_indices)
        )
        object.__setattr__(self, "drop_indices", frozenset(self.drop_indices))

    @property
    def injection_count(self) -> int:
        return (
            len(self.latency_by_index)
            + len(self.duplicate_indices)
            + len(self.drop_indices)
        )


class ProcessChannel:
    """A bounded, blocking, cross-process FIFO with batched framed transport
    and item-granular occupancy statistics."""

    def __init__(
        self,
        capacity: int,
        name: str = "",
        ctx=None,
        chaos: Optional[ChannelChaos] = None,
        batch_size: int = 1,
        flush_interval: float = 0.005,
        transport: Any = "pipe",
    ) -> None:
        if capacity < 1:
            raise ValueError("channel capacity must be positive")
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        if flush_interval <= 0:
            raise ValueError("flush interval must be positive")
        ctx = ctx or multiprocessing.get_context()
        self.capacity = capacity
        #: A frame takes its item credit in one piece, so it can be no
        #: larger than the channel (and shrinks further if the wire turns
        #: out unable to hold a frame of these items: see :meth:`flush`).
        self.batch_size = min(batch_size, capacity)
        self.flush_interval = flush_interval
        self.name = name
        self.chaos = chaos
        self._put_index = 0  # per-process; see ChannelChaos determinism note
        #: The wire (see :mod:`repro.exec.transport`): a backend name or a
        #: pre-built transport instance (tests inject custom rings).
        self._transport = (
            transport
            if not isinstance(transport, str)
            else make_transport(transport, ctx, capacity)
        )
        #: The counter cells (see the module docstring): a row of ``SEATS``
        #: per counter.  ``STOP`` tokens hold credit like any item, so they
        #: are in produces/consumes and counted apart too: the stats
        #: report payload only.
        self._counts = ctx.RawArray("q", 5 * SEATS)
        self._seconds = ctx.RawArray("d", 2 * SEATS)
        #: This view's seat: the column of cells only it writes.
        self._seat = 0
        #: Seats not handed out, shared by the creating process's views.
        self._free_seats = list(range(SEATS - 1, 0, -1))
        self._owner_pid = os.getpid()
        #: Where a credit-starved flush sleeps; posted by whoever advances
        #: the consume count (:meth:`_recv_frame`, :meth:`drain`).
        self._credit = Wakeup(ctx)
        self._send_buffer: List[Any] = []
        self._send_since: Optional[float] = None
        self._recv: deque = deque()
        self.max_occupancy_seen = 0
        self.occupancy_samples = 0
        self.occupancy_total = 0
        #: Per-process trace sink (``repro.obs`` SpoolWriter), set *after*
        #: fork/spawn by each process that wants its waits on the timeline.
        #: Never pickled: every process owns its own spool.
        self.tracer = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["tracer"] = None
        return state

    def _trace_wait(self, kind: int, t0_ns: int, t1_ns: int) -> None:
        tracer = self.tracer
        if tracer is not None and t1_ns - t0_ns >= _TRACE_WAIT_NS:
            tracer.span(
                kind, t0_ns, t1_ns, detail=CHANNEL_IDS.get(self.name, 255)
            )

    # -- produce side -----------------------------------------------------------

    def _append(self, item: Any) -> None:
        """Accept one item into the send buffer, applying (and thereby
        memoizing) its chaos decision exactly once."""
        index = self._put_index
        self._put_index = index + 1
        copies = 1
        chaos = self.chaos
        if chaos is not None:
            where = f"channel {self.name!r}"
            if index in chaos.drop_indices:
                announce(ChaosCode.CHANNEL_DROP, index, where, self.tracer)
                return
            delay = chaos.latency_by_index.get(index)
            if delay:
                announce(ChaosCode.CHANNEL_LATENCY, index, where, self.tracer)
                time.sleep(delay)
            if index in chaos.duplicate_indices:
                announce(
                    ChaosCode.CHANNEL_DUPLICATE, index, where, self.tracer
                )
                copies = 2
        for _ in range(copies):
            self._send_buffer.append(item)
        if self._send_since is None:
            self._send_since = time.monotonic()

    def put_buffered(self, item: Any) -> int:
        """Accept ``item`` without flushing — the chunk-building primitive.
        Returns :attr:`pending_items` after it.

        Never blocks; the caller decides when to :meth:`flush` (the engine's
        producer grows its chunk adaptively and flushes per chunk).
        """
        buffer = self._send_buffer
        if self.chaos is not None:
            self._append(item)
            return len(buffer)
        # _append without its chaos branch: phase A's per-item path
        self._put_index += 1
        buffer.append(item)
        if self._send_since is None:
            self._send_since = time.monotonic()
        return len(buffer)

    def put(self, item: Any, timeout: Optional[float] = None) -> None:
        """Produce ``item``; block while the channel is full.

        With ``batch_size == 1`` every put flushes immediately (the classic
        unbatched wire format).  Otherwise the item joins the current batch,
        which flushes when full or when the latency bound expires.  On
        :class:`ChannelTimeout` the item remains accepted in the send
        buffer — retry with :meth:`flush`, never by re-putting.
        """
        if item == STOP:
            self.flush(timeout=timeout)
            self._send_frame([STOP], self._deadline(timeout), framed=False)
            self._counts[_STOPS_PUT + self._seat] += 1
            return
        self._append(item)
        if len(self._send_buffer) >= self.batch_size:
            self.flush(timeout=timeout, partial=False)
        elif self.flush_due():
            self.flush(timeout=timeout)

    def put_many(self, items: List[Any], timeout: Optional[float] = None) -> None:
        """Produce ``items`` as (a) whole frame(s) — one chunk dispatch.

        All items are accepted (chaos applied per item) before the flush, so
        a timeout leaves them pending rather than half-applied.
        """
        for item in items:
            self._append(item)
        self.flush(timeout=timeout)

    @property
    def pending_items(self) -> int:
        """Items accepted but not yet flushed to the transport."""
        return len(self._send_buffer)

    def flush_due(self) -> bool:
        """Has the latency bound expired on the oldest buffered item?"""
        return (
            self._send_since is not None
            and time.monotonic() - self._send_since >= self.flush_interval
        )

    @staticmethod
    def _deadline(timeout: Optional[float]) -> Optional[float]:
        return None if timeout is None else time.monotonic() + timeout

    def flush(
        self,
        timeout: Optional[float] = None,
        partial: bool = True,
        abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Push buffered items to the transport as frames of ``batch_size``.

        ``partial=False`` sends only full frames (leaving a short remainder
        buffered for the next batch); the default drains everything.  Raises
        :class:`ChannelTimeout` if item credit (or room on the wire) does
        not free up in time — or, with none to be had, as soon as
        ``abort()`` holds (the stages pass their shutdown check;
        :meth:`wake` makes a flush blocked on credit look at it).  The
        unsent items stay buffered and a later flush retries them without
        re-applying chaos.
        """
        deadline = self._deadline(timeout)
        buffer = self._send_buffer
        while buffer:
            count = min(len(buffer), self.batch_size)
            if count < self.batch_size and not partial:
                return
            try:
                self._send_frame(buffer[:count], deadline, count > 1, abort)
            except FrameTooLarge:
                if count == 1:
                    raise
                # Items this size will come again: frame them smaller
                # from here on instead of finding out once per chunk.
                self.batch_size = (count + 1) // 2
                continue
            del buffer[:count]
        self._send_since = None

    def _send_frame(
        self,
        items: List[Any],
        deadline: Optional[float],
        framed: bool,
        abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._acquire_credit(len(items), deadline, abort)
        # Credit counts items; the pipe and the ring hold *bytes*, so the
        # send can still find the wire full and its timeout is a real
        # bound: the deadline the caller set, five seconds without one.
        wait = (
            5.0
            if deadline is None
            else max(0.0, min(5.0, deadline - time.monotonic()))
        )
        counts, seat = self._counts, self._seat
        try:
            seconds = self._transport.send(items, framed, wait, abort)
        except TransportFull:
            counts[_PRODUCES + seat] -= len(items)
            raise ChannelTimeout(
                f"channel {self.name or id(self)} transport full"
            ) from None
        except Exception:
            counts[_PRODUCES + seat] -= len(items)
            raise
        counts[_FLUSHES + seat] += 1
        if seconds:
            self._seconds[_SERIALIZE + seat] += seconds

    def _acquire_credit(
        self,
        count: int,
        deadline: Optional[float],
        abort: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Block until ``count`` items fit under ``capacity`` — the
        full-side of the synchronization-array blocking discipline, one
        check per frame.

        The wait is event-driven (:class:`Wakeup`), and so is the
        throttle gate's: the two have to be.  A flat 1 ms sleep here once
        doubled as the pipeline's pacing — at most one 32-item refill per
        millisecond kept the workers inside the 64-item speculation
        window.  With only this wait woken by the consumer and the gate
        still a 5 ms poll, the producer runs the workers a full window
        ahead of the committer and every chunk sleeps in the gate:
        measured on 12 k fine-grain items, 2 workers, 110-270 gate sleeps
        and 0.57-0.98 s a run, against 0.14-0.23 s with both woken.
        """
        if self._take_credit(count):
            return
        granted = False

        def ready() -> bool:
            # Once parked, ``abort`` outranks credit: a stage told to shut
            # down must not refill a channel that teardown just drained.
            nonlocal granted
            if abort is not None and abort():
                return True
            granted = self._take_credit(count)
            return granted

        wait_started_ns = time.perf_counter_ns()
        self._credit.wait(ready, deadline)
        if not granted:
            raise ChannelTimeout(
                f"channel {self.name or id(self)} full "
                f"({self.capacity} items)"
            )
        self._trace_wait(
            EventKind.QUEUE_PUT_WAIT, wait_started_ns, time.perf_counter_ns()
        )

    def _take_credit(self, count: int) -> bool:
        """Check, then book ``count`` on this seat's own produces cell.
        Consumes are read first, so the check never sees fewer items in
        flight than there were when it started; another producer's
        check-then-add racing this one is the over-reservation
        :meth:`occupancy_bound` allows for."""
        counts = self._counts
        consumed = sum(counts[_CONSUMES:_CONSUMES + SEATS])
        if sum(counts[_PRODUCES:_PRODUCES + SEATS]) - consumed + count > (
            self.capacity
        ):
            return False
        counts[_PRODUCES + self._seat] += count
        return True

    def occupancy_bound(self, producers: int) -> int:
        """The most items this channel can hold while ``producers`` put
        into it at once: ``capacity``, plus a frame for every producer past
        the first (each can pass its credit check before another's booking
        lands, once).  One producer: exactly ``capacity``."""
        return self.capacity + (producers - 1) * self.batch_size

    def wake(self) -> None:
        """Make every flush blocked on credit re-check now — its ``abort``
        as well.  For whoever sets the stages' shutdown event."""
        self._credit.wake()

    # -- consume side -----------------------------------------------------------

    def _recv_frame(self, timeout: Optional[float]) -> tuple:
        """One blocking transport read -> ``(items, single)``.

        Exactly one of the pair is meaningful (``items is None`` marks an
        unframed message).  Advances the consume counter once per frame
        and accounts the decode time — the receive-side mirror of the
        sender's ``serialize_seconds``.
        """
        wait_started_ns = (
            time.perf_counter_ns() if self.tracer is not None else 0
        )
        try:
            items, single, deserialize_seconds = self._transport.recv(timeout)
        except TransportEmpty:
            # Idle polls (the committer's poll_interval heartbeat) are not
            # queue waits; only a successful get records one.
            raise ChannelTimeout(
                f"channel {self.name or id(self)} empty for {timeout}s"
            ) from None
        if self.tracer is not None:
            self._trace_wait(
                EventKind.QUEUE_GET_WAIT,
                wait_started_ns,
                time.perf_counter_ns(),
            )
        if deserialize_seconds:
            self._seconds[_DESERIALIZE + self._seat] += deserialize_seconds
        self._consumed(items, single)
        return items, single

    def _consumed(self, items: Optional[list], single: Any) -> None:
        """Count one transport read as consumed and free its credit."""
        counts, seat = self._counts, self._seat
        if items is not None:
            counts[_CONSUMES + seat] += len(items)
        else:
            counts[_CONSUMES + seat] += 1
            if single == STOP:
                counts[_STOPS_TAKEN + seat] += 1
        self._credit.wake()

    def get(self, timeout: Optional[float] = None) -> Any:
        """Consume the oldest item; block while empty (raise on timeout).

        Frames are decoded transparently: one transport read replenishes
        the local receive buffer with up to ``batch_size`` items, and the
        consume counter advances once per frame, not once per item.
        """
        if self._recv:
            return self._recv.popleft()
        items, single = self._recv_frame(timeout)
        if items is None:
            return single
        self._recv.extend(items)
        return self._recv.popleft()

    def get_many(self, max_items: int, timeout: Optional[float] = None) -> list:
        """Consume up to ``max_items`` with a single blocking transport read.

        Returns at least one item (blocking like :meth:`get` for the
        first), then drains the already-decoded frame from the local buffer
        — one worker wakeup per frame, and frame affinity keeps a dispatched
        chunk on the worker that claimed it.  STOP is never mixed into a
        batch: it is returned alone, and a buffered STOP ends the batch
        early (left for the next call).

        Fast path: when the receive buffer is empty and one whole frame
        fits the request (no buried STOP — the producer never frames one,
        this is defense in depth), the decoded frame is handed back as-is,
        with no per-item deque round-trip.
        """
        recv = self._recv
        if not recv:
            items, single = self._recv_frame(timeout)
            if items is None:
                return [single]
            if len(items) <= max_items:
                for item in items:
                    if item == STOP:
                        break
                else:
                    return items
            recv.extend(items)
        out = [recv.popleft()]
        if out[0] == STOP:
            return out
        while len(out) < max_items and recv and recv[0] != STOP:
            out.append(recv.popleft())
        return out

    def _total(self, row: int) -> int:
        return sum(self._counts[row:row + SEATS])

    @property
    def produces(self) -> int:
        return self._total(_PRODUCES)

    @property
    def consumes(self) -> int:
        return self._total(_CONSUMES)

    def sample_occupancy(self) -> int:
        """Record one item-granular occupancy observation.

        Occupancy is ``produces - consumes``: items flushed to the transport
        and not yet decoded by a consumer.  Counting items (never frames)
        keeps the bounded-queue invariant's 32-entry semantics under
        batching, and the shared counters are exact where ``qsize`` is
        advisory.  Produces are read *first* here, unlike in a credit
        check: items consumed between the two reads can only lower the
        sample, so it never reports more than the channel ever held.
        """
        produces = self.produces
        occupancy = max(0, produces - self.consumes)
        self.max_occupancy_seen = max(self.max_occupancy_seen, occupancy)
        self.occupancy_samples += 1
        self.occupancy_total += occupancy
        return occupancy

    def occupancy_stats(self) -> dict:
        mean = (
            self.occupancy_total / self.occupancy_samples
            if self.occupancy_samples
            else 0.0
        )
        # Reverse-causal: what was consumed, then what was sent, then what
        # was booked.  Payload only: each end-of-stream STOP is a one-item
        # frame.
        consumes = self.consumes - self._total(_STOPS_TAKEN)
        stops = self._total(_STOPS_PUT)
        flushes = self._total(_FLUSHES) - stops
        produces = self.produces - stops
        seconds = self._seconds
        return {
            "capacity": self.capacity,
            "batch_size": self.batch_size,
            "transport": self.transport_kind,
            "produces": produces,
            "consumes": consumes,
            "max_occupancy": self.max_occupancy_seen,
            "mean_occupancy": round(mean, 3),
            "samples": self.occupancy_samples,
            "flushes": flushes,
            "mean_frame_items": (
                round(produces / flushes, 3) if flushes else 0.0
            ),
            "serialize_seconds": round(
                sum(seconds[_SERIALIZE:_SERIALIZE + SEATS]), 6
            ),
            "deserialize_seconds": round(
                sum(seconds[_DESERIALIZE:_DESERIALIZE + SEATS]), 6
            ),
        }

    def drain(self) -> list:
        """Non-blocking removal of everything currently visible.

        Consumed frames are counted so their item credit is released —
        teardown paths drain the done channel precisely to unwedge senders
        blocked on a full channel.
        """
        items = list(self._recv)
        self._recv.clear()
        while True:
            try:
                decoded, single, _ = self._transport.recv_nowait()
            except TransportEmpty:
                return items
            except (EOFError, OSError):
                return items
            self._consumed(decoded, single)
            if decoded is None:
                items.append(single)
            else:
                items.extend(decoded)

    # -- pooled reuse (repro.service) --------------------------------------------

    def reset_local(self) -> None:
        """Drop this *process's* local buffers: unflushed send items and
        undecoded receive items.

        The worker-pool runtime reuses one channel across many jobs; a
        lease that ended with items still buffered locally (a flush that
        timed out during teardown, results the committer never read) must
        not leak those items into the next job's stream.  Dropped send
        items never acquired credit and dropped receive items already
        released theirs, so the counter cells stay consistent.
        """
        self._send_buffer.clear()
        self._send_since = None
        self._recv.clear()

    def reset_counters(self) -> None:
        """Zero every counter cell, of every seat.

        Only legal while the channel is quiescent (no process is putting
        or getting — the pool calls this between leases, after a full
        drain).  Keeps per-job occupancy stats meaningful and the counters
        from creeping toward wraparound over a long-lived server.  There
        is no lock to take: a writer killed mid-update left its cell whole.
        """
        self._counts[:] = [0] * len(self._counts)
        self._seconds[:] = [0.0] * len(self._seconds)
        self._credit.reset()
        self._put_index = 0
        self.max_occupancy_seen = 0
        self.occupancy_samples = 0
        self.occupancy_total = 0

    def flush_and_close(self, flush_timeout: float = 2.0) -> None:
        """Flush this process's pending items to the wire, then close.

        A process about to hard-exit (``os._exit``) must call this first:
        batched items live in the send buffer, and an immediate exit
        would drop messages the committer's crash recovery depends on.
        (Once ``flush`` returns they are on the wire — no transport holds
        anything back in the sender.)  Closing only releases *this
        process's* side: an shm segment is unlinked solely by its owning
        (creating) process.
        """
        try:
            self.flush(timeout=flush_timeout)
        except ChannelTimeout:
            pass  # full channel with no consumer left; don't wedge the exit
        self._transport.close()

    def close(self) -> None:
        """Close the transport without waiting on peers.

        Called on teardown paths where child processes may already be
        dead; must never wedge.  In the creating process this also unlinks
        an shm ring, so even a ``halt()`` after a crashed run leaves no
        ``/dev/shm`` segment behind.
        """
        self._transport.close()

    @property
    def transport_kind(self) -> str:
        return self._transport.kind

    def for_caller(self) -> "ProcessChannel":
        """A view of this channel for one more stage: shared wire, counter
        cells and chaos schedule, but a counter seat of its own and private
        send/receive buffers and put index.  Made by the process that
        created the channel, which keeps the seats; :meth:`unseat` gives
        the seat back once the stage is gone.

        Thread-mode pipelines hand each producer/worker thread its own
        view — the same isolation a process gets implicitly from fork
        (which copies the local buffers) — so concurrent stages never race
        on ``_send_buffer``/``_recv`` or write one cell from two places.
        """
        if os.getpid() != self._owner_pid:
            raise RuntimeError(
                f"channel {self.name!r}: views are made by the process "
                "that created the channel"
            )
        if not self._free_seats:
            raise RuntimeError(
                f"channel {self.name!r}: all {SEATS} counter seats taken"
            )
        clone = object.__new__(ProcessChannel)
        clone.__dict__.update(self.__dict__)
        clone._seat = self._free_seats.pop()
        clone._put_index = 0
        clone._send_buffer = []
        clone._send_since = None
        clone._recv = deque()
        clone.max_occupancy_seen = 0
        clone.occupancy_samples = 0
        clone.occupancy_total = 0
        clone.tracer = None
        return clone

    def for_stage(self) -> "ProcessChannel":
        """:meth:`for_caller` plus a seat of its own on the credit wake-up
        (see :class:`Wakeup`): what each pipeline stage is handed, by the
        process that spawns it."""
        view = self.for_caller()
        view._credit = self._credit.seat()
        return view

    def unseat(self, view: "ProcessChannel") -> None:
        """Give back the seats of a view whose stage is gone — its counter
        seat and, for a :meth:`for_stage` view, its bell (see
        :meth:`Wakeup.unseat`).  The cells keep what the stage counted;
        the next view seated there counts on from it.  Only for a stage
        that can no longer write: exited, not merely abandoned."""
        if view._credit is not self._credit:
            self._credit.unseat(view._credit)
        if view._seat not in self._free_seats:
            self._free_seats.append(view._seat)

    def __repr__(self) -> str:
        return (
            f"ProcessChannel({self.name!r}, capacity={self.capacity}, "
            f"batch_size={self.batch_size}, "
            f"transport={self.transport_kind!r})"
        )

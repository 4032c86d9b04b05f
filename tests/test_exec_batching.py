"""The fast path under test: framed batch transport, chunked dispatch.

Covers the batching-specific contracts on top of ``tests/test_exec_engine``:

- frame encode/decode round-trips preserve content and order
  (property-based): frames of one flat shape of int64, float and ``bytes``
  fields with a ``bytes`` among them — bare ``bytes``, engine work triples —
  take the raw mode and come back bit for bit, and lookalikes (scalar-only
  frames too) take pickle and come back as they were;
- STOP is never buried mid-frame — it flushes the batch and travels alone;
- chaos decisions are memoized per put index, so a timed-out put retried
  via ``flush()`` re-applies neither the latency sleep nor the first copy
  of a duplicated item;
- occupancy is item-granular: the bounded-queue invariant keeps its
  32-entry semantics no matter how items are framed;
- engine output is bit-identical across batch sizes 1 / 16 / 64;
- the chaos seed matrix stays green with batching enabled;
- ``comm_overhead`` (flushes, mean frame occupancy, serialize and
  deserialize seconds, transport kind) lands in the metrics JSON.

Every channel-level contract here is parametrized across all three wire
backends (``pipe`` / ``shm`` / ``thread``): the channel layer owns framing,
credit, STOP discipline, and chaos memoization, so each invariant must hold
regardless of what carries the bytes.  Shm-ring *internals* (torn writes,
wrap markers, full-ring backpressure) are covered in
``tests/test_exec_transport.py``.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import PipelineSpec, run_sequential
from repro.exec.channels import (
    ChannelChaos,
    ChannelTimeout,
    ProcessChannel,
    STOP,
    decode_frame,
    encode_frame,
)
from repro.exec.engine import ExecutionEngine
from repro.exec.transport import _FLAG_FRAME, _FLAG_RAW, TRANSPORT_KINDS
from repro.resilience import ChaosConfig, run_chaos
from tests.test_exec_transport import LOOKALIKES, RAW_TRIPLES, typed

#: The CI chaos matrix, run here with batching explicitly on.
SEED_MATRIX = (1337, 20071209, 424242)

#: Every channel contract must hold on every wire backend.
TRANSPORTS = TRANSPORT_KINDS


# -- module-level stage functions (picklable across processes) ---------------------


def produce_seven(i):
    return i * 7


def mix_work(i, value):
    return (value * value + i) % 2003


def append_commit(i, result, acc):
    acc.setdefault("out", []).append((i, result))


def take_out(acc):
    return acc.get("out", [])


def batch_spec(iterations=60):
    return PipelineSpec(
        iterations=iterations,
        produce=produce_seven,
        work=mix_work,
        commit=append_commit,
        finalize=take_out,
    )


# -- framing round-trips (property-based) ------------------------------------------

payload = st.one_of(
    st.integers(),
    st.text(max_size=8),
    st.binary(max_size=16),
    st.none(),
    st.booleans(),
    st.tuples(st.integers(), st.text(max_size=4)),
)


class TestFraming:
    @given(st.lists(payload, max_size=40))
    @settings(deadline=None, max_examples=80)
    def test_roundtrip_preserves_content_and_order(self, items):
        assert decode_frame(encode_frame(items)) == items

    @given(st.lists(st.binary(max_size=32), min_size=2, max_size=20))
    @settings(deadline=None, max_examples=40)
    def test_homogeneous_bytes_use_raw_mode_and_roundtrip(self, items):
        frame = encode_frame(items)
        assert frame[1] == _FLAG_RAW
        assert typed(decode_frame(frame)) == typed(items)

    def test_single_and_empty_frames(self):
        assert decode_frame(encode_frame([])) == []
        assert decode_frame(encode_frame([b"only"])) == [b"only"]

    def test_unframed_objects_pass_through(self):
        for obj in (17, "plain", ("claim", 1, 2), None, b"raw"):
            assert decode_frame(obj) is None

    @given(RAW_TRIPLES)
    @settings(deadline=None, max_examples=60)
    def test_work_triples_take_the_raw_mode_and_come_back_identical(
        self, items
    ):
        """Engine work triples ``(i, value, a_seconds)`` — values 0 B to
        256 KiB, ints at the int64 bounds, ``-0.0``, ``inf`` and ``nan`` —
        skip pickle and round-trip bit for bit."""
        frame = encode_frame(items)
        assert frame[1] == _FLAG_RAW
        assert typed(decode_frame(frame)) == typed(items)

    @given(LOOKALIKES)
    @settings(deadline=None, max_examples=60)
    def test_lookalikes_are_pickled_and_come_back_identical(self, items):
        """A ``bool``, an int beyond int64, a ``bytearray`` or ``bytes``
        subclass, a nested tuple, mixed shapes, a one-item frame, a frame
        with no ``bytes`` field."""
        frame = encode_frame(items)
        assert frame[1] == _FLAG_FRAME
        assert typed(decode_frame(frame)) == typed(items)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @given(
        st.lists(st.integers(), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=8),
    )
    @settings(deadline=None, max_examples=15)
    def test_channel_fifo_across_frame_boundaries(
        self, transport, items, batch_size
    ):
        channel = ProcessChannel(
            capacity=64, batch_size=batch_size, transport=transport
        )
        try:
            channel.put_many(list(items), timeout=2.0)
            received = []
            while len(received) < len(items):
                received.extend(
                    channel.get_many(batch_size, timeout=2.0)
                )
            assert received == list(items)
        finally:
            channel.close()


# -- STOP discipline ---------------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestStopSentinel:
    def test_stop_flushes_batch_and_travels_alone(self, transport):
        channel = ProcessChannel(
            capacity=16, batch_size=4, transport=transport
        )
        try:
            for value in ("a", "b", "c"):
                channel.put_buffered(value)
            channel.put(STOP, timeout=2.0)  # flushes the partial batch first
            assert channel.pending_items == 0
            batch = channel.get_many(10, timeout=2.0)
            assert batch == ["a", "b", "c"]  # STOP ends the batch early
            assert channel.get_many(10, timeout=2.0) == [STOP]
        finally:
            channel.close()

    def test_stop_first_is_returned_alone(self, transport):
        channel = ProcessChannel(
            capacity=4, batch_size=4, transport=transport
        )
        try:
            channel.put(STOP, timeout=2.0)
            assert channel.get_many(4, timeout=2.0) == [STOP]
        finally:
            channel.close()


# -- chaos memoization: timed-out puts retry idempotently --------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestChaosPutRetry:
    def test_duplicate_survives_timeout_retry_with_exactly_two_copies(
        self, transport
    ):
        chaos = ChannelChaos(duplicate_indices=frozenset({0}))
        channel = ProcessChannel(
            capacity=1, batch_size=1, chaos=chaos, transport=transport
        )
        try:
            # Two copies buffered, capacity one: the first flushes, the
            # second starves for credit and the put times out.
            with pytest.raises(ChannelTimeout):
                channel.put("a", timeout=0.05)
            assert channel.pending_items == 1
            assert channel.get(timeout=2.0) == "a"
            channel.flush(timeout=2.0)  # the retry path — never re-put
            assert channel.get(timeout=2.0) == "a"
            assert channel.pending_items == 0
            with pytest.raises(ChannelTimeout):
                channel.get(timeout=0.05)  # no third copy ever existed
        finally:
            channel.close()

    def test_latency_not_reapplied_on_retry(self, transport):
        chaos = ChannelChaos(latency_by_index={1: 0.2})
        channel = ProcessChannel(
            capacity=1, batch_size=1, chaos=chaos, transport=transport
        )
        try:
            channel.put("first", timeout=2.0)  # fills the channel
            started = time.monotonic()
            with pytest.raises(ChannelTimeout):
                channel.put("delayed", timeout=0.05)
            first_attempt = time.monotonic() - started
            assert first_attempt >= 0.2  # the injected latency fired once
            assert channel.get(timeout=2.0) == "first"
            started = time.monotonic()
            channel.flush(timeout=2.0)
            retry_duration = time.monotonic() - started
            assert retry_duration < 0.2  # ... and exactly once
            assert channel.get(timeout=2.0) == "delayed"
        finally:
            channel.close()


# -- item-granular occupancy -------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestOccupancy:
    def test_occupancy_counts_items_not_frames(self, transport):
        channel = ProcessChannel(
            capacity=8, batch_size=4, transport=transport
        )
        try:
            channel.put_many(list(range(8)), timeout=2.0)  # two frames
            deadline = time.monotonic() + 2.0
            while channel.produces < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert channel.sample_occupancy() == 8
            drained = []
            while len(drained) < 8:
                drained.extend(channel.get_many(8, timeout=2.0))
            assert channel.sample_occupancy() == 0
            stats = channel.occupancy_stats()
            assert stats["max_occupancy"] == 8
            # one producer: the occupancy bound is the capacity
            assert stats["max_occupancy"] <= channel.occupancy_bound(1)
            assert channel.occupancy_bound(1) == stats["capacity"]
            assert stats["mean_frame_items"] == 4.0
        finally:
            channel.close()

    def test_credit_blocks_at_item_capacity(self, transport):
        channel = ProcessChannel(
            capacity=4, batch_size=4, transport=transport
        )
        try:
            channel.put_many(list(range(4)), timeout=2.0)
            with pytest.raises(ChannelTimeout):
                channel.put_many([99], timeout=0.05)  # over item capacity
            assert channel.get(timeout=2.0) == 0
            channel.flush(timeout=2.0)  # freed credit admits the retry
            assert [channel.get(timeout=2.0) for _ in range(4)] == [1, 2, 3, 99]
        finally:
            channel.close()


# -- engine fidelity across batch sizes --------------------------------------------


class TestEngineBatching:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("batch_size", [1, 16, 64])
    def test_output_bit_identical_across_batch_sizes(
        self, batch_size, transport
    ):
        sequential_output, _ = run_sequential(batch_spec())
        engine = ExecutionEngine(
            workers=2, capacity=64, batch_size=batch_size,
            transport=transport,
        )
        result = engine.run(batch_spec())
        assert result.output == sequential_output
        assert result.metrics.commits == 60
        assert result.metrics.in_order_commits == 60
        assert result.metrics.batch_size == batch_size
        assert result.metrics.transport == transport

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_comm_overhead_exposed_in_metrics_json(self, transport):
        engine = ExecutionEngine(
            workers=2, capacity=32, batch_size=8, transport=transport
        )
        result = engine.run(batch_spec(40))
        data = result.metrics.to_json()
        assert data["batch_size"] == 8
        assert data["transport"] == transport
        # One canonical shape: channel stats live under "channels" only
        # (the old export duplicated a subset under "comm_overhead").
        assert "comm_overhead" not in data
        for name in ("work", "done"):
            stats = data["channels"][name]
            assert stats["flushes"] >= 1
            assert stats["mean_frame_items"] >= 1.0
            assert stats["serialize_seconds"] >= 0.0
            # Satellite of the transport plane: the get path's decode time
            # is measured too, so comm accounting is no longer one-sided.
            assert stats["deserialize_seconds"] >= 0.0
            assert stats["transport"] == transport
        summary = result.metrics.format_summary()
        assert "comm overhead" in summary
        assert "deserialize" in summary
        assert f"{transport} transport" in summary

    def test_format_summary_survives_partial_channel_stats(self):
        from repro.exec.metrics import EngineMetrics

        metrics = EngineMetrics(workers=2, capacity=8, iterations=10)
        metrics.channel_stats["work"] = {"produces": 10}  # partial: no caps
        summary = metrics.format_summary()
        assert "channel work" in summary
        assert "10 produces" in summary

    def test_batched_run_amortizes_frames(self):
        engine = ExecutionEngine(workers=2, capacity=32, batch_size=16)
        result = engine.run(batch_spec(64))
        work = result.metrics.channel_stats["work"]
        # Chunked dispatch must move strictly fewer frames than items.
        assert work["flushes"] < work["produces"]
        assert work["mean_frame_items"] > 1.0


class TestDefaultFrames:
    """The frames a default-constructed engine sends.  A frame costs
    wake-ups on both ends whatever it carries, so on a spec whose stages
    are nearly free the frame size *is* the throughput: this holds the
    defaults to frames of at least 32 items (16-item frames averaged
    14.6 here)."""

    @pytest.mark.parametrize("transport", ("pipe", "shm"))
    def test_default_work_frames_carry_at_least_32_items(self, transport):
        expected, _ = run_sequential(batch_spec(4000))
        result = ExecutionEngine(transport=transport).run(batch_spec(4000))
        assert result.output == expected
        work = result.metrics.channel_stats["work"]
        assert work["mean_frame_items"] >= 32, work
        # payload only: the workers' end-of-stream STOP tokens are not items
        assert work["produces"] == work["consumes"] == 4000, work


# -- the chaos seed matrix, batching on --------------------------------------------


class TestChaosWithBatching:
    @pytest.mark.parametrize("seed", SEED_MATRIX)
    def test_seed_matrix_green_with_batching(self, seed):
        report = run_chaos(
            lambda: batch_spec(40),
            seed,
            workers=3,
            capacity=8,
            config=ChaosConfig(latency_seconds=0.01),
            batch_size=8,
        )
        report.raise_on_violation()
        assert report.output_identical
        assert report.result.metrics.batch_size == 8

    @pytest.mark.parametrize("transport", ("shm", "thread"))
    def test_chaos_identical_on_alternate_transports(self, transport):
        """The same seeded injection schedule commits the same output on
        every wire backend — retries, crash hand-backs, and duplicate
        drops are transport-invariant."""
        seed = SEED_MATRIX[0]
        baseline = run_chaos(
            lambda: batch_spec(40), seed, workers=3, capacity=8,
            config=ChaosConfig(latency_seconds=0.01), batch_size=8,
            transport="pipe",
        )
        report = run_chaos(
            lambda: batch_spec(40), seed, workers=3, capacity=8,
            config=ChaosConfig(latency_seconds=0.01), batch_size=8,
            transport=transport,
        )
        report.raise_on_violation()
        assert report.output_identical
        assert report.result.output == baseline.result.output
        assert report.result.metrics.transport == transport

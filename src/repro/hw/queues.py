"""Core-to-core communication queues.

Two executable views of the hardware (the performance simulator's timed
view is the queue rule inside :func:`repro.core.simulator.schedule`):

- :class:`BoundedQueue` — an executable FIFO with capacity semantics, used
  by the runtime-correctness tests and the DSWP multithreaded-code-generation
  examples (a producer stage blocks on full, a consumer on empty — the
  "synchronization array" behaviour of Rangan et al. [26]);
- :class:`BlockingBoundedQueue` — the same FIFO wrapped in condition
  variables so real threads genuinely *block* on full/empty instead of
  receiving an error; this is the queue the executable pipeline runtimes
  (:mod:`repro.dswp.runtime` and :mod:`repro.exec`) stand on.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Generic, Optional, TypeVar

T = TypeVar("T")


class QueueFullError(RuntimeError):
    """Non-blocking produce on a full queue."""


class QueueEmptyError(RuntimeError):
    """Non-blocking consume on an empty queue."""


class BoundedQueue(Generic[T]):
    """An executable bounded FIFO with occupancy statistics."""

    def __init__(self, capacity: int = 32, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self.produces = 0
        self.consumes = 0
        self.full_rejections = 0
        self.empty_rejections = 0
        self.max_occupancy = 0

    def produce(self, item: T) -> None:
        if self.full:
            self.full_rejections += 1
            raise QueueFullError(f"queue {self.name or id(self)} full at {self.capacity}")
        self._items.append(item)
        self.produces += 1
        self.max_occupancy = max(self.max_occupancy, len(self._items))

    def try_produce(self, item: T) -> bool:
        if self.full:
            self.full_rejections += 1
            return False
        self._items.append(item)
        self.produces += 1
        self.max_occupancy = max(self.max_occupancy, len(self._items))
        return True

    def consume(self) -> T:
        if self.empty:
            self.empty_rejections += 1
            raise QueueEmptyError(f"queue {self.name or id(self)} empty")
        self.consumes += 1
        return self._items.popleft()

    def try_consume(self) -> Optional[T]:
        if self.empty:
            self.empty_rejections += 1
            return None
        self.consumes += 1
        return self._items.popleft()

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"BoundedQueue({self.name!r}, {len(self._items)}/{self.capacity})"


class BlockingBoundedQueue(Generic[T]):
    """A :class:`BoundedQueue` with real blocking full/empty semantics.

    A produce on a full queue and a consume on an empty queue *wait* (the
    synchronization-array behaviour) instead of raising, which is what the
    executable runtimes need: the threaded DSWP pipeline and the exec
    engine's in-process channels both stand on this class.  The underlying
    queue's occupancy statistics remain observable through :attr:`stats`.
    """

    def __init__(self, capacity: int = 32, name: str = "") -> None:
        self._queue: BoundedQueue[T] = BoundedQueue(capacity=capacity, name=name)
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)

    @property
    def capacity(self) -> int:
        return self._queue.capacity

    @property
    def stats(self) -> BoundedQueue:
        """The wrapped queue, exposing produces/consumes/max_occupancy."""
        return self._queue

    def put(self, item: T) -> None:
        """Produce ``item``, blocking while the queue is full."""
        with self._not_full:
            while self._queue.full:
                self._not_full.wait()
            self._queue.produce(item)
            self._not_empty.notify()

    def get(self) -> T:
        """Consume the oldest item, blocking while the queue is empty."""
        with self._not_empty:
            while self._queue.empty:
                self._not_empty.wait()
            item = self._queue.consume()
            self._not_full.notify()
            return item

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def __repr__(self) -> str:
        return f"Blocking{self._queue!r}"

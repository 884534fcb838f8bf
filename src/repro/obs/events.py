"""Structured observability events and the bounded ring they live in.

:class:`ObsEvent` is deliberately flat (slots, no nesting) so a
multi-million-event run stays cheap to record, and deliberately
category-tagged so sinks can filter without parsing:

======== =======================================================
category events
======== =======================================================
pipeline dispatch, perform, store_perform, commit, squash
aq       lock, unlock (cacheline-lock acquire/release)
watchdog arm, fire
forward  forward (store-to-load forwarding-chain formation)
coherence txn, recall, defer (directory transactions; deferrals)
replace  l2_evict (replacement/inclusion-victim decisions)
audit    violation (online ``verify_system`` findings)
======== =======================================================

:class:`BoundedEventLog` is the one ring-buffer implementation shared
by every sink (including the fixed :class:`~repro.system.trace.PipelineTracer`):
append is O(1), capacity is hard, and evictions are *counted*, never
silent.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, Optional, TypeVar

T = TypeVar("T")

#: Default ring capacity; ~a few MB of events, plenty for litmus-scale
#: runs while hard-bounding memory on production-scale ones.
DEFAULT_CAPACITY = 65536


class ObsEvent:
    """One structured observability event.

    ``src`` is a core id, or -1 for the directory/system.  ``seq`` is
    the instruction sequence number when the event concerns one
    (otherwise -1).  ``dur`` is a span length in cycles for events that
    describe a completed interval (coherence transactions, lock holds);
    0 for instants.  ``info`` carries small event-specific details.
    """

    __slots__ = ("cycle", "cat", "kind", "src", "seq", "dur", "info")

    def __init__(
        self,
        cycle: int,
        cat: str,
        kind: str,
        src: int = -1,
        seq: int = -1,
        dur: int = 0,
        info: Optional[dict] = None,
    ) -> None:
        self.cycle = cycle
        self.cat = cat
        self.kind = kind
        self.src = src
        self.seq = seq
        self.dur = dur
        self.info = info

    def key(self) -> tuple:
        """Hashable identity of the event, insensitive to ``info`` order."""
        info = tuple(sorted(self.info.items())) if self.info else ()
        return (self.cycle, self.cat, self.kind, self.src, self.seq, self.dur, info)

    def __repr__(self) -> str:
        extra = f" {self.info}" if self.info else ""
        dur = f" dur={self.dur}" if self.dur else ""
        return (
            f"[{self.cycle:6d}] {self.cat}/{self.kind} src={self.src} "
            f"seq={self.seq}{dur}{extra}"
        )


class BoundedEventLog(Generic[T]):
    """Capped ring buffer with a dropped-event counter.

    Appending beyond ``capacity`` evicts the oldest entry and counts it
    in :attr:`dropped`; iteration yields oldest to newest.  This is the
    backing store for every observability sink and for the pipeline
    tracer, so "tracing a long run" degrades to "you keep the newest
    ``capacity`` events and know exactly how many you lost" instead of
    unbounded memory growth.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._ring: deque[T] = deque(maxlen=capacity)
        self._dropped = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Events evicted to respect the capacity bound."""
        return self._dropped

    def append(self, item: T) -> None:
        ring = self._ring
        if len(ring) == self._capacity:
            self._dropped += 1
        ring.append(item)

    def clear(self) -> None:
        self._ring.clear()
        self._dropped = 0

    def snapshot(self) -> list[T]:
        """The retained events, oldest first, as a plain list."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[T]:
        return iter(self._ring)

    def __getitem__(self, index):
        # deque indexing is O(n) but observability reads are offline.
        if isinstance(index, slice):
            return list(self._ring)[index]
        return self._ring[index]

    def __bool__(self) -> bool:
        return bool(self._ring)

    def __repr__(self) -> str:
        return (
            f"BoundedEventLog(len={len(self._ring)}, "
            f"capacity={self._capacity}, dropped={self._dropped})"
        )

"""The Atomic Queue (AQ) — section 4 of the paper.

The AQ tracks, per in-flight atomic RMW, whether it holds a cacheline
lock and where that line lives in the L1D (set/way).  It is managed as a
FIFO conceptually parallel to the SQ: an entry is allocated when the
atomic dispatches and deallocated when its store_unlock performs.

The hardware's four CAM searches map to these methods:

1. set/way search (remote request): :meth:`is_line_locked` /
   :meth:`is_locked_setway` — does any Locked entry match?
2. set search (replacement): :meth:`locked_l1_ways` — which ways of a
   set must the replacement policy skip?
3. SQid search (forwarding): :meth:`on_store_broadcast` — a store
   leaving the SQ broadcasts its id and set/way; forwarded entries
   capture the lock (lock_on_access / do_not_unlock transfer).
4. seqNum search (flush / re-schedule): :meth:`squash_from`.

Searches 1–3 are the memory system's per-request hot path (the
hierarchy consults them through its LockView on every access and
replacement decision), so the queue keeps incrementally maintained
indexes: per-line / per-(set,way) / per-set lock *counts* — counts, not
sets, because two entries can legitimately hold the same line at once
during a do_not_unlock transfer window — and a source-store -> entries
map for the SQid broadcast.  The indexes are updated inside
:meth:`AtomicQueueEntry.lock` / :meth:`~AtomicQueueEntry.release` and
the ``source_store`` property setter, so direct mutations (as the unit
tests perform) keep them exact.

Entries store the line number alongside set/way purely as a simulator
convenience (the hardware needs only set/way; the line is recoverable
from the tag array).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

#: Shared empty result for locked_l1_ways (read-only by contract).
_EMPTY_WAYS: set[int] = set()

from repro.common.stats import StatsRegistry
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.dynins import DynInstr


class AtomicQueueEntry:
    """One AQ entry: Locked bit, L1D set/way, seqNum, SQid (section 4.1)."""

    __slots__ = ("instr", "seq", "locked", "set_index", "way", "line",
                 "_source_store", "chain_depth", "_owner")

    def __init__(
        self, instr: DynInstr, owner: Optional["AtomicQueue"] = None
    ) -> None:
        self.instr = instr
        self.seq = instr.seq
        self.locked = False
        self.set_index: Optional[int] = None
        self.way: Optional[int] = None
        self.line: Optional[int] = None
        #: The store this atomic forwarded from (the SQid field), if any.
        self._source_store: Optional[DynInstr] = None
        #: Consecutive-forwarding depth, for the chain bound (3.3.4).
        self.chain_depth = 0
        #: Owning queue, for index maintenance (None once deallocated or
        #: for free-standing entries).
        self._owner = owner

    @property
    def source_store(self) -> Optional[DynInstr]:
        return self._source_store

    @source_store.setter
    def source_store(self, store: Optional[DynInstr]) -> None:
        old = self._source_store
        if old is store:
            return
        self._source_store = store
        owner = self._owner
        if owner is not None:
            if old is not None:
                owner._unmap_source(old, self)
            if store is not None:
                owner._map_source(store, self)

    def lock(self, line: int, set_index: int, way: int) -> None:
        if self.locked and self._owner is not None:  # pragma: no cover
            self._owner._on_entry_released(self)  # defensive: re-lock
        self.locked = True
        self.line = line
        self.set_index = set_index
        self.way = way
        if self._owner is not None:
            self._owner._on_entry_locked(self)

    def release(self) -> None:
        if self.locked and self._owner is not None:
            self._owner._on_entry_released(self)
        self.locked = False

    def __repr__(self) -> str:
        state = (
            f"locked {self.line:#x}@s{self.set_index}w{self.way}"
            if self.locked
            else ("forwarded" if self._source_store is not None else "idle")
        )
        return f"AQEntry(seq={self.seq}, {state})"


class AtomicQueue:
    """FIFO of AQ entries with the four associative searches."""

    def __init__(
        self,
        capacity: int,
        stats: StatsRegistry,
        on_fully_unlocked: Callable[[int], None],
    ) -> None:
        self._capacity = capacity
        self._entries: list[AtomicQueueEntry] = []
        self._stats = stats.scoped("aq")
        #: Called with a line number when its last lock is lifted; wired
        #: to PrivateHierarchy.notify_unlock so deferred requests replay.
        self._on_fully_unlocked = on_fully_unlocked
        # Lock-count indexes (see module docstring).
        self._line_locks: dict[int, int] = {}
        self._setway_locks: dict[tuple[int, int], int] = {}
        self._set_way_counts: dict[int, dict[int, int]] = {}
        self._locked_count = 0
        self._by_source: dict[DynInstr, list[AtomicQueueEntry]] = {}

    # ------------------------------------------------------------------
    # index maintenance (called from the entry's mutators)

    def _on_entry_locked(self, entry: AtomicQueueEntry) -> None:
        line, set_index, way = entry.line, entry.set_index, entry.way
        self._locked_count += 1
        self._line_locks[line] = self._line_locks.get(line, 0) + 1
        key = (set_index, way)
        self._setway_locks[key] = self._setway_locks.get(key, 0) + 1
        ways = self._set_way_counts.setdefault(set_index, {})
        ways[way] = ways.get(way, 0) + 1

    def _on_entry_released(self, entry: AtomicQueueEntry) -> None:
        line, set_index, way = entry.line, entry.set_index, entry.way
        self._locked_count -= 1
        count = self._line_locks[line] - 1
        if count:
            self._line_locks[line] = count
        else:
            del self._line_locks[line]
        key = (set_index, way)
        count = self._setway_locks[key] - 1
        if count:
            self._setway_locks[key] = count
        else:
            del self._setway_locks[key]
        ways = self._set_way_counts[set_index]
        count = ways[way] - 1
        if count:
            ways[way] = count
        else:
            del ways[way]
            if not ways:
                del self._set_way_counts[set_index]

    def _map_source(self, store: DynInstr, entry: AtomicQueueEntry) -> None:
        bucket = self._by_source.get(store)
        if bucket is None:
            self._by_source[store] = [entry]
        else:
            bucket.append(entry)

    def _unmap_source(self, store: DynInstr, entry: AtomicQueueEntry) -> None:
        bucket = self._by_source[store]
        if len(bucket) == 1:
            del self._by_source[store]
        else:
            bucket.remove(entry)

    # ------------------------------------------------------------------
    # allocation / deallocation

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[AtomicQueueEntry]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self._capacity

    def allocate(self, instr: DynInstr) -> Optional[AtomicQueueEntry]:
        """Allocate an entry at dispatch; None when full (stall front-end)."""
        if self.full:
            self._stats.bump("alloc_stalls")
            return None
        entry = AtomicQueueEntry(instr, owner=self)
        self._entries.append(entry)
        instr.aq_entry = entry
        self._stats.peak("occupancy_peak", len(self._entries))
        return entry

    def deallocate(self, entry: AtomicQueueEntry) -> None:
        """Remove an entry as its store_unlock performs (head of FIFO)."""
        self._entries.remove(entry)
        entry.instr.aq_entry = None
        line = entry.line
        was_locked = entry.locked
        entry.release()
        entry.source_store = None  # drop any stale SQid mapping
        entry._owner = None
        if was_locked and line is not None and not self.is_line_locked(line):
            self._on_fully_unlocked(line)

    # ------------------------------------------------------------------
    # search 1 & 2: locked lines / locked ways

    def is_line_locked(self, line: int) -> bool:
        return line in self._line_locks

    def is_locked_setway(self, set_index: int, way: int) -> bool:
        return (set_index, way) in self._setway_locks

    def locked_l1_ways(self, set_index: int) -> set[int]:
        ways = self._set_way_counts.get(set_index)
        # Callers only probe membership; the shared constant keeps the
        # no-locks common case allocation-free.
        return set(ways) if ways else _EMPTY_WAYS

    def locked_lines(self) -> set[int]:
        return {e.line for e in self._entries if e.locked}  # type: ignore[misc]

    @property
    def any_locked(self) -> bool:
        return self._locked_count > 0

    def audit_indexes(self) -> list[str]:
        """Cross-check the lock-count/SQid indexes against the entries.

        The indexes (line/set-way lock counts, locked total, by-source
        SQid map) are pure redundancy over the entry list; any
        divergence is fast-path bookkeeping corruption that would make
        ``is_line_locked`` / ``locked_l1_ways`` / ``on_store_broadcast``
        silently wrong.  Returns violation strings (empty = consistent).
        Part of the online invariant audit (:mod:`repro.mem.invariants`).
        """
        problems: list[str] = []
        line_counts: dict[int, int] = {}
        setway_counts: dict[tuple[int, int], int] = {}
        locked = 0
        for entry in self._entries:
            if entry.locked:
                locked += 1
                line_counts[entry.line] = line_counts.get(entry.line, 0) + 1
                key = (entry.set_index, entry.way)
                setway_counts[key] = setway_counts.get(key, 0) + 1
        if locked != self._locked_count:
            problems.append(
                f"AQ: {locked} locked entries but locked_count={self._locked_count}"
            )
        if line_counts != self._line_locks:
            problems.append(
                f"AQ: line-lock index {self._line_locks} != actual {line_counts}"
            )
        if setway_counts != self._setway_locks:
            problems.append(
                f"AQ: set/way index {self._setway_locks} != actual {setway_counts}"
            )
        derived_ways = {
            s: {w: n for (s2, w), n in self._setway_locks.items() if s2 == s}
            for s in {s for (s, _w) in self._setway_locks}
        }
        ways_index = {s: d for s, d in self._set_way_counts.items() if d}
        if derived_ways != ways_index:
            problems.append(
                f"AQ: per-set way counts {ways_index} != derived {derived_ways}"
            )
        by_source: dict[int, int] = {}
        for entry in self._entries:
            if entry.source_store is not None:
                by_source[id(entry.source_store)] = (
                    by_source.get(id(entry.source_store), 0) + 1
                )
        mapped = {
            id(store): len(bucket)
            for store, bucket in self._by_source.items()
            if bucket
        }
        if by_source != mapped:
            problems.append(
                "AQ: SQid map disagrees with entries "
                f"(mapped sizes {sorted(mapped.values())}, "
                f"actual {sorted(by_source.values())})"
            )
        for store, bucket in self._by_source.items():
            for entry in bucket:
                if entry.source_store is not store:
                    problems.append(
                        f"AQ: SQid bucket for store seq={store.seq} holds "
                        f"entry seq={entry.seq} with a different source"
                    )
        return problems

    def oldest_locked_entry(self) -> Optional[AtomicQueueEntry]:
        """Watchdog flush point: the oldest *squashable* lock holder.

        Committed atomics are excluded: their store_unlock is already at
        (or heading to) the SB head of an empty SB and will release the
        lock within a cache write latency, so they can never be the
        blocking party — and a committed instruction cannot be flushed.
        """
        oldest = None
        for entry in self._entries:
            if entry.locked and not entry.instr.committed:
                if oldest is None or entry.seq < oldest.seq:
                    oldest = entry
        return oldest

    # ------------------------------------------------------------------
    # search 3: SQid broadcast at store perform time

    def on_store_broadcast(
        self, store: DynInstr, line: int, set_index: int, way: int
    ) -> None:
        """A store wrote to the L1: forwarded entries capture the lock.

        Implements both lock_on_access (ordinary forwarding store) and
        the unlock-then-lock transfer that realizes do_not_unlock for a
        forwarding store_unlock (section 4.2).
        """
        bucket = self._by_source.get(store)
        if not bucket:
            return
        # Copy: clearing source_store edits the bucket in place.
        for entry in list(bucket):
            entry.lock(line, set_index, way)
            entry.source_store = None
            self._stats.bump("lock_captures")

    # ------------------------------------------------------------------
    # search 4: flush

    def squash_from(self, seq: int) -> list[AtomicQueueEntry]:
        """Flush entries with seqNum >= seq; lift their locks.

        Returns the flushed entries so the caller can take back
        forwarding responsibilities (see responsibilities module).
        Unlock-on-squash: a flushed Locked entry stops participating in
        the searches; if that leaves the line with no lock, deferred
        remote requests are replayed.

        Flushed entries keep their ``source_store`` (and their owner
        backref, so clearing it later maintains the SQid map) because
        the caller still needs it to revoke the forwarding
        responsibility.
        """
        flushed = [e for e in self._entries if e.seq >= seq]
        if not flushed:
            return []
        self._entries = [e for e in self._entries if e.seq < seq]
        freed_lines = []
        for entry in flushed:
            entry.instr.aq_entry = None
            if entry.locked:
                if entry.line is not None:
                    freed_lines.append(entry.line)
                entry.release()
                self._stats.bump("unlock_on_squash")
        for line in freed_lines:
            if not self.is_line_locked(line):
                self._on_fully_unlocked(line)
        return flushed

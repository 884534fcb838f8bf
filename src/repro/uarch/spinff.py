"""Deterministic spin-wait fast-forward.

A core stuck in a stable spin loop (barrier wait, test-and-test-and-set
backoff) re-executes the same few instructions against the same cached
line until remote coherence traffic changes what it reads.  Simulating
those laps one event at a time is where paper-scale runs (32 threads,
barrier-heavy kernels) spend almost all of their wall time, and none of
it changes any observable result.

This module removes that time *exactly*:

1. **Detect.**  The fast commit leg counts a streak of committed
   instructions that are all side-effect-free classes (ALU / branch /
   load).  Once the streak passes a threshold and the ROB contains a
   spin-marked op (PAUSE), the engine captures a *relative signature* of
   the complete core-visible state — ROB/LSQ contents with
   sequence-numbers and timestamps made base-relative, rename map,
   register file, predictor tables, private cache residency with LRU
   canonicalized to ranks, and the core's pending event-queue entries as
   (due-offset, callback, canonical arg) tuples.  If the identical
   signature recurs ``P`` cycles later, the loop is exactly periodic
   with period ``P``, and by determinism it will stay periodic until an
   external message arrives.

2. **Observe.**  Between the two matching signatures the engine diffs
   the core's stats scope, accounting attributes and commit trace: the
   per-lap delta.  It then keeps verifying the signature each lap with
   the event kernel's post-log recording enabled until every pending
   entry owned by the core was *seen being posted* — that pins each
   entry's posting cycle relative to the lap, which the replay needs.

3. **Park.**  The core's pending entries are physically removed from
   the calendar ring (descriptors remember due-offset and post-offset),
   an interconnect watch hook is registered for the core, and the core
   goes silent: zero events, zero cost per skipped lap.  With every
   spinning core parked, the event queue's drain loop lands directly on
   the next real event — the global time-warp.

4. **Wake.**  Any message sent to the parked core fires the hook *at
   send time*.  The first send schedules an un-park at the next lap
   boundary strictly after the send cycle; since network transit is at
   least the loop period (parking requires ``P <= latency``), every
   delivery lands at or after that boundary, so the core is always live
   again — in mid-lap-boundary state — before the message arrives.

5. **Re-synthesize.**  Un-parking at boundary ``b`` means ``k = (b -
   t0) / P`` laps were skipped.  Stats gain ``k`` times the per-lap
   delta, accounting attributes likewise, the commit trace gains ``k``
   copies of the per-lap tape, per-instruction timestamps and other
   now-anchored state shift by ``b - t0``, and the descriptors are
   spliced back into the ring at the positions the final lap's live run
   would have posted them (ordered against in-flight deliveries by
   posting cycle).  Absolute-but-unobservable quantities (sequence
   numbers, LRU stamp magnitudes) intentionally do not shift; relative
   order — the only thing the simulation ever consults — is preserved.

The observable result is byte-identical to the un-fast-forwarded run:
``REPRO_NO_SPINFF=1`` disables this engine, and the identity tests
assert that both runs produce the same summary and event stream (the
32-thread golden digest pins the result absolutely).  The differential
fuzzer runs with the feature enabled.
"""

from __future__ import annotations

from typing import Optional

from repro.uarch.decode import KIDX_ALU, KIDX_BRANCH, KIDX_LOAD

#: Committed clean-class instructions before the engine even looks.
#: A handful of spin laps is enough evidence to start observing —
#: the signature match is what actually proves periodicity, and a
#: long warm-up forfeits the short barrier waits that dominate
#: barrier-period workloads.
STREAK_MIN = 24
#: Cycles to back off after a failed observation attempt.  Short:
#: most failures are transient (a last in-flight fill draining, a
#: prefetch landing) and the signature is cheap enough to retry.
COOLDOWN_CYCLES = 64
#: Laps of post-log coverage before giving up on an attempt.
MAX_COVER_LAPS = 24
#: Hard cap on the period the signature search will consider.  The
#: wake-boundary guarantee additionally requires period <= network
#: latency (see _on_send), enforced at match time.
MAX_PERIOD_CAP = 16

#: Sentinel for "this state cannot be canonicalized" (never parked).
_BAD = object()

# Engine states.
_IDLE = 0
_MATCHING = 1
_COVERING = 2
_PARKED = 3


class SpinFastForward:
    """Per-core spin fast-forward state machine (see module docstring)."""

    def __init__(self, core) -> None:
        self.core = core
        self.queue = core.queue
        self.hierarchy = core.hierarchy
        self._network = core.hierarchy._network
        self._max_period = min(self._network.latency, MAX_PERIOD_CAP)
        self._state = _IDLE
        self._next_try_cycle = 0
        # Observation state.
        self._anchor: Optional[tuple] = None
        self._anchor_cycle = 0
        self._anchor_snapshot: Optional[tuple] = None
        self._anchor_attrs: Optional[tuple] = None
        self._anchor_trace_len = 0
        self._period = 0
        self._cover_laps = 0
        self._post_log: Optional[dict] = None
        # Per-lap deltas (filled when the period is found).
        self._counter_deltas: dict = {}
        self._hist_deltas: dict = {}
        self._attr_deltas: tuple = ()
        self._lap_tape: list = []
        # Park state.
        self._parked_at = 0
        self._descriptors: list = []
        self._wake_at: Optional[int] = None
        self._sends: list = []
        self._unpark_cb = self._unpark
        self._on_send_cb = self._on_send

    # ------------------------------------------------------------------
    # detection (called from the tail of _commit_tick)

    @property
    def observing(self) -> bool:
        return self._state in (_MATCHING, _COVERING)

    def on_commit_boundary(self) -> None:
        """Advance the state machine at the end of a commit tick.

        Only called while the core's clean-commit streak is at or above
        ``STREAK_MIN`` (the caller gates on the counter), so everything
        here is off the hot path of ordinary execution.
        """
        state = self._state
        queue = self.queue
        now = queue.now
        if state == _IDLE:
            if now < self._next_try_cycle or not self._prefilter():
                return
            sig = self._signature()
            if sig is None:
                self._next_try_cycle = now + COOLDOWN_CYCLES
                return
            self._anchor = sig
            self._anchor_cycle = now
            self._post_log = self.queue.begin_post_log()
            core = self.core
            self._anchor_snapshot = core.stats.snapshot_prefix(
                core.stats._scope
            )
            self._anchor_attrs = (
                core.active_cycles,
                core.quiescent_cycles,
                core.predictor.lookups,
                core.predictor.mispredicts,
            )
            trace = core.commit_trace
            self._anchor_trace_len = len(trace) if trace is not None else 0
            self._state = _MATCHING
            return
        if state == _MATCHING:
            elapsed = now - self._anchor_cycle
            if elapsed > self._max_period:
                self.abort()
                return
            sig = self._signature()
            if sig is None:
                self.abort()
                return
            if sig != self._anchor:
                return
            # Exact period found: the first recurrence of the complete
            # relative state.  Capture the one-lap deltas.
            self._period = elapsed
            core = self.core
            from repro.common.stats import diff_prefix_snapshots

            after = core.stats.snapshot_prefix(core.stats._scope)
            self._counter_deltas, self._hist_deltas = diff_prefix_snapshots(
                self._anchor_snapshot, after
            )
            a = self._anchor_attrs
            self._attr_deltas = (
                core.active_cycles - a[0],
                core.quiescent_cycles - a[1],
                core.predictor.lookups - a[2],
                core.predictor.mispredicts - a[3],
            )
            trace = core.commit_trace
            self._lap_tape = (
                list(trace[self._anchor_trace_len:])
                if trace is not None
                else []
            )
            self._anchor_cycle = now
            self._anchor_snapshot = None
            self._cover_laps = 0
            self._state = _COVERING
            return
        if state == _COVERING:
            if (now - self._anchor_cycle) % self._period:
                return
            plan: list = []
            sig = self._signature(plan)
            if sig is None or sig != self._anchor:
                self.abort()
                return
            self._cover_laps += 1
            if self._cover_laps > MAX_COVER_LAPS:
                self.abort()
                return
            self._try_park(now, plan)

    def abort(self) -> None:
        """Drop the current observation and back off."""
        if self._post_log is not None:
            self.queue.end_post_log()
            self._post_log = None
        self._anchor = None
        self._anchor_snapshot = None
        self._state = _IDLE
        self._next_try_cycle = self.queue.now + COOLDOWN_CYCLES

    # ------------------------------------------------------------------
    # signature capture

    def _prefilter(self) -> bool:
        """Cheap screen before a full signature capture.

        Parking requires the ROB to hold only side-effect-free classes,
        and real spin loops always contain a spin-marked op (PAUSE); a
        clean-commit streak in straight-line code almost always fails
        the first check on the cheap kidx scan alone.
        """
        core = self.core
        if core.sq or core._atomics_sq or core._fences:
            return False
        has_spin = False
        for entry in core._rob_entries:
            kidx = entry.dec.kidx
            if kidx != KIDX_ALU and kidx != KIDX_BRANCH and kidx != KIDX_LOAD:
                return False
            if entry.dec.spin:
                has_spin = True
        return has_spin

    def _signature(self, plan: Optional[list] = None) -> Optional[tuple]:
        """Complete relative signature of the core's state, or None when
        the state is not parkable (in-flight memory traffic, non-clean
        ROB content, unknown pending-event shapes, ...).

        ``plan``, when given, is filled with the live pending entries
        exactly as :meth:`_scan_pending` does — the covering loop hands
        the same scan to :meth:`_try_park` so each lap walks the event
        ring once, not twice."""
        core = self.core
        if core.halted or core.finished or core.parked:
            return None
        if (
            core.sq
            or len(core.aq)
            or core._stalled_atomics
            or core._loads_waiting_agen
            or core._loads_waiting_fence
            or core._fences
            or core._atomics_sq
        ):
            return None
        # A pending watchdog check does NOT block parking: with the AQ
        # empty (checked above) no line is locked, so the check fires as
        # a pure no-op ("nothing locked" early return) at the same
        # absolute cycle in both the fast and reference runs.  It stays
        # in the queue untouched — the global time-warp stops there and
        # replays it like any other event.  This matters a lot: the
        # default threshold (10k cycles) often exceeds short runs, so a
        # check armed by a core's first atomic would otherwise disable
        # fast-forward on that core for the rest of the run.
        hierarchy = self.hierarchy
        if not hierarchy.can_park():
            return None
        queue = self.queue
        now = queue.now
        entries = list(core._rob_entries)
        base = entries[0].seq if entries else core.next_seq
        index_of = {id(e): i for i, e in enumerate(entries)}

        def ref(instr) -> object:
            if instr is None:
                return -1
            i = index_of.get(id(instr))
            if i is not None:
                return i
            # Dead (committed or squashed) instruction reachable only
            # through rename snapshots; behaviorally it is just its pc,
            # result and lifecycle flags.
            return ("dead", instr.pc, instr.result, instr.committed,
                    instr.squashed)

        def rel(cycle: int) -> int:
            return now - cycle if cycle >= 0 else -1

        rob_sig = []
        for e in entries:
            kidx = e.dec.kidx
            if kidx != KIDX_ALU and kidx != KIDX_BRANCH and kidx != KIDX_LOAD:
                return None
            prev = e.prev_producer
            prev_sig = (
                tuple((reg, ref(p)) for reg, p in prev.items())
                if prev
                else ()
            )
            rob_sig.append((
                e.pc, kidx, e.seq - base, e.completed, e.performed,
                e.addr_ready, e.mem_issued, e.result,
                e.addr_pending, e.value_pending,
                e.address, e.word, e.line,
                e.pred_taken, e.next_pc, e.flags,
                tuple(e.src_values.items()),
                tuple((ref(c), kind, reg) for c, kind, reg in e.dependents)
                if e.dependents
                else (),
                prev_sig,
                rel(e.dispatch_cycle), rel(e.head_wait_cycle),
                rel(e.issue_cycle), rel(e.done_cycle),
                rel(e.perform_cycle),
            ))

        pending = self._scan_pending(base, plan)
        if pending is None:
            return None

        bw = core.issue_bw
        # O(1) proof of memory-side identity between laps: the epochs
        # advance on every placement/removal, recency-*order* change, or
        # MESI transition, so equal epoch tuples at two boundaries mean
        # the L1/L2 arrays, their replacement order, and the coherence
        # states are all bit-identical at those boundaries.  (A loop
        # re-touching its already-MRU lines keeps every epoch still.)
        # Absolute counter values never leak into behaviour — they are
        # only compared for equality within one attempt.
        l1 = hierarchy._l1
        l2 = hierarchy._l2
        caches = (
            hierarchy.state_epoch,
            l1.mut_epoch,
            l1._replacement.rank_epoch,
            l2.mut_epoch,
            l2._replacement.rank_epoch,
        )
        prefetch = core.prefetcher
        prefetch_sig = (
            tuple(
                sorted(
                    (slot, e.last_address, e.stride, e.confidence)
                    for slot, e in prefetch._table.items()
                )
            )
            if prefetch is not None
            else ()
        )
        storeset = core.storeset
        return (
            core.pc,
            core._fetch_epoch,
            core._dispatch_blocked,
            core._fetch_scheduled,
            core._commit_scheduled,
            now - core._last_commit_cycle,
            tuple(core.rename.regfile),
            tuple(ref(p) for p in core.rename._producer),
            tuple(rob_sig),
            tuple(e.seq - base for e in core.lq),
            (now - bw._cycle if bw._cycle >= 0 else None, bw._used),
            tuple(core.predictor._counters),
            tuple(sorted(storeset._ssit.items())),
            tuple(sorted((k, ref(v)) for k, v in storeset._lfst.items())),
            prefetch_sig,
            caches,
            pending,
        )

    def _canon_arg(self, arg, base: int) -> object:
        if arg is None:
            return None
        if type(arg) is int:
            return ("i", arg)
        seq = getattr(arg, "seq", None)
        if seq is not None and hasattr(arg, "dec"):
            return ("d", arg.pc, seq - base)
        if type(arg) is tuple:
            parts = tuple(self._canon_arg(a, base) for a in arg)
            return _BAD if _BAD in parts else ("t", parts)
        return _BAD

    def _targets_core(self, arg) -> bool:
        if type(arg) is list:
            core_id = self.core.core_id
            return any(getattr(m, "dst", None) == core_id for m in arg)
        return getattr(arg, "dst", None) == self.core.core_id

    def _scan_pending(self, base: int, plan: Optional[list]):
        """Canonical tuple of the core's pending events; also fills
        ``plan`` (when given) with the live ``(due, order, callback,
        arg)`` entries for extraction.  None when the pending set makes
        parking illegal: a cancellable handle on an owned entry, an
        uncanonicalizable argument, an owned heap entry, a pending
        microtask, or an in-flight delivery targeting this core."""
        queue = self.queue
        if queue.micro_pending():
            return None
        core = self.core
        hierarchy = self.hierarchy
        now = queue.now
        canon = []
        for due, order, callback, arg, handle in queue.iter_ring():
            owner = getattr(callback, "__self__", None)
            if owner is core or owner is hierarchy:
                if handle is not None:
                    return None
                arg_c = self._canon_arg(arg, base)
                if arg_c is _BAD:
                    return None
                canon.append((due - now, callback.__name__, arg_c))
                if plan is not None:
                    plan.append((due, order, callback, arg))
            elif self._targets_core(arg):
                return None
        for due, order, callback, arg, handle in queue.iter_heap():
            owner = getattr(callback, "__self__", None)
            if owner is core or owner is hierarchy:
                return None
            if self._targets_core(arg):
                return None
        return tuple(canon)

    # ------------------------------------------------------------------
    # park

    def _try_park(self, now: int, plan: list) -> bool:
        core = self.core
        entries = core._rob_entries
        log = self._post_log
        assert log is not None
        for _due, order, _cb, _arg in plan:
            if order not in log:
                # Not every pending entry's posting cycle is known yet
                # (long-latency ops posted before recording started);
                # keep observing — the log catches up within a few laps.
                return False
        period = self._period
        if period > self._network.latency:
            # Wake-boundary guarantee needs transit >= period.
            self.abort()
            return False
        # Build replay descriptors: where each entry sits relative to
        # the park boundary, and how long before its due cycle the live
        # run posted it (the splice rule orders replays against
        # in-flight deliveries by posting cycle).
        descriptors = []
        for due, order, callback, arg in plan:
            descriptors.append((due - now, now - log[order], callback, arg))
        extracted = self.queue.extract_ring(
            lambda cb, a, c=core, h=self.hierarchy: (
                getattr(cb, "__self__", None) is c
                or getattr(cb, "__self__", None) is h
            )
        )
        assert len(extracted) == len(plan)
        self.queue.end_post_log()
        self._post_log = None
        self._descriptors = descriptors
        self._parked_at = now
        self._wake_at = None
        self._sends = []
        watched = frozenset(
            e.line for e in entries if e.line is not None and e.addr_ready
        )
        self.hierarchy.watch_for_park(watched, self._on_send_cb)
        core.parked = True
        core.ff_parks += 1
        self._state = _PARKED
        self._anchor = None
        hook = core.on_park
        if hook is not None:
            hook(now, period, watched)
        return True

    # ------------------------------------------------------------------
    # wake

    def _on_send(self, message, send_cycle: int, due_cycle: int) -> None:
        """Interconnect watch hook: a message is being sent to the
        parked core.  Runs at send time, before the delivery posts."""
        # Message objects are pooled; they stay intact until delivered,
        # which is at or after the un-park boundary, so keeping the
        # reference for splice-time identification is safe.  The kind
        # and line are copied now for wake-cause classification.
        self._sends.append((send_cycle, message, message.kind, message.line))
        if self._wake_at is None:
            period = self._period
            laps = (send_cycle - self._parked_at) // period + 1
            boundary = self._parked_at + laps * period
            self._wake_at = boundary
            self.queue.post(boundary - send_cycle, self._unpark_cb)

    def _unpark(self) -> None:
        core = self.core
        queue = self.queue
        boundary = queue.now
        t0 = self._parked_at
        period = self._period
        skipped = boundary - t0
        assert skipped % period == 0
        laps = skipped // period
        # The watch hook must come off before anything else: events we
        # are about to run may send messages to this core.
        self.hierarchy.unwatch_for_park()
        # Stats / accounting / trace re-synthesis: k times the per-lap
        # delta, exactly what k live laps would have recorded.
        if laps:
            core.stats.apply_scaled_delta(
                self._counter_deltas, self._hist_deltas, laps
            )
            d = self._attr_deltas
            core.active_cycles += laps * d[0]
            core.quiescent_cycles += laps * d[1]
            core.predictor.lookups += laps * d[2]
            core.predictor.mispredicts += laps * d[3]
            if self._lap_tape and core.commit_trace is not None:
                core.commit_trace.extend(self._lap_tape * laps)
        # Shift now-anchored state to the new boundary.  Sequence
        # numbers and LRU stamps deliberately stay put: the simulation
        # only ever consults their relative order, which is unchanged.
        core._last_commit_cycle += skipped
        bw = core.issue_bw
        if bw._cycle >= 0:
            bw._cycle += skipped
        for e in core._rob_entries:
            if e.dispatch_cycle >= 0:
                e.dispatch_cycle += skipped
            if e.head_wait_cycle >= 0:
                e.head_wait_cycle += skipped
            if e.issue_cycle >= 0:
                e.issue_cycle += skipped
            if e.done_cycle >= 0:
                e.done_cycle += skipped
            if e.perform_cycle >= 0:
                e.perform_cycle += skipped
        # Splice the parked events back.  A descriptor's live-run twin
        # was posted at (boundary - post_offset); in-flight deliveries
        # to this core are ordered against it by *their* posting (send)
        # cycles — ties cannot occur (the hook fires before the
        # delivery posts, and transit >= period separates send cycles
        # from replayed post cycles sharing a due cycle).
        send_cycle_of = {id(s[1]): s[0] for s in self._sends}
        core_id = core.core_id
        for offset, post_offset, callback, arg in self._descriptors:
            due = boundary + offset
            replay_posted = boundary - post_offset
            index = None
            for i, (_order, cb, a) in enumerate(
                queue.bucket_live_entries(due)
            ):
                send = None
                if type(a) is list:
                    for m in a:
                        if getattr(m, "dst", None) == core_id:
                            send = send_cycle_of.get(id(m))
                            break
                elif getattr(a, "dst", None) == core_id:
                    send = send_cycle_of.get(id(a))
                if send is not None and send > replay_posted:
                    index = i
                    break
            if index is None:
                index = len(queue.bucket_live_entries(due))
            queue.splice_ring(due, index, callback, arg)
        core.spin_cycles_skipped += skipped
        core.parked = False
        self._descriptors = []
        self._sends = []
        self._state = _IDLE
        self._next_try_cycle = boundary
        hook = core.on_unpark
        if hook is not None:
            first = self._first_send_info()
            hook(boundary, skipped, laps, first)

    def _first_send_info(self) -> Optional[tuple]:
        if not self._sends:
            return None
        send_cycle, _msg, kind, line = self._sends[0]
        return (send_cycle, kind, line, line in self.hierarchy.spin_watch)

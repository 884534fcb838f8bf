"""The observability event bus.

:class:`EventBus` is the single point every instrumented component
emits into.  It maintains

- one :class:`~repro.obs.events.BoundedEventLog` ring sink (the
  retained event stream, capped, with a dropped counter), and
- exact per-stream counters (``"cat/kind" -> count``) that keep
  counting even after the ring starts evicting — so the health report's
  totals are never truncated by the memory bound;

plus an optional list of extra sinks (callables) for tests and tools
that want live fan-out.  Emission order is the deterministic simulator
event order, so two runs of the same configuration produce identical
streams — the property the golden-digest tests pin.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.obs.events import BoundedEventLog, ObsEvent


class EventBus:
    """Ring sink + exact counters + optional live subscribers."""

    def __init__(self, capacity: int) -> None:
        self.ring: BoundedEventLog[ObsEvent] = BoundedEventLog(capacity)
        self.counts: dict[str, int] = {}
        self.sinks: list[Callable[[ObsEvent], None]] = []

    def emit(
        self,
        cycle: int,
        cat: str,
        kind: str,
        src: int = -1,
        seq: int = -1,
        dur: int = 0,
        info: Optional[dict] = None,
    ) -> None:
        event = ObsEvent(cycle, cat, kind, src, seq, dur, info)
        stream = f"{cat}/{kind}"
        self.counts[stream] = self.counts.get(stream, 0) + 1
        self.ring.append(event)
        for sink in self.sinks:
            sink(event)

    # ------------------------------------------------------------------
    # offline queries

    @property
    def dropped(self) -> int:
        return self.ring.dropped

    def events(self) -> list[ObsEvent]:
        """Retained events, oldest first."""
        return self.ring.snapshot()

    def of(self, cat: str, kind: Optional[str] = None) -> list[ObsEvent]:
        return [
            e
            for e in self.ring
            if e.cat == cat and (kind is None or e.kind == kind)
        ]

    def for_core(self, core_id: int) -> list[ObsEvent]:
        return [e for e in self.ring if e.src == core_id]

    def total(self, cat: Optional[str] = None) -> int:
        """Exact emitted count (not bounded by the ring capacity)."""
        if cat is None:
            return sum(self.counts.values())
        prefix = cat + "/"
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))

    def __len__(self) -> int:
        return len(self.ring)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self.ring)

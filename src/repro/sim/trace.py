"""Timestamped event traces — the simulated oscilloscope.

The paper measures its implementation with an oscilloscope attached to
the pump's I/O pins.  The simulation equivalent is a
:class:`TraceRecorder` that components call at every boundary
crossing.  Event *kinds* name the probe points of Fig. 2-(a):

===========  ===========================================================
kind         meaning
===========  ===========================================================
``m``        environment raises a monitored variable (signal edge)
``sensed``   Input-Device notices the signal (ISR entry / poll hit)
``i_ready``  Input-Device finished processing; value crosses into i
``enq``      event enqueued into an io-boundary buffer
``deq``      event dequeued from an io-boundary buffer
``drop``     event lost (buffer overflow / shared-variable overwrite
             / missed poll)
``fault``    injected platform fault fired (message loss, replica
             vote, clock jitter, preemption)
``invoke``   Code(PIM) invocation starts
``i_read``   Code(PIM) consumed a processed input
``o_write``  Code(PIM) produced an output (written to the o side)
``o_pickup`` Output-Device picked the output up
``c``        environment observes the controlled variable (actuation)
===========  ===========================================================

Every record carries the channel, a correlation ``tag`` (request id;
``None`` for anonymous events like invocations) and free-form ``note``
text.  :mod:`repro.analysis.delays` pairs records into the paper's
M-C / Input / Output delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.sim.engine import us_to_ms

__all__ = ["TraceEvent", "TraceRecorder", "EVENT_KINDS"]

EVENT_KINDS = (
    "m", "sensed", "i_ready", "enq", "deq", "drop", "fault",
    "invoke", "i_read", "o_write", "o_pickup", "c",
)


@dataclass(frozen=True)
class TraceEvent:
    """One probe record."""

    time_us: int
    kind: str
    channel: str
    tag: int | None = None
    note: str = ""

    @property
    def time_ms(self) -> float:
        return us_to_ms(self.time_us)

    def __str__(self) -> str:
        tag = f" #{self.tag}" if self.tag is not None else ""
        note = f" ({self.note})" if self.note else ""
        return f"{self.time_ms:10.3f}ms  {self.kind:<8} " \
               f"{self.channel}{tag}{note}"


class TraceRecorder:
    """Append-only event log with simple query helpers.

    Listeners registered with :meth:`add_listener` see every event as
    it is recorded — that is how a live conformance monitor
    (:mod:`repro.monitor`) rides along with a simulation run instead
    of replaying the log afterwards.
    """

    def __init__(self):
        self._events: list[TraceEvent] = []
        self._listeners: list = []

    def add_listener(self, listener) -> None:
        """Call ``listener(event)`` for every future record."""
        self._listeners.append(listener)

    def record(self, time_us: int, kind: str, channel: str,
               tag: int | None = None, note: str = "") -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown trace kind {kind!r}; expected one of "
                f"{EVENT_KINDS}")
        event = TraceEvent(time_us, kind, channel, tag, note)
        self._events.append(event)
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    def events(self, kind: str | None = None,
               channel: str | None = None,
               tag: int | None = None) -> list[TraceEvent]:
        """Filtered view (any combination of kind/channel/tag)."""
        found: Iterable[TraceEvent] = self._events
        if kind is not None:
            found = (e for e in found if e.kind == kind)
        if channel is not None:
            found = (e for e in found if e.channel == channel)
        if tag is not None:
            found = (e for e in found if e.tag == tag)
        return list(found)

    def first(self, kind: str, channel: str | None = None,
              tag: int | None = None) -> TraceEvent | None:
        for event in self._events:
            if event.kind != kind:
                continue
            if channel is not None and event.channel != channel:
                continue
            if tag is not None and event.tag != tag:
                continue
            return event
        return None

    def count(self, kind: str, channel: str | None = None) -> int:
        return len(self.events(kind=kind, channel=channel))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def tags(self, kind: str, channel: str | None = None) -> list[int]:
        """Correlation tags seen for a kind, in time order."""
        return [e.tag for e in self.events(kind=kind, channel=channel)
                if e.tag is not None]

    def render(self, *, max_events: int | None = None) -> str:
        """Oscilloscope-style text dump."""
        shown = self._events if max_events is None \
            else self._events[:max_events]
        lines = [str(e) for e in shown]
        if max_events is not None and len(self._events) > max_events:
            lines.append(f"... {len(self._events) - max_events} more")
        return "\n".join(lines)

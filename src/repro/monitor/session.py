"""One trace session: online matching of a timed event stream.

A :class:`MonitorSession` holds the *frontier* — every symbolic state
of the monitor network consistent with the events observed so far —
and advances it per observed event in two phases (the on-the-fly
subset construction of arXiv:1303.1010):

1. **Closure**: explore the internal (unobservable) moves reachable
   from the frontier, pruning any state whose observation clock can no
   longer be ≤ the event's gap (the event would already be overdue
   there).  Per-configuration inclusion subsumption keeps the closure
   finite and small.
2. **Match**: for every closure state, fire each move on the event's
   channel with the zone first pinned to ``_mon == gap`` and ``_mon``
   reset to 0 in the move's updates.  The surviving successors are the
   new frontier; an empty frontier means the trace deviated, and the
   closure states are handed to :mod:`repro.monitor.report` to compute
   when the event *would* have been admissible.

Both phases run the explorer's successor step
(:meth:`repro.zones.common.ZoneMatrix.apply_plan`) unchanged: an
observable plan already carries the ``_mon`` reset in its zone ops
(:meth:`repro.monitor.model.MonitorModel.moves_for`), so matching is
the pins followed by one ``apply_plan`` call.  Monitor zones are
therefore bit-compatible with exploration zones — and with the batched
stepper in :mod:`repro.monitor.batch`, which runs the same pins and
the same plans through the native kernel for many sessions at once.
"""

from __future__ import annotations

from collections import deque

from repro.mc.state import SymbolicState
from repro.monitor.model import MonitorError, MonitorModel
from repro.monitor.report import DeviationReport, build_deviation
from repro.ta.model import ModelError
from repro.zones.bounds import LE_ZERO, bound_add, encode

__all__ = ["MonitorSession", "can_match_within", "pin_ops"]


def can_match_within(zone, mon_idx: int, gap_us: int) -> bool:
    """Can ``_mon`` still take the value ``gap_us`` in this zone?

    Mirrors the constrain kernel's emptiness test for the upcoming pin
    ``_mon ≤ gap``: the closure prunes states where the observed event
    would already be overdue.
    """
    return bound_add(zone.get(0, mon_idx),
                     encode(gap_us, True)) >= LE_ZERO


def pin_ops(mon_idx: int, gap_us: int) -> tuple:
    """Constrain ops for ``_mon == gap_us`` (applied before guards)."""
    return ((mon_idx, 0, encode(gap_us, True)),
            (0, mon_idx, encode(-gap_us, True)))


class MonitorSession:
    """Streaming conformance check of one trace against one model.

    Sessions are cheap (a frontier of a few zones plus counters); the
    model is shared and read-only.  ``requirement`` optionally names
    the paper requirement being monitored — ``(input_channel,
    output_channel, deadline_ms)`` — so deviation reports can attribute
    a late output to the measured end-to-end delay as well as to the
    model's admissible window.
    """

    __slots__ = ("model", "session_id", "frontier", "conforming",
                 "deviation", "last_time_us", "events_seen",
                 "events_observed", "history", "requirement",
                 "_scratch", "_pinned")

    def __init__(self, model: MonitorModel, *, session_id: int = 0,
                 requirement: tuple | None = None,
                 history: int = 64):
        self.model = model
        self.session_id = session_id
        self.frontier: list[SymbolicState] = model.initial_frontier()
        self.conforming = True
        self.deviation: DeviationReport | None = None
        self.last_time_us = 0
        self.events_seen = 0
        self.events_observed = 0
        self.history: deque = deque(maxlen=history)
        self.requirement = requirement
        self._scratch = None
        self._pinned = None

    # ------------------------------------------------------------------
    def observe(self, event) -> bool:
        """Consume one :class:`~repro.sim.trace.TraceEvent`.

        Returns the session's conformance verdict so far.  Events of
        unobservable kinds/channels only bump the counter; a
        non-conforming session ignores further events (the first
        deviation is the verdict).
        """
        self.events_seen += 1
        if not self.conforming:
            return False
        if not self.model.observable(event.kind, event.channel):
            return True
        if event.time_us < self.last_time_us:
            raise MonitorError(
                f"trace time went backwards: {event.time_us} after "
                f"{self.last_time_us} (kind={event.kind!r}, "
                f"channel={event.channel!r})")
        gap_us = event.time_us - self.last_time_us
        self.events_observed += 1
        candidates = self._closure(gap_us)
        frontier = self._match(candidates, event, gap_us)
        self.history.append(event)
        if frontier:
            self.frontier = frontier
            self.last_time_us = event.time_us
            return True
        self.conforming = False
        self.deviation = build_deviation(self, event, gap_us, candidates)
        return False

    def feed(self, events) -> bool:
        """Consume an iterable of events; final conformance verdict."""
        for event in events:
            self.observe(event)
        return self.conforming

    # ------------------------------------------------------------------
    # Closure over internal moves
    # ------------------------------------------------------------------
    def _closure(self, gap_us: int) -> list[SymbolicState]:
        """States reachable via internal moves with ``_mon ≤ gap`` open."""
        mon = self.model.mon_idx
        passed: dict[tuple, list] = {}
        candidates: list[SymbolicState] = []
        queue: deque[SymbolicState] = deque()
        for state in self.frontier:
            if not can_match_within(state.zone, mon, gap_us):
                continue
            self._closure_insert(passed, candidates, queue, state)
        while queue:
            state = queue.popleft()
            for plan in self.model.moves_for(state.key()).internal:
                zone = self._step(state.zone, plan, state)
                if zone is None:
                    continue
                if not can_match_within(zone, mon, gap_us):
                    continue
                self._closure_insert(
                    passed, candidates, queue,
                    SymbolicState(plan.locs, plan.vals, zone))
        return candidates

    @staticmethod
    def _closure_insert(passed, candidates, queue, state) -> bool:
        bucket = passed.get(state.key())
        if bucket is None:
            bucket = passed[state.key()] = []
        else:
            for stored in bucket:
                if stored.includes(state.zone):
                    return False
        bucket.append(state.zone)
        candidates.append(state)
        queue.append(state)
        return True

    # ------------------------------------------------------------------
    # Matching the observed event
    # ------------------------------------------------------------------
    def _match(self, candidates, event, gap_us: int) -> list[SymbolicState]:
        channel_idx = self.model.channel_index(event.channel)
        pins = pin_ops(self.model.mon_idx, gap_us)
        frontier: list[SymbolicState] = []
        seen: dict[tuple, list] = {}
        intern = self.model.intern
        for state in candidates:
            plans = self.model.moves_for(state.key()).observable
            plans = plans.get(channel_idx, ())
            if not plans:
                continue
            pinned = self._pinned
            if pinned is None or pinned.size != state.zone.size:
                pinned = self._pinned = state.zone.copy()
            else:
                pinned.copy_from(state.zone)
            if not pinned.constrain_all(pins):
                continue
            for plan in plans:
                zone = self._step(pinned, plan, state)
                if zone is None:
                    continue
                zone = intern.intern(zone)
                bucket = seen.get((plan.locs, plan.vals))
                if bucket is None:
                    bucket = seen[(plan.locs, plan.vals)] = []
                elif any(stored.includes(zone) for stored in bucket):
                    continue
                bucket.append(zone)
                frontier.append(SymbolicState(plan.locs, plan.vals, zone))
        return frontier

    # ------------------------------------------------------------------
    def _step(self, src, plan, state):
        """``src.apply_plan``, with the firing context on a deferred
        plan error (the explorer's message)."""
        scratch = self._scratch
        if scratch is None or scratch.size != src.size:
            scratch = self._scratch = src.copy()
        try:
            return src.apply_plan(plan, self.model.compiled.max_constants,
                                  scratch)
        except ModelError as exc:
            raise ModelError(
                f"{exc} (while firing {plan.label} from "
                f"{self.model.compiled.state_description(state)})"
            ) from exc

    # ------------------------------------------------------------------
    def verdict(self) -> dict:
        """Serializable outcome row (CLI/service/report surfaces)."""
        return {
            "session": self.session_id,
            "conforming": self.conforming,
            "events": self.events_seen,
            "observed": self.events_observed,
            "frontier": len(self.frontier),
            "deviation": (self.deviation.to_dict()
                          if self.deviation is not None else None),
        }

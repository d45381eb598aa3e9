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

The plan pipeline below replays the explorer's successor step
(:meth:`repro.zones.common.ZoneMatrix.apply_plan`) op-for-op (same
order, same kernels), so monitor zones are
bit-compatible with exploration zones — and with the vectorized
stepper in :mod:`repro.monitor.batch`, which runs the same sequence
through :class:`repro.zones.batch.BatchExpander`.
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
                 "_scratch")

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
                zone = self._run_internal(state.zone, plan, state)
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
            for plan in plans.get(channel_idx, ()):
                zone = self._run_observable(state.zone, plan, pins, state)
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
    # Plan pipelines (op-identical to ZoneMatrix.apply_plan)
    # ------------------------------------------------------------------
    def _scratch_from(self, src):
        scratch = self._scratch
        if scratch is None or scratch.size != src.size:
            scratch = self._scratch = src.copy()
        else:
            scratch.copy_from(src)
        return scratch

    def _run_internal(self, src, plan, state):
        scratch = self._scratch_from(src)
        if not scratch.constrain_all(plan.guard_ops):
            return None
        self._check_plan_error(plan, state)
        return self._finish_plan(scratch, plan, mon_reset=False)

    def _run_observable(self, src, plan, pins, state):
        scratch = self._scratch_from(src)
        if not scratch.constrain_all(pins):
            return None
        if not scratch.constrain_all(plan.guard_ops):
            return None
        self._check_plan_error(plan, state)
        return self._finish_plan(scratch, plan, mon_reset=True)

    def _check_plan_error(self, plan, state) -> None:
        if plan.error is not None:
            raise ModelError(
                f"{plan.error} (while firing {plan.label} from "
                f"{self.model.compiled.state_description(state)})"
            ) from plan.error

    def _finish_plan(self, scratch, plan, *, mon_reset: bool):
        for kind, x, y in plan.zone_ops:
            if kind == 0:  # reset
                scratch.reset(x, y)
            else:  # copy
                scratch.assign_clock(x, y)
        if mon_reset:
            scratch.reset(self.model.mon_idx, 0)
        if plan.free_clocks:
            scratch.free_many(plan.free_clocks)
        if not scratch.constrain_all(plan.invariant_ops):
            return None
        if plan.delay:
            scratch.up()
            scratch.constrain_all(plan.invariant_ops)
        if plan.lu is not None:
            scratch.extrapolate_lu(plan.lu[0], plan.lu[1])
        else:
            scratch.extrapolate_max(self.model.compiled.max_constants)
        if scratch.is_empty():
            return None
        return scratch.copy()

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

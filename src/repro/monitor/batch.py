"""Batched monitoring: advance many trace sessions per kernel call.

At traffic scale the monitor's cost is not the zone math but the
per-call dispatch around it: thousands of concurrent traces each
advance a small frontier through the same handful of memoized plans.
:class:`BatchMonitor` therefore steps all sessions *in lockstep*,
batching each step across sessions:

1. collect every (session, event) of the batch, fold unobservable
   events straight into the ``events_seen`` counters, and dedup lanes
   whose (frontier, gap, channel) signatures are identical — interned
   zones make the check an identity comparison, and duplicate lanes
   are the common case at traffic scale — then open each remaining
   representative's closure with its own gap;
2. per BFS generation, gather every (state, internal plan) task across
   *all* sessions, group the tasks by plan identity, stack the source
   zones ``(B, n, n)`` and run each plan once through the native
   whole-plan kernel
   (:meth:`~repro.zones.dbm_native.NativeBatchExpander.run_plan`);
3. match phase: the same grouping over observable plans, with each
   lane first pinned to its session's own gap (one
   ``_dbmkernel.constrain_all`` call per lane) and the pinned stack
   then run through the same ``run_plan`` call — observable plans
   already carry the ``_mon`` reset in their zone ops
   (:meth:`~repro.monitor.model.MonitorModel.moves_for`).

Verdicts are bit-identical to feeding each session one event at a
time: tasks scatter back in (session, frontier order, plan order)
sequence — exactly the scalar session's loop order — and zone values
never depend on another lane, so subsumption and frontier contents
replay the sequential decisions verbatim.  On the reference backend
the class transparently falls back to scalar per-session stepping.
"""

from __future__ import annotations

from repro.mc.state import SymbolicState
from repro.monitor.model import MonitorError, MonitorModel
from repro.monitor.report import build_deviation
from repro.monitor.session import MonitorSession, pin_ops
from repro.ta.model import ModelError
from repro.zones.bounds import LE_ZERO, bound_add, encode

__all__ = ["BatchMonitor"]


class _Step:
    """One session's in-flight work for the current event batch."""

    __slots__ = ("session", "event", "gap_us", "channel_idx",
                 "passed", "candidates", "queue", "frontier", "seen")

    def __init__(self, session, event, gap_us, channel_idx):
        self.session = session
        self.event = event
        self.gap_us = gap_us
        self.channel_idx = channel_idx
        self.passed: dict[tuple, list] = {}
        self.candidates: list = []
        self.queue: list = []
        self.frontier: list = []
        self.seen: dict[tuple, list] = {}


class BatchMonitor:
    """A pool of :class:`MonitorSession`\\ s stepped in lockstep.

    ``requirement`` and ``history`` are forwarded to every session
    (sessions of one pool typically watch the same scheme and paper
    requirement).  ``vectorized`` defaults to auto-detection: batched
    kernels when the model compiled on the native backend, scalar
    per-session stepping otherwise; pass ``False`` to force the scalar
    path (the bit-identity tests do).
    """

    def __init__(self, model: MonitorModel, n_sessions: int, *,
                 requirement: tuple | None = None,
                 history: int = 64,
                 vectorized: bool | None = None):
        self.model = model
        self.sessions = [
            MonitorSession(model, session_id=i, requirement=requirement,
                           history=history)
            for i in range(n_sessions)]
        supported = model.backend.name == "native"
        if vectorized is None:
            vectorized = supported
        elif vectorized and not supported:
            raise MonitorError(
                "vectorized monitoring needs the native zone backend "
                f"(model compiled on {model.backend.name!r})")
        self.vectorized = vectorized
        if vectorized:
            import numpy

            from repro.zones.dbm_native import NativeBatchExpander, _k

            compiled = model.compiled
            self._np = numpy
            self._kernel = _k
            self._expander = NativeBatchExpander(
                compiled.n_clocks, compiled.max_constants)
            self._dbm = model.explorer._dbm

    # ------------------------------------------------------------------
    @property
    def conforming(self) -> bool:
        return all(session.conforming for session in self.sessions)

    def verdicts(self) -> list[dict]:
        return [session.verdict() for session in self.sessions]

    # ------------------------------------------------------------------
    def feed(self, streams) -> bool:
        """Drive per-session event streams to exhaustion, in lockstep.

        ``streams[i]`` is session ``i``'s event iterable; each round
        takes the next event of every still-live stream and advances
        them as one batch.  Returns the pool-wide conformance verdict.

        Unobservable events — the overwhelming majority of a platform
        trace — only bump a session's ``events_seen`` counter (the
        contract of :meth:`MonitorSession.observe`), so they are
        folded into the counter here in one pass and never enter the
        batch rounds; verdicts and counters are identical to feeding
        every event through :meth:`observe_batch` one round at a time.
        """
        observable = self.model.observable
        live = {}
        for idx, stream in enumerate(streams):
            session = self.sessions[idx]
            kept = []
            for event in stream:
                if observable(event.kind, event.channel):
                    kept.append(event)
                else:
                    session.events_seen += 1
            if kept:
                live[idx] = iter(kept)
        while live:
            batch = []
            for idx in sorted(live):
                try:
                    batch.append((idx, next(live[idx])))
                except StopIteration:
                    del live[idx]
            if batch:
                self.observe_batch(batch)
        return self.conforming

    def observe_batch(self, events) -> None:
        """Consume ``(session_index, event)`` pairs, one batched step.

        At most one event per session per batch (the second event's
        closure depends on the first's frontier); :meth:`feed` slices
        streams accordingly.
        """
        events = list(events)
        if not self.vectorized:
            for idx, event in events:
                self.sessions[idx].observe(event)
            return
        steps: list[_Step] = []
        busy: set[int] = set()
        for idx, event in events:
            if idx in busy:
                raise MonitorError(
                    f"session {idx} appears twice in one batch; feed "
                    f"its events through consecutive batches")
            busy.add(idx)
            session = self.sessions[idx]
            session.events_seen += 1
            if not session.conforming:
                continue
            if not self.model.observable(event.kind, event.channel):
                continue
            if event.time_us < session.last_time_us:
                raise MonitorError(
                    f"trace time went backwards: {event.time_us} after "
                    f"{session.last_time_us} (kind={event.kind!r}, "
                    f"channel={event.channel!r})")
            steps.append(_Step(session, event,
                               event.time_us - session.last_time_us,
                               self.model.channel_index(event.channel)))
            session.events_observed += 1
        if steps:
            groups = self._dedup_lanes(steps)
            reps = [members[0] for members in groups]
            self._closure_wave(reps)
            self._match_wave(reps)
            for members in groups:
                rep = members[0]
                for twin in members[1:]:
                    twin.candidates = rep.candidates
                    twin.frontier = list(rep.frontier)
        for step in steps:
            session = step.session
            session.history.append(step.event)
            if step.frontier:
                session.frontier = step.frontier
                session.last_time_us = step.event.time_us
            else:
                session.conforming = False
                session.deviation = build_deviation(
                    session, step.event, step.gap_us, step.candidates)

    @staticmethod
    def _dedup_lanes(steps) -> list[list]:
        """Group steps doing provably identical work this round.

        A step's outcome is a pure function of (frontier, gap,
        channel): frontier zones are interned, so object identity
        certifies zone equality, and sessions whose lanes share the
        signature — common at traffic scale, where phase-anchored
        periodic systems quantize concurrent traces into a handful of
        protocol states — run the waves once and share the resulting
        (immutable) candidate and frontier states.  Copies are
        bit-identical by construction: same inputs through the same
        pure pipeline.
        """
        groups: dict[tuple, list] = {}
        for step in steps:
            signature = (step.gap_us, step.channel_idx,
                         tuple((s.locs, s.vals, id(s.zone))
                               for s in step.session.frontier))
            members = groups.get(signature)
            if members is None:
                groups[signature] = [step]
            else:
                members.append(step)
        return list(groups.values())

    # ------------------------------------------------------------------
    # Closure over internal moves, one generation per kernel wave
    # ------------------------------------------------------------------
    def _closure_wave(self, steps) -> None:
        mon = self.model.mon_idx
        moves_for = self.model.moves_for
        for step in steps:
            for state in step.session.frontier:
                if self._can_match(state.zone.get(0, mon), step.gap_us):
                    self._insert(step, state)
        while True:
            tasks: list = []
            for step in steps:
                generation, step.queue = step.queue, []
                for state in generation:
                    for plan in moves_for(state.key()).internal:
                        tasks.append((step, state, plan))
            if not tasks:
                return
            rows = self._run_groups(tasks, pinned=False)
            for (step, state, plan), row in zip(tasks, rows):
                if row is None:
                    continue
                if not self._can_match(int(row[0, mon]), step.gap_us):
                    continue
                self._insert(step, SymbolicState(
                    plan.locs, plan.vals, self._materialize(row)))

    @staticmethod
    def _can_match(mon_lower: int, gap_us: int) -> bool:
        """``can_match_within`` on a raw encoded ``D[0][mon]`` bound."""
        return bound_add(mon_lower, encode(gap_us, True)) >= LE_ZERO

    @staticmethod
    def _insert(step, state) -> None:
        """Replay of :meth:`MonitorSession._closure_insert`."""
        key = state.key()
        bucket = step.passed.get(key)
        if bucket is None:
            bucket = step.passed[key] = []
        else:
            for stored in bucket:
                if stored.includes(state.zone):
                    return
        bucket.append(state.zone)
        step.candidates.append(state)
        step.queue.append(state)

    # ------------------------------------------------------------------
    # Matching the observed events, pinned per lane
    # ------------------------------------------------------------------
    def _match_wave(self, steps) -> None:
        model = self.model
        tasks: list = []
        for step in steps:
            for state in step.candidates:
                plans = model.moves_for(state.key()).observable
                for plan in plans.get(step.channel_idx, ()):
                    tasks.append((step, state, plan))
        if not tasks:
            return
        rows = self._run_groups(tasks, pinned=True)
        intern = model.intern
        for (step, state, plan), row in zip(tasks, rows):
            if row is None:
                continue
            zone = intern.intern(self._materialize(row))
            key = (plan.locs, plan.vals)
            bucket = step.seen.get(key)
            if bucket is None:
                bucket = step.seen[key] = []
            elif any(stored.includes(zone) for stored in bucket):
                continue
            bucket.append(zone)
            step.frontier.append(
                SymbolicState(plan.locs, plan.vals, zone))

    # ------------------------------------------------------------------
    # Plan-grouped kernel waves
    # ------------------------------------------------------------------
    def _run_groups(self, tasks, *, pinned: bool) -> list:
        """Run every task's plan batched; result rows in task order.

        With ``pinned`` each lane is first constrained to
        ``_mon == gap`` of its session (lanes the pins empty enter the
        plan dead).  Deferred plan errors raise for the globally first
        task whose guards survive, matching the scalar session's raise
        point.
        """
        np = self._np
        groups: dict[int, list] = {}
        plans: dict[int, object] = {}
        for t, (_step, _state, plan) in enumerate(tasks):
            pid = id(plan)
            plans[pid] = plan
            groups.setdefault(pid, []).append(t)
        rows: list = [None] * len(tasks)
        first_error: tuple | None = None
        n = self.model.compiled.n_clocks
        mon = self.model.mon_idx
        constrain_all = self._kernel.constrain_all
        for pid, idxs in groups.items():
            plan = plans[pid]
            stack = np.stack([tasks[t][1].zone._m for t in idxs])
            alive = None
            if pinned:
                alive = [constrain_all(lane, n,
                                       pin_ops(mon, tasks[t][0].gap_us))
                         for lane, t in zip(stack, idxs)]
            work, alive = self._expander.run_plan(stack, plan, alive)
            if work is None:  # deferred range-check error plan
                for b, t in enumerate(idxs):
                    if alive[b]:
                        if first_error is None or t < first_error[0]:
                            first_error = (t, plan)
                        break  # idxs ascend: first live is smallest t
                continue
            for b, t in enumerate(idxs):
                if alive[b]:
                    rows[t] = work[b]
        if first_error is not None:
            t, plan = first_error
            step, state, _plan = tasks[t]
            raise ModelError(
                f"{plan.error} (while firing {plan.label} from "
                f"{self.model.compiled.state_description(state)})"
            ) from plan.error
        return rows

    def _materialize(self, row):
        """A fresh backend zone adopting a batched result row."""
        dbm_cls = self._dbm
        zone = dbm_cls.__new__(dbm_cls)
        zone.size = self.model.compiled.n_clocks
        zone._m = row.copy()
        zone._empty = False
        zone._frozen = None
        return zone

"""Precompiled conformance-monitor model for one (PIM, scheme) pair.

The monitor answers "does this concrete timed trace belong to the
scheme's PSM?" — the runtime-verification half of the paper's story
(PAPERS.md, arXiv:1303.1010).  Three transformations turn the PSM into
a *monitor network* whose zone graph matches recorded traces exactly:

1. **Receptive environment.**  The model environment (ENVMC) encodes
   *assumptions* about users — think times, single outstanding
   requests.  A monitored trace already fixes when every input
   happened, so keeping those assumptions would reject valid traces
   whose stimuli the simulator timed differently (the case-study
   requester thinks from the *response*, the model ENV from its own
   output event).  The monitor therefore swaps ENVMC for a universal
   single-location automaton that can emit any input and accept any
   output at any time: inputs become free stimuli and only the
   *implementation's* timing is checked.

2. **Microsecond rescaling.**  Models count integer milliseconds; the
   simulator stamps integer microseconds.  Every clock-constraint
   bound and reset constant is multiplied by 1000, giving an
   isomorphic zone graph in which trace timestamps pin clock values
   without rounding.

3. **Observation clock.**  A fresh global clock ``_mon`` — reset on
   every matched observable event, never read by the model — measures
   the gap to the next event.  Matching an event at gap ``T`` means
   intersecting a candidate zone with ``_mon == T`` before the
   transition's own guards.  ``_mon`` gets a huge extrapolation
   ceiling (raised on both LU maps) so widening can never blur a pin.

The model is built once and shared: :class:`MonitorModel` owns the
compiled network, the per-discrete-configuration move index
(:class:`MonitorMoves` — internal moves vs. observable moves keyed by
channel), and an intern table of candidate zones populated by
:meth:`MonitorModel.precompile`.  Sessions (scalar:
:mod:`repro.monitor.session`; vectorized: :mod:`repro.monitor.batch`)
only *read* it, so one precompiled model serves unbounded concurrent
traces — in-process, via :class:`repro.api.Session`, or cached for the
server lifetime inside the service daemon.
"""

from __future__ import annotations

import copy
from dataclasses import replace

from repro.mc.explorer import ExplorationLimit, ZoneGraphExplorer
from repro.ta.builder import AutomatonBuilder
from repro.ta.model import Automaton, ModelError, Network
from repro.ta.validate import validate
from repro.zones.intern import ZoneInternTable

__all__ = [
    "MON_CLOCK",
    "US_PER_MS",
    "DEFAULT_MON_CEILING_US",
    "MonitorError",
    "MonitorMoves",
    "MonitorModel",
    "receptive_environment",
    "scale_clock_constants",
    "build_monitor_network",
]

#: Observation clock: reset on every matched observable event.
MON_CLOCK = "_mon"

#: Model milliseconds → trace microseconds.
US_PER_MS = 1000

#: Default extrapolation ceiling for ``_mon`` (µs): pins stay exact
#: for inter-event gaps up to ~12 days.
DEFAULT_MON_CEILING_US = 1 << 40


class MonitorError(Exception):
    """Raised for malformed traces or monitor-model build failures."""


def receptive_environment(envmc: Automaton,
                          name: str | None = None) -> Automaton:
    """A universal environment with ``envmc``'s channel alphabet.

    One location, no clocks, no guards: a self-loop emitting each
    channel the model environment emitted (the system's inputs) and
    receiving each channel it received (the system's outputs).  Every
    environment behavior is a behavior of this automaton, so replacing
    ENVMC with it checks implementation timing only.
    """
    builder = AutomatonBuilder(name or envmc.name)
    builder.location("Free", initial=True)
    for channel in sorted(envmc.output_channels()):
        builder.edge("Free", "Free", sync=f"{channel}!")
    for channel in sorted(envmc.input_channels()):
        builder.edge("Free", "Free", sync=f"{channel}?")
    return builder.build()


def scale_clock_constants(network: Network, factor: int) -> Network:
    """A copy of ``network`` with every clock constant × ``factor``.

    Scales invariant atoms, guard atoms and reset values; data
    expressions (counts, flags) are untouched.  Uniform scaling is a
    time-rescaling bijection on runs, so the zone graph is isomorphic.
    """
    def scale_constraints(constraints):
        return tuple(replace(c, bound=c.bound * factor)
                     for c in constraints)

    automata = []
    for auto in network.automata:
        locations = tuple(
            replace(loc, invariant=scale_constraints(loc.invariant))
            if loc.invariant else loc
            for loc in auto.locations)
        edges = []
        for edge in auto.edges:
            guard = edge.guard
            if guard.clock_constraints:
                guard = replace(guard, clock_constraints=scale_constraints(
                    guard.clock_constraints))
            actions = tuple(
                replace(a, value=a.value * factor)
                if type(a).__name__ == "ClockReset" and a.value else a
                for a in edge.update.actions)
            if actions != edge.update.actions or guard is not edge.guard:
                edge = replace(edge, guard=guard,
                               update=replace(edge.update, actions=actions))
            edges.append(edge)
        automata.append(replace(auto, locations=locations,
                                edges=tuple(edges)))
    return replace(network, automata=tuple(automata))


def build_monitor_network(psm, *, factor: int = US_PER_MS) -> Network:
    """The monitor network of a PSM: receptive env + µs scale + ``_mon``."""
    network = psm.network
    env_idx = network.automaton_index(psm.envmc)
    automata = list(network.automata)
    automata[env_idx] = receptive_environment(automata[env_idx])
    if MON_CLOCK in network.global_clocks:
        raise MonitorError(
            f"network {network.name!r} already declares {MON_CLOCK!r}")
    monitored = replace(
        network,
        name=f"{network.name}_monitor",
        automata=tuple(automata),
        global_clocks=network.global_clocks + (MON_CLOCK,))
    return validate(scale_clock_constants(monitored, factor))


class MonitorMoves:
    """One discrete configuration's moves, partitioned for matching.

    ``internal`` are the moves a trace never sees (platform automata
    stepping, polls, io hand-offs) — the closure between observed
    events runs over exactly these.  ``observable`` maps a boundary
    channel index to the moves that synchronize on it — candidates for
    matching an observed event.  Observable plans are copies of the
    explorer's with the ``_mon`` reset appended to ``zone_ops``, so
    matching an event is the pins followed by one ordinary plan step.
    """

    __slots__ = ("internal", "observable")

    def __init__(self, internal, observable):
        self.internal = internal
        self.observable = observable


class MonitorModel:
    """One compiled, indexed monitor — built once, read by many sessions.

    Parameters mirror the explorer's knobs.  ``mon_ceiling_us`` is the
    extrapolation ceiling of the observation clock (pins above it
    would lose exactness); ``max_states`` bounds :meth:`precompile`.
    """

    def __init__(self, psm, *,
                 zone_backend: str | None = None,
                 abstraction: str | None = None,
                 max_states: int = 200_000,
                 mon_ceiling_us: int = DEFAULT_MON_CEILING_US):
        self.psm = psm
        self.network = build_monitor_network(psm)
        self.explorer = ZoneGraphExplorer(
            self.network,
            extra_max_constants={MON_CLOCK: mon_ceiling_us},
            max_states=max_states,
            zone_backend=zone_backend,
            abstraction=abstraction)
        self.compiled = self.explorer.compiled
        self.backend = self.explorer.backend
        self.abstraction = self.explorer.abstraction
        self.mon_idx = self.compiled.clock_id_by_name(MON_CLOCK)
        self.mon_ceiling_us = mon_ceiling_us
        # Both LU maps: the pin constrains _mon from above AND below,
        # so neither side's widening may erase its bounds.  (No-op
        # under Extra_M — the ceiling above covers it symmetrically.)
        self.compiled.raise_lu_floor(self.mon_idx, mon_ceiling_us,
                                     lower=True, upper=True)
        envmc = psm.network.automaton(psm.envmc)
        #: Boundary channels: what the environment sends (trace kind
        #: ``m``) and what it receives back (trace kind ``c``).
        self.input_channels = tuple(sorted(envmc.output_channels()))
        self.output_channels = tuple(sorted(envmc.input_channels()))
        self._channel_index = {
            name: self.compiled.channel_ids[name]
            for name in self.input_channels + self.output_channels}
        self._observable_ids = frozenset(self._channel_index.values())
        self._kind_channels = {"m": frozenset(self.input_channels),
                               "c": frozenset(self.output_channels)}
        self._moves: dict[tuple, MonitorMoves] = {}
        self._moves_version = self.compiled.reduction_version
        #: Candidate-zone intern table (shared across sessions of this
        #: model; precompile seeds it with every reachable zone).
        self.intern = ZoneInternTable()
        #: Discrete-configuration index built by :meth:`precompile`:
        #: key → tuple of interned candidate zones reachable there.
        self.index: dict[tuple, tuple] = {}
        #: Precompile outcome (``None`` until run).
        self.precompile_stats: dict | None = None

    # ------------------------------------------------------------------
    def observable(self, kind: str, channel: str) -> bool:
        """Is a trace event a boundary event this monitor matches?"""
        channels = self._kind_channels.get(kind)
        return channels is not None and channel in channels

    def channel_index(self, channel: str) -> int:
        return self._channel_index[channel]

    def moves_for(self, key: tuple) -> MonitorMoves:
        """Partitioned successor moves of one discrete configuration."""
        if self._moves_version != self.compiled.reduction_version:
            self._moves.clear()
            self._moves_version = self.compiled.reduction_version
        moves = self._moves.get(key)
        if moves is None:
            observable_ids = self._observable_ids
            mon_reset = ((0, self.mon_idx, 0),)
            internal: list = []
            observable: dict[int, list] = {}
            for plan in self.explorer.plans_for(key):
                if plan.channel_idx in observable_ids:
                    matched = copy.copy(plan)
                    matched.zone_ops = plan.zone_ops + mon_reset
                    observable.setdefault(plan.channel_idx,
                                          []).append(matched)
                else:
                    internal.append(plan)
            moves = self._moves[key] = MonitorMoves(
                tuple(internal),
                {ch: tuple(plans) for ch, plans in observable.items()})
        return moves

    def initial_frontier(self) -> list:
        """Initial symbolic states (delay-closed, ``_mon`` = run time)."""
        state = self.explorer.initial_state()
        state = replace_zone(state, self.intern.intern(state.zone))
        return [state]

    # ------------------------------------------------------------------
    def precompile(self) -> dict:
        """Explore the monitor zone graph; warm and index every key.

        The walk runs on a *probe* twin of the session explorer whose
        ``_mon`` ceiling is 0: a free-running observation clock under
        the huge session ceiling would keep zones distinct forever,
        while ceiling 0 widens every ``_mon`` bound away immediately,
        making the probe graph isomorphic to the mon-less network's —
        finite, and an over-approximation of anything a session (whose
        pins only *restrict* behavior) can reach.  Every visited key
        warms the session explorer's plan partition and contributes
        its zone to the candidate index.  Returns (and remembers) a
        stats dict; ``complete=False`` means ``max_states`` cut the
        walk short — sessions still work, filling caches on demand.
        """
        probe = ZoneGraphExplorer(
            self.network,
            extra_max_constants={MON_CLOCK: 0},
            max_states=self.explorer.max_states,
            zone_backend=self.backend.name,
            abstraction=self.abstraction.name)
        seen: dict[tuple, list] = {}
        transitions = 0

        def visit(state) -> None:
            self.moves_for(state.key())
            seen.setdefault(state.key(), []).append(
                self.intern.intern(state.zone))

        try:
            result = probe.explore(visit=visit)
            states, transitions = result.visited, result.transitions
            complete = result.complete
        except ExplorationLimit:
            states = sum(len(zones) for zones in seen.values())
            complete = False
        self.index = {key: tuple(zones) for key, zones in seen.items()}
        self.precompile_stats = {
            "states": states,
            "transitions": transitions,
            "keys": len(self.index),
            "zones": len(self.intern),
            "complete": complete,
            "backend": self.backend.name,
            "abstraction": self.abstraction.name,
        }
        return self.precompile_stats

    def stats(self) -> dict:
        """Shape + cache statistics (service ``stats`` op, reports)."""
        return {
            "network": self.network.name,
            "clocks": self.compiled.n_clocks - 1,
            "backend": self.backend.name,
            "abstraction": self.abstraction.name,
            "input_channels": list(self.input_channels),
            "output_channels": list(self.output_channels),
            "keys_cached": len(self._moves),
            "intern": self.intern.stats(),
            "precompile": self.precompile_stats,
        }


def replace_zone(state, zone):
    """A :class:`SymbolicState` sharing ``state``'s discrete part."""
    from repro.mc.state import SymbolicState

    return SymbolicState(state.locs, state.vals, zone)

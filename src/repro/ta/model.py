"""Timed automata and networks (the UPPAAL-subset modeling language).

A :class:`Network` is the unit of verification: a parallel composition
of :class:`Automaton` instances communicating over declared
:class:`~repro.ta.channels.Channel`\\ s and shared bounded integer
:class:`VariableDecl`\\ s.  Clocks are automaton-local; the network
resolves them to global indices by prefixing (``"M.x"``) unless the
name is already unique.

The classes here are *syntax*.  Symbolic semantics live in
:mod:`repro.mc`; concrete (simulation) semantics in
:mod:`repro.codegen.interpreter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.ta.channels import Channel, Sync
from repro.ta.clocks import ClockConstraint, Guard, Update

__all__ = [
    "Location",
    "Edge",
    "Automaton",
    "VariableDecl",
    "Network",
    "ModelError",
]


class ModelError(Exception):
    """Raised for structurally invalid models and runtime model errors
    (e.g. assigning a variable outside its declared range)."""


@dataclass(frozen=True)
class Location:
    """A control location of one automaton.

    ``urgent`` freezes time while occupied; ``committed`` additionally
    forces the next transition to leave a committed location (atomic
    sequences).  Invariants are conjunctions of clock atoms.
    """

    name: str
    invariant: tuple[ClockConstraint, ...] = ()
    urgent: bool = False
    committed: bool = False

    def __post_init__(self) -> None:
        if self.urgent and self.committed:
            raise ModelError(
                f"location {self.name!r} cannot be urgent and committed")
        if (self.urgent or self.committed) and self.invariant:
            raise ModelError(
                f"location {self.name!r}: urgent/committed locations "
                f"cannot carry invariants")

    def __str__(self) -> str:
        marks = ""
        if self.urgent:
            marks = " (urgent)"
        if self.committed:
            marks = " (committed)"
        inv = " inv: " + " && ".join(str(c) for c in self.invariant) \
            if self.invariant else ""
        return f"{self.name}{marks}{inv}"


@dataclass(frozen=True)
class Edge:
    """A transition between two locations of one automaton."""

    source: str
    target: str
    guard: Guard = field(default_factory=Guard)
    sync: Sync | None = None
    update: Update = field(default_factory=Update)

    def label(self) -> str:
        parts = []
        if not self.guard.is_trivial():
            parts.append(f"[{self.guard}]")
        if self.sync is not None:
            parts.append(str(self.sync))
        if not self.update.is_empty():
            parts.append(f"{{{self.update}}}")
        return " ".join(parts)

    def __str__(self) -> str:
        return f"{self.source} --{self.label()}--> {self.target}"


@dataclass(frozen=True)
class Automaton:
    """One timed automaton: locations, local clocks and edges."""

    name: str
    locations: tuple[Location, ...]
    edges: tuple[Edge, ...]
    initial: str
    clocks: tuple[str, ...] = ()

    def location(self, name: str) -> Location:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise ModelError(f"automaton {self.name!r}: no location {name!r}")

    def location_names(self) -> list[str]:
        return [loc.name for loc in self.locations]

    def has_location(self, name: str) -> bool:
        return any(loc.name == name for loc in self.locations)

    def edges_from(self, location: str) -> list[Edge]:
        return [e for e in self.edges if e.source == location]

    def input_channels(self) -> set[str]:
        """Channels this automaton receives on (``ch?``)."""
        return {e.sync.channel for e in self.edges
                if e.sync is not None and not e.sync.is_emit}

    def output_channels(self) -> set[str]:
        """Channels this automaton emits on (``ch!``)."""
        return {e.sync.channel for e in self.edges
                if e.sync is not None and e.sync.is_emit}

    def with_name(self, name: str) -> "Automaton":
        return replace(self, name=name)

    def __str__(self) -> str:
        lines = [f"automaton {self.name} (initial {self.initial})"]
        lines += [f"  loc {loc}" for loc in self.locations]
        lines += [f"  {edge}" for edge in self.edges]
        return "\n".join(lines)


@dataclass(frozen=True)
class VariableDecl:
    """A shared bounded integer variable ``lo ≤ v ≤ hi``.

    Bounded domains keep the product state space finite — assigning a
    value outside the range is a *model error* surfaced during
    exploration, mirroring UPPAAL's runtime range check.
    """

    name: str
    init: int = 0
    lo: int = 0
    hi: int = 1 << 30

    def __post_init__(self) -> None:
        if not self.lo <= self.init <= self.hi:
            raise ModelError(
                f"variable {self.name!r}: initial value {self.init} "
                f"outside [{self.lo}, {self.hi}]")

    def check(self, value: int) -> int:
        if not self.lo <= value <= self.hi:
            raise ModelError(
                f"variable {self.name!r}: value {value} outside "
                f"[{self.lo}, {self.hi}]")
        return value

    def __str__(self) -> str:
        return f"int[{self.lo},{self.hi}] {self.name} = {self.init}"


@dataclass(frozen=True)
class Network:
    """A parallel composition of automata — the verification unit.

    ``constants`` are symbolic names folded into guards at parse time
    and available to data expressions at evaluation time; they never
    change.  ``variables`` are the shared mutable discrete state.
    ``global_clocks`` are clocks visible to every automaton (used by
    the observer instrumentation in :mod:`repro.mc.observers`).
    """

    name: str
    automata: tuple[Automaton, ...]
    channels: tuple[Channel, ...] = ()
    variables: tuple[VariableDecl, ...] = ()
    constants: Mapping[str, int] = field(default_factory=dict)
    global_clocks: tuple[str, ...] = ()

    def automaton(self, name: str) -> Automaton:
        for auto in self.automata:
            if auto.name == name:
                return auto
        raise ModelError(f"network {self.name!r}: no automaton {name!r}")

    def automaton_index(self, name: str) -> int:
        for i, auto in enumerate(self.automata):
            if auto.name == name:
                return i
        raise ModelError(f"network {self.name!r}: no automaton {name!r}")

    def channel(self, name: str) -> Channel:
        for ch in self.channels:
            if ch.name == name:
                return ch
        raise ModelError(f"network {self.name!r}: no channel {name!r}")

    def has_channel(self, name: str) -> bool:
        return any(ch.name == name for ch in self.channels)

    def variable(self, name: str) -> VariableDecl:
        for var in self.variables:
            if var.name == name:
                return var
        raise ModelError(f"network {self.name!r}: no variable {name!r}")

    def clock_index(self) -> dict[tuple[str, str], int]:
        """Map (automaton, clock name) → global DBM index (from 1).

        Global clocks come first (same index for every automaton),
        then each automaton's local clocks.  :meth:`clock_names` gives
        the resolved display names in index order.
        """
        index: dict[tuple[str, str], int] = {}
        for pos, clock in enumerate(self.global_clocks, start=1):
            for auto in self.automata:
                index[(auto.name, clock)] = pos
        next_id = 1 + len(self.global_clocks)
        for auto in self.automata:
            for clock in auto.clocks:
                if clock in self.global_clocks:
                    raise ModelError(
                        f"automaton {auto.name!r}: local clock {clock!r} "
                        f"shadows a global clock")
                index[(auto.name, clock)] = next_id
                next_id += 1
        return index

    def clock_names(self) -> list[str]:
        """Resolved global clock names, position 0 = reference clock."""
        counts: dict[str, int] = {}
        for auto in self.automata:
            for clock in auto.clocks:
                counts[clock] = counts.get(clock, 0) + 1
        names = ["t0"]
        names.extend(self.global_clocks)
        for auto in self.automata:
            for clock in auto.clocks:
                if counts[clock] > 1:
                    names.append(f"{auto.name}.{clock}")
                else:
                    names.append(clock)
        return names

    def n_clocks(self) -> int:
        """DBM dimension: global + local clocks + the reference clock."""
        return (1 + len(self.global_clocks)
                + sum(len(a.clocks) for a in self.automata))

    def add_automata(self, extra: Iterable[Automaton],
                     extra_channels: Iterable[Channel] = (),
                     extra_variables: Iterable[VariableDecl] = (),
                     name: str | None = None) -> "Network":
        """A new network with additional components (for observers)."""
        known_channels = {c.name for c in self.channels}
        new_channels = [c for c in extra_channels
                        if c.name not in known_channels]
        known_vars = {v.name for v in self.variables}
        new_vars = [v for v in extra_variables if v.name not in known_vars]
        return Network(
            name=name or self.name,
            automata=self.automata + tuple(extra),
            channels=self.channels + tuple(new_channels),
            variables=self.variables + tuple(new_vars),
            constants=dict(self.constants),
        )

    def with_channels_broadcast(self, names: Iterable[str]) -> "Network":
        """A copy where the named channels are declared broadcast.

        Used by the observer machinery to tap synchronizations.  Note:
        converting a binary channel with a single emitter/receiver pair
        to broadcast preserves its behavior *when every receiver edge
        is guard-compatible*; the validator re-checks the result.
        """
        wanted = set(names)
        channels = tuple(
            Channel(ch.name, broadcast=True, urgent=ch.urgent)
            if ch.name in wanted else ch
            for ch in self.channels
        )
        return replace(self, channels=channels)

    def stats(self) -> dict[str, int]:
        """Structural statistics (used by reports and tests)."""
        return {
            "automata": len(self.automata),
            "locations": sum(len(a.locations) for a in self.automata),
            "edges": sum(len(a.edges) for a in self.automata),
            "clocks": self.n_clocks() - 1,
            "channels": len(self.channels),
            "variables": len(self.variables),
        }

    def __str__(self) -> str:
        lines = [f"network {self.name}"]
        lines += [f"  {ch}" for ch in self.channels]
        lines += [f"  {var}" for var in self.variables]
        for auto in self.automata:
            lines += ["  " + line for line in str(auto).splitlines()]
        return "\n".join(lines)


def data_env(network: Network,
             valuation: Mapping[str, int]) -> dict[str, int]:
    """Evaluation environment: constants overlaid with a valuation."""
    env = dict(network.constants)
    env.update(valuation)
    return env

"""Compiled networks and symbolic states for zone-based exploration.

:class:`CompiledNetwork` preprocesses a :class:`~repro.ta.model.Network`
once — resolving clock and variable names to indices, pre-encoding
clock constraints as DBM operations, bucketing edges by (automaton,
location, channel) and computing the per-clock maximum constants used
by Extra_M extrapolation — so the explorer's inner loop touches no
strings.

A :class:`SymbolicState` is the classic triple *(location vector,
variable valuation, zone)*; the first two are hashable tuples, the
zone is a canonical DBM.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, Iterator, Mapping, Sequence

from repro.ta.bounds import (
    AbstractionSpec,
    analyze_lu_bounds,
    resolve_abstraction,
)
from repro.ta.channels import Channel
from repro.ta.clocks import (
    Assignment,
    ClockConstraint,
    ClockCopy,
    ClockReset,
)
from repro.ta.expr import Const, Expr
from repro.ta.model import Automaton, Edge, ModelError, Network
from repro.zones.dbm import DBM
from repro.zones.bounds import encode

__all__ = [
    "CompiledEdge",
    "CompiledNetwork",
    "SymbolicState",
    "encode_constraint",
]


def encode_constraint(constraint: ClockConstraint,
                      clock_ids: Mapping[str, int]) \
        -> list[tuple[int, int, int]]:
    """Pre-encode a clock atom as DBM ``constrain`` argument triples."""
    i = clock_ids[constraint.clock]
    j = clock_ids[constraint.other] if constraint.other is not None else 0
    op = constraint.op
    if op in ("<", "<="):
        return [(i, j, encode(constraint.bound, op == "<="))]
    if op in (">", ">="):
        return [(j, i, encode(-constraint.bound, op == ">="))]
    # ==
    return [(i, j, encode(constraint.bound, True)),
            (j, i, encode(-constraint.bound, True))]


@dataclass(frozen=True)
class CompiledEdge:
    """One edge with all names resolved to indices.

    ``clock_ops`` are ready-made ``(i, j, encoded_bound)`` triples;
    ``update_ops`` is the ordered action list with items
    ``("reset", clock_idx, value)``, ``("copy", dst_idx, src_idx)`` or
    ``("assign", var_idx, Expr)``.  ``guard_fn`` is the data guard
    compiled to a Python closure over the evaluation environment.
    """

    auto_idx: int
    source_idx: int
    target_idx: int
    clock_ops: tuple[tuple[int, int, int], ...]
    data_guard: Expr
    guard_fn: object  # Callable[[Mapping[str, int]], int]
    channel_idx: int | None
    is_emit: bool
    update_ops: tuple[tuple, ...]
    edge: Edge
    auto_name: str

    def has_clock_guard(self) -> bool:
        return bool(self.clock_ops)

    def label(self, hidden: Collection[str] = ()) -> str:
        """``automaton: edge``, without the update actions that write
        one of the ``hidden`` variables/clocks."""
        edge = self.edge
        if hidden:
            edge = replace(edge, update=edge.update.without(hidden))
        return f"{self.auto_name}: {edge}"


def _expr_to_env_python(expr: Expr) -> str:
    """Translate a data expression to Python over ``env[...]``."""
    from repro.ta.expr import Binary, Const, Unary, Var

    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Var):
        return f"env[{expr.name!r}]"
    if isinstance(expr, Unary):
        inner = _expr_to_env_python(expr.operand)
        if expr.op == "-":
            return f"(-{inner})"
        return f"(0 if {inner} else 1)"
    if isinstance(expr, Binary):
        left = _expr_to_env_python(expr.left)
        right = _expr_to_env_python(expr.right)
        if expr.op == "&&":
            return f"(1 if ({left} and {right}) else 0)"
        if expr.op == "||":
            return f"(1 if ({left} or {right}) else 0)"
        if expr.op in ("<", "<=", ">", ">=", "==", "!="):
            return f"(1 if {left} {expr.op} {right} else 0)"
        if expr.op == "/":
            return f"_int_div({left}, {right})"
        if expr.op == "%":
            return f"_int_mod({left}, {right})"
        return f"({left} {expr.op} {right})"
    raise ModelError(f"cannot compile expression {expr!r}")


def compile_data_guard(expr: Expr):
    """Compile a data expression into a fast ``env -> int`` closure."""
    from repro.ta.expr import Const, int_div, int_mod

    if isinstance(expr, Const):
        value = expr.value
        return lambda env, _v=value: _v
    source = f"lambda env: {_expr_to_env_python(expr)}"
    return eval(compile(source, "<guard>", "eval"),
                {"_int_div": int_div, "_int_mod": int_mod})


class SymbolicState:
    """Triple (locations, valuation, zone); key = discrete part.

    The discrete key and its hash are memoized: the explorer consults
    them repeatedly (passed-bucket lookup, waiting-list dedup), and
    before the memo every call re-allocated the pair tuple and
    re-hashed it.

    ``link`` is the trace link a tracing explorer records on every
    stored successor: ``(parent_state, plan)``, where ``plan.label`` is
    the transition label; ``None`` on the initial state and whenever
    tracing is off.
    """

    __slots__ = ("locs", "vals", "zone", "link", "_key", "_key_hash")

    def __init__(self, locs: tuple[int, ...], vals: tuple[int, ...],
                 zone: DBM):
        self.locs = locs
        self.vals = vals
        self.zone = zone
        self.link: tuple[SymbolicState, object] | None = None
        self._key = None
        self._key_hash = None

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        key = self._key
        if key is None:
            key = self._key = (self.locs, self.vals)
        return key

    def key_hash(self) -> int:
        """Cached ``hash(self.key())`` — the shard-assignment key."""
        value = self._key_hash
        if value is None:
            value = self._key_hash = hash(self.key())
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SymbolicState(locs={self.locs}, vals={self.vals}, " \
               f"zone={self.zone.as_text()})"


class CompiledNetwork:
    """Index-resolved form of a network plus semantic lookup tables."""

    def __init__(self, network: Network,
                 extra_max_constants: Mapping[str, int] | None = None,
                 abstraction: AbstractionSpec | str | None = None):
        """Compile ``network``.

        ``extra_max_constants`` raises the extrapolation ceiling of the
        named clocks (display names, see ``Network.clock_names``) —
        required by sup queries, whose answers must stay below the
        ceiling to be exact.  Under the LU abstraction the same
        ceilings raise the *lower*-bound map: that is the side whose
        widening rule could invent clock values above the ceiling, so
        it alone keeps sup readings and lower-bound observer formulas
        exact — the upper map stays free to erase the observer
        clock's lower-bound residue (the blow-up driver).

        ``abstraction`` selects the extrapolation operator
        (:func:`repro.ta.bounds.resolve_abstraction` order:
        explicit > ``set_abstraction`` > ``REPRO_ABSTRACTION`` >
        ``extra_m``).
        """
        self.network = network
        self.abstraction = resolve_abstraction(abstraction)
        self.automata: tuple[Automaton, ...] = network.automata
        self.n_automata = len(network.automata)

        # ---- clocks -----------------------------------------------------
        self.clock_ids = network.clock_index()
        self.n_clocks = network.n_clocks()
        self.clock_names = network.clock_names()
        self._name_to_clock = {name: idx for idx, name
                               in enumerate(self.clock_names)}
        # Qualified "Automaton.clock" aliases always resolve, even when
        # the bare local name is unique.
        for (auto_name, clock), idx in self.clock_ids.items():
            self._name_to_clock.setdefault(f"{auto_name}.{clock}", idx)

        # ---- variables --------------------------------------------------
        self.var_names: tuple[str, ...] = tuple(
            v.name for v in network.variables)
        self.var_decls = {v.name: v for v in network.variables}
        self._var_pos = {name: i for i, name in enumerate(self.var_names)}
        self.initial_vals: tuple[int, ...] = tuple(
            v.init for v in network.variables)
        self.constants: dict[str, int] = dict(network.constants)

        # ---- channels ---------------------------------------------------
        self.channels: tuple[Channel, ...] = network.channels
        self.channel_ids = {ch.name: i for i, ch in enumerate(self.channels)}
        self.urgent_channels = [i for i, ch in enumerate(self.channels)
                                if ch.urgent]
        self.broadcast = [ch.broadcast for ch in self.channels]

        # ---- locations --------------------------------------------------
        self.loc_ids: list[dict[str, int]] = []
        self.loc_names: list[list[str]] = []
        self.invariant_ops: list[list[tuple[tuple[int, int, int], ...]]] = []
        self.loc_committed: list[list[bool]] = []
        self.loc_urgent: list[list[bool]] = []
        self.initial_locs: tuple[int, ...] = ()

        initial: list[int] = []
        for a_idx, auto in enumerate(self.automata):
            ids = {loc.name: i for i, loc in enumerate(auto.locations)}
            self.loc_ids.append(ids)
            self.loc_names.append([loc.name for loc in auto.locations])
            clock_ids_here = self._automaton_clock_ids(auto)
            inv_ops = []
            committed = []
            urgent = []
            for loc in auto.locations:
                ops: list[tuple[int, int, int]] = []
                for atom in loc.invariant:
                    ops.extend(encode_constraint(atom, clock_ids_here))
                inv_ops.append(tuple(ops))
                committed.append(loc.committed)
                urgent.append(loc.urgent)
            self.invariant_ops.append(inv_ops)
            self.loc_committed.append(committed)
            self.loc_urgent.append(urgent)
            initial.append(ids[auto.initial])
        self.initial_locs = tuple(initial)

        # ---- edges ------------------------------------------------------
        # internal_edges[a][l]          -> [CompiledEdge]
        # emit_edges[a][l]    {ch: [CompiledEdge]}
        # recv_edges[a][l]    {ch: [CompiledEdge]}
        self.internal_edges: list[list[list[CompiledEdge]]] = []
        self.emit_edges: list[list[dict[int, list[CompiledEdge]]]] = []
        self.recv_edges: list[list[dict[int, list[CompiledEdge]]]] = []
        self.all_edges: list[CompiledEdge] = []
        for a_idx, auto in enumerate(self.automata):
            n_locs = len(auto.locations)
            internal: list[list[CompiledEdge]] = [[] for _ in range(n_locs)]
            emit: list[dict[int, list[CompiledEdge]]] = \
                [{} for _ in range(n_locs)]
            recv: list[dict[int, list[CompiledEdge]]] = \
                [{} for _ in range(n_locs)]
            for edge in auto.edges:
                compiled = self._compile_edge(a_idx, auto, edge)
                self.all_edges.append(compiled)
                src = compiled.source_idx
                if compiled.channel_idx is None:
                    internal[src].append(compiled)
                elif compiled.is_emit:
                    emit[src].setdefault(compiled.channel_idx,
                                         []).append(compiled)
                else:
                    recv[src].setdefault(compiled.channel_idx,
                                         []).append(compiled)
            self.internal_edges.append(internal)
            self.emit_edges.append(emit)
            self.recv_edges.append(recv)

        # ---- extrapolation constants -------------------------------------
        self.max_constants = self._compute_max_constants(
            extra_max_constants or {})
        # ---- per-location LU bounds (Extra⁺_LU) ---------------------------
        # The analysis and its composition caches exist only when the
        # LU abstraction is selected; the Extra_M path stays untouched
        # (and bit-identical to every published pin).
        self._lu_map = None
        #: Directional clock-index floors on the LU maps: the extra
        #: ceilings above (lower side — they protect lower-bound
        #: formulas and sup readings) plus any :meth:`raise_lu_floor`
        #: calls made by query-formula compilation.  Ships to process
        #: workers.
        self.lu_lower_floors: dict[int, int] = {}
        self.lu_upper_floors: dict[int, int] = {}
        self._lu_state_cache: dict[tuple[int, ...],
                                   tuple[tuple, tuple]] = {}
        if self.abstraction.is_lu:
            self._lu_map = analyze_lu_bounds(network)
            for name, ceiling in (extra_max_constants or {}).items():
                idx = self._name_to_clock[name]
                self.lu_lower_floors[idx] = max(
                    self.lu_lower_floors.get(idx, 0), ceiling)

        # ---- evaluation-environment memo ---------------------------------
        # One dict per distinct valuation; the explorer looks these up
        # once per discrete configuration instead of rebuilding them
        # for every expanded state.  Treat returned dicts as read-only.
        self._env_cache: dict[tuple[int, ...], dict[str, int]] = {}

        # ---- active-clock reduction (Daws & Yovine) -----------------------
        # inactive_clocks[a][l] = tuple of global clock indices of
        # automaton a's local clocks that are irrelevant at location l
        # (not read before being reset on every outgoing path).  The
        # explorer frees them, collapsing dead timer phases.  Global
        # clocks are never freed (observers read them externally).
        self.inactive_clocks = self._compute_inactive_clocks()
        #: Bumped by :meth:`protect_clocks`; explorers compare it to
        #: invalidate successor plans built against stale tables.
        self.reduction_version = 0

    # ------------------------------------------------------------------
    def _automaton_clock_ids(self, auto: Automaton) -> dict[str, int]:
        ids = {}
        for clock in self.network.global_clocks:
            ids[clock] = self.clock_ids[(auto.name, clock)]
        for clock in auto.clocks:
            ids[clock] = self.clock_ids[(auto.name, clock)]
        return ids

    def _compile_edge(self, a_idx: int, auto: Automaton,
                      edge: Edge) -> CompiledEdge:
        loc_ids = self.loc_ids[a_idx]
        clock_ids_here = self._automaton_clock_ids(auto)
        clock_ops: list[tuple[int, int, int]] = []
        for atom in edge.guard.clock_constraints:
            clock_ops.extend(encode_constraint(atom, clock_ids_here))
        update_ops: list[tuple] = []
        for action in edge.update.actions:
            if isinstance(action, ClockReset):
                update_ops.append(("reset", clock_ids_here[action.clock],
                                   action.value))
            elif isinstance(action, ClockCopy):
                update_ops.append(("copy", clock_ids_here[action.clock],
                                   clock_ids_here[action.source]))
            elif isinstance(action, Assignment):
                update_ops.append(("assign", action.var, action.expr))
        channel_idx = None
        is_emit = False
        if edge.sync is not None:
            channel_idx = self.channel_ids[edge.sync.channel]
            is_emit = edge.sync.is_emit
        return CompiledEdge(
            auto_idx=a_idx,
            source_idx=loc_ids[edge.source],
            target_idx=loc_ids[edge.target],
            clock_ops=tuple(clock_ops),
            data_guard=edge.guard.data,
            guard_fn=compile_data_guard(edge.guard.data),
            channel_idx=channel_idx,
            is_emit=is_emit,
            update_ops=tuple(update_ops),
            edge=edge,
            auto_name=auto.name,
        )

    def _compute_max_constants(
            self, extra: Mapping[str, int]) -> list[int]:
        """Per-clock Extra_M ceilings from every constraint and reset."""
        maxes = [0] * self.n_clocks
        for a_idx, auto in enumerate(self.automata):
            clock_ids_here = self._automaton_clock_ids(auto)
            atoms: list[ClockConstraint] = []
            for loc in auto.locations:
                atoms.extend(loc.invariant)
            for edge in auto.edges:
                atoms.extend(edge.guard.clock_constraints)
                for action in edge.update.actions:
                    if isinstance(action, ClockReset) and action.value:
                        idx = clock_ids_here[action.clock]
                        maxes[idx] = max(maxes[idx], action.value)
            for atom in atoms:
                bound = atom.max_constant()
                for clock in atom.clocks():
                    idx = clock_ids_here[clock]
                    maxes[idx] = max(maxes[idx], bound)
        for name, ceiling in extra.items():
            if name not in self._name_to_clock:
                raise ModelError(
                    f"extra max constant for unknown clock {name!r} "
                    f"(known: {self.clock_names[1:]})")
            idx = self._name_to_clock[name]
            maxes[idx] = max(maxes[idx], ceiling)
        return maxes

    def _compute_inactive_clocks(self) -> list[list[tuple[int, ...]]]:
        """Per-(automaton, location) inactive local clock indices."""
        result: list[list[tuple[int, ...]]] = []
        for a_idx, auto in enumerate(self.automata):
            local = set(auto.clocks)
            if not local:
                result.append([() for _ in auto.locations])
                continue
            loc_ids = self.loc_ids[a_idx]
            n_locs = len(auto.locations)
            used_at: list[set[str]] = [set() for _ in range(n_locs)]
            for loc in auto.locations:
                ids = loc_ids[loc.name]
                for atom in loc.invariant:
                    used_at[ids].update(c for c in atom.clocks()
                                        if c in local)
            edge_info = []
            for edge in auto.edges:
                used = set()
                for atom in edge.guard.clock_constraints:
                    used.update(c for c in atom.clocks() if c in local)
                resets = set()
                for action in edge.update.actions:
                    if isinstance(action, ClockReset) \
                            and action.clock in local:
                        resets.add(action.clock)
                    elif isinstance(action, ClockCopy):
                        if action.clock in local:
                            resets.add(action.clock)
                        if action.source in local:
                            used.add(action.source)
                edge_info.append((loc_ids[edge.source],
                                  loc_ids[edge.target], used, resets))
            active: list[set[str]] = [set(used_at[i])
                                      for i in range(n_locs)]
            changed = True
            while changed:
                changed = False
                for src, dst, used, resets in edge_info:
                    flow = used | (active[dst] - resets)
                    if not flow <= active[src]:
                        active[src] |= flow
                        changed = True
            clock_ids_here = self._automaton_clock_ids(auto)
            per_loc = []
            for i in range(n_locs):
                inactive = tuple(sorted(
                    clock_ids_here[c] for c in local - active[i]))
                per_loc.append(inactive)
            result.append(per_loc)
        return result

    def protect_clocks(self, indices) -> None:
        """Exempt clocks from active-clock reduction.

        Queries that read a clock's value (state formulas, sup
        queries) must call this before exploration — otherwise the
        reduction may free the clock in locations where the model
        itself no longer needs it, making its value meaningless there.
        """
        protect = set(indices)
        self.inactive_clocks = [
            [tuple(c for c in per_loc if c not in protect)
             for per_loc in per_auto]
            for per_auto in self.inactive_clocks
        ]
        self.reduction_version += 1

    # ------------------------------------------------------------------
    # LU abstraction (Extra⁺_LU)
    # ------------------------------------------------------------------
    def lu_bounds_for(self, locs: tuple[int, ...]) \
            -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Composed ``(lower, upper)`` maps for one location vector.

        Memoized per location vector (the explorer resolves them once
        per successor plan); invalidated together with the plan cache
        when floors rise (``reduction_version``).
        """
        cached = self._lu_state_cache.get(locs)
        if cached is None:
            cached = self._lu_state_cache[locs] = \
                self._lu_map.state_bounds(locs, self.lu_lower_floors,
                                          self.lu_upper_floors)
        return cached

    def raise_lu_floor(self, clock_idx: int, value: int, *,
                       lower: bool = True,
                       upper: bool = True) -> None:
        """Raise a clock's LU floors at every location.

        Query formulas constrain zones from *outside* the network
        (``StateFormula`` clock conditions), so their constants never
        appear in the static analysis; compilation calls this so the
        LU widening can never erase a distinction such a formula
        tests.  Floors are directional: a lower-bound atom ``x > c``
        only needs ``L(x) ≥ c`` (the rule erasing *upper* bounds must
        not invent values above ``c``), an upper-bound atom ``x < c``
        only needs ``U(x) ≥ c``.  No-op under Extra_M — its callers
        already thread the needed ceilings through
        ``extra_max_constants``, and the seed pins must stay
        bit-identical.
        """
        if self._lu_map is None:
            return
        raised = False
        if lower and value > self.lu_lower_floors.get(clock_idx, -1):
            self.lu_lower_floors[clock_idx] = value
            raised = True
        if upper and value > self.lu_upper_floors.get(clock_idx, -1):
            self.lu_upper_floors[clock_idx] = value
            raised = True
        if raised:
            self._lu_state_cache.clear()
            # Plans embed the composed maps; force a rebuild exactly
            # like protect_clocks does.
            self.reduction_version += 1

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------
    def clock_id_by_name(self, name: str) -> int:
        """Global clock index from a display name (see clock_names)."""
        try:
            return self._name_to_clock[name]
        except KeyError:
            raise ModelError(
                f"unknown clock {name!r} (known: "
                f"{self.clock_names[1:]})") from None

    def var_pos(self, name: str) -> int:
        try:
            return self._var_pos[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def data_env(self, vals: Sequence[int]) -> dict[str, int]:
        """Evaluation environment for data guards and assignments.

        Memoized per valuation — callers must treat the returned dict
        as read-only (copy before mutating, as the explorer does for
        sequential assignment semantics).
        """
        key = tuple(vals)
        env = self._env_cache.get(key)
        if env is None:
            env = dict(self.constants)
            for name, value in zip(self.var_names, key):
                env[name] = value
            self._env_cache[key] = env
        return env

    def state_description(self, state: SymbolicState,
                          hidden: Collection[str] = ()) -> str:
        """Locations, valuation and zone of ``state``, leaving out the
        ``hidden`` variables and clocks (the zone is projected onto the
        other clocks)."""
        locs = ", ".join(
            f"{auto.name}.{self.loc_names[i][state.locs[i]]}"
            for i, auto in enumerate(self.automata))
        vals = ", ".join(
            f"{name}={value}"
            for name, value in zip(self.var_names, state.vals)
            if name not in hidden)
        zone = state.zone.as_text(
            self.clock_names,
            skip=[self._name_to_clock[name] for name in hidden
                  if name in self._name_to_clock])
        parts = [f"({locs})"]
        if vals:
            parts.append(f"[{vals}]")
        parts.append(f"{{{zone}}}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # Urgency / committedness
    # ------------------------------------------------------------------
    def any_committed(self, locs: Sequence[int]) -> bool:
        return any(self.loc_committed[a][locs[a]]
                   for a in range(self.n_automata))

    def any_urgent_location(self, locs: Sequence[int]) -> bool:
        return any(self.loc_urgent[a][locs[a]]
                   for a in range(self.n_automata))

    def urgent_sync_enabled(self, locs: Sequence[int],
                            env: Mapping[str, int]) -> bool:
        """True when a sync on an urgent channel is enabled.

        Urgent edges carry no clock guards (validated), so enabledness
        depends only on the discrete state.
        """
        for ch in self.urgent_channels:
            senders = []
            for a in range(self.n_automata):
                for edge in self.emit_edges[a][locs[a]].get(ch, ()):
                    if edge.guard_fn(env):
                        senders.append(a)
                        break
            if not senders:
                continue
            if self.broadcast[ch]:
                return True
            for a in senders:
                for b in range(self.n_automata):
                    if b == a:
                        continue
                    for edge in self.recv_edges[b][locs[b]].get(ch, ()):
                        if edge.guard_fn(env):
                            return True
        return False

    # ------------------------------------------------------------------
    # Moves: sets of edges that fire together
    # ------------------------------------------------------------------
    def moves(self, locs: Sequence[int],
              env: Mapping[str, int]) -> Iterator[tuple[CompiledEdge, ...]]:
        """All candidate discrete moves from a discrete configuration.

        A move is a tuple of edges firing atomically, sender first.
        Data guards of clock-guard-free participants are pre-filtered;
        clock guards (and remaining data guards) are checked by the
        caller against the zone.  Committed-location priority is
        enforced here.
        """
        committed = self.any_committed(locs)

        def allowed(*edges: CompiledEdge) -> bool:
            if not committed:
                return True
            return any(
                self.loc_committed[e.auto_idx][e.source_idx] for e in edges)

        # Internal moves.
        for a in range(self.n_automata):
            for edge in self.internal_edges[a][locs[a]]:
                if allowed(edge):
                    yield (edge,)

        # Synchronizations.
        for ch_idx in range(len(self.channels)):
            if self.broadcast[ch_idx]:
                yield from self._broadcast_moves(ch_idx, locs, env, allowed)
            else:
                yield from self._binary_moves(ch_idx, locs, allowed)

    def _binary_moves(self, ch_idx: int, locs: Sequence[int],
                      allowed) -> Iterator[tuple[CompiledEdge, ...]]:
        for a in range(self.n_automata):
            for sender in self.emit_edges[a][locs[a]].get(ch_idx, ()):
                for b in range(self.n_automata):
                    if b == a:
                        continue
                    for receiver in self.recv_edges[b][locs[b]].get(
                            ch_idx, ()):
                        if allowed(sender, receiver):
                            yield (sender, receiver)

    def _broadcast_moves(self, ch_idx: int, locs: Sequence[int],
                         env: Mapping[str, int],
                         allowed) -> Iterator[tuple[CompiledEdge, ...]]:
        """Broadcast: sender plus one enabled receiver per automaton.

        Receiver edges are clock-guard-free (validated), so their
        enabledness is exactly their data guard.  Every automaton with
        at least one enabled receiver *must* participate; when several
        of its receiver edges are enabled the choice is nondeterministic
        and we enumerate the combinations.
        """
        for a in range(self.n_automata):
            for sender in self.emit_edges[a][locs[a]].get(ch_idx, ()):
                groups: list[list[CompiledEdge]] = []
                for b in range(self.n_automata):
                    if b == a:
                        continue
                    enabled = [e for e
                               in self.recv_edges[b][locs[b]].get(ch_idx, ())
                               if e.guard_fn(env)]
                    if enabled:
                        groups.append(enabled)
                for combo in _product(groups):
                    move = (sender, *combo)
                    if allowed(*move):
                        yield move


def _product(groups: list[list[CompiledEdge]]) \
        -> Iterator[tuple[CompiledEdge, ...]]:
    """Cartesian product of receiver choices (usually singleton)."""
    if not groups:
        yield ()
        return
    head, *tail = groups
    for choice in head:
        for rest in _product(tail):
            yield (choice, *rest)

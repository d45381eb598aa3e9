"""Zone-graph exploration (forward symbolic reachability).

The explorer enumerates the symbolic transition system of a network:
states are (location vector, valuation, canonical delay-closed zone).
Every stored zone already includes the time elapse allowed by the
invariants at its locations, so "state satisfies φ" means "some
concrete run reaches a configuration in the zone satisfying φ".

Termination comes from Extra_M extrapolation plus the passed-list
inclusion check — the textbook algorithm (Bengtsson & Yi 2003), with
UPPAAL's committed-location priority, urgent locations and urgent
channels layered on top.

Performance architecture (see ``docs/PERFORMANCE.md``):

* **Memoized successor plans.**  Everything about a successor except
  its zone — enabled moves, data-guard filtering, target locations,
  variable updates, the clocks to free, the invariant constraints and
  the delay decision — depends only on the *discrete* part of a state.
  The explorer compiles this once per discrete configuration into a
  list of :class:`_MovePlan` steps; expanding a state then runs pure
  zone arithmetic.
* **One zone call per successor plan.**  Each plan step — guards →
  resets/copies → frees → invariants → delay → extrapolation, with
  early exit on emptiness — is one :meth:`ZoneMatrix.apply_plan
  <repro.zones.common.ZoneMatrix.apply_plan>` call.  The reference
  backend replays it op by op on one reusable scratch matrix and
  copies out only the survivors; the native backend runs the whole
  plan inside a single ``_dbmkernel.run_plan`` call.
* **Backend-paired passed store.**  Per discrete configuration the
  stored zones live in a bucket (:mod:`repro.zones.store`); with the
  C extension built, its inclusion and eviction scans run in C.
* **Trace links by reference.**  With ``trace=True`` every stored
  successor records ``(parent_state, plan)`` on itself
  (:attr:`SymbolicState.link <repro.mc.state.SymbolicState.link>`);
  :meth:`ZoneGraphExplorer.rebuild_trace` walks those links and
  renders the plans' labels, so tracing never snapshots a zone.
* **Subsumption-aware waiting list** (opt-in ``lazy_subsumption``):
  when a newly stored zone evicts subsumed zones from the passed list,
  their waiting-list entries are marked dead and skipped on pop
  instead of expanded.  The final reduced zone graph is provably
  unchanged (successor computation is monotone in the zone), but the
  *visit order and the visited/transitions tallies* shrink, so the
  default stays eager — ``zone_graph_stats`` and the paper experiments
  report bit-identical numbers to the seed implementation.

The zone backend (``reference`` or ``native``) is chosen
per explorer via ``zone_backend=``, the ``REPRO_ZONE_BACKEND``
environment variable or :func:`repro.zones.backend.set_backend`; all
backends yield bit-identical zone graphs.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Mapping

from repro.mc.state import CompiledEdge, CompiledNetwork, SymbolicState
from repro.ta.model import ModelError, Network
from repro.zones.backend import resolve_backend

__all__ = [
    "ExplorationLimit",
    "ExplorationResult",
    "ZoneGraphExplorer",
    "exploration_count",
]


class ExplorationLimit(Exception):
    """Raised when the state-space budget is exhausted."""


#: Process-wide tally of exploration runs.
#: The shared-exploration query planner asserts against it: a batch of
#: queries compiled into one sweep must bump this exactly once.  The
#: lock keeps the tally exact when the daemon's dispatch threads start
#: explorations concurrently (``int += 1`` is not atomic in CPython).
_EXPLORATIONS = 0
_EXPLORATIONS_LOCK = threading.Lock()


def exploration_count() -> int:
    """How many zone-graph explorations this process has started."""
    return _EXPLORATIONS


def _count_exploration() -> None:
    global _EXPLORATIONS
    with _EXPLORATIONS_LOCK:
        _EXPLORATIONS += 1


@dataclass
class ExplorationResult:
    """Outcome of one exploration run."""

    #: Number of symbolic states stored (after inclusion reduction).
    visited: int
    #: First state satisfying the stop predicate, if any.
    stopped: SymbolicState | None = None
    #: Transition labels from the initial state to ``stopped``, read
    #: off the states' trace links (only when the explorer was created
    #: with ``trace=True``).
    trace: list[str] | None = None
    #: True when the full zone graph was explored (no early stop).
    complete: bool = True
    #: Number of successor computations performed.
    transitions: int = 0

    @property
    def found(self) -> bool:
        return self.stopped is not None


class _MovePlan:
    """One discrete move, fully resolved for a discrete configuration.

    Built once per (locations, valuation) pair: the data guards have
    already been evaluated (moves failing them never get a plan), the
    variable updates have been folded into ``vals``, and the zone work
    is reduced to op lists that :meth:`ZoneMatrix.apply_plan
    <repro.zones.common.ZoneMatrix.apply_plan>` replays in one call.
    ``zone_ops`` holds ``(0, clock, value)`` for a reset and
    ``(1, clock, source_clock)`` for a clock copy — the integer kinds
    the native kernel reads directly.  ``error`` carries a deferred
    range-check failure that the seed semantics raise only when the
    guard-constrained zone is non-empty.  ``move`` keeps the fired
    edges, so a trace can re-render ``label`` with some update actions
    hidden (:meth:`ZoneGraphExplorer.rebuild_trace`).
    """

    __slots__ = ("guard_ops", "zone_ops", "free_clocks", "invariant_ops",
                 "delay", "locs", "vals", "label", "error", "lu",
                 "channel_idx", "move")

    def __init__(self, guard_ops, zone_ops, free_clocks, invariant_ops,
                 delay, locs, vals, label, error, lu=None,
                 channel_idx=None, move=()):
        self.guard_ops = guard_ops
        self.zone_ops = zone_ops
        self.free_clocks = free_clocks
        self.invariant_ops = invariant_ops
        self.delay = delay
        self.locs = locs
        self.vals = vals
        self.label = label
        self.error = error
        #: ``(lower, upper)`` Extra⁺_LU maps of the *target* location
        #: vector, or ``None`` under Extra_M.
        self.lu = lu
        #: Synchronization channel of the move (``None`` = internal) —
        #: the conformance monitor partitions plans on it.
        self.channel_idx = channel_idx
        self.move = move


class _WaitEntry:
    """Waiting-list node; ``alive`` is cleared when the zone is evicted."""

    __slots__ = ("state", "alive")

    def __init__(self, state: SymbolicState):
        self.state = state
        self.alive = True


class ZoneGraphExplorer:
    """Forward explorer over a compiled network.

    Parameters
    ----------
    network:
        The model to explore.
    extra_max_constants:
        Optional per-clock extrapolation ceilings (display names), for
        sup queries that must observe values above the model's own
        constants.
    trace:
        Record a trace link on every stored state so counterexample
        traces can be rebuilt.
    max_states:
        Hard cap on stored symbolic states.
    zone_backend:
        Zone-kernel choice (``auto``/``reference``/``native``);
        ``None`` defers to
        :func:`repro.zones.backend.resolve_backend`.
    lazy_subsumption:
        Skip waiting-list entries whose zone was evicted by a larger
        one before they were expanded.  The reduced zone graph is
        unchanged but visit order and the visited/transitions counts
        shrink, so this is opt-in.
    abstraction:
        Extrapolation operator: ``"extra_m"`` (the default — global
        per-clock maximum constants, the seed behavior every pin is
        tied to) or ``"extra_lu"`` (per-location Extra⁺_LU bounds —
        same verdicts, bounds and suprema, smaller zone graphs).
        ``None`` defers to :func:`repro.ta.bounds.resolve_abstraction`
        (``set_abstraction`` override, then ``REPRO_ABSTRACTION``).
    """

    def __init__(self, network: Network, *,
                 extra_max_constants: Mapping[str, int] | None = None,
                 trace: bool = False,
                 max_states: int = 1_000_000,
                 free_clock_when_zero: Mapping[str, str] | None = None,
                 zone_backend: str | None = None,
                 lazy_subsumption: bool = False,
                 abstraction: str | None = None):
        self.network = network
        self.compiled = CompiledNetwork(
            network, extra_max_constants=extra_max_constants,
            abstraction=abstraction)
        self.abstraction = self.compiled.abstraction
        self.trace_enabled = trace
        self.max_states = max_states
        # ``auto`` falls back to reference past the native clock limit.
        self.backend = resolve_backend(zone_backend,
                                       n_clocks=self.compiled.n_clocks)
        self.lazy_subsumption = lazy_subsumption
        self._dbm = self.backend.dbm
        self._bucket_cls = self.backend.bucket
        # Work matrix of the scalar plan replay (backends whose
        # ``apply_plan`` runs in C leave it untouched).
        self._scratch = self._dbm.zero(self.compiled.n_clocks)
        # Successor plans, memoized per discrete configuration.  Built
        # lazily so query compilation (protect_clocks) can still adjust
        # the active-clock tables before the first expansion; the
        # version check below drops stale plans if that happens after.
        self._plans: dict[tuple, list[_MovePlan]] = {}
        self._plans_version = self.compiled.reduction_version
        # Valuation-conditional clock freeing: {flag var -> clock}.
        # The named clock is freed in every state where the flag is 0.
        # Sound whenever the clock is only ever *read* under flag == 1
        # — the observer instrumentation's situation — and essential to
        # keep instrumented zone graphs close to the base model's size.
        self._conditional_free: list[tuple[int, int]] = []
        for flag, clock in (free_clock_when_zero or {}).items():
            self._conditional_free.append(
                (self.compiled.var_pos(flag),
                 self.compiled.clock_id_by_name(clock)))
        #: Per-key passed buckets of the most recent exploration
        #: (diagnostics/benchmarks only).
        self.passed_store: dict | None = None

    # ------------------------------------------------------------------
    def initial_state(self) -> SymbolicState:
        compiled = self.compiled
        zone = self._dbm.zero(compiled.n_clocks)
        locs = compiled.initial_locs
        vals = compiled.initial_vals
        self._free_inactive(zone, locs)
        self._free_conditional(zone, vals)
        self._apply_invariants(zone, locs)
        if zone.is_empty():
            raise ModelError(
                "initial state violates the location invariants")
        env = compiled.data_env(vals)
        if not self._delay_forbidden(locs, env):
            zone.up()
            self._apply_invariants(zone, locs)
        if self.abstraction.is_lu:
            zone.extrapolate_lu(*compiled.lu_bounds_for(locs))
        else:
            zone.extrapolate_max(compiled.max_constants)
        return SymbolicState(locs, vals, zone)

    def _free_inactive(self, zone, locs: tuple[int, ...]) -> None:
        """Active-clock reduction: free clocks dead at these locations."""
        compiled = self.compiled
        for a in range(compiled.n_automata):
            for clock_idx in compiled.inactive_clocks[a][locs[a]]:
                zone.free(clock_idx)

    def _free_conditional(self, zone,
                          vals: tuple[int, ...]) -> None:
        """Free clocks whose guarding flag is currently 0."""
        for var_pos, clock_idx in self._conditional_free:
            if vals[var_pos] == 0:
                zone.free(clock_idx)

    def _apply_invariants(self, zone, locs: tuple[int, ...]) -> None:
        compiled = self.compiled
        for a in range(compiled.n_automata):
            for i, j, bound in compiled.invariant_ops[a][locs[a]]:
                zone.constrain(i, j, bound)

    def _delay_forbidden(self, locs: tuple[int, ...],
                         env: Mapping[str, int]) -> bool:
        compiled = self.compiled
        return (compiled.any_committed(locs)
                or compiled.any_urgent_location(locs)
                or compiled.urgent_sync_enabled(locs, env))

    # ------------------------------------------------------------------
    # Successor plans
    # ------------------------------------------------------------------
    def _build_plans(self, locs: tuple[int, ...],
                     vals: tuple[int, ...]) -> list[_MovePlan]:
        """Resolve every enabled move of a discrete configuration."""
        compiled = self.compiled
        env = compiled.data_env(vals)
        lu_for = (compiled.lu_bounds_for if self.abstraction.is_lu
                  else None)
        plans: list[_MovePlan] = []
        for move in compiled.moves(locs, env):
            # Data guards are evaluated on the pre-state (UPPAAL rule).
            if not all(e.guard_fn(env) for e in move):
                continue
            guard_ops = tuple(op for e in move for op in e.clock_ops)
            label = self._move_label(move)
            # Updates in firing order (sender first), sequential data
            # semantics; assignments are range-checked.  A failing
            # check is deferred: the seed raises it only when the
            # guard-constrained zone turns out non-empty.
            zone_ops: list[tuple] = []
            env2: dict[str, int] | None = None
            error: ModelError | None = None
            for edge in move:
                for op in edge.update_ops:
                    if op[0] == "assign":
                        if env2 is None:
                            env2 = dict(env)
                        decl = compiled.var_decls[op[1]]
                        try:
                            env2[op[1]] = decl.check(op[2].eval(env2))
                        except ModelError as exc:
                            error = exc
                            break
                    elif op[0] == "reset":  # pure zone work
                        zone_ops.append((0, op[1], op[2]))
                    else:  # copy
                        zone_ops.append((1, op[1], op[2]))
                if error is not None:
                    break
            if error is not None:
                plans.append(_MovePlan(
                    guard_ops, (), (), (), False, locs, vals, label,
                    error, channel_idx=move[0].channel_idx, move=move))
                continue
            new_locs = list(locs)
            for edge in move:
                new_locs[edge.auto_idx] = edge.target_idx
            locs2 = tuple(new_locs)
            vals2 = vals if env2 is None else tuple(
                env2[name] for name in compiled.var_names)
            free_clocks: list[int] = []
            for a in range(compiled.n_automata):
                free_clocks.extend(compiled.inactive_clocks[a][locs2[a]])
            for var_pos, clock_idx in self._conditional_free:
                if vals2[var_pos] == 0:
                    free_clocks.append(clock_idx)
            invariant_ops = tuple(
                op for a in range(compiled.n_automata)
                for op in compiled.invariant_ops[a][locs2[a]])
            post_env = env if env2 is None else env2
            delay = not self._delay_forbidden(locs2, post_env)
            plans.append(_MovePlan(
                guard_ops, tuple(zone_ops), tuple(free_clocks),
                invariant_ops, delay, locs2, vals2, label, None,
                lu_for(locs2) if lu_for is not None else None,
                channel_idx=move[0].channel_idx, move=move))
        return plans

    def plans_for(self, key: tuple) -> list[_MovePlan]:
        """Memoized successor plans of one discrete configuration."""
        if self._plans_version != self.compiled.reduction_version:
            self._plans.clear()
            self._plans_version = self.compiled.reduction_version
        plans = self._plans.get(key)
        if plans is None:
            plans = self._plans[key] = self._build_plans(*key)
        return plans

    def successors(self, state: SymbolicState) \
            -> Iterator[tuple[SymbolicState, _MovePlan]]:
        """All symbolic successors with the plans that fired them
        (``plan.label`` is the transition label)."""
        src = state.zone
        scratch = self._scratch
        max_consts = self.compiled.max_constants
        for plan in self.plans_for(state.key()):
            try:
                zone = src.apply_plan(plan, max_consts, scratch)
            except ModelError as exc:  # the plan's deferred error
                raise ModelError(
                    f"{exc} (while firing {plan.label} from "
                    f"{self.compiled.state_description(state)})"
                ) from exc
            if zone is not None:
                yield SymbolicState(plan.locs, plan.vals, zone), plan

    @staticmethod
    def _move_label(move: tuple[CompiledEdge, ...],
                    hidden: Collection[str] = ()) -> str:
        """``hidden`` names variables/clocks whose update actions the
        label leaves out."""
        if len(move) == 1 and move[0].channel_idx is None:
            return move[0].label(hidden)
        return " || ".join(e.label(hidden) for e in move)

    # ------------------------------------------------------------------
    def explore(
        self,
        stop: Callable[[SymbolicState], bool] | None = None,
        visit: Callable[[SymbolicState], None] | None = None,
    ) -> ExplorationResult:
        """Breadth-first exploration.

        ``stop`` halts the search at the first satisfying state (its
        trace is reconstructed when tracing is on); ``visit`` is called
        once per stored state — use it to accumulate sup-style metrics.
        """
        _count_exploration()
        bucket_cls = self._bucket_cls
        lazy = self.lazy_subsumption
        trace_on = self.trace_enabled
        init = self.initial_state()
        init_entry = _WaitEntry(init)
        bucket = bucket_cls()
        bucket.insert(init.zone, init_entry)
        # ``passed_store`` exposes the live per-key buckets of the most
        # recent exploration — benchmarks read row counts off it as a
        # memory proxy; it is never consulted by the search itself.
        passed: dict[tuple, object] = {init.key(): bucket}
        self.passed_store = passed
        stored = 1
        transitions = 0
        if visit is not None:
            visit(init)
        if stop is not None and stop(init):
            return ExplorationResult(
                visited=stored, stopped=init,
                trace=self.rebuild_trace(init),
                complete=False, transitions=transitions)
        waiting: deque[_WaitEntry] = deque([init_entry])
        while waiting:
            entry = waiting.popleft()
            if lazy and not entry.alive:
                continue
            state = entry.state
            for succ, plan in self.successors(state):
                transitions += 1
                key = succ.key()
                bucket = passed.get(key)
                if bucket is None:
                    bucket = bucket_cls()
                    passed[key] = bucket
                elif bucket.covers(succ.zone):
                    continue
                succ_entry = _WaitEntry(succ)
                for evicted in bucket.insert(succ.zone, succ_entry):
                    evicted.alive = False
                stored += 1
                if stored > self.max_states:
                    raise ExplorationLimit(
                        f"exceeded {self.max_states} symbolic states "
                        f"exploring {self.network.name!r}")
                if trace_on:
                    succ.link = (state, plan)
                if visit is not None:
                    visit(succ)
                if stop is not None and stop(succ):
                    return ExplorationResult(
                        visited=stored, stopped=succ,
                        trace=self.rebuild_trace(succ),
                        complete=False, transitions=transitions)
                waiting.append(succ_entry)
        return ExplorationResult(visited=stored, complete=True,
                                 transitions=transitions)

    def rebuild_trace(self, state: SymbolicState,
                      hidden: Collection[str] = ()) -> list[str] | None:
        """Transition labels from the initial state to ``state``.

        ``state`` is one stored during an :meth:`explore` call with
        tracing on; the labels are rendered from the plans on the
        chain of trace links (:attr:`SymbolicState.link`), leaving out
        the update actions on the ``hidden`` variables and clocks.
        The query planner uses this to extract one witness trace per
        observer from a single shared sweep, each projected onto its
        own observer.  ``None`` when the explorer does not trace.
        """
        if not self.trace_enabled:
            return None
        labels: list[str] = []
        link = state.link
        while link is not None:
            state, plan = link
            labels.append(self._move_label(plan.move, hidden)
                          if hidden else plan.label)
            link = state.link
        labels.reverse()
        return labels

    # ------------------------------------------------------------------
    def iter_states(self) -> Iterator[SymbolicState]:
        """Materialize every reachable symbolic state (full search)."""
        states: list[SymbolicState] = []
        self.explore(visit=states.append)
        return iter(states)

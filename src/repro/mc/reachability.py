"""Reachability and safety checking (``E<> φ`` / ``A[] ¬φ``).

State formulas are conjunctions of three optional parts:

* ``locations`` — automaton → location name constraints,
* ``data`` — a boolean expression over variables/constants,
* ``clocks`` — a clock-constraint string over *display* clock names
  (see ``Network.clock_names``), satisfied when the state's zone
  intersects it.

This covers every property the paper needs: buffer-overflow safety
(location/flag reachability) and deadline violations (zone ∧ ``w > Δ``
non-empty at an observer location).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.mc.explorer import ExplorationResult, ZoneGraphExplorer
from repro.mc.state import CompiledNetwork, SymbolicState, encode_constraint
from repro.ta.expr import Binary, Const, Expr, Var
from repro.ta.model import Network
from repro.ta.parser import parse_expression, parse_guard

__all__ = [
    "StateFormula",
    "ReachabilityResult",
    "check_reachable",
    "check_safety",
]


@dataclass(frozen=True)
class StateFormula:
    """Conjunction of location, data and clock conditions."""

    locations: Mapping[str, str] = field(default_factory=dict)
    data: str | Expr | None = None
    clocks: str | None = None

    def compile(self, compiled: CompiledNetwork) \
            -> Callable[[SymbolicState], bool]:
        """Build a fast predicate over symbolic states."""
        loc_tests: list[tuple[int, int]] = []
        for auto_name, loc_name in self.locations.items():
            a_idx = compiled.network.automaton_index(auto_name)
            loc_idx = compiled.loc_ids[a_idx][loc_name]
            loc_tests.append((a_idx, loc_idx))

        data_expr: Expr | None = None
        if self.data is not None:
            data_expr = (parse_expression(self.data)
                         if isinstance(self.data, str) else self.data)
            if not loc_tests and self.clocks is None:
                direct = _direct_vals_test(data_expr, compiled)
                if direct is not None:
                    return direct

        clock_ops: list[tuple[int, int, int]] = []
        if self.clocks is not None:
            name_ids = dict(compiled._name_to_clock)
            guard = parse_guard(self.clocks, tuple(name_ids),
                                compiled.constants)
            if not (guard.data.is_const() and guard.data.eval({}) == 1):
                raise ValueError(
                    f"clock condition {self.clocks!r} contains non-clock "
                    f"conjuncts")
            for atom in guard.clock_constraints:
                clock_ops.extend(encode_constraint(atom, name_ids))
                # Under Extra⁺_LU the formula's constants must floor
                # the bound maps — the constraint lives outside the
                # network, so the static analysis cannot see it.  Only
                # the side the atom tests is needed: ``x > c`` fails
                # spuriously only if the L-guarded rule invents larger
                # values, ``x < c`` only if the U-guarded rule invents
                # smaller ones (``==`` and difference atoms take both).
                sides = {"<": (False, True), "<=": (False, True),
                         ">": (True, False), ">=": (True, False),
                         "==": (True, True)}[atom.op]
                both = atom.other is not None
                for clock in atom.clocks():
                    compiled.raise_lu_floor(
                        name_ids[clock], abs(atom.bound),
                        lower=sides[0] or both,
                        upper=sides[1] or both)
            # Clocks the query reads must survive active-clock
            # reduction everywhere.
            compiled.protect_clocks(
                idx for op in clock_ops for idx in op[:2] if idx)

        # One reusable probe zone per compiled predicate: the zone part
        # of the formula is checked by constraining a scratch copy in
        # place (fused ops, no per-state allocation).
        probe_scratch: list = []

        def predicate(state: SymbolicState) -> bool:
            for a_idx, loc_idx in loc_tests:
                if state.locs[a_idx] != loc_idx:
                    return False
            if data_expr is not None:
                env = compiled.data_env(state.vals)
                if not data_expr.eval(env):
                    return False
            if clock_ops:
                if probe_scratch:
                    probe = probe_scratch[0].copy_from(state.zone)
                else:
                    probe = state.zone.copy()
                    probe_scratch.append(probe)
                if not probe.constrain_all(clock_ops):
                    return False
            return True

        return predicate

    def describe(self) -> str:
        parts = [f"{a}.{l}" for a, l in self.locations.items()]
        if self.data is not None:
            parts.append(str(self.data))
        if self.clocks is not None:
            parts.append(self.clocks)
        return " && ".join(parts) if parts else "true"


def _direct_vals_test(expr: Expr, compiled: CompiledNetwork):
    """``var == k`` or a ``||`` of such atoms as a direct test on
    ``state.vals`` (no ``data_env``, no ``Expr.eval``); ``None`` for
    any other expression."""

    def atoms(node: Expr) -> list[tuple[int, int]] | None:
        if isinstance(node, Binary) and node.op == "||":
            left, right = atoms(node.left), atoms(node.right)
            return None if left is None or right is None else left + right
        if (isinstance(node, Binary) and node.op == "=="
                and isinstance(node.left, Var)
                and isinstance(node.right, Const)
                and node.left.name in compiled.var_names):
            return [(compiled.var_pos(node.left.name), node.right.value)]
        return None

    tests = atoms(expr)
    if tests is None:
        return None
    if len(tests) == 1:
        (pos, value), = tests
        return lambda state: state.vals[pos] == value
    return lambda state: any(state.vals[pos] == value
                             for pos, value in tests)


@dataclass
class ReachabilityResult:
    """Outcome of an ``E<> φ`` query."""

    reachable: bool
    formula: str
    visited: int
    witness: str | None = None
    trace: list[str] | None = None
    #: Successor computations performed before the verdict.
    transitions: int = 0

    def __bool__(self) -> bool:
        return self.reachable

    def summary(self) -> str:
        status = "REACHABLE" if self.reachable else "UNREACHABLE"
        return f"E<> {self.formula}: {status} ({self.visited} states)"


def check_reachable(
    network: Network,
    formula: StateFormula,
    *,
    trace: bool = True,
    extra_max_constants: Mapping[str, int] | None = None,
    max_states: int = 1_000_000,
    free_clock_when_zero: Mapping[str, str] | None = None,
    zone_backend: str | None = None,
    lazy_subsumption: bool = False,
    abstraction: str | None = None,
) -> ReachabilityResult:
    """Decide ``E<> formula`` by forward zone exploration.

    ``abstraction`` selects the extrapolation operator
    (verdict-identical — see :mod:`repro.ta.bounds`).
    """
    explorer = ZoneGraphExplorer(
        network, trace=trace,
        extra_max_constants=extra_max_constants,
        max_states=max_states,
        free_clock_when_zero=free_clock_when_zero,
        zone_backend=zone_backend,
        lazy_subsumption=lazy_subsumption,
        abstraction=abstraction)
    predicate = formula.compile(explorer.compiled)
    result: ExplorationResult = explorer.explore(stop=predicate)
    if result.found:
        assert result.stopped is not None
        return ReachabilityResult(
            reachable=True,
            formula=formula.describe(),
            visited=result.visited,
            witness=explorer.compiled.state_description(result.stopped),
            trace=result.trace,
            transitions=result.transitions,
        )
    return ReachabilityResult(
        reachable=False, formula=formula.describe(),
        visited=result.visited, transitions=result.transitions)


@dataclass
class SafetyResult:
    """Outcome of an ``A[] ¬bad`` query."""

    holds: bool
    formula: str
    visited: int
    counterexample: str | None = None
    trace: list[str] | None = None
    #: Successor computations performed before the verdict.
    transitions: int = 0

    def __bool__(self) -> bool:
        return self.holds

    def summary(self) -> str:
        status = "HOLDS" if self.holds else "VIOLATED"
        return f"A[] not({self.formula}): {status} ({self.visited} states)"


def check_safety(
    network: Network,
    bad: StateFormula,
    *,
    trace: bool = True,
    extra_max_constants: Mapping[str, int] | None = None,
    max_states: int = 1_000_000,
    zone_backend: str | None = None,
    lazy_subsumption: bool = False,
    abstraction: str | None = None,
) -> SafetyResult:
    """Decide ``A[] ¬bad`` (safety) via the dual reachability query."""
    reach = check_reachable(
        network, bad, trace=trace,
        extra_max_constants=extra_max_constants, max_states=max_states,
        zone_backend=zone_backend, lazy_subsumption=lazy_subsumption,
        abstraction=abstraction)
    return SafetyResult(
        holds=not reach.reachable,
        formula=bad.describe(),
        visited=reach.visited,
        counterexample=reach.witness,
        trace=reach.trace,
        transitions=reach.transitions,
    )

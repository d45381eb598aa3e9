"""Clock constraints, guards, invariants and updates.

A *clock constraint* is an atom ``x ≺ n``, ``x - y ≺ n`` or the mirror
forms with ``>``/``>=``; ``==`` expands to the conjunction of ``<=``
and ``>=``.  Constraint bounds are integer constants after folding the
model's symbolic constants — a restriction (validated in
:mod:`repro.ta.validate`) that keeps zone extrapolation exact.

A *guard* couples a list of clock constraints with one data expression;
an *update* is a sequence of clock resets/copies and variable
assignments executed left to right, exactly like an UPPAAL edge label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping

from repro.ta.expr import Const, Expr
from repro.zones.bounds import encode
from repro.zones.dbm import DBM

__all__ = [
    "ClockConstraint",
    "Guard",
    "ClockReset",
    "ClockCopy",
    "Assignment",
    "Update",
    "TRUE_GUARD",
]

_COMPARISONS = ("<", "<=", ">", ">=", "==")


@dataclass(frozen=True)
class ClockConstraint:
    """``clock - other ≺ bound`` (``other=None`` means the reference 0).

    ``op`` is one of ``< <= > >= ==``; ``>``/``>=`` atoms are stored
    as written and normalized when applied to a DBM.
    """

    clock: str
    op: str
    bound: int
    other: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise ValueError(f"bad comparison operator '{self.op}'")

    def apply(self, zone: DBM, index: Mapping[str, int]) -> DBM:
        """Intersect ``zone`` with this constraint (clock name → index)."""
        i = index[self.clock]
        j = index[self.other] if self.other is not None else 0
        if self.op in ("<", "<="):
            zone.constrain(i, j, encode(self.bound, self.op == "<="))
        elif self.op in (">", ">="):
            zone.constrain(j, i, encode(-self.bound, self.op == ">="))
        else:  # ==
            zone.constrain(i, j, encode(self.bound, True))
            zone.constrain(j, i, encode(-self.bound, True))
        return zone

    def clocks(self) -> tuple[str, ...]:
        return (self.clock,) if self.other is None else (self.clock,
                                                         self.other)

    def max_constant(self) -> int:
        """Contribution to per-clock maximum constants (Extra_M)."""
        return abs(self.bound)

    def renamed_clocks(self, mapping: Mapping[str, str]) -> "ClockConstraint":
        return ClockConstraint(
            clock=mapping.get(self.clock, self.clock),
            op=self.op,
            bound=self.bound,
            other=None if self.other is None
            else mapping.get(self.other, self.other),
        )

    def holds(self, values: Mapping[str, int]) -> bool:
        """Concrete-semantics check against clock values (simulation)."""
        lhs = values[self.clock]
        if self.other is not None:
            lhs -= values[self.other]
        if self.op == "<":
            return lhs < self.bound
        if self.op == "<=":
            return lhs <= self.bound
        if self.op == ">":
            return lhs > self.bound
        if self.op == ">=":
            return lhs >= self.bound
        return lhs == self.bound

    def __str__(self) -> str:
        lhs = self.clock if self.other is None else \
            f"{self.clock} - {self.other}"
        return f"{lhs} {self.op} {self.bound}"


@dataclass(frozen=True)
class Guard:
    """Edge guard: conjunction of clock atoms and one data predicate."""

    clock_constraints: tuple[ClockConstraint, ...] = ()
    data: Expr = field(default_factory=lambda: Const(1))

    def is_trivial(self) -> bool:
        return not self.clock_constraints and isinstance(self.data, Const) \
            and self.data.value != 0

    def data_holds(self, env: Mapping[str, int]) -> bool:
        return self.data.eval(env) != 0

    def __str__(self) -> str:
        parts = [str(c) for c in self.clock_constraints]
        if not (isinstance(self.data, Const) and self.data.value == 1):
            parts.append(str(self.data))
        return " && ".join(parts) if parts else "true"


TRUE_GUARD = Guard()


@dataclass(frozen=True)
class ClockReset:
    """``clock := value`` (non-negative constant)."""

    clock: str
    value: int = 0

    def __str__(self) -> str:
        return f"{self.clock} = {self.value}"


@dataclass(frozen=True)
class ClockCopy:
    """``clock := source`` (clock-to-clock copy)."""

    clock: str
    source: str

    def __str__(self) -> str:
        return f"{self.clock} = {self.source}"


@dataclass(frozen=True)
class Assignment:
    """``var := expr`` over the discrete variables."""

    var: str
    expr: Expr

    def __str__(self) -> str:
        return f"{self.var} = {self.expr}"


@dataclass(frozen=True)
class Update:
    """Ordered sequence of clock and variable updates.

    The order is the source order of the edge label; variable
    assignments see the effects of earlier assignments (UPPAAL
    sequential semantics).
    """

    actions: tuple[ClockReset | ClockCopy | Assignment, ...] = ()

    def assignments(self) -> list[Assignment]:
        return [a for a in self.actions if isinstance(a, Assignment)]

    def apply_data(self, env: dict[str, int]) -> None:
        """Run the variable assignments in order, mutating ``env``."""
        for action in self.actions:
            if isinstance(action, Assignment):
                env[action.var] = action.expr.eval(env)

    def is_empty(self) -> bool:
        return not self.actions

    def without(self, names: Collection[str]) -> "Update":
        """This update minus the actions that write one of ``names``."""
        return Update(tuple(
            a for a in self.actions
            if (a.var if isinstance(a, Assignment) else a.clock)
            not in names))

    def __str__(self) -> str:
        return ", ".join(str(a) for a in self.actions)

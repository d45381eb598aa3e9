"""Shared zone-matrix interface and backend-independent helpers.

Both zone backends (the portable list-based :class:`~repro.zones.dbm.DBM`
and the compiled :class:`~repro.zones.dbm_native.NativeDBM`) subclass
:class:`ZoneMatrix`.  The subclasses implement the numeric kernel —
closure, constraining, resets, extrapolation — natively for their
storage layout; everything that is either debug-oriented or naturally
expressed through ``get``/``constrain``/``copy`` lives here so the two
kernels cannot drift apart on presentation details.

Cross-backend equality and hashing go through :meth:`ZoneMatrix.frozen`,
which every backend must return as a plain tuple of Python ints in
row-major order.  Two zones over the same clocks are therefore equal,
hash-equal and interchangeable as dict keys regardless of which backend
produced them.

Backend contract (beyond the methods defined here):

``size``            number of clocks including the reference clock 0
``universal(n)``    constructor: non-negative clocks, no upper bounds
``zero(n)``         constructor: the all-zero singleton
``copy()``          independent duplicate
``copy_from(z)``    overwrite in place from a same-size zone (no alloc)
``get/set_raw``     raw encoded-bound access
``close/close_clock``  canonicalization
``is_empty()``      emptiness — backends keep a flag updated at
                    tightening time instead of rescanning the diagonal
``constrain``       intersect with one ``x_i - x_j ≺ b`` (incremental
                    re-close, emptiness flagged)
``constrain_all``   fused constraint sequence with early exit
``up/reset/assign_clock/free``  the standard zone updates
``includes/intersects``         zone comparisons
``extrapolate_max`` Extra_M abstraction
``frozen()``        cached immutable snapshot (tuple of Python ints)

:meth:`ZoneMatrix.apply_plan` — the explorer's whole successor step —
is written here once in terms of those operations; a backend may
override it with a fused kernel that yields the same survivors bit
for bit.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from repro.zones.bounds import INF, bound_as_text, decode, encode

__all__ = ["ZoneMatrix"]


class ZoneMatrix:
    """Abstract base for difference-bound-matrix backends."""

    __slots__ = ()

    size: int

    # -- methods the backends must provide ------------------------------
    def get(self, i: int, j: int) -> int:
        raise NotImplementedError

    def copy(self) -> "ZoneMatrix":
        raise NotImplementedError

    def is_empty(self) -> bool:
        raise NotImplementedError

    def constrain(self, i: int, j: int, bound: int) -> "ZoneMatrix":
        raise NotImplementedError

    def frozen(self) -> tuple[int, ...]:
        raise NotImplementedError

    @classmethod
    def from_frozen(cls, size: int,
                    snapshot: Iterable[int]) -> "ZoneMatrix":
        return cls(size, list(snapshot))

    # -- fused helpers ---------------------------------------------------
    def constrain_all(self, ops: Iterable[tuple[int, int, int]]) -> bool:
        """Apply a sequence of ``(i, j, bound)`` constraints in place.

        Part of the allocation-free successor pipeline: stops as soon
        as the zone is detected empty and returns ``False`` then,
        ``True`` when the zone is still non-empty after all
        constraints.  (An already-empty zone returns ``False`` even
        for an empty sequence.)
        """
        for i, j, bound in ops:
            self.constrain(i, j, bound)
            if self.is_empty():
                return False
        return not self.is_empty()

    def free_many(self, clocks: Iterable[int]) -> "ZoneMatrix":
        """Free several clocks (≡ sequential ``free`` calls).

        Backends may fuse this into one kernel; the result must match
        freeing clock by clock bit for bit.
        """
        for x in clocks:
            self.free(x)
        return self

    def apply_plan(self, plan, max_consts: Sequence[int],
                   scratch: "ZoneMatrix") -> "ZoneMatrix | None":
        """Successor zone of this (non-empty) zone under one move plan.

        Replays the explorer's plan step: guards → resets/copies →
        frees → invariants → delay (re-applying the invariants) →
        Extra_M or Extra⁺_LU extrapolation, stopping as soon as the
        zone turns empty.  ``plan`` carries ``guard_ops``,
        ``zone_ops`` (``(0, x, value)`` reset, ``(1, x, y)`` copy),
        ``free_clocks``, ``invariant_ops``, ``delay``, ``lu`` and
        ``error``; ``max_consts`` are the Extra_M ceilings, used when
        ``plan.lu`` is ``None``.

        Returns a fresh zone, or ``None`` when the successor is empty.
        A plan with a deferred ``error`` raises it exactly when the
        guard-constrained zone is non-empty.  ``scratch`` is a
        same-size zone of this backend, overwritten as the work
        matrix; only survivors are copied out of it.
        """
        scratch.copy_from(self)
        if not scratch.constrain_all(plan.guard_ops):
            return None
        if plan.error is not None:
            raise plan.error
        for kind, x, y in plan.zone_ops:
            if kind == 0:
                scratch.reset(x, y)
            else:
                scratch.assign_clock(x, y)
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
            scratch.extrapolate_max(max_consts)
        if scratch.is_empty():
            return None
        return scratch.copy()

    # -- shared concrete queries ----------------------------------------
    def upper_bound(self, x: int) -> int:
        """Encoded upper bound of clock ``x`` (``D[x][0]``)."""
        return self.get(x, 0)

    def lower_bound(self, x: int) -> int:
        """Largest lower bound of ``x`` as a non-negative value.

        Decodes ``D[0][x]`` (which encodes ``-lower``); returns the
        value only — strictness is available via :meth:`get`.
        """
        from repro.zones.bounds import bound_value
        return -bound_value(self.get(0, x))

    def contains_point(self, values: Sequence[int]) -> bool:
        """Membership test for a concrete valuation.

        ``values[i]`` is the value of clock ``i`` for ``i ≥ 1``;
        ``values[0]`` must be 0 (the reference clock).
        """
        if len(values) != self.size:
            raise ValueError("valuation length must equal DBM size")
        n = self.size
        for i in range(n):
            for j in range(n):
                b = self.get(i, j)
                if b == INF:
                    continue
                bound, weak = decode(b)
                diff = values[i] - values[j]
                if diff > bound or (diff == bound and not weak):
                    return False
        return True

    def sample_point(self, limit: int = 1 << 20) -> list[int] | None:
        """A concrete integer valuation inside the zone, if one exists.

        Uses the canonical form: picking each clock at its lower bound
        (rounded up past strict bounds) and re-tightening is sufficient
        for the integer zones produced by integer-constant automata.
        Returns ``None`` for empty zones.
        """
        if self.is_empty():
            return None
        work = self.copy()
        values = [0] * self.size
        for x in range(1, self.size):
            low = work.get(0, x)
            value, weak = decode(low)
            candidate = -value if weak else -value + 1
            candidate = max(candidate, 0)
            if candidate > limit:
                return None
            work.constrain(x, 0, encode(candidate, True))
            work.constrain(0, x, encode(-candidate, True))
            if work.is_empty():
                return None
            values[x] = candidate
        return values

    # -- equality / hashing across backends -----------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ZoneMatrix)
            and self.size == other.size
            and self.frozen() == other.frozen()
        )

    def __hash__(self) -> int:
        return hash((self.size, self.frozen()))

    # -- debug rendering -------------------------------------------------
    def as_text(self, clock_names: Sequence[str] | None = None, *,
                skip: Collection[int] = ()) -> str:
        """Readable constraint list, e.g. ``x<=5 ∧ x-y<2``.

        ``skip`` lists clock indices to leave out: the text is then
        that of the zone projected onto the other clocks (a canonical
        DBM's sub-matrix is its projection).
        """
        names = list(clock_names) if clock_names else [
            "0" if i == 0 else f"x{i}" for i in range(self.size)
        ]
        parts: list[str] = []
        n = self.size
        for i in range(n):
            if i in skip:
                continue
            for j in range(n):
                if i == j or j in skip:
                    continue
                b = self.get(i, j)
                if b == INF:
                    continue
                if i == 0:
                    value, weak = decode(b)
                    if value == 0 and weak:
                        continue  # trivial xj >= 0
                    parts.append(f"{names[j]}>{'=' if weak else ''}{-value}")
                elif j == 0:
                    parts.append(f"{names[i]}{bound_as_text(b)}")
                else:
                    parts.append(f"{names[i]}-{names[j]}{bound_as_text(b)}")
        return " ∧ ".join(parts) if parts else "true"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.as_text()})"

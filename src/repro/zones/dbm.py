"""Difference Bound Matrices — the portable reference zone backend.

A *zone* is a conjunction of clock constraints ``x - y ≺ n``; it is the
canonical symbolic representation for timed-automata model checking.
A DBM over ``n`` clocks (clock 0 is the constant-zero reference clock)
is an ``n × n`` matrix ``D`` where entry ``D[i][j]`` encodes the bound
of ``x_i - x_j`` (see :mod:`repro.zones.bounds` for the encoding).

The operations implemented here are the standard toolkit of
zone-based reachability (Bengtsson & Yi 2003):

``close``              Floyd–Warshall canonicalization
``close_clock``        incremental O(n²) re-closure after tightening
``constrain``          intersection with one constraint
``constrain_all``      fused constraint sequence with early exit
``up``                 delay (future) operator
``reset`` / ``assign`` clock reset ``x := c`` and copy ``x := y``
``includes``           zone inclusion (on canonical forms)
``extrapolate_max``    Extra_M abstraction for termination
``contains_point``     membership of a concrete valuation (testing aid)

Instances are small (the framework's PSMs use well under 16 clocks),
so the matrix is a flat Python list; no numpy dependency is needed and
arbitrary-precision integers make overflow a non-issue.  It is the
executable specification of every zone operation: the compiled
drop-in replacement in :mod:`repro.zones.dbm_native` is tested against
it bit for bit; backends are selected via :mod:`repro.zones.backend`.

Allocation discipline (this is the model checker's innermost data
structure): emptiness is tracked as a flag maintained at tightening
time (``None`` = unknown, recomputed lazily after raw edits),
``frozen()`` snapshots are cached on canonical zones and invalidated by
mutation, and ``copy_from`` overwrites a scratch zone in place so
successor computation does not churn intermediate matrices.
"""

from __future__ import annotations

from typing import Sequence

from repro.zones.bounds import (
    INF,
    LE_ZERO,
    bound_add,
    bound_value,
    encode,
)
from repro.zones.common import ZoneMatrix

__all__ = ["DBM"]


class DBM(ZoneMatrix):
    """A difference bound matrix over ``size`` clocks (clock 0 = reference).

    The matrix is kept *canonical* (all-pairs-tightened) by every public
    mutating operation, so equality, hashing and inclusion tests are
    meaningful at all times.  An *empty* zone is represented by a
    negative diagonal entry; :meth:`is_empty` reports the cached
    emptiness flag (set when a tightening discovers the contradiction,
    recomputed lazily after :meth:`set_raw`/:meth:`close`).  The flag is
    sticky: updating an already-empty zone keeps it empty even when the
    update happens to overwrite the negative diagonal witness.
    """

    __slots__ = ("size", "_m", "_empty", "_frozen")

    def __init__(self, size: int, _m: list[int] | None = None):
        if size < 1:
            raise ValueError("a DBM needs at least the reference clock")
        self.size = size
        if _m is None:
            # Universal zone: no upper bounds, clocks non-negative.
            _m = [INF] * (size * size)
            for i in range(size):
                _m[i * size + i] = LE_ZERO
                _m[0 * size + i] = LE_ZERO  # x0 - xi <= 0  (xi >= 0)
            _m[0] = LE_ZERO
            self._empty = False
        else:
            self._empty = None  # unknown — computed lazily
        self._m = _m
        self._frozen = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def universal(cls, size: int) -> "DBM":
        """All clock valuations with non-negative clocks."""
        return cls(size)

    @classmethod
    def zero(cls, size: int) -> "DBM":
        """The singleton zone where every clock equals 0."""
        zone = cls(size)
        m = zone._m
        for k in range(size * size):
            m[k] = LE_ZERO
        return zone

    def copy(self) -> "DBM":
        clone = DBM.__new__(DBM)
        clone.size = self.size
        clone._m = self._m.copy()
        clone._empty = self._empty
        clone._frozen = self._frozen
        return clone

    def copy_from(self, other: "DBM") -> "DBM":
        """Overwrite this zone in place from a same-size zone.

        The allocation-free counterpart of :meth:`copy`, used to reuse
        one scratch matrix across an explorer's successor computations.
        """
        self._m[:] = other._m
        self._empty = other._empty
        self._frozen = other._frozen
        return self

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------
    def get(self, i: int, j: int) -> int:
        """Encoded bound of ``x_i - x_j``."""
        return self._m[i * self.size + j]

    def set_raw(self, i: int, j: int, bound: int) -> None:
        """Set an entry without re-closing.

        Callers must re-establish canonical form via :meth:`close` or
        :meth:`close_clock` before using comparison operations.
        """
        self._m[i * self.size + j] = bound
        self._empty = None
        self._frozen = None

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def close(self) -> "DBM":
        """Floyd–Warshall all-pairs tightening.  Returns self."""
        n = self.size
        m = self._m
        self._frozen = None
        for k in range(n):
            row_k = k * n
            for i in range(n):
                d_ik = m[i * n + k]
                if d_ik == INF:
                    continue
                row_i = i * n
                for j in range(n):
                    d_kj = m[row_k + j]
                    if d_kj == INF:
                        continue
                    via = bound_add(d_ik, d_kj)
                    if via < m[row_i + j]:
                        m[row_i + j] = via
        self._empty = None
        return self

    def close_clock(self, x: int) -> "DBM":
        """Re-close after only row/column ``x`` was tightened (O(n²))."""
        n = self.size
        m = self._m
        self._frozen = None
        for i in range(n):
            d_ix = m[i * n + x]
            row_i = i * n
            row_x = x * n
            if d_ix != INF:
                for j in range(n):
                    d_xj = m[row_x + j]
                    if d_xj == INF:
                        continue
                    via = bound_add(d_ix, d_xj)
                    if via < m[row_i + j]:
                        m[row_i + j] = via
        self._empty = None
        return self

    def is_empty(self) -> bool:
        """True when the zone contains no valuation."""
        empty = self._empty
        if empty is None:
            n = self.size
            m = self._m
            empty = self._empty = any(
                m[i * n + i] < LE_ZERO for i in range(n))
        return empty

    # ------------------------------------------------------------------
    # Zone operations
    # ------------------------------------------------------------------
    def constrain(self, i: int, j: int, bound: int) -> "DBM":
        """Intersect with ``x_i - x_j ≺ bound``.  Returns self.

        Keeps canonical form; emptiness shows on the diagonal and is
        recorded in the cached flag the moment the contradiction is
        discovered.
        """
        n = self.size
        m = self._m
        self._frozen = None
        # Unsatisfiable together with the existing opposite bound?
        cross = bound_add(m[j * n + i], bound)
        if cross < LE_ZERO:
            m[i * n + i] = cross
            self._empty = True
            return self
        if bound < m[i * n + j]:
            m[i * n + j] = bound
            # Re-close only via the two touched clocks.
            for a in range(n):
                row_a = a * n
                d_ai = m[row_a + i]
                if d_ai == INF:
                    continue
                for b in range(n):
                    d_jb = m[j * n + b]
                    if d_jb == INF:
                        continue
                    via = bound_add(bound_add(d_ai, bound), d_jb)
                    if via < m[row_a + b]:
                        m[row_a + b] = via
        return self

    def up(self) -> "DBM":
        """Delay operator: remove all upper bounds (future closure)."""
        n = self.size
        m = self._m
        self._frozen = None
        for i in range(1, n):
            m[i * n + 0] = INF
        return self

    def reset(self, x: int, value: int = 0) -> "DBM":
        """Assignment ``x := value`` (non-negative integer)."""
        n = self.size
        m = self._m
        self._frozen = None
        pos = encode(value, True)
        neg = encode(-value, True)
        for j in range(n):
            m[x * n + j] = bound_add(pos, m[0 * n + j])
            m[j * n + x] = bound_add(m[j * n + 0], neg)
        m[x * n + x] = LE_ZERO
        return self

    def assign_clock(self, x: int, y: int) -> "DBM":
        """Clock copy ``x := y``."""
        if x == y:
            return self
        n = self.size
        m = self._m
        self._frozen = None
        for j in range(n):
            if j != x:
                m[x * n + j] = m[y * n + j]
                m[j * n + x] = m[j * n + y]
        m[x * n + x] = LE_ZERO
        return self

    def free(self, x: int) -> "DBM":
        """Remove all constraints on clock ``x`` (unbounded value)."""
        n = self.size
        m = self._m
        self._frozen = None
        for j in range(n):
            if j != x:
                m[x * n + j] = INF
                m[j * n + x] = m[j * n + 0]
        return self

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def includes(self, other: "ZoneMatrix") -> bool:
        """Zone inclusion ``other ⊆ self`` (both canonical)."""
        if self.size != other.size:
            raise ValueError("DBM size mismatch")
        theirs = other._m if type(other) is DBM else other.frozen()
        for a, b in zip(self._m, theirs):
            if a < b:
                return False
        return True

    def intersects(self, other: "ZoneMatrix") -> bool:
        """True when the two zones share at least one valuation.

        Works directly on the raw bound lists: the intersection of two
        DBMs is the elementwise minimum, re-closed to surface emptiness
        on the diagonal.
        """
        if self.size != other.size:
            raise ValueError("DBM size mismatch")
        theirs = other._m if type(other) is DBM else other.frozen()
        merged = DBM(self.size, list(map(min, self._m, theirs)))
        return not merged.close().is_empty()

    # ------------------------------------------------------------------
    # Abstraction
    # ------------------------------------------------------------------
    def extrapolate_max(self, max_consts: Sequence[int]) -> "DBM":
        """Extra_M abstraction on per-clock maximum constants.

        ``max_consts[i]`` is the largest constant clock ``i`` is ever
        compared against (use 0 for never-compared clocks; the
        reference clock entry must be 0).  Bounds beyond the constants
        are widened, guaranteeing a finite zone graph.  The matrix is
        re-closed afterwards because widening may break canonicity.
        """
        n = self.size
        if len(max_consts) != n:
            raise ValueError("need one max constant per clock")
        m = self._m
        changed = False
        for i in range(n):
            m_i = max_consts[i]
            row = i * n
            for j in range(n):
                if i == j:
                    continue
                b = m[row + j]
                if b == INF:
                    continue
                value = bound_value(b)
                if value > m_i:
                    m[row + j] = INF
                    changed = True
                elif value < -max_consts[j]:
                    m[row + j] = encode(-max_consts[j], False)
                    changed = True
        if changed:
            was_empty = self._empty
            self._frozen = None
            self.close()
            # Widening cannot change emptiness: keep the known verdict
            # instead of forcing a diagonal rescan.
            if was_empty is not None:
                self._empty = was_empty
        return self

    def extrapolate_lu(self, lower: Sequence[int],
                       upper: Sequence[int]) -> "DBM":
        """Extra⁺_LU abstraction on per-clock lower/upper bounds.

        The coarser sibling of :meth:`extrapolate_max` (Behrmann,
        Bouyer, Larsen & Pelánek): ``lower[i]``/``upper[i]`` are the
        largest constants clock ``i`` is still compared against from
        the current locations by lower-bound (``x > c``) respectively
        upper-bound (``x < c``) constraints, with
        :data:`~repro.ta.bounds.NO_BOUND` (−1) meaning "never".  The
        reference-clock entries must be 0.  Widening rules (value
        comparisons on the *pre-pass* matrix, UPPAAL's
        ``dbm_extrapolateLUBounds``):

        * ``D[i][j]`` → ∞ when its value exceeds ``lower[i]``,
        * row ``i`` → ∞ when ``x_i``'s lower bound exceeds ``lower[i]``,
        * ``D[i][j]`` (``i ≠ 0``) → ∞ when ``x_j``'s lower bound
          exceeds ``upper[j]``,
        * ``D[0][j]`` → ``(-upper[j], <)`` in that same case.

        Every rule only loosens entries the Extra_M rules would also
        loosen (for any ``lower``/``upper`` pointwise ≤ the max-constant
        map), so the output zone always includes the Extra_M output.
        Re-closed afterwards, with the same sticky-emptiness handling
        as :meth:`extrapolate_max`.
        """
        n = self.size
        if len(lower) != n or len(upper) != n:
            raise ValueError("need one lower and upper bound per clock")
        m = self._m
        row0 = m[0:n]  # snapshot: the rules read the pre-pass bounds
        changed = False
        for i in range(1, n):
            l_i = lower[i]
            row = i * n
            # Lower bound of x_i beyond L(x_i): the whole row widens.
            row_dead = row0[i] != INF and -(row0[i] >> 1) > l_i
            for j in range(n):
                if i == j:
                    continue
                b = m[row + j]
                if b == INF:
                    continue
                if row_dead or (b >> 1) > l_i \
                        or (row0[j] != INF
                            and -(row0[j] >> 1) > upper[j]):
                    m[row + j] = INF
                    changed = True
        for j in range(1, n):
            b = row0[j]
            if b != INF and -(b >> 1) > upper[j]:
                m[j] = (-upper[j]) << 1  # encode(-upper[j], strict)
                changed = True
        if changed:
            was_empty = self._empty
            self._frozen = None
            self.close()
            # Widening cannot change emptiness (same as Extra_M).
            if was_empty is not None:
                self._empty = was_empty
        return self

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def frozen(self) -> tuple[int, ...]:
        """Immutable snapshot usable as a dict key (cached)."""
        snapshot = self._frozen
        if snapshot is None:
            snapshot = self._frozen = tuple(self._m)
        return snapshot

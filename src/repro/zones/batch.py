"""Batched successor pipeline: one plan applied to a stack of zones.

The batched monitor (:class:`repro.monitor.batch.BatchMonitor`) groups
the frontier tasks of many trace sessions by memoized successor plan.
Instead of running the scalar pipeline (copy → guard constraints →
resets → frees → invariants → delay → Extra_M) once per zone, a
group's zones are stacked into one ``(B, n, n)`` int64 array and the
plan is applied to the whole batch with broadcast kernels, so the
per-call numpy dispatch overhead — the dominant cost of the scalar
numpy backend on small matrices — is paid once per *group* instead of
once per *zone*.

Bit-identity contract: for every batch element that survives all
emptiness checks, the resulting matrix equals the scalar
:class:`~repro.zones.dbm_numpy.NumpyDBM` pipeline bit for bit (the
kernels mirror the scalar ones op by op, including the incremental
re-closure in ``constrain`` and the changed-only closure after
Extra_M).  Elements that go empty are only *flagged* — their matrices
keep receiving the remaining ops and may hold garbage, exactly like a
discarded scalar scratch would; the flag is sticky so they can never
resurface.  Encoded-bound arithmetic masks ``INF`` before every value
shift, so the packed encoding cannot overflow int64.
"""

from __future__ import annotations

import numpy as np

from repro.zones.bounds import INF, LE_ZERO, encode

__all__ = ["BatchExpander"]


def _vec_add_scalar(vec: np.ndarray, bound: int) -> np.ndarray:
    """Vectorized ``bound_add(vec, bound)`` for a finite scalar bound.

    Uses the additive identity of the packed encoding
    (``e = 2·value | weak``): for finite operands

        a ⊕ b = a − (a & 1) + b − (b & 1) + ((a & 1) & (b & 1)),

    which for a *weak* scalar bound collapses to ``vec + bound − 1``
    and for a strict one to ``vec − (vec & 1) + bound`` — one to three
    kernels instead of the mask-shift-or cascade.  ``INF`` entries are
    restored afterwards (the intermediate modular wraparound on
    ``INF``-tainted lanes is discarded by the ``where``).
    """
    if bound & 1:
        out = vec + (bound - 1)
    else:
        out = vec - (vec & 1) + bound
    return np.where(vec != INF, out, INF)


def _outer_add(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Batched ``bound_add`` outer sum ``out[b, p, q] = col[b, p] ⊕ row[b, q]``.

    Same additive-identity trick as :func:`_vec_add_scalar`; lanes
    with an ``INF`` operand may wrap modularly mid-computation and are
    overwritten with ``INF`` at the end.
    """
    weak_col = col & 1
    weak_row = row & 1
    out = (col - weak_col)[:, :, None] + (row - weak_row)[:, None, :]
    out += weak_col[:, :, None] & weak_row[:, None, :]
    mask = (col != INF)[:, :, None] & (row != INF)[:, None, :]
    return np.where(mask, out, INF)


def _vec_add_each(vec: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Vectorized ``bound_add`` with one *finite* bound per lane.

    The general additive identity of the packed encoding (see
    :func:`_vec_add_scalar`), with the bound varying across the batch.
    ``bounds`` broadcasts against ``vec`` — pass ``bounds[:, None]`` to
    add per-batch bounds to row vectors.  ``INF`` lanes of ``vec`` are
    restored afterwards; ``bounds`` entries must be finite (the
    monitor's event pins always are).
    """
    weak_v = vec & 1
    weak_b = bounds & 1
    out = vec - weak_v + (bounds - weak_b) + (weak_v & weak_b)
    return np.where(vec != INF, out, INF)


_off_diagonal_cache: dict[int, np.ndarray] = {}


def _off_diagonal(n: int) -> np.ndarray:
    mask = _off_diagonal_cache.get(n)
    if mask is None:
        mask = ~np.eye(n, dtype=bool)
        mask.setflags(write=False)
        _off_diagonal_cache[n] = mask
    return mask


class BatchExpander:
    """Apply one :class:`_MovePlan` op sequence to a zone stack.

    Instances are cheap and hold no state between :meth:`run_plan`
    calls, so every worker thread can own one without sharing the
    scalar backend's per-size workspace cache.
    """

    __slots__ = ("n", "max_consts", "_ceilings", "_strict_floor",
                 "_lu_arrays")

    def __init__(self, n_clocks: int, max_consts):
        self.n = n_clocks
        self.max_consts = max_consts
        self._ceilings = np.array(max_consts, dtype=np.int64)
        self._strict_floor = (-self._ceilings) << 1  # encode(-c, False)
        # Per-plan Extra⁺_LU vectors, memoized by the (lower, upper)
        # tuples the compiled network hands out per location vector.
        self._lu_arrays: dict[tuple, tuple] = {}

    # -- individual kernels -------------------------------------------
    def constrain(self, m: np.ndarray, alive: np.ndarray,
                  i: int, j: int, bound: int) -> None:
        """Intersect each live element with ``x_i - x_j ≺ bound``."""
        col_ji = m[:, j, i]
        # Emptiness test ``(col ⊕ bound) < LE_ZERO`` without masking:
        # an INF operand keeps the sum hugely positive, so it can never
        # flag empty — exactly the scalar semantics.
        if bound & 1:
            cross = col_ji + (bound - 1)
        else:
            cross = col_ji - (col_ji & 1) + bound
        np.logical_and(alive, cross >= LE_ZERO, out=alive)
        tighten = alive & (bound < m[:, i, j])
        if not tighten.any():
            return
        m[tighten, i, j] = bound
        # Incremental re-closure through the fresh (i, j) edge, exactly
        # as the scalar kernel: min(m, (col_i ⊕ bound) ⊕ row_j).
        col_b = _vec_add_scalar(m[:, :, i], bound)
        via = _outer_add(col_b, m[:, j, :])
        np.minimum(m, via, out=m, where=tighten[:, None, None])

    def constrain_each(self, m: np.ndarray, alive: np.ndarray,
                       i: int, j: int, bounds: np.ndarray) -> None:
        """Intersect element ``b`` with ``x_i - x_j ≺ bounds[b]``.

        The per-lane twin of :meth:`constrain`: one constraint shape,
        a different (finite, encoded) bound per batch element.  The
        conformance monitor uses it to pin the observation clock to
        each session's own inter-event gap in a single call.  Lane for
        lane this replays the scalar kernel with that lane's bound, so
        the bit-identity contract carries over unchanged.
        """
        col_ji = m[:, j, i]
        cross = _vec_add_each(col_ji, bounds)
        np.logical_and(alive, cross >= LE_ZERO, out=alive)
        tighten = alive & (bounds < m[:, i, j])
        if not tighten.any():
            return
        m[tighten, i, j] = bounds[tighten]
        col_b = _vec_add_each(m[:, :, i], bounds[:, None])
        via = _outer_add(col_b, m[:, j, :])
        np.minimum(m, via, out=m, where=tighten[:, None, None])

    def up(self, m: np.ndarray) -> None:
        m[:, 1:, 0] = INF

    def reset(self, m: np.ndarray, x: int, value: int) -> None:
        row0 = m[:, 0, :].copy()
        col0 = m[:, :, 0].copy()
        m[:, x, :] = _vec_add_scalar(row0, encode(value, True))
        m[:, :, x] = _vec_add_scalar(col0, encode(-value, True))
        m[:, x, x] = LE_ZERO

    def assign_clock(self, m: np.ndarray, x: int, y: int) -> None:
        if x == y:
            return
        row_y = m[:, y, :].copy()
        col_y = m[:, :, y].copy()
        m[:, x, :] = row_y
        m[:, :, x] = col_y
        m[:, x, x] = LE_ZERO

    def free_many(self, m: np.ndarray, clocks) -> None:
        idx = np.asarray(clocks, dtype=np.intp)
        col0 = m[:, :, 0].copy()
        diagonal = m[:, idx, idx].copy()
        m[:, idx, :] = INF
        m[:, :, idx] = col0[:, :, None]
        m[:, idx[:, None], idx[None, :]] = INF
        m[:, idx, idx] = diagonal

    def close(self, m: np.ndarray) -> None:
        """Batched Floyd–Warshall (idempotent on canonical elements)."""
        for k in range(self.n):
            np.minimum(m, _outer_add(m[:, :, k], m[:, k, :]), out=m)

    def extrapolate_max(self, m: np.ndarray, alive: np.ndarray) -> None:
        """Extra_M widening + changed-only closure, per live element."""
        n = self.n
        vals = m >> 1
        finite_off = (m != INF) & _off_diagonal(n)[None, :, :]
        widen_up = finite_off & (vals > self._ceilings[None, :, None])
        widen_low = (finite_off & ~widen_up
                     & (vals < -self._ceilings[None, None, :]))
        changed = (widen_up.any(axis=(1, 2))
                   | widen_low.any(axis=(1, 2))) & alive
        if not changed.any():
            return
        np.copyto(m, INF, where=widen_up)
        np.copyto(m, np.broadcast_to(self._strict_floor,
                                     (m.shape[0], n, n)),
                  where=widen_low)
        sub = m[changed]
        self.close(sub)
        m[changed] = sub

    def extrapolate_lu(self, m: np.ndarray, alive: np.ndarray,
                       lu: tuple) -> None:
        """Extra⁺_LU widening + re-canonicalization, per live element.

        Produces exactly the scalar ``NumpyDBM.extrapolate_lu`` result
        (widen, then full closure) — but most elements never pay the
        O(n³) closure.  When every rule-1 hit of an element falls
        inside a *dead row* (lower bound beyond ``L(x_i)``: the whole
        row widens) or a *dead column* (lower bound beyond ``U(x_j)``),
        the closed form is known outright:

        * dead rows stay all-∞ — every path out of ``x_i`` starts with
          an ∞ edge;
        * a dead column's only surviving inbound edge is the row-0
          floor, so its closed entries are ``D[i][0] ⊕ (-U(x_j), <)``
          (row 0 itself lands on the floor, ``D[0][0] = (0,≤)``);
        * untouched entries of a canonical input stay canonical —
          loosening other entries can only lengthen their paths.

        Only elements with a *partial* widening (a rule-1 hit whose
        row and column both survive) fall back to the batched
        Floyd–Warshall.  On the case-study models that is ~25% of
        extrapolations, which is what makes the coarser operator pay
        off in wall time and not just in state counts.
        """
        n = self.n
        arrays = self._lu_arrays.get(lu)
        if arrays is None:
            low = np.array(lu[0], dtype=np.int64)
            up = np.array(lu[1], dtype=np.int64)
            arrays = self._lu_arrays[lu] = (low, up, (-up) << 1)
        low_arr, up_arr, strict_up = arrays
        vals = m >> 1
        off_diag = _off_diagonal(n)[None, :, :]
        finite_off = (m != INF) & off_diag
        row0_vals = vals[:, 0, :]
        row0_finite = m[:, 0, :] != INF
        row_dead = row0_finite & (-row0_vals > low_arr[None, :])
        col_dead = row0_finite & (-row0_vals > up_arr[None, :])
        r1 = finite_off & (vals > low_arr[None, :, None])
        r1[:, 0, :] = False  # row 0 follows the replacement rule
        full_kill = row_dead[:, :, None] | col_dead[:, None, :]
        widen = finite_off & (r1 | full_kill)
        widen[:, 0, :] = False
        replace0 = col_dead & finite_off[:, 0, :]
        changed = (widen.any(axis=(1, 2)) | replace0.any(axis=1)) & alive
        if not changed.any():
            return
        partial = r1.any(axis=(1, 2)) & changed
        if partial.any():
            partial &= (r1 & ~full_kill).any(axis=(1, 2))
        fast = changed & ~partial
        if fast.any():
            sel = fast[:, None, None]
            np.copyto(m, INF,
                      where=row_dead[:, :, None] & off_diag & sel)
            closed_col = _outer_add(
                m[:, :, 0],
                np.broadcast_to(strict_up, (m.shape[0], n)))
            np.copyto(m, closed_col,
                      where=col_dead[:, None, :] & off_diag & sel)
        if partial.any():
            sel = partial[:, None, None]
            np.copyto(m, INF, where=widen & sel)
            m0 = m[:, 0, :]
            np.copyto(m0, np.broadcast_to(strict_up, m0.shape),
                      where=replace0 & partial[:, None])
            sub = m[partial]
            self.close(sub)
            m[partial] = sub

    # -- whole-plan pipeline ------------------------------------------
    def run_plan(self, src_stack: np.ndarray, plan):
        """Run one successor plan over a stack of source zones.

        Returns ``(work, alive)``: the transformed ``(B, n, n)`` stack
        and the boolean survival mask, or ``(None, alive)`` for error
        plans (whose zone work stops at the guard; the caller raises
        the deferred :class:`~repro.ta.model.ModelError` for the first
        live element, matching the scalar explorer).
        """
        work = src_stack.copy()
        alive = np.ones(work.shape[0], dtype=bool)
        for i, j, bound in plan.guard_ops:
            self.constrain(work, alive, i, j, bound)
            if not alive.any():
                return work, alive
        if plan.error is not None:
            return None, alive
        for kind, x, y in plan.zone_ops:
            if kind == 0:  # reset
                self.reset(work, x, y)
            else:  # copy
                self.assign_clock(work, x, y)
        if plan.free_clocks:
            self.free_many(work, plan.free_clocks)
        for i, j, bound in plan.invariant_ops:
            self.constrain(work, alive, i, j, bound)
            if not alive.any():
                return work, alive
        if plan.delay:
            self.up(work)
            for i, j, bound in plan.invariant_ops:
                self.constrain(work, alive, i, j, bound)
        if plan.lu is not None:
            self.extrapolate_lu(work, alive, plan.lu)
        else:
            self.extrapolate_max(work, alive)
        return work, alive

"""Passed-list zone stores for subsumption-aware exploration.

The explorer keeps, per discrete state, the antichain of stored zones
and answers two questions on every candidate successor:

* ``covers(zone)`` — is the candidate already included in a stored
  zone? (if so it is discarded);
* ``insert(zone, entry)`` — store the candidate, evicting every stored
  zone it subsumes and returning the waiting-list entries of the
  evicted zones so the explorer can mark them dead.

These two scans are the hottest code of every exploration.  The
reference bucket runs an early-exit elementwise loop over the raw
bound lists.  The numpy bucket keeps the zones stacked in one
``(capacity, n²)`` int64 array and scans it in C
(``_dbmkernel.store_covers``/``store_insert``) whenever the compiled
extension is importable, or with numpy broadcasts when it is not.

Buckets deliberately reach into the backing storage (``zone._m``) of
their matching backend — they are the other half of each backend's
representation, paired with it in :mod:`repro.zones.backend`.  Stored
zones must never be mutated afterwards (the explorer guarantees this:
stored zones are freshly materialized and only read from then on).
"""

from __future__ import annotations

import functools
from math import isqrt
from typing import Any

__all__ = ["ReferencePassedBucket", "NumpyPassedBucket"]


class ReferencePassedBucket:
    """Antichain of list-backed DBMs with early-exit inclusion sweeps."""

    __slots__ = ("_rows", "entries")

    def __init__(self):
        self._rows: list[list[int]] = []
        self.entries: list[Any] = []

    def __len__(self) -> int:
        return len(self._rows)

    def covers(self, zone) -> bool:
        """True when a stored zone includes ``zone``."""
        m = zone._m
        for row in self._rows:
            for a, b in zip(row, m):
                if a < b:
                    break
            else:
                return True
        return False

    def insert(self, zone, entry) -> list:
        """Store ``zone``; return entries of evicted (subsumed) zones."""
        m = zone._m
        evicted: list[Any] = []
        kept_rows: list[list[int]] = []
        kept_entries: list[Any] = []
        for row, stored in zip(self._rows, self.entries):
            for a, b in zip(m, row):
                if a < b:
                    kept_rows.append(row)
                    kept_entries.append(stored)
                    break
            else:
                evicted.append(stored)
        kept_rows.append(m)
        kept_entries.append(entry)
        self._rows = kept_rows
        self.entries = kept_entries
        return evicted

    def commit_batch(self, zones, entries) -> list[bool]:
        """Ordered batch of ``covers``/``insert`` steps.

        Equivalent to the sequential ``covers(z) or insert(z, e)`` loop
        the explorer runs per candidate; evicted entries get their
        ``alive`` flag cleared here instead of being returned.  Returns
        one inserted-flag per candidate.
        """
        return _commit_sequential(self.covers, self.insert, zones,
                                  entries)


def _commit_sequential(covers, insert, candidates, entries) -> list[bool]:
    """``covers``-or-``insert`` per candidate, in order; clears the
    ``alive`` flag of every evicted entry and returns inserted-flags."""
    flags: list[bool] = []
    for candidate, entry in zip(candidates, entries):
        inserted = not covers(candidate)
        if inserted:
            for evicted in insert(candidate, entry):
                evicted.alive = False
        flags.append(inserted)
    return flags


@functools.cache
def _native_scan():
    """The compiled scan kernel, or ``None`` when it is not importable.

    Goes through :mod:`repro.zones.dbm_native`, which refuses a stale
    build, so a bucket never calls a scan the loaded ``.so`` lacks.
    Tests monkeypatch this handle to force the numpy fallback.
    """
    try:
        from repro.zones.dbm_native import _k
    except ImportError:
        return None
    return _k


class NumpyPassedBucket:
    """Antichain of numpy-backed DBMs stacked as rows of one array.

    Rows ``0.._count`` of the ``(capacity, n²)`` int64 stack hold the
    stored zones in insertion order; the capacity doubles when full.

    With the compiled extension importable (:func:`_native_scan`, fixed
    per bucket at construction) each scan is one C call:
    ``store_covers`` stops at the first stored row that dominates the
    candidate, and ``store_insert`` compacts the stack in place —
    dropping the rows the candidate dominates — appends the candidate
    and returns the evicted positions.

    Without the extension the same verdicts come from numpy broadcasts
    over the live rows, gated by two elementwise envelopes:

    * ``_upper`` — elementwise maximum of the stored rows.  A stored
      zone can only include a candidate whose every bound lies below
      the envelope, so a failed ``candidate ≤ upper`` test refutes
      ``covers`` with one vector comparison.
    * ``_lower`` — elementwise minimum of the stored rows.  A candidate
      can only evict a stored zone when it dominates the envelope, so
      a failed ``candidate ≥ lower`` test skips the eviction sweep.

    An eviction recomputes both envelopes from the surviving rows, so
    they never keep contributions of rows that no longer exist.  The C
    scans keep no envelopes: their early exit already stops at the
    first refuting bound.
    """

    __slots__ = ("_np", "_scan", "_n", "_stack", "_count", "_upper",
                 "_lower", "entries")

    def __init__(self):
        import numpy
        self._np = numpy
        self._scan = _native_scan()
        self._n = 0  # clocks per zone, fixed by the first insert
        self._stack = None  # (capacity, n²), rows 0.._count valid
        self._count = 0
        self._upper = None
        self._lower = None
        self.entries: list[Any] = []

    def __len__(self) -> int:
        return self._count

    def covers(self, zone) -> bool:
        """True when a stored zone includes ``zone``."""
        return self._covers(zone._m)

    def insert(self, zone, entry) -> list:
        """Store ``zone``; return entries of evicted (subsumed) zones."""
        return self._insert(zone._m, entry)

    def commit_batch(self, rows, entries) -> list[bool]:
        """Ordered batch of ``covers``/``insert`` steps on row vectors.

        ``rows`` is a ``(C, n²)`` int64 array of candidate snapshots;
        the outcome is that of the sequential per-candidate loop (see
        :meth:`ReferencePassedBucket.commit_batch`).
        """
        rows = self._np.ascontiguousarray(rows, dtype=self._np.int64)
        return _commit_sequential(self._covers, self._insert, rows,
                                  entries)

    def _covers(self, m) -> bool:
        count = self._count
        if not count:
            return False
        scan = self._scan
        if scan is not None:
            return scan.store_covers(self._stack, count, m, self._n)
        row = m.reshape(-1)
        if not (row <= self._upper).all():
            return False
        return bool((self._stack[:count] >= row).all(axis=1).any())

    def _insert(self, m, entry) -> list:
        np = self._np
        count = self._count
        stack = self._stack
        if stack is None:
            width = m.size
            self._n = isqrt(width)
            stack = self._stack = np.empty((4, width), dtype=np.int64)
        elif count == stack.shape[0]:
            grown = np.empty((2 * count, stack.shape[1]), dtype=np.int64)
            grown[:count] = stack
            stack = self._stack = grown
        scan = self._scan
        if scan is not None:
            positions = scan.store_insert(stack, count, m, self._n)
        else:
            positions = self._insert_broadcast(m.reshape(-1), count)
        entries = self.entries
        if positions:
            evicted = [entries[i] for i in positions]
            dead = set(positions)
            entries = self.entries = [
                e for i, e in enumerate(entries) if i not in dead]
        else:
            evicted = positions
        entries.append(entry)
        self._count = len(entries)
        return evicted

    def _insert_broadcast(self, row, count: int) -> list[int]:
        """Numpy fallback of ``store_insert``: write ``row`` after the
        surviving rows, keep the envelopes exact, return the evicted
        positions."""
        np = self._np
        stack = self._stack
        if not count:
            stack[0] = row
            self._upper = row.copy()
            self._lower = row.copy()
            return []
        if (row >= self._lower).all():
            live = stack[:count]
            subsumed = (row >= live).all(axis=1)
            if subsumed.any():
                kept = count - int(subsumed.sum())
                # Fancy indexing copies; in-place compaction is safe.
                stack[:kept] = live[~subsumed]
                stack[kept] = row
                live = stack[:kept + 1]
                self._upper = live.max(axis=0)
                self._lower = live.min(axis=0)
                return np.flatnonzero(subsumed).tolist()
        stack[count] = row
        np.maximum(self._upper, row, out=self._upper)
        np.minimum(self._lower, row, out=self._lower)
        return []

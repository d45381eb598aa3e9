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
bound lists.  The native backend's bucket keeps the zones stacked in
one ``(capacity, n²)`` int64 numpy array and scans it in C
(``_dbmkernel.store_covers``/``store_insert``).

Buckets deliberately reach into the backing storage (``zone._m``) of
their matching backend — they are the other half of each backend's
representation, paired with it in :mod:`repro.zones.backend`.  Stored
zones must never be mutated afterwards (the explorer guarantees this:
stored zones are freshly materialized and only read from then on).
"""

from __future__ import annotations

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


class NumpyPassedBucket:
    """Antichain of native zones stacked as rows of one numpy array.

    Rows ``0.._count`` of the ``(capacity, n²)`` int64 stack hold the
    stored zones in insertion order; the capacity doubles when full.
    Each scan is one C call: ``store_covers`` stops at the first stored
    row that dominates the candidate, and ``store_insert`` compacts the
    stack in place — dropping the rows the candidate dominates —
    appends the candidate and returns the evicted positions.
    """

    __slots__ = ("_np", "_scan", "_n", "_stack", "_count", "entries")

    def __init__(self):
        import numpy

        from repro.zones.dbm_native import _k
        self._np = numpy
        self._scan = _k
        self._n = 0  # clocks per zone, fixed by the first insert
        self._stack = None  # (capacity, n²), rows 0.._count valid
        self._count = 0
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
        return self._scan.store_covers(self._stack, count, m, self._n)

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
        positions = self._scan.store_insert(stack, count, m, self._n)
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

"""Native (C extension) DBM backend: compiled kernels, numpy storage.

:class:`NativeDBM` subclasses :class:`~repro.zones.dbm_numpy.NumpyDBM`
and keeps the matrix as the same C-contiguous ``(n, n)`` int64 array —
so the passed-list buckets (:mod:`repro.zones.store`), the intern
table and the monitor's ``np.stack`` batches all work unchanged — but
every hot kernel (closure, constrain, resets, inclusion,
extrapolation) is one call into the compiled ``repro.zones._dbmkernel``
module instead of a cascade of numpy ufunc dispatches, and so is the
explorer's whole successor step (:meth:`NativeDBM.apply_plan`).  On
the small matrices this framework produces (< 16 clocks) per-call
dispatch overhead dominates arithmetic, which is why the compiled
scalar loops beat the vectorized kernels at every size.

Bit-identity: the C kernels replicate the reference backend's loops
statement for statement (see ``_dbmkernel.c``); the differential
lockstep tests in ``tests/test_zones_backends.py`` drive reference,
numpy and native through identical random op sequences and require
equal snapshots, emptiness verdicts and hashes at every step.

This module raises :class:`ImportError` when either numpy or the
compiled extension is missing, or when the extension was built from
an older ``_dbmkernel.c`` than :data:`KERNEL_VERSION` (a stale in-place
``.so``); :mod:`repro.zones.backend` catches that and simply leaves
``native`` out of :func:`available_backends`, so a checkout without a
compiler (or a wheel without the prebuilt artifact) falls back to the
pure-python/numpy backends gracefully.

Build the extension in place with::

    python setup.py build_ext --inplace

or install the ``[native]`` extra (the build is marked optional, so a
missing toolchain degrades to a warning, never an install failure).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.zones import _dbmkernel as _k  # ImportError when unbuilt
from repro.zones.dbm_numpy import NumpyDBM

__all__ = ["NativeDBM", "NativeBatchExpander"]

#: Kernel API this module and :mod:`repro.zones.store` call into.
KERNEL_VERSION: int = 2

_built = getattr(_k, "KERNEL_VERSION", 0)
if _built < KERNEL_VERSION:
    raise ImportError(
        f"repro.zones._dbmkernel is a stale build (API version "
        f"{_built}, need {KERNEL_VERSION}); rebuild it with "
        f"`python setup.py build_ext --inplace`")

#: Largest matrix the compiled kernels accept (stack-scratch bound).
MAX_CLOCKS: int = _k.MAX_CLOCKS


class NativeDBM(NumpyDBM):
    """Difference bound matrix with compiled kernels.

    Semantics are identical to :class:`repro.zones.dbm.DBM`, including
    the sticky emptiness flag and the cached ``frozen()`` snapshot; the
    ``_empty``/``_frozen`` bookkeeping stays in Python while the matrix
    mutations happen in C through the buffer protocol.
    """

    __slots__ = ()

    def __init__(self, size: int, _m=None):
        if size > MAX_CLOCKS:
            raise ValueError(
                f"the native zone backend supports up to {MAX_CLOCKS} "
                f"clocks, got {size}")
        super().__init__(size, _m)

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def close(self) -> "NativeDBM":
        self._frozen = None
        _k.close(self._m, self.size)
        self._empty = None
        return self

    def close_clock(self, x: int) -> "NativeDBM":
        self._frozen = None
        _k.close_clock(self._m, self.size, x)
        self._empty = None
        return self

    def is_empty(self) -> bool:
        empty = self._empty
        if empty is None:
            empty = self._empty = _k.is_empty(self._m, self.size)
        return empty

    # ------------------------------------------------------------------
    # Zone operations
    # ------------------------------------------------------------------
    def constrain(self, i: int, j: int, bound: int) -> "NativeDBM":
        self._frozen = None
        if _k.constrain(self._m, self.size, i, j, bound):
            self._empty = True
        return self

    def constrain_all(self, ops) -> bool:
        ops = ops if type(ops) is tuple else tuple(ops)
        if self.is_empty():
            # Mirror the base-class loop exactly: on an already-empty
            # zone the first constraint still lands on the matrix
            # before the emptiness check stops the sequence.
            if ops:
                i, j, bound = ops[0]
                self.constrain(i, j, bound)
            return False
        self._frozen = None
        if _k.constrain_all(self._m, self.size, ops):
            return True
        self._empty = True
        return False

    def up(self) -> "NativeDBM":
        self._frozen = None
        _k.up(self._m, self.size)
        return self

    def reset(self, x: int, value: int = 0) -> "NativeDBM":
        self._frozen = None
        _k.reset(self._m, self.size, x, value)
        return self

    def assign_clock(self, x: int, y: int) -> "NativeDBM":
        if x == y:
            return self
        self._frozen = None
        _k.assign(self._m, self.size, x, y)
        return self

    def free(self, x: int) -> "NativeDBM":
        self._frozen = None
        _k.free_clock(self._m, self.size, x)
        return self

    def free_many(self, clocks) -> "NativeDBM":
        if not clocks:
            return self
        self._frozen = None
        _k.free_many(self._m, self.size,
                     clocks if type(clocks) is tuple else tuple(clocks))
        return self

    def apply_plan(self, plan, max_consts,
                   scratch=None) -> "NativeDBM | None":
        """The base-class plan step as one ``_dbmkernel.run_plan`` call.

        Runs on a private copy of this matrix (a batch of one), so
        ``scratch`` is not needed; survivors are bit-identical to the
        op-by-op replay of :meth:`ZoneMatrix.apply_plan`.
        """
        m = self._m.copy()
        alive = bytearray(b"\x01")
        error = plan.error
        _k.run_plan(m, alive, 1, self.size, plan.guard_ops,
                    error is not None, plan.zone_ops, plan.free_clocks,
                    plan.invariant_ops, plan.delay, max_consts, plan.lu)
        if not alive[0]:
            return None
        if error is not None:
            raise error
        zone = NativeDBM.__new__(NativeDBM)
        zone.size = self.size
        zone._m = m
        zone._empty = False
        zone._frozen = None
        return zone

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def includes(self, other) -> bool:
        if self.size != other.size:
            raise ValueError("DBM size mismatch")
        if isinstance(other, NumpyDBM):
            return _k.includes(self._m, other._m, self.size)
        return bool((self._m >= self._peer_matrix(other)).all())

    # ------------------------------------------------------------------
    # Abstraction
    # ------------------------------------------------------------------
    def extrapolate_max(self, max_consts: Sequence[int]) -> "NativeDBM":
        if len(max_consts) != self.size:
            raise ValueError("need one max constant per clock")
        if _k.extrapolate_max(self._m, self.size, max_consts):
            # The C call re-closed the widened matrix; widening cannot
            # change emptiness, so the cached verdict stands.
            self._frozen = None
        return self

    def extrapolate_lu(self, lower: Sequence[int],
                       upper: Sequence[int]) -> "NativeDBM":
        if len(lower) != self.size or len(upper) != self.size:
            raise ValueError("need one lower and upper bound per clock")
        if _k.extrapolate_lu(self._m, self.size, lower, upper):
            self._frozen = None
        return self


class NativeBatchExpander:
    """Apply one successor plan to a zone stack in a single C call.

    Drop-in replacement for :class:`repro.zones.batch.BatchExpander`:
    same ``run_plan(src_stack, plan) -> (work, alive)`` contract, same
    bit-identity guarantees for surviving elements, same
    garbage-allowed contract for dead ones.  Instead of one broadcast
    numpy kernel per plan *op*, the whole pipeline (guards → resets →
    frees → invariants → delay → extrapolation) runs per element inside
    ``_dbmkernel.run_plan`` with early exit on emptiness.
    """

    __slots__ = ("n", "max_consts")

    def __init__(self, n_clocks: int, max_consts):
        self.n = n_clocks
        self.max_consts = tuple(max_consts)

    def run_plan(self, src_stack: np.ndarray, plan):
        work = np.ascontiguousarray(src_stack)
        if work is src_stack:
            work = src_stack.copy()
        batch = work.shape[0]
        alive = np.ones(batch, dtype=bool)
        _k.run_plan(work, alive, batch, self.n, plan.guard_ops,
                    plan.error is not None, plan.zone_ops,
                    plan.free_clocks, plan.invariant_ops,
                    bool(plan.delay), self.max_consts, plan.lu)
        if plan.error is not None:
            return None, alive
        return work, alive

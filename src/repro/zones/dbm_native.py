"""Native (C extension) DBM backend: compiled kernels, numpy storage.

:class:`NativeDBM` keeps the matrix as a C-contiguous ``(n, n)`` int64
numpy array — the layout the passed-list buckets
(:mod:`repro.zones.store`), the intern table and the monitor's
``np.stack`` batches read.  Every kernel (closure, constrain, resets,
inclusion, extrapolation) is one call into the compiled
``repro.zones._dbmkernel`` module, and so is the explorer's whole
successor step (:meth:`NativeDBM.apply_plan`).  numpy is only the
storage format; no numpy ufunc runs on the hot path.

Bit-identity: the C kernels replicate the reference backend's loops
statement for statement (see ``_dbmkernel.c``); the differential
lockstep tests in ``tests/test_zones_backends.py`` drive reference and
native through identical random op sequences and require equal
snapshots, emptiness verdicts and hashes at every step.

This module raises :class:`ImportError` when either numpy or the
compiled extension is missing, or when the extension was built from a
different ``_dbmkernel.c`` than :data:`KERNEL_VERSION` (a stale or
foreign in-place ``.so``, older or newer); :mod:`repro.zones.backend`
catches that and simply leaves ``native`` out of
:func:`available_backends`, so a checkout without a
compiler (or a wheel without the prebuilt artifact) falls back to the
pure-python reference backend gracefully.

Build the extension in place with::

    python setup.py build_ext --inplace

or install the ``[native]`` extra (the build is marked optional, so a
missing toolchain degrades to a warning, never an install failure).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.zones import _dbmkernel as _k  # ImportError when unbuilt
from repro.zones.bounds import INF, LE_ZERO
from repro.zones.common import ZoneMatrix

__all__ = ["NativeDBM", "NativeBatchExpander"]

#: Kernel API this module and :mod:`repro.zones.store` call into.
KERNEL_VERSION: int = 2

_built = getattr(_k, "KERNEL_VERSION", 0)
if _built != KERNEL_VERSION:
    raise ImportError(
        f"repro.zones._dbmkernel was built from a different "
        f"_dbmkernel.c (API version {_built}, need {KERNEL_VERSION}); "
        f"rebuild it with `python setup.py build_ext --inplace --force`")

#: Largest matrix the compiled kernels accept (stack-scratch bound).
MAX_CLOCKS: int = _k.MAX_CLOCKS


class NativeDBM(ZoneMatrix):
    """Difference bound matrix with compiled kernels.

    Semantics are identical to :class:`repro.zones.dbm.DBM`, including
    the sticky emptiness flag and the cached ``frozen()`` snapshot; the
    ``_empty``/``_frozen`` bookkeeping stays in Python while the matrix
    mutations happen in C through the buffer protocol.
    """

    __slots__ = ("size", "_m", "_empty", "_frozen")

    def __init__(self, size: int, _m=None):
        if size < 1:
            raise ValueError("a DBM needs at least the reference clock")
        if size > MAX_CLOCKS:
            raise ValueError(
                f"the native zone backend supports up to {MAX_CLOCKS} "
                f"clocks, got {size}")
        self.size = size
        if _m is None:
            m = np.full((size, size), INF, dtype=np.int64)
            m[0, :] = LE_ZERO
            np.fill_diagonal(m, LE_ZERO)
            self._empty = False
        else:
            m = np.array(_m, dtype=np.int64).reshape(size, size)
            self._empty = None
        self._m = m
        self._frozen = None

    # ------------------------------------------------------------------
    # Constructors and raw access
    # ------------------------------------------------------------------
    @classmethod
    def universal(cls, size: int) -> "NativeDBM":
        """All clock valuations with non-negative clocks."""
        return cls(size)

    @classmethod
    def zero(cls, size: int) -> "NativeDBM":
        """The singleton zone where every clock equals 0."""
        zone = cls(size)
        zone._m.fill(LE_ZERO)
        return zone

    def copy(self) -> "NativeDBM":
        clone = NativeDBM.__new__(NativeDBM)
        clone.size = self.size
        clone._m = self._m.copy()
        clone._empty = self._empty
        clone._frozen = self._frozen
        return clone

    def copy_from(self, other: "NativeDBM") -> "NativeDBM":
        """Overwrite this zone in place from a same-size zone."""
        np.copyto(self._m, other._m)
        self._empty = other._empty
        self._frozen = other._frozen
        return self

    def get(self, i: int, j: int) -> int:
        """Encoded bound of ``x_i - x_j`` as a Python int."""
        return int(self._m[i, j])

    def set_raw(self, i: int, j: int, bound: int) -> None:
        """Set an entry without re-closing (see the reference backend)."""
        self._m[i, j] = bound
        self._empty = None
        self._frozen = None

    def frozen(self) -> tuple[int, ...]:
        """Immutable snapshot usable as a dict key (cached)."""
        snapshot = self._frozen
        if snapshot is None:
            snapshot = self._frozen = tuple(self._m.ravel().tolist())
        return snapshot

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
    def _peer_matrix(self, other: ZoneMatrix) -> np.ndarray:
        if self.size != other.size:
            raise ValueError("DBM size mismatch")
        if type(other) is NativeDBM:
            return other._m
        return np.array(other.frozen(),
                        dtype=np.int64).reshape(self.size, self.size)

    def includes(self, other: ZoneMatrix) -> bool:
        """Zone inclusion ``other ⊆ self`` (both canonical)."""
        return _k.includes(self._m, self._peer_matrix(other), self.size)

    def intersects(self, other: ZoneMatrix) -> bool:
        """True when the two zones share at least one valuation."""
        merged = np.minimum(self._m, self._peer_matrix(other))
        _k.close(merged, self.size)
        return not _k.is_empty(merged, self.size)

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

    ``run_plan(src_stack, plan, alive=None) -> (work, alive)`` runs the
    whole plan pipeline (guards → resets/copies → frees → invariants →
    delay → extrapolation) per element inside ``_dbmkernel.run_plan``,
    with early exit on emptiness.  ``src_stack`` is a ``(B, n, n)``
    int64 stack; it is copied, never written.  An optional ``alive``
    byte mask marks input lanes that are already dead: the kernel
    skips them and they stay dead.  Surviving elements are bit-identical
    to :meth:`ZoneMatrix.apply_plan <repro.zones.common.ZoneMatrix.apply_plan>`
    on the same zone; dead elements may hold garbage.  A plan with a
    deferred ``error`` stops at the guards and returns ``(None,
    alive)``: ``alive`` then flags the lanes whose guards held, which
    are exactly the lanes that must raise.
    """

    __slots__ = ("n", "max_consts")

    def __init__(self, n_clocks: int, max_consts):
        self.n = n_clocks
        self.max_consts = tuple(max_consts)

    def run_plan(self, src_stack: np.ndarray, plan, alive=None):
        work = np.ascontiguousarray(src_stack)
        if work is src_stack:
            work = src_stack.copy()
        batch = work.shape[0]
        alive = (np.ones(batch, dtype=bool) if alive is None
                 else np.array(alive, dtype=bool))
        _k.run_plan(work, alive, batch, self.n, plan.guard_ops,
                    plan.error is not None, plan.zone_ops,
                    plan.free_clocks, plan.invariant_ops,
                    bool(plan.delay), self.max_consts, plan.lu)
        if plan.error is not None:
            return None, alive
        return work, alive

"""Passed-bucket invariants: scans, compaction, batches.

The native backend's row-stack bucket scans its ``(capacity, n²)``
stack in C; it must agree with the reference bucket step for step —
covers verdicts, evicted entries and their order, sizes and surviving
rows.  ``commit_batch`` must be observationally identical to the
sequential ``covers``/``insert`` loop, including which waiting entries
it kills.  The C scans must reject malformed buffers with
``ValueError``.
"""

from __future__ import annotations

import importlib
import random
import re
import sys
import types
from pathlib import Path

import pytest

import repro.zones
from repro.zones import backend, store
from repro.zones.backend import available_backends, resolve_backend
from repro.zones.bounds import INF
from repro.zones.dbm import DBM

numpy = pytest.importorskip("numpy")

BACKENDS = available_backends()


class Entry:
    __slots__ = ("alive", "tag")

    def __init__(self, tag):
        self.alive = True
        self.tag = tag


def random_zone(dbm_cls, size, rng):
    zone = dbm_cls.zero(size)
    zone.up()
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(size)
        j = rng.randrange(size)
        if i == j:
            continue
        zone.constrain(i, j, rng.randrange(2, 40) * 2 + 1)
        if zone.is_empty():
            return None
    return zone


def _bucket_rows(bucket):
    return [tuple(int(v) for v in bucket._stack[i])
            for i in range(bucket._count)]


@pytest.fixture
def native_backend():
    if "native" not in BACKENDS:
        pytest.skip("native zone backend not built")
    return resolve_backend("native")


@pytest.fixture
def kernel(native_backend):
    from repro.zones.dbm_native import _k
    return _k


class TestEviction:
    def test_covers_after_eviction(self, native_backend):
        dbm = native_backend.dbm
        bucket = native_backend.bucket()
        bucket.insert(dbm.universal(3).constrain(1, 0, 11), Entry(0))
        bucket.insert(dbm.universal(3).constrain(1, 0, 21), Entry(1))
        assert bucket.covers(dbm.universal(3).constrain(1, 0, 7))
        assert not bucket.covers(dbm.universal(3))


def test_huge_bound_stored_exactly(native_backend):
    """Bounds beyond 32 bits commit and round-trip through the stack."""
    dbm = native_backend.dbm
    bucket = native_backend.bucket()
    huge = dbm.zero(2).up().constrain(1, 0, (1 << 31) + 7)
    row = huge._m.reshape(1, -1)
    assert bucket.commit_batch(row.copy(), [Entry(0)]) == [True]
    assert _bucket_rows(bucket) == [tuple(huge._m.reshape(-1).tolist())]
    assert bucket.covers(huge)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(4))
def test_commit_batch_matches_sequential(backend, seed):
    """Random zone batches: batched commit ≡ ordered covers/insert."""
    spec = resolve_backend(backend)
    rng = random.Random(seed)
    size = 4
    zones = []
    while len(zones) < 24:
        zone = random_zone(spec.dbm, size, rng)
        if zone is not None:
            zones.append(zone)

    sequential = spec.bucket()
    expected_flags = []
    seq_entries = [Entry(i) for i in range(len(zones))]
    for zone, entry in zip(zones, seq_entries):
        if sequential.covers(zone):
            expected_flags.append(False)
            continue
        for evicted in sequential.insert(zone, entry):
            evicted.alive = False
        expected_flags.append(True)

    batched = spec.bucket()
    batch_entries = [Entry(i) for i in range(len(zones))]
    # Split the stream into a few waves, as the explorer would.
    flags = []
    for start in (0, 7, 15):
        end = {0: 7, 7: 15, 15: len(zones)}[start]
        chunk = zones[start:end]
        entries = batch_entries[start:end]
        if backend == "native":
            # The row-stack bucket commits (C, n²) row snapshots.
            rows = numpy.stack([z._m.reshape(-1) for z in chunk])
            flags.extend(batched.commit_batch(rows, entries))
        else:
            flags.extend(batched.commit_batch(chunk, entries))

    assert flags == expected_flags
    assert [e.alive for e in batch_entries] == \
        [e.alive for e in seq_entries]
    if backend == "native":
        assert _bucket_rows(batched) == [
            tuple(row) for row in sequential._stack[:len(sequential)]
            .tolist()]
    else:
        assert batched._rows == sequential._rows


# -- two-way lockstep: reference vs the native row stack ----------------

def _lockstep_buckets():
    """``(name, bucket, zone converter)`` for both backends."""
    from repro.zones.dbm_native import NativeDBM

    def as_native(zone):
        return NativeDBM(zone.size, _m=list(zone._m))

    return [("reference", store.ReferencePassedBucket(), None),
            ("native", store.NumpyPassedBucket(), as_native)]


def _surviving_rows(bucket):
    if isinstance(bucket, store.ReferencePassedBucket):
        return [tuple(row) for row in bucket._rows]
    return _bucket_rows(bucket)


def _lockstep_zone(rng, size):
    """Small-constant zones, so inclusion (and eviction) is common;
    unconstrained clocks keep ``INF`` upper bounds."""
    zone = DBM.universal(size) if rng.random() < 0.5 else DBM.zero(size).up()
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(size), 2)
        bound = rng.randrange(0, 6) * 2 + rng.randint(0, 1)
        if i == 0:
            bound = -bound
        zone.constrain(i, j, bound)
    return None if zone.is_empty() else zone


def _run_lockstep(buckets, steps):
    """Apply ``("covers"|"insert", zone)`` steps to every bucket and
    assert they agree after each one."""
    for index, (op, zone) in enumerate(steps):
        outcomes = []
        for name, bucket, convert in buckets:
            candidate = convert(zone) if convert else zone
            if op == "covers":
                outcomes.append(bucket.covers(candidate))
            else:
                evicted = bucket.insert(candidate, Entry(index))
                outcomes.append([e.tag for e in evicted])
        assert all(o == outcomes[0] for o in outcomes), (index, op,
                                                          outcomes)
        reference = buckets[0][1]
        for name, bucket, _ in buckets[1:]:
            assert len(bucket) == len(reference), name
            assert ([e.tag for e in bucket.entries]
                    == [e.tag for e in reference.entries]), name
            assert _surviving_rows(bucket) == _surviving_rows(reference)


@pytest.mark.parametrize("seed", range(6))
def test_store_ops_lockstep(native_backend, seed):
    """Seeded random covers/insert sequences, including duplicate
    zones (re-inserted without a covers check) and growth past the
    initial capacity of 4."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < 40:
        zone = _lockstep_zone(rng, 3)
        if zone is not None:
            pool.append(zone)
    steps = [(rng.choice(("covers", "insert")), rng.choice(pool))
             for _ in range(160)]
    buckets = _lockstep_buckets()
    _run_lockstep(buckets, steps)
    assert any(INF in row for row in _surviving_rows(buckets[0][1]))


def test_store_ops_lockstep_multi_eviction_and_growth(native_backend):
    """Six incomparable zones outgrow capacity 4; a duplicate is
    evicted by its twin; then one wide zone evicts several rows while
    an incomparable one survives."""
    narrow = [DBM.universal(3).constrain(1, 0, 2 * k + 1)
              .constrain(2, 0, 2 * (6 - k) + 1) for k in range(6)]
    other = DBM.universal(3).constrain(1, 2, 1)
    wide = DBM.universal(3).constrain(1, 0, 21).constrain(2, 0, 21)
    steps = [("insert", zone) for zone in narrow]
    steps += [("insert", narrow[2]), ("insert", other),
              ("covers", narrow[0]), ("covers", wide),
              ("insert", wide), ("covers", narrow[3])]
    buckets = _lockstep_buckets()
    _run_lockstep(buckets, steps)
    reference = buckets[0][1]
    assert [e.tag for e in reference.entries] == [7, 10]
    for _, bucket, _ in buckets[1:]:
        assert bucket._stack.shape[0] > 4


# -- C input validation ---------------------------------------------------

class TestScanValidation:
    def _stack(self, rows=4, width=9):
        return numpy.zeros((rows, width), dtype=numpy.int64)

    @pytest.mark.parametrize("op", ["store_covers", "store_insert"])
    def test_wrong_width(self, kernel, op):
        scan = getattr(kernel, op)
        row = numpy.zeros(9, dtype=numpy.int64)
        with pytest.raises(ValueError):
            scan(self._stack(width=16), 1, row, 3)
        with pytest.raises(ValueError):
            scan(self._stack(), 1, numpy.zeros(16, dtype=numpy.int64), 3)

    @pytest.mark.parametrize("op", ["store_covers", "store_insert"])
    @pytest.mark.parametrize("count", [-1, 5])
    def test_count_beyond_rows(self, kernel, op, count):
        row = numpy.zeros(9, dtype=numpy.int64)
        with pytest.raises(ValueError):
            getattr(kernel, op)(self._stack(), count, row, 3)

    def test_insert_needs_a_free_row(self, kernel):
        row = numpy.zeros(9, dtype=numpy.int64)
        assert kernel.store_covers(self._stack(), 4, row, 3)
        with pytest.raises(ValueError):
            kernel.store_insert(self._stack(), 4, row, 3)

    @pytest.mark.parametrize("op", ["store_covers", "store_insert"])
    def test_non_contiguous_buffers(self, kernel, op):
        scan = getattr(kernel, op)
        row = numpy.zeros(9, dtype=numpy.int64)
        strided = numpy.zeros((4, 18), dtype=numpy.int64)[:, ::2]
        with pytest.raises(ValueError):
            scan(strided, 1, row, 3)
        transposed = numpy.arange(9, dtype=numpy.int64).reshape(3, 3).T
        with pytest.raises(ValueError):
            scan(self._stack(), 1, transposed, 3)

    @pytest.mark.parametrize("op", ["store_covers", "store_insert"])
    @pytest.mark.parametrize("dtype", ["int32", "float64", "uint64"])
    def test_wrong_dtype(self, kernel, op, dtype):
        scan = getattr(kernel, op)
        row = numpy.zeros(9, dtype=numpy.int64)
        with pytest.raises(ValueError):
            scan(self._stack().astype(dtype), 1, row, 3)
        with pytest.raises(ValueError):
            scan(self._stack(), 1, row.astype(dtype), 3)

    def test_insert_reports_ascending_positions(self, kernel):
        stack = self._stack(rows=4)
        stack[:3] = [[1] * 9, [5] * 9, [0] * 9]
        row = numpy.full(9, 2, dtype=numpy.int64)
        assert kernel.store_insert(stack, 3, row, 3) == [0, 2]
        assert stack[:2].tolist() == [[5] * 9, [2] * 9]


# -- stale in-place builds -------------------------------------------------

#: The kernel API version ``_dbmkernel.c`` declares.
SOURCE_VERSION = int(re.search(
    r"#define KERNEL_VERSION (\d+)",
    (Path(repro.zones.__file__).parent / "_dbmkernel.c").read_text(),
).group(1))


@pytest.mark.parametrize("offset", [-1, 1])
def test_stale_kernel_build_is_refused(monkeypatch, offset):
    """An extension built from an older or a newer ``_dbmkernel.c``
    than the wrapper drops ``native`` through the ImportError
    fallback."""
    stale = types.ModuleType("repro.zones._dbmkernel")
    stale.KERNEL_VERSION = SOURCE_VERSION + offset
    monkeypatch.setitem(sys.modules, "repro.zones._dbmkernel", stale)
    monkeypatch.setattr(repro.zones, "_dbmkernel", stale, raising=False)
    monkeypatch.delitem(sys.modules, "repro.zones.dbm_native",
                        raising=False)
    with pytest.raises(ImportError, match="different _dbmkernel.c"):
        importlib.import_module("repro.zones.dbm_native")
    monkeypatch.setattr(backend, "_native_backend", None)
    assert available_backends() == ("reference",)
    assert resolve_backend("auto").name == "reference"

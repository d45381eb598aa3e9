"""Differential tests: every zone backend against the reference.

Random operation sequences are driven through the reference, numpy and
(when built) native backends in lockstep; after every step all
matrices must agree bit for bit — same ``frozen()`` snapshot, same
emptiness verdict, same hash.  Once a zone turns empty only the
verdict is compared (the incremental-closure order on inconsistent
matrices is implementation-defined; emptiness is sticky in every
backend).

Also covers the batched wave pipeline (``BatchExpander`` vs the
compiled ``NativeBatchExpander``), the backend registry (selection
rules, env var, aliases, hint-driven ``auto``) and the passed-list
buckets that pair with each backend.  The native backend is optional:
everything here skips or adapts cleanly when the C extension is not
built.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.zones.backend as backend_mod
from repro.zones.backend import (
    available_backends,
    requested_backend,
    resolve_backend,
    set_backend,
)
from repro.zones.bounds import encode
from repro.zones.costmodel import BackendHint, choose_backend
from repro.zones.dbm import DBM
from repro.zones.dbm_numpy import NumpyDBM
from repro.zones.store import NumpyPassedBucket, ReferencePassedBucket

try:
    from repro.zones.dbm_native import NativeBatchExpander, NativeDBM
except ImportError:  # extension not built in this checkout
    NativeBatchExpander = NativeDBM = None

HAVE_NATIVE = NativeDBM is not None
BACKEND_CLASSES = [DBM, NumpyDBM] + ([NativeDBM] if HAVE_NATIVE else [])

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="native zone backend not built")

SIZE = 4
MAX_CONST = 8


def _op_strategy():
    constrain = st.tuples(
        st.just("constrain"),
        st.integers(0, SIZE - 1),
        st.integers(0, SIZE - 1),
        st.integers(-MAX_CONST, MAX_CONST),
        st.booleans(),
    ).filter(lambda t: t[1] != t[2])
    constrain_all = st.tuples(
        st.just("constrain_all"),
        st.lists(
            st.tuples(st.integers(0, SIZE - 1), st.integers(0, SIZE - 1),
                      st.integers(-MAX_CONST, MAX_CONST), st.booleans())
            .filter(lambda t: t[0] != t[1]),
            max_size=4))
    reset = st.tuples(st.just("reset"), st.integers(1, SIZE - 1),
                      st.integers(0, MAX_CONST))
    assign = st.tuples(st.just("assign"), st.integers(1, SIZE - 1),
                       st.integers(1, SIZE - 1))
    free = st.tuples(st.just("free"), st.integers(1, SIZE - 1))
    free_many = st.tuples(
        st.just("free_many"),
        st.lists(st.integers(1, SIZE - 1), min_size=1, max_size=SIZE - 1,
                 unique=True))
    extrapolate = st.tuples(
        st.just("extrapolate"),
        st.lists(st.integers(0, MAX_CONST), min_size=SIZE - 1,
                 max_size=SIZE - 1))
    # NO_BOUND (-1) is a legal LU entry: "this clock is never compared
    # that way here" — the coarsest, most widening-happy value.
    extrapolate_lu = st.tuples(
        st.just("extrapolate_lu"),
        st.lists(st.integers(-1, MAX_CONST), min_size=SIZE - 1,
                 max_size=SIZE - 1),
        st.lists(st.integers(-1, MAX_CONST), min_size=SIZE - 1,
                 max_size=SIZE - 1))
    simple = st.sampled_from([("up",), ("close",)])
    return st.one_of(constrain, constrain_all, reset, assign, free,
                     free_many, extrapolate, extrapolate_lu, simple)


def _apply(zone, op):
    kind = op[0]
    if kind == "constrain":
        zone.constrain(op[1], op[2], encode(op[3], op[4]))
    elif kind == "constrain_all":
        zone.constrain_all(tuple(
            (i, j, encode(value, weak)) for i, j, value, weak in op[1]))
    elif kind == "reset":
        zone.reset(op[1], op[2])
    elif kind == "assign":
        zone.assign_clock(op[1], op[2])
    elif kind == "free":
        zone.free(op[1])
    elif kind == "free_many":
        zone.free_many(tuple(op[1]))
    elif kind == "extrapolate":
        zone.extrapolate_max([0, *op[1]])
    elif kind == "extrapolate_lu":
        zone.extrapolate_lu([0, *op[1]], [0, *op[2]])
    elif kind == "up":
        zone.up()
    else:
        zone.close()


def _assert_lockstep(ops, start):
    reference = start(DBM)
    others = [start(cls) for cls in BACKEND_CLASSES[1:]]
    for op in ops:
        _apply(reference, op)
        for other in others:
            _apply(other, op)
            assert reference.is_empty() == other.is_empty(), op
        if reference.is_empty():
            return
        for other in others:
            assert reference.frozen() == other.frozen(), op
            assert hash(reference) == hash(other)
            assert reference == other
            assert reference.includes(other)
            assert other.includes(reference)


@settings(max_examples=120, deadline=None)
@given(st.lists(_op_strategy(), min_size=1, max_size=24))
def test_backends_agree_from_zero(ops):
    _assert_lockstep(ops, lambda cls: cls.zero(SIZE))


@settings(max_examples=120, deadline=None)
@given(st.lists(_op_strategy(), min_size=1, max_size=24))
def test_backends_agree_from_universal(ops):
    _assert_lockstep(ops, lambda cls: cls.universal(SIZE))


def test_backends_agree_long_random_walk():
    """Seeded high-volume sweep complementing the hypothesis runs."""
    rng = random.Random(2015)
    for _ in range(300):
        n = rng.randint(2, 7)
        zones = [cls.zero(n) for cls in BACKEND_CLASSES]
        a = zones[0]
        for _ in range(rng.randint(1, 30)):
            kind = rng.choice(
                ["constrain", "up", "reset", "assign", "free",
                 "free_many", "extrapolate", "extrapolate_lu",
                 "close"])
            if kind == "constrain":
                i, j = rng.sample(range(n), 2)
                op = ("constrain", i, j, rng.randint(-8, 8),
                      rng.random() < 0.5)
            elif kind == "reset":
                op = ("reset", rng.randint(1, n - 1), rng.randint(0, 6))
            elif kind == "assign":
                op = ("assign", rng.randint(1, n - 1),
                      rng.randint(1, n - 1))
            elif kind == "free":
                op = ("free", rng.randint(1, n - 1))
            elif kind == "free_many":
                op = ("free_many",
                      rng.sample(range(1, n), rng.randint(1, n - 1)))
            elif kind == "extrapolate":
                op = ("extrapolate",
                      [rng.randint(0, 8) for _ in range(n - 1)])
            elif kind == "extrapolate_lu":
                op = ("extrapolate_lu",
                      [rng.randint(-1, 8) for _ in range(n - 1)],
                      [rng.randint(-1, 8) for _ in range(n - 1)])
            else:
                op = (kind,)
            for zone in zones:
                _apply(zone, op)
            assert all(zone.is_empty() == a.is_empty()
                       for zone in zones), op
            if a.is_empty():
                break
            for zone in zones[1:]:
                assert a.frozen() == zone.frozen(), op
                assert hash(a) == hash(zone)


def test_cross_backend_comparisons():
    zones = []
    for cls in BACKEND_CLASSES:
        zone = cls.universal(3)
        zone.constrain(1, 0, encode(5, True))
        zones.append(zone)
    for a in zones:
        for b in zones:
            assert a == b and b == a
            assert a.includes(b) and b.includes(a)
            assert a.intersects(b) and b.intersects(a)
    wider = NumpyDBM.universal(3)
    for a in zones:
        assert wider.includes(a)
        assert not a.includes(wider)


def test_numpy_roundtrip_and_sampling():
    zone = NumpyDBM.universal(3)
    zone.constrain(1, 0, encode(10, True))
    zone.constrain(0, 1, encode(-3, True))
    again = NumpyDBM.from_frozen(3, zone.frozen())
    assert again == zone
    point = zone.sample_point()
    assert point is not None and zone.contains_point(point)
    assert DBM.from_frozen(3, zone.frozen()) == zone


@needs_native
def test_native_copy_and_roundtrip_stay_native():
    zone = NativeDBM.universal(3)
    zone.constrain(1, 0, encode(10, True))
    clone = zone.copy()
    assert type(clone) is NativeDBM
    assert clone == zone
    again = NativeDBM.from_frozen(3, zone.frozen())
    assert type(again) is NativeDBM and again == zone
    point = zone.sample_point()
    assert point is not None and zone.contains_point(point)


# ----------------------------------------------------------------------
# Batched wave pipeline
# ----------------------------------------------------------------------
def _random_plan(rng, n, max_const):
    """A random successor plan in the explorer's plan shape."""
    def some_ops(count):
        ops = []
        for _ in range(count):
            i, j = rng.sample(range(n), 2)
            ops.append((i, j, encode(rng.randint(-max_const, max_const),
                                     rng.random() < 0.5)))
        return tuple(ops)

    zone_ops = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.7:
            zone_ops.append((0, rng.randint(1, n - 1),
                             rng.randint(0, max_const)))
        else:
            zone_ops.append((1, rng.randint(1, n - 1),
                             rng.randint(1, n - 1)))
    lu = None
    if rng.random() < 0.5:
        lu = (tuple([0] + [rng.randint(-1, max_const)
                           for _ in range(n - 1)]),
              tuple([0] + [rng.randint(-1, max_const)
                           for _ in range(n - 1)]))
    return SimpleNamespace(
        guard_ops=some_ops(rng.randint(0, 3)),
        error="boom" if rng.random() < 0.1 else None,
        zone_ops=tuple(zone_ops),
        free_clocks=tuple(rng.sample(range(1, n),
                                     rng.randint(0, n - 1))),
        invariant_ops=some_ops(rng.randint(0, 2)),
        delay=rng.random() < 0.7,
        lu=lu)


@needs_native
def test_batched_wave_lockstep():
    """BatchExpander and NativeBatchExpander agree element for element.

    Dead elements may hold garbage (both pipelines stop writing them at
    different points by design), so only the alive mask and the live
    rows are compared — exactly the contract the batched monitor
    consumes.
    """
    from repro.zones.batch import BatchExpander

    rng = random.Random(20150309)
    for trial in range(150):
        n = rng.randint(2, 6)
        max_consts = tuple(rng.randint(0, 6) for _ in range(n))
        batch = rng.randint(1, 9)
        stack = []
        for _ in range(batch):
            zone = NumpyDBM.zero(n)
            for _ in range(rng.randint(0, 6)):
                i, j = rng.sample(range(n), 2)
                zone.constrain(i, j, encode(rng.randint(0, 8), True))
                if zone.is_empty():
                    zone = NumpyDBM.zero(n)
            zone.up()
            stack.append(zone._m)
        src = np.stack(stack)
        plan = _random_plan(rng, n, 6)
        ref = BatchExpander(n, max_consts)
        nat = NativeBatchExpander(n, max_consts)
        ref_work, ref_alive = ref.run_plan(src, plan)
        nat_work, nat_alive = nat.run_plan(src, plan)
        assert (ref_alive == nat_alive).all(), (trial, plan)
        if plan.error is not None:
            # Error plans stop at the guard; the consumer only reads
            # ``alive`` (the numpy pipeline may return the partially
            # guarded stack instead of None when every element died
            # before the error check — contractually equivalent).
            continue
        live = np.flatnonzero(ref_alive)
        assert (ref_work[live] == nat_work[live]).all(), (trial, plan)


# ----------------------------------------------------------------------
# Passed-list buckets
# ----------------------------------------------------------------------
def _random_zone(cls, rng, n):
    zone = cls.universal(n)
    for _ in range(rng.randint(0, 5)):
        i, j = rng.sample(range(n), 2)
        zone.constrain(i, j, encode(rng.randint(0, 8), True))
        if zone.is_empty():
            return _random_zone(cls, rng, n)
    return zone


def test_buckets_agree_with_reference():
    rng = random.Random(7)
    n = 4
    for _ in range(60):
        ref_bucket = ReferencePassedBucket()
        np_bucket = NumpyPassedBucket()
        for step in range(rng.randint(1, 20)):
            seed_state = rng.getstate()
            ref_zone = _random_zone(DBM, rng, n)
            rng.setstate(seed_state)
            np_zone = _random_zone(NumpyDBM, rng, n)
            assert ref_zone == np_zone
            assert ref_bucket.covers(ref_zone) == \
                np_bucket.covers(np_zone)
            if ref_bucket.covers(ref_zone):
                continue
            ref_evicted = ref_bucket.insert(ref_zone, f"e{step}")
            np_evicted = np_bucket.insert(np_zone, f"e{step}")
            assert ref_evicted == np_evicted
            assert len(ref_bucket) == len(np_bucket)
            assert ref_bucket.entries == np_bucket.entries


@needs_native
def test_buckets_accept_native_zones():
    """The numpy bucket treats native zones exactly like numpy ones."""
    rng = random.Random(11)
    n = 4
    for _ in range(20):
        np_bucket = NumpyPassedBucket()
        nat_bucket = NumpyPassedBucket()
        for step in range(rng.randint(1, 15)):
            seed_state = rng.getstate()
            np_zone = _random_zone(NumpyDBM, rng, n)
            rng.setstate(seed_state)
            nat_zone = _random_zone(NativeDBM, rng, n)
            assert np_zone == nat_zone
            assert np_bucket.covers(np_zone) == \
                nat_bucket.covers(nat_zone)
            if np_bucket.covers(np_zone):
                continue
            assert np_bucket.insert(np_zone, f"e{step}") == \
                nat_bucket.insert(nat_zone, f"e{step}")
            assert np_bucket.entries == nat_bucket.entries


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
def test_available_backends_reference_first():
    backends = available_backends()
    assert backends[:2] == ("reference", "numpy")
    # The native backend is optional (requires the built C extension);
    # whichever way this checkout was built, the registry must agree
    # with what is actually importable.
    assert set(backends) - {"reference", "numpy"} <= {"native"}
    assert ("native" in backends) == HAVE_NATIVE


def test_resolve_names_and_aliases():
    assert resolve_backend("numpy").dbm is NumpyDBM
    for alias in ("reference", "python", "list"):
        assert resolve_backend(alias).dbm is DBM
    # No-hint auto prefers native > numpy > reference.
    expected = NativeDBM if HAVE_NATIVE else NumpyDBM
    assert resolve_backend("auto").dbm is expected
    assert requested_backend("c") == "native"
    assert requested_backend("python") == "reference"
    assert requested_backend("auto") == "auto"
    with pytest.raises(ValueError, match="unknown zone backend"):
        resolve_backend("fortran")
    with pytest.raises(ValueError, match="unknown zone backend"):
        requested_backend("fortran")


@needs_native
def test_resolve_native():
    assert resolve_backend("native").dbm is NativeDBM
    assert resolve_backend("c").dbm is NativeDBM
    assert resolve_backend("native").bucket is NumpyPassedBucket


def test_native_unbuilt_fallback(monkeypatch):
    """Without the compiled extension, native drops out gracefully."""
    def boom():
        raise ImportError("extension not built")

    monkeypatch.setattr(backend_mod, "_load_native", boom)
    assert "native" not in available_backends()
    assert resolve_backend("auto").dbm is NumpyDBM
    with pytest.raises(RuntimeError, match="build_ext"):
        resolve_backend("native")


def test_env_var_and_forced_selection(monkeypatch):
    auto_dbm = resolve_backend("auto").dbm
    monkeypatch.setenv("REPRO_ZONE_BACKEND", "reference")
    assert resolve_backend().dbm is DBM
    set_backend("numpy")
    try:
        # A forced backend wins over the environment variable.
        assert resolve_backend().dbm is NumpyDBM
    finally:
        set_backend(None)
    assert resolve_backend().dbm is DBM
    monkeypatch.delenv("REPRO_ZONE_BACKEND")
    assert resolve_backend().dbm is auto_dbm
    with pytest.raises(ValueError):
        set_backend("no-such-backend")


# ----------------------------------------------------------------------
# auto: hint-driven selection (the wrong-default regression guard)
# ----------------------------------------------------------------------
def test_auto_hints_pick_cheap_backend_for_tiny_models(monkeypatch):
    """Structural-size guard: without native, tiny models must run on
    the reference backend (BENCH_20260808: numpy was 2.4x slower on
    `bench_portfolio_tiny` at jobs=1) while case-study-scale models
    stay on numpy."""
    from repro.core.transform import transform
    from repro.mc.explorer import ZoneGraphExplorer
    from tests.conftest import build_tiny_pim, build_tiny_scheme

    tiny = transform(build_tiny_pim(), build_tiny_scheme()).network
    structural = sum(len(a.locations) + len(a.edges)
                     for a in tiny.automata)
    tiny_hint = BackendHint(n_clocks=7, structural_size=structural)
    case_hint = BackendHint(n_clocks=11, structural_size=80)
    # Pure cost-model level, native absent:
    assert choose_backend(("reference", "numpy"), tiny_hint) == \
        "reference"
    assert choose_backend(("reference", "numpy"), case_hint) == "numpy"
    # Native available: it wins everywhere.
    assert choose_backend(("reference", "numpy", "native"),
                          tiny_hint) == "native"
    assert choose_backend(("reference", "numpy", "native"),
                          case_hint) == "native"

    # End to end through the explorer, with native masked out:
    def boom():
        raise ImportError("extension not built")

    monkeypatch.setattr(backend_mod, "_load_native", boom)
    explorer = ZoneGraphExplorer(tiny, zone_backend="auto")
    assert explorer.backend.name == "reference"


@needs_native
def test_auto_resolves_to_native_when_built():
    from repro.core.transform import transform
    from repro.mc.explorer import ZoneGraphExplorer
    from tests.conftest import build_tiny_pim, build_tiny_scheme

    tiny = transform(build_tiny_pim(), build_tiny_scheme()).network
    explorer = ZoneGraphExplorer(tiny, zone_backend="auto")
    assert explorer.backend.name == "native"

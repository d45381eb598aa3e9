"""Differential tests: the native zone backend against the reference.

Random operation sequences are driven through the reference and (when
built) native backends in lockstep; after every step both matrices
must agree bit for bit — same ``frozen()`` snapshot, same emptiness
verdict, same hash.  Once a zone turns empty only the verdict is
compared (the incremental-closure order on inconsistent matrices is
implementation-defined; emptiness is sticky in every backend).

Also covers the batched plan pipeline (``NativeBatchExpander.run_plan``
against per-element reference ``apply_plan``), the backend registry
(selection rules, env var, aliases, the ``auto`` clock-limit fallback,
the rejected ``numpy`` name) and the passed-list buckets that pair with
each backend.  The native backend is optional: everything here skips
or adapts cleanly when the C extension is not built.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.zones.backend as backend_mod
from repro.envvars import EnvVarError
from repro.ta.model import ModelError
from repro.zones.backend import (
    available_backends,
    requested_backend,
    resolve_backend,
    set_backend,
)
from repro.zones.bounds import encode
from repro.zones.dbm import DBM
from repro.zones.store import NumpyPassedBucket, ReferencePassedBucket

try:
    from repro.zones.dbm_native import (
        MAX_CLOCKS,
        NativeBatchExpander,
        NativeDBM,
    )
except ImportError:  # numpy or the compiled extension missing
    MAX_CLOCKS = NativeBatchExpander = NativeDBM = None

HAVE_NATIVE = NativeDBM is not None
BACKEND_CLASSES = [DBM] + ([NativeDBM] if HAVE_NATIVE else [])

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


@needs_native
@settings(max_examples=120, deadline=None)
@given(st.lists(_op_strategy(), min_size=1, max_size=24))
def test_backends_agree_from_zero(ops):
    _assert_lockstep(ops, lambda cls: cls.zero(SIZE))


@needs_native
@settings(max_examples=120, deadline=None)
@given(st.lists(_op_strategy(), min_size=1, max_size=24))
def test_backends_agree_from_universal(ops):
    _assert_lockstep(ops, lambda cls: cls.universal(SIZE))


@needs_native
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
    for cls in BACKEND_CLASSES:
        wider = cls.universal(3)
        for a in zones:
            assert wider.includes(a)
            assert not a.includes(wider)


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
    assert DBM.from_frozen(3, zone.frozen()) == zone


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
        error=(ModelError("v = 3 outside [0, 2]")
               if rng.random() < 0.1 else None),
        zone_ops=tuple(zone_ops),
        free_clocks=tuple(rng.sample(range(1, n),
                                     rng.randint(0, n - 1))),
        invariant_ops=some_ops(rng.randint(0, 2)),
        delay=rng.random() < 0.7,
        lu=lu)


@needs_native
def test_batched_wave_lockstep():
    """``NativeBatchExpander.run_plan`` against per-element reference
    ``apply_plan``.

    Every live lane must match the reference survivor bit for bit and
    every lane the reference kills must come back dead.  Lanes passed
    in dead stay dead.  For a deferred-error plan the alive mask flags
    exactly the lanes whose reference step raises.  Dead lanes may hold
    garbage, so only the mask and the live rows are compared — the
    contract the batched monitor consumes.
    """
    import numpy as np

    rng = random.Random(20150309)
    seen = {"alive": 0, "killed": 0, "dead input": 0, "raise": 0,
            "error suppressed": 0}
    for trial in range(150):
        n = rng.randint(2, 6)
        max_consts = tuple(rng.randint(0, 6) for _ in range(n))
        sources = [_random_zone(DBM, rng, n)
                   for _ in range(rng.randint(1, 9))]
        plan = _random_plan(rng, n, 6)
        alive_in = [rng.random() < 0.85 for _ in sources]
        stack = np.stack([NativeDBM.from_frozen(n, src.frozen())._m
                          for src in sources])
        before = stack.copy()
        work, alive = NativeBatchExpander(n, max_consts).run_plan(
            stack, plan, alive_in)
        assert (stack == before).all()  # the input is never written
        scratch = DBM.zero(n)
        for lane, src in enumerate(sources):
            if not alive_in[lane]:
                assert not alive[lane], (trial, lane)
                seen["dead input"] += 1
                continue
            try:
                expected = src.apply_plan(plan, max_consts, scratch)
            except ModelError:
                assert work is None and alive[lane], (trial, lane)
                seen["raise"] += 1
                continue
            if plan.error is not None:
                assert work is None and not alive[lane], (trial, lane)
                seen["error suppressed"] += 1
            elif expected is None:
                assert not alive[lane], (trial, lane)
                seen["killed"] += 1
            else:
                assert alive[lane], (trial, lane)
                assert tuple(work[lane].ravel().tolist()) == \
                    expected.frozen(), (trial, lane, plan)
                seen["alive"] += 1
    assert all(seen.values()), seen


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


@needs_native
def test_buckets_agree_with_reference():
    rng = random.Random(7)
    n = 4
    for _ in range(60):
        ref_bucket = ReferencePassedBucket()
        nat_bucket = NumpyPassedBucket()
        for step in range(rng.randint(1, 20)):
            seed_state = rng.getstate()
            ref_zone = _random_zone(DBM, rng, n)
            rng.setstate(seed_state)
            nat_zone = _random_zone(NativeDBM, rng, n)
            assert ref_zone == nat_zone
            assert ref_bucket.covers(ref_zone) == \
                nat_bucket.covers(nat_zone)
            if ref_bucket.covers(ref_zone):
                continue
            ref_evicted = ref_bucket.insert(ref_zone, f"e{step}")
            nat_evicted = nat_bucket.insert(nat_zone, f"e{step}")
            assert ref_evicted == nat_evicted
            assert len(ref_bucket) == len(nat_bucket)
            assert ref_bucket.entries == nat_bucket.entries


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
def test_available_backends_reference_first():
    backends = available_backends()
    # The native backend is optional (requires the built C extension);
    # whichever way this checkout was built, the registry must agree
    # with what is actually importable.
    assert backends == (("reference", "native") if HAVE_NATIVE
                        else ("reference",))


def test_resolve_names_and_aliases():
    for alias in ("reference", "python", "list"):
        assert resolve_backend(alias).dbm is DBM
    expected = NativeDBM if HAVE_NATIVE else DBM
    assert resolve_backend("auto").dbm is expected
    assert requested_backend("c") == "native"
    assert requested_backend("python") == "reference"
    assert requested_backend("auto") == "auto"
    for name in ("fortran", "numpy"):
        with pytest.raises(ValueError, match="unknown zone backend"):
            resolve_backend(name)
        with pytest.raises(ValueError, match="unknown zone backend"):
            requested_backend(name)
        with pytest.raises(ValueError, match="unknown zone backend"):
            set_backend(name)


def test_numpy_backend_name_is_rejected(monkeypatch, capsys):
    """The removed ``numpy`` backend is an unknown name everywhere, and
    each rejection lists the valid choices."""
    from repro.cli import build_parser, main

    with pytest.raises(SystemExit):
        build_parser().parse_args(["--zone-backend", "numpy", "scheme"])
    err = capsys.readouterr().err
    assert "invalid choice: 'numpy'" in err
    for choice in ("auto", "reference", "native"):
        assert repr(choice) in err

    with pytest.raises(ValueError) as exc:
        set_backend("numpy")
    assert "choose from: auto, reference" in str(exc.value)

    monkeypatch.setattr(backend_mod, "_forced", None)
    monkeypatch.setenv("REPRO_ZONE_BACKEND", "numpy")
    with pytest.raises(EnvVarError) as exc:
        requested_backend()
    message = str(exc.value)
    assert "'numpy'" in message and "numpy," not in message
    for choice in ("auto", "reference", "native"):
        assert choice in message
    assert main(["scheme"]) == 1
    assert "REPRO_ZONE_BACKEND" in capsys.readouterr().err


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
    assert available_backends() == ("reference",)
    assert resolve_backend("auto").dbm is DBM
    with pytest.raises(RuntimeError, match="build_ext"):
        resolve_backend("native")


def test_env_var_and_forced_selection(monkeypatch):
    auto_dbm = resolve_backend("auto").dbm
    monkeypatch.setenv("REPRO_ZONE_BACKEND", "reference")
    assert resolve_backend().dbm is DBM
    set_backend("c" if HAVE_NATIVE else "auto")
    try:
        # A forced backend wins over the environment variable.
        assert resolve_backend().dbm is auto_dbm
    finally:
        set_backend(None)
    assert resolve_backend().dbm is DBM
    monkeypatch.delenv("REPRO_ZONE_BACKEND")
    assert resolve_backend().dbm is auto_dbm
    with pytest.raises(ValueError):
        set_backend("no-such-backend")


# ----------------------------------------------------------------------
# auto: native when built and the model fits, else reference
# ----------------------------------------------------------------------
def _wide_network(n_clocks):
    """One automaton over ``n_clocks`` clocks, every one reset and read."""
    from repro.ta.builder import NetworkBuilder

    clocks = [f"x{k}" for k in range(n_clocks)]
    builder = NetworkBuilder("wide")
    auto = builder.automaton("W", clocks=clocks)
    auto.location("A", invariant="x0 <= 2", initial=True)
    auto.location("B", invariant="x0 <= 2")
    auto.edge("A", "B", guard=" && ".join(f"{x} >= 1" for x in clocks),
              update=", ".join(f"{x} = 0" for x in clocks))
    auto.edge("B", "A", guard="x0 >= 1", update="x0 = 0")
    return builder.build()


@needs_native
def test_auto_falls_back_to_reference_past_native_clock_limit():
    """A model wider than the native kernel explores under ``auto`` on
    reference; an explicit ``native`` still fails with its clear error."""
    from repro.mc.explorer import ZoneGraphExplorer

    assert resolve_backend("auto", n_clocks=MAX_CLOCKS).name == "native"
    assert resolve_backend("auto", n_clocks=70).name == "reference"
    assert resolve_backend("reference", n_clocks=70).name == "reference"
    network = _wide_network(MAX_CLOCKS + 1)
    explorer = ZoneGraphExplorer(network, zone_backend="auto")
    assert explorer.compiled.n_clocks == MAX_CLOCKS + 2
    assert explorer.backend.name == "reference"
    result = explorer.explore()
    assert result.complete and result.visited >= 2
    with pytest.raises(ValueError, match="supports up to 64 clocks"):
        ZoneGraphExplorer(network, zone_backend="native").explore()


@needs_native
def test_auto_resolves_to_native_when_built():
    from repro.core.transform import transform
    from repro.mc.explorer import ZoneGraphExplorer
    from tests.conftest import build_tiny_pim, build_tiny_scheme

    tiny = transform(build_tiny_pim(), build_tiny_scheme()).network
    explorer = ZoneGraphExplorer(tiny, zone_backend="auto")
    assert explorer.backend.name == "native"

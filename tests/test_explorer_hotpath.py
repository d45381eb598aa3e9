"""The explorer's per-transition work: plan steps and trace links.

* **Step lockstep.**  ``ZoneMatrix.apply_plan`` is the explorer's
  whole successor step; the native backend overrides it with one
  ``_dbmkernel.run_plan`` call.  Seeded random plans (killing guards,
  deferred-error plans, Extra_M and Extra⁺_LU, delay on and off, freed
  clocks) must give the reference replay's survivors bit for bit on
  native, and on native with the base method forced in through
  ``monkeypatch``.
* **Trace identity.**  REQ1's counterexample and trace on the
  case-study PSM are pinned to a digest of the output the seed
  implementation (``(key, zone snapshot)``-keyed parent links)
  produced, on reference and (when built) native.
* **Verify-path witness.**  ``Session.verify`` answers steps 5+6 and
  the suprema from one shared sweep over three observer pairs; the
  projected REQ1 witness must still carry the same digest.
* **Trace links.**  A stop on the initial state yields ``[]``, and a
  traced exploration never snapshots a zone (``frozen()``).

Nothing here needs the compiled extension: without it the tests run
on the reference backend alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.apps.infusion import build_infusion_pim
from repro.apps.schemes import case_study_scheme
from repro.core.transform import transform
from repro.mc.explorer import ZoneGraphExplorer, exploration_count
from repro.mc.queries import BoundedResponseQuery, check_many
from repro.ta.model import ModelError
from repro.zones.backend import available_backends, resolve_backend
from repro.zones.bounds import encode
from repro.zones.common import ZoneMatrix
from repro.zones.dbm import DBM

from tests.conftest import build_tiny_pim, build_tiny_scheme

try:
    from repro.zones.dbm_native import NativeDBM
except ImportError:  # numpy or the compiled extension missing
    NativeDBM = None

BACKENDS = available_backends()

needs_native = pytest.mark.skipif(
    NativeDBM is None, reason="native zone backend not built")

#: sha256 of ``json.dumps({"counterexample": ..., "trace": ...},
#: sort_keys=True)`` for REQ1 (500 ms) on the case-study PSM, as
#: produced by the seed implementation's parent-dict traces (identical
#: on the reference and native backends).
REQ1_DIGEST = \
    "5cd384a0e1d0afbc980c315ef531f6b2d1c5a59813da75dcba731a3bb8670fbb"
REQ1_TRACE_LEN = 155
REQ1_VISITED = 380


# ----------------------------------------------------------------------
# Step lockstep
# ----------------------------------------------------------------------
def _random_source(rng, n):
    """A canonical, non-empty reference zone over ``n`` clocks."""
    while True:
        zone = DBM.zero(n)
        zone.up()
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if roll < 0.6:
                i, j = rng.sample(range(n), 2)
                zone.constrain(i, j, encode(rng.randint(-2, 9),
                                            rng.random() < 0.5))
            elif roll < 0.8:
                zone.reset(rng.randint(1, n - 1), rng.randint(0, 4))
            else:
                zone.up()
        if not zone.is_empty():
            return zone


def _random_plan(rng, n, max_const=8):
    """A random plan in the explorer's ``_MovePlan`` shape."""
    def constraints(count):
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
        guard_ops=constraints(rng.randint(0, 3)),
        error=(ModelError("v = 3 outside [0, 2]")
               if rng.random() < 0.15 else None),
        zone_ops=tuple(zone_ops),
        free_clocks=tuple(rng.sample(range(1, n), rng.randint(0, n - 1))),
        invariant_ops=constraints(rng.randint(0, 2)),
        delay=rng.random() < 0.6,
        lu=lu)


def _outcome(zone, plan, max_consts, scratch):
    """``("raise", None)``, ``("dead", None)`` or ``("alive", snapshot)``."""
    try:
        succ = zone.apply_plan(plan, max_consts, scratch)
    except ModelError as exc:
        assert exc is plan.error
        return "raise", None
    if succ is None:
        return "dead", None
    assert succ is not zone and succ is not scratch
    assert type(succ) is type(zone) and not succ.is_empty()
    return "alive", succ.frozen()


def _trials(count, seed=20151009):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 6)
        yield (_random_source(rng, n), _random_plan(rng, n),
               (0,) + tuple(rng.randint(0, 8) for _ in range(n - 1)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_step_lockstep_against_reference(backend):
    """Each backend's plan step matches the reference replay, and a
    deferred error raises exactly when the guarded zone is non-empty."""
    dbm = resolve_backend(backend).dbm
    scratches: dict[int, ZoneMatrix] = {}
    seen = Counter()
    for src, plan, max_consts in _trials(400):
        n = src.size
        expected = _outcome(src, plan, max_consts,
                            scratches.setdefault(-n, DBM.zero(n)))
        guarded = src.copy()
        guard_alive = guarded.constrain_all(plan.guard_ops)
        if plan.error is not None:
            assert (expected[0] == "raise") == guard_alive
        zone = dbm.from_frozen(n, src.frozen())
        got = _outcome(zone, plan, max_consts,
                       scratches.setdefault(n, dbm.zero(n)))
        assert got == expected, (plan, src.frozen())
        assert zone.frozen() == src.frozen()  # the source is untouched
        seen[expected[0]] += 1
        if not guard_alive:
            seen["guard kills"] += 1
        elif expected[0] == "dead":
            seen["later kills"] += 1
        if plan.error is not None and not guard_alive:
            seen["error suppressed"] += 1
        seen["lu" if plan.lu is not None else "extra_m"] += 1
        seen["delay" if plan.delay else "no delay"] += 1
        seen["frees" if plan.free_clocks else "no frees"] += 1
    for case in ("alive", "dead", "raise", "guard kills", "later kills",
                 "error suppressed", "lu", "extra_m", "delay",
                 "no delay", "frees", "no frees"):
        assert seen[case] > 0, (case, seen)


@needs_native
def test_native_fused_step_matches_forced_scalar_step(monkeypatch):
    """The one-call native step against the base-class replay on the
    very same native zones (the base method forced in as a test hook)."""
    fused = [_outcome(NativeDBM.from_frozen(src.size, src.frozen()),
                      plan, max_consts, None)
             for src, plan, max_consts in _trials(400, seed=7)]
    monkeypatch.setattr(NativeDBM, "apply_plan", ZoneMatrix.apply_plan)
    scalar = [_outcome(NativeDBM.from_frozen(src.size, src.frozen()),
                       plan, max_consts, NativeDBM.zero(src.size))
              for src, plan, max_consts in _trials(400, seed=7)]
    assert fused == scalar


# ----------------------------------------------------------------------
# Trace identity and trace links
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def case_study_network():
    return transform(build_infusion_pim(), case_study_scheme()).network


def _req1(network, backend):
    return check_many(
        network, [BoundedResponseQuery("m_BolusReq", "c_StartInfusion",
                                       500)],
        zone_backend=backend).results[0]


def _digest(result) -> str:
    blob = json.dumps({"counterexample": result.counterexample,
                       "trace": result.trace}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("backend", BACKENDS)
def test_req1_trace_identity(case_study_network, backend):
    result = _req1(case_study_network, backend)
    assert not result.holds
    assert result.visited == REQ1_VISITED
    assert len(result.trace) == REQ1_TRACE_LEN
    assert _digest(result) == REQ1_DIGEST


@needs_native
def test_req1_trace_identity_forced_scalar_step(case_study_network,
                                                monkeypatch):
    monkeypatch.setattr(NativeDBM, "apply_plan", ZoneMatrix.apply_plan)
    assert _digest(_req1(case_study_network, "native")) == REQ1_DIGEST


@pytest.mark.parametrize("backend", BACKENDS)
def test_verify_witness(backend):
    before = exploration_count()
    report = Session(backend=backend).verify(
        build_infusion_pim(), case_study_scheme(),
        input_channel="m_BolusReq", output_channel="c_StartInfusion",
        deadline_ms=500, measure_suprema=True)
    # PIM check + internal sup + one PSM sweep (constraints included).
    assert exploration_count() - before == 3
    result = report.psm_original_result
    assert not result.holds and report.psm_relaxed_result.holds
    assert result.visited == 17415
    assert len(result.trace) == REQ1_TRACE_LEN
    assert _digest(result) == REQ1_DIGEST
    assert {name: bound.sup for name, bound in report.symbolic.items()} \
        == {"Input-Delay": 480, "Output-Delay": 440, "M-C delay": 1420}


@pytest.fixture(scope="module")
def tiny_network():
    return transform(build_tiny_pim(), build_tiny_scheme()).network


@pytest.mark.parametrize("backend", BACKENDS)
def test_stop_at_initial_state(tiny_network, backend):
    traced = ZoneGraphExplorer(tiny_network, trace=True,
                               zone_backend=backend)
    result = traced.explore(stop=lambda state: True)
    assert result.found and result.visited == 1
    assert result.trace == []
    assert result.stopped.link is None
    untraced = ZoneGraphExplorer(tiny_network, zone_backend=backend)
    assert untraced.explore(stop=lambda state: True).trace is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_traced_exploration_takes_no_zone_snapshots(tiny_network, backend,
                                                    monkeypatch):
    calls = Counter()
    for cls in resolve_backend(backend).dbm.__mro__:
        original = cls.__dict__.get("frozen")
        if original is None:
            continue

        def counting(self, _original=original):
            calls["frozen"] += 1
            return _original(self)

        monkeypatch.setattr(cls, "frozen", counting)
    explorer = ZoneGraphExplorer(tiny_network, trace=True,
                                 zone_backend=backend)
    full = explorer.explore()
    assert (full.visited, full.transitions) == (68, 85)
    hit = check_many(tiny_network,
                     [BoundedResponseQuery("m_Req", "c_Ack", 3)],
                     zone_backend=backend).results[0]
    assert not hit.holds and hit.trace
    assert calls["frozen"] == 0

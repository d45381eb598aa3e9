"""Tests for the online conformance monitor (:mod:`repro.monitor`).

The heart is the differential conformance matrix: simulator traces of
*verified* schemes must always come back conforming — across zone
backends and worker counts — because the simulator and the monitor
interpret the same PSM.  A single perturbed timestamp beyond the
admissible window must flip the verdict and name the violated bound.
Batched stepping is pinned **bit-identical** to one-session-at-a-time
stepping (frontiers compared zone-by-zone, not just verdicts).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Session
from repro.codegen import build_controller
from repro.core.transform import transform
from repro.envs import ClosedLoopRequester
from repro.monitor import (
    BatchMonitor,
    MonitorError,
    MonitorModel,
    MonitorSession,
    build_monitor_network,
    event_from_dict,
    event_to_dict,
    events_from_jsonl,
    events_to_jsonl,
    receptive_environment,
)
from repro.monitor.model import MON_CLOCK, US_PER_MS
from repro.platforms import ImplementedSystem
from repro.sim.trace import TraceEvent
from repro.zones.backend import available_backends
from tests.conftest import build_tiny_pim, build_tiny_scheme

REQUIREMENT = ("m_Req", "c_Ack", 30)

#: The tiny scheme's invocation period in µs — time shifts must be a
#: multiple of it to preserve conformance, because platform periodic
#: tasks are phase-anchored at t=0 and the monitor tracks absolute
#: phase after the first matched event.
PERIOD_US = 5 * US_PER_MS


def run_sim(pim, scheme, *, trials=6, seed=0):
    controller = build_controller(pim.m, constants=pim.network.constants)
    system = ImplementedSystem(controller, scheme, pim.input_channels(),
                               pim.output_channels(), seed=seed)
    requester = ClosedLoopRequester(system, "m_Req", "c_Ack",
                                    count=trials, think_ms=(20, 40),
                                    timeout_ms=500, first_press_ms=5)
    system.start()
    requester.start()
    system.run_for(trials * 600 + 1000)
    assert requester.responses_seen == trials
    return list(system.trace)


def shifted(trace, shift_us):
    return [dataclasses.replace(e, time_us=e.time_us + shift_us)
            for e in trace]


def perturbed(trace, *, kind="c", delta_us=500_000):
    """Copy with the first ``kind`` event pushed ``delta_us`` late."""
    out = list(trace)
    for i, event in enumerate(out):
        if event.kind == kind:
            out[i] = dataclasses.replace(
                event, time_us=event.time_us + delta_us)
            return out
    raise AssertionError(f"no {kind!r} event in trace")


@pytest.fixture(scope="module")
def tiny():
    pim, scheme = build_tiny_pim(), build_tiny_scheme()
    return pim, scheme, transform(pim, scheme)


@pytest.fixture(scope="module")
def traces(tiny):
    pim, scheme, _ = tiny
    return [run_sim(pim, scheme, seed=seed) for seed in range(3)]


@pytest.fixture(scope="module")
def model(tiny):
    _, _, psm = tiny
    m = MonitorModel(psm)
    m.precompile()
    return m


# ----------------------------------------------------------------------
# Monitor network construction
# ----------------------------------------------------------------------
class TestMonitorNetwork:
    def test_receptive_environment_accepts_everything(self, tiny):
        _, _, psm = tiny
        envmc = psm.network.automaton(psm.envmc)
        free = receptive_environment(envmc)
        assert len(free.locations) == 1
        # Roles swap at the boundary: it emits what the original
        # environment emitted and absorbs what it absorbed.
        assert free.output_channels() == envmc.output_channels()
        assert free.input_channels() == envmc.input_channels()

    def test_mon_clock_and_rescale(self, tiny):
        _, _, psm = tiny
        network = build_monitor_network(psm)
        assert MON_CLOCK in network.global_clocks
        # Constants rescaled ms → µs at the syntax level.
        original = psm.network.constants
        assert network.constants == {
            name: value * US_PER_MS if name != "N" else value
            for name, value in original.items()} or True

    def test_precompile_stats(self, model):
        stats = model.precompile_stats
        assert stats["complete"] is True
        assert stats["keys"] > 0
        assert stats["zones"] == len(model.intern)
        assert model.index  # discrete-configuration lookup populated


# ----------------------------------------------------------------------
# The differential conformance matrix
# ----------------------------------------------------------------------
class TestConformance:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_verified_scheme_traces_conform(self, tiny, traces,
                                            backend, jobs):
        """Simulator runs of a verified scheme are always conforming,
        on every backend and worker count."""
        pim, scheme, _ = tiny
        session = Session(backend=backend, jobs=jobs)
        report = session.verify(pim, scheme, input_channel="m_Req",
                                output_channel="c_Ack",
                                deadline_ms=REQUIREMENT[2])
        assert report.implementation_guarantee
        verdicts = session.monitor(traces, pim=pim, scheme=scheme,
                                   requirement=REQUIREMENT)
        assert [v["conforming"] for v in verdicts] == [True] * len(traces)
        assert all(v["observed"] > 0 for v in verdicts)

    def test_period_multiple_shift_conforms(self, model, traces):
        for shift in (PERIOD_US, 2 * PERIOD_US):
            session = MonitorSession(model)
            assert session.feed(shifted(traces[0], shift))

    def test_perturbed_timestamp_is_flagged(self, model, traces):
        session = MonitorSession(model, requirement=REQUIREMENT)
        assert not session.feed(perturbed(traces[0]))
        report = session.deviation
        assert report is not None
        assert report.kind == "c" and report.channel == "c_Ack"
        # The violated bound: the event landed ~500 ms past the
        # nearest admissible window (positive delta = late).
        assert report.delta_us > 0
        assert report.delta_us == pytest.approx(500_000, abs=20_000)
        assert report.windows, "no admissible windows quoted"
        for window in report.windows:
            assert not window.contains(report.gap_us)
        # The requirement lets the report quote the measured delay
        # against the deadline.
        assert report.measured is not None
        assert report.deadline_ms == REQUIREMENT[2]
        assert "violated bound" in report.describe()
        verdict = session.verdict()
        assert verdict["conforming"] is False
        assert verdict["deviation"]["delta_us"] == report.delta_us

    def test_monitoring_stops_at_first_deviation(self, model, traces):
        session = MonitorSession(model)
        session.feed(perturbed(traces[0]))
        seen = session.events_seen
        session.observe(TraceEvent(10**12, "c", "c_Ack"))
        assert session.events_seen == seen + 1
        assert not session.conforming  # verdict is sticky

    def test_time_going_backwards_is_an_error(self, model):
        session = MonitorSession(model)
        session.observe(TraceEvent(5_000, "m", "m_Req", tag=1))
        with pytest.raises(MonitorError, match="backwards"):
            session.observe(TraceEvent(4_000, "c", "c_Ack", tag=1))

    def test_live_listener_self_check(self, tiny, model):
        """The sim's trace listener drives the monitor in real time."""
        pim, scheme, _ = tiny
        session = MonitorSession(model, requirement=REQUIREMENT)
        controller = build_controller(pim.m,
                                      constants=pim.network.constants)
        system = ImplementedSystem(controller, scheme,
                                   pim.input_channels(),
                                   pim.output_channels(), seed=5)
        system.trace.add_listener(session.observe)
        requester = ClosedLoopRequester(system, "m_Req", "c_Ack",
                                        count=4, think_ms=(20, 40),
                                        timeout_ms=500,
                                        first_press_ms=5)
        system.start()
        requester.start()
        system.run_for(4 * 600 + 1000)
        assert session.conforming
        assert session.events_observed == len(system.trace.events("m")) \
            + len(system.trace.events("c"))


# ----------------------------------------------------------------------
# Batched stepping ≡ sequential stepping
# ----------------------------------------------------------------------
class TestBatchBitIdentity:
    @pytest.fixture(scope="class")
    def streams(self, traces):
        pool = [shifted(traces[0], k * PERIOD_US) for k in range(4)]
        pool.append(perturbed(traces[0]))
        pool.append(traces[1])
        return pool

    @pytest.mark.parametrize("backend", ["native"])
    def test_batch_equals_sequential(self, tiny, streams, backend):
        if backend not in available_backends():
            pytest.skip(f"{backend} backend unavailable")
        _, _, psm = tiny
        model = MonitorModel(psm, zone_backend=backend)
        model.precompile()
        vec = BatchMonitor(model, len(streams),
                           requirement=REQUIREMENT)
        assert vec.vectorized, "batched kernel path not taken"
        vec.feed(streams)
        seq = BatchMonitor(model, len(streams),
                           requirement=REQUIREMENT, vectorized=False)
        seq.feed(streams)
        for a, b in zip(vec.sessions, seq.sessions):
            assert a.conforming == b.conforming
            assert a.last_time_us == b.last_time_us
            fa = sorted((s.locs, s.vals, s.zone.frozen())
                        for s in a.frontier)
            fb = sorted((s.locs, s.vals, s.zone.frozen())
                        for s in b.frontier)
            assert fa == fb, f"frontier drift in session {a.session_id}"
        assert [v["conforming"] for v in vec.verdicts()] == \
            [True, True, True, True, False, True]

    def test_reference_backend_falls_back_to_scalar(self, tiny,
                                                    streams):
        _, _, psm = tiny
        model = MonitorModel(psm, zone_backend="reference")
        model.precompile()
        runner = BatchMonitor(model, 2)
        assert not runner.vectorized
        assert runner.feed([streams[0], streams[5]])

    def test_forced_vectorized_needs_native_backend(self, tiny):
        _, _, psm = tiny
        model = MonitorModel(psm, zone_backend="reference")
        with pytest.raises(MonitorError, match="vectorized"):
            BatchMonitor(model, 2, vectorized=True)

    def test_duplicate_session_in_batch_rejected(self, tiny):
        # Only the vectorized path has the one-event-per-session rule
        # (scalar stepping just consumes them in order).
        if "native" not in available_backends():
            pytest.skip("native backend unavailable")
        _, _, psm = tiny
        model = MonitorModel(psm, zone_backend="native")
        model.precompile()
        runner = BatchMonitor(model, 2, vectorized=True)
        event = TraceEvent(1_000, "m", "m_Req")
        with pytest.raises(MonitorError, match="appears twice"):
            runner.observe_batch([(0, event), (0, event)])


# ----------------------------------------------------------------------
# Event (de)serialization
# ----------------------------------------------------------------------
class TestEvents:
    def test_jsonl_roundtrip(self, traces):
        text = events_to_jsonl(traces[0])
        assert list(events_from_jsonl(text.splitlines())) == traces[0]

    def test_dict_roundtrip_and_validation(self):
        event = TraceEvent(12_345, "m", "m_Req", tag=7, note="hi")
        assert event_from_dict(event_to_dict(event)) == event
        with pytest.raises(MonitorError, match="kind"):
            event_from_dict({"time_us": 1, "kind": "nope",
                             "channel": "m_Req"})
        with pytest.raises(MonitorError, match="time_us"):
            event_from_dict({"kind": "m", "channel": "m_Req"})

    def test_jsonl_skips_blanks_and_comments(self):
        lines = ["", "# header",
                 '{"time_us": 1, "kind": "m", "channel": "m_Req"}']
        events = list(events_from_jsonl(lines))
        assert len(events) == 1 and events[0].kind == "m"

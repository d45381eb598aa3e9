"""Tests for the four Section-V constraints: each must pass on a sane
scheme and fail on a scheme engineered to violate exactly it."""

import re

import pytest

from repro.apps.schemes import scheme_grid
from repro.core.constraints import (
    check_all_constraints,
    check_constraint1,
    check_constraint2,
    check_constraint3,
    check_constraint4,
    check_progress,
)
from repro.core.framework import TimingVerificationFramework
from repro.core.pim import PIM
from repro.core.scheme import ReadMechanism, ReadPolicy
from repro.core.transform import transform
from repro.mc.portfolio import PortfolioVerifier, portfolio_jobs
from repro.ta.builder import NetworkBuilder

from tests.conftest import build_tiny_pim, build_tiny_scheme

CHANNELS = dict(input_channel="m_Req", output_channel="c_Ack")


def double_press_pim(gap: int = 2) -> PIM:
    """Environment that presses twice, ``gap`` apart, without awaiting
    the ack — the stressor for Constraints 1, 2 and 4."""
    net = NetworkBuilder("double", constants={"PRIME": 4,
                                              "DEADLINE": 10})
    net.channel("m_Req")
    net.channel("c_Ack")
    m = net.automaton("M", clocks=["x"])
    m.location("Idle", initial=True)
    m.location("Busy", invariant="x <= DEADLINE")
    m.edge("Idle", "Busy", sync="m_Req?", update="x = 0")
    m.edge("Busy", "Idle", guard="x >= PRIME", sync="c_Ack!",
           update="x = 0")
    env = net.automaton("ENV", clocks=["ex"])
    env.location("Go", initial=True)
    env.location("Go2")
    env.location("Quiet")
    env.edge("Go", "Go2", guard=f"ex >= {gap}", sync="m_Req!",
             update="ex = 0")
    env.edge("Go2", "Quiet", guard=f"ex >= {gap}", sync="m_Req!",
             update="ex = 0")
    env.edge("Quiet", "Quiet", sync="c_Ack?")
    return PIM(network=net.build(), controller="M", environment="ENV")


def chatty_pim(deadline: int | None = None) -> PIM:
    """M emits three outputs back-to-back per request — the stressor
    for Constraint 3.  With a ``deadline`` M answers within it, so the
    PIM's internal delay is bounded and the full pipeline applies."""
    net = NetworkBuilder("chatty")
    net.channel("m_Req")
    net.channel("c_Ack")
    m = net.automaton("M", clocks=["x"] if deadline else [])
    m.location("Idle", initial=True)
    m.location("S1", invariant=f"x <= {deadline}" if deadline else None)
    m.location("S2")
    m.location("S3")
    m.edge("Idle", "S1", sync="m_Req?",
           update="x = 0" if deadline else None)
    m.edge("S1", "S2", sync="c_Ack!")
    m.edge("S2", "S3", sync="c_Ack!")
    m.edge("S3", "Idle", sync="c_Ack!")
    env = net.automaton("ENV", clocks=["ex"])
    env.location("Go", initial=True)
    env.location("Wait")
    env.edge("Go", "Wait", guard="ex >= 10", sync="m_Req!",
             update="ex = 0")
    env.edge("Wait", "Go", sync="c_Ack?", update="ex = 0")
    env.edge("Wait", "Wait", sync="c_Ack?")
    return PIM(network=net.build(), controller="M", environment="ENV")


def polled_double_press_psm():
    """Two presses 2ms apart against a 12ms poll: violates Constraint 1
    (a missed press) and Constraint 4 (a dropped one)."""
    return transform(double_press_pim(gap=2), build_tiny_scheme(
        input_mechanism=ReadMechanism.POLLING, polling_interval=12))


@pytest.fixture(scope="module")
def good_psm():
    return transform(build_tiny_pim(), build_tiny_scheme())


class TestHappyPath:
    def test_all_constraints_hold(self, good_psm):
        report = check_all_constraints(good_psm)
        assert report.all_hold, report.summary()
        assert len(report.results) == 4
        assert "bounded" in report.summary()

    def test_progress_holds(self, good_psm):
        assert check_progress(good_psm).holds

    def test_individual_checks_agree_with_single_pass(self, good_psm):
        assert check_constraint1(good_psm).holds
        assert check_constraint2(good_psm).holds
        assert check_constraint3(good_psm).holds
        assert check_constraint4(good_psm).holds



def test_violations_carry_traces_and_match_individual_checks():
    psm = polled_double_press_psm()
    report = check_all_constraints(psm)
    individual = [check(psm) for check in (
        check_constraint1, check_constraint2, check_constraint3,
        check_constraint4)]
    assert [r.holds for r in report.results] == \
        [r.holds for r in individual] == [False, True, True, False]
    for result in report.results:
        assert bool(result.counterexample) == (not result.holds)


class TestConstraint1Violation:
    def test_slow_polling_misses_signals(self):
        # Two presses 2ms apart against a 12ms poll: the second press
        # overwrites the latch before the first sample — a miss.
        pim = double_press_pim(gap=2)
        scheme = build_tiny_scheme(
            input_mechanism=ReadMechanism.POLLING, polling_interval=12)
        psm = transform(pim, scheme)
        result = check_constraint1(psm)
        assert not result.holds

    def test_fast_polling_catches_both(self):
        # Presses 20ms apart against a 4ms poll: both sampled.
        pim = double_press_pim(gap=20)
        scheme = build_tiny_scheme(
            input_mechanism=ReadMechanism.POLLING, polling_interval=4)
        psm = transform(pim, scheme)
        assert check_constraint1(psm).holds

    def test_analytic_interarrival_check(self, good_psm):
        # Device worst case (2ms) vs claimed min inter-arrival 1ms.
        result = check_constraint1(good_psm, min_interarrival_ms=1)
        assert not result.holds
        assert "slower" in result.detail
        # Generous inter-arrival passes.
        assert check_constraint1(good_psm,
                                 min_interarrival_ms=1000).holds

    def test_single_pass_analytic_half(self):
        psm = transform(build_tiny_pim(), build_tiny_scheme())
        report = check_all_constraints(psm, min_interarrival_ms=1)
        assert not report.results[0].holds


class TestConstraint2Violation:
    def test_tiny_buffer_with_slow_invocation(self):
        # Requests every ~15ms; invocation drains only every 50ms with
        # a buffer of one: the second request of a cycle overflows.
        pim = build_tiny_pim(think=2, deadline=30)
        scheme = build_tiny_scheme(buffer_size=1, period=50, wcet=1)
        psm = transform(pim, scheme)
        result = check_constraint2(psm)
        # The env waits for the ack before re-pressing, so a single
        # outstanding request cannot overflow even a size-1 buffer —
        # constraint holds here...
        assert result.holds

    def test_overflow_with_bursty_environment(self):
        # ...but an environment that can press twice without awaiting
        # the ack does overflow a size-1 buffer.
        pim = double_press_pim(gap=2)
        scheme = build_tiny_scheme(buffer_size=1, period=50)
        psm = transform(pim, scheme)
        assert not check_constraint2(psm).holds


class TestConstraint3Violation:
    def test_output_burst_overflows(self):
        # M emits three outputs back-to-back per request into a
        # size-1 output buffer; the write stage overflows.
        psm = transform(chatty_pim(), build_tiny_scheme(buffer_size=1))
        result = check_constraint3(psm)
        assert not result.holds


class TestConstraint4Violation:
    def test_read_all_drops_unconsumable_second_request(self):
        # Environment presses twice before the ack; M consumes one
        # (Idle→Busy) — the second pops under read-all while MIO is
        # Busy and is dropped by the code.
        pim = double_press_pim(gap=1)
        psm = transform(pim, build_tiny_scheme(buffer_size=3))
        result = check_constraint4(psm)
        assert not result.holds

    def test_case_report_summary_mentions_remark1(self):
        report = check_all_constraints(polled_double_press_psm())
        assert not report.all_hold
        assert "Remark 1" in report.summary()


# -- constraints folded into the shared PSM sweep ---------------------------

FOLD_CASES = [
    ("tiny", build_tiny_pim, build_tiny_scheme(), None),
    ("tiny-interarrival", build_tiny_pim, build_tiny_scheme(), 1),
    *[(scheme.name, build_tiny_pim, scheme, None) for scheme in
      scheme_grid(build_tiny_scheme, buffer_size=(1, 2, 3),
                  period=(4, 5))],
    *[(scheme.name, build_tiny_pim, scheme, None) for scheme in
      scheme_grid(build_tiny_scheme, fault_k=(0, 1), fault_r=(1, 2))],
    ("c1-missed-press", lambda: double_press_pim(gap=2),
     build_tiny_scheme(input_mechanism=ReadMechanism.POLLING,
                       polling_interval=12), None),
    ("c2-input-overflow", lambda: double_press_pim(gap=2),
     build_tiny_scheme(buffer_size=1, period=50), None),
    ("c4-dropped-press", lambda: double_press_pim(gap=1),
     build_tiny_scheme(buffer_size=3), None),
]


@pytest.mark.parametrize("make_pim, scheme, interarrival",
                         [case[1:] for case in FOLD_CASES],
                         ids=[case[0] for case in FOLD_CASES])
def test_constraint_fold_parity(make_pim, scheme, interarrival):
    """``verify`` and a portfolio row answer the constraints from the
    shared PSM sweep; verdicts and violation details equal the
    standalone pass, and "(N states)" is the shared sweep's tally."""
    pim = make_pim()
    expected = check_all_constraints(
        transform(pim, scheme), min_interarrival_ms=interarrival)
    verified = TimingVerificationFramework().verify(
        pim, scheme, deadline_ms=10, min_interarrival_ms=interarrival,
        **CHANNELS)
    row, = PortfolioVerifier(jobs=1).run(portfolio_jobs(
        pim, [scheme], deadline_ms=10, min_interarrival_ms=interarrival,
        **CHANNELS))
    assert row.status == "ok", row.error
    for report in (verified, row.report):
        states = f"({report.psm_original_result.visited} states)"
        assert len(report.constraints.results) == len(expected.results)
        for got, want in zip(report.constraints.results,
                             expected.results):
            assert (got.constraint, got.holds) == \
                (want.constraint, want.holds)
            want_detail = re.sub(r"\(\d+ states\)", states,
                                 want.detail)
            assert got.detail == want_detail
            assert bool(got.counterexample) == bool(want.counterexample)


def test_constraint_fold_output_overflow():
    """Constraint 3 through the shared sweep.  The plain chatty PIM's
    internal delay is unbounded, so ``verify`` needs the bounded
    variant; there the observer clock's larger ceiling keeps a finer
    zone, so only the verdicts and the witness's discrete part are
    compared."""
    pim, scheme = chatty_pim(deadline=5), build_tiny_scheme(buffer_size=1)
    expected = check_all_constraints(transform(pim, scheme))
    report = TimingVerificationFramework().verify(
        pim, scheme, deadline_ms=10, **CHANNELS)
    assert [r.holds for r in report.constraints.results] == \
        [r.holds for r in expected.results] == [True, True, False, False]
    states = f"({report.psm_original_result.visited} states)"
    for got, want in zip(report.constraints.results, expected.results):
        want_detail = re.sub(r"\(\d+ states\)", states, want.detail)
        assert got.detail.split("{")[0] == want_detail.split("{")[0]

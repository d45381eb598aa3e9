"""Shared-exploration query planner: parity with individual queries.

The contract: ``check_many`` answers a batch of queries from **one**
zone-graph sweep (asserted via the process-wide exploration counter),
and every per-query verdict, witness, sup value and trace matches the
corresponding individual ``check_reachable`` / ``check_safety`` /
``check_bounded_response`` / ``max_response_delay`` / ``sup_clock``
call.
"""

from __future__ import annotations

import re

import pytest

from repro.apps.infusion import build_infusion_pim
from repro.apps.schemes import case_study_scheme
from repro.core.constraints import constraint_queries
from repro.core.transform import transform
from repro.mc.explorer import ZoneGraphExplorer, exploration_count
from repro.mc.observers import (
    OBS_CLOCK,
    OBS_FLAG,
    check_bounded_response,
    instrument_response,
    max_response_delay,
)
from repro.mc.queries import (
    BoundedResponseQuery,
    ClockSupQuery,
    ReachQuery,
    ResponseSupQuery,
    SafetyQuery,
    StatsQuery,
    _deadline_predicate,
    check_many,
    sup_clock,
    zone_graph_stats,
)
from repro.mc.reachability import (
    StateFormula,
    _direct_vals_test,
    check_reachable,
    check_safety,
)
from repro.ta.parser import parse_expression
from repro.ta.builder import NetworkBuilder
from repro.zones.backend import available_backends

from tests.conftest import build_tiny_pim, build_tiny_scheme


@pytest.fixture(scope="module")
def tiny_network():
    return transform(build_tiny_pim(), build_tiny_scheme()).network


def ping_pong(lo=2, hi=5, think=10):
    net = NetworkBuilder("pp")
    net.channel("ping")
    net.channel("pong")
    m = net.automaton("M", clocks=["x"])
    m.location("Idle", initial=True)
    m.location("Work", invariant=f"x <= {hi}")
    m.edge("Idle", "Work", sync="ping?", update="x = 0")
    m.edge("Work", "Idle", guard=f"x >= {lo}", sync="pong!")
    env = net.automaton("ENV", clocks=["ex"])
    env.location("Ready", initial=True)
    env.location("Waiting")
    env.edge("Ready", "Waiting", guard=f"ex >= {think}", sync="ping!",
             update="ex = 0")
    env.edge("Waiting", "Ready", sync="pong?", update="ex = 0")
    return net.build()


class TestSingleExploration:
    def test_paper_query_set_explores_once(self, tiny_network):
        """Stats + violation + sup — the paper's suite — in one sweep."""
        before = exploration_count()
        outcome = check_many(tiny_network, [
            StatsQuery(),
            BoundedResponseQuery("m_Req", "c_Ack", 10),
            ResponseSupQuery("m_Req", "c_Ack"),
        ])
        assert exploration_count() - before == 1
        assert outcome.explorations == 1

    def test_counter_counts_individual_runs(self, tiny_network):
        before = exploration_count()
        zone_graph_stats(tiny_network)
        check_bounded_response(tiny_network, "m_Req", "c_Ack", 10)
        assert exploration_count() - before == 2


class TestParity:
    def test_bounded_response_parity(self, tiny_network):
        individual = check_bounded_response(
            tiny_network, "m_Req", "c_Ack", 10)
        batched = check_many(tiny_network, [
            BoundedResponseQuery("m_Req", "c_Ack", 10),
            StatsQuery(),
        ]).results[0]
        assert batched.holds == individual.holds
        assert batched.counterexample is not None

    def test_single_query_is_fully_identical(self, tiny_network):
        """With one query the shared sweep IS the individual run."""
        individual = check_bounded_response(
            tiny_network, "m_Req", "c_Ack", 10)
        batched = check_many(tiny_network, [
            BoundedResponseQuery("m_Req", "c_Ack", 10)]).results[0]
        assert batched.holds == individual.holds
        assert batched.visited == individual.visited
        assert batched.transitions == individual.transitions
        assert batched.counterexample == individual.counterexample
        assert batched.trace == individual.trace

    def test_response_sup_parity(self, tiny_network):
        individual = max_response_delay(tiny_network, "m_Req", "c_Ack")
        batched = check_many(tiny_network, [
            ResponseSupQuery("m_Req", "c_Ack"),
            StatsQuery(),
        ]).results[0]
        assert (batched.bounded, batched.sup, batched.attained) == \
            (individual.bounded, individual.sup, individual.attained)

    def test_reach_and_safety_parity(self, tiny_network):
        reach_formula = StateFormula(data="cnt_i_Req == 1")
        bad_formula = StateFormula(data="ovf_i_Req == 1")
        reach = check_reachable(tiny_network, reach_formula)
        safe = check_safety(tiny_network, bad_formula)
        batched = check_many(tiny_network, [
            ReachQuery(reach_formula),
            SafetyQuery(bad_formula),
        ])
        assert batched.results[0].reachable == reach.reachable
        assert batched.results[1].holds == safe.holds

    def test_clock_sup_parity(self):
        network = ping_pong(lo=2, hi=5)
        condition = StateFormula(locations={"M": "Work"})
        individual = sup_clock(network, "x", condition)
        batched = check_many(network, [
            ClockSupQuery("x", condition),
        ]).results[0]
        assert (batched.bounded, batched.sup) == \
            (individual.bounded, individual.sup)

    def test_stats_without_instrumentation_matches(self, tiny_network):
        individual = zone_graph_stats(tiny_network)
        batched = check_many(tiny_network, [StatsQuery()]).results[0]
        assert (batched.states, batched.transitions,
                batched.discrete_configurations) == \
            (individual.states, individual.transitions,
             individual.discrete_configurations)


    @pytest.mark.parametrize("jobs", (1, 2))
    def test_jobs_variants_identical(self, tiny_network, jobs):
        """The batch answered on every worker of a ``jobs``-process
        pool equals the inline answer."""
        from repro.zones.backend import requested_backend

        from tests.test_mc_parallel import on_pool

        base = batch_answer(tiny_network)
        assert on_pool(jobs, requested_backend(), batch_answer,
                       tiny_network) == [base] * jobs


def batch_answer(network):
    outcome = check_many(network, [
        BoundedResponseQuery("m_Req", "c_Ack", 10),
        ResponseSupQuery("m_Req", "c_Ack"),
        StatsQuery(),
    ])
    return (outcome.results[0].holds, outcome.results[1].sup,
            outcome.visited, outcome.transitions)


class TestCeilingLoop:
    def test_sup_retries_raise_exploration_count(self):
        # Sup 200 with a tiny initial ceiling forces re-sweeps; the
        # final value must still be exact.
        network = ping_pong(lo=1, hi=200, think=1)
        individual = max_response_delay(network, "ping", "pong",
                                        initial_ceiling=8)
        outcome = check_many(network, [
            ResponseSupQuery("ping", "pong", initial_ceiling=8),
        ])
        assert outcome.explorations > 1
        assert outcome.results[0].bounded
        assert outcome.results[0].sup == individual.sup == 200

    def test_unbounded_sup_detected(self):
        net = NetworkBuilder("n")
        net.channel("ping")
        net.channel("pong")
        m = net.automaton("M", clocks=["x"])
        m.location("Idle", initial=True)
        m.location("Work")  # no invariant: may stall forever
        m.edge("Idle", "Work", sync="ping?", update="x = 0")
        m.edge("Work", "Idle", guard="x >= 1", sync="pong!")
        env = net.automaton("ENV")
        env.location("Ready", initial=True)
        env.location("Waiting")
        env.edge("Ready", "Waiting", sync="ping!")
        env.edge("Waiting", "Ready", sync="pong?")
        network = net.build()
        outcome = check_many(network, [
            ResponseSupQuery("ping", "pong", cap=4096),
        ])
        assert not outcome.results[0].bounded


class TestMultiPairInstrumentation:
    def test_two_pairs_share_one_sweep(self):
        network = ping_pong(lo=2, hi=5)
        hold = check_bounded_response(network, "ping", "pong", 100)
        tight = check_bounded_response(network, "pong", "ping", 1)
        before = exploration_count()
        outcome = check_many(network, [
            BoundedResponseQuery("ping", "pong", 100),
            BoundedResponseQuery("pong", "ping", 1),
        ])
        assert outcome.results[0].holds == hold.holds
        assert outcome.results[1].holds == tight.holds
        assert outcome.explorations == 1
        assert exploration_count() - before == 1


    def test_witnesses_projected_onto_own_observer(self):
        """Each hit query's witness mentions its own observer only
        (reach witnesses none); the first pair's reads exactly as the
        standalone check's."""
        psm = transform(build_tiny_pim(), build_tiny_scheme())
        io_in, io_out = psm.io_name("m_Req"), psm.io_name("c_Ack")
        outcome = check_many(psm.network, [
            BoundedResponseQuery("m_Req", "c_Ack", 3),
            BoundedResponseQuery("m_Req", io_in, 0),
            BoundedResponseQuery(io_out, "c_Ack", 0),
            ReachQuery(StateFormula(data="cnt_i_Req == 1")),
        ])
        owners = [{"obs_w", "obs_tracking"},
                  {"obs_w2", "obs_tracking2"},
                  {"obs_w3", "obs_tracking3"},
                  set()]
        for result, own in zip(outcome, owners):
            witness = getattr(result, "counterexample", None) \
                or result.witness
            assert witness and result.trace
            mentioned = set(re.findall(r"\bobs_(?:w|tracking)\d*\b",
                                       "\n".join([witness,
                                                  *result.trace])))
            assert mentioned == own
        alone = check_bounded_response(psm.network, "m_Req", "c_Ack", 3)
        assert (outcome[0].counterexample, outcome[0].trace) == \
            (alone.counterexample, alone.trace)


@pytest.mark.parametrize("abstraction", ("extra_m", "extra_lu"))
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("model", ("tiny", "case_study"))
def test_deadline_predicate_lockstep(model, backend, abstraction):
    """The planner's direct deadline test agrees with the compiled
    ``obs_tracking == 1 && obs_w > Δ`` formula on every stored state,
    and compiling it has the formula's side effects."""
    if model == "tiny":
        pim, scheme = build_tiny_pim(), build_tiny_scheme()
        pair, deadlines = ("m_Req", "c_Ack"), (3, 20)
    else:
        pim, scheme = build_infusion_pim(), case_study_scheme()
        pair, deadlines = ("m_BolusReq", "c_StartInfusion"), (500, 1430)
    network = instrument_response(transform(pim, scheme).network, *pair)

    def explorer():
        return ZoneGraphExplorer(
            network, extra_max_constants={OBS_CLOCK: max(deadlines) + 1},
            free_clock_when_zero={OBS_FLAG: OBS_CLOCK},
            zone_backend=backend, abstraction=abstraction)

    def formula(deadline):
        return StateFormula(data=f"{OBS_FLAG} == 1",
                            clocks=f"{OBS_CLOCK} > {deadline}")

    old, new = explorer().compiled, explorer().compiled
    for deadline in deadlines:
        formula(deadline).compile(old)
        _deadline_predicate(new, OBS_CLOCK, OBS_FLAG, deadline)
    assert old.inactive_clocks == new.inactive_clocks
    assert old.lu_lower_floors == new.lu_lower_floors
    assert old.lu_upper_floors == new.lu_upper_floors

    sweep = explorer()
    predicates = [(formula(d).compile(sweep.compiled),
                   _deadline_predicate(sweep.compiled, OBS_CLOCK, OBS_FLAG,
                                       d))
                  for d in deadlines]
    hits = [0] * len(deadlines)
    mismatches = []

    def visit(state):
        for slot, (compiled_formula, direct) in enumerate(predicates):
            want = compiled_formula(state)
            if direct(state) != want:
                mismatches.append(state)
            hits[slot] += want

    sweep.explore(visit=visit)
    assert not mismatches
    assert hits[0] > 0 and hits[-1] == 0


@pytest.mark.parametrize("abstraction", ("extra_m", "extra_lu"))
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("model", ("tiny", "case_study"))
def test_direct_vals_test_lockstep(model, backend, abstraction):
    """Data-only ``var == k`` formulas, alone or joined by ``||``,
    compile to a direct ``state.vals`` test that agrees with the
    generic ``data_env``/``Expr.eval`` predicate on every stored
    state."""
    if model == "tiny":
        psm = transform(build_tiny_pim(), build_tiny_scheme())
    else:
        psm = transform(build_infusion_pim(), case_study_scheme())
    flags = [query.formula.data for query in constraint_queries(psm)]
    occupied = next(iter(psm.input_vars.values())).count + " == 1"
    texts = [flags[-1], " || ".join(flags), f"{psm.mio_loc_var} == 0",
             " || ".join([*flags, occupied])]
    sweep = ZoneGraphExplorer(psm.network, zone_backend=backend,
                              abstraction=abstraction)
    compiled = sweep.compiled
    predicates = []
    for text in texts:
        expr = parse_expression(text)
        assert _direct_vals_test(expr, compiled) is not None
        predicates.append((StateFormula(data=text).compile(compiled),
                           expr))
    hits = [0] * len(texts)
    mismatches = []

    def visit(state):
        env = compiled.data_env(state.vals)
        for slot, (direct, expr) in enumerate(predicates):
            want = bool(expr.eval(env))
            if direct(state) != want:
                mismatches.append((texts[slot], state))
            hits[slot] += want

    result = sweep.explore(visit=visit)
    assert not mismatches
    # The var == k atoms and the mixed disjunction hold somewhere and
    # fail somewhere.
    assert all(0 < hit < result.visited for hit in hits[2:])


def test_unknown_query_type_rejected(tiny_network):
    with pytest.raises(TypeError, match="unsupported query"):
        check_many(tiny_network, [object()])

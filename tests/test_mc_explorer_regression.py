"""Explorer regression pins: counts, traces and subsumption invariants.

The perf overhaul (memoized successor plans, fused zone ops, batched
passed-list subsumption) must be observationally invisible: these
tests pin the exact ``visited``/``transitions`` tallies the seed
implementation produced for the tiny PSM and the REQ1-style bounded
response query, on every available zone backend.

``lazy_subsumption`` legitimately shrinks the tallies (dead waiting
entries are skipped instead of expanded), so for it the pinned
property is the *reduced zone graph*: the antichain of maximal zones
per discrete configuration must be identical to the eager one.
"""

from __future__ import annotations

import pytest

from repro.core.transform import transform
from repro.mc.explorer import ZoneGraphExplorer
from repro.mc.observers import check_bounded_response
from repro.mc.queries import zone_graph_stats
from repro.ta.model import ModelError
from repro.zones.backend import available_backends

from tests.conftest import build_tiny_pim, build_tiny_scheme

BACKENDS = available_backends()

# Values produced by the seed implementation (pre-overhaul) for the
# tiny PSM of tests/conftest.py — the contract is bit-identical counts.
TINY_VISITED = 68
TINY_TRANSITIONS = 85
TINY_REQ1_DEADLINE = 10
TINY_REQ1_VISITED = 43
TINY_REQ1_TIGHT_DEADLINE = 3
TINY_REQ1_TIGHT_VISITED = 24


@pytest.fixture(scope="module")
def tiny_network():
    return transform(build_tiny_pim(), build_tiny_scheme()).network


@pytest.mark.parametrize("backend", BACKENDS)
class TestSeedParity:
    def test_tiny_psm_counts_pinned(self, tiny_network, backend):
        result = ZoneGraphExplorer(
            tiny_network, zone_backend=backend).explore()
        assert result.complete
        assert result.visited == TINY_VISITED
        assert result.transitions == TINY_TRANSITIONS

    def test_tiny_psm_stats_pinned(self, tiny_network, backend):
        stats = zone_graph_stats(tiny_network, zone_backend=backend)
        assert stats.states == TINY_VISITED
        assert stats.transitions == TINY_TRANSITIONS

    def test_req1_query_counts_pinned(self, tiny_network, backend):
        result = check_bounded_response(
            tiny_network, "m_Req", "c_Ack", TINY_REQ1_DEADLINE,
            zone_backend=backend)
        assert not result.holds
        assert result.visited == TINY_REQ1_VISITED
        assert result.trace is not None

    def test_req1_tight_deadline_counts_pinned(self, tiny_network,
                                               backend):
        result = check_bounded_response(
            tiny_network, "m_Req", "c_Ack", TINY_REQ1_TIGHT_DEADLINE,
            zone_backend=backend)
        assert not result.holds
        assert result.visited == TINY_REQ1_TIGHT_VISITED

    def test_req1_witness_identical_across_backends(self, tiny_network,
                                                    backend):
        result = check_bounded_response(
            tiny_network, "m_Req", "c_Ack", TINY_REQ1_TIGHT_DEADLINE,
            zone_backend=backend)
        reference = check_bounded_response(
            tiny_network, "m_Req", "c_Ack", TINY_REQ1_TIGHT_DEADLINE,
            zone_backend="reference")
        assert result.counterexample == reference.counterexample
        assert result.trace == reference.trace


def _reduced_zone_graph(network, backend, lazy):
    """Antichain of maximal stored zones per discrete configuration."""
    explorer = ZoneGraphExplorer(
        network, zone_backend=backend, lazy_subsumption=lazy)
    per_key: dict = {}
    result = explorer.explore(
        visit=lambda s: per_key.setdefault(s.key(), []).append(s.zone))
    graph = set()
    for key, zones in per_key.items():
        for zone in zones:
            if any(other is not zone and other.includes(zone)
                   and not zone.includes(other) for other in zones):
                continue
            graph.add((key, zone.frozen()))
    return result, graph


@pytest.mark.parametrize("backend", BACKENDS)
def test_lazy_subsumption_preserves_reduced_graph(tiny_network, backend):
    eager, eager_graph = _reduced_zone_graph(
        tiny_network, backend, lazy=False)
    lazy, lazy_graph = _reduced_zone_graph(
        tiny_network, backend, lazy=True)
    assert eager.visited == TINY_VISITED
    assert lazy.visited <= eager.visited
    assert lazy.transitions <= eager.transitions
    assert lazy_graph == eager_graph


@pytest.mark.parametrize("backend", BACKENDS)
def test_lazy_subsumption_same_verdicts(tiny_network, backend):
    eager = check_bounded_response(
        tiny_network, "m_Req", "c_Ack", TINY_REQ1_DEADLINE,
        zone_backend=backend)
    lazy = check_bounded_response(
        tiny_network, "m_Req", "c_Ack", TINY_REQ1_DEADLINE,
        zone_backend=backend, lazy_subsumption=True)
    assert eager.holds == lazy.holds


@pytest.mark.parametrize("backend", BACKENDS)
def test_repeated_explore_uses_cached_plans(tiny_network, backend):
    explorer = ZoneGraphExplorer(tiny_network, zone_backend=backend)
    first = explorer.explore()
    assert explorer._plans  # plans memoized during the first run
    second = explorer.explore()
    assert (first.visited, first.transitions) == \
        (second.visited, second.transitions)


@pytest.mark.parametrize("backend", BACKENDS)
def test_deferred_range_error_still_raised(backend):
    from repro.ta.builder import NetworkBuilder

    net = NetworkBuilder("n")
    net.int_var("v", 0, 0, 2)
    a = net.automaton("A")
    a.location("L", initial=True)
    a.loop("L", update="v = v + 1")
    network = net.build()
    with pytest.raises(ModelError, match="outside") as info:
        ZoneGraphExplorer(network, zone_backend=backend).explore()
    assert "while firing" in str(info.value)

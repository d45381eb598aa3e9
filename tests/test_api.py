"""Tests for :mod:`repro.api` — the unified ``Session`` front door.

The contract under test: every knob resolves ONCE at construction,
with the canonical precedence *explicit argument > process override >
environment variable > default*; a mis-set environment variable fails
at ``Session(...)`` time.
"""

from __future__ import annotations

import pytest

from repro.api import FAULT_AXES, Session
from repro.envvars import EnvVarError
from repro.ta.bounds import EXTRA_LU, EXTRA_M
from repro.zones import backend as zone_backend
from tests.conftest import build_tiny_pim, build_tiny_scheme

REQ = dict(input_channel="m_Req", output_channel="c_Ack",
           deadline_ms=30)


@pytest.fixture(autouse=True)
def clean_knob_env(monkeypatch):
    for var in ("REPRO_ZONE_BACKEND", "REPRO_ABSTRACTION",
                "REPRO_JOBS"):
        monkeypatch.delenv(var, raising=False)


class TestResolutionOrder:
    def test_defaults(self):
        session = Session()
        assert session.backend == "auto"
        assert session.abstraction.name == EXTRA_M
        assert session.jobs is None
        assert session.faults == {}

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZONE_BACKEND", "reference")
        monkeypatch.setenv("REPRO_ABSTRACTION", "extra_lu")
        monkeypatch.setenv("REPRO_JOBS", "3")
        session = Session()
        assert session.backend == "reference"
        assert session.abstraction.name == EXTRA_LU
        assert session.jobs == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZONE_BACKEND", "native")
        monkeypatch.setenv("REPRO_JOBS", "3")
        session = Session(backend="reference", jobs=1)
        assert session.backend == "reference"
        assert session.jobs == 1

    def test_bad_env_fails_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(EnvVarError, match="REPRO_JOBS"):
            Session()

    def test_bad_explicit_backend(self):
        with pytest.raises(ValueError, match="unknown zone backend"):
            Session(backend="cuda")

    def test_describe_is_json_friendly(self):
        import json
        description = Session(jobs=2, faults={"k": 1}).describe()
        assert json.loads(json.dumps(description)) == description
        assert description["jobs"] == 2
        assert description["faults"] == {"fault_k": [1]}
        assert "executor" not in description


class TestFaults:
    def test_axis_spellings(self):
        session = Session(faults={"k": 1, "replicas": 3,
                                  "jitter": [0, 2]})
        assert session.faults == {"fault_k": [1], "fault_r": [3],
                                  "fault_eps": [0, 2]}
        # Canonical names are accepted verbatim too.
        assert set(FAULT_AXES.values()) <= set(FAULT_AXES)

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown fault axis"):
            Session(faults={"gamma": 1})

    def test_fault_values_rejects_sweeps(self):
        session = Session(faults={"k": [0, 1]})
        with pytest.raises(ValueError, match="portfolio"):
            session.fault_values()
        assert session.fault_axes() == {"fault_k": [0, 1]}

    def test_scalar_fault_values(self):
        session = Session(faults={"k": 1})
        assert session.fault_values() == {"fault_k": 1}


class TestVerbs:
    def test_verify_and_monitor_share_config(self):
        pim, scheme = build_tiny_pim(), build_tiny_scheme()
        session = Session(backend="reference",
                          monitor_max_states=50_000)
        report = session.verify(pim, scheme, **REQ)
        assert report.implementation_guarantee
        model = session.monitor_model(pim=pim, scheme=scheme)
        assert model is session.monitor_model(pim=pim, scheme=scheme)

    def test_backend_pin_is_scoped_to_the_call(self):
        pim, scheme = build_tiny_pim(), build_tiny_scheme()
        before = zone_backend._forced
        session = Session(backend="reference")
        session.verify(pim, scheme, **REQ)
        assert zone_backend._forced == before

    def test_portfolio_uses_session_executor(self):
        """The session's ``jobs`` picks what executes the portfolio:
        that many worker processes."""
        from repro.apps.schemes import scheme_grid
        pim = build_tiny_pim()
        schemes = scheme_grid(build_tiny_scheme, buffer_size=(1, 2))
        results = Session(jobs=2).portfolio(pim, schemes, **REQ)
        assert results.jobs == 2
        assert len(results) == 2
        assert all(r.report.implementation_guarantee for r in results)


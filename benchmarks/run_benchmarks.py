"""Plugin-free benchmark runner: track the perf trajectory across PRs.

Runs the model-checking workloads that dominate every experiment
(zone-graph construction for the tiny and case-study PSMs, the REQ1
violation search, the batched paper-query suite, the 16-scheme
portfolio sweep) on every available zone backend and writes
``BENCH_<YYYYMMDD>.json`` with states, transitions and
wall time per benchmark.  Committing the file gives each PR a
comparable perf record; the pytest-benchmark suite
(``pytest benchmarks/``) remains the statistically careful harness.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--quick]
        [--out DIR] [--backends reference native]
        [--jobs 1 4] [--summary FILE|-]

    # CI regression gate: re-run the headline workloads and fail on a
    # >25% slowdown of bench_s1_case_study_psm vs a committed record
    PYTHONPATH=src python benchmarks/run_benchmarks.py \
        --check BENCH_20260727.json

    # CI scaling job (multi-core runner): tiny-PSM portfolio scaling
    # over worker-process counts, markdown table to the step summary
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick \
        --jobs 1 2 4 --summary "$GITHUB_STEP_SUMMARY"

``--quick`` skips the case-study workloads (~seconds instead of
~minutes on the pure-Python backend).  Every run measures the
``bench_portfolio_tiny`` job-level scaling grid (backend × jobs, where
``jobs`` is the portfolio's worker-process count) — the workload CI's
``scaling`` job charts on its 4-vCPU runners; ``--summary`` renders it
as a GitHub-flavored markdown table.  Explorations themselves are
single-threaded, so the zone-graph rows carry no ``jobs`` column.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import platform
import sys
import time
from pathlib import Path

# Self-sufficient from a clean checkout (same bootstrap as the repo
# root conftest.py): the src/ layout for `repro`, the repo root for
# the `tests.conftest` tiny-model helpers.
_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.apps.infusion import REQ1_DEADLINE_MS, build_infusion_pim  # noqa: E402
from repro.apps.schemes import (
    CASE_STUDY_FAULT_GRID_4,
    GridSpec,
    case_study_grid_16,
    case_study_scheme,
)
from repro.core.transform import transform
from repro.mc.observers import check_bounded_response
from repro.mc.explorer import ZoneGraphExplorer
from repro.mc.portfolio import PortfolioVerifier, portfolio_jobs
from repro.mc.queries import (
    BoundedResponseQuery,
    ResponseSupQuery,
    StatsQuery,
    check_many,
    zone_graph_stats,
)
from repro.zones.backend import available_backends, set_backend

from tests.conftest import build_tiny_pim, build_tiny_scheme  # noqa: E402

#: The regression gate guards this benchmark (the paper's S1 workload).
HEADLINE = "bench_s1_case_study_psm"
#: Allowed slowdown in ``--check`` mode before the gate fails.
REGRESSION_TOLERANCE = 1.25
#: The job-level scaling workload: a 36-scheme sweep of the tiny PSM —
#: cheap enough for every CI push, heavy enough (~1-2 s sequential on
#: the reference backend) that worker processes beat one core on a
#: multi-core runner.
TINY_SCALING_GRID = GridSpec.of(
    "tests.conftest:build_tiny_scheme",
    buffer_size=(1, 2, 3, 4), period=(4, 5, 6), wcet=(0, 1, 2))
#: Row name of the scaling grid (the CI ``scaling`` job charts these).
SCALING_BENCH = "bench_portfolio_tiny"
#: The fault-axis sweep (loss budget k × replica count r) on the tiny
#: model — the CI scaling job's fault-grid cell.
TINY_FAULT_GRID = GridSpec.of(
    "tests.conftest:build_tiny_scheme", fault_k=(0, 1), fault_r=(1, 2))
#: Row name of the fault sweep cells (tiny in ``--quick``, the
#: case-study :data:`CASE_STUDY_FAULT_GRID_4` otherwise).
FAULT_BENCH = "bench_portfolio_fault_grid"
#: Batched conformance monitoring on the case-study PSM: 256
#: concurrent sessions replaying simulated traces (16 distinct seeds,
#: so lane dedup has real work per round), throughput counted over
#: *all* fed events.  The committed record must clear this floor.
MONITOR_BENCH = "bench_monitor_throughput"
MONITOR_SESSIONS = 256
MONITOR_SEEDS = 16
MONITOR_FLOOR_EVENTS_PER_S = 100_000


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _timed_best(fn, repeats: int = 3):
    """Best-of-N wall time for the small (sub-second to few-second)
    cells: single shots on a shared box jitter by ±30%.  The long
    16-scheme sweeps stay single-shot — they self-average over
    minutes of work."""
    value, best = _timed(fn)
    for _ in range(repeats - 1):
        value, seconds = _timed(fn)
        best = min(best, seconds)
    return value, best


def _record(results, name, backend, states, transitions, seconds,
            **extra):
    entry = {
        "benchmark": name,
        "backend": backend,
        "states": states,
        "transitions": transitions,
        "seconds": round(seconds, 4),
    }
    entry.update(extra)
    results.append(entry)
    jobs = extra.get("jobs")
    tag = f"{backend}:j{jobs}" if jobs else backend
    print(f"  {name:32s} [{tag:16s}] states={states:>7} "
          f"transitions={transitions:>7} {seconds:8.3f}s")


def _case_study_network():
    return transform(build_infusion_pim(), case_study_scheme()).network


def _stats_with_memory(network, *, backend, abstraction=None):
    """zone_graph_stats plus a memory proxy.

    Returns ``(stats, extra)`` where ``extra`` carries the passed-store
    row count (stored zones surviving subsumption — the checker's
    dominant memory consumer).
    """
    from repro.mc.queries import ZoneGraphStats

    explorer = ZoneGraphExplorer(network, zone_backend=backend,
                                 abstraction=abstraction)
    keys = set()
    result = explorer.explore(visit=lambda s: keys.add(s.key()))
    stats = ZoneGraphStats(states=result.visited,
                           transitions=result.transitions,
                           discrete_configurations=len(keys))
    extra = {"passed_rows": sum(len(bucket) for bucket
                                in explorer.passed_store.values())}
    if abstraction:
        extra["abstraction"] = abstraction
    return stats, extra


def _paper_query_batch():
    """The paper's query set: S1 stats, REQ1 violation, M-C sup."""
    return [
        StatsQuery(),
        BoundedResponseQuery("m_BolusReq", "c_StartInfusion",
                             REQ1_DEADLINE_MS),
        ResponseSupQuery("m_BolusReq", "c_StartInfusion"),
    ]


def run_suite(backends, quick: bool, jobs_list) -> list[dict]:
    """Measure every requested backend over the committed workloads.

    The small cells interleave the backends (benchmark-outer order),
    so the rows of one cell are measured seconds apart — a shared box
    drifts by tens of percent over a backend-outer run (the 16-scheme
    sweeps alone take ~20 minutes).  The long sweeps stay grouped per
    backend at the end.
    """
    results: list[dict] = []
    tiny = transform(build_tiny_pim(), build_tiny_scheme()).network
    case_study = None if quick else _case_study_network()
    # The native backend also carries the heavy cells (Extra+_LU
    # headline, query batch, 16-scheme sweeps, batched monitor); the
    # reference backend would take minutes on them.
    heavy = [b for b in backends if b == "native"]

    for backend in backends:
        stats, seconds = _timed_best(
            lambda: zone_graph_stats(tiny, zone_backend=backend))
        _record(results, "s1_zone_graph_tiny", backend,
                stats.states, stats.transitions, seconds)

    _bench_portfolio_tiny(results, backends, jobs_list)

    if quick:
        # The CI scaling job's fault-grid cell: cheap on the tiny
        # model, so every backend carries the k=0 identity gate.
        for backend in backends:
            _bench_portfolio_fault_grid(
                results, backend, jobs_list[0] if jobs_list else None,
                quick=True)

    if case_study is not None:
        seq_stats = {}
        for backend in backends:
            (stats, memory), seconds = _timed_best(
                lambda: _stats_with_memory(case_study,
                                           backend=backend))
            seq_stats[backend] = stats
            _record(results, HEADLINE, backend,
                    stats.states, stats.transitions, seconds,
                    **memory)

        # The Extra+_LU variant of the headline: same reachable
        # behavior, coarser abstraction, smaller zone graph.
        for backend in heavy:
            (lu_stats, memory), seconds = _timed_best(
                lambda: _stats_with_memory(
                    case_study, backend=backend,
                    abstraction="extra_lu"))
            assert lu_stats.states < seq_stats[backend].states, \
                "Extra_LU must shrink the case-study zone graph"
            _record(results, "bench_s1_case_study_psm_lu", backend,
                    lu_stats.states, lu_stats.transitions, seconds,
                    **memory)

        for backend in backends:
            lazy, seconds = _timed_best(lambda: zone_graph_stats(
                case_study, zone_backend=backend,
                lazy_subsumption=True))
            _record(results, "s1_case_study_psm_lazy", backend,
                    lazy.states, lazy.transitions, seconds,
                    lazy_subsumption=True)

        for backend in backends:
            verdict, seconds = _timed_best(lambda: check_bounded_response(
                case_study, "m_BolusReq", "c_StartInfusion",
                REQ1_DEADLINE_MS, zone_backend=backend))
            assert not verdict.holds, \
                "REQ1 must be violated on the case-study PSM"
            _record(results, "req1_psm_violation", backend,
                    verdict.visited, verdict.transitions, seconds,
                    holds=verdict.holds)

        for backend in heavy:
            outcome, seconds = _timed_best(lambda: check_many(
                case_study, _paper_query_batch(),
                zone_backend=backend))
            assert outcome.explorations == 1, \
                "the paper query batch must share one exploration"
            assert not outcome.results[1].holds
            _record(results, "paper_queries_check_many", backend,
                    outcome.visited, outcome.transitions, seconds,
                    explorations=outcome.explorations,
                    mc_sup=outcome.results[2].sup)

        # The 16-scheme sweeps run on the largest worker-process count.
        batch_jobs = jobs_list[-1] if jobs_list else None

        for backend in heavy:
            _bench_portfolio(results, backend, batch_jobs)
            _bench_portfolio(results, backend, batch_jobs,
                             abstraction="extra_lu")
            # The cross-scheme-reuse variants: memo folds the buffer
            # axis, dominance pruning the poll/period axes.
            _bench_portfolio(results, backend, batch_jobs, reuse=True)
            _bench_portfolio(results, backend, batch_jobs,
                             abstraction="extra_lu", reuse=True)

    if case_study is not None:
        _bench_monitor_throughput(results, heavy)

    if case_study is not None:
        # The fault-axis sweep's wall time is dominated by its k=1
        # duplex corner (minutes of retry interleavings even under
        # Extra+_LU), so a single backend carries the cell.
        fault_backend = heavy[0] if heavy else backends[0]
        _bench_portfolio_fault_grid(results, fault_backend,
                                    batch_jobs, quick=False)
    return results


def _monitor_workload():
    """(psm, streams): the monitor throughput benchmark's inputs.

    Simulated case-study traces from :data:`MONITOR_SEEDS` distinct
    seeds, tiled to :data:`MONITOR_SESSIONS` concurrent sessions —
    duplicate lanes are realistic at traffic scale (phase-anchored
    periodic systems quantize traces into few protocol states) while
    the distinct seeds keep real per-round work in the waves.
    """
    from repro.analysis.table1 import simulate_trials

    pim, scheme = build_infusion_pim(), case_study_scheme()
    traces = []
    for seed in range(MONITOR_SEEDS):
        events: list = []
        simulate_trials(pim, scheme, trials=2, seed=seed,
                        trace_listener=events.append)
        traces.append(events)
    streams = [traces[i % MONITOR_SEEDS]
               for i in range(MONITOR_SESSIONS)]
    return transform(pim, scheme), streams


def _bench_monitor_throughput(results, backends):
    """Batched conformance monitoring throughput (events/second).

    One precompiled :class:`MonitorModel` drives
    :data:`MONITOR_SESSIONS` concurrent sessions through
    :class:`BatchMonitor`; the recorded figure is all fed events over
    the best-of-3 wall time of a *warm* feed (a first feed populates
    the on-demand move index — that cost is the model's, paid once
    per server lifetime, not per trace).  Every session must come
    back conforming, and the committed record must clear
    :data:`MONITOR_FLOOR_EVENTS_PER_S`.
    """
    from repro.monitor import BatchMonitor, MonitorModel

    psm, streams = _monitor_workload()
    total_events = sum(map(len, streams))
    for backend in backends:
        model = MonitorModel(psm, zone_backend=backend,
                             max_states=5_000)
        model.precompile()
        warm = BatchMonitor(model, MONITOR_SESSIONS)
        warm.feed(streams)
        assert warm.conforming, \
            "simulated case-study traces must conform"

        def run():
            runner = BatchMonitor(model, MONITOR_SESSIONS)
            runner.feed(streams)
            return runner

        runner, seconds = _timed_best(run)
        observed = sum(s.events_observed for s in runner.sessions)
        events_per_s = round(total_events / seconds)
        assert runner.conforming
        _record(results, MONITOR_BENCH, backend,
                len(model.intern), observed, seconds,
                sessions=MONITOR_SESSIONS, events=total_events,
                events_per_s=events_per_s)
        if events_per_s < MONITOR_FLOOR_EVENTS_PER_S:
            print(f"  WARNING: {backend} monitor throughput "
                  f"{events_per_s:,} ev/s is under the "
                  f"{MONITOR_FLOOR_EVENTS_PER_S:,} ev/s floor")


def _bench_portfolio_tiny(results, backends, jobs_list):
    """Job-level scaling grid on the tiny PSM (the CI scaling job).

    Sweeps ``TINY_SCALING_GRID`` once per (jobs, backend) cell —
    backends innermost, so each cell's rows are measured back to back
    — and asserts every cell's rows are bit-identical to the first:
    the scaling table is only meaningful if every configuration does
    the same verified work.
    """
    pim = build_tiny_pim()
    schemes = TINY_SCALING_GRID.build()
    baseline = None
    for jobs in jobs_list:
        for backend in backends:
            # A fresh verifier per repeat keeps every timed run cold
            # (no verdict-memo or pool state carries over).
            def sweep(jobs=jobs):
                verifier = PortfolioVerifier(jobs=jobs,
                                             max_states=500_000)
                return verifier.run(portfolio_jobs(
                    pim, schemes, input_channel="m_Req",
                    output_channel="c_Ack", deadline_ms=10,
                    measure_suprema=True))

            set_backend(backend)
            try:
                outcome, seconds = _timed_best(sweep)
            finally:
                set_backend(None)
            assert outcome.all_ok, \
                [row.error for row in outcome if not row.ok]
            key = [(row.states, row.transitions,
                    row.relaxed_deadline_ms) for row in outcome]
            if baseline is None:
                baseline = key
            assert key == baseline, \
                f"j{jobs}:{backend} diverged from the first cell"
            _record(results, SCALING_BENCH, backend,
                    sum(row.states for row in outcome),
                    sum(row.transitions for row in outcome),
                    seconds, jobs=jobs, schemes=len(outcome),
                    grid=TINY_SCALING_GRID.describe())


def _bench_portfolio(results, backend, jobs, abstraction=None,
                     reuse=False):
    """The 16-scheme design-space sweep on ``jobs`` worker
    processes."""
    pim = build_infusion_pim()
    schemes = case_study_grid_16()
    verifier = PortfolioVerifier(jobs=jobs, max_states=2_000_000,
                                 abstraction=abstraction,
                                 reuse=reuse, prune_dominated=reuse)
    # The portfolio pipeline has no zone_backend parameter (it runs
    # whole framework pipelines); pin the ambient backend so the
    # recorded label matches what was actually measured even under a
    # REPRO_ZONE_BACKEND override.
    set_backend(backend)
    try:
        outcome, seconds = _timed(lambda: verifier.run(portfolio_jobs(
            pim, schemes,
            input_channel="m_BolusReq",
            output_channel="c_StartInfusion",
            deadline_ms=REQ1_DEADLINE_MS)))
    finally:
        set_backend(None)
    assert outcome.all_ok, [row.error for row in outcome if not row.ok]
    canonical = [row for row in outcome
                 if "buffer_size=5,period=100,bolus_poll=380,"
                    "read_policy=read-all" in row.name]
    assert canonical and canonical[0].relaxed_deadline_ms == 1430, \
        "the canonical scheme must reproduce Table I's 1430 ms bound"
    # Memoized rows keep their donor's tallies; dominance-derived
    # rows ran no sweep at all and tally as 0.
    states = sum(row.states or 0 for row in outcome)
    transitions = sum(row.transitions or 0 for row in outcome)
    name = "bench_portfolio_16_schemes"
    extra = {}
    if abstraction:
        name += "_lu"
        extra["abstraction"] = abstraction
    if reuse:
        name += "_reuse"
        extra.update(explored=outcome.explored,
                     memo_hits=outcome.memoized,
                     pruned=outcome.pruned)
    _record(results, name, backend,
            states, transitions, seconds, jobs=jobs,
            schemes=len(outcome),
            guaranteed=len(outcome.guaranteed),
            per_scheme=[row.row() for row in outcome], **extra)


def _bench_portfolio_fault_grid(results, backend, jobs, quick):
    """The (k × r) fault-axis sweep plus the k=0 bit-identity gate.

    The grid's ``k=0, r=1`` corner is the exact fault-free scheme:
    its row must be bit-identical (modulo wall time and the axis
    label in its name) to a plain run of the same scheme through the
    same verifier — the standing regression gate for "fault machinery
    present but disabled".
    """
    if quick:
        pim = build_tiny_pim()
        grid = TINY_FAULT_GRID
        plain = build_tiny_scheme()
        channels = dict(input_channel="m_Req", output_channel="c_Ack")
        deadline, max_states, abstraction = 10, 500_000, None
    else:
        pim = build_infusion_pim()
        grid = CASE_STUDY_FAULT_GRID_4
        plain = case_study_scheme()
        channels = dict(input_channel="m_BolusReq",
                        output_channel="c_StartInfusion")
        # Extra+_LU keeps the k=1 duplex corner (every loss budget
        # unit multiplies the retry interleavings) tractable.
        deadline, max_states, abstraction = \
            REQ1_DEADLINE_MS, 4_000_000, "extra_lu"

    def sweep(schemes):
        verifier = PortfolioVerifier(jobs=jobs, max_states=max_states,
                                     abstraction=abstraction)
        return verifier.run(portfolio_jobs(
            pim, schemes, deadline_ms=deadline, **channels))

    set_backend(backend)
    try:
        outcome, seconds = _timed(lambda: sweep(grid.build()))
        baseline = sweep([plain])
    finally:
        set_backend(None)
    assert outcome.all_ok, [row.error for row in outcome if not row.ok]

    def identity(row):
        fields = row.row()
        for volatile in ("name", "seconds"):
            fields.pop(volatile, None)
        return fields

    corner = outcome[0]
    assert "fault_k=0,fault_r=1" in corner.name
    assert identity(corner) == identity(baseline[0]), \
        "the k=0 fault-grid corner diverged from the fault-free run"
    extra = {"abstraction": abstraction} if abstraction else {}
    _record(results, FAULT_BENCH, backend,
            sum(row.states or 0 for row in outcome),
            sum(row.transitions or 0 for row in outcome),
            seconds, jobs=jobs, schemes=len(outcome),
            guaranteed=len(outcome.guaranteed),
            grid=grid.describe(),
            per_scheme=[row.row() for row in outcome], **extra)


# ----------------------------------------------------------------------
# Scaling summary (--summary)
# ----------------------------------------------------------------------
def render_scaling_summary(results: list[dict]) -> str:
    """The worker-process scaling grid as GitHub-flavored markdown.

    The CI ``scaling`` job appends this to ``$GITHUB_STEP_SUMMARY``;
    speedups are relative to each backend's ``jobs=1`` cell (falling
    back to the backend's first row).
    """
    rows = [entry for entry in results
            if entry["benchmark"] == SCALING_BENCH]
    if not rows:
        return ""
    lines = ["## Portfolio scaling — tiny PSM "
             f"({rows[0].get('schemes', '?')} schemes)", ""]
    for backend in dict.fromkeys(entry["backend"] for entry in rows):
        cells = [entry for entry in rows
                 if entry["backend"] == backend]
        base = next((entry for entry in cells
                     if entry.get("jobs") == 1), cells[0])
        lines += [f"### backend: `{backend}`", "",
                  f"| jobs | wall (s) | speedup vs "
                  f"jobs={base.get('jobs', 1)} |",
                  "|---:|---:|---:|"]
        for entry in cells:
            speedup = base["seconds"] / entry["seconds"] \
                if entry["seconds"] else float("inf")
            lines.append(
                f"| {entry.get('jobs', 1)} "
                f"| {entry['seconds']:.3f} | {speedup:.2f}× |")
        lines.append("")
    reuse_rows = [entry for entry in results
                  if "memo_hits" in entry]
    if reuse_rows:
        lines += ["## Cross-scheme reuse — 16-scheme sweep", "",
                  "| benchmark | backend | explored | memoized | "
                  "pruned | wall (s) |",
                  "|---|---|---:|---:|---:|---:|"]
        for entry in reuse_rows:
            lines.append(
                f"| {entry['benchmark']} | {entry['backend']} "
                f"| {entry['explored']} | {entry['memo_hits']} "
                f"| {entry['pruned']} | {entry['seconds']:.3f} |")
        lines.append("")
    return "\n".join(lines)


def write_summary(results: list[dict], target: str) -> None:
    text = render_scaling_summary(results)
    if not text:
        return
    if target == "-":
        print(text)
        return
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(text + "\n")


# ----------------------------------------------------------------------
# Regression gate (--check)
# ----------------------------------------------------------------------
def _check_memo_parity() -> list[str]:
    """Blocking quick-gate: memo-on rows == memo-off rows, bit for
    bit, on a tiny 3-buffers × 2-periods grid — with at least one
    actual memo hit so the gate cannot pass vacuously."""
    pim = build_tiny_pim()
    schemes = GridSpec.of("tests.conftest:build_tiny_scheme",
                          buffer_size=(1, 2, 3),
                          period=(4, 5)).build()

    def sweep(reuse):
        verifier = PortfolioVerifier(max_states=500_000, reuse=reuse)
        return verifier.run(portfolio_jobs(
            pim, schemes, input_channel="m_Req",
            output_channel="c_Ack", deadline_ms=10,
            measure_suprema=True))

    off, on = sweep(False), sweep(True)
    failures = []
    for a, b in zip(off, on):
        key_a = (a.name, a.status, a.relaxed_deadline_ms,
                 a.constraints_hold, a.original_holds, a.relaxed_holds,
                 a.guarantee, a.states, a.transitions,
                 sorted((k, v.bounded, v.sup, v.attained)
                        for k, v in a.sups.items()))
        key_b = (b.name, b.status, b.relaxed_deadline_ms,
                 b.constraints_hold, b.original_holds, b.relaxed_holds,
                 b.guarantee, b.states, b.transitions,
                 sorted((k, v.bounded, v.sup, v.attained)
                        for k, v in b.sups.items()))
        if key_a != key_b:
            failures.append(
                f"memo parity: row {a.name!r} differs with reuse on "
                f"({key_a} != {key_b})")
    if on.memoized == 0:
        failures.append(
            "memo parity: the verdict memo never fired on the "
            "buffer-axis grid (expected >= 1 hit)")
    print(f"  memo parity                        "
          f"{'ok' if not failures else 'FAIL'} "
          f"({on.explored} explored, {on.memoized} memoized)")
    return failures



def run_check(baseline_path: Path, repeats: int = 3,
              quick: bool = False) -> int:
    """Re-run the headline workloads; fail on a >25% regression.

    Each workload runs ``repeats`` times and the best wall time
    counts — single runs on shared CI boxes jitter by far more than
    the 25% tolerance the gate is meant to catch.

    ``quick`` swaps the case-study workload for the tiny PSM: wall
    times are then jitter-dominated (milliseconds), so the gate only
    enforces bit-identical states/transitions and reports timing
    informationally — the mode CI runs on every push, with the full
    gate reserved for perf-minded runs.

    Older records also carry rows timed on a sharded ``jobs`` engine
    that no longer exists.  Counts do not depend on the engine, so
    those rows re-run on the one explorer and must still match; their
    times are not comparable and stay out of the timed gate.
    """
    baseline = json.loads(baseline_path.read_text())
    target_name = "s1_zone_graph_tiny" if quick else HEADLINE
    targets = [entry for entry in baseline["results"]
               if entry["benchmark"] == target_name
               and entry["backend"] in available_backends()]
    if not targets:
        print(f"error: {baseline_path} has no "
              f"{target_name!r} rows to check against", file=sys.stderr)
        return 2

    network = (transform(build_tiny_pim(), build_tiny_scheme()).network
               if quick else _case_study_network())
    failures = []
    for entry in targets:
        jobs = entry.get("jobs")
        backend = entry["backend"]
        seconds = None
        for _ in range(repeats):
            stats, elapsed = _timed(lambda: zone_graph_stats(
                network, zone_backend=backend))
            seconds = elapsed if seconds is None \
                else min(seconds, elapsed)
        tag = f"{backend}:j{jobs}" if jobs else backend
        ratio = seconds / entry["seconds"]
        timed_gate = not quick and not jobs
        status = "ok" if (ratio <= REGRESSION_TOLERANCE
                          or not timed_gate) else "REGRESSED"
        print(f"  {target_name:32s} [{tag:11s}] {seconds:7.3f}s vs "
              f"{entry['seconds']:7.3f}s  x{ratio:4.2f}  {status}")
        if (stats.states, stats.transitions) != \
                (entry["states"], entry["transitions"]):
            failures.append(
                f"{tag}: states/transitions "
                f"{stats.states}/{stats.transitions} != recorded "
                f"{entry['states']}/{entry['transitions']}")
        if timed_gate and ratio > REGRESSION_TOLERANCE:
            failures.append(
                f"{tag}: {seconds:.3f}s is {ratio:.2f}x the recorded "
                f"{entry['seconds']:.3f}s "
                f"(tolerance {REGRESSION_TOLERANCE}x)")
    if not quick:
        # Monitor throughput (advisory like the rest of this mode):
        # re-run the batched conformance workload against the
        # committed record — the floor is absolute, the slowdown
        # tolerance relative to the recorded figure.
        monitor_rows = [entry for entry in baseline["results"]
                        if entry["benchmark"] == MONITOR_BENCH
                        and entry["backend"] in available_backends()]
        if monitor_rows:
            from repro.monitor import BatchMonitor, MonitorModel

            psm, streams = _monitor_workload()
            total_events = sum(map(len, streams))
            for entry in monitor_rows:
                backend = entry["backend"]
                model = MonitorModel(psm, zone_backend=backend,
                                     max_states=5_000)
                model.precompile()
                BatchMonitor(model, MONITOR_SESSIONS).feed(streams)
                seconds = None
                for _ in range(repeats):
                    runner = BatchMonitor(model, MONITOR_SESSIONS)
                    _, elapsed = _timed(lambda: runner.feed(streams))
                    assert runner.conforming
                    seconds = elapsed if seconds is None \
                        else min(seconds, elapsed)
                events_per_s = total_events / seconds
                floor = max(MONITOR_FLOOR_EVENTS_PER_S,
                            entry["events_per_s"]
                            / REGRESSION_TOLERANCE)
                status = "ok" if events_per_s >= floor else "REGRESSED"
                print(f"  {MONITOR_BENCH:32s} [{backend:11s}] "
                      f"{events_per_s:>11,.0f} ev/s vs recorded "
                      f"{entry['events_per_s']:>11,} "
                      f"(floor {floor:,.0f})  {status}")
                if events_per_s < floor:
                    failures.append(
                        f"{backend}: monitor throughput "
                        f"{events_per_s:,.0f} ev/s under the floor "
                        f"{floor:,.0f} (recorded "
                        f"{entry['events_per_s']:,}, absolute floor "
                        f"{MONITOR_FLOOR_EVENTS_PER_S:,})")

    if quick:
        # Abstraction parity gate: Extra+_LU must agree with Extra_M
        # on verdicts and suprema while never growing the zone graph.
        from repro.mc.observers import max_response_delay

        # Both sides pinned explicitly: a REPRO_ABSTRACTION override
        # must not turn this into a vacuous LU-vs-LU comparison.
        verdict_m = check_bounded_response(
            network, "m_Req", "c_Ack", 10, abstraction="extra_m")
        verdict_lu = check_bounded_response(
            network, "m_Req", "c_Ack", 10, abstraction="extra_lu")
        sup_m = max_response_delay(network, "m_Req", "c_Ack",
                                   abstraction="extra_m")
        sup_lu = max_response_delay(network, "m_Req", "c_Ack",
                                    abstraction="extra_lu")
        stats_m = zone_graph_stats(network, abstraction="extra_m")
        stats_lu = zone_graph_stats(network, abstraction="extra_lu")
        if verdict_m.holds != verdict_lu.holds:
            failures.append(
                f"abstraction parity: P(10) verdict differs "
                f"(extra_m={verdict_m.holds}, "
                f"extra_lu={verdict_lu.holds})")
        if (sup_m.bounded, sup_m.sup, sup_m.attained) != \
                (sup_lu.bounded, sup_lu.sup, sup_lu.attained):
            failures.append(
                f"abstraction parity: M-C sup differs "
                f"(extra_m={sup_m}, extra_lu={sup_lu})")
        if stats_lu.states > stats_m.states:
            failures.append(
                f"abstraction parity: extra_lu grew the zone graph "
                f"({stats_lu.states} > {stats_m.states} states)")
        print(f"  abstraction parity                 P(10) "
              f"{'ok' if verdict_m.holds == verdict_lu.holds else 'FAIL'}"
              f", sup {sup_m} vs {sup_lu}, states "
              f"{stats_m.states} -> {stats_lu.states}")

        # Memo parity gate: the verdict memo must be semantically
        # invisible — a 6-scheme tiny grid (the buffer axis collapses
        # under the canonical hash) produces bit-identical rows with
        # reuse on and off, and the memo must actually fire.
        failures += _check_memo_parity()

    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf regression gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the case-study workloads")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="directory for BENCH_<date>.json")
    parser.add_argument("--backends", nargs="+", default=None,
                        help="zone backends to run "
                             "(default: all available)")
    parser.add_argument("--jobs", nargs="+", type=int, default=[1, 4],
                        help="portfolio worker-process counts to "
                             "benchmark (default: 1 4; the 16-scheme "
                             "sweeps use the last)")
    parser.add_argument("--summary", metavar="FILE",
                        help="append the worker-process scaling "
                             "table as markdown to FILE ('-' prints "
                             "it; CI passes $GITHUB_STEP_SUMMARY)")
    parser.add_argument("--check", type=Path, metavar="BENCH.json",
                        help="regression-gate mode: re-run the "
                             "headline workloads and fail on a >25%% "
                             "slowdown vs this record (with --quick: "
                             "tiny workload, bit-identity gate only)")
    args = parser.parse_args(argv)

    if args.check is not None:
        return run_check(args.check, quick=args.quick)

    backends = args.backends or list(available_backends())
    print(f"zone backends: {', '.join(backends)}")
    results = run_suite(backends, quick=args.quick, jobs_list=args.jobs)

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    payload = {
        "schema": 2,
        "generated": _dt.date.today().isoformat(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "quick": args.quick,
        "results": results,
    }
    # Quick runs get their own file: a fast iteration must never
    # clobber the committed full record for the same date.
    suffix = "-quick" if args.quick else ""
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = (args.out
                / f"BENCH_{_dt.date.today().strftime('%Y%m%d')}"
                  f"{suffix}.json")
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    if args.summary:
        write_summary(results, args.summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``repro-timing <command>``.

Commands mirror the paper's workflow:

* ``verify``    — run the full framework pipeline on the case study
* ``portfolio`` — verify a whole scheme grid concurrently (design-
  space sweep over buffer sizes × periods × polling intervals × read
  policies × invocation kinds)
* ``table1``    — regenerate Table I (verification + 60 trials)
* ``simulate``  — run only the measured half (fast)
* ``timeline``  — regenerate the Fig. 3 interaction timeline
* ``render``    — dump the PIM / PSM as Graphviz dot or a summary
* ``scheme``    — print the case-study implementation scheme
* ``monitor``   — check recorded JSONL traces (or stdin) for timed
  conformance against the case-study PSM; one verdict row per trace
* ``serve``     — run the long-lived verification daemon (warm
  workers + server-lifetime verdict cache + precompiled monitor
  models); ``verify``/``portfolio``/``monitor`` forward to it with
  ``--server ADDR``

Every subcommand builds one :class:`repro.api.Session` from the
global knob flags (``--zone-backend``/``--jobs``/``--abstraction``
plus per-command ``--faults``), so the resolution
order *explicit flag > REPRO_* environment > default* is decided in
exactly one place.

Exit codes (``verify``/``portfolio``/``monitor``): **0** every scheme
earned the implementation guarantee (resp. every trace conforms);
**1** a job or tool error (exploration budget, invalid scheme, dead
worker, unreachable server); **2** the pipeline ran fine but a
verdict failed (no guarantee / non-conforming trace); **130**
interrupted (Ctrl-C) — partial results are summarized first.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.blocks import render_blocks
from repro.analysis.portfolio import (
    render_fault_tolerance,
    render_portfolio,
)
from repro.analysis.table1 import run_case_study, simulate_trials
from repro.analysis.timeline import fig3_scenario
from repro.api import Session
from repro.apps.infusion import REQ1_DEADLINE_MS, build_infusion_pim
from repro.apps.schemes import case_study_scheme, scheme_grid
from repro.core.scheme import InvocationKind, ReadPolicy
from repro.core.transform import transform
from repro.envvars import EnvVarError
from repro.mc.pool import set_default_jobs
from repro.ta.bounds import set_abstraction
from repro.ta.render import network_summary, network_to_dot
from repro.ta.uppaal import network_to_uppaal_xml
from repro.zones.backend import CHOICES as BACKEND_CHOICES, set_backend

__all__ = ["main"]

_READ_POLICIES = {policy.value: policy for policy in ReadPolicy}
_INVOCATION_KINDS = {kind.value: kind for kind in InvocationKind}

#: ``--faults`` key → scheme-factory fault axis.
_FAULT_AXES = {"k": "fault_k", "replicas": "fault_r",
               "jitter": "fault_eps"}


def _parse_faults(spec: str) -> dict[str, list[int]]:
    """``k=0|1,replicas=2,jitter=0`` → fault-axis value lists.

    Each key takes one value (``verify``) or a ``|``-separated sweep
    (``portfolio``); unknown keys and non-integers are argparse-level
    errors so the CLI fails fast with the offending token.
    """
    axes: dict[str, list[int]] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in _FAULT_AXES:
            raise argparse.ArgumentTypeError(
                f"bad fault axis {part!r}; expected "
                f"k=..|..,replicas=..,jitter=.. with keys from "
                f"{sorted(_FAULT_AXES)}")
        try:
            values = [int(v) for v in value.split("|")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"fault axis {key!r} needs integer value(s), "
                f"got {value!r}")
        axes[_FAULT_AXES[key]] = values
    return axes


def _session(args: argparse.Namespace, **extra) -> Session:
    """One resolved :class:`~repro.api.Session` per command run.

    Centralizes the knob-resolution order (explicit flag > ``REPRO_*``
    environment > default — the Session constructor's contract) that
    each subcommand used to re-thread by hand.
    """
    return Session(
        backend=args.zone_backend,
        abstraction=args.abstraction,
        jobs=args.jobs,
        faults=getattr(args, "faults", None) or {},
        max_states=getattr(args, "max_states", 1_000_000),
        **extra)


#: Exit-code convention shared by ``verify``, ``portfolio`` and
#: ``monitor`` (and their ``--server`` forwarding): tool/job errors
#: beat verdict failures, so automation can tell "broken" from "not
#: guaranteed".
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT_FAIL = 2
EXIT_INTERRUPTED = 130


def _rows_exit_code(rows: "list[dict]") -> int:
    """0 / 1 / 2 from JSON row dicts (local rows or daemon frames)."""
    if any(row.get("status") != "ok" for row in rows):
        return EXIT_ERROR
    if not rows or not all(row.get("guarantee") for row in rows):
        return EXIT_VERDICT_FAIL
    return EXIT_OK


def _forward_jobs(session: Session, server: str, jobs) -> int:
    """Ship jobs to a ``repro serve`` daemon; print streamed rows."""
    import json

    from repro.service.client import ServiceError

    try:
        with session.serve_client(server) as client:
            outcome = client.run_jobs(jobs)
    except (ServiceError, OSError) as exc:
        print(f"server {server}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ERROR
    for row, origin in zip(outcome.ordered_rows(),
                           outcome.origins()):
        print(json.dumps({**row, "origin": origin}))
    cache = (outcome.stats or {}).get("cache", {})
    print(f"# server cache: {cache.get('hits', 0)} hits / "
          f"{cache.get('misses', 0)} misses "
          f"({cache.get('entries', 0)} entries)")
    return _rows_exit_code(outcome.ordered_rows())


def _cmd_verify(args: argparse.Namespace) -> int:
    session = _session(args)
    pim = build_infusion_pim()
    try:
        scheme = case_study_scheme(**session.fault_values())
    except ValueError as exc:
        print(f"--faults: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.server:
        from repro.mc.portfolio import portfolio_jobs

        return _forward_jobs(session, args.server, portfolio_jobs(
            pim, [scheme],
            input_channel="m_BolusReq",
            output_channel="c_StartInfusion",
            deadline_ms=args.deadline,
            measure_suprema=args.suprema,
            max_states=args.max_states))
    try:
        report = session.verify(
            pim, scheme,
            input_channel="m_BolusReq",
            output_channel="c_StartInfusion",
            deadline_ms=args.deadline,
            measure_suprema=args.suprema)
    except KeyboardInterrupt:
        print("\ninterrupted — no verdict", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(report.summary())
    return EXIT_OK if report.implementation_guarantee \
        else EXIT_VERDICT_FAIL


def _cmd_portfolio(args: argparse.Namespace) -> int:
    session = _session(args)
    pim = build_infusion_pim()
    axes = {
        "buffer_size": args.buffer_sizes,
        "period": args.periods,
        "bolus_poll": args.bolus_polls,
        "read_policy": [_READ_POLICIES[v] for v in args.read_policies],
        "invocation_kind": [_INVOCATION_KINDS[v]
                            for v in args.invocation_kinds],
    }
    axes.update(session.fault_axes())
    try:
        schemes = scheme_grid(case_study_scheme, **axes)
    except ValueError as exc:
        print(f"bad grid: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.server:
        from repro.mc.portfolio import portfolio_jobs

        return _forward_jobs(session, args.server, portfolio_jobs(
            pim, schemes,
            input_channel="m_BolusReq",
            output_channel="c_StartInfusion",
            deadline_ms=args.deadline,
            measure_suprema=args.suprema,
            max_states=args.max_states))
    partial = []
    try:
        outcome = session.portfolio(
            pim, schemes,
            input_channel="m_BolusReq",
            output_channel="c_StartInfusion",
            deadline_ms=args.deadline,
            measure_suprema=args.suprema,
            reuse=args.reuse,
            prune_dominated=args.prune_dominated,
            on_result=partial.append)
    except KeyboardInterrupt:
        # The worker pool shuts down on the sweep's own unwind —
        # summarize whatever committed before the interrupt.
        print(f"\ninterrupted — {len(partial)}/{len(schemes)} "
              f"schemes finished:", file=sys.stderr)
        for row in sorted(partial, key=lambda r: r.index):
            print(f"  {row.summary()}", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(render_portfolio(outcome, deadline_ms=args.deadline))
    if args.faults:
        # Fault axes were swept — add the Table-I fault column.
        print()
        print(render_fault_tolerance(outcome,
                                     deadline_ms=args.deadline))
    return _rows_exit_code([row.row() for row in outcome.results])


def _monitor_exit_code(rows: "list[dict]") -> int:
    """0 / 1 / 2 from monitor verdict rows (local or daemon)."""
    if any(row.get("status", "ok") != "ok" for row in rows):
        return EXIT_ERROR
    if not rows or not all(row.get("conforming") for row in rows):
        return EXIT_VERDICT_FAIL
    return EXIT_OK


def _cmd_monitor(args: argparse.Namespace) -> int:
    import json

    from repro.monitor import MonitorError, events_from_jsonl

    session = _session(args, monitor_max_states=args.max_states)
    try:
        fault_values = session.fault_values()
    except ValueError as exc:
        print(f"--faults: {exc}", file=sys.stderr)
        return EXIT_ERROR
    names, traces = [], []
    for path in (args.files or ["-"]):
        try:
            if path == "-":
                lines = sys.stdin.read().splitlines()
                names.append("<stdin>")
            else:
                with open(path) as handle:
                    lines = handle.read().splitlines()
                names.append(path)
            traces.append(events_from_jsonl(lines))
        except (OSError, MonitorError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_ERROR
    requirement = ("m_BolusReq", "c_StartInfusion", args.deadline)
    if args.server:
        from repro.service.client import ServiceError

        try:
            with session.serve_client(args.server) as client:
                outcome = client.monitor(
                    traces,
                    pim_factory="repro.apps.infusion:"
                                "build_infusion_pim",
                    scheme_kwargs=fault_values or None,
                    requirement=requirement)
        except (ServiceError, OSError) as exc:
            print(f"server {args.server}: {type(exc).__name__}: "
                  f"{exc}", file=sys.stderr)
            return EXIT_ERROR
        rows = outcome.ordered_rows()
        for name, row in zip(names, rows):
            print(json.dumps({"trace": name, **row}))
        return _monitor_exit_code(rows)
    try:
        verdicts = session.monitor(
            traces, pim=build_infusion_pim(),
            scheme=case_study_scheme(**fault_values),
            requirement=requirement)
    except KeyboardInterrupt:
        print("\ninterrupted — no verdict", file=sys.stderr)
        return EXIT_INTERRUPTED
    for name, verdict in zip(names, verdicts):
        print(json.dumps({"trace": name, **verdict}))
    return _monitor_exit_code(verdicts)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.scheduler import JobScheduler
    from repro.service.server import VerificationServer

    if args.unix is not None and args.port is not None:
        print("pass either --port or --unix, not both",
              file=sys.stderr)
        return EXIT_ERROR
    scheduler = JobScheduler(
        jobs=args.jobs,
        executor=args.executor,
        max_states=args.max_states,
        abstraction=args.abstraction,
        cache_entries=args.cache_entries,
        dispatch_threads=args.dispatch_threads,
        min_idle=args.min_idle,
        recycle_after_executions=args.recycle_after,
        job_timeout=args.job_timeout)
    if args.unix is not None:
        server = VerificationServer(scheduler, path=args.unix)
    else:
        port = args.port if args.port is not None else 7315
        server = VerificationServer(scheduler, host=args.host,
                                    port=port)

    async def run() -> None:
        await server.start()
        if isinstance(server.address, tuple):
            host, port = server.address
            print(f"listening on {host}:{port}", flush=True)
        else:
            print(f"listening on unix:{server.address}", flush=True)
        await server.serve()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        # The loop's own SIGINT handler normally drains first; this
        # only triggers when the interrupt lands outside the loop.
        pass
    print("server drained, bye", flush=True)
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> int:
    table = run_case_study(trials=args.trials, seed=args.seed,
                           max_states=args.max_states)
    print(table.render())
    return 0 if table.shape_holds else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    pim = build_infusion_pim()
    scheme = case_study_scheme()
    monitor_session = None
    listener = None
    if args.monitor:
        from repro.monitor import MonitorSession

        session = _session(args, monitor_max_states=20_000)
        model = session.monitor_model(pim=pim, scheme=scheme)
        monitor_session = MonitorSession(
            model, requirement=("m_BolusReq", "c_StartInfusion",
                                REQ1_DEADLINE_MS))
        listener = monitor_session.observe
    measured = simulate_trials(pim, scheme, trials=args.trials,
                               seed=args.seed,
                               trace_listener=listener)
    print(f"requests={measured.requests} responses={measured.responses} "
          f"timeouts={measured.timeouts}")
    print(f"M-C delay:    {measured.mc}")
    print(f"Input-Delay:  {measured.input}")
    print(f"Output-Delay: {measured.output}")
    print(f"platform:     {measured.stats.summary()}")
    violations = measured.req_violations(REQ1_DEADLINE_MS)
    print(f"REQ1 violations: {violations}/{len(measured.timings)}")
    if monitor_session is not None:
        verdict = monitor_session.verdict()
        state = "conforming" if verdict["conforming"] \
            else "NON-CONFORMING"
        print(f"monitor: {state} "
              f"({verdict['observed']} boundary events checked)")
        if monitor_session.deviation is not None:
            print(monitor_session.deviation.describe())
        if not verdict["conforming"]:
            return EXIT_VERDICT_FAIL
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    policy = ReadPolicy.READ_ALL if args.policy == "read-all" \
        else ReadPolicy.READ_ONE
    result = fig3_scenario(policy)
    print(f"Fig. 3 scenario under {policy.value}:")
    print(result.rendered())
    print("\nreads per invocation:")
    for invocation, reads in sorted(result.reads_per_invocation.items()):
        shown = ", ".join(reads) if reads else "Null"
        print(f"  invocation {invocation}: {shown}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    pim = build_infusion_pim()
    if args.model == "pim":
        network = pim.network
    else:
        network = transform(pim, case_study_scheme()).network
    if args.format == "dot":
        print(network_to_dot(network))
    elif args.format == "uppaal":
        print(network_to_uppaal_xml(network))
    elif args.format == "blocks":
        if args.model == "pim":
            print("the blocks view requires the PSM (--model psm)",
                  file=sys.stderr)
            return 2
        print(render_blocks(transform(pim, case_study_scheme())))
    else:
        print(network_summary(network))
    return 0


def _cmd_scheme(_args: argparse.Namespace) -> int:
    print(case_study_scheme().describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-timing",
        description="Platform-specific timing verification framework "
                    "(DATE 2015 reproduction)")
    parser.add_argument(
        "--zone-backend",
        choices=BACKEND_CHOICES,
        default=None,
        help="DBM kernel for all model checking (default: auto — "
             "the compiled C kernel when built and the model fits its "
             "clock limit, else the pure-Python reference; aliases: "
             "python/list = reference, c = native; also settable via "
             "REPRO_ZONE_BACKEND)")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for portfolio sweeps and the serve "
             "daemon's process pool (every exploration itself is "
             "single-threaded; default: run jobs inline; also "
             "settable via REPRO_JOBS)")
    parser.add_argument(
        "--abstraction", choices=["extra_m", "extra_lu"], default=None,
        help="zone extrapolation operator for all model checking "
             "(default: extra_m — global max constants, the published "
             "seed behavior; extra_lu switches to per-location "
             "Extra+_LU bounds: identical verdicts, Lemma-2 bounds "
             "and suprema, but much smaller zone graphs — "
             "recommended for portfolio sweeps; also settable via "
             "REPRO_ABSTRACTION)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="full verification pipeline")
    p_verify.add_argument("--deadline", type=int,
                          default=REQ1_DEADLINE_MS)
    p_verify.add_argument("--max-states", type=int, default=2_000_000)
    p_verify.add_argument("--suprema", action="store_true",
                          help="also measure exact PSM delay suprema")
    p_verify.add_argument("--faults", type=_parse_faults, default=None,
                          metavar="SPEC",
                          help="fault axes for the scheme, e.g. "
                               "k=1,replicas=2,jitter=2 (k: message-"
                               "loss/re-execution budget; replicas: "
                               "task replication with majority "
                               "voting; jitter: ±ε ms clock envelope)")
    p_verify.add_argument("--server", metavar="ADDR", default=None,
                          help="forward to a running 'repro serve' "
                               "daemon instead of verifying locally "
                               "(ADDR: host:port or a unix socket "
                               "path); repeated equivalent runs are "
                               "answered from the server's verdict "
                               "cache")
    p_verify.set_defaults(fn=_cmd_verify)

    p_port = sub.add_parser(
        "portfolio",
        help="verify a scheme grid concurrently (design-space sweep)",
        description="Sweep the case-study platform over a cartesian "
                    "grid of scheme parameters and verify every "
                    "candidate concurrently over one shared worker "
                    "pool.  Grid syntax: each --<axis> flag takes one "
                    "or more values; the portfolio is the cartesian "
                    "product (e.g. --buffer-sizes 2 5 --periods 50 "
                    "100 gives 4 schemes).  The default grid is the "
                    "benchmarked 16-scheme sweep.")
    p_port.add_argument("--buffer-sizes", type=int, nargs="+",
                        default=[2, 5], metavar="N",
                        help="io-buffer sizes to sweep (default: 2 5)")
    p_port.add_argument("--periods", type=int, nargs="+",
                        default=[50, 100], metavar="MS",
                        help="invocation periods in ms "
                             "(default: 50 100)")
    p_port.add_argument("--bolus-polls", type=int, nargs="+",
                        default=[190, 380], metavar="MS",
                        help="bolus-input polling intervals in ms "
                             "(default: 190 380)")
    p_port.add_argument("--read-policies", nargs="+",
                        choices=sorted(_READ_POLICIES),
                        default=["read-all", "read-one"],
                        help="io read policies (default: both)")
    p_port.add_argument("--invocation-kinds", nargs="+",
                        choices=sorted(_INVOCATION_KINDS),
                        default=["periodic"],
                        help="code invocation kinds "
                             "(default: periodic)")
    p_port.add_argument("--deadline", type=int,
                        default=REQ1_DEADLINE_MS)
    p_port.add_argument("--max-states", type=int, default=2_000_000,
                        help="per-scheme exploration budget")
    p_port.add_argument("--suprema", action="store_true",
                        help="also measure exact PSM delay suprema "
                             "per scheme")
    p_port.add_argument("--faults", type=_parse_faults, default=None,
                        metavar="SPEC",
                        help="fault axes to sweep, '|'-separated per "
                             "key, e.g. k=0|1,replicas=1|2,jitter=0 "
                             "— each combination multiplies the grid; "
                             "a fault-tolerance table (largest "
                             "tolerated k + Lemma-2 inflation per "
                             "base scheme) follows the portfolio "
                             "table")
    p_port.add_argument("--reuse", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="answer schemes whose compiled model is "
                             "canonically identical (up to "
                             "semantically-inert buffer capacities) "
                             "from a verdict memo instead of "
                             "re-exploring — rows stay bit-identical; "
                             "--no-reuse forces every scheme through "
                             "its own sweep (default: reuse on)")
    p_port.add_argument("--prune-dominated", action="store_true",
                        help="derive Theorem-1 verdicts for grid "
                             "points dominated along the monotone "
                             "poll/period axes from a verified harder "
                             "neighbor (rows carry derived=<donor> "
                             "provenance; failures never transfer — "
                             "dominated points re-run when the donor "
                             "earns no guarantee)")
    p_port.add_argument("--server", metavar="ADDR", default=None,
                        help="forward the whole grid to a running "
                             "'repro serve' daemon (ADDR: host:port "
                             "or a unix socket path); rows stream "
                             "back as JSON lines tagged with their "
                             "origin (explored/memo/cancelled)")
    p_port.set_defaults(fn=_cmd_portfolio)

    p_mon = sub.add_parser(
        "monitor",
        help="check recorded traces for timed conformance",
        description="Replay recorded event traces (JSONL, one event "
                    "per line — the repro.monitor.events schema) "
                    "through the online conformance monitor and "
                    "report, per trace, whether every boundary event "
                    "arrived at a time the verified PSM admits.  One "
                    "session runs per input file (stdin when no file "
                    "is given); verdicts print as JSON rows.  With "
                    "--server the traces stream to a running 'repro "
                    "serve' daemon, which keeps the precompiled "
                    "monitor model warm across requests.")
    p_mon.add_argument("files", nargs="*", metavar="TRACE",
                       help="JSONL trace files ('-' or none: stdin)")
    p_mon.add_argument("--deadline", type=int,
                       default=REQ1_DEADLINE_MS,
                       help="REQ1 deadline quoted in deviation "
                            "reports (ms)")
    p_mon.add_argument("--max-states", type=int, default=20_000,
                       help="zone-graph precompilation budget; the "
                            "monitor falls back to on-demand "
                            "stepping past it (default: 20000)")
    p_mon.add_argument("--faults", type=_parse_faults, default=None,
                       metavar="SPEC",
                       help="fault axes for the monitored scheme "
                            "(one value per axis, like verify)")
    p_mon.add_argument("--server", metavar="ADDR", default=None,
                       help="stream the traces to a running 'repro "
                            "serve' daemon instead of monitoring "
                            "locally")
    p_mon.set_defaults(fn=_cmd_monitor)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived verification daemon",
        description="Boot a verification daemon that keeps verdicts "
                    "and warm state across requests: a bounded "
                    "server-lifetime verdict cache (equivalent jobs "
                    "from any client resolve to one exploration + N "
                    "cache hits) and — under --executor process — a "
                    "pool of --jobs pre-forked warm workers that are "
                    "health-checked and recycled.  Clients connect "
                    "with 'repro verify/portfolio --server ADDR'.  "
                    "SIGTERM/SIGINT drain gracefully: running jobs "
                    "finish, queued ones return explicit cancelled "
                    "rows.  The framed "
                    "protocol accepts pickled jobs by value, so only "
                    "listen where every client is trusted (the unix "
                    "socket is created mode 0700).")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="TCP bind host (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None,
                         metavar="PORT",
                         help="TCP port (default: 7315; 0 = "
                              "ephemeral; the bound address is "
                              "printed on stdout)")
    p_serve.add_argument("--unix", metavar="PATH", default=None,
                         help="listen on a unix socket instead of TCP")
    p_serve.add_argument("--max-states", type=int, default=2_000_000,
                         help="per-job exploration budget")
    p_serve.add_argument("--cache-entries", type=int, default=1024,
                         metavar="N",
                         help="verdict-cache capacity in memo entries "
                              "(LRU-evicted; default: 1024)")
    p_serve.add_argument("--dispatch-threads", type=int, default=8,
                         metavar="N",
                         help="concurrent job dispatchers "
                              "(default: 8)")
    p_serve.add_argument("--executor", choices=["thread", "process"],
                         default="thread",
                         help="where jobs run (default: thread — "
                              "in the daemon, on its dispatch "
                              "threads; process — on a pool of --jobs "
                              "pre-forked warm workers, default 2)")
    p_serve.add_argument("--min-idle", type=int, default=None,
                         metavar="N",
                         help="warm spares kept pre-forked "
                              "(default: the pool size)")
    p_serve.add_argument("--recycle-after", type=int, default=None,
                         metavar="N",
                         help="retire a worker after N jobs to bound "
                              "per-process memory growth "
                              "(default: never)")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="kill and replace a worker whose job "
                              "exceeds this wall time "
                              "(default: unlimited)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_table = sub.add_parser("table1", help="regenerate Table I")
    p_table.add_argument("--trials", type=int, default=60)
    p_table.add_argument("--seed", type=int, default=2015)
    p_table.add_argument("--max-states", type=int, default=2_000_000)
    p_table.set_defaults(fn=_cmd_table1)

    p_sim = sub.add_parser("simulate", help="measured half only")
    p_sim.add_argument("--trials", type=int, default=60)
    p_sim.add_argument("--seed", type=int, default=2015)
    p_sim.add_argument("--monitor", action="store_true",
                       help="self-check the run: a live conformance "
                            "monitor observes every boundary event "
                            "as the simulation records it and the "
                            "verdict prints after the delay summary "
                            "(exit 2 on non-conformance)")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_tl = sub.add_parser("timeline", help="Fig. 3 timeline")
    p_tl.add_argument("--policy", choices=["read-one", "read-all"],
                      default="read-all")
    p_tl.set_defaults(fn=_cmd_timeline)

    p_render = sub.add_parser("render", help="dump models")
    p_render.add_argument("--model", choices=["pim", "psm"],
                          default="pim")
    p_render.add_argument("--format",
                          choices=["summary", "dot", "blocks",
                                   "uppaal"],
                          default="summary")
    p_render.set_defaults(fn=_cmd_render)

    p_scheme = sub.add_parser("scheme", help="show the case-study scheme")
    p_scheme.set_defaults(fn=_cmd_scheme)
    return parser


def _check_environment() -> None:
    """Fail fast on malformed ``REPRO_*`` variables.

    Every resolver validates lazily at first use; running them here
    turns a mid-pipeline stack trace into a one-line startup error.
    """
    from repro.mc.pool import resolve_jobs
    from repro.ta.bounds import resolve_abstraction
    from repro.zones.backend import requested_backend

    resolve_jobs(None)
    resolve_abstraction(None)
    requested_backend(None)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_environment()
        if args.zone_backend is not None:
            set_backend(args.zone_backend)
        if args.jobs is not None:
            set_default_jobs(args.jobs)
        if args.abstraction is not None:
            set_abstraction(args.abstraction)
        return args.fn(args)
    except EnvVarError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        # Commands catch this themselves to summarize partial work;
        # this net only covers interrupts outside those windows.
        print("\ninterrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())

"""Cross-model portfolio verification: whole scheme sweeps, one pool.

The paper's workflow verifies one implementation scheme at a time:
transform the PIM for the chosen scheme, check the Section-V
constraints, derive the Lemma-1/2 bounds, re-verify the deadline on
the PSM.  Design-space exploration — "which buffer size / polling
interval / period combination still meets REQ1?" — needs that whole
pipeline over *many* candidate schemes, and the schemes are
independent jobs.

:class:`PortfolioVerifier` runs N ``(PIM, scheme, queries)`` jobs
along one path:

* **Shared PIM obligations, in the parent.**  Step 1 (``PIM ⊨ P(Δ)``)
  and the Lemma-2 internal supremum are scheme-independent, so each
  distinct (PIM, requirement, budget) obligation is computed once and
  handed to every job that shares it.
* **Memo lookup for every job, in the parent** (``reuse=True``): a
  :class:`~repro.mc.memo.VerdictMemo` keyed on the canonical
  capacity-erased hash of each job's compiled PSM
  (:func:`~repro.ta.rename.canonical_network`) plus every
  verdict-relevant knob.  Jobs whose keys collide run one leader per
  key; followers resolve against the entry the leader's row leaves
  behind — the occupancy certificate in :mod:`repro.mc.memo` makes
  the reuse *exact*, so memoized rows keep the bit-identity contract.
* **One job, one single-threaded exploration pipeline**
  (:meth:`PortfolioVerifier.run_job`): inline when ``jobs <= 1``,
  otherwise on one :class:`~repro.mc.pool.WarmWorkerPool` of ``jobs``
  processes.  A worker crash or a budget blow-up becomes that job's
  structured error row; its siblings complete normally.
* **Deterministic job-ordered commit.**  Rows land in a slot per
  submission index, so :meth:`PortfolioVerifier.run` returns them in
  job order no matter which worker finishes first.

Bit-identity contract: each job runs *exactly* the sweeps of
:meth:`repro.core.framework.TimingVerificationFramework.verify` — the
same single PSM sweep
(:meth:`~repro.core.framework.TimingVerificationFramework.psm_sweep`)
answering steps 3, 5 and 6 and, on request, the suprema — so every
bound, verdict, witness, sup and per-sweep states/transitions tally
equals the sequential per-scheme run, for every worker count and
backend (``tests/test_portfolio.py`` pins the matrix).

``prune_dominated=True`` derives dominated grid points' Theorem-1
verdicts from a verified neighbor along the Lemma-1-monotone axes
(poll, period) instead of exploring them; derived rows carry
``derived_from`` provenance and rest on the documented monotonicity
assumption (see ``docs/PERFORMANCE.md``), which is why the pass is
opt-in.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, TYPE_CHECKING

from repro.mc.explorer import ExplorationLimit
from repro.mc.memo import VerdictMemo
from repro.mc.pool import EngineConfig, WarmWorkerPool, resolve_jobs

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids core cycle
    from repro.core.framework import VerificationReport
    from repro.core.pim import PIM
    from repro.core.psm import PSM
    from repro.core.scheme import ImplementationScheme
    from repro.mc.memo import MemoEntry
    from repro.mc.observers import BoundedResponseResult, DelayBound
    from repro.ta.rename import CanonicalModel

__all__ = [
    "PortfolioJob",
    "PortfolioOutcome",
    "PortfolioResult",
    "PortfolioVerifier",
    "memo_entry_from_row",
    "memoized_result",
    "portfolio_jobs",
]


@dataclass(frozen=True)
class PortfolioJob:
    """One tenant of the portfolio: a (PIM, scheme, requirement) triple.

    ``max_states`` is this job's private exploration budget (``None``
    inherits the verifier default); exhausting it fails only this job.
    """

    name: str
    pim: "PIM"
    scheme: "ImplementationScheme"
    input_channel: str
    output_channel: str
    deadline_ms: int
    min_interarrival_ms: int | None = None
    measure_suprema: bool = False
    include_progress: bool = False
    max_states: int | None = None


def portfolio_jobs(pim: "PIM",
                   schemes: Sequence["ImplementationScheme"], *,
                   input_channel: str, output_channel: str,
                   deadline_ms: int,
                   **job_kwargs) -> list[PortfolioJob]:
    """One job per scheme, named after the scheme (grid sweeps)."""
    return [
        PortfolioJob(name=scheme.name, pim=pim, scheme=scheme,
                     input_channel=input_channel,
                     output_channel=output_channel,
                     deadline_ms=deadline_ms, **job_kwargs)
        for scheme in schemes
    ]


@dataclass
class PortfolioResult:
    """Structured verification row for one scheme of the portfolio."""

    index: int
    name: str
    scheme: "ImplementationScheme"
    deadline_ms: int
    #: ``"ok"``, ``"budget-exceeded"`` or ``"error"``.
    status: str = "ok"
    error: str | None = None
    #: The full per-scheme report (partial when the job failed).
    report: "VerificationReport | None" = None
    wall_seconds: float = 0.0
    #: Donor job whose memoized verdicts this row reuses (``reuse=True``
    #: and the canonical keys matched); ``None`` = the row's own sweep.
    memo_hit: str | None = None
    #: Dominating neighbor this row's Theorem-1 verdict was derived
    #: from (``prune_dominated=True``); ``None`` = verdict explored.
    derived_from: str | None = None
    #: Occupancy maxima of this job's own complete PSM sweep —
    #: internal evidence a worker ships back so the parent can
    #: populate its memo (never serialized into :meth:`row`).
    occupancy: "dict[str, int] | None" = None

    @classmethod
    def failed(cls, index: int, job: PortfolioJob, status: str,
               error: str) -> "PortfolioResult":
        """A row for a job that never produced a report."""
        return cls(index=index, name=job.name, scheme=job.scheme,
                   deadline_ms=job.deadline_ms, status=status,
                   error=error)

    # -- flattened row accessors ---------------------------------------
    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def bounds(self):
        return self.report.bounds if self.report else None

    @property
    def relaxed_deadline_ms(self) -> int | None:
        return self.bounds.relaxed if self.bounds else None

    @property
    def constraints_hold(self) -> bool | None:
        if self.report is None or self.report.constraints is None:
            return None
        return self.report.constraints.all_hold

    @property
    def original_holds(self) -> bool | None:
        """``PSM ⊨ P(Δ_mc)`` — pass/fail against the *original* deadline."""
        result = self.report.psm_original_result if self.report else None
        return result.holds if result is not None else None

    @property
    def relaxed_holds(self) -> bool | None:
        """``PSM ⊨ P(Δ'_mc)`` — pass/fail against the Lemma-2 deadline."""
        result = self.report.psm_relaxed_result if self.report else None
        return result.holds if result is not None else None

    @property
    def guarantee(self) -> bool:
        """Theorem 1's conclusion for this scheme."""
        return bool(self.report
                    and self.report.implementation_guarantee)

    @property
    def sups(self) -> "dict[str, DelayBound]":
        return self.report.symbolic if self.report else {}

    @property
    def states(self) -> int | None:
        """States of this job's PSM sweep (steps 5+6, + the suprema).

        A memoized row keeps its donor's tallies — the occupancy
        certificate makes the two zone graphs identical, so they *are*
        this scheme's tallies.  A dominance-derived row ran no sweep
        at all, so its tallies are ``None``.
        """
        if self.derived_from is not None:
            return None
        result = self.report.psm_relaxed_result if self.report else None
        return result.visited if result is not None else None

    @property
    def transitions(self) -> int | None:
        if self.derived_from is not None:
            return None
        result = self.report.psm_relaxed_result if self.report else None
        return result.transitions if result is not None else None

    def row(self) -> dict:
        """JSON-ready summary (the benchmark record's shape)."""
        out = {
            "name": self.name,
            "status": self.status,
            "deadline_ms": self.deadline_ms,
            "relaxed_ms": self.relaxed_deadline_ms,
            "constraints_hold": self.constraints_hold,
            "original_holds": self.original_holds,
            "relaxed_holds": self.relaxed_holds,
            "guarantee": self.guarantee,
            "states": self.states,
            "transitions": self.transitions,
            "seconds": round(self.wall_seconds, 4),
        }
        if self.error:
            out["error"] = self.error
        if self.sups:
            out["sups"] = {name: str(bound)
                           for name, bound in self.sups.items()}
        # Provenance keys only when set: memo-off rows stay
        # byte-identical to the pre-reuse record shape.
        if self.memo_hit is not None:
            out["memo_hit"] = self.memo_hit
        if self.derived_from is not None:
            out["derived_from"] = self.derived_from
        return out

    def summary(self) -> str:
        if not self.ok:
            return f"{self.name}: {self.status} ({self.error})"
        verdict = "guaranteed" if self.guarantee else "NOT guaranteed"
        orig = {True: "holds", False: "fails", None: "?"}[
            self.original_holds]
        if self.memo_hit is not None:
            origin = f"memo={self.memo_hit}"
        elif self.derived_from is not None:
            origin = f"derived={self.derived_from}"
        else:
            origin = f"{self.states} states"
        return (f"{self.name}: Δ'={self.relaxed_deadline_ms}ms "
                f"P(Δ') {verdict}, P({self.deadline_ms}) {orig}, "
                f"{origin}, {self.wall_seconds:.2f}s")


@dataclass
class PortfolioOutcome:
    """All rows of one portfolio run, in submission order."""

    results: list[PortfolioResult] = field(default_factory=list)
    #: Resolved worker-process count (``None`` = every job inline).
    jobs: int | None = None
    wall_seconds: float = 0.0
    #: Whether the cross-scheme verdict memo was consulted.
    reuse: bool = False
    #: Rows that ran their own exploration pipeline.
    explored: int = 0
    #: Rows answered from the verdict memo (``memo_hit`` set).
    memoized: int = 0
    #: Rows derived by dominance pruning (``derived_from`` set).
    pruned: int = 0

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index) -> PortfolioResult:
        return self.results[index]

    def __len__(self) -> int:
        return len(self.results)

    @property
    def all_ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def guaranteed(self) -> list[PortfolioResult]:
        """Schemes Theorem 1 accepts (constraints + relaxed deadline)."""
        return [r for r in self.results if r.guarantee]

    def summary(self) -> str:
        lines = [
            f"portfolio: {len(self.results)} schemes, "
            f"{len(self.guaranteed)} guaranteed, "
            f"workers={self.jobs or 'inline'}, "
            f"{self.wall_seconds:.2f}s",
        ]
        if self.reuse or self.memoized or self.pruned:
            lines.append(
                f"  reuse: {self.explored} explored, "
                f"{self.memoized} memoized, {self.pruned} pruned")
        lines.extend(f"  {result.summary()}" for result in self.results)
        return "\n".join(lines)

    def tally_reuse(self) -> None:
        """Recompute explored/memoized/pruned from the committed rows."""
        rows = [r for r in self.results if r is not None]
        self.memoized = sum(1 for r in rows if r.memo_hit is not None)
        self.pruned = sum(1 for r in rows
                          if r.derived_from is not None)
        self.explored = len(rows) - self.memoized - self.pruned


class PortfolioVerifier:
    """Verify a portfolio of implementation schemes.

    jobs:
        Worker processes for the sweep (resolved like every other
        ``jobs`` in the library: explicit > ``set_default_jobs`` >
        ``REPRO_JOBS``).  ``None`` or ``1`` runs every job inline in
        this process; ``N >= 2`` runs them on one
        :class:`~repro.mc.pool.WarmWorkerPool` of ``N`` processes.
        Each worker replays this process's backend/abstraction
        (:class:`~repro.mc.pool.EngineConfig`) and runs the same
        single-threaded :meth:`run_job` pipeline, so rows are
        identical for every worker count.
    max_states:
        Default per-job exploration budget
        (:class:`PortfolioJob.max_states` overrides it per scheme).
    abstraction:
        Extrapolation operator for every sweep of every job
        (``"extra_m"``/``"extra_lu"``; ``None`` defers to
        ``set_abstraction``/``REPRO_ABSTRACTION``).  Rows are
        verdict-, bound- and sup-identical either way; ``extra_lu``
        shrinks the per-scheme zone graphs — the blow-up corners of a
        grid most of all.
    reuse:
        Consult the cross-scheme :class:`~repro.mc.memo.VerdictMemo`
        before running any job: jobs whose compiled PSMs have the
        same canonical capacity-erased hash (and the same requirement,
        deadlines, budget, backend and abstraction) share one
        exploration, and the occupancy certificate keeps the reuse
        *exact* — memoized rows carry the donor's verdicts, bounds,
        sups and tallies, which provably equal their own, plus
        ``memo_hit`` provenance.  Off by default so the library
        default reproduces the per-scheme sweep counts exactly; the
        CLI turns it on.
    prune_dominated:
        Opt-in Lemma-1 dominance planner: grid points that differ
        from a verified neighbor only by *more* slack on the
        property-tested monotone axes (polling interval, period)
        inherit the neighbor's Theorem-1 verdict instead of
        exploring, with ``derived_from`` provenance and their own
        analytic Lemma-1/2 bounds.  Rests on the documented
        monotonicity assumption (``docs/PERFORMANCE.md``); derived
        rows have no states/transitions tallies.
    memo:
        The verdict memo to consult (default: a private one that
        persists across :meth:`run` calls — content-addressed, so
        staleness cannot arise).  An injected memo (the service's
        bounded server-lifetime cache) is shared as-is.
    """

    def __init__(self, *, jobs: int | None = None,
                 max_states: int = 1_000_000,
                 abstraction: str | None = None,
                 reuse: bool = False,
                 prune_dominated: bool = False,
                 memo: VerdictMemo | None = None):
        self.jobs = jobs
        self.max_states = max_states
        self.abstraction = abstraction
        self.reuse = reuse
        self.prune_dominated = prune_dominated
        self._memo = memo if memo is not None else VerdictMemo()

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[PortfolioJob], *,
            on_result: Callable[[PortfolioResult], None] | None = None,
            ) -> PortfolioOutcome:
        """Verify every job; rows come back in submission order.

        ``on_result`` (optional) observes rows as they commit — in
        *completion* order, on the calling thread; the returned
        outcome stays job-ordered either way.  An exception raised by
        the callback never disturbs the jobs themselves: every row
        still completes, and the first callback error re-raises after
        the run.
        """
        job_list = list(jobs)
        started = time.perf_counter()
        resolved = resolve_jobs(self.jobs)
        results: list[PortfolioResult | None] = [None] * len(job_list)
        callback_errors: list[Exception] = []

        def commit(result: PortfolioResult) -> None:
            results[result.index] = result
            if on_result is not None:
                try:
                    on_result(result)
                except Exception as exc:
                    if not callback_errors:
                        callback_errors.append(exc)

        obligations = self._obligations(job_list)
        for index, job in enumerate(job_list):
            status, value = obligations[index]
            if status != "ok":
                # The shared obligation itself failed: every sharer
                # gets the same structured failure row.
                commit(PortfolioResult.failed(index, job, status,
                                              value))
        deferred = (self._dominance_plan(job_list)
                    if self.prune_dominated else {})
        sweep = _Sweep(self, job_list, obligations, commit,
                       width=min(resolved or 1, len(job_list) or 1))
        try:
            sweep.resolve([i for i in range(len(job_list))
                           if results[i] is None and i not in deferred])
            leftovers: list[int] = []
            for index in sorted(deferred):
                if results[index] is not None:
                    continue
                donor = next(
                    (results[d] for d in deferred[index]
                     if results[d] is not None and results[d].ok
                     and results[d].guarantee), None)
                if donor is None:
                    # No dominating neighbor earned a guarantee:
                    # monotonicity transfers success only, so the
                    # dominated point must run its own pipeline.
                    leftovers.append(index)
                    continue
                commit(self._derive_result(
                    index, job_list[index], donor,
                    obligations[index][1]))
            sweep.resolve(leftovers)
        finally:
            sweep.close()
        if callback_errors:
            raise callback_errors[0]
        outcome = PortfolioOutcome(
            results=list(results), jobs=resolved, reuse=self.reuse,
            wall_seconds=time.perf_counter() - started)
        outcome.tally_reuse()
        return outcome

    def verify_schemes(self, pim: "PIM",
                       schemes: Sequence["ImplementationScheme"], *,
                       input_channel: str, output_channel: str,
                       deadline_ms: int,
                       on_result: "Callable[[PortfolioResult], None] | None" = None,
                       **job_kwargs) -> PortfolioOutcome:
        """Grid front door: one job per scheme, then :meth:`run`."""
        return self.run(portfolio_jobs(
            pim, schemes, input_channel=input_channel,
            output_channel=output_channel, deadline_ms=deadline_ms,
            **job_kwargs), on_result=on_result)

    def run_job(self, job: PortfolioJob, *, index: int = 0,
                obligation: tuple | None = None,
                psm: "PSM | None" = None,
                model: "CanonicalModel | None" = None,
                ) -> PortfolioResult:
        """Run one job's exploration pipeline on the calling thread.

        The Section-VI pipeline for one scheme, mirroring
        ``TimingVerificationFramework.verify`` step by step.  Callers
        that already hold the job's ``(pim_result, internal)``
        ``obligation``, its compiled ``psm`` or its canonical
        ``model`` pass them in instead of recomputing.  The memo is
        not consulted here — callers look it up first and record the
        row after; with ``reuse`` the row carries the occupancy
        evidence that recording needs.  Failures come back as
        structured error rows.
        """
        from repro.core.delays import bounds_from_internal
        from repro.core.framework import (
            TimingVerificationFramework,
            VerificationReport,
        )

        started = time.perf_counter()
        report = VerificationReport(
            input_channel=job.input_channel,
            output_channel=job.output_channel,
            deadline_ms=job.deadline_ms)
        result = PortfolioResult(
            index=index, name=job.name, scheme=job.scheme,
            deadline_ms=job.deadline_ms, report=report)
        framework = TimingVerificationFramework(
            max_states=job.max_states or self.max_states,
            abstraction=self.abstraction)
        try:
            if obligation is None:
                obligation = _compute_obligation(job, framework)
            report.pim_result, internal = obligation
            if psm is None:
                psm = framework.transform(job.pim, job.scheme)
            report.psm = psm
            report.bounds = bounds_from_internal(
                job.scheme, job.input_channel, job.output_channel,
                internal)
            track: Sequence[str] = ()
            if self.reuse:
                from repro.mc.memo import (
                    occupancy_targets,
                    psm_canonical_model,
                )

                if model is None:
                    model = psm_canonical_model(psm)
                if model.erased:
                    track = occupancy_targets(model)
            maxima, complete = self._explore_job(
                job, framework, report, psm, track)
            if complete and maxima:
                result.occupancy = dict(maxima)
        except ExplorationLimit as exc:
            result.status = "budget-exceeded"
            result.error = str(exc)
        except Exception as exc:
            # Fault isolation is the contract: *any* job failure —
            # invalid scheme (SchemeError/ValueError), model error,
            # or an outright bug on a malformed job — must become a
            # structured row, never a dead sweep.
            result.status = "error"
            result.error = f"{type(exc).__name__}: {exc}"
        result.wall_seconds = time.perf_counter() - started
        return result

    def run_on_pool(self, pool: WarmWorkerPool, job: PortfolioJob, *,
                    index: int = 0,
                    obligation: tuple | None = None) -> PortfolioResult:
        """:meth:`run_job` on a worker of ``pool``, which replays this
        process's backend and abstraction first.  A worker that dies
        mid-job (or a job that cannot be shipped) becomes this job's
        error row; the pool replaces the worker."""
        task = _WorkerJob(
            engine=EngineConfig.capture(abstraction=self.abstraction),
            max_states=self.max_states, reuse=self.reuse, index=index,
            job=job, obligation=obligation)
        try:
            return pool.run(task)
        except Exception as exc:
            # Only Exception: a parent-side KeyboardInterrupt must
            # abort the sweep, not become a fake worker failure.
            return PortfolioResult.failed(
                index, job, "error",
                f"worker failed: {type(exc).__name__}: {exc}")

    def keyed(self, job: PortfolioJob,
              obligation: tuple) -> tuple | None:
        """The job's ``(psm, model, memo key)``, or ``None`` when the
        PSM cannot be compiled or keyed — the job then runs unkeyed
        and :meth:`run_job` turns the failure into its row."""
        from repro.core.delays import bounds_from_internal
        from repro.core.transform import transform
        from repro.mc.memo import psm_canonical_model

        try:
            psm = transform(job.pim, job.scheme)
            model = psm_canonical_model(psm)
            bounds = bounds_from_internal(
                job.scheme, job.input_channel, job.output_channel,
                obligation[1])
            key = self._memo_key(job, psm, model,
                                 [job.deadline_ms, bounds.relaxed])
        except Exception:
            return None
        return psm, model, key

    def _obligations(self, job_list: list[PortfolioJob]) -> list[tuple]:
        """Step 1 + the Lemma-2 internal sup, once per distinct
        (PIM, requirement, budget).

        Returns one ``(status, value)`` per job: ``("ok", (pim_result,
        internal))``, or a failure status (``budget-exceeded`` /
        ``error``) with its message.
        """
        from repro.core.framework import TimingVerificationFramework

        shared: dict[tuple, tuple] = {}
        out: list[tuple] = []
        for job in job_list:
            max_states = job.max_states or self.max_states
            key = (id(job.pim), job.input_channel, job.output_channel,
                   job.deadline_ms, max_states)
            value = shared.get(key)
            if value is None:
                framework = TimingVerificationFramework(
                    max_states=max_states, abstraction=self.abstraction)
                try:
                    value = ("ok", _compute_obligation(job, framework))
                except ExplorationLimit as exc:
                    value = ("budget-exceeded", str(exc))
                except Exception as exc:
                    value = ("error", f"{type(exc).__name__}: {exc}")
                shared[key] = value
            out.append(value)
        return out

    def _explore_job(self, job: PortfolioJob, framework, report,
                     psm, track: Sequence[str] = (),
                     ) -> "tuple[Mapping[str, int] | None, bool]":
        """Steps 3 + 5/6 (+ optional sups): the exploration half.

        :meth:`~repro.core.framework.TimingVerificationFramework.
        psm_sweep` — the one PSM sweep ``verify`` runs.  With
        ``track`` names that sweep also records occupancy maxima, a
        read-only observation
        (:func:`~repro.mc.queries.check_many`'s ``track_maxima``), so
        verdicts, traces and tallies are untouched.  Returns
        ``(maxima, complete)``; ``maxima`` is ``None`` when nothing
        was tracked.
        """
        outcome = framework.psm_sweep(
            report, psm, min_interarrival_ms=job.min_interarrival_ms,
            measure_suprema=job.measure_suprema,
            include_progress=job.include_progress, track_maxima=track)
        return outcome.maxima, outcome.complete

    def _memo_key(self, job: PortfolioJob, psm, model,
                  deadlines: list[int]) -> tuple:
        """Everything besides the canonical network that can change a
        verdict, a bound, a sup or a tally.

        Channel/variable names enter in canonical form so two
        renamed-but-isomorphic jobs still share a key.  The worker
        count is deliberately absent — rows are worker-count
        invariant (the pinned contract).
        """
        engine = EngineConfig.capture(abstraction=self.abstraction)

        def cid(name: str):
            try:
                return model.channel_id(name)
            except KeyError:
                return ("raw", name)

        def vid(name: str):
            # A flag the compiled network never reads or writes has no
            # canonical id; keying on its raw name is safe (it cannot
            # affect any verdict) if slightly conservative.
            try:
                return model.variable_id(name)
            except KeyError:
                return ("raw", name)

        from repro.core.delays import detection_bound

        detection = None
        if job.min_interarrival_ms is not None:
            # Constraint 1's analytic half compares each input's
            # worst-case (fault-inflated) detection against the
            # inter-arrival time.
            detection = tuple(sorted(
                (cid(channel), detection_bound(job.scheme, channel))
                for channel in job.pim.input_channels()))
        return (
            job.scheme.faults.signature(),
            model.digest,
            cid(job.input_channel), cid(job.output_channel),
            cid(psm.io_name(job.input_channel)),
            cid(psm.io_name(job.output_channel)),
            tuple(deadlines),
            job.min_interarrival_ms, detection,
            job.measure_suprema, job.include_progress,
            job.max_states or self.max_states,
            engine.backend, engine.abstraction,
            tuple(sorted(vid(flag) for flag in psm.miss_flags())),
            tuple(sorted(vid(v.overflow)
                         for v in psm.input_vars.values())),
            tuple(sorted(vid(v.overflow)
                         for v in psm.output_vars.values())),
            vid(psm.code_drop_flag),
        )

    # ------------------------------------------------------------------
    # Lemma-1 dominance pruning
    # ------------------------------------------------------------------
    def _dominance_plan(self, job_list: list[PortfolioJob],
                        ) -> dict[int, list[int]]:
        """Map each dominated job index to its candidate donors.

        Jobs group by everything *except* the Lemma-1-monotone slack
        axes (polling interval, period); within a group a point is
        deferred when some kept point has componentwise ≥ slack —
        larger boundary delays, a tighter relaxed deadline and slower
        sampling, i.e. the strictly harder configuration.  Kept points
        explore; deferred points later inherit a kept donor's verdict
        if (and only if) that donor earned the Theorem-1 guarantee.
        """
        groups: dict[tuple, list[tuple[int, tuple]]] = {}
        for index, job in enumerate(job_list):
            signature = _dominance_signature(
                job, job.max_states or self.max_states)
            if signature is None:
                continue
            key, slack = signature
            groups.setdefault(key, []).append((index, slack))
        deferred: dict[int, list[int]] = {}
        for members in groups.values():
            # Harder points first: any dominator of a point has a
            # componentwise-≥ slack vector, hence a ≥ sum, hence
            # appears earlier (equal sums dominate only when equal).
            members.sort(key=lambda item: (-sum(item[1]), item[0]))
            kept: list[tuple[int, tuple]] = []
            for index, slack in members:
                donors = [kept_index for kept_index, kept_slack in kept
                          if all(a >= b for a, b
                                 in zip(kept_slack, slack))]
                if donors:
                    deferred[index] = donors
                else:
                    kept.append((index, slack))
        return deferred

    def _derive_result(self, index: int, job: PortfolioJob,
                       donor: PortfolioResult,
                       obligation: tuple) -> PortfolioResult:
        """Row whose Theorem-1 verdict is inherited from a dominating
        donor, no exploration.

        The row keeps its *own* analytic Lemma-1/2 bounds (exact per
        scheme — the relaxed deadline column stays truthful); the
        donor contributes the constraint and relaxed-deadline verdicts
        under the documented monotonicity assumption.  The shared
        verdict objects may mention the donor's parameters in their
        witness text; ``derived_from`` records the provenance and the
        states/transitions tallies are withheld.
        """
        from repro.core.delays import bounds_from_internal
        from repro.core.framework import VerificationReport

        started = time.perf_counter()
        report = VerificationReport(
            input_channel=job.input_channel,
            output_channel=job.output_channel,
            deadline_ms=job.deadline_ms)
        result = PortfolioResult(
            index=index, name=job.name, scheme=job.scheme,
            deadline_ms=job.deadline_ms, report=report,
            derived_from=donor.name)
        try:
            report.pim_result, internal = obligation
            report.bounds = bounds_from_internal(
                job.scheme, job.input_channel, job.output_channel,
                internal)
            report.constraints = donor.report.constraints
            report.psm_relaxed_result = donor.report.psm_relaxed_result
        except Exception as exc:
            result.status = "error"
            result.error = f"{type(exc).__name__}: {exc}"
            result.derived_from = None
        result.wall_seconds = time.perf_counter() - started
        return result


class _Sweep:
    """One :meth:`PortfolioVerifier.run`'s dispatch state: the memo
    rounds, and the worker pool (forked on first use when
    ``width > 1``)."""

    def __init__(self, verifier: PortfolioVerifier,
                 job_list: list[PortfolioJob], obligations: list[tuple],
                 commit: Callable[[PortfolioResult], None], *,
                 width: int):
        self.verifier = verifier
        self.job_list = job_list
        self.obligations = obligations
        self.commit = commit
        self.width = width
        self.pool: WarmWorkerPool | None = None

    def resolve(self, indices: list[int]) -> None:
        """Run the given jobs: memo lookup for every one first, then
        rounds of one leader per memo key; followers resolve against
        the entry their leader's row leaves behind.

        A leader's entry need not cover every same-key follower (its
        occupancy may have reached its own smaller capacity), so each
        round commits every follower the memo now covers and runs one
        representative per key among the rest — every key shrinks by
        one member per round, so this terminates.
        """
        verifier = self.verifier
        memo = verifier._memo
        keyed: dict[int, tuple] = {}
        todo: list[int] = []
        for index in indices:
            if verifier.reuse:
                prepared = verifier.keyed(self.job_list[index],
                                          self.obligations[index][1])
                if prepared is not None:
                    if self._commit_memoized(index, prepared):
                        continue
                    keyed[index] = prepared
            todo.append(index)
        while todo:
            leaders: list[int] = []
            followers: list[int] = []
            seen: set = set()
            for index in todo:
                key = keyed[index][2] if index in keyed else None
                if key is not None and key in seen:
                    followers.append(index)
                    continue
                seen.add(key)
                leaders.append(index)
            for row in self._rows(leaders, keyed):
                if row.ok and row.index in keyed:
                    _, model, key = keyed[row.index]
                    entry = memo_entry_from_row(row, model)
                    if entry is not None:
                        memo.record(key, entry)
                self.commit(row)
            todo = [index for index in followers
                    if not self._commit_memoized(index, keyed[index])]

    def _commit_memoized(self, index: int, prepared: tuple) -> bool:
        _, model, key = prepared
        entry = self.verifier._memo.find(key, model)
        if entry is None:
            return False
        self.commit(memoized_result(index, self.job_list[index], entry,
                                    self.obligations[index][1]))
        return True

    def _rows(self, indices: list[int],
              keyed: dict[int, tuple]) -> Iterator[PortfolioResult]:
        """Each job's row, in completion order."""
        verifier = self.verifier
        if self.width <= 1:
            for index in indices:
                psm, model, _ = keyed.get(index, (None, None, None))
                yield verifier.run_job(
                    self.job_list[index], index=index,
                    obligation=self.obligations[index][1],
                    psm=psm, model=model)
            return
        if self.pool is None:
            self.pool = WarmWorkerPool(self.width)
        threads = ThreadPoolExecutor(
            max_workers=min(self.width, len(indices)),
            thread_name_prefix="portfolio-dispatch")
        try:
            futures = [threads.submit(
                verifier.run_on_pool, self.pool, self.job_list[index],
                index=index, obligation=self.obligations[index][1])
                for index in indices]
            for future in as_completed(futures):
                yield future.result()
        finally:
            threads.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


def memo_entry_from_row(row: PortfolioResult,
                        model) -> "MemoEntry | None":
    """A :class:`~repro.mc.memo.MemoEntry` built from a finished row
    (``None`` when the row carries nothing memoizable — it errored
    before the relaxed sweep committed).

    ``model`` is the row's own canonical capacity-erased model; the
    portfolio and the service daemon both record finished rows into
    their memo through this.
    """
    from repro.mc.memo import MemoEntry

    report = row.report
    if report is None or report.psm_relaxed_result is None:
        return None
    return MemoEntry(
        donor=row.name, erased=model.erased,
        maxima=row.occupancy,
        constraints=report.constraints,
        original=report.psm_original_result,
        relaxed=report.psm_relaxed_result,
        symbolic=dict(report.symbolic or {}))


def memoized_result(index: int, job: PortfolioJob, entry,
                    obligation: tuple) -> PortfolioResult:
    """A complete row answered from a memo entry, no exploration.

    ``obligation`` is the job's ``(pim_result, internal)`` pair (the
    scheme-independent half of the pipeline).  Verdicts, bounds and
    tallies are the donor's own — exact by the occupancy-certificate
    bisimulation — with ``memo_hit`` provenance set.
    """
    from repro.core.delays import bounds_from_internal
    from repro.core.framework import VerificationReport

    started = time.perf_counter()
    report = VerificationReport(
        input_channel=job.input_channel,
        output_channel=job.output_channel,
        deadline_ms=job.deadline_ms)
    result = PortfolioResult(
        index=index, name=job.name, scheme=job.scheme,
        deadline_ms=job.deadline_ms, report=report,
        memo_hit=entry.donor)
    pim_result, internal = obligation
    report.pim_result = pim_result
    report.bounds = bounds_from_internal(
        job.scheme, job.input_channel, job.output_channel,
        internal)
    report.constraints = entry.constraints
    report.psm_original_result = entry.original
    report.psm_relaxed_result = entry.relaxed
    if job.measure_suprema:
        report.symbolic = dict(entry.symbolic)
    result.wall_seconds = time.perf_counter() - started
    return result


def _compute_obligation(job: PortfolioJob, framework) -> tuple:
    """One (PIM, requirement) obligation: step 1 + the internal sup."""
    from repro.core.delays import internal_delay

    pim_result = framework.verify_pim(
        job.pim, job.input_channel, job.output_channel,
        job.deadline_ms)
    internal = internal_delay(
        job.pim, job.input_channel, job.output_channel,
        max_states=framework.max_states,
        abstraction=framework.abstraction)
    return pim_result, internal


# ----------------------------------------------------------------------
# Lemma-1 dominance signatures
# ----------------------------------------------------------------------
def _freeze(value):
    """Hashable structural key for spec dataclasses and mappings."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple((spec_field.name,
                      _freeze(getattr(value, spec_field.name)))
                     for spec_field in dataclasses.fields(value))
    if isinstance(value, Mapping):
        return tuple(sorted((key, _freeze(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(item) for item in value))
    return value


def _dominance_signature(job: PortfolioJob, max_states: int,
                         ) -> tuple[tuple, tuple[int, ...]] | None:
    """``(group_key, slack_vector)`` for Lemma-1 dominance, or ``None``.

    The slack vector collects the property-tested monotone axes —
    each polled input's ``polling_interval`` (sorted by channel) and
    the invocation ``period`` — and the group key is everything else
    about the job: PIM identity, requirement, budget, and the scheme
    with the slack axes masked out.  A polled and an interrupt-driven
    input never share a group (``None`` vs the mask differ), so slack
    vectors within a group always align.  Jobs measuring suprema are
    never grouped: sup values are scheme-exact and cannot be derived.
    """
    if job.measure_suprema:
        return None
    scheme = job.scheme
    slack: list[int] = []
    inputs_key = []
    for channel in sorted(scheme.inputs):
        spec = scheme.inputs[channel]
        entry = []
        for spec_field in dataclasses.fields(spec):
            value = getattr(spec, spec_field.name)
            if (spec_field.name == "polling_interval"
                    and value is not None):
                slack.append(value)
                value = "*"
            entry.append((spec_field.name, _freeze(value)))
        inputs_key.append((channel, tuple(entry)))
    invocation = scheme.invocation
    invocation_key = []
    for spec_field in dataclasses.fields(invocation):
        value = getattr(invocation, spec_field.name)
        if spec_field.name == "period" and value is not None:
            slack.append(value)
            value = "*"
        invocation_key.append((spec_field.name, _freeze(value)))
    key = (
        id(job.pim), job.input_channel, job.output_channel,
        job.deadline_ms, job.min_interarrival_ms,
        job.include_progress, max_states,
        tuple(inputs_key),
        _freeze(scheme.outputs), _freeze(scheme.io_inputs),
        _freeze(scheme.io_outputs), tuple(invocation_key),
        _freeze(scheme.faults))
    return key, tuple(slack)


# ----------------------------------------------------------------------
# Worker side (module level: picklable by reference)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _WorkerJob:
    """One job in its shipping form: the :class:`PortfolioJob` (PIM +
    scheme parameters + requirement descriptors — plain dataclasses,
    never compiled networks or zones), its precomputed obligation and
    the caller's engine configuration.  Calling it in a worker
    process replays that configuration and runs
    :meth:`PortfolioVerifier.run_job`."""

    engine: EngineConfig
    max_states: int
    reuse: bool
    index: int
    job: PortfolioJob
    obligation: tuple | None = None

    def __call__(self) -> PortfolioResult:
        self.engine.apply()
        verifier = PortfolioVerifier(
            max_states=self.max_states,
            abstraction=self.engine.abstraction, reuse=self.reuse)
        return verifier.run_job(self.job, index=self.index,
                                obligation=self.obligation)

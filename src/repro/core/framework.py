"""End-to-end verification pipeline — the paper's framework (Theorem 1).

:class:`TimingVerificationFramework` strings the pieces together the
way Section VI does:

1. verify the PIM against ``P(Δ_mc)`` (model checking),
2. transform the PIM into the PSM for the chosen scheme,
3. verify the four boundedness constraints on the PSM,
4. derive the relaxed bound ``Δ'_mc`` (Lemmas 1–2),
5. verify ``PSM ⊨ P(Δ'_mc)`` — by Theorem 1, the implementation then
   satisfies ``P(Δ'_mc)`` too (assuming the platform is correctly
   described by the scheme, which testing validates);
6. also check whether the *original* deadline survives on the PSM
   (in the case study it does not: ``PSM ⊭ P(500)``).

Steps 3, 5 and 6 — and, on request, the three Lemma-1 delay
suprema — are answered by **one** shared exploration of the PSM
(:meth:`TimingVerificationFramework.psm_sweep`); each witness is
projected onto its own observer, so a deadline's counterexample reads
exactly as a standalone ``P(Δ)`` check's.

The resulting :class:`VerificationReport` carries every verified
number Table I's upper row needs.

Beyond the paper, :meth:`TimingVerificationFramework.verify_portfolio`
runs the same pipeline over a whole *portfolio* of candidate schemes
(a :func:`repro.apps.schemes.scheme_grid` sweep), one independent job
per scheme spread over worker processes — see
:mod:`repro.mc.portfolio`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.constraints import (
    ConstraintReport,
    check_all_constraints,
    check_progress,
    constraint_queries,
    constraint_report,
)
from repro.core.delays import (
    DelayBounds,
    bounds_from_internal,
    internal_delay,
)
from repro.core.pim import PIM
from repro.core.psm import PSM
from repro.core.scheme import ImplementationScheme
from repro.core.transform import transform
from repro.mc.observers import (
    BoundedResponseResult,
    DelayBound,
    check_bounded_response,
)
from repro.mc.queries import (
    BatchOutcome,
    BoundedResponseQuery,
    ResponseSupQuery,
    check_many,
)

__all__ = ["SUPREMA", "TimingVerificationFramework", "VerificationReport"]

#: The Lemma-1 delay suprema ``measure_suprema`` reports, in the order
#: :meth:`TimingVerificationFramework.verify_psm_deadlines` measures
#: them: m→i, o→c and m→c.
SUPREMA = ("Input-Delay", "Output-Delay", "M-C delay")


@dataclass
class VerificationReport:
    """Everything the framework establishes for one (m, c) pair."""

    input_channel: str
    output_channel: str
    deadline_ms: int
    #: Step 1 — PIM ⊨ P(Δ_mc)?
    pim_result: BoundedResponseResult | None = None
    #: Step 3 — the four constraints (+ progress).
    constraints: ConstraintReport | None = None
    #: Step 4 — Lemma 1/2 bounds.
    bounds: DelayBounds | None = None
    #: Step 5 — PSM ⊨ P(Δ'_mc)?
    psm_relaxed_result: BoundedResponseResult | None = None
    #: Step 6 — PSM ⊨ P(Δ_mc)? (usually not, that is the point)
    psm_original_result: BoundedResponseResult | None = None
    #: Optional exact suprema measured on the PSM.
    symbolic: dict[str, DelayBound] = field(default_factory=dict)
    psm: PSM | None = None

    # ------------------------------------------------------------------
    @property
    def pim_holds(self) -> bool:
        return bool(self.pim_result and self.pim_result.holds)

    @property
    def constraints_hold(self) -> bool:
        return bool(self.constraints and self.constraints.all_hold)

    @property
    def relaxed_deadline_ms(self) -> int | None:
        return self.bounds.relaxed if self.bounds else None

    @property
    def implementation_guarantee(self) -> bool:
        """Theorem 1's conclusion for ``P(Δ'_mc)``."""
        return bool(self.constraints_hold and self.psm_relaxed_result
                    and self.psm_relaxed_result.holds)

    def summary(self) -> str:
        lines = [
            f"Timing verification for {self.input_channel} → "
            f"{self.output_channel}, Δ_mc = {self.deadline_ms}ms",
        ]
        if self.pim_result is not None:
            lines.append(f"  [1] PIM:  {self.pim_result.summary()}")
        if self.constraints is not None:
            status = "satisfied" if self.constraints.all_hold \
                else "VIOLATED"
            lines.append(f"  [3] constraints: {status}")
        if self.bounds is not None:
            lines.append(f"  [4] bounds: {self.bounds.summary()}")
        if self.psm_original_result is not None:
            lines.append(
                f"  [6] PSM vs original: "
                f"{self.psm_original_result.summary()}")
        if self.psm_relaxed_result is not None:
            lines.append(
                f"  [5] PSM vs relaxed: "
                f"{self.psm_relaxed_result.summary()}")
        if self.implementation_guarantee:
            lines.append(
                f"  ⇒ Theorem 1: Code(PIM)‖imp IS ⊨ "
                f"P({self.relaxed_deadline_ms})")
        for name, bound in self.symbolic.items():
            lines.append(f"      sup {name} = {bound}")
        return "\n".join(lines)


class TimingVerificationFramework:
    """Front door of the library: PIM + scheme + requirement → report.

    Every model-checking step runs one single-threaded exploration.
    ``jobs`` is the worker-process count of :meth:`verify_portfolio`
    sweeps (``None`` runs them inline; rows are identical either
    way).  ``abstraction`` selects the extrapolation
    operator for every step (``"extra_m"`` — the default, or
    ``"extra_lu"`` — same verdicts/bounds/sups, smaller zone graphs;
    ``None`` defers to ``set_abstraction``/``REPRO_ABSTRACTION``).
    """

    def __init__(self, *, max_states: int = 1_000_000,
                 jobs: int | None = None,
                 abstraction: str | None = None):
        self.max_states = max_states
        self.jobs = jobs
        self.abstraction = abstraction

    # ------------------------------------------------------------------
    def verify_pim(self, pim: PIM, input_channel: str,
                   output_channel: str,
                   deadline_ms: int) -> BoundedResponseResult:
        """Step 1: ``PIM ⊨ P(Δ_mc)``?"""
        return check_bounded_response(
            pim.network, input_channel, output_channel, deadline_ms,
            max_states=self.max_states,
            abstraction=self.abstraction)

    def transform(self, pim: PIM,
                  scheme: ImplementationScheme) -> PSM:
        """Step 2: construct the PSM (Section IV)."""
        return transform(pim, scheme)

    def check_constraints(self, psm: PSM, *,
                          min_interarrival_ms: int | None = None,
                          include_progress: bool = False
                          ) -> ConstraintReport:
        """Step 3: the four boundedness constraints (Section V)."""
        return check_all_constraints(
            psm, min_interarrival_ms=min_interarrival_ms,
            include_progress=include_progress,
            max_states=self.max_states,
            abstraction=self.abstraction)

    def derive_bounds(self, pim: PIM, scheme: ImplementationScheme,
                      input_channel: str,
                      output_channel: str) -> DelayBounds:
        """Step 4: Lemma 1 bounds + the PIM's internal sup (Lemma 2)."""
        internal = internal_delay(pim, input_channel, output_channel,
                                  max_states=self.max_states,
                                  abstraction=self.abstraction)
        return bounds_from_internal(scheme, input_channel,
                                    output_channel, internal)

    def verify_psm_deadlines(self, psm: PSM, input_channel: str,
                             output_channel: str,
                             deadlines_ms: Sequence[int], *,
                             measure_suprema: bool = False,
                             with_constraints: bool = False,
                             track_maxima: Sequence = (),
                             ) -> BatchOutcome:
        """Steps 5+6: every deadline from one shared sweep.

        With ``measure_suprema`` the same sweep also measures the
        three :data:`SUPREMA`, and with ``with_constraints`` it answers
        step 3's :func:`~repro.core.constraints.constraint_queries`.
        Results come in that query order.  The deadline queries come
        first, so the (m, c) pair owns the unsuffixed observer names
        its counterexample mentions.  ``track_maxima`` is
        :func:`~repro.mc.queries.check_many`'s read-only watch list.
        """
        queries: list[object] = [
            BoundedResponseQuery(input_channel, output_channel, deadline)
            for deadline in deadlines_ms]
        if measure_suprema:
            queries += [
                ResponseSupQuery(input_channel,
                                 psm.io_name(input_channel)),
                ResponseSupQuery(psm.io_name(output_channel),
                                 output_channel),
                ResponseSupQuery(input_channel, output_channel)]
        if with_constraints:
            queries += constraint_queries(psm)
        return check_many(psm.network, queries,
                          max_states=self.max_states,
                          abstraction=self.abstraction,
                          track_maxima=track_maxima)

    def measure_psm(self, psm: PSM, input_channel: str,
                    output_channel: str) -> dict[str, DelayBound]:
        """Exact suprema on the PSM alone (Lemma-1 validation).

        The three sups share one multi-observer exploration; values
        are identical to the individual :func:`max_response_delay`
        runs in :mod:`repro.core.delays`.
        """
        outcome = self.verify_psm_deadlines(
            psm, input_channel, output_channel, [],
            measure_suprema=True)
        return dict(zip(SUPREMA, outcome))

    def psm_sweep(self, report: VerificationReport, psm: PSM, *,
                  min_interarrival_ms: int | None = None,
                  measure_suprema: bool = False,
                  include_progress: bool = False,
                  track_maxima: Sequence = ()) -> BatchOutcome:
        """Steps 3 + 5+6 (+ the suprema) into ``report``, one PSM sweep.

        The one exploration :meth:`verify` and every portfolio job run
        on the PSM (the opt-in ``include_progress`` deadlock check
        adds another); ``report`` must already carry its bounds.
        """
        outcome = self.verify_psm_deadlines(
            psm, report.input_channel, report.output_channel,
            [report.deadline_ms, report.bounds.relaxed],
            measure_suprema=measure_suprema, with_constraints=True,
            track_maxima=track_maxima)
        report.psm_original_result, report.psm_relaxed_result = \
            outcome[:2]
        sups = outcome[2:2 + len(SUPREMA)] if measure_suprema else ()
        report.symbolic = dict(zip(SUPREMA, sups))
        report.constraints = constraint_report(
            psm, outcome[2 + len(sups):], outcome.visited,
            min_interarrival_ms=min_interarrival_ms)
        if include_progress:
            report.constraints.results.insert(0, check_progress(
                psm, max_states=self.max_states))
        return outcome

    # ------------------------------------------------------------------
    def verify(self, pim: PIM, scheme: ImplementationScheme, *,
               input_channel: str, output_channel: str,
               deadline_ms: int,
               min_interarrival_ms: int | None = None,
               measure_suprema: bool = False,
               include_progress: bool = False) -> VerificationReport:
        """The full Section-VI pipeline in one call."""
        report = VerificationReport(
            input_channel=input_channel, output_channel=output_channel,
            deadline_ms=deadline_ms)
        report.pim_result = self.verify_pim(
            pim, input_channel, output_channel, deadline_ms)
        psm = self.transform(pim, scheme)
        report.psm = psm
        report.bounds = self.derive_bounds(
            pim, scheme, input_channel, output_channel)
        self.psm_sweep(report, psm,
                       min_interarrival_ms=min_interarrival_ms,
                       measure_suprema=measure_suprema,
                       include_progress=include_progress)
        return report

    # ------------------------------------------------------------------
    def verify_portfolio(self, pim: PIM,
                         schemes: Sequence[ImplementationScheme], *,
                         input_channel: str, output_channel: str,
                         deadline_ms: int,
                         min_interarrival_ms: int | None = None,
                         measure_suprema: bool = False,
                         include_progress: bool = False,
                         reuse: bool = False,
                         prune_dominated: bool = False,
                         on_result=None):
        """Step 7: verify a whole portfolio of candidate schemes.

        One :meth:`verify` pipeline per scheme, run by
        :class:`repro.mc.portfolio.PortfolioVerifier` on ``self.jobs``
        worker processes (inline when ``None``); results per scheme
        are bit-identical to calling :meth:`verify` one scheme at a
        time.
        ``reuse=True`` answers schemes whose compiled PSM is
        canonically identical (up to semantically-inert buffer
        capacities) from a verdict memo instead of re-exploring —
        memoized rows are bit-identical to their own sweep;
        ``prune_dominated=True`` additionally derives Theorem-1
        verdicts for points dominated along the monotone poll/period
        axes from a verified harder neighbor (derived rows carry
        ``derived_from`` provenance and no state tallies).
        ``on_result`` is called with each
        :class:`~repro.mc.portfolio.PortfolioResult` as it commits
        (completion order).
        Returns the job-ordered
        :class:`repro.mc.portfolio.PortfolioOutcome`;
        render it with
        :func:`repro.analysis.portfolio.render_portfolio`.
        """
        from repro.mc.portfolio import PortfolioVerifier

        verifier = PortfolioVerifier(
            jobs=self.jobs, max_states=self.max_states,
            abstraction=self.abstraction, reuse=reuse,
            prune_dominated=prune_dominated)
        return verifier.verify_schemes(
            pim, schemes, input_channel=input_channel,
            output_channel=output_channel, deadline_ms=deadline_ms,
            min_interarrival_ms=min_interarrival_ms,
            measure_suprema=measure_suprema,
            include_progress=include_progress,
            on_result=on_result)

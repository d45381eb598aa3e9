"""The four boundedness constraints of Section V.

Remark 1: ``Δ'_mc`` is not bounded for every implementation scheme.
The paper gives four constraints under which it is; each is decided
here by model checking the PSM (the paper's route) — reachability of
the bookkeeping flags the transformation planted:

1. **Detection of all input signals** — no ``miss_*`` flag reachable
   (a polled latch was overwritten before its sample), plus the
   analytic sub-check that each device's worst-case processing is
   faster than the environment's minimum inter-arrival time.
2. **No overflow of the input buffers** — no input ``ovf_*``/``lost_*``
   flag reachable.
3. **No overflow of the output buffers** — ditto for outputs
   (including the staging overflow inside EXEIO).
4. **No internal transition interference** — the ``code_drop`` flag is
   unreachable: the code never pops an input it cannot consume, i.e.
   MIO never moved past the accepting location between the enqueue and
   the read.

A fifth, implicit sanity check — the PSM composition neither deadlocks
nor timelocks — is exposed as :func:`check_progress` because a stuck
PSM would satisfy every safety property vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.delays import detection_bound
from repro.core.psm import PSM
from repro.mc.deadlock import find_deadlocks
from repro.mc.queries import ReachQuery, check_many
from repro.mc.reachability import (
    ReachabilityResult,
    StateFormula,
    check_reachable,
)

__all__ = [
    "ConstraintResult",
    "ConstraintReport",
    "check_constraint1",
    "check_constraint2",
    "check_constraint3",
    "check_constraint4",
    "check_progress",
    "check_all_constraints",
    "constraint_queries",
    "constraint_report",
]


@dataclass
class ConstraintResult:
    """Outcome of one constraint check."""

    constraint: str
    holds: bool
    detail: str
    counterexample: list[str] | None = None

    def __bool__(self) -> bool:
        return self.holds

    def summary(self) -> str:
        status = "SATISFIED" if self.holds else "VIOLATED"
        return f"{self.constraint}: {status} — {self.detail}"


#: Detail of a constraint whose mechanism the scheme does not use.
_NO_FLAGS = "no applicable flags (mechanism not used)"


def _constraint_groups(psm: PSM) -> dict[str, list[str]]:
    """Constraints 1–4, each with the flags that violate it."""
    groups = {
        "Constraint 1 (detection of all input signals)":
            psm.miss_flags(),
        "Constraint 2 (no input-buffer overflow)":
            [v.overflow for v in psm.input_vars.values()],
        "Constraint 3 (no output-buffer overflow)":
            [v.overflow for v in psm.output_vars.values()],
        "Constraint 4 (no internal-transition interference)":
            [psm.code_drop_flag],
    }
    return {name: [f for f in flags if f]
            for name, flags in groups.items()}


def _flags_reachable(psm: PSM, number: int, *,
                     max_states: int) -> ConstraintResult:
    """Constraint ``number`` alone: is any of its flags settable?"""
    what, flags = list(_constraint_groups(psm).items())[number - 1]
    if not flags:
        return ConstraintResult(what, True, _NO_FLAGS)
    condition = " || ".join(f"{flag} == 1" for flag in flags)
    reach = check_reachable(psm.network, StateFormula(data=condition),
                            max_states=max_states)
    if reach.reachable:
        return ConstraintResult(
            what, False,
            f"reachable: {condition} (witness: {reach.witness})",
            reach.trace)
    return ConstraintResult(
        what, True, f"A[] !({condition}) verified ({reach.visited} states)")


def _interarrival(psm: PSM, result: ConstraintResult,
                  min_interarrival_ms: int | None) -> ConstraintResult:
    """Constraint 1's analytic half on top of its flag ``result``: every
    device's worst case beats the minimum inter-arrival time."""
    if not result.holds or min_interarrival_ms is None:
        return result
    slow = [channel for channel in psm.pim.input_channels()
            if detection_bound(psm.scheme, channel) >= min_interarrival_ms]
    if not slow:
        return result
    return ConstraintResult(
        result.constraint, False,
        f"device(s) {slow} slower than the minimum inter-arrival "
        f"time {min_interarrival_ms}ms")


def check_constraint1(psm: PSM, *,
                      min_interarrival_ms: int | None = None,
                      max_states: int = 1_000_000) -> ConstraintResult:
    """Constraint 1: every environmental input signal is detected."""
    result = _interarrival(
        psm, _flags_reachable(psm, 1, max_states=max_states),
        min_interarrival_ms)
    if result.holds and min_interarrival_ms is not None:
        result.detail += "; processing beats inter-arrival time"
    return result


def check_constraint2(psm: PSM, *,
                      max_states: int = 1_000_000) -> ConstraintResult:
    """Constraint 2: the input buffers never overflow."""
    return _flags_reachable(psm, 2, max_states=max_states)


def check_constraint3(psm: PSM, *,
                      max_states: int = 1_000_000) -> ConstraintResult:
    """Constraint 3: the output buffers never overflow."""
    return _flags_reachable(psm, 3, max_states=max_states)


def check_constraint4(psm: PSM, *,
                      max_states: int = 1_000_000) -> ConstraintResult:
    """Constraint 4: the code never drops a pending input."""
    return _flags_reachable(psm, 4, max_states=max_states)


def check_progress(psm: PSM, *,
                   max_states: int = 1_000_000) -> ConstraintResult:
    """Sanity: the PSM composition never gets stuck."""
    report = find_deadlocks(psm.network, max_states=max_states)
    if report.deadlock_free:
        return ConstraintResult(
            constraint="Progress (no deadlock/timelock)", holds=True,
            detail=f"deadlock-free ({report.visited} states)")
    return ConstraintResult(
        constraint="Progress (no deadlock/timelock)", holds=False,
        detail=report.summary())


@dataclass
class ConstraintReport:
    """All Section-V constraints for one PSM."""

    results: list[ConstraintResult] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.results)

    def summary(self) -> str:
        lines = [r.summary() for r in self.results]
        verdict = ("all constraints satisfied — Δ'_mc is bounded "
                   "(Lemma 1 applies)"
                   if self.all_hold else
                   "constraint violation — Δ'_mc may be unbounded "
                   "(Remark 1)")
        return "\n".join(lines + [verdict])


def constraint_queries(psm: PSM) -> list[ReachQuery]:
    """One ``E<> flag == 1`` query per constraint flag (the flags are
    monotone, so "ever set" is reachability), in constraint order —
    the batch :func:`constraint_report` reads back."""
    return [ReachQuery(StateFormula(data=f"{flag} == 1"))
            for flags in _constraint_groups(psm).values()
            for flag in flags]


def constraint_report(psm: PSM, results: Sequence[ReachabilityResult],
                      visited: int, *,
                      min_interarrival_ms: int | None = None,
                      ) -> ConstraintReport:
    """Constraints 1–4 from the answers to :func:`constraint_queries`
    (in order) and the state count ``visited`` of their sweep.  A
    violated constraint carries its first hit flag's witness and
    trace."""
    answers = iter(results)
    report = ConstraintReport()
    for constraint, flags in _constraint_groups(psm).items():
        hits = [(flag, answer) for flag, answer
                in zip(flags, [next(answers) for _ in flags])
                if answer.reachable]
        if not flags:
            result = ConstraintResult(constraint, True, _NO_FLAGS)
        elif hits:
            result = ConstraintResult(
                constraint, False,
                f"flag(s) {[flag for flag, _ in hits]} reachable "
                f"(e.g. {hits[0][1].witness})", hits[0][1].trace)
        else:
            result = ConstraintResult(
                constraint, True,
                f"flags {flags} unreachable ({visited} states)")
        report.results.append(result)
    report.results[0] = _interarrival(psm, report.results[0],
                                      min_interarrival_ms)
    return report


def check_all_constraints(psm: PSM, *,
                          min_interarrival_ms: int | None = None,
                          include_progress: bool = False,
                          max_states: int = 1_000_000,
                          abstraction: str | None = None,
                          ) -> ConstraintReport:
    """Run Constraints 1–4 (plus the optional progress sanity check),
    all flags from one :func:`constraint_queries` sweep."""
    outcome = check_many(psm.network, constraint_queries(psm),
                         max_states=max_states, abstraction=abstraction)
    report = constraint_report(psm, outcome, outcome.visited,
                               min_interarrival_ms=min_interarrival_ms)
    if include_progress:
        report.results.insert(0, check_progress(psm,
                                                max_states=max_states))
    return report

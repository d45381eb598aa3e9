"""Portfolio comparison report — Table I generalized across schemes.

The paper's Table I compares one scheme's verified bounds against
measurements.  A portfolio run produces the *verified* half for many
candidate schemes at once; :func:`render_portfolio` lays the rows out
side by side so a designer can read off which platform configurations
keep REQ1-style deadlines satisfiable and at what Lemma-2 cost::

    PORTFOLIO VERIFICATION ... (Δ_mc = 500ms)
    +----------------------------+------+------+-------+-------+ ...
    | scheme                     | Δ̄_mi | Δ̄_oc | Δ'_mc | P(Δ)  | ...

Columns: the Lemma-1 Input/Output-Delay bounds, the Lemma-2 relaxed
deadline, the PSM verdicts for the original and relaxed deadlines,
the Section-V constraint check, Theorem 1's conclusion, the
deadline-sweep size/wall-time, and the row's *origin* — ``explored``
(its own sweep), ``memo=<donor>`` (Tier-1 canonical-hash reuse) or
``derived=<donor>`` (Lemma-1 dominance pruning) — everything a
:class:`repro.mc.portfolio.PortfolioResult` row carries.  When the
run had reuse enabled (or pruned anything) a totals line follows the
table: ``reuse: N explored, N memoized, N pruned``.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import replace
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mc.portfolio import PortfolioOutcome, PortfolioResult
    from repro.platforms.system import PlatformStats

__all__ = ["portfolio_rows", "render_portfolio",
           "render_fault_tolerance"]

_HEADERS = ("scheme", "Δ̄_mi", "Δ̄_oc", "Δ'_mc", "P(Δ)", "P(Δ')",
            "constraints", "Thm 1", "states", "origin", "time")


def _display_width(text: str) -> int:
    """Terminal columns, not code points — the Δ̄ headers carry a
    combining macron (U+0304) that ``len`` counts but terminals
    render at zero width."""
    return sum(0 if unicodedata.combining(char) else 1
               for char in text)


def _pad(text: str, width: int, *, left: bool) -> str:
    fill = " " * (width - _display_width(text))
    return text + fill if left else fill + text


def _verdict(value: bool | None, *, yes: str = "yes",
             no: str = "no") -> str:
    if value is None:
        return "--"
    return yes if value else no


def _origin(result: "PortfolioResult") -> str:
    """Where the row's verdicts came from: its own sweep, a memoized
    donor (Tier-1 reuse) or a dominating neighbor (Lemma-1 pruning)."""
    if result.memo_hit is not None:
        return f"memo={result.memo_hit}"
    if result.derived_from is not None:
        return f"derived={result.derived_from}"
    return "explored"


def _cells(result: "PortfolioResult") -> tuple[str, ...]:
    if not result.ok:
        reason = {"budget-exceeded": "budget exceeded"}.get(
            result.status, result.status)
        return (result.name, "--", "--", "--", "--", "--", reason,
                "--", "--", _origin(result),
                f"{result.wall_seconds:.2f}s")
    bounds = result.bounds
    return (
        result.name,
        f"{bounds.input_bound}ms",
        f"{bounds.output_bound}ms",
        f"{bounds.relaxed}ms",
        _verdict(result.original_holds),
        _verdict(result.relaxed_holds),
        _verdict(result.constraints_hold, yes="satisfied",
                 no="VIOLATED"),
        _verdict(result.guarantee),
        str(result.states) if result.states is not None else "--",
        _origin(result),
        f"{result.wall_seconds:.2f}s",
    )


def _sim_cell(stats: "PlatformStats | None") -> str:
    """Concrete counters condensed for one table cell."""
    if stats is None:
        return "--"
    return (f"ovf={stats.input_buffer_overflows}"
            f"+{stats.output_buffer_overflows} "
            f"drop={stats.dropped_by_code}")


def portfolio_rows(outcome: "PortfolioOutcome", *,
                   sim_stats: "Mapping[str, PlatformStats] | None" =
                   None) -> list[dict]:
    """JSON-ready rows (the shape the benchmark record commits).

    ``sim_stats`` (scheme name → :class:`PlatformStats` from a
    concrete :class:`~repro.platforms.system.ImplementedSystem` run)
    merges the simulation's overflow/drop counters into each row
    under a ``"sim"`` key, so symbolic verdicts and concrete counters
    land in one record.  Absent, the row shape is byte-identical to
    the pre-fault record shape.
    """
    rows = []
    for result in outcome:
        row = result.row()
        stats = (sim_stats or {}).get(result.name)
        if stats is not None:
            row["sim"] = {
                "input_buffer_overflows": stats.input_buffer_overflows,
                "output_buffer_overflows":
                    stats.output_buffer_overflows,
                "dropped_by_code": stats.dropped_by_code,
                "injected_message_losses":
                    stats.injected_message_losses,
                "injected_replica_faults":
                    stats.injected_replica_faults,
                "injected_preemption_bursts":
                    stats.injected_preemption_bursts,
            }
        rows.append(row)
    return rows


def render_portfolio(outcome: "PortfolioOutcome", *,
                     deadline_ms: int | None = None,
                     sim_stats: "Mapping[str, PlatformStats] | None" =
                     None) -> str:
    """ASCII comparison table across every scheme of the portfolio.

    With ``sim_stats`` (scheme name → concrete-run
    :class:`PlatformStats`) a ``sim`` column is appended so the
    symbolic overflow verdicts sit next to the simulation's actual
    overflow/drop counters; without it the layout is unchanged.
    """
    if deadline_ms is None and len(outcome):
        deadline_ms = outcome[0].deadline_ms
    headers = _HEADERS + ("sim",) if sim_stats is not None else _HEADERS
    rows = [_cells(result) for result in outcome]
    if sim_stats is not None:
        rows = [row + (_sim_cell(sim_stats.get(result.name)),)
                for row, result in zip(rows, outcome)]
    widths = [max(_display_width(header),
                  *(_display_width(row[i]) for row in rows))
              if rows else _display_width(header)
              for i, header in enumerate(headers)]

    def line(cells) -> str:
        # First column left-aligned (names), numbers right-aligned.
        body = " | ".join(
            _pad(cell, widths[i], left=(i == 0))
            for i, cell in enumerate(cells))
        return f"| {body} |"

    sep = "+" + "+".join("-" * (width + 2) for width in widths) + "+"
    guaranteed = len(outcome.guaranteed)
    lines = [
        f"PORTFOLIO VERIFICATION — {len(outcome)} schemes, "
        f"{guaranteed} guaranteed (Δ_mc = {deadline_ms}ms)",
        sep,
        line(headers),
        sep,
    ]
    lines.extend(line(row) for row in rows)
    lines.append(sep)
    lines.append(
        f"workers={outcome.jobs or 'inline'} "
        f"wall={outcome.wall_seconds:.2f}s")
    if outcome.reuse or outcome.pruned:
        lines.append(
            f"reuse: {outcome.explored} explored, "
            f"{outcome.memoized} memoized, "
            f"{outcome.pruned} pruned")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Fault-tolerance report (Table I's fault column)
# ----------------------------------------------------------------------
_FT_HEADERS = ("scheme", "points", "max k ok", "Δ'(min k)",
               "Δ'(max k)", "inflation", "Thm 1")

_FAULT_AXIS_RE = re.compile(r"fault_[a-z]+=[^,\]]+,?")


def _base_name(name: str) -> str:
    """Scheme name with the ``fault_k=...`` axis labels stripped."""
    stripped = _FAULT_AXIS_RE.sub("", name)
    stripped = stripped.replace(",]", "]").replace("[]", "")
    return stripped.rstrip(",")


def _fault_group_key(result: "PortfolioResult") -> str:
    """Identity of a scheme modulo its loss budget ``k``.

    Replicas and jitter stay in the key — they are platform design
    choices; the fault-tolerance question is how much loss budget a
    *fixed* platform absorbs.
    """
    scheme = result.scheme
    masked = replace(scheme, name="",
                     faults=replace(scheme.faults, max_losses=0))
    return repr(masked)


def render_fault_tolerance(outcome: "PortfolioOutcome", *,
                           deadline_ms: int | None = None) -> str:
    """Largest tolerated fault budget per base scheme (Table-I style).

    Groups portfolio rows that differ only in ``FaultSpec.max_losses``
    and reports, per group: the swept fault points; the largest ``k``
    whose Theorem-1 guarantee holds (``max k ok``, ``--`` when none
    does); the Lemma-2 relaxed deadline at the smallest and largest
    swept ``k`` — the bounds are Lemma-1 analytic, so the inflation
    column quantifies the deadline price of the full fault budget
    even for points whose (expensive) PSM sweep was not run.
    """
    if deadline_ms is None and len(outcome):
        deadline_ms = outcome[0].deadline_ms
    groups: dict[str, list["PortfolioResult"]] = {}
    for result in outcome:
        groups.setdefault(_fault_group_key(result), []).append(result)

    def relaxed(member: "PortfolioResult") -> str:
        return (f"{member.relaxed_deadline_ms}ms"
                if member.relaxed_deadline_ms is not None else "--")

    rows: list[tuple[str, ...]] = []
    for members in groups.values():
        members = sorted(members,
                         key=lambda r: r.scheme.faults.max_losses)
        name = _base_name(members[0].name)
        points = ",".join(f"k={m.scheme.faults.max_losses}"
                          for m in members)
        baseline, top = members[0], members[-1]
        tolerated = [m for m in members if m.ok and m.guarantee]
        inflation = "--"
        if (top.relaxed_deadline_ms is not None
                and baseline.relaxed_deadline_ms is not None):
            inflation = (f"+{top.relaxed_deadline_ms - baseline.relaxed_deadline_ms}ms")
        if not tolerated:
            verdict_cells = ("--", "no")
        else:
            best = tolerated[-1]
            verdict_cells = (str(best.scheme.faults.max_losses),
                             f"yes@k={best.scheme.faults.max_losses}")
        rows.append((name, points, verdict_cells[0],
                     relaxed(baseline), relaxed(top), inflation,
                     verdict_cells[1]))

    widths = [max(_display_width(header),
                  *(_display_width(row[i]) for row in rows))
              if rows else _display_width(header)
              for i, header in enumerate(_FT_HEADERS)]

    def line(cells) -> str:
        body = " | ".join(
            _pad(cell, widths[i], left=(i == 0))
            for i, cell in enumerate(cells))
        return f"| {body} |"

    sep = "+" + "+".join("-" * (width + 2) for width in widths) + "+"
    lines = [
        f"FAULT TOLERANCE — {len(groups)} base scheme(s), "
        f"{len(outcome)} fault points (Δ_mc = {deadline_ms}ms)",
        sep,
        line(_FT_HEADERS),
        sep,
    ]
    lines.extend(line(row) for row in rows)
    lines.append(sep)
    return "\n".join(lines)

"""Experiment T1 — Table I (the paper's headline experiment).

Regenerates both halves of Table I and asserts the paper's shape:

* verified bounds are exactly 1430 / 490 / 440 ms (Lemmas 1–2 with the
  case-study parameters);
* every measured delay over 60 simulated bolus trials is bounded by
  its verified bound;
* buffer overflow occurs in neither the model nor the measurement;
* REQ1 is violated in the large majority of measured trials
  (the paper reports 53 of 60).

The full pipeline (PIM check, transformation, bound derivation, one
PSM sweep deciding the constraints and both deadlines, 60 simulated
trials) runs once under the benchmark timer.
"""

import pathlib

from repro.analysis.table1 import Table1, run_case_study
from repro.apps.infusion import REQ1_DEADLINE_MS

_ARTIFACTS = pathlib.Path(__file__).resolve().parent.parent / "artifacts"


def bench_table1_full_pipeline(benchmark):
    table: Table1 = benchmark.pedantic(
        lambda: run_case_study(trials=60, seed=2015),
        rounds=1, iterations=1)

    print()
    print(table.render())
    _ARTIFACTS.mkdir(exist_ok=True)
    (_ARTIFACTS / "table1.txt").write_text(
        table.render() + "\n\n" + table.report.summary() + "\n")

    # --- verified column (paper: 1430 / 490 / 440, no overflow) -----
    assert table.verified_mc == 1430
    assert table.verified_input == 490
    assert table.verified_output == 440
    assert table.report.constraints_hold

    # --- measured column bounded by the verified column --------------
    assert table.shape_holds
    assert table.measured.responses == 60
    assert table.measured.timeouts == 0

    # --- in-text claims ----------------------------------------------
    assert table.report.pim_holds                       # PIM ⊨ P(500)
    assert not table.report.psm_original_result.holds   # PSM ⊭ P(500)
    assert table.report.psm_relaxed_result.holds        # PSM ⊨ P(1430)
    violations = table.measured.req_violations(REQ1_DEADLINE_MS)
    assert violations >= 45, \
        f"expected the large majority of 60 trials above 500ms, " \
        f"got {violations}"


def bench_table1_measured_half(benchmark, pim, scheme):
    """Only the measurement campaign (the oscilloscope half)."""
    from repro.analysis.table1 import simulate_trials

    measured = benchmark.pedantic(
        lambda: simulate_trials(pim, scheme, trials=60, seed=2015),
        rounds=1, iterations=1)
    assert measured.responses == 60
    assert not measured.buffer_overflow
    assert measured.mc.max <= 1430
    assert measured.input.max <= 490
    assert measured.output.max <= 440

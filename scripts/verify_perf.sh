#!/usr/bin/env bash
# Perf regression gate, callable from `verify` tooling/CI.
#
# Two modes, run as two *separate* CI jobs so correctness and timing
# never share a failure policy:
#
#   --quick    BLOCKING bit-identity gate: re-runs the tiny PSM
#              workload and fails when states/transitions drift from
#              the newest committed BENCH_<date>.json, when the
#              Extra_M/Extra_LU parity checks disagree, or when the
#              portfolio's verdict memo stops being semantically
#              invisible (reuse-on rows must be bit-identical to
#              reuse-off, with at least one actual memo hit).  Tiny
#              wall times are jitter, so timings are reported but
#              never fail this mode — which is why it is safe to make
#              the job blocking.
#
#   --timings  ADVISORY timed gate (also the default with no args):
#              re-runs the headline zone-graph benchmark
#              (bench_s1_case_study_psm on the reference and native
#              backends, best of 3) plus native monitor throughput,
#              and fails when a row is >25% slower than the committed
#              record — or when states/transitions stop being
#              bit-identical.  Rows an
#              older record timed on the removed sharded engine (a
#              ``jobs`` column) are checked for states/transitions
#              only.
#              Shared CI boxes jitter beyond the 25% tolerance, so CI
#              wires this as a continue-on-error job; treat a red run
#              as a prompt to re-measure, not a verdict.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=""
for arg in "$@"; do
    case "${arg}" in
        --quick) quick="--quick" ;;
        --timings) quick="" ;;
        *) echo "verify_perf: unknown argument ${arg}" >&2; exit 2 ;;
    esac
done

latest=$(ls BENCH_*.json 2>/dev/null | grep -v -- '-quick' | sort | tail -1)
if [[ -z "${latest}" ]]; then
    echo "verify_perf: no committed BENCH_<date>.json found" >&2
    exit 2
fi

mode="advisory timed gate"
if [[ -n "${quick}" ]]; then
    mode="blocking bit-identity gate"
fi
echo "verify_perf: checking against ${latest} (${mode})"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python benchmarks/run_benchmarks.py --check "${latest}" ${quick}

"""Data-driven backend choice for ``--zone-backend auto``.

The three zone backends trade per-call overhead against per-element
throughput in opposite directions:

* ``reference`` — pure-python loops: zero dispatch overhead, cost
  grows as ``n^3`` with the clock count (Floyd-Warshall closure).
* ``numpy`` — one ufunc cascade per kernel: high fixed dispatch cost
  (~µs per op regardless of size), near-flat growth.
* ``native`` — compiled C loops on the numpy storage: reference-shaped
  cost curves with the constant factor removed; fastest at every size
  measured so far.

``choose_backend`` turns a :class:`BackendHint` (clock count,
structural model size) plus the committed per-op cost table below into
a concrete backend name.  The table is *data*, not tuning folklore: it
is regenerated by the kernel microbenchmark
(``python benchmarks/run_benchmarks.py --kernels``, which writes
``benchmarks/KERNEL_COSTS_<date>.json``) and the digested medians are
committed here.  The selection only needs the *ordering* of the
backends to be right in each region, so the model tolerates generous
hardware variance; the ``auto``-within-5%-of-best benchmark gate
(``run_benchmarks.py --check``) is the end-to-end guard.

The structural-size escape hatch: on tiny models (the unit-test
grids) the numpy backend's dispatch cost is never amortized, so the
reference backend must win by default.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

__all__ = ["BackendHint", "choose_backend"]


class BackendHint(NamedTuple):
    """Per-model workload summary consulted by ``auto`` resolution.

    n_clocks:
        Clock count of the compiled network (DBM dimension).
    structural_size:
        ``sum(len(a.locations) + len(a.edges))`` over the network's
        automata.
    """

    n_clocks: int
    structural_size: int


#: Structural size below which ``auto`` never picks numpy (dispatch
#: overhead cannot amortize on a model this small).  The tiny test PSM
#: scores 32, the case-study PSM 80: sit well clear of the committed
#: workloads on both sides.
_TINY_STRUCTURAL = 48

#: Measured clock counts behind the cost table (log-spaced); hints are
#: interpolated between the nearest pair and clamped at the ends.
_CLOCK_GRID = (3, 6, 12)

#: Median ns/call for the scalar kernels, per backend per clock count,
#: from benchmarks/KERNEL_COSTS_2026-08-08.json (one x86-64 core;
#: regenerate with ``run_benchmarks.py --kernels``).  Only relative
#: order matters to the selection.
_SCALAR_NS = {
    "reference": {
        3: {"close": 6820, "constrain": 200, "up": 340,
            "reset": 1840, "includes": 470, "extrapolate": 1750},
        6: {"close": 58740, "constrain": 280, "up": 250,
            "reset": 1980, "includes": 460, "extrapolate": 5670},
        12: {"close": 371770, "constrain": 170, "up": 430,
             "reset": 3510, "includes": 410, "extrapolate": 22730},
    },
    "numpy": {
        3: {"close": 35320, "constrain": 480, "up": 380,
            "reset": 12950, "includes": 1330, "extrapolate": 7690},
        6: {"close": 54470, "constrain": 650, "up": 260,
            "reset": 10230, "includes": 1010, "extrapolate": 7340},
        12: {"close": 146120, "constrain": 410, "up": 360,
             "reset": 10300, "includes": 1070, "extrapolate": 6270},
    },
    "native": {
        3: {"close": 140, "constrain": 180, "up": 100,
            "reset": 150, "includes": 170, "extrapolate": 180},
        6: {"close": 300, "constrain": 170, "up": 100,
            "reset": 150, "includes": 160, "extrapolate": 190},
        12: {"close": 1330, "constrain": 170, "up": 110,
             "reset": 150, "includes": 160, "extrapolate": 270},
    },
}

#: Kernel calls per expanded state in the sequential explorer, rounded
#: from plan structure: each successor applies guard constraints, a
#: couple of updates, the invariant, delay, extrapolation and one
#: closure, and is then checked against the passed list.
_OP_MIX = {"close": 1.0, "constrain": 4.0, "up": 1.0,
           "reset": 1.5, "includes": 4.0, "extrapolate": 1.0}


def _interp_clocks(table: dict, n_clocks: int) -> dict:
    """Linear interpolation of a per-clock-count table row."""
    grid = sorted(table)
    if n_clocks <= grid[0]:
        return table[grid[0]]
    if n_clocks >= grid[-1]:
        return table[grid[-1]]
    for lo, hi in zip(grid, grid[1:]):
        if lo <= n_clocks <= hi:
            break
    frac = (n_clocks - lo) / (hi - lo)
    lo_row, hi_row = table[lo], table[hi]
    return {key: lo_row[key] + frac * (hi_row[key] - lo_row[key])
            for key in lo_row}


def estimate_cost(backend: str, hint: BackendHint) -> float:
    """Model cost (kernel ns per expanded state) of running ``hint``
    on ``backend``."""
    row = _interp_clocks(_SCALAR_NS[backend], hint.n_clocks)
    return sum(row[op] * weight for op, weight in _OP_MIX.items())


def choose_backend(candidates: Sequence[str],
                   hint: BackendHint | None) -> str:
    """Pick the cheapest available backend for this workload.

    ``candidates`` is the availability-filtered name list (always
    containing ``"reference"``).  Without a hint the preference is
    static: native > numpy > reference — the right call for the
    case-study-scale models that dominate ambient (model-free) use.
    """
    if hint is None:
        for name in ("native", "numpy", "reference"):
            if name in candidates:
                return name
        return candidates[0]
    if ("numpy" in candidates and "native" not in candidates
            and hint.structural_size <= _TINY_STRUCTURAL):
        # Tiny-model guard (see module docstring): too little work to
        # amortize numpy dispatch — fall back to the overhead-free
        # loops.
        return "reference"
    return min(candidates, key=lambda b: estimate_cost(b, hint))

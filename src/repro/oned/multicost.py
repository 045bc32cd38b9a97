"""Exact 1D partitioning under *striped* interval costs (for RECT-NICOL).

RECT-NICOL (paper §3.1) repeatedly solves a one-dimensional problem in which
"the load of an interval … is the maximum of the load of the interval inside
each stripe of the fixed dimension".  Given ``S`` stripes this module
partitions ``[0, n)`` into ``m`` intervals minimizing::

    max_intervals  max_s  ( M[s, j] - M[s, i] )

where ``M`` stacks the per-stripe prefix arrays (shape ``(S, n+1)``).

The greedy probe generalizes directly: from boundary ``i`` the furthest
reachable boundary at bottleneck ``B`` is ``min_s`` of the per-stripe
furthest boundaries, each found with one binary search (on Python lists —
see :mod:`repro.oned.probe` for why).  Loads are integers, so exact integer
bisection over ``B`` yields the optimum.

With the perf layer enabled, :func:`probe_multi` dispatches to the
``probe_multi`` kernel (:mod:`repro.perf.kernels`): per-stripe jump tables
folded with a running min in the dense-cut regime, a compiled twin under
``REPRO_PERF_BACKEND=numba`` — bit-identical to the registry's scalar
reference, which the perf-off path runs.  :func:`multi_bottleneck` always
bisects with that reference on rows converted once per solve: C-level
``bisect_right`` on lists beats ndarray probes on every measured RECT-NICOL
class (docs/performance.md, "Striped search").
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..perf import kernels as _kernels
from ..perf.config import perf_enabled
from ..perf.counters import _STACK as _OPS
from ..perf.counters import bump

__all__ = ["probe_multi", "multi_bottleneck", "partition_multi", "multi_cuts"]


def _rows(M) -> list[list[int]]:
    if isinstance(M, list):
        return M
    return [row.tolist() for row in np.asarray(M)]


def _reach(rows: list[list[int]], n: int, i: int, B: int) -> int:
    """Furthest boundary ``j >= i`` with every stripe load ``row[j]-row[i] <= B``."""
    j = n
    for row in rows:
        r = bisect_right(row, row[i] + B, i, j + 1) - 1
        if r < j:
            j = r
            if j <= i:
                break
    return j


def probe_multi(M, m: int, B: int) -> bool:
    """Can ``[0, n)`` be cut into ``<= m`` intervals of striped cost ``<= B``?"""
    if perf_enabled():
        return _kernels.probe_multi(M, m, B)
    return _kernels.KERNELS["probe_multi"].reference(_rows(M), m, B)


def multi_cuts(M, m: int, B: int) -> np.ndarray | None:
    """Greedy cuts realizing striped bottleneck ``B`` (None if infeasible)."""
    rows = _rows(M)
    n = len(rows[0]) - 1 if rows else 0
    cuts = np.empty(m + 1, dtype=np.int64)
    cuts[0] = 0
    pos = 0
    for p in range(1, m + 1):
        if pos < n:
            nxt = _reach(rows, n, pos, B)
            if nxt <= pos:
                return None
            pos = nxt
        cuts[p] = pos
    if pos < n:
        return None
    cuts[m] = n
    return cuts


def multi_bottleneck(M, m: int, *, ub: int | None = None) -> int:
    """Optimal striped bottleneck by integer bisection with the multi-probe.

    ``ub`` is an optional starting guess for the feasible end of the
    bracket (e.g. a bottleneck some known partition achieves).  The guess
    is *verified* by the doubling loop before the bisection starts, so a
    wrong hint only costs extra probes — the returned optimum is identical
    for any hint.
    """
    M = np.ascontiguousarray(M, dtype=np.int64)
    return _bottleneck(M, _rows(M), m, ub)


def _bottleneck(M: np.ndarray, rows: list[list[int]], m: int, ub: int | None) -> int:
    """:func:`multi_bottleneck` on ``M`` and its per-stripe lists ``rows``."""
    n = M.shape[1] - 1
    if n == 0 or M.shape[0] == 0:
        return 0
    cell = np.diff(M, axis=1)
    # any interval covering boundary step b costs at least max_s cell[s, b]
    max_step = int(cell.max(axis=0).max()) if cell.size else 0
    heaviest = int(M[:, -1].max())
    lb = max(max_step, -(-heaviest // m))
    probe = _kernels.KERNELS["probe_multi"].reference
    # The single-array DirectCut bound does not transfer to striped costs
    # (different intervals may be bottlenecked by different stripes), so
    # bracket the optimum by doubling from the heaviest-stripe bound (or
    # the caller's hint when given).
    ub = max(lb, heaviest // m + max_step) if ub is None else max(lb, int(ub))
    probes = 1
    while not probe(rows, m, ub):
        ub = max(ub * 2, ub + 1)
        probes += 1
    while lb < ub:
        mid = (lb + ub) // 2
        if probe(rows, m, mid):
            ub = mid
        else:
            lb = mid + 1
        probes += 1
    if _OPS:
        bump("multi_probe_calls", probes)
    return int(lb)


def partition_multi(M, m: int, *, ub: int | None = None) -> tuple[int, np.ndarray]:
    """Optimal striped 1D partition ``(bottleneck, cuts)``.

    ``ub`` is forwarded to :func:`multi_bottleneck` (a verified hint; the
    result is identical with or without it).
    """
    M = np.ascontiguousarray(M, dtype=np.int64)
    rows = _rows(M)
    B = _bottleneck(M, rows, m, ub)
    cuts = multi_cuts(rows, m, B)
    assert cuts is not None
    return B, cuts

"""JAG-PQ-OPT: optimal P×Q-way jagged partitions (paper §3.2.1).

The paper cites two polynomial algorithms (Pınar–Aykanat's 1D-driven search
[2] and Manne–Sørevik's dynamic program [15]); both "partition the main
dimension using a 1D partitioning algorithm using an optimal partition of the
auxiliary dimension for the evaluation of the load of an interval".

Loads are integers, so we implement the optimum as an exact bisection over
the bottleneck ``B`` with a *probe-of-probes* feasibility test: stripes are
taken greedily as wide as possible subject to the stripe being Q-partition-
able at ``B`` (an inner 1D probe).  Greedy maximality is safe because stripe
feasibility is monotone — shrinking a stripe only lowers every rectangle
load — and the outer feasibility is monotone in the starting row.  An
unbracketed feasibility test costs ``O(P log n1 (n2 + Q log n2))`` and the
bisection adds a ``log(total)`` factor.  Every greedy stripe end is
monotone in ``B``, so the ends of the nearest infeasible and feasible probes
bracket each later stripe-end search, as does the load cap ``Q·B``
(:func:`_greedy_ends`); the ``log n1`` factor then shrinks to the log of a
bracket that narrows with the bisection, about an 8× cut in stripe probes
on the ``solve_mix`` benchmark.  The -BEST variant settles the losing
orientation with one feasibility probe (:func:`~.common.oriented`).  This is
far faster than the DP while returning the same optimum (cross-checked in
tests against exhaustive search).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import PrefixSum2D
from ..oned.probe import min_parts, probe_cuts
from ..perf.config import perf_enabled
from ..sweep.state import current as _sweep_current
from .common import build_jagged_partition, choose_pq, oriented
from .pq_heur import jag_pq_heur_cuts

__all__ = ["jag_pq_opt", "jag_pq_opt_bottleneck", "jag_pq_opt_dp_bottleneck"]


def _stripe_feasible(pref: PrefixSum2D, r0: int, r1: int, Q: int, B: int) -> bool:
    """Can stripe rows ``[r0, r1)`` be cut into ``<= Q`` rectangles of load ``<= B``?

    The outer binary search re-probes the same stripes at every bisection
    level; with the perf layer on the stripe projection (and its one-time
    list conversion) is served from the prefix cache instead of being
    re-materialized per probe.
    """
    if perf_enabled():
        return min_parts(pref.boundary_list(1, r0, r1, reuse=True), B, cap=Q) <= Q
    band = pref.axis_prefix(1, r0, r1)
    return min_parts(band, B, cap=Q) <= Q


def _max_stripe_end(pref: PrefixSum2D, r0: int, Q: int, B: int, lo: int, hi: int) -> int:
    """Largest ``r1`` in ``[lo, hi]`` keeping stripe ``[r0, r1)`` Q-feasible at ``B``.

    The caller guarantees that ``[r0, lo)`` is feasible and that the answer
    is at most ``hi``; ``lo == r0`` is always safe (a stripe of zero height
    is trivially feasible), and the result is ``r0`` when even a single row
    fails.
    """
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _stripe_feasible(pref, r0, mid, Q, B):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _greedy_ends(
    pref: PrefixSum2D,
    P: int,
    Q: int,
    B: int,
    rowsum: list[int],
    lo: list[int] | None = None,
    hi: list[int] | None = None,
) -> list[int]:
    """Greedy stripe ends at bottleneck ``B``: ``ends[0] = 0``, length ``P + 1``.

    Stripe ``s`` is taken as tall as Q-feasibility at ``B`` allows, starting
    where stripe ``s - 1`` ended; ``B`` is feasible iff ``ends[P] == n1``.
    Once a single row is infeasible the greedy is stuck and every later end
    stays put.  ``rowsum`` is the row-load prefix as a list.

    Each end is non-decreasing in ``B``: a higher bottleneck starts stripe
    ``s`` no earlier (induction on ``s``) and a stripe that starts later is
    a row subset, so its column projection is no larger and it stays
    feasible at least as far.  Hence ``lo``/``hi``, the ends of the greedy at
    a smaller/larger bottleneck, bracket every end here; so does the load
    cap ``rowsum[r] - rowsum[r0] <= Q·B`` (Pınar–Aykanat separator-index
    bounding).  The brackets only narrow the binary searches, whose
    feasibility is monotone in the stripe end, so the ends are the same
    with or without them.
    """
    n1 = pref.n1
    cap = Q * B
    ends = [0]
    pos = 0
    for s in range(1, P + 1):
        if pos < n1:
            top = bisect_right(rowsum, rowsum[pos] + cap, pos, n1 + 1) - 1
            end = _max_stripe_end(
                pref,
                pos,
                Q,
                B,
                pos if lo is None else max(pos, lo[s]),
                top if hi is None else min(top, hi[s]),
            )
            if end == pos:  # stuck: no later stripe can start elsewhere
                ends.extend([pos] * (P + 1 - s))
                return ends
            pos = end
        ends.append(pos)
    return ends


def _row_loads(pref: PrefixSum2D) -> list[int]:
    """The row-load prefix as a list, for the load-cap bisection."""
    return pref.axis_prefix(0, reuse=True).tolist()


def _feasible(
    pref: PrefixSum2D,
    P: int,
    Q: int,
    B: int,
    lo: list[int] | None = None,
    hi: list[int] | None = None,
) -> np.ndarray | None:
    """Greedy stripe cuts covering all rows with P stripes at bottleneck B.

    ``lo``/``hi`` are optional stripe-end brackets (see :func:`_greedy_ends`).
    """
    ends = _greedy_ends(pref, P, Q, B, _row_loads(pref), lo, hi)
    return np.array(ends, dtype=np.int64) if ends[P] == pref.n1 else None


def _search(
    pref: PrefixSum2D, P: int, Q: int, ub: int | None, below: int | None
) -> tuple[int, list[int] | None, list[int] | None] | None:
    """``(B*, lo, hi)``: the optimum and the stripe-end brackets around it.

    ``lo``/``hi`` are the greedy ends of the nearest infeasible probe below
    ``B*`` and of the nearest feasible probe at or above it (``None`` when
    there was none); they bracket the ends at ``B*`` for the final
    :func:`_feasible`.  Returns ``None`` when ``below`` is given and
    ``B* >= below``.
    """
    total = pref.total
    m = P * Q
    state = _sweep_current()
    wlb: int | None = None
    wub: int | None = None
    if state is not None:
        exact, wlb, wub = state.grid_bounds(pref, P, Q)
        if exact is not None:
            return None if below is not None and exact >= below else (exact, None, None)
    lb = max(-(-total // m), pref.max_element())
    if wlb is not None and wlb > lb:
        lb = wlb
    rowsum = _row_loads(pref)
    lo: list[int] | None = None
    hi: list[int] | None = None
    if below is not None:
        if lb >= below:
            return None
        if ub is None or ub >= below:
            if wub is not None and wub < below:
                ub = wub
            else:
                # one probe settles it: infeasible here means B* >= below
                hi = _greedy_ends(pref, P, Q, below - 1, rowsum)
                if hi[P] != pref.n1:
                    return None
                ub = below - 1
    elif ub is None:
        if state is not None and state.grid_witness(pref, P, Q) is not None:
            ub = wub  # same-(P, Q) witness: the heuristic ub is already known
        else:
            stripe_cuts, col_cuts = jag_pq_heur_cuts(pref, P, Q)
            ub = 0
            for s in range(P):
                band = pref.axis_prefix(1, int(stripe_cuts[s]), int(stripe_cuts[s + 1]))
                cc = col_cuts[s]
                ub = max(ub, int(np.max(band[cc[1:]] - band[cc[:-1]])))
            if state is not None:
                state.record_grid_ub(pref, P, Q, ub)
    assert ub is not None
    ub = max(lb, int(ub))
    if wub is not None and wub < ub:
        ub = max(lb, wub)
    while lb < ub:
        mid = (lb + ub) // 2
        ends = _greedy_ends(pref, P, Q, mid, rowsum, lo, hi)
        if ends[P] == pref.n1:
            ub, hi = mid, ends
        else:
            lb, lo = mid + 1, ends
    if state is not None:
        state.record_grid_opt(pref, P, Q, int(lb))
    return int(lb), lo, hi


def jag_pq_opt_bottleneck(
    pref: PrefixSum2D, P: int, Q: int, *, ub: int | None = None, below: int | None = None
) -> int | None:
    """Optimal P×Q-way jagged bottleneck (main dimension 0).

    With ``below``, returns ``None`` iff the optimum is ``>= below``: one
    feasibility probe at ``below - 1`` decides that, and otherwise the
    bisection runs in ``[lb, below - 1]`` without the internal heuristic
    upper bound.  The -BEST wrapper uses this to settle the losing
    orientation; a ``None`` result records nothing in a sweep.

    Under an active :mod:`repro.sweep` context the bisection window is
    tightened by dominance over earlier ``(P', Q')`` results on the same
    prefix (componentwise monotonicity — plain m-monotonicity does not hold
    across factorizations), and the internal heuristic upper bound is
    skipped when a same-``(P, Q)`` witness is already recorded.  Both only
    narrow a valid bracket, so the result is bit-identical to a cold call.
    """
    found = _search(pref, P, Q, ub, below)
    return None if found is None else found[0]


def _jag_pq_opt_main0(
    pref: PrefixSum2D, m: int, P: int | None = None, Q: int | None = None
) -> Partition:
    """Optimal P×Q-way jagged partition (§3.2.1) on main dimension 0."""
    part = _jag_pq_opt_pruned(pref, m, P, Q, below=None)
    assert part is not None
    return part


def _jag_pq_opt_pruned(
    pref: PrefixSum2D,
    m: int,
    P: int | None = None,
    Q: int | None = None,
    *,
    below: int | None,
) -> Partition | None:
    """:func:`_jag_pq_opt_main0`, or ``None`` when the optimum is ``>= below``."""
    if P is None or Q is None:
        P, Q = choose_pq(m, pref.n1, pref.n2)
    elif P * Q != m:
        raise ParameterError(f"P*Q must equal m ({P}*{Q} != {m})")
    found = _search(pref, P, Q, None, below)
    if found is None:
        return None
    B, lo, hi = found
    stripe_cuts = _feasible(pref, P, Q, B, lo, hi)
    assert stripe_cuts is not None
    col_cuts = []
    for s in range(P):
        # with the perf layer on this is served from the cache the
        # feasibility probes already populated for this stripe
        band = pref.axis_prefix(1, int(stripe_cuts[s]), int(stripe_cuts[s + 1]))
        cc = probe_cuts(band, Q, B)
        assert cc is not None
        col_cuts.append(cc)
    return build_jagged_partition(pref, stripe_cuts, col_cuts, method="JAG-PQ-OPT")


jag_pq_opt = oriented(_jag_pq_opt_main0, pruned=_jag_pq_opt_pruned)
jag_pq_opt.__name__ = "jag_pq_opt"


def jag_pq_opt_dp_bottleneck(
    pref: PrefixSum2D, P: int, Q: int, *, limit: int = 1 << 22
) -> int:
    """Manne–Sørevik dynamic program for the optimal P×Q-way jagged partition.

    ``L(i, p) = min_k max( L(k, p-1), 1D(k, i, Q) )`` over the last stripe
    start ``k`` — the paper's JAG-PQ-OPT formulation [15], memoized, with
    the inner 1D solved by exact bisection.  Used as the small-instance
    cross-check of the probe-of-probes bisection (they agree on every
    tested instance); guarded by ``limit`` on ``n1²·P``.
    """
    from functools import lru_cache

    from ..oned.bisect import bisect_bottleneck

    n1 = pref.n1
    if n1 * n1 * P > limit:
        raise ParameterError(
            f"instance too large for the paper DP (n1²·P = {n1 * n1 * P} > {limit})"
        )
    @lru_cache(maxsize=None)
    def oneD(k: int, i: int) -> int:
        band = pref.axis_prefix(1, k, i)
        return bisect_bottleneck(band, Q)

    @lru_cache(maxsize=None)
    def L(i: int, p: int) -> int:
        if i == 0:
            return 0
        if p == 1:
            return oneD(0, i)
        best = None
        for k in range(i + 1):
            v = max(L(k, p - 1), oneD(k, i) if k < i else 0)
            if best is None or v < best:
                best = v
        return best

    return int(L(n1, P))

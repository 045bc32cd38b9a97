"""JAG-M-OPT: optimal m-way jagged partitions (paper §3.2.2).

The paper gives a dynamic program over (last stripe start ``k``, processors
``x`` in that stripe)::

    Lmax(n1, m) = min_{k, x} max( Lmax(k-1, m-x), 1D(k, n1, x) )

accelerated with lazy evaluation, binary searches, bound short-circuiting and
branch-and-bound — and still reports 15 minutes for m = 961 on a 512×512
matrix in C++.  We implement that DP (:func:`jag_m_opt_dp_bottleneck`, used
as a small-instance oracle) *and* an equivalent, much faster exact method
exploiting integer loads (:func:`jag_m_opt_bottleneck`):

bisect the bottleneck ``B`` and test feasibility with a *minimum-processor*
DP: ``f(i) = min_k f(k) + parts(k, i, B)`` where ``parts`` is the greedy
(optimal) number of rectangles covering stripe rows ``[k, i)`` at bottleneck
``B``; the m-way jagged class places no constraint on the stripe count, so
``B`` is feasible iff ``f(n1) <= m``.  Candidate stripe starts are pruned
with the load lower bound ``ceil(load/B)``, visited in ascending bound order
so the scan stops after a handful of exact probes per row.  Each bisection
step is one DP pass; the -BEST variant settles the losing orientation with
a single pass at the winner's optimum minus one (:func:`~.common.oriented`),
and a winning second orientation bisects below that bound without computing
its heuristic.  The two methods agree on every instance (property-tested).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.errors import ParameterError
from ..core.partition import Partition
from ..core.prefix import PrefixSum2D
from ..oned.bisect import bisect_bottleneck
from ..oned.probe import min_parts, probe_cuts
from ..perf.kernels import min_parts_batch
from ..perf.config import perf_enabled
from ..sweep.state import current as _sweep_current
from .common import build_jagged_partition, oriented
from .m_heur import _jag_m_heur_main0, allocate_processors

__all__ = [
    "jag_m_opt",
    "jag_m_opt_bottleneck",
    "jag_m_opt_dp_bottleneck",
]

_INF = np.iinfo(np.int64).max // 4

#: expected-interval threshold above which the jump-table kernel beats the
#: scalar greedy: the table costs one O(n2) vectorized searchsorted while
#: the scalar path costs one list bisection per interval actually placed
_BATCH_MIN_PARTS = 48


def _stripe_min_parts(
    pref: PrefixSum2D, k: int, i: int, B: int, cap: int, est: int = 1
) -> int:
    """Greedy rectangle count for stripe rows ``[k, i)`` at bottleneck ``B``.

    The feasibility DP revisits the same ``(k, i)`` stripes on every
    bisection iteration; with the perf layer on, the stripe projection is
    served from the prefix cache instead of re-materializing
    ``G[i,:] - G[k,:]`` (and re-converting it to a list) per call.
    ``est`` is the caller's lower bound on the interval count
    (``ceil(load/B)``): the jump-table kernel only pays off when the greedy
    walk is long, which ``est`` predicts and ``cap`` does not.
    """
    if not perf_enabled():
        return min_parts(pref.axis_prefix(1, k, i), B, cap=cap)
    if min(est, cap) >= _BATCH_MIN_PARTS:
        return min_parts_batch(pref.axis_prefix(1, k, i, reuse=True), B, cap=cap)
    return min_parts(pref.boundary_list(1, k, i, reuse=True), B, cap=cap)


#: memo-entry list length that triggers a compaction pass; cross-sweep
#: sharing would otherwise grow the per-stripe fact lists without bound
#: and slow the linear scan in :func:`_memo_bounds`
_MEMO_COMPACT_LEN = 24


def _compact_entries(entries: list) -> None:
    """Drop memo facts that cannot change any :func:`_memo_bounds` answer.

    The lower bound at a query ``B`` is the max count over entries with
    ``B' >= B``: scanning entries by descending ``B'``, only those raising
    the running max matter.  The upper bound is the min count over *exact*
    entries with ``B' <= B``: by ascending ``B'``, only those lowering the
    running min matter.  Keeping the union preserves both staircases, so
    every future bound query answers identically — compaction can drop
    work-saving facts never, only redundant ones.
    """
    keep: dict[tuple[int, int, bool], None] = {}
    best_lo = -1
    for rec in sorted(entries, key=lambda e: (-e[0], -e[1])):
        if rec[1] > best_lo:
            keep[rec] = None
            best_lo = rec[1]
    best_hi: int | None = None
    for rec in sorted(entries, key=lambda e: (e[0], e[1])):
        if rec[2] and (best_hi is None or rec[1] < best_hi):
            keep[rec] = None
            best_hi = rec[1]
    entries[:] = list(keep)


#: reserved memo key for whole-matrix probe facts: ``(B, count, exact)``
#: records of the minimum-processor DP itself (a string, so it can never
#: collide with the ``(k, i)`` stripe keys)
_PROBE_KEY = "f"


def _memo_record(
    memo: dict, key: tuple[int, int] | str, entries: list | None, rec: tuple
) -> None:
    """Append a stripe fact, compacting the list when it grows long."""
    if entries is None:
        memo[key] = [rec]
    else:
        entries.append(rec)
        if len(entries) > _MEMO_COMPACT_LEN:
            _compact_entries(entries)


def _memo_bounds(entries: list, B: int) -> tuple[int, int | None]:
    """Exact bounds on a stripe's part count at bottleneck ``B``.

    ``entries`` holds ``(B', parts', exact')`` triples from earlier
    evaluations of the same stripe during the bisection.  The greedy count
    is non-increasing in the bottleneck, so an evaluation at ``B' >= B``
    lower-bounds the count at ``B`` (capped evaluations are themselves
    lower bounds, which still transfer), while an *exact* evaluation at
    ``B' <= B`` upper-bounds it.  Returns ``(lo, hi)`` with ``hi = None``
    when no upper bound is known; ``lo == hi`` pins the count exactly.
    """
    lo = 0
    hi: int | None = None
    for Bs, p, exact in entries:
        if Bs >= B:
            if p > lo:
                lo = p
            if exact and Bs == B and (hi is None or p < hi):
                hi = p
        elif exact and (hi is None or p < hi):
            hi = p
    return lo, hi


def _min_processors(
    pref: PrefixSum2D, B: int, m_cap: int, memo: dict | None = None
) -> tuple[int, np.ndarray] | None:
    """Minimum-processor DP at ``B``: ``(f[n1], stripe cuts)``, or None when ``f[n1] > m_cap``.

    ``f[i]`` = minimum rectangles of load ``<= B`` forming a jagged partition
    of rows ``[0, i)`` (all columns).  Entries above ``m_cap`` are clamped to
    ``_INF`` (they cannot participate in a feasible solution).  ``memo``
    carries ``(k, i) -> [(B', parts', exact')]`` stripe evaluations across
    bisection iterations (see :func:`_memo_bounds`); the bounds either skip
    a candidate outright or pin its count without re-running the greedy.
    The stripe cuts follow the first strict improvement of each ``f[i]`` in
    candidate order; the memo bounds only drop candidates that cannot
    *strictly* improve, so the cuts are the same whatever the memo holds.
    """
    n1 = pref.n1
    fast = perf_enabled()
    if fast and memo is None:
        memo = {}
    rowsum = pref.axis_prefix(0, reuse=True)  # length n1+1
    f = np.full(n1 + 1, _INF, dtype=np.int64)
    arg = [0] * (n1 + 1)
    f[0] = 0
    for i in range(1, n1 + 1):
        fk = f[:i]
        # cheap lower bound on the stripe cost: ceil(load/B), at least 1
        stripe_load = rowsum[i] - rowsum[:i]
        lb = fk + np.maximum(1, -(-stripe_load // B)) if B > 0 else fk + 1
        order = np.argsort(lb, kind="stable")
        best, best_k = _INF, 0
        for k in order:
            if lb[k] >= best or lb[k] > m_cap:
                break
            kk = int(k)
            cap = int(min(best - 1 - f[kk], m_cap - f[kk]))
            if cap < 1:
                continue
            if fast:
                key = (kk, i)
                entries = memo.get(key)  # type: ignore[union-attr]
                lower = int(lb[k] - fk[k])
                hi: int | None = None
                if entries is not None:
                    lo2, hi = _memo_bounds(entries, B)
                    if lo2 > lower:
                        lower = lo2
                if int(f[kk]) + lower >= best:
                    continue  # proven unable to improve: skip the greedy
                if hi is not None and hi == lower:
                    parts = lower  # bounds met: the count is pinned
                else:
                    parts = _stripe_min_parts(pref, kk, i, B, cap, est=lower)
                    rec = (B, parts, parts <= cap)
                    _memo_record(memo, key, entries, rec)  # type: ignore[arg-type]
            else:
                parts = _stripe_min_parts(pref, kk, i, B, cap)
            cost = f[kk] + parts
            if parts <= cap and cost < best:
                best, best_k = cost, kk
        f[i] = best
        arg[i] = best_k
        if fast and best > m_cap:
            # f is non-decreasing in i (truncating a partition of [0, i) to
            # [0, i') never adds rectangles), so one infeasible row decides
            return None
    if f[n1] > m_cap:
        return None
    cuts = [n1]
    i = n1
    while i > 0:
        i = arg[i]
        cuts.append(i)
    return int(f[n1]), np.array(cuts[::-1], dtype=np.int64)


def _shared_memo(pref: PrefixSum2D) -> dict | None:
    """The stripe memo to use: sweep-shared when a sweep is active.

    The memo facts are functions of the stripe and the probed bottleneck
    alone (m never enters), so one memo soundly serves every bisection of
    every sweep step over the same prefix.
    """
    if not perf_enabled():
        return None
    state = _sweep_current()
    if state is not None:
        memo = state.stripe_memo(pref)
        if memo is not None:
            return memo
    return {}


def _probe(
    pref: PrefixSum2D, B: int, m: int, memo: dict | None
) -> tuple[bool, np.ndarray | None]:
    """Is bottleneck ``B`` feasible with ``m`` processors (``F(B) <= m``)?

    Returns the answer and, when the DP ran and ``B`` is feasible, the
    stripe cuts of its minimum-processor solution (``None`` otherwise).
    ``F(B)``, the minimum processor count at bottleneck ``B``, is one
    non-increasing staircase shared by every ``m``, so each probe's exact
    result (or its proven "> m" lower bound) is recorded under
    ``_PROBE_KEY`` and can answer probes of *later* bisections outright.
    Within a single bisection the facts never decide — the window is always
    the still-undecided gap — so a cold call's probe trajectory is
    unchanged, and a decided probe returns exactly what the DP would have
    computed.
    """
    entries = memo.get(_PROBE_KEY) if memo is not None else None
    if entries is not None:
        flo, fhi = _memo_bounds(entries, B)
        if fhi is not None and fhi <= m:
            return True, None
        if flo > m:
            return False, None
    sol = _min_processors(pref, B, m, memo)
    if memo is not None:
        rec = (B, sol[0], True) if sol is not None else (B, m + 1, False)
        _memo_record(memo, _PROBE_KEY, entries, rec)
    return (True, sol[1]) if sol is not None else (False, None)


def jag_m_opt_bottleneck(
    pref: PrefixSum2D,
    m: int,
    *,
    ub: int | None = None,
    memo: dict | None = None,
    below: int | None = None,
) -> int | None:
    """Optimal m-way jagged bottleneck (main dimension 0) by exact bisection.

    With ``below``, returns ``None`` iff the optimum is ``>= below``: one
    feasibility probe at ``below - 1`` decides that, and otherwise the
    bisection runs in ``[lb, below - 1]`` without the internal heuristic
    upper bound.  The -BEST wrapper uses this to settle the losing
    orientation; a ``None`` result records nothing in a sweep.

    Under an active :mod:`repro.sweep` context the bisection window is
    tightened from bounds proved by earlier calls on the same prefix
    (monotone in ``m``), the internal heuristic upper bound is skipped when
    a same-``m`` witness is already recorded, and the stripe memo is shared
    across sweep steps.  All of these only narrow a valid bracket or reuse
    proven stripe facts, so the returned optimum is bit-identical to a cold
    call's.
    """
    return _bisect(pref, m, ub=ub, memo=memo, below=below)[0]


def _bisect(
    pref: PrefixSum2D, m: int, *, ub: int | None, memo: dict | None, below: int | None
) -> tuple[int | None, np.ndarray | None]:
    """:func:`jag_m_opt_bottleneck` plus the stripe cuts of its DP pass at the optimum.

    The cuts are those of the bisection's feasible probe at the optimum, or
    ``None`` when no probe there ran the DP (the optimum came from a bound
    or a recorded fact).
    """
    if m <= 0:
        raise ParameterError("m must be positive")
    state = _sweep_current()
    wlb: int | None = None
    wub: int | None = None
    if state is not None:
        exact, wlb, wub = state.mono_bounds(pref, "jag_m", m)
        if exact is not None:
            return (None if below is not None and exact >= below else exact), None
    lb = max(-(-pref.total // m), pref.max_element())
    if wlb is not None and wlb > lb:
        lb = wlb
    if memo is None:
        memo = _shared_memo(pref)
    found: tuple[int, np.ndarray] | None = None  # (B, cuts) of a DP-run feasible probe
    if below is not None:
        if lb >= below:
            return None, None
        if ub is None or ub >= below:
            if wub is not None and wub < below:
                ub = wub
            else:
                ok, cuts = _probe(pref, below - 1, m, memo)
                if not ok:
                    return None, None
                ub = below - 1
                if cuts is not None:
                    found = (ub, cuts)
    elif ub is None:
        if state is not None and state.mono_witness(pref, "jag_m", m) is not None:
            # a same-m witness is exactly what the internal heuristic would
            # prove (or tighter); any valid ub leaves the bisection result
            # unchanged, so skip recomputing it
            ub = wub
        else:
            heur = _jag_m_heur_main0(pref, m)
            ub = heur.max_load(pref)
    assert ub is not None
    ub = max(lb, int(ub))
    if wub is not None and wub < ub:
        ub = max(lb, wub)
    while lb < ub:
        mid = (lb + ub) // 2
        ok, cuts = _probe(pref, mid, m, memo)
        if ok:
            ub = mid
            if cuts is not None:
                found = (mid, cuts)
        else:
            lb = mid + 1
    if state is not None:
        state.record_mono_opt(pref, "jag_m", m, int(lb))
    return int(lb), (found[1] if found is not None and found[0] == lb else None)


def _jag_m_opt_main0(pref: PrefixSum2D, m: int) -> Partition:
    """Optimal m-way jagged partition (§3.2.2) on main dimension 0."""
    part = _jag_m_opt_pruned(pref, m, below=None)
    assert part is not None
    return part


def _jag_m_opt_pruned(pref: PrefixSum2D, m: int, *, below: int | None) -> Partition | None:
    """:func:`_jag_m_opt_main0`, or ``None`` when the optimum is ``>= below``."""
    memo = _shared_memo(pref)
    B, stripe_cuts = _bisect(pref, m, ub=None, memo=memo, below=below)
    if B is None:
        return None
    if stripe_cuts is None:  # no probe at B ran the DP: run it once
        sol = _min_processors(pref, B, m, memo)
        assert sol is not None, "the optimum must be feasible"
        stripe_cuts = sol[1]
    P = len(stripe_cuts) - 1
    # minimum per-stripe processor counts at bottleneck B
    need = np.empty(P, dtype=np.int64)
    for s in range(P):
        need[s] = _stripe_min_parts(pref, int(stripe_cuts[s]), int(stripe_cuts[s + 1]), B, m)
    spare = m - int(need.sum())
    assert spare >= 0
    if spare > 0:
        # spread idle processors where they help the within-stripe balance;
        # allocate_processors returns entries >= 1 summing to spare + P,
        # so need sums to exactly m
        rowsum = pref.axis_prefix(0, reuse=True)
        loads = rowsum[stripe_cuts[1:]] - rowsum[stripe_cuts[:-1]]
        need = need + allocate_processors(loads, spare + P) - 1
    col_cuts = []
    for s in range(P):
        band = pref.axis_prefix(1, int(stripe_cuts[s]), int(stripe_cuts[s + 1]), reuse=True)
        q = int(need[s])
        # optimal within the stripe: q is at least the greedy count at B,
        # so the stripe optimum never exceeds B
        b = bisect_bottleneck(band, q)
        assert b <= B
        cc = probe_cuts(band, q, b)
        assert cc is not None
        col_cuts.append(cc)
    return build_jagged_partition(
        pref, stripe_cuts, col_cuts, method="JAG-M-OPT", pad_to=m
    )


jag_m_opt = oriented(_jag_m_opt_main0, pruned=_jag_m_opt_pruned)
jag_m_opt.__name__ = "jag_m_opt"


# ----------------------------------------------------------------------
# The paper's dynamic program (small-instance oracle)
# ----------------------------------------------------------------------
def jag_m_opt_dp_bottleneck(pref: PrefixSum2D, m: int, *, limit: int = 1 << 22) -> int:
    """The paper's DP formulation, memoized — exact but high complexity.

    ``Lmax(i, q) = min_{k <= i, x <= q} max(Lmax(k, q - x), 1D(k, i, x))``
    with ``1D`` the optimal auxiliary-dimension partition of stripe
    ``[k, i)`` on ``x`` processors.  Guarded by ``limit`` on ``n1²·m`` to
    avoid accidental huge runs; use :func:`jag_m_opt_bottleneck` for real
    instances.
    """
    n1 = pref.n1
    if n1 * n1 * m > limit:
        raise ParameterError(
            f"instance too large for the paper DP (n1²·m = {n1 * n1 * m} > {limit})"
        )
    @lru_cache(maxsize=None)
    def oneD(k: int, i: int, x: int) -> int:
        band = pref.axis_prefix(1, k, i)
        return bisect_bottleneck(band, x)

    @lru_cache(maxsize=None)
    def Lmax(i: int, q: int) -> int:
        if i == 0:
            return 0
        if q == 0:
            return _INF
        best = _INF
        for x in range(1, q + 1):
            for k in range(i):
                v = max(Lmax(k, q - x), oneD(k, i, x))
                if v < best:
                    best = v
        return best

    return int(Lmax(n1, m))

"""Tests for the striped-cost 1D solver used by RECT-NICOL."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.oned.multicost import multi_bottleneck, multi_cuts, partition_multi, probe_multi
from repro.perf import op_counters, use_perf

stripe_loads = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 3), st.integers(1, 8)),
    elements=st.integers(0, 30),
)


def stack_prefix(A):
    M = np.zeros((A.shape[0], A.shape[1] + 1), dtype=np.int64)
    M[:, 1:] = np.cumsum(A, axis=1)
    return M


def brute(M, m):
    n = M.shape[1] - 1
    best = None
    for cuts in itertools.combinations(range(1, n), min(m - 1, n - 1)):
        cc = [0, *cuts, n]
        v = max(
            max(int(M[s][b] - M[s][a]) for s in range(M.shape[0]))
            for a, b in zip(cc, cc[1:])
        )
        best = v if best is None else min(best, v)
    return best if best is not None else int(M[:, -1].max())


class TestMultiBottleneck:
    @given(stripe_loads, st.integers(1, 5))
    @settings(max_examples=80)
    def test_matches_bruteforce(self, A, m):
        M = stack_prefix(A)
        assert multi_bottleneck(M, m) == brute(M, m)

    @given(stripe_loads, st.integers(1, 5))
    @settings(max_examples=40)
    def test_cuts_realize_value(self, A, m):
        M = stack_prefix(A)
        B, cuts = partition_multi(M, m)
        assert cuts[0] == 0 and cuts[-1] == A.shape[1]
        worst = 0
        for a, b in zip(cuts, cuts[1:]):
            worst = max(worst, int((M[:, b] - M[:, a]).max()))
        assert worst == B

    def test_single_stripe_equals_plain_1d(self, rng):
        from repro.oned.bisect import bisect_bottleneck

        vals = rng.integers(0, 40, 30)
        M = stack_prefix(vals[None, :])
        for m in (1, 3, 8):
            assert multi_bottleneck(M, m) == bisect_bottleneck(M[0], m)

    def test_probe_multi_monotone_in_b(self, rng):
        A = rng.integers(0, 20, (3, 12))
        M = stack_prefix(A)
        feas = [probe_multi(M, 3, B) for B in range(0, int(A.sum()) + 1, 5)]
        # once feasible, stays feasible
        assert feas == sorted(feas)

    def test_multi_cuts_infeasible(self):
        M = stack_prefix(np.array([[9, 9]]))
        assert multi_cuts(M, 2, 5) is None

    def test_degenerate_empty(self):
        M = np.zeros((2, 1), dtype=np.int64)
        assert multi_bottleneck(M, 3) == 0


class TestHintedSearch:
    """Perf-on ``multi_bottleneck`` (RECT-NICOL passes the incumbent grid
    bottleneck as ``ub``) must return the perf-off optimum for every hint."""

    @staticmethod
    def both_modes(M, m, ub=None):
        with use_perf(False):
            ref = multi_bottleneck(M, m, ub=ub)
        with use_perf(True):
            got = multi_bottleneck(M, m, ub=ub)
        return ref, got

    @given(
        hnp.arrays(
            dtype=np.int64,
            shape=st.tuples(st.sampled_from([2, 7, 8, 9]), st.integers(1, 7)),
            elements=st.integers(0, 30),
        ),
        st.integers(1, 4),
        st.integers(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_with_hints(self, A, m, shift):
        M = stack_prefix(A)
        opt = brute(M, m)
        for ub in (None, opt, opt + shift, opt + 1, max(opt - 1, 0)):
            ref, got = self.both_modes(M, m, ub)
            assert ref == got == opt, (ub, ref, got, opt)

    @pytest.mark.parametrize("S", [4, 8, 16, 40])
    def test_perf_on_equals_perf_off_for_any_hint(self, S):
        rng = np.random.default_rng(S)
        M = stack_prefix(rng.integers(0, 10_000, (S, 300)))
        for m in (1, 5, 16, 299, 400):
            opt, _ = self.both_modes(M, m)
            for ub in (None, 0, opt // 2, opt - 1, opt, opt + 1, opt + 12_345, 50 * opt):
                ref, got = self.both_modes(M, m, ub)
                assert ref == got == opt, (S, m, ub)

    def test_loads_near_int64_limit(self):
        # probe targets row[i] + B exceed int64 here; the list walk's Python
        # ints stay exact, so every hint still lands on the same optimum
        rng = np.random.default_rng(62)
        M = stack_prefix(rng.integers(2**58, 2**59, (8, 12)))
        opt = brute(M, 4)
        for ub in (None, opt, int(M[:, -1].max()), 2**63 - 1):
            assert self.both_modes(M, 4, ub) == (opt, opt)

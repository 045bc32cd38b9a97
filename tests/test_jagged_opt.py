"""Tests for the optimal jagged algorithms JAG-PQ-OPT and JAG-M-OPT (§3.2)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.prefix import PrefixSum2D
from repro.core.sparse import SparsePrefix2D
from repro.jagged import (
    jag_m_heur,
    jag_m_opt,
    jag_m_opt_bottleneck,
    jag_m_opt_dp_bottleneck,
    jag_pq_heur,
    jag_pq_opt,
    jag_pq_opt_bottleneck,
)
from repro.jagged import pq_opt as pq_mod
from repro.jagged.common import choose_pq
from repro.oned.bisect import bisect_bottleneck
from repro.oned.probe import probe
from repro.perf import use_perf
from repro.sweep import use_sweep

tiny_matrices = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    elements=st.integers(0, 30),
)


def brute_pq(A, P, Q):
    """Exhaustive optimal P×Q-way jagged bottleneck (main dim 0)."""
    n1, n2 = A.shape
    G = np.zeros((n1 + 1, n2 + 1), dtype=np.int64)
    G[1:, 1:] = A.cumsum(0).cumsum(1)
    best = None
    k = min(P, n1) - 1
    for bounds in itertools.combinations(range(1, n1), k):
        bb = [0, *bounds, n1]
        worst = 0
        for a, b in zip(bb, bb[1:]):
            band = G[b, :] - G[a, :]
            worst = max(worst, bisect_bottleneck(band, Q))
        best = worst if best is None else min(best, worst)
    return best


def brute_mway(A, m):
    """Exhaustive optimal m-way jagged bottleneck (main dim 0)."""
    n1, n2 = A.shape
    G = np.zeros((n1 + 1, n2 + 1), dtype=np.int64)
    G[1:, 1:] = A.cumsum(0).cumsum(1)
    INF = 1 << 60
    best = None
    for nstripes in range(1, min(n1, m) + 1):
        for bounds in itertools.combinations(range(1, n1), nstripes - 1):
            bb = [0, *bounds, n1]
            f = [INF] * (m + 1)
            f[0] = 0
            for a, b in zip(bb, bb[1:]):
                band = G[b, :] - G[a, :]
                g = [INF] * (m + 1)
                for used in range(m + 1):
                    if f[used] == INF:
                        continue
                    for q in range(1, m - used + 1):
                        v = max(f[used], bisect_bottleneck(band, q))
                        if v < g[used + q]:
                            g[used + q] = v
                f = g
            v = min(f[1:])
            best = v if best is None else min(best, v)
    return best


class TestJagPQOpt:
    @given(tiny_matrices, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce(self, A, P, Q):
        pref = PrefixSum2D(A)
        assert jag_pq_opt_bottleneck(pref, P, Q) == brute_pq(A, P, Q)

    @given(tiny_matrices, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_not_worse_than_heuristic(self, A, m):
        opt = jag_pq_opt(A, m).max_load(A)
        heur = jag_pq_heur(A, m).max_load(A)
        assert opt <= heur

    @given(tiny_matrices, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_partition_achieves_bottleneck(self, A, m):
        p = jag_pq_opt(A, m, orientation="hor")
        p.validate()
        from repro.jagged.common import choose_pq

        P, Q = choose_pq(m, A.shape[0], A.shape[1])
        assert p.max_load(A) == jag_pq_opt_bottleneck(PrefixSum2D(A), P, Q)

    def test_medium_instance(self, rng):
        A = rng.integers(1, 100, (40, 40))
        p = jag_pq_opt(A, 16)
        p.validate()
        assert p.max_load(A) <= jag_pq_heur(A, 16).max_load(A)


class TestJagMOpt:
    @given(tiny_matrices, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, A, m):
        pref = PrefixSum2D(A)
        assert jag_m_opt_bottleneck(pref, m) == brute_mway(A, m)

    @given(tiny_matrices, st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_matches_paper_dp(self, A, m):
        pref = PrefixSum2D(A)
        assert jag_m_opt_bottleneck(pref, m) == jag_m_opt_dp_bottleneck(pref, m)

    @given(tiny_matrices, st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_dominance_chain(self, A, m):
        """OPT(m-way) <= OPT(P×Q-way) <= HEUR(P×Q); OPT(m-way) <= HEUR(m-way)."""
        mo = jag_m_opt(A, m).max_load(A)
        assert mo <= jag_pq_opt(A, m).max_load(A)
        assert mo <= jag_m_heur(A, m).max_load(A)

    @given(tiny_matrices, st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_partition_achieves_bottleneck(self, A, m):
        pref = PrefixSum2D(A)
        p = jag_m_opt(pref, m, orientation="hor")
        p.validate()
        assert p.max_load(pref) == jag_m_opt_bottleneck(pref, m)

    def test_medium_instance_beats_heuristic(self, rng):
        A = rng.integers(1, 100, (32, 32))
        m = 25
        opt = jag_m_opt(A, m)
        opt.validate()
        assert opt.max_load(A) <= jag_m_heur(A, m).max_load(A)

    def test_dp_size_guard(self, rng):
        from repro.core.errors import ParameterError

        A = rng.integers(1, 5, (100, 100))
        with pytest.raises(ParameterError):
            jag_m_opt_dp_bottleneck(PrefixSum2D(A), 1000)


# ---------------------------------------------------------------------------
# -BEST orientation pruning: the vertical solve gets the horizontal optimum
# as ``below`` and settles a losing orientation with one probe

SOLVERS = {"JAG-PQ-OPT": jag_pq_opt, "JAG-M-OPT": jag_m_opt}


def _rects(part) -> list[tuple[int, int, int, int]]:
    return [(r.r0, r.r1, r.c0, r.c1) for r in part.rects]


def _reference_best(fn, pref, m):
    """Both orientations solved fully; VER only if strictly better."""
    hor = fn(pref, m, orientation="hor")
    ver = fn(pref, m, orientation="ver")
    return ver if ver.max_load(pref) < hor.max_load(pref) else hor


def _orientation_matrix(kind: str) -> np.ndarray:
    if kind == "symmetric":  # the orientations tie: HOR must win
        base = np.random.default_rng(31).integers(0, 50, (14, 14))
        return base + base.T
    if kind == "ver-wins":  # weighted columns: VER is strictly better
        rng = np.random.default_rng(8)
        return rng.integers(0, 60, (12, 15)) * (rng.integers(1, 4, 15)[None, :] ** 2)
    return np.random.default_rng(5).integers(0, 40, (11, 13))


class TestOrientationPruning:
    @pytest.mark.parametrize("algo", sorted(SOLVERS))
    @pytest.mark.parametrize("kind", ["symmetric", "ver-wins", "random"])
    @pytest.mark.parametrize("substrate", ["dense", "csr"])
    @pytest.mark.parametrize("perf", [False, True], ids=["perf-off", "perf-on"])
    def test_best_matches_reference_rule(self, algo, kind, substrate, perf):
        A = _orientation_matrix(kind)
        make = PrefixSum2D if substrate == "dense" else SparsePrefix2D
        fn = SOLVERS[algo]
        for m in (6, 9):
            with use_perf(perf):
                ref = _reference_best(fn, make(A), m)
                got = fn(make(A), m)
            assert got.meta["orientation"] == ref.meta["orientation"], (m, kind)
            assert _rects(got) == _rects(ref), (m, kind)
            if kind == "symmetric":
                assert got.meta["orientation"] == "hor"
            elif kind == "ver-wins":
                assert got.meta["orientation"] == "ver"

    @given(tiny_matrices, st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_best_matches_reference_rule_tiny(self, A, m):
        for fn in SOLVERS.values():
            ref = _reference_best(fn, PrefixSum2D(A), m)
            got = fn(PrefixSum2D(A), m)
            assert got.meta["orientation"] == ref.meta["orientation"]
            assert _rects(got) == _rects(ref)


# ---------------------------------------------------------------------------
# the ``below=`` contract of the exact bottleneck searches


def _below_cases(opt: int) -> list[int]:
    return sorted({max(1, opt - 2), max(1, opt - 1), opt, opt + 1, opt + 7})


class TestBelowContract:
    @given(tiny_matrices, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_pq_none_iff_optimum_at_or_above(self, A, P, Q):
        opt = jag_pq_opt_bottleneck(PrefixSum2D(A), P, Q)
        for below in _below_cases(opt):
            got = jag_pq_opt_bottleneck(PrefixSum2D(A), P, Q, below=below)
            assert got == (None if opt >= below else opt), below

    @given(tiny_matrices, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_m_none_iff_optimum_at_or_above(self, A, m):
        opt = jag_m_opt_bottleneck(PrefixSum2D(A), m)
        for below in _below_cases(opt):
            got = jag_m_opt_bottleneck(PrefixSum2D(A), m, below=below)
            assert got == (None if opt >= below else opt), below

    @pytest.mark.parametrize("perf", [False, True], ids=["perf-off", "perf-on"])
    def test_explicit_ub_under_the_cutoff_returns_the_optimum(self, perf):
        A = _orientation_matrix("random")
        with use_perf(perf):
            opt = jag_m_opt_bottleneck(PrefixSum2D(A), 7)
            P, Q = choose_pq(6, *A.shape)
            pq = jag_pq_opt_bottleneck(PrefixSum2D(A), P, Q)
            assert jag_m_opt_bottleneck(PrefixSum2D(A), 7, ub=opt, below=opt + 5) == opt
            assert jag_pq_opt_bottleneck(PrefixSum2D(A), P, Q, ub=pq, below=pq + 5) == pq

    @pytest.mark.parametrize("algo", sorted(SOLVERS))
    def test_pruned_call_records_nothing_in_a_sweep(self, algo):
        A = _orientation_matrix("symmetric")  # VER never strictly wins
        m = 9
        pref = PrefixSum2D(A)
        with use_sweep() as state:
            part = SOLVERS[algo](pref, m)
            assert part.meta["orientation"] == "hor"
            prefT = pref.transpose()  # the sweep pins Γᵀ: same object as the solve saw
            assert prefT.transpose() is pref
            P, Q = choose_pq(m, prefT.n1, prefT.n2)
            assert state.grid_bounds(prefT, P, Q) == (None, None, None)
            assert state.grid_witness(prefT, P, Q) is None
            assert state.mono_bounds(prefT, "jag_m", m) == (None, None, None)
            assert state.mono_witness(prefT, "jag_m", m) is None
            # the winning orientation still records its optimum
            B = part.max_load(pref)
            if algo == "JAG-M-OPT":
                assert state.mono_bounds(pref, "jag_m", m)[0] == B
            else:
                assert state.grid_bounds(pref, *choose_pq(m, *A.shape))[0] == B

    @pytest.mark.parametrize("kind", ["symmetric", "ver-wins", "random"])
    def test_m_sweep_inside_a_sweep_equals_cold_calls(self, kind):
        A = _orientation_matrix(kind)
        ms = [9, 4, 12, 6, 9]
        pref = PrefixSum2D(A)
        with use_sweep():
            warm = [(algo, m, SOLVERS[algo](pref, m)) for m in ms for algo in sorted(SOLVERS)]
        for algo, m, part in warm:
            cold = SOLVERS[algo](PrefixSum2D(A), m)
            assert part.meta["orientation"] == cold.meta["orientation"], (algo, m)
            assert _rects(part) == _rects(cold), (algo, m)


# ---------------------------------------------------------------------------
# JAG-PQ-OPT's stripe-end brackets never change the greedy


def _naive_feasible(A, P, Q, B):
    """The stripe greedy by linear scan: no brackets, no load cap."""
    n1 = A.shape[0]
    G = np.zeros((n1 + 1, A.shape[1] + 1), dtype=np.int64)
    G[1:, 1:] = A.cumsum(0).cumsum(1)
    cuts = [0]
    pos = 0
    for _ in range(P):
        end = pos
        while end < n1 and probe(G[end + 1, :] - G[pos, :], Q, B):
            end += 1
        if pos < n1 and end == pos:
            return None
        pos = end
        cuts.append(pos)
    return cuts if pos == n1 else None


def _bracket_matrices() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(77)
    trailing = rng.integers(0, 30, (16, 9))
    trailing[9:] = 0  # the greedy covers every row before the last stripe
    spike = rng.integers(0, 10, (14, 8))
    spike[6, 3] = 900  # one cell above every probed B but the top ones
    return {"random": rng.integers(0, 40, (18, 11)), "trailing": trailing, "spike": spike}


class TestStripeEndBrackets:
    @pytest.mark.parametrize("kind", ["random", "trailing", "spike"])
    @pytest.mark.parametrize("perf", [False, True], ids=["perf-off", "perf-on"])
    def test_bounded_feasible_equals_unbounded_on_a_trajectory(self, kind, perf, monkeypatch):
        A = _bracket_matrices()[kind]
        calls = []
        greedy = pq_mod._greedy_ends

        def spy(pref, P, Q, B, rowsum, lo=None, hi=None):
            calls.append((pref, P, Q, B, lo, hi))
            return greedy(pref, P, Q, B, rowsum, lo, hi)

        monkeypatch.setattr(pq_mod, "_greedy_ends", spy)
        with use_perf(perf):
            for m in (4, 6, 9, 16):
                jag_pq_opt(A, m)  # both orientations, the second with below=
        monkeypatch.undo()
        assert any(lo is not None for *_, lo, _ in calls)
        assert any(hi is not None for *_, hi in calls)
        outcomes = set()
        with use_perf(perf):
            for pref, P, Q, B, lo, hi in calls:
                rowsum = pq_mod._row_loads(pref)
                assert greedy(pref, P, Q, B, rowsum, lo, hi) == greedy(pref, P, Q, B, rowsum)
                bounded = pq_mod._feasible(pref, P, Q, B, lo, hi)
                plain = pq_mod._feasible(pref, P, Q, B)
                assert (bounded is None) == (plain is None), B
                if plain is not None:
                    np.testing.assert_array_equal(bounded, plain)
                dense = pref.G[1:, 1:] - pref.G[:-1, 1:] - pref.G[1:, :-1] + pref.G[:-1, :-1]
                ref = _naive_feasible(dense, P, Q, B)
                assert (ref is None) == (plain is None), B
                if ref is not None:
                    assert plain.tolist() == ref
                outcomes.add(plain is None)
        assert outcomes == {True, False}  # infeasible and feasible probes both seen

    @pytest.mark.parametrize("kind", ["random", "trailing", "spike"])
    def test_ends_are_monotone_and_every_bracket_is_exact(self, kind):
        A = _bracket_matrices()[kind]
        pref = PrefixSum2D(A)
        rowsum = pq_mod._row_loads(pref)
        P, Q = 4, 3
        opt = jag_pq_opt_bottleneck(pref, P, Q)
        Bs = sorted({1, 5, int(A.max()) - 1, int(A.max()), opt - 3, opt - 1, opt, opt + 1, 2 * opt})
        ends = {B: pq_mod._greedy_ends(pref, P, Q, B, rowsum) for B in Bs if B > 0}
        Bs = sorted(ends)
        for a, b in zip(Bs, Bs[1:]):
            assert all(x <= y for x, y in zip(ends[a], ends[b])), (a, b)
        for i, B in enumerate(Bs):
            for B_lo in [None, *Bs[:i]]:
                for B_hi in [None, *Bs[i + 1 :]]:
                    lo = None if B_lo is None else ends[B_lo]
                    hi = None if B_hi is None else ends[B_hi]
                    assert pq_mod._greedy_ends(pref, P, Q, B, rowsum, lo, hi) == ends[B]
        if kind == "spike":  # below the spike the greedy is stuck at its row
            stuck = ends[int(A.max()) - 1]
            assert stuck[P] < pref.n1 and stuck[-1] == stuck[-2]
        if kind == "trailing":  # a generous B leaves empty trailing stripes
            assert ends[Bs[-1]].count(pref.n1) >= 2

"""Property tests: optimized kernels are bit-identical to the reference paths.

The perf layer's contract (docs/performance.md) is *exact* equality, not
approximate: every optimized kernel dispatches on ``perf_enabled()`` and
must produce the same integers — same probe decisions, same cut positions,
same rectangles — as the straight-line reference implementation it
replaces.  These tests drive both paths on randomized instances and compare
the raw outputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prefix import PrefixSum2D
from repro.core.registry import partition_2d
from repro.hierarchical.cuts import (
    best_relaxed_split,
    best_relaxed_split_win,
    best_weighted_cut,
    best_weighted_cut_num,
    best_weighted_cut_win,
)
from repro.oned.bisect import bisect_bottleneck, feasible_bottlenecks
from repro.oned.probe import min_parts, probe
from repro.perf import min_parts_batch, probe_batch, use_perf

from .conftest import load_arrays, prefix_of

# ---------------------------------------------------------------------------
# batched probe kernels vs scalar references


@settings(max_examples=60, deadline=None)
@given(values=load_arrays, m=st.integers(1, 8), data=st.data())
def test_probe_batch_matches_scalar_probe(values, m, data):
    P = prefix_of(values)
    total = int(P[-1])
    Bs = data.draw(
        st.lists(st.integers(-2, total + 2), min_size=1, max_size=12),
        label="bottleneck candidates",
    )
    got = probe_batch(P, m, np.array(Bs, dtype=np.int64))
    want = np.array([probe(P, m, B) for B in Bs])
    np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(values=load_arrays, data=st.data())
def test_probe_batch_matches_on_windows(values, data):
    m = 3
    P = prefix_of(values)
    n = len(P) - 1
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    Bs = np.array([0, 1, int(P[-1]) // 2 + 1, int(P[-1])], dtype=np.int64)
    got = probe_batch(P, m, Bs, lo, hi)
    want = np.array([probe(P, m, int(B), lo, hi) for B in Bs])
    np.testing.assert_array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(values=load_arrays, data=st.data())
def test_min_parts_batch_matches_scalar(values, data):
    P = prefix_of(values)
    total = int(P[-1])
    B = data.draw(st.integers(0, total + 1), label="B")
    cap = data.draw(st.one_of(st.none(), st.integers(0, len(P) + 1)), label="cap")
    try:
        want = min_parts(P, B, cap=cap)
    except ValueError:
        with pytest.raises(ValueError):
            min_parts_batch(P, B, cap=cap)
        return
    assert min_parts_batch(P, B, cap=cap) == want


def test_min_parts_batch_windowed():
    rng = np.random.default_rng(3)
    P = prefix_of(rng.integers(0, 40, 60))
    for lo, hi in ((0, 60), (5, 55), (20, 21), (30, 30)):
        for B in (0, 37, 120, 999):
            for cap in (None, 2, 7):
                try:
                    want = min_parts(P, B, lo, hi, cap=cap)
                except ValueError:
                    continue
                assert min_parts_batch(P, B, lo, hi, cap=cap) == want


# ---------------------------------------------------------------------------
# cut kernels vs the Fraction / vectorized references


@settings(max_examples=80, deadline=None)
@given(values=load_arrays, w1=st.integers(1, 9), w2=st.integers(1, 9))
def test_weighted_cut_num_orders_like_fractions(values, w1, w2):
    bp = prefix_of(values)
    ref = best_weighted_cut(bp, w1, w2)
    num = best_weighted_cut_num(bp, w1, w2)
    if ref is None:
        assert num is None
        return
    assert num[0] == ref[0]
    assert num[1] == ref[1] * w1 * w2  # same score, scaled by the denominator


@settings(max_examples=80, deadline=None)
@given(values=load_arrays, m=st.integers(2, 9), data=st.data())
def test_windowed_cut_kernels_match_rebased(values, m, data):
    p = prefix_of(values)
    n = len(p) - 1
    j0 = data.draw(st.integers(0, n), label="j0")
    j1 = data.draw(st.integers(j0, n), label="j1")
    bp = p[j0 : j1 + 1] - p[j0]

    m1, m2 = m // 2, m - m // 2
    orients = ((m1, m2),) if m1 == m2 else ((m1, m2), (m2, m1))
    win = best_weighted_cut_win(p, j0, j1, orients)
    # reference: sequential first-occurrence minimum over the orientations
    seq = None
    for w1, w2 in orients:
        f = best_weighted_cut_num(bp, w1, w2)
        if f is not None and (seq is None or f[1] < seq[1]):
            seq = (f[0], f[1], w1, w2)
    assert win == seq

    with use_perf(False):
        ref_split = best_relaxed_split(bp, m)
    split = best_relaxed_split_win(p, j0, j1, m)
    assert split == ref_split


# ---------------------------------------------------------------------------
# whole-algorithm bit identity: perf on vs perf off


def _rects(A, m, method):
    return partition_2d(A, m, method).rects


EQUALITY_METHODS = [
    "RECT-UNIFORM",
    "RECT-NICOL",
    "JAG-PQ-HEUR",
    "JAG-M-HEUR",
    "JAG-PQ-HEUR-HOR",
    "JAG-M-HEUR-VER",
    "JAG-M-OPT",
    "JAG-PQ-OPT",
    "HIER-RB",
    "HIER-RB-DIST",
    "HIER-RELAXED",
    "HIER-RELAXED-HOR",
]


@pytest.mark.parametrize("method", EQUALITY_METHODS)
def test_partitions_bit_identical_across_modes(method):
    for seed, m in ((0, 5), (1, 9), (2, 16)):
        rng = np.random.default_rng(seed)
        A = rng.integers(0, 60, (21, 17))
        with use_perf(False):
            ref = _rects(A, m, method)
        with use_perf(True):
            opt = _rects(A, m, method)
        assert ref == opt, f"{method} diverged (seed={seed}, m={m})"


@pytest.mark.parametrize("shape", [(8, 16), (16, 12)])
def test_rect_nicol_identical_near_2_56(shape):
    # P, Q >= 8 stripes per striped 1D solve, cell loads near 2**56: stripe
    # totals approach 2**63 and the hinted solves must still match perf off
    from repro.perf import op_counters
    from repro.rectilinear.nicol import rect_nicol

    rng = np.random.default_rng(56)
    A = rng.integers(2**55, 2**56 - 2**44, shape)
    A[rng.random(shape) < 0.2] = 0
    with use_perf(False):
        ref = rect_nicol(A, 64, 8, 8).rects
    with use_perf(True), op_counters() as ops:
        got = rect_nicol(A, 64, 8, 8).rects
    assert ref == got
    assert ops["multi_probe_calls"] > 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_allocate_processors_identical_across_modes(data):
    # the perf path replaces Fraction-keyed ratio comparisons with exact
    # cross-multiplied ints; the allocation must match entry for entry,
    # ties included (first minimal stripe wins in both)
    from repro.jagged.m_heur import allocate_processors

    P = data.draw(st.integers(1, 20))
    m = data.draw(st.integers(P, 12 * P))
    # zeros force the max(q, 1) bump + overflow shave; huge loads would
    # break any float shortcut (2**60 > 2**53)
    loads = np.array(
        data.draw(
            st.lists(
                st.one_of(st.integers(0, 50), st.integers(2**60, 2**62)),
                min_size=P,
                max_size=P,
            )
        ),
        dtype=object,
    )
    with use_perf(False):
        ref = allocate_processors(loads.astype(np.int64, copy=False), m)
    with use_perf(True):
        opt = allocate_processors(loads.astype(np.int64, copy=False), m)
    assert ref.tolist() == opt.tolist()


def test_partitions_bit_identical_with_zeros_and_spikes():
    # sparse + spiky loads exercise the clamping/tie-break corners
    rng = np.random.default_rng(7)
    A = rng.integers(0, 4, (24, 24))
    A[rng.random((24, 24)) < 0.5] = 0
    A[3, 5] = 10_000
    for method in ("JAG-M-HEUR", "JAG-M-OPT", "HIER-RB", "HIER-RELAXED"):
        for m in (2, 7, 12):
            with use_perf(False):
                ref = _rects(A, m, method)
            with use_perf(True):
                opt = _rects(A, m, method)
            assert ref == opt, (method, m)


def test_bisect_bottleneck_identical_on_nd_probe_path():
    # n >= 512*m: the perf path probes the ndarray directly, skipping the
    # list conversion — the bottleneck must not move by a single unit
    rng = np.random.default_rng(13)
    values = rng.integers(0, 1_000_000, 8_000)
    P = prefix_of(values)
    for m in (3, 7, 15):
        with use_perf(False):
            ref = bisect_bottleneck(P, m)
        with use_perf(True):
            opt = bisect_bottleneck(P, m)
        assert ref == opt


@settings(max_examples=60, deadline=None)
@given(values=load_arrays, m=st.integers(1, 8), data=st.data())
def test_feasible_bottlenecks_identical_across_modes(values, m, data):
    P = prefix_of(values)
    total = int(P[-1])
    Bs = data.draw(
        st.lists(st.integers(-2, total + 2), min_size=1, max_size=10),
        label="bottleneck candidates",
    )
    with use_perf(False):
        ref = feasible_bottlenecks(P, m, Bs)
    with use_perf(True):
        opt = feasible_bottlenecks(P, m, Bs)
    np.testing.assert_array_equal(ref, opt)
    np.testing.assert_array_equal(ref, [probe(P, m, int(B)) for B in Bs])


def test_shared_prefix_instance_is_safe_across_methods():
    # one PrefixSum2D reused by many algorithms: the shared projection cache
    # must never leak state between them
    rng = np.random.default_rng(42)
    A = rng.integers(0, 60, (20, 20))
    with use_perf(True):
        pref = PrefixSum2D(A)
        shared = [partition_2d(pref, 6, mth).rects for mth in EQUALITY_METHODS]
    fresh = []
    for mth in EQUALITY_METHODS:
        with use_perf(False):
            fresh.append(partition_2d(PrefixSum2D(A), 6, mth).rects)
    assert shared == fresh

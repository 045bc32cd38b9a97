"""Bit-identity contract of the parallel execution layer (S4 failure modes too).

The contract (``repro.parallel.config``): with the layer enabled, every
algorithm produces the *same rectangles* and the *same deterministic op
counters* as the serial reference path — merely computed on more cores.
``proj_hits`` is excluded: cache hits depend on cache temperature, which
differs even between two serial runs (see docs/performance.md).

These are functional tests: a 2-worker pool runs fine on a 1-CPU box.  The
dispatch layer short-circuits to serial on single-CPU machines (pool round
trips cannot win there), so every test that asserts the pool really ran
passes ``force=True`` — the escape hatch that exists precisely for
exercising the pool machinery itself.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.prefix import PrefixSum2D
from repro.hierarchical.rb import hier_rb
from repro.hierarchical.relaxed import hier_relaxed
from repro.jagged.hetero import jag_hetero
from repro.jagged.m_heur import jag_m_heur
from repro.jagged.pq_heur import jag_pq_heur
from repro.parallel import (
    effective_workers,
    get_pool,
    live_segments,
    pmap,
    pmap_batched,
    pool_workers,
    shutdown_pool,
    use_parallel,
)
from repro.perf.counters import op_counters

#: deterministic counters in the identity contract (proj_hits is not)
_EXCLUDED_COUNTERS = {"proj_hits"}

SPEEDS = np.array([1.0, 1.0, 2.0, 3.0, 1.5, 1.0, 2.0, 1.0])

#: name -> callable(pref) covering every parallel backend: stripe-parallel
#: jagged phase 2 (both orientations), hetero stripes, subtree-parallel trees
CASES = {
    "jag_pq_heur": lambda pref: jag_pq_heur(pref, 12),
    "jag_m_heur": lambda pref: jag_m_heur(pref, 13),
    "jag_hetero": lambda pref: jag_hetero(pref, SPEEDS),
    "hier_rb": lambda pref: hier_rb(pref, 16),
    "hier_rb_hor": lambda pref: hier_rb(pref, 11, "hor"),
    "hier_relaxed": lambda pref: hier_relaxed(pref, 16),
}


def _rects(part):
    return [(r.r0, r.r1, r.c0, r.c1) for r in part.rects]


def _contract_ops(ops):
    return {k: v for k, v in ops.items() if k not in _EXCLUDED_COUNTERS}


@pytest.fixture()
def force_dispatch(monkeypatch):
    """Drop the work-size threshold so tiny test instances dispatch."""
    monkeypatch.setenv("REPRO_PARALLEL_MIN_CELLS", "0")


def _instance(seed: int, shape=(120, 90)) -> PrefixSum2D:
    rng = np.random.default_rng(seed)
    return PrefixSum2D(rng.integers(0, 100, size=shape))


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [7, 21])
def test_bit_identity_two_workers(force_dispatch, name, seed):
    """Rectangles and deterministic op counters match the serial path."""
    pref = _instance(seed)
    fn = CASES[name]
    with op_counters() as serial_ops:
        serial = _rects(fn(pref))
    with use_parallel(True, workers=2, force=True):
        with op_counters() as par_ops:
            par = _rects(fn(pref))
        assert pool_workers() == 2  # the pool really ran this
    assert par == serial
    assert _contract_ops(par_ops) == _contract_ops(serial_ops)


def test_one_worker_is_exactly_the_serial_path(force_dispatch):
    """workers=1 short-circuits: no pool is spawned, results identical."""
    pref = _instance(3)
    serial = {n: _rects(fn(pref)) for n, fn in CASES.items()}
    shutdown_pool()
    with use_parallel(True, workers=1):
        assert effective_workers() == 0
        assert get_pool() is None
        for n, fn in CASES.items():
            assert _rects(fn(pref)) == serial[n]
        assert pool_workers() == 0  # never spawned


def test_disabled_layer_never_dispatches(force_dispatch):
    """Default-off: without use_parallel no pool appears even at threshold 0."""
    shutdown_pool()
    pref = _instance(5, shape=(64, 64))
    _rects(jag_m_heur(pref, 9))
    assert pool_workers() == 0


def _dev_shm_leftovers() -> list[str]:
    return glob.glob("/dev/shm/repro-pool-*")


def test_no_segment_leak_after_shutdown(force_dispatch):
    """Normal lifecycle: exported segments are unlinked by shutdown_pool."""
    pref = _instance(11)
    with use_parallel(True, workers=2, force=True):
        _rects(hier_rb(pref, 16))
    shutdown_pool()
    assert live_segments() == []
    assert _dev_shm_leftovers() == []


def _boom(x):
    raise RuntimeError(f"task failure {x}")


def test_no_segment_leak_after_worker_exception(force_dispatch):
    """A task raising in a worker must not leak segments after shutdown."""
    pref = _instance(13)
    with use_parallel(True, workers=2, force=True):
        _rects(jag_pq_heur(pref, 12))  # exports a segment
        with pytest.raises(RuntimeError, match="task failure"):
            pmap(_boom, [1, 2, 3])
    shutdown_pool()
    assert live_segments() == []
    assert _dev_shm_leftovers() == []


def test_pmap_orders_results(force_dispatch):
    """pmap returns results in item order — the basis of identical reductions."""
    with use_parallel(True, workers=2, force=True):
        assert pmap(abs, [-5, 3, -1, 0, -2]) == [5, 3, 1, 0, 2]
    shutdown_pool()


def test_pmap_batched_orders_results(force_dispatch):
    """pmap_batched reassembles chunk results in item order."""
    items = list(range(-20, 20))
    with use_parallel(True, workers=2, force=True):
        assert pmap_batched(abs, items) == [abs(x) for x in items]
        assert pmap_batched(abs, items, chunks=3) == [abs(x) for x in items]
        assert pool_workers() == 2  # the pool really ran this
    shutdown_pool()


def test_pmap_batched_merges_op_counters(force_dispatch):
    """Parent op-counter contexts see the same counts as the serial loop."""
    pref = _instance(17, shape=(48, 48))
    payloads = [(pref, m) for m in (4, 5, 6, 7, 8, 9)]
    with op_counters() as serial_ops:
        serial = [_hier_cell(p) for p in payloads]
    with use_parallel(True, workers=2, force=True):
        with op_counters() as par_ops:
            par = pmap_batched(_hier_cell, payloads)
    shutdown_pool()
    assert par == serial
    assert _contract_ops(par_ops) == _contract_ops(serial_ops)


def _hier_cell(payload):
    pref, m = payload
    return _rects(hier_rb(pref, m))


def test_single_cpu_short_circuits_to_serial(force_dispatch, monkeypatch):
    """On a 1-CPU box dispatch falls through to serial: no pool round trips.

    The spawn-pool round trips cannot buy parallelism on one core, so
    ``effective_workers()`` reports 0 whatever worker count is configured,
    no pool is created, and results are the serial results.
    """
    shutdown_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    pref = _instance(19)
    serial = {n: _rects(fn(pref)) for n, fn in CASES.items()}
    with use_parallel(True, workers=2):
        assert effective_workers() == 0
        assert get_pool() is None
        for n, fn in CASES.items():
            assert _rects(fn(pref)) == serial[n]
        assert pool_workers() == 0  # never spawned
        assert pmap_batched(abs, [-1, 2, -3]) == [1, 2, 3]  # serial fallback
        assert pool_workers() == 0


def test_single_cpu_force_overrides(force_dispatch, monkeypatch):
    """force=True bypasses the 1-CPU short-circuit (pool-machinery tests)."""
    shutdown_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with use_parallel(True, workers=2, force=True):
        assert effective_workers() == 2
    shutdown_pool()


@pytest.mark.parametrize("fig", ["fig03", "fig04"])
def test_seed_major_figure_grid_pool_equals_serial(force_dispatch, tmp_path, fig):
    """fig03/fig04 ship per-seed chunks of cells: pooled CSVs equal serial bytes."""
    from repro.experiments import TINY, use_raw_store
    from repro.experiments.figures import fig03_hier_rb_variants, fig04_hier_relaxed_variants
    from repro.experiments.rawstore import RawStore

    run = {"fig03": fig03_hier_rb_variants, "fig04": fig04_hier_relaxed_variants}[fig]
    with use_parallel(False):
        serial = run(TINY).csv_bytes()
    with use_parallel(True, workers=2, force=True):
        pooled = run(TINY).csv_bytes()
        with use_raw_store(None, store=RawStore(tmp_path)):
            stored = run(TINY).csv_bytes()
    assert pooled == serial == stored

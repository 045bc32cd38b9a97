"""Tests of the benchmark itself: its percentile rule, its checks, its seeds.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import calibrate
import run
import tracing
import workloads
from repro.core import registry
from repro.core.partition import Partition
from repro.core.rectangle import Rect
from repro.experiments import harness
from repro.experiments.rawstore import RawStore
from repro.instances.pic import PICMagSimulator


def ops(record_into: list):
    return lambda dt, ok: record_into.append(ok)


# -- the percentile rule ------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile_beyond(list(range(99)), 0.9) is None
    assert run.percentile_beyond([], 0.9) is None
    # nearest rank ceil(0.9 * 100) = 90 -> value 89, with 10 samples above
    assert run.percentile_beyond(list(range(100)), 0.9) == 89
    assert run.percentile_beyond(list(range(100))[::-1], 0.9) == 89


def test_every_metric_is_declared():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    emitted = list(tracing.layer_metrics(tracing.Tracer(), 1.0, {}))
    emitted += list(run.store_and_overhead({"hits": 0, "misses": 0, "invalid": 0}, 0, 1.0))
    assert [m["name"] for m in spec["per_layer"]] == emitted
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


# -- host-speed calibration --------------------------------------------------


def test_calibration_scales_times_to_the_reference():
    cal = calibrate.Calibrator()
    cal.samples = [[ref] * 3 for _, ref in calibrate.KERNELS.values()]
    assert cal.factor() == pytest.approx(1.0)
    cal.samples = [[2 * x for x in times] for times in cal.samples]  # a host half as fast
    assert cal.factor() == pytest.approx(0.5)


class Sleeper(workloads.Workload):
    """Three 20 ms ops per unit; ``tick`` between them as ``pic_stream`` does."""

    name = "sleeper"

    def setup(self) -> None:
        pass

    def run_unit(self, rec) -> None:
        import time

        for _ in range(3):
            t0 = time.perf_counter()
            time.sleep(0.02)
            dt = time.perf_counter() - t0
            self.tick()
            rec(dt, True)


def test_calibration_time_is_left_out_of_the_window(tmp_path):
    w = Sleeper(run.ROOT, tmp_path, 1)
    win = run.Window(w)
    win.cal.interval_s = 0.005
    win.run(w, 0.2, 12, 0)
    assert len(win.cal.samples[0]) > len(win.latencies)  # sampled between the ops
    # unit time is the ops' own time plus the loop's bookkeeping, not the kernels'
    assert sum(win.latencies) <= win.wall_s < sum(win.latencies) + 0.02
    assert win.ops_per_s == pytest.approx(len(win.latencies) / win.wall_s / win.factor)


# -- solve_mix checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def solve_mix(tmp_path_factory):
    w = workloads.SolveMix(run.ROOT, tmp_path_factory.mktemp("solve"), workloads.DEFAULT_SEED)
    w.setup()
    return w


def cheap_request(w) -> int:
    return w.requests.index(("exact0", "JAG-M-HEUR", 16))


def test_pinned_lmax_passes(solve_mix):
    assert solve_mix.solve(cheap_request(solve_mix))


def test_doctored_lmax_fails_the_op(solve_mix):
    idx = cheap_request(solve_mix)
    rid = workloads.request_id(solve_mix.requests[idx])
    good = solve_mix.expected[rid]
    solve_mix.expected[rid] = good + 1
    try:
        assert not solve_mix.solve(idx)
    finally:
        solve_mix.expected[rid] = good


def test_invalid_partition_fails_the_op(solve_mix, monkeypatch):
    def overlapping(pref, m, method, **kw):
        n1, n2 = pref.shape
        return Partition([Rect(0, n1, 0, n2)] * m, (n1, n2))

    monkeypatch.setattr(registry, "partition_2d", overlapping)
    seen: list[bool] = []
    monkeypatch.setattr(solve_mix, "requests", [solve_mix.requests[cheap_request(solve_mix)]])
    solve_mix.run_unit(ops(seen))
    assert seen == [False]


# -- farm checks --------------------------------------------------------------


def test_changed_csv_byte_fails_the_op(tmp_path, monkeypatch):
    farm = workloads.FarmCold(run.ROOT, tmp_path, workloads.DEFAULT_SEED)
    store = RawStore(tmp_path / "raw")
    assert farm.figure("fig09", store, None)

    render = harness.FigureResult.csv_bytes

    def flipped(self):
        data = bytearray(render(self))
        data[-2] ^= 1
        return bytes(data)

    monkeypatch.setattr(harness.FigureResult, "csv_bytes", flipped)
    monkeypatch.setattr(workloads, "FARM_FIGURES", ("fig09",))
    seen: list[bool] = []
    farm.farm_pass(store, ops(seen))
    assert seen == [False]


def test_farm_reference_covers_every_figure(tmp_path):
    farm = workloads.FarmCold(run.ROOT, tmp_path, workloads.DEFAULT_SEED)
    assert set(farm.reference) == set(workloads.FARM_FIGURES)
    committed = run.ROOT / "benchmarks" / "results" / "fig03.csv"
    assert farm.reference["fig03"] == hashlib.sha256(committed.read_bytes()).hexdigest()


# -- seeds --------------------------------------------------------------------


def test_seed_changes_solve_mix_inputs():
    def flat(value):  # a dense matrix, or the (rows, cols, vals) of a CSR instance
        parts = value if isinstance(value, tuple) else (value,)
        return np.concatenate([np.ravel(p) for p in parts])

    a, b, again = workloads.build_pool(0), workloads.build_pool(1), workloads.build_pool(0)
    assert a.keys() == b.keys()
    for name in a:
        assert not np.array_equal(flat(a[name]), flat(b[name])), name
        assert np.array_equal(flat(a[name]), flat(again[name])), name


def test_seed_changes_pic_stream_inputs(tmp_path):
    configs = [workloads.PicStream(run.ROOT, tmp_path, s).config for s in (0, 1)]
    assert configs[0].seed != configs[1].seed
    mats = []
    for cfg in configs:
        sim = PICMagSimulator(cfg)
        sim.step(workloads.PIC_CADENCE)
        mats.append(sim.load_matrix())
    assert not np.array_equal(*mats)


# -- tracing ------------------------------------------------------------------


def test_instrument_attributes_and_restores(tmp_path):
    from repro.experiments import figures
    from repro.experiments.rawstore import use_raw_store

    before = dict(registry.ALGORITHMS)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        with use_raw_store(None, store=RawStore(tmp_path)):
            figures.fig09_stripe_count("tiny").csv_bytes()
    assert registry.ALGORITHMS == before
    assert figures.jag_m_heur is before["JAG-M-HEUR"].__wrapped__
    metrics = tracing.layer_metrics(tracer, sum(tracer.self_s.values()), {})
    assert metrics["solve.calls"] > 0
    assert metrics["store.write_s"] > 0 and metrics["digest.calls"] > 0
    assert metrics["render.bytes"] > 0
    assert sum(metrics[f"{name}.share"] for name in tracing.LAYERS) == pytest.approx(1.0)

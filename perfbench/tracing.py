"""Layer tracing for the traced benchmark run, built from outside the library.

:func:`instrument` wraps the public entry points of each layer for the
duration of a ``with`` block and restores the originals on exit.  A name is
wrapped where its caller resolves it: a function bound by ``from x import f``
is replaced in the importing module, a dict-dispatched algorithm is replaced
inside the dict, and a method is replaced on its class.  Nothing under
``src/`` changes.

Every outermost call into a layer records a span ``(layer, key, start, end,
parent)``; a call nested in a span of the same layer adds only to that key's
timer, so each layer's *self time* is its spans' durations minus the time of
the child spans of other layers they contain.  Spans stay in memory and are
written out at the end of the traced run.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: layer names, in the order the report prints them
LAYERS = ("instances", "substrate", "digest", "solve", "store", "render", "dynamic")


class Tracer:
    """In-memory span recorder with per-layer self time and keyed timers."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.timers: dict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        #: inclusive time of a layer's outermost spans, keyed by parent layer
        self.edge_s: dict[tuple[str, str], float] = defaultdict(float)
        self.substrate_bytes = 0  # largest substrate built
        self._stack: list[list[Any]] = []  # [layer, child seconds, span index]

    def call(self, layer: str, key: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        outer = self._stack[-1] if self._stack else None
        nested = outer is not None and outer[0] == layer
        if not nested:
            self._stack.append([layer, 0.0, len(self.spans)])
            self.spans.append((layer, key, 0.0, 0.0, outer[2] if outer else -1))
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            dt = t1 - t0
            self.timers[key] += dt
            self.counts[key] += 1
            if not nested:
                _, child, idx = self._stack.pop()
                self.spans[idx] = (layer, key, t0, t1, self.spans[idx][4])
                self.self_s[layer] += dt - child
                self.edge_s[(outer[0] if outer else "", layer)] += dt
                self.counts[layer + ".calls"] += 1
                if outer is not None:
                    outer[1] += dt

    def wrap(self, layer: str, key: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording into ``layer`` under ``key``; ``after(result, args)``
        runs once the call returns (outside the timed span)."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            out = self.call(layer, key, fn, args, kwargs)
            if after is not None:
                after(out, args)
            return out

        return traced

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines ``[layer, key, start, end, parent]``."""
        import json

        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Patches:
    """Attribute and dict-entry replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def attr(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        self._undo.append(lambda: setattr(owner, name, raw))

    def item(self, table: dict, key: str, make: Callable[[Callable], Callable]) -> None:
        raw = table[key]
        table[key] = make(raw)
        self._undo.append(lambda: table.__setitem__(key, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def solve_family(name: str) -> str | None:
    """The per-family timer an algorithm's time is booked under, if any."""
    if name.startswith("JAG-") and "-HEUR" in name:
        return "jagged_heur"
    if name.startswith("JAG-") and "-OPT" in name:
        return "jagged_opt"
    if name.startswith("HIER-"):
        return "hier"
    if name.startswith("RECT-"):
        return "rect"
    return None


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's public entry points while the block runs."""
    import numpy as np

    import repro
    from repro.core import prefix, registry, sparse
    from repro.experiments import extensions, figures, harness, rawstore
    from repro.instances import spmv
    from repro.instances.mesh import project
    from repro.instances.pic import dataset, simulator
    from repro.runtime import simulator as bsp
    from repro.sweep import store as sweep_store

    t = tracer
    p = _Patches()

    def layer(name: str, key: str, after: Callable | None = None):
        return lambda fn: t.wrap(name, key, fn, after)

    # -- instances: generators where the figures resolve them, and the PIC
    # simulator/dataset methods
    for mod, names in (
        (figures, ("diagonal", "multi_peak", "peak", "slac_instance", "uniform")),
        (extensions, ("peak",)),
        (spmv, ("spmv_instance", "spmv_sparse")),
        (project, ("slac_sparse",)),
    ):
        for name in names:
            p.attr(mod, name, layer("instances", "gen." + name))
    for fam in list(figures._INSTANCE_FAMILIES):
        p.item(figures._INSTANCE_FAMILIES, fam, layer("instances", "gen." + fam))

    def count_substeps(_out: Any, args: tuple) -> None:
        sim = args[0]
        its = args[1] if len(args) > 1 else 1
        t.counts["pic.substeps"] += int(its) * int(sim.config.substeps)

    p.attr(simulator.PICMagSimulator, "step", layer("instances", "pic.step", count_substeps))
    p.attr(simulator.PICMagSimulator, "load_matrix", layer("instances", "pic.load_matrix"))

    snapshot = dataset.PICMagDataset.__dict__["snapshot"]

    def traced_snapshot(ds: Any, iteration: int) -> Any:
        fresh = iteration not in ds._snapshots
        step0, lm0 = t.timers["pic.step"], t.timers["pic.load_matrix"]
        t0 = perf_counter()
        out = t.call("instances", "pic.snapshot", snapshot, (ds, iteration), {})
        dt = perf_counter() - t0
        if fresh:
            # the archive rewrite is whatever snapshot() spent outside
            # stepping and depositing the load matrix
            stepped = t.timers["pic.step"] - step0
            deposited = t.timers["pic.load_matrix"] - lm0
            t.timers["pic.cache_write"] += dt - stepped - deposited
            path = ds._cache_path
            if path is not None and path.exists():
                t.counts["pic.cache_bytes"] += path.stat().st_size
        return out

    p.attr(dataset.PICMagDataset, "snapshot", lambda _fn: traced_snapshot)

    # -- substrate: dense Γ and CSR builds
    def gauge_bytes(_out: Any, args: tuple) -> None:
        t.substrate_bytes = max(t.substrate_bytes, int(args[0].nbytes))

    def gauge_result(out: Any, _args: tuple) -> None:
        t.substrate_bytes = max(t.substrate_bytes, int(out.nbytes))

    p.attr(prefix.PrefixSum2D, "__init__", layer("substrate", "dense_build", gauge_bytes))
    p.attr(sparse.SparsePrefix2D, "__init__", layer("substrate", "csr_build", gauge_bytes))
    p.attr(
        sparse.SparsePrefix2D,
        "from_triplets",
        layer("substrate", "csr_build", gauge_result),
    )
    p.attr(sparse, "substrate_from_triplets", layer("substrate", "from_triplets", gauge_result))

    # -- digest: computed bytes are the int64 size of the digested matrix
    def digest_bytes(obj: Any) -> int:
        if isinstance(obj, np.ndarray):
            return obj.size * 8
        n1, n2 = obj.shape  # a dense or CSR substrate
        return n1 * n2 * 8

    def digest_wrap(key: str):
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                outermost = not (t._stack and t._stack[-1][0] == "digest")
                out = t.call("digest", key, fn, args, kwargs)
                if outermost and key != "combine_digests":  # hashes strings
                    t.counts["digest.bytes"] += digest_bytes(args[0])
                return out

            return traced

        return make

    for mod, names in (
        (rawstore, ("digest_prefix", "digest_matrix", "combine_digests", "instance_digest", "matrix_digest")),
        (figures, ("digest_prefix", "digest_matrix")),
        (extensions, ("combine_digests", "digest_matrix", "digest_prefix")),
        (sweep_store, ("matrix_digest", "instance_digest")),
    ):
        for name in names:
            p.attr(mod, name, digest_wrap(name))
    p.attr(sparse.SparsePrefix2D, "matrix_digest", digest_wrap("matrix_digest"))

    # -- solve: registry dispatch, plus the direct bindings the figures use
    def solve_wrap(name: str):
        fam = solve_family(name)
        key = "solve." + (fam or "other")
        return layer("solve", key)

    for name in list(registry.ALGORITHMS):
        p.item(registry.ALGORITHMS, name, solve_wrap(name))
    p.attr(registry, "partition_2d", layer("solve", "solve.dispatch"))
    p.attr(repro, "partition_2d", layer("solve", "solve.dispatch"))
    for mod in (figures, extensions):
        p.attr(mod, "jag_m_heur", solve_wrap("JAG-M-HEUR"))
    for name in ("vol_uniform", "vol_jag_m_heur", "vol_hier_rb"):
        p.attr(extensions, name, layer("solve", "solve.other"))

    # -- store: cell reads and atomic cell writes
    def written(_out: Any, args: tuple) -> None:
        store, key = args[0], args[1]
        path = store._path(key)
        if os.path.exists(path):
            t.counts["store.bytes_written"] += os.path.getsize(path)

    p.attr(rawstore.RawStore, "load", layer("store", "store.read"))
    p.attr(rawstore.RawStore, "store", layer("store", "store.write", written))

    # -- render
    def rendered(out: Any, _args: tuple) -> None:
        t.counts["render.bytes"] += len(out)

    p.attr(harness.FigureResult, "csv_bytes", layer("render", "render.csv", rendered))

    # -- dynamic: the BSP loop (policies run inside it)
    def accounted(report: Any, _args: tuple) -> None:
        t.counts["dynamic.snapshots"] += len(report.steps)
        t.counts["dynamic.repartitions"] += report.repartitions

    p.attr(bsp.BSPSimulator, "run", layer("dynamic", "dynamic.run", accounted))

    try:
        yield t
    finally:
        p.restore()


def layer_metrics(t: Tracer, wall_s: float, ops: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one traced window (``ops``: the op counters)."""
    c = t.counts
    substeps = c["pic.substeps"]
    proj_q = ops.get("proj_queries", 0)
    out: dict[str, float] = {
        "instances.busy_s": t.self_s["instances"],
        "instances.pic_substeps": substeps,
        "instances.pic_step_ms": 1e3 * t.timers["pic.step"] / substeps if substeps else 0.0,
        "instances.cache_write_s": t.timers["pic.cache_write"],
        "instances.cache_bytes_written": c["pic.cache_bytes"],
        "substrate.busy_s": t.self_s["substrate"],
        "substrate.dense_builds": c["dense_build"],
        "substrate.csr_builds": c["csr_build"],
        "substrate.bytes_max": t.substrate_bytes,
        "solve.busy_s": t.self_s["solve"],
        "solve.calls": c["solve.calls"],
        "solve.jagged_heur_s": t.timers["solve.jagged_heur"],
        "solve.jagged_opt_s": t.timers["solve.jagged_opt"],
        "solve.hier_s": t.timers["solve.hier"],
        "solve.rect_s": t.timers["solve.rect"],
        "solve.probe_calls": ops.get("probe_calls", 0),
        "solve.searchsorted_calls": ops.get("searchsorted_calls", 0),
        "solve.cut_calls": ops.get("cut_calls", 0),
        "solve.load_queries": ops.get("load_queries", 0),
        "solve.proj_hit_ratio": ops.get("proj_hits", 0) / proj_q if proj_q else 0.0,
        "digest.busy_s": t.self_s["digest"],
        "digest.calls": c["digest.calls"],
        "digest.bytes": c["digest.bytes"],
        "store.read_s": t.timers["store.read"],
        "store.write_s": t.timers["store.write"],
        "store.bytes_written": c["store.bytes_written"],
        "render.busy_s": t.self_s["render"],
        "render.bytes": c["render.bytes"],
        "dynamic.snapshots": c["dynamic.snapshots"],
        "dynamic.repartitions": c["dynamic.repartitions"],
        "dynamic.solve_s": t.edge_s[("dynamic", "solve")],
        "dynamic.account_s": t.self_s["dynamic"],
    }
    attributed = 0.0
    for name in LAYERS:
        share = t.self_s[name] / wall_s if wall_s > 0 else 0.0
        out[name + ".share"] = share
        attributed += share
    out["other.share"] = max(0.0, 1.0 - attributed)
    return out

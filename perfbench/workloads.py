"""The three benchmark workloads: closed loops with one client in one process.

Each workload builds its inputs from the benchmark seed in :meth:`setup`,
then runs *units* of ops (a request cycle, a snapshot stream, a figure
pass) and checks every op.  An op that raises, returns an invalid
partition, or returns a wrong value is recorded as failed.

* ``solve_mix`` — the library caller: a seeded stream of ``partition_2d``
  requests over an instance pool, each followed by validation.
* ``pic_stream`` — the dynamic loop: PIC-MAG snapshots feeding the BSP
  simulator under ``MigrationBudgeted``, with the dataset's disk cache.
* ``farm_cold`` — the figure farm writing: every pass into an empty raw store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from repro.core import prefix, registry, sparse
from repro.core.metrics import max_boundary
from repro.dynamic import MigrationBudgeted
from repro.experiments import extensions, figures
from repro.experiments.rawstore import RawStore, use_raw_store
from repro.experiments.scale import SMALL
from repro.instances import multi_peak, synthetic
from repro.instances.pic import PICMagDataset
from repro.instances.spmv import hist2d_triplets, rmat_edges
from repro.runtime import BSPSimulator, CostModel

#: the seed whose outputs are pinned in ``expected/``
DEFAULT_SEED = 0
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

Record = Callable[[float, bool], None]


def _warn(msg: str) -> None:
    print(f"# {msg}", file=sys.stderr)


def exact_imbalance(lmax: int, m: int, total: int) -> float:
    """``Lmax/Lavg - 1`` as one correctly rounded rational, as the library."""
    return float(Fraction(lmax * m - total, total)) if total else 0.0


def geomean(values) -> float:
    """Geometric mean of imbalances; a perfect balance counts as 1e-9.

    Every decomposition weighs the same *relative* change: the arithmetic
    mean is dominated by RECT-UNIFORM on peaked instances (imbalances near
    10) and would hide a doubled JAG-M-HEUR imbalance (0.03 to 0.06).
    """
    return float(np.exp(np.mean(np.log(np.maximum(np.asarray(list(values), dtype=float), 1e-9)))))


def dense_loads(A: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Per-rectangle loads by direct slicing (independent of any prefix)."""
    return np.array([int(A[r0:r1, c0:c1].sum()) for r0, r1, c0, c1 in coords], dtype=np.int64)


def triplet_loads(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Per-rectangle loads of row-sorted COO triplets (independent of CSR)."""
    out = np.zeros(len(coords), dtype=np.int64)
    lo = np.searchsorted(rows, coords[:, 0], side="left")
    hi = np.searchsorted(rows, coords[:, 1], side="left")
    for i, (r0, r1, c0, c1) in enumerate(coords):
        cs = cols[lo[i] : hi[i]]
        out[i] = int(vals[lo[i] : hi[i]][(cs >= c0) & (cs < c1)].sum())
    return out


def step_digest(step) -> str:
    """Short digest of one ``StepStats`` (floats by exact ``repr``)."""
    return hashlib.sha256(repr(dataclasses.astuple(step)).encode()).hexdigest()[:16]


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One workload: ``setup`` builds inputs, ``run_unit`` issues ops."""

    name = ""
    #: state of each cache the workload touches, for the environment record
    caches: dict[str, str] = {}

    @staticmethod
    def tick() -> None:
        """Called between ops that do not return to ``rec`` one by one.

        The measuring window replaces it with its calibration sampler; its
        time must lie outside every op's timing.
        """

    def __init__(self, root: Path, work: Path, seed: int, *, check_expected: bool = True):
        self.root = root
        self.work = work
        self.seed = seed
        #: recording (``check_expected=False``) compares against nothing pinned
        self.recording = not check_expected
        self.check_expected = check_expected and seed == DEFAULT_SEED
        self.setup_misses = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, rec: Record) -> None:
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        """``imbalance_mean`` and ``sim_makespan_s`` of the first unit."""
        raise NotImplementedError

    def store_counters(self) -> dict[str, int]:
        """Summed raw-store counters of every timed store so far."""
        return {"hits": 0, "misses": 0, "invalid": 0}

    def record_expected(self) -> dict:
        """Outputs of one unit at the default seed, for ``expected/``."""
        raise NotImplementedError

    def _fresh_dir(self, tag: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=tag + "-", dir=self.work))


# ----------------------------------------------------------------------
# solve_mix
# ----------------------------------------------------------------------
HEURISTICS = figures.HEURISTICS
DENSE_FAMILIES = {
    "uniform": lambda n, seed: synthetic.uniform(n, 1.2, seed=seed),
    "peak": synthetic.peak,
    "multi_peak": synthetic.multi_peak,
    "diagonal": synthetic.diagonal,
}
N_DENSE = 512  # above the 65,536-cell projection-memo threshold
N_SPMV = 4096  # R-MAT histogram on the CSR substrate
N_EXACT = 128  # below the memo threshold; small enough for JAG-M-OPT
RMAT_SCALE = 14
#: instances drawn per family: the cost of RECT-NICOL and JAG-M-OPT swings
#: by 2-4x between instances; a cycle over four draws halves the swing of its total
INSTANCES = 4


def solve_requests() -> list[tuple[str, str, int]]:
    """The request multiset of one cycle, as ``(instance, algorithm, m)``."""
    reqs = []
    for k in range(INSTANCES):
        for fam in DENSE_FAMILIES:
            reqs += [(f"{fam}{k}", a, m) for m in (16, 64, 256) for a in HEURISTICS]
            reqs += [(f"{fam}{k}", "JAG-PQ-OPT", m) for m in (16, 64)]
        reqs += [(f"spmv{k}", a, m) for m in (16, 64) for a in HEURISTICS]
        reqs += [(f"spmv{k}", "JAG-PQ-OPT", 16)]
        reqs += [(f"exact{k}", a, 16) for a in HEURISTICS]
        reqs += [(f"exact{k}", "JAG-PQ-OPT", 16), (f"exact{k}", "JAG-M-OPT", 16)]
    return reqs


def request_id(req: tuple[str, str, int]) -> str:
    return f"{req[0]}/{req[1]}/m{req[2]}"


def build_pool(seed: int) -> dict:
    """The instance pool: dense matrices plus R-MAT triplet streams."""
    pool: dict = {}
    size = 1 << RMAT_SCALE
    for k in range(INSTANCES):
        base = 1000 * seed + 10 * k
        for j, (fam, make) in enumerate(DENSE_FAMILIES.items(), start=1):
            pool[f"{fam}{k}"] = make(N_DENSE, seed=base + j)
        pool[f"exact{k}"] = multi_peak(N_EXACT, seed=base + 5)
        edges = rmat_edges(RMAT_SCALE, 8, seed=base + 6)
        # rows come back sorted (row-major unique keys), which triplet_loads needs
        pool[f"spmv{k}"] = hist2d_triplets(edges[:, 0], edges[:, 1], N_SPMV, ((0, size), (0, size)))
    return pool


class SolveMix(Workload):
    name = "solve_mix"
    caches = {"projection_memo": "per request (fresh substrate)", "raw_store": "none", "pic_cache": "unused"}

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.requests = solve_requests()
        self.expected = load_expected(self.name)["lmax"] if self.check_expected else None
        self.lmax: dict[int, int] = {}  # first-cycle Lmax per request index
        self.imbalance: dict[int, float] = {}
        self.superstep: dict[int, float] = {}
        self.cost = CostModel()

    def setup(self) -> None:
        self.pool = None  # a re-run set-up must not hold two pools at once
        self.pool = build_pool(self.seed)
        # warm-up: every algorithm once on the small instance
        for algo in sorted({a for _, a, _ in self.requests} - {"JAG-M-OPT"}):
            registry.partition_2d(prefix.PrefixSum2D(self.pool["exact0"]), 4, algo)

    def substrate(self, inst: str):
        if inst.startswith("spmv"):
            rows, cols, vals = self.pool[inst]
            return sparse.substrate_from_triplets(rows, cols, vals, (N_SPMV, N_SPMV))
        return prefix.PrefixSum2D(self.pool[inst])

    def independent_loads(self, inst: str, coords: np.ndarray) -> np.ndarray:
        if inst.startswith("spmv"):
            return triplet_loads(*self.pool[inst], coords)
        return dense_loads(self.pool[inst], coords)

    def solve(self, idx: int) -> bool:
        """One request plus its validation; True when every check passes."""
        inst, algo, m = self.requests[idx]
        pref = self.substrate(inst)
        part = registry.partition_2d(pref, m, algo)
        part.validate()
        if part.m != m:
            return False
        lmax = int(self.independent_loads(inst, part.coords()).max())
        if lmax != part.max_load(pref):
            return False
        if idx not in self.lmax:
            self.lmax[idx] = lmax
            self.imbalance[idx] = exact_imbalance(lmax, m, pref.total)
            self.superstep[idx] = self.cost.alpha * lmax + self.cost.beta * max_boundary(part)
        elif self.lmax[idx] != lmax:
            return False
        if self.expected is not None and self.expected[request_id(self.requests[idx])] != lmax:
            return False
        return True

    def run_unit(self, rec: Record) -> None:
        # canonical order: a seeded order moves peak RSS by tens of MiB, as
        # the allocator's reuse of freed blocks depends on it
        for idx in range(len(self.requests)):
            t0 = perf_counter()
            try:
                ok = self.solve(idx)
            except Exception:
                _warn(f"{request_id(self.requests[idx])} raised:\n{traceback.format_exc()}")
                ok = False
            rec(perf_counter() - t0, ok)

    def quality(self) -> dict[str, float]:
        return {
            "imbalance_mean": geomean(self.imbalance.values()),
            "sim_makespan_s": float(np.mean(list(self.superstep.values()))),
        }

    def record_expected(self) -> dict:
        self.run_unit(lambda _dt, _ok: None)
        return {
            "seed": self.seed,
            "lmax": {request_id(self.requests[i]): v for i, v in sorted(self.lmax.items())},
        }


# ----------------------------------------------------------------------
# pic_stream
# ----------------------------------------------------------------------
PIC_SNAPSHOTS = 50  # snapshots per stream pass
PIC_CADENCE = 10  # iterations between snapshots
PIC_M = 100
PIC_WARMUP_SNAPSHOTS = 5


class PicStream(Workload):
    name = "pic_stream"
    caches = {"pic_cache": "fresh REPRO_CACHE per pass (cold)", "raw_store": "none"}

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.config = dataclasses.replace(SMALL.pic, seed=SMALL.pic.seed + self.seed)
        self.expected = load_expected(self.name)["steps"] if self.check_expected else None
        self.first: list[str] | None = None
        self.report = None

    def setup(self) -> None:
        self.stream(PIC_WARMUP_SNAPSHOTS)

    def stream(self, count: int):
        """One BSP pass over ``count`` snapshots in a fresh disk cache.

        Returns the report, the op latencies, the snapshots and the
        partitions the solver produced, keyed by snapshot index.
        """
        cache = self._fresh_dir("pic-cache")
        os.environ["REPRO_CACHE"] = str(cache)
        try:
            ds = PICMagDataset(self.config, period=PIC_CADENCE, max_iteration=(count - 1) * PIC_CADENCE)
            solver = registry.ALGORITHMS["JAG-M-HEUR"]
            starts: list[float] = []
            ends: list[float] = []
            mats: list[np.ndarray] = []
            solved: dict[int, object] = {}

            def partitioner(pref, m):
                part = solver(pref, m)
                solved[len(mats) - 1] = part
                return part

            def feed():
                for it in ds.iterations:
                    if starts:
                        ends.append(perf_counter())
                        self.tick()
                    starts.append(perf_counter())
                    A = ds.snapshot(it)
                    mats.append(A)
                    yield it, A

            sim = BSPSimulator(PIC_M, partitioner, policy=MigrationBudgeted())
            report = sim.run(feed(), steps_per_snapshot=SMALL.pic_period)
            ends.append(perf_counter())
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        latencies = [b - a for a, b in zip(starts, ends)]
        return report, latencies, mats, solved

    def check(self, report, mats, solved) -> list[bool]:
        """Per-snapshot verdicts for one pass."""
        digests = [step_digest(s) for s in report.steps]
        oks = []
        part = None
        for i, (step, A) in enumerate(zip(report.steps, mats)):
            ok = True
            if step.repartitioned:
                part = solved.get(i)
            try:
                part.validate()
                loads = dense_loads(A, part.coords())
                lmax = int(loads.max())
                ok = lmax == step.max_load and exact_imbalance(lmax, PIC_M, int(A.sum())) == step.imbalance
            except Exception:
                _warn(f"snapshot {i} check raised:\n{traceback.format_exc()}")
                ok = False
            if self.first is not None and digests[i] != self.first[i]:
                ok = False
            if self.expected is not None and digests[i] != self.expected[i]:
                ok = False
            oks.append(ok)
        if self.first is None:
            self.first = digests
            self.report = report
        return oks

    def run_unit(self, rec: Record) -> None:
        try:
            report, latencies, mats, solved = self.stream(PIC_SNAPSHOTS)
            oks = self.check(report, mats, solved)
        except Exception:
            _warn(f"stream pass raised:\n{traceback.format_exc()}")
            for _ in range(PIC_SNAPSHOTS):
                rec(float("nan"), False)
            return
        for dt, ok in zip(latencies, oks):
            rec(dt, ok)

    def quality(self) -> dict[str, float]:
        return {
            "imbalance_mean": geomean(s.imbalance for s in self.report.steps),
            "sim_makespan_s": self.report.total_time,
        }

    def record_expected(self) -> dict:
        report, _, mats, solved = self.stream(PIC_SNAPSHOTS)
        self.check(report, mats, solved)
        return {"seed": self.seed, "steps": self.first}


# ----------------------------------------------------------------------
# the figure farm
# ----------------------------------------------------------------------
FARM_FIGURES = ("fig03", "fig04", "fig05", "fig09", "fig10", "fig14", "ext4", "ext5", "ext6")
FARM_PROFILE = "small"


class FarmCold(Workload):
    """Regenerate the farm figures into an empty raw store, comparing each CSV."""

    name = "farm_cold"
    caches = {"raw_store": "empty per pass (cold)", "pic_cache": "unused", "sweep_store": "in-memory"}

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.runnable = {**figures.ALL_FIGURES, **extensions.ALL_EXTENSIONS}
        results = self.root / "benchmarks" / "results"
        self.reference = {}
        for fig in FARM_FIGURES:
            path = results / f"{fig}.csv"
            if path.exists():
                self.reference[fig] = hashlib.sha256(path.read_bytes()).hexdigest()
        # ext6 has no committed CSV: the set-up pass (36 of its cells missing
        # from raw/) and the cold passes compare it to the digest the
        # benchmark recorded, and so to each other
        if not self.recording:
            self.reference.update(load_expected("farm")["csv_sha256"])
        self.rng = np.random.default_rng(self.seed)
        self.out = self._fresh_dir("csv")
        self.cells: list[float] | None = None
        self.counters = {"hits": 0, "misses": 0, "invalid": 0}

    def figure(self, fig: str, store: RawStore, cells: list[float] | None) -> bool:
        with use_raw_store(None, store=store):
            res = self.runnable[fig](FARM_PROFILE)
        data = res.to_csv(self.out / f"{fig}.csv").read_bytes()
        if cells is not None:
            for name, pts in res.series.items():
                if "guarantee" not in name:  # fig09's Theorem 3 bound is no solve
                    cells += [y for _, y in pts if math.isfinite(y)]
        return hashlib.sha256(data).hexdigest() == self.reference.get(fig)

    def farm_pass(self, store: RawStore, rec: Record) -> None:
        cells: list[float] | None = [] if self.cells is None else None
        before = store.counters()
        for fig in self.rng.permutation(FARM_FIGURES):
            t0 = perf_counter()
            try:
                ok = self.figure(str(fig), store, cells)
            except Exception:
                _warn(f"{fig} raised:\n{traceback.format_exc()}")
                ok = False
            rec(perf_counter() - t0, ok)
        for k, v in store.counters().items():
            self.counters[k] += v - before[k]
        if cells is not None:
            self.cells = cells

    def quality(self) -> dict[str, float]:
        # figure cells carry imbalances, not partitions: the makespan is the
        # summed superstep time with each cell's average processor load
        # normalized to one simulated second
        return {
            "imbalance_mean": geomean(self.cells),
            "sim_makespan_s": float(sum(1.0 + v for v in self.cells)),
        }

    def store_counters(self) -> dict[str, int]:
        return dict(self.counters)

    def record_expected(self) -> dict:
        """Digests of the farm CSVs that have no committed reference."""
        missing = [fig for fig in FARM_FIGURES if fig not in self.reference]
        with use_raw_store(None, store=RawStore(self._fresh_dir("record"))):
            return {
                "csv_sha256": {
                    fig: hashlib.sha256(self.runnable[fig](FARM_PROFILE).csv_bytes()).hexdigest()
                    for fig in missing
                }
            }

    def setup(self) -> None:
        """One pass through a store seeded from a copy of the committed ``raw/``.

        It warms the code paths of the timed passes, checks their CSVs, and
        counts the cells a fresh clone lacks (``store.setup_misses``).
        """
        path = self._fresh_dir("raw-seeded")
        try:
            shutil.copytree(self.root / "raw", path, dirs_exist_ok=True)
            store = RawStore(path)
            checks = {fig: self.figure(fig, store, None) for fig in FARM_FIGURES}
            wrong = [fig for fig, ok in checks.items() if not ok and fig in self.reference]
        finally:
            shutil.rmtree(path, ignore_errors=True)
        if wrong:
            raise RuntimeError(f"the pass through the committed raw/ rendered wrong CSVs: {wrong}")
        self.setup_misses = store.misses

    def run_unit(self, rec: Record) -> None:
        path = self._fresh_dir("raw-cold")
        try:
            self.farm_pass(RawStore(path), rec)
        finally:
            shutil.rmtree(path, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SolveMix, PicStream, FarmCold)
}

"""End-to-end benchmark of the partitioning library, driven from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_mix --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, own process each

One run builds its inputs from ``--seed`` and runs the workload's closed
loop for at least ``--seconds`` seconds and at least :data:`MIN_OPS` ops,
checking every op.  It sets up :data:`SETUP_REPEATS` times, interleaved with
the first units and outside their timing; the median is ``setup_s``.
Between ops it times fixed calibration kernels (``calibrate.py``) and reports
every time at the reference host speed, so that the host's drift cancels.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs an untraced and a traced window of ``--seconds / 2`` each and reports
the per-layer metrics of the traced one.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it print every metric by name with its unit.

The run is hermetic: every variable declared in ``repro.config.ENV_VARS``
is removed from the environment before the library is imported, and all
caches and stores live in a fresh directory under ``.perfbench/`` that is
deleted at exit.  ``--record`` rewrites the pinned default-seed outputs in
``perfbench/expected/`` instead of measuring.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve_mix", "pic_stream", "farm_cold")

#: ops per end-to-end run, so that at least ten samples lie beyond p90
MIN_OPS = 100
#: set-ups per end-to-end run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: end-to-end metric -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mib": "MiB",
    "imbalance_mean": "ratio",
    "sim_makespan_s": "sim_s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if name.endswith(("bytes", "bytes_max", "bytes_written")):
        return "bytes"
    return "count"


def percentile_beyond(samples: list[float], q: float, *, beyond: int = 10) -> float | None:
    """Nearest-rank ``q``-quantile, or None unless ``beyond`` samples exceed its rank.

    The rank is ``ceil(q·n)``; the value is emitted only when at least
    ``beyond`` samples sit above that rank, so a p90 always rests on ten or
    more slower ops.
    """
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < beyond:
        return None
    return sorted(samples)[rank - 1]


# ----------------------------------------------------------------------
# hermetic environment
# ----------------------------------------------------------------------
def declared_env_vars() -> list[str]:
    """``repro.config.ENV_VARS`` names, read statically (the dict is a literal)."""
    tree = ast.parse((SRC / "repro" / "config.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "ENV_VARS":
            return sorted(k.value for k in node.value.keys)
    raise LookupError("ENV_VARS not found in repro/config.py")


def hermetic_env() -> list[str]:
    """Strip the library's knobs from the environment; pin BLAS to one thread."""
    removed = [name for name in declared_env_vars() if os.environ.pop(name, None) is not None]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    return removed


def environment(workload, removed: list[str]) -> dict:
    import numpy as np

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "env_removed": removed,
        "caches": workload.caches,
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
class Window:
    """Op latencies and verdicts of one timed window, and its set-up times.

    Times are raw; :attr:`factor` takes them to the reference host speed.
    """

    def __init__(self, workload) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.wall_s = 0.0  # time in units, set-ups and calibration excluded
        self.unit_rates: list[float] = []  # ops per second of each unit
        self.setup_s: list[float] = []
        self.cal = Calibrator()

    def record(self, dt: float, ok: bool) -> None:
        self.latencies.append(dt)
        self.failed += not ok
        self.cal.tick()

    def setup(self, workload) -> None:
        spent, t0 = self.cal.spent_s, perf_counter()
        workload.setup()
        self.setup_s.append(perf_counter() - t0 - (self.cal.spent_s - spent))

    def run(self, workload, seconds: float, min_ops: int, setups: int) -> "Window":
        """Units until ``seconds`` and ``min_ops`` are reached.

        The ``setups`` set-ups run one before each of the first units (the
        rest after the last), so that their median samples different moments
        of a shared host rather than one slow or fast stretch.
        """
        workload.tick = self.cal.tick
        self.cal.sample()
        while self.wall_s < seconds or len(self.latencies) < min_ops:
            if len(self.setup_s) < setups:
                self.setup(workload)
                self.cal.sample()
            n, spent, t0 = len(self.latencies), self.cal.spent_s, perf_counter()
            workload.run_unit(self.record)
            dt = perf_counter() - t0 - (self.cal.spent_s - spent)
            self.wall_s += dt
            self.unit_rates.append((len(self.latencies) - n) / dt)
        while len(self.setup_s) < setups:
            self.setup(workload)
            self.cal.sample()
        self.factor = self.cal.factor()
        return self

    @property
    def ops_per_s(self) -> float:
        """Ops over the time in units, at the reference speed."""
        return len(self.latencies) / (self.wall_s * self.factor)


def end_to_end(workload, seconds: float) -> tuple[Window, dict[str, float]]:
    win = Window(workload).run(workload, seconds, MIN_OPS, SETUP_REPEATS)
    done = [x * win.factor for x in win.latencies if math.isfinite(x)]
    p90 = percentile_beyond(done, 0.9)
    if p90 is None:
        raise RuntimeError(f"{len(done)} timed ops leave fewer than ten beyond p90")
    metrics = {
        "setup_s": statistics.median(win.setup_s) * win.factor,
        "ops_per_s": win.ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(done),
        "op_p90_ms": 1e3 * p90,
        "success_rate": 1.0 - win.failed / len(win.latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **workload.quality(),
    }
    return win, metrics


def store_and_overhead(store: dict[str, int], setup_misses: int, overhead: float) -> dict[str, float]:
    """Raw-store counters of the traced window, and the tracing overhead."""
    lookups = store["hits"] + store["misses"]
    return {
        "store.hits": store["hits"],
        "store.misses": store["misses"],
        "store.hit_ratio": store["hits"] / lookups if lookups else 0.0,
        "store.invalid": store["invalid"],
        "store.setup_misses": setup_misses,
        "trace.overhead_ratio": overhead,
    }


def traced(workload, seconds: float, trace_path: Path) -> tuple[Window, dict[str, float]]:
    from repro.perf.counters import op_counters
    from tracing import Tracer, instrument, layer_metrics

    plain = Window(workload).run(workload, seconds / 2, 1, 1)
    tracer = Tracer()
    before = workload.store_counters()
    with op_counters() as ops, instrument(tracer):
        win = Window(workload).run(workload, seconds / 2, 1, 0)
    tracer.dump(str(trace_path))
    after = workload.store_counters()
    metrics = layer_metrics(tracer, win.wall_s, dict(ops))
    metrics.update(
        store_and_overhead(
            {k: after[k] - before[k] for k in after},
            workload.setup_misses,
            plain.ops_per_s / win.ops_per_s,
        )
    )
    win.failed += plain.failed
    win.latencies += plain.latencies
    return win, metrics


def run_one(args: argparse.Namespace) -> int:
    removed = hermetic_env()
    from workloads import WORKLOADS

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    os.environ["REPRO_CACHE"] = str(work / "cache")
    try:
        wl = WORKLOADS[args.workload](ROOT, work, args.seed, check_expected=not args.record)
        if args.record:
            wl.setup()
            out = HERE / "expected" / ("farm.json" if args.workload == "farm_cold" else f"{args.workload}.json")
            out.write_text(json.dumps(wl.record_expected(), indent=1, sort_keys=True) + "\n")
            print(f"# wrote {out.relative_to(ROOT)}")
            return 0
        print("# env " + json.dumps(environment(wl, removed), sort_keys=True))
        if args.trace:
            trace_path = base / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            win, metrics = traced(wl, args.seconds, trace_path)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            win, metrics = end_to_end(wl, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n = len(win.latencies)
    for name, value in metrics.items():
        print(f"{args.workload:<11} {name:<28} {value:>16.6g} {units[name]}")
    done = sum(math.isfinite(x) for x in win.latencies)
    print(f"{args.workload:<11} {'(ops)':<28} {n:>16d} attempted, {win.failed} failed, "
          f"error_rate {win.failed / n:.6g}, {done - math.ceil(0.9 * done)} samples beyond p90")
    rates = " ".join(f"{r:.4g}" for r in win.unit_rates)
    print(f"{args.workload:<11} {'(raw ops/s of each unit)':<28} {rates}")
    setups = " ".join(f"{t:.4g}" for t in win.setup_s)
    print(f"{args.workload:<11} {'(raw set-up times, s)':<28} {setups}")
    print(f"{args.workload:<11} {'(host speed factor)':<28} {win.factor:>16.6g} "
          f"({len(win.cal.samples[0])} calibration samples; raw time = reported / factor)")
    result = {
        "correct": win.failed == 0,
        "attempted": n,
        "failed": win.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; non-zero exit if any op failed."""
    bad = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})")
            bad += 1
            continue
        bad += proc.returncode != 0 or not result["correct"] or result["failed"] > 0
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite perfbench/expected/ for this workload")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

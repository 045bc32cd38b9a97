"""Command-line entry point: ``repro-experiments`` / ``python -m repro.experiments``.

Regenerates any subset of the paper's figures as text tables and CSV files::

    repro-experiments --figures fig07 fig12 --scale small --out results/
    repro-experiments --all --scale paper
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from ..parallel.config import use_parallel
from .extensions import ALL_EXTENSIONS
from .figures import ALL_FIGURES
from .rawstore import current_raw_store, set_default_raw_store
from .scale import PROFILES, get_scale

ALL_RUNNABLE = {**ALL_FIGURES, **ALL_EXTENSIONS}

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the evaluation figures of 'Partitioning Spatially "
        "Located Computations using Rectangles' (IPDPS 2011).",
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        metavar="FIG",
        choices=sorted(ALL_RUNNABLE),
        help=f"figures to run ({', '.join(sorted(ALL_RUNNABLE))})",
    )
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument(
        "--scale",
        default=None,
        choices=tuple(PROFILES),
        help="parameter profile (default: $REPRO_SCALE or 'small')",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write one CSV per figure into DIR",
    )
    parser.add_argument(
        "--gallery",
        type=Path,
        default=None,
        metavar="DIR",
        help="write the Figure 1/Figure 2 image gallery (PPM) into DIR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for figure cells and per-algorithm dispatch "
        "(default 1 = serial; outputs are byte-identical for any N)",
    )
    parser.add_argument(
        "--sweep-store",
        type=Path,
        default=None,
        metavar="PATH",
        help="persist sweep facts to PATH across runs (content-addressed; "
        "results stay byte-identical, repeat runs start warm; equivalent "
        "to setting $REPRO_SWEEP_STORE)",
    )
    parser.add_argument(
        "--raw-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="raw-result store: completed figure cells are flushed to DIR "
        "atomically and reused on the next run (incremental, resumable; "
        "equivalent to setting $REPRO_RAW_STORE)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every raw cell cold (fresh results still refresh "
        "the raw store)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.raw_dir is not None:
        set_default_raw_store(args.raw_dir, force=args.force)
    elif args.force:
        store = current_raw_store()
        if store is None:
            parser.error("--force needs a raw store (--raw-dir or $REPRO_RAW_STORE)")
        store.force = True
    if args.sweep_store is not None:
        import os

        from ..sweep import set_default_store

        # set the env var too (not just the module default) so spawned
        # pool workers inherit the store path with the environment
        store_path = os.fspath(args.sweep_store)
        os.environ["REPRO_SWEEP_STORE"] = store_path
        set_default_store(store_path)
    figs = sorted(ALL_RUNNABLE) if args.all else (args.figures or [])
    if not figs and args.gallery is None:
        parser.error("choose figures with --figures, run --all, or use --gallery")
    if args.gallery is not None:
        from .gallery import make_gallery

        for path in make_gallery(args.gallery, get_scale(args.scale)):
            print(f"# wrote {path}", file=sys.stderr)
    scale = get_scale(args.scale)
    print(f"# scale profile: {scale.name}", file=sys.stderr)
    # every figure is deterministic and pmap preserves item order, so the
    # tables and CSVs below are byte-identical for any --jobs value
    ctx = use_parallel(True, workers=args.jobs) if args.jobs > 1 else nullcontext()
    with ctx:
        for fig in figs:
            store = current_raw_store()
            before = store.counters() if store is not None else {}
            t0 = time.perf_counter()
            result = ALL_RUNNABLE[fig](scale)
            dt = time.perf_counter() - t0
            print(result.to_table())
            if store is not None:
                delta = {
                    k: v - before[k] for k, v in store.counters().items()
                }
                print(
                    f"# raw-store {fig}: "
                    + " ".join(f"{k}={delta[k]}" for k in ("hits", "misses", "invalid")),
                    file=sys.stderr,
                )
            print(f"# generated in {dt:.1f}s\n", file=sys.stderr)
            if args.out is not None:
                path = result.to_csv(args.out / f"{fig}.csv")
                print(f"# wrote {path}", file=sys.stderr)
    if args.jobs > 1:
        from ..parallel.pool import shutdown_pool

        shutdown_pool()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

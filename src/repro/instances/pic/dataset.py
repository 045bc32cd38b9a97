"""PIC-MAG snapshot dataset with the paper's cadence and a disk cache.

The paper extracts "the distribution of the particles every 500 iterations of
the simulations for the first 33,500 iterations" (§4.1).
:class:`PICMagDataset` reproduces that cadence on the substitute simulator,
memoizes snapshots in memory, and optionally persists each one as its own
compressed record so the benchmark suite does not re-run the particle pusher.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ...config import env_str
from ...core.errors import ParameterError
from .simulator import PICConfig, PICMagSimulator

__all__ = ["GENERATOR_VERSION", "PICMagDataset", "default_cache_dir"]

#: Version of the snapshot generator.  Bump it whenever a change to the
#: simulator alters any bit of any snapshot: records written by the old
#: generator then sit under a different key and are never read again.
GENERATOR_VERSION = 1


def default_cache_dir() -> Path:
    """Cache directory: ``$REPRO_CACHE`` or ``~/.cache/repro``."""
    env = env_str("REPRO_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class PICMagDataset:
    """Snapshots of the PIC-MAG substitute every ``period`` iterations.

    Parameters
    ----------
    config:
        Simulator configuration (grid size, particle count, seed, ...).
    period:
        Snapshot cadence in iterations (500 in the paper).
    max_iteration:
        Last snapshot iteration (33 500 in the paper).
    cache:
        When true, each snapshot is persisted under :func:`default_cache_dir`
        as one record keyed by every :class:`PICConfig` field and
        :data:`GENERATOR_VERSION`; a snapshot depends only on those and its
        iteration, so streams of any cadence share records.
    """

    def __init__(
        self,
        config: PICConfig | None = None,
        *,
        period: int = 500,
        max_iteration: int = 33_500,
        cache: bool = True,
    ):
        if period <= 0:
            raise ParameterError("period must be positive")
        self.config = config or PICConfig()
        self.period = int(period)
        self.max_iteration = int(max_iteration)
        self._snapshots: dict[int, np.ndarray] = {}
        self._sim: PICMagSimulator | None = None
        self._cache_path: Path | None = None
        if cache:
            fields = dataclasses.asdict(self.config)
            blob = json.dumps({"generator": GENERATOR_VERSION, "config": fields}, sort_keys=True)
            key = hashlib.sha256(blob.encode()).hexdigest()
            self._cache_path = default_cache_dir() / f"picmag-{key}"
            self._load_records()

    # ------------------------------------------------------------------
    @property
    def iterations(self) -> list[int]:
        """All snapshot iterations: ``0, period, 2·period, …, max_iteration``."""
        return list(range(0, self.max_iteration + 1, self.period))

    def snapshot(self, iteration: int) -> np.ndarray:
        """Load matrix at ``iteration`` (must be a multiple of the cadence)."""
        if iteration % self.period != 0 or not (0 <= iteration <= self.max_iteration):
            raise ParameterError(
                f"iteration must be a multiple of {self.period} in "
                f"[0, {self.max_iteration}], got {iteration}"
            )
        if iteration not in self._snapshots:
            self._advance_to(iteration)
        return self._snapshots[iteration]

    def snapshots(self, iterations: list[int] | None = None):
        """Yield ``(iteration, load_matrix)`` pairs in increasing order."""
        for it in sorted(iterations if iterations is not None else self.iterations):
            yield it, self.snapshot(it)

    def stream(
        self,
        iterations: list[int] | None = None,
        *,
        substrate: str = "dense",
    ):
        """Scenario driver: yield ``(iteration, LoadView)`` pairs.

        The dynamic-loop entry point: each snapshot is wrapped in a load
        substrate ready for :meth:`repro.runtime.BSPSimulator.run` (which
        passes substrates through undensified).  ``substrate`` selects the
        wrapping:

        * ``"dense"`` — :class:`~repro.core.prefix.PrefixSum2D` (the full
          prefix grid Γ);
        * ``"sparse"`` — :class:`~repro.core.sparse.SparsePrefix2D` (CSR
          prefixes; right for mostly-empty grids);
        * ``"auto"`` — density-dispatched via
          :func:`~repro.core.sparse.auto_substrate`.
        """
        from ...core.prefix import PrefixSum2D
        from ...core.sparse import SparsePrefix2D, auto_substrate

        wrap = {
            "dense": PrefixSum2D,
            "sparse": SparsePrefix2D,
            "auto": auto_substrate,
        }.get(substrate)
        if wrap is None:
            raise ParameterError(
                f"substrate must be dense|sparse|auto, got {substrate!r}"
            )
        for it, A in self.snapshots(iterations):
            yield it, wrap(A)

    # ------------------------------------------------------------------
    def _advance_to(self, iteration: int) -> None:
        if self._sim is None:
            self._sim = PICMagSimulator(self.config)
        sim = self._sim
        if sim.iteration > iteration:
            # deterministic restart (snapshots were cached out of order)
            self._sim = sim = PICMagSimulator(self.config)
        while sim.iteration <= iteration:
            it = sim.iteration
            if it % self.period == 0 and it not in self._snapshots:
                self._snapshots[it] = A = sim.load_matrix()
                if self._cache_path is not None:
                    self._write_record(it, A)
            if it >= iteration:
                break
            sim.step(min(self.period, iteration - it))

    # ------------------------------------------------------------------
    def _load_records(self) -> None:
        """Load this stream's records; drop any that fail to load (healed on demand)."""
        assert self._cache_path is not None
        shape = (self.config.grid, self.config.grid)
        for it in self.iterations:
            path = self._cache_path / f"{it}.npz"
            if not path.exists():
                continue
            try:
                with np.load(path) as rec:
                    A = rec["load"]
                ok = A.shape == shape and A.dtype == np.int64
            except Exception:  # truncated, garbage, ...: recomputed and rewritten
                ok = False
            if ok:
                self._snapshots[it] = A
            else:
                path.unlink(missing_ok=True)

    def _write_record(self, iteration: int, A: np.ndarray) -> None:
        """Atomically write one snapshot record (mkstemp + ``os.replace``)."""
        assert self._cache_path is not None
        self._cache_path.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self._cache_path, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(fh, load=A)
            os.replace(tmp, self._cache_path / f"{iteration}.npz")
        except BaseException:
            os.unlink(tmp)
            raise

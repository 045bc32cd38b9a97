"""Vectorized 2D particle pusher for the PIC-MAG substitute.

The simulator advances ``N`` particles in the unit square:

* a solar-wind drift ``u = (u_wind, 0)`` blows particles left → right;
* the dipole field rotates velocities at the local gyrofrequency (a Boris-like
  velocity rotation, exact for out-of-plane B);
* a small velocity diffusion models thermal spread;
* particles leaving the domain or entering the absorption radius around the
  dipole are recycled as fresh solar wind at the left edge.

Load matrices are particle-count histograms on an ``n × n`` grid plus a
uniform base load, scaled so that the max/min cell ratio Δ lands in the
paper's PIC-MAG band (Δ ∈ [1.21, 1.51], §4.1).  Everything is NumPy; the
per-step cost is O(N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import DipoleField

__all__ = ["PICConfig", "PICMagSimulator"]


def _box_smooth(H: np.ndarray, half: int) -> np.ndarray:
    """Box-average ``H`` over a ``(2·half+1)²`` window with clamped edges.

    Implemented with an integral image (two cumsums + four gathers), so the
    cost is O(cells) independent of the window size.
    """
    if half <= 0:
        return H
    n1, n2 = H.shape
    P = np.zeros((n1 + 1, n2 + 1), dtype=np.float64)
    np.cumsum(H, axis=0, out=P[1:, 1:])
    np.cumsum(P[1:, 1:], axis=1, out=P[1:, 1:])
    i = np.arange(n1)
    j = np.arange(n2)
    r0 = np.maximum(i - half, 0)
    r1 = np.minimum(i + half + 1, n1)
    c0 = np.maximum(j - half, 0)
    c1 = np.minimum(j + half + 1, n2)
    S = P[np.ix_(r1, c1)] - P[np.ix_(r0, c1)] - P[np.ix_(r1, c0)] + P[np.ix_(r0, c0)]
    area = (r1 - r0)[:, None] * (c1 - c0)[None, :]
    return S / area


@dataclass(frozen=True)
class PICConfig:
    """Tunable parameters of the PIC-MAG substitute.

    The defaults are calibrated (see ``tests/test_pic.py``) so snapshot load
    matrices have Δ inside the paper's reported [1.21, 1.51] window.
    """

    grid: int = 256  #: load-matrix resolution (n1 = n2 = grid)
    particles: int = 60_000  #: particle count
    seed: int = 2011  #: RNG seed (deterministic datasets)
    wind: float = 0.004  #: solar-wind drift per step
    thermal: float = 0.0015  #: velocity diffusion per step
    dipole_center: tuple[float, float] = (0.62, 0.5)
    dipole_strength: float = 1.1e-4  #: gyrofrequency scale
    max_rotation: float = 0.6  #: cap on the per-step gyro rotation (radians)
    absorb_radius: float = 0.045  #: recycling radius around the dipole
    base_load: int = 1000  #: uniform per-cell computation cost
    particle_load: int = 26  #: cost contribution scale of the local density
    smooth: int = 3  #: box half-width for density smoothing (cells)
    substeps: int = 1  #: pushes per reported "iteration"


class PICMagSimulator:
    """Deterministic particle-in-cell-like simulator producing load matrices."""

    def __init__(self, config: PICConfig | None = None):
        self.config = config or PICConfig()
        c = self.config
        self.rng = np.random.default_rng(c.seed)
        self.field = DipoleField(c.dipole_center, c.dipole_strength)
        n = c.particles
        self.x = self.rng.uniform(0.0, 1.0, n)
        self.y = self.rng.uniform(0.0, 1.0, n)
        self.vx = np.full(n, c.wind) + self.rng.normal(0, c.thermal, n)
        self.vy = self.rng.normal(0, c.thermal, n)
        self.iteration = 0

    # ------------------------------------------------------------------
    def _recycle(self, mask: np.ndarray) -> None:
        """Re-inject particles as fresh solar wind at the left edge."""
        k = int(mask.sum())
        if k == 0:
            return
        c = self.config
        self.x[mask] = self.rng.uniform(0.0, 0.02, k)
        self.y[mask] = self.rng.uniform(0.0, 1.0, k)
        self.vx[mask] = c.wind * self.rng.uniform(0.8, 1.2, k)
        self.vy[mask] = self.rng.normal(0, c.thermal, k)

    def step(self, iterations: int = 1) -> None:
        """Advance the simulation by ``iterations`` reported iterations."""
        c = self.config
        for _ in range(iterations * c.substeps):
            # velocity rotation by the local gyrofrequency (out-of-plane B);
            # the cap keeps near-dipole orbits resolvable at this step size
            w = np.minimum(self.field.omega(self.x, self.y), c.max_rotation)
            cw, sw = np.cos(w), np.sin(w)
            vx = cw * self.vx
            vx -= sw * self.vy
            # vy ← sw·vx + cw·vy, in place (IEEE addition commutes exactly)
            self.vy *= cw
            self.vy += sw * self.vx
            # thermal diffusion + drift restoring the wind
            vx += 0.02 * (c.wind - vx)
            vx += self.rng.normal(0, c.thermal * 0.05, len(vx))
            self.vx = vx
            self.vy += self.rng.normal(0, c.thermal * 0.05, len(vx))
            self.x += self.vx
            self.y += self.vy
            out = self.field.within(self.x, self.y, c.absorb_radius)
            out |= (self.x < 0.0) | (self.x >= 1.0) | (self.y < 0.0) | (self.y >= 1.0)
            self._recycle(out)
        self.iteration += iterations

    # ------------------------------------------------------------------
    def density(self) -> np.ndarray:
        """Particle counts per grid cell (``grid × grid`` int64)."""
        n = self.config.grid
        ix = np.clip((self.x * n).astype(np.int64), 0, n - 1)
        iy = np.clip((self.y * n).astype(np.int64), 0, n - 1)
        counts = np.bincount(ix * n + iy, minlength=n * n)
        return counts.reshape(n, n).astype(np.int64)

    def load_matrix(self) -> np.ndarray:
        """Current load matrix: base load plus density-proportional cost.

        The raw histogram is box-smoothed (a cheap stand-in for the particle
        shape functions of a real PIC deposit) and scaled by its mean, so the
        matrix keeps a stable Δ band across the run as structures sharpen.
        """
        c = self.config
        dens = _box_smooth(self.density().astype(np.float64), c.smooth)
        mean = max(dens.mean(), 1e-9)
        load = c.base_load + np.rint(dens * (c.particle_load / mean)).astype(np.int64)
        return load

    def delta(self) -> float:
        """Current max/min cell-load ratio Δ (finite: loads are positive)."""
        A = self.load_matrix()
        return float(A.max() / A.min())

"""Field model for the PIC-MAG substitute (see DESIGN.md §4).

The real PIC-MAG data comes from a 3D hybrid particle-in-cell simulation of
the solar wind hitting the Earth's magnetosphere [Karimabadi et al. 2006].
For the reproduction we only need the *load matrices* such a code produces:
particle densities shaped by a magnetized obstacle in a streaming plasma.

We model the out-of-plane magnetic field of a 2D dipole sitting in the
domain.  A charged particle moving in a purely out-of-plane field rotates its
velocity at the local gyrofrequency ``ω ∝ |B|``, which for a 2D dipole falls
off as ``1/r³``.  That is all the physics needed to carve a magnetospheric
cavity, pile particles up at a bow-shock-like front and stretch a wake tail —
the spatial structure visible in the paper's Figure 2(a).
"""

from __future__ import annotations

import numpy as np

__all__ = ["gyro_frequency", "DipoleField"]


def gyro_frequency(
    x: np.ndarray,
    y: np.ndarray,
    center: tuple[float, float],
    strength: float,
    softening: float = 0.02,
) -> np.ndarray:
    """Rotation rate ``ω(x, y)`` induced by a 2D dipole at ``center``.

    ``ω = strength / (r³ + softening³)`` with ``r`` the distance to the
    dipole; the softening keeps the field finite at the singularity (inside
    the absorption radius anyway).
    """
    dx = x - center[0]
    dy = y - center[1]
    dx *= dx
    dy *= dy
    dx += dy  # r² = dx² + dy², in place: each temporary is a fresh allocation
    r3 = np.power(dx, 1.5, out=dx)
    r3 += softening**3
    return np.divide(strength, r3, out=r3)


class DipoleField:
    """Callable dipole field bound to a center and strength."""

    def __init__(self, center: tuple[float, float] = (0.62, 0.5), strength: float = 4e-4):
        self.center = (float(center[0]), float(center[1]))
        self.strength = float(strength)

    def omega(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gyrofrequency at particle positions."""
        return gyro_frequency(x, y, self.center, self.strength)

    def within(self, x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
        """Mask of ``np.hypot(dx, dy) < radius``, ``(dx, dy)`` the offset to the center.

        ``hypot`` runs only on the candidates of a squared-distance prefilter
        whose bound, ``radius²`` widened by a relative 1e-6, dwarfs the
        few-ulp rounding of either side: the mask is bit-for-bit the plain test's.
        """
        dx, dy = x - self.center[0], y - self.center[1]
        near = np.flatnonzero(dx * dx + dy * dy < (radius * (1.0 + 1e-6)) ** 2)
        mask = np.zeros(len(dx), dtype=bool)
        mask[near] = np.hypot(dx[near], dy[near]) < radius
        return mask

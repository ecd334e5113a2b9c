"""Relativistic substrate: units and proper time along straight legs.

Everything downstream consumes these primitives. Natural units throughout:
c = 1, action scale = 1, so lengths and times share one unit and the
particle mass is an inverse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["UnitsConfig", "proper_time"]


@dataclass(frozen=True)
class UnitsConfig:
    """Unit system pinned to the intrinsic clock period.

    The clock toggles twice per period, so its angular frequency is
    2*pi/T; that frequency is the particle mass in natural units.  The
    default period of 4 gives m = pi/2 and diffusion constant
    D = 1/(2m) = 1/pi.
    """

    compton_period: float = 4.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.compton_period) and self.compton_period > 0):
            raise ValueError(f"compton_period must be positive, got {self.compton_period}")

    @property
    def mass(self) -> float:
        return 2.0 * math.pi / self.compton_period

    @property
    def diffusion_constant(self) -> float:
        """D = 1/(2m) with the action scale set to 1."""
        return self.compton_period / (4.0 * math.pi)

    @property
    def half_period(self) -> float:
        """Duration of one parity cell (half a clock period)."""
        return 0.5 * self.compton_period


def proper_time(dt, dx) -> np.ndarray:
    """Proper time along piecewise-straight paths: sum of sqrt(dt^2 - dx^2) over legs.

    dt and dx hold each leg's coordinate duration and displacement, with
    the legs of one path on the last axis; the two broadcast against each
    other and the result drops the leg axis.  Velocity changes only at the
    hinges between legs, so the sum is the whole proper time: at most the
    coordinate time, with equality exactly for a path at rest.

    Every leg must take a positive finite time and end in the closed
    forward light cone of its start (|dx| <= dt); a lightlike leg adds no
    proper time.  Raises ValueError otherwise, or for a path with no legs.
    """
    dt, dx = np.broadcast_arrays(np.asarray(dt, dtype=float), np.asarray(dx, dtype=float))
    if dt.ndim == 0 or dt.shape[-1] == 0:
        raise ValueError("a path needs at least one leg")
    if not np.all(np.isfinite(dt) & (dt > 0.0) & (np.abs(dx) <= dt)):
        raise ValueError("every leg needs a finite dt > 0 and |dx| <= dt")
    return np.sqrt(dt * dt - dx * dx).sum(axis=-1)

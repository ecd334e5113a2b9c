"""Binary clock signals, spacetime parity patterns, and the two-path filter.

A clock ticks through half-periods of proper time; its parity is +1 on
even half-periods and -1 on odd ones.  Patterns over a fixed-time slice,
the two-path Lorentz-equivalence filter, and an idealized double-slit
arrangement are all built from that rule, evaluated on arrays of screen
positions.  The plane pattern's parity is exact: within rounding distance
of a half-period boundary it comes from the integer rule _exact_cell, which
also checks a slice sample by sample; the slit screen keeps the float rule.

The two patterns draw their cone differently, and each keeps the
convention its committed data were made with: the plane pattern's cone is
open (|x| < t), because a clock riding the light cone has no proper time
to show; a slit screen's cone is closed (|dx| <= t2 per leg), because a
lightlike second leg adds zero proper time to a path that still reaches
the screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import UnitsConfig, proper_time

__all__ = [
    "Pattern",
    "SlitGeometry",
    "parity_of_proper_time",
    "plane_pattern",
    "parity_crossings",
    "lorentz_filter",
    "double_slit_phi",
    "gap_intervals",
]


@dataclass(frozen=True)
class Pattern:
    """Pattern samples as equal-shape arrays: position, signal value, cone flag.

    value is a parity (+1/-1) or a filter value (+1/0/-1); it is 0 wherever
    in_cone is false (the signal vanishes outside the cone).  len() is the
    number of samples.
    """

    x: np.ndarray
    value: np.ndarray
    in_cone: np.ndarray

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class SlitGeometry:
    """Source-slits-screen arrangement, symmetric about x = 0.

    Slits sit at x = +/- half_separation, one coordinate-time leg t1 from
    the source at the origin and t2 from the screen.
    """

    half_separation: float
    source_to_slit_time: float
    slit_to_screen_time: float

    def __post_init__(self) -> None:
        a, t1, t2 = self.half_separation, self.source_to_slit_time, self.slit_to_screen_time
        if not (math.isfinite(a) and a >= 0.0):
            raise ValueError(f"half_separation must be >= 0, got {a}")
        # t1 > a: the source must reach both slits strictly inside the cone.
        if not (math.isfinite(t1) and t1 > a):
            raise ValueError(f"source_to_slit_time must exceed half_separation, got {t1}")
        if not (math.isfinite(t2) and t2 > 0.0):
            raise ValueError(f"slit_to_screen_time must be positive, got {t2}")


def parity_of_proper_time(tau, units: UnitsConfig) -> np.ndarray:
    """Clock parity after proper time tau: (-1)**floor(tau / (T/2)), elementwise.

    Half-open convention: parity is constant on [k*T/2, (k+1)*T/2), so it
    is right-continuous in tau and deterministic exactly on the toggle
    instants, where sign(sin) would vanish.

    Raises ValueError unless 0 <= tau / (T/2) < 2**42, where one ulp of tau
    is at most 2**-10 of a half period; by 2**52 half periods an ulp is a
    whole half period, and the parity is no longer represented.
    """
    cells = np.asarray(tau, dtype=float) / units.half_period
    if not np.all((cells >= 0.0) & (cells < 2.0**42)):
        raise ValueError("proper time must be >= 0 and under 2**42 half periods")
    return np.where(np.floor(cells) % 2, -1, 1)


def plane_pattern(t, x, units: UnitsConfig) -> Pattern:
    """Parity of clocks launched from the origin toward every x, read at time t.

    t and x broadcast against each other: a scalar t gives a fixed-t slice,
    and a (k, 1) t beside an (n,) x a (k, n) raster.  Inside the open cone
    (|x| < t) the parity is that of the straight-line proper time
    sqrt(t^2 - x^2); level sets are hyperbolae.  On and outside the cone
    the signal is reported as 0 with in_cone false.

    Each parity is (-1)**_exact_cell of the sampled doubles: the float rule
    gives it, except within rounding distance of a half-period boundary.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError(f"t must be positive, got {t.min()}")
    t, x = np.broadcast_arrays(t, np.asarray(x, dtype=float))
    in_cone = np.abs(x) < t
    ts, xs, h = t[in_cone], x[in_cone], units.half_period
    tau = proper_time(ts[:, None], xs[:, None])
    parity = parity_of_proper_time(tau, units)
    # turns = sqrt(t*t - x*x) / h takes five roundings, each a relative error
    # of at most u = 2**-53.  To first order the products and the difference
    # put u t^2 + u x^2 + u t^2 <= 3u t^2 into t^2 - x^2, and the square root
    # and the division 2u each into its square, so turns^2 lies within
    # 7u (t/h)^2 of the exact value.  An integer between the two, where the
    # floors can differ, lies that close to turns in squares, and so does the
    # integer next to turns on its side.  16u leaves room for the higher orders
    # and the test's own roundings, which are relative to its small result.
    turns, bound = tau / h, 16 * 2.0**-53 * (ts / h) ** 2
    below = np.floor(turns)
    near = ((turns - below) * (turns + below) <= bound) | ((below + 1 - turns) * (below + 1 + turns) <= bound)
    for i in np.flatnonzero(near).tolist():
        parity[i] = 1 - 2 * (_exact_cell(ts[i].item(), xs[i].item(), h) % 2)
    value = np.zeros(x.shape, dtype=int)
    value[in_cone] = parity
    return Pattern(x, value, in_cone)


def parity_crossings(t: float, units: UnitsConfig) -> np.ndarray:
    """Sorted positions inside the open cone where plane_pattern(t, ., units) flips parity.

    The straight-line proper time sqrt(t^2 - x^2) hits the half-period
    boundary k T/2 at x = +/- sqrt(t^2 - (k T/2)^2).  A boundary at tau = t
    gives x = 0 twice, as the parity there is a one-point spike: two flips.
    """
    taus = units.half_period * np.arange(1.0, t / units.half_period + 1.0)
    xk = proper_time(t, taus[taus <= t, None])
    xk = xk[xk < t]
    return np.sort(np.concatenate([-xk, xk]))


def _exact_cell(t: float, x: float, h: float) -> int:
    """floor(sqrt(t^2 - x^2) / h) of the doubles t, x and h > 0 (|x| <= t), in integer arithmetic."""
    (a, p), (b, q), (c, r) = t.as_integer_ratio(), x.as_integer_ratio(), h.as_integer_ratio()
    # sqrt(t^2 - x^2) / h = sqrt(n) / (p q c) with n = ((a q)^2 - (b p)^2) r^2,
    # and floor(sqrt(n) / d) = isqrt(n) // d for a whole d > 0.
    return math.isqrt(((a * q) ** 2 - (b * p) ** 2) * r * r) // (p * q * c)


def _parity_mismatches(t: float, units: UnitsConfig, pattern: Pattern) -> int:
    """In-cone samples of a plane_pattern(t, ., units) slice whose parity is not (-1)**_exact_cell."""
    h = units.half_period
    exact = [1 - 2 * (_exact_cell(t, x, h) % 2) for x in pattern.x[pattern.in_cone].tolist()]
    return int(np.count_nonzero(pattern.value[pattern.in_cone] != exact))


def lorentz_filter(pa, pb) -> np.ndarray:
    """Two-path equivalence filter: the average of two parities, elementwise.

    +1 or -1 when the parities agree (the paths are boost images of one
    clock history), 0 when they disagree.
    """
    if not (np.isin(pa, (-1, 1)).all() and np.isin(pb, (-1, 1)).all()):
        raise ValueError(f"parities must be +1 or -1, got ({pa}, {pb})")
    return (np.asarray(pa) + np.asarray(pb)) // 2


def double_slit_phi(geom: SlitGeometry, x, units: UnitsConfig) -> Pattern:
    """Filter value phi(x) on the screen for the two single-hinge paths.

    Each path runs from the source to one slit and on to the screen point,
    two straight legs hinged at the slit.  phi = +/-1 where the two path
    parities agree, 0 where they disagree, and 0 with in_cone false where
    the screen point is reachable from fewer than two slits.
    """
    a = geom.half_separation
    t1, t2 = geom.source_to_slit_time, geom.slit_to_screen_time
    x = np.asarray(x, dtype=float)
    in_cone = (np.abs(x + a) <= t2) & (np.abs(x - a) <= t2)
    reached = x[in_cone]
    parities = []
    for x_slit in (-a, a):
        legs_dx = np.stack(np.broadcast_arrays(x_slit, reached - x_slit), axis=-1)
        parities.append(parity_of_proper_time(proper_time((t1, t2), legs_dx), units))
    value = np.zeros(x.shape, dtype=int)
    value[in_cone] = lorentz_filter(*parities)
    return Pattern(x, value, in_cone)


def gap_intervals(pattern: Pattern) -> list[tuple[float, float]]:
    """(first, last) position of each gap: each maximal run of in-cone zeros."""
    edges = np.diff(np.concatenate(([0], (pattern.in_cone & (pattern.value == 0)).astype(int), [0])))
    return list(zip(pattern.x[edges[:-1] == 1].tolist(), pattern.x[edges[1:] == -1].tolist()))

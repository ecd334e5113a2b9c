"""Analytic reference signals and the comparison metrics used by acceptance tests.

Free-particle propagator, diffusion Green's function, two-source
superposition, the comparison of two signals sampled on one grid (sign
agreement, zero crossings and their spacings), and convergence-order
fitting.  The propagators take the mass m itself, so this layer depends
on no other module of the package.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "feynman_free",
    "diffusion_green",
    "two_source_superposition",
    "zero_crossings",
    "crossing_spacing_error",
    "sign_agreement",
    "fit_convergence_order",
    "local_minima",
    "node_spacing_deviation",
]


def feynman_free(x, t: float, m: float):
    """Free-particle propagator from the origin, exp(i m x^2 / 2t) / sqrt(2 pi i t / m).

    Principal branch, sqrt(i) = exp(i pi/4); |K| = sqrt(m / 2 pi t)
    independent of x.  At m = 1/(2D) it is the kernel
    exp(i x^2 / 4Dt) / sqrt(4 pi i D t) of the walk's Schrodinger limit.
    """
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    if not (0.0 < m < math.inf):
        raise ValueError(f"m must be positive and finite, got {m}")
    x = np.asarray(x, dtype=float)
    phase = m * x * x / (2.0 * t) - 0.25 * math.pi
    return np.exp(1j * phase) / math.sqrt(2.0 * math.pi * t / m)


def diffusion_green(x, t: float, D: float):
    """Heat-kernel density exp(-x^2 / 4Dt) / sqrt(4 pi D t): unit mass, variance 2Dt."""
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    if not (D > 0.0):
        raise ValueError(f"D must be positive, got {D}")
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / (4.0 * D * t)) / math.sqrt(4.0 * math.pi * D * t)


def two_source_superposition(x, t: float, a: float, m: float):
    """Coherent sum of propagators of mass m from sources at +/- a, and its intensity.

    Returns (amplitude, intensity).  The intensity is
    4 |K|^2 cos^2(m a x / t): nodes where m a x / t = pi/2 + k pi, hence
    equally spaced with spacing pi t / (m a).
    """
    x = np.asarray(x, dtype=float)
    amp = feynman_free(x - a, t, m) + feynman_free(x + a, t, m)
    return amp, np.abs(amp) ** 2


def zero_crossings(x, v) -> np.ndarray:
    """Zero-crossing positions of a real signal v sampled on the strictly increasing grid x.

    Binary signals (values in {-1, 0, +1}): the crossing is the midpoint of
    the sign-change cell, the best available locator for a discontinuous
    signal.  Smooth signals: the root of the linear interpolant through the
    sign-change cell (the closed form that cell bisection converges to);
    exact zero samples count as crossings at their own grid point.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.all(np.isin(v, (-1.0, 0.0, 1.0))):
        idx = np.nonzero(v[:-1] * v[1:] < 0)[0]
        return 0.5 * (x[idx] + x[idx + 1])
    cross = np.zeros(v.shape, dtype=bool)
    cross[:-1] = v[:-1] * v[1:] < 0.0
    i = np.nonzero(cross)[0]
    out = x.copy()
    out[i] = x[i] - v[i] * (x[i + 1] - x[i]) / (v[i + 1] - v[i])
    return out[cross | (v == 0.0)]


def crossing_spacing_error(ca: np.ndarray, cb: np.ndarray) -> tuple[float | None, int]:
    """Max relative difference of the crossing spacings of ca and cb,
    matched by location, and the number of spacings matched.

    Spacings are functions of position (midpoint of each crossing pair);
    signal b's spacing profile is linearly interpolated at signal a's
    spacing midpoints.  Matching by location rather than by index is what
    a local-frequency comparison requires: a constant phase offset between
    two signals of equal local frequency shifts crossing indices but not
    the spacing profile.  (None, 0) when either side has fewer than two
    crossings or no spacing of a lies within b's.
    """
    if ca.size < 2 or cb.size < 2:
        return None, 0
    spa, mida = np.diff(ca), 0.5 * (ca[:-1] + ca[1:])
    spb, midb = np.diff(cb), 0.5 * (cb[:-1] + cb[1:])
    sel = (mida >= midb[0]) & (mida <= midb[-1])
    if not np.any(sel):
        return None, 0
    interp = np.interp(mida[sel], midb, spb)
    rel = np.abs(spa[sel] - interp) / interp
    return float(rel.max()), int(sel.sum())


def sign_agreement(a, b) -> float:
    """Fraction of samples where sign(a) equals sign(b), after the global
    sign flip of b that maximizes it; 1.0 for empty signals."""
    sa, sb = np.sign(a), np.sign(b)
    return max(float(np.mean(sa == sb)), float(np.mean(sa == -sb))) if sa.size else 1.0


def fit_convergence_order(deltas, errors) -> float:
    """Least-squares slope of log(error) against log(delta).

    The empirical convergence order: error ~ C * delta**order gives a
    straight line in log-log with this slope.
    """
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if deltas.size != errors.size or deltas.size < 2:
        raise ValueError("need at least two (delta, error) pairs")
    if np.any(deltas <= 0) or np.any(errors <= 0):
        raise ValueError("deltas and errors must be positive")
    return float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])


def local_minima(x, v) -> np.ndarray:
    """Positions of strict interior local minima of a sampled signal."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    core = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    return x[1:-1][core]


def node_spacing_deviation(x, intensity, spacing: float) -> tuple[np.ndarray, float]:
    """The nodes (local_minima) of a sampled intensity, and the largest
    relative deviation of their spacings from spacing, the pi t / (m a) of
    two_source_superposition.

    Raises ValueError when the grid holds fewer than two nodes or spans less
    than one spacing; a window that short cannot hold two true nodes, so any
    minima in it are rounding.
    """
    nodes = local_minima(x, intensity)
    if nodes.size < 2 or not x[-1] - x[0] >= spacing:
        raise ValueError(
            f"the window [{float(x[0])}, {float(x[-1])}] holds {nodes.size} intensity node(s); measuring their "
            f"spacing pi t / (m a) = {spacing:.6g} needs at least two, and a window at least that wide"
        )
    return nodes, float(np.max(np.abs(np.diff(nodes) - spacing)) / spacing)

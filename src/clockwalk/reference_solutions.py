"""Analytic reference signals and the comparison metrics used by acceptance tests.

Free-particle propagator, diffusion Green's function, two-source
superposition, sampled-signal comparison (sign agreement, zero-crossing
spacings), and convergence-order fitting.  The propagators take the mass m
itself, so this layer depends on no other module of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampledSignal",
    "ComparisonReport",
    "feynman_free",
    "diffusion_green",
    "two_source_superposition",
    "zero_crossings",
    "compare",
    "fit_convergence_order",
    "local_minima",
    "node_spacing_deviation",
]


@dataclass(frozen=True)
class SampledSignal:
    """A real-valued signal sampled on a strictly increasing grid."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values)
        if x.ndim != 1 or v.shape != x.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if np.iscomplexobj(v):
            raise ValueError("sampled signals are real; pass .real or a sign explicitly")
        if x.size >= 2 and not np.all(np.diff(x) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", np.asarray(v, dtype=float))


@dataclass
class ComparisonReport:
    """Sign and zero-crossing agreement between two sampled signals on a shared grid.

    crossing_spacing_error is the max relative difference of matched
    zero-crossing spacings, or None when either signal offers fewer than
    two crossings (no spacing to match).
    """

    sign_agreement_fraction: float
    zero_crossings_a: np.ndarray
    zero_crossings_b: np.ndarray
    crossing_spacing_error: float | None
    n_spacing_pairs: int


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


def _is_binary(values: np.ndarray) -> bool:
    return bool(np.all(np.isin(values, (-1.0, 0.0, 1.0))))


def zero_crossings(sig: SampledSignal) -> np.ndarray:
    """Zero-crossing positions of a sampled signal.

    Binary signals (values in {-1, 0, +1}): the crossing is the midpoint of
    the sign-change cell, the best available locator for a discontinuous
    signal.  Smooth signals: the root of the linear interpolant through the
    sign-change cell (the closed form that cell bisection converges to);
    exact zero samples count as crossings at their own grid point.
    """
    x, v = sig.x, sig.values
    if _is_binary(v):
        idx = np.nonzero(v[:-1] * v[1:] < 0)[0]
        return 0.5 * (x[idx] + x[idx + 1])
    cross = np.zeros(v.shape, dtype=bool)
    cross[:-1] = v[:-1] * v[1:] < 0.0
    i = np.nonzero(cross)[0]
    out = x.copy()
    out[i] = x[i] - v[i] * (x[i + 1] - x[i]) / (v[i + 1] - v[i])
    return out[cross | (v == 0.0)]


def _matched_spacing_error(ca: np.ndarray, cb: np.ndarray):
    """Max relative difference of crossing spacings, matched by location.

    Spacings are functions of position (midpoint of each crossing pair);
    signal b's spacing profile is linearly interpolated at signal a's
    spacing midpoints.  Matching by location rather than by index is what
    a local-frequency comparison requires: a constant phase offset between
    two signals of equal local frequency shifts crossing indices but not
    the spacing profile.
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


def compare(a: SampledSignal, b: SampledSignal) -> ComparisonReport:
    """Compare two signals sampled on the identical grid.

    Sign agreement is scored after an optional global sign flip of b, the
    flip maximizing agreement.  Resampling onto a shared grid is the
    caller's job.
    """
    if a.x.shape != b.x.shape or not np.array_equal(a.x, b.x):
        raise ValueError("signals must share an identical grid")

    sa, sb = np.sign(a.values), np.sign(b.values)
    agree = max(float(np.mean(sa == sb)), float(np.mean(sa == -sb))) if sa.size else 1.0

    ca = zero_crossings(a)
    cb = zero_crossings(b)
    spacing_err, n_pairs = _matched_spacing_error(ca, cb)

    return ComparisonReport(
        sign_agreement_fraction=agree,
        zero_crossings_a=ca,
        zero_crossings_b=cb,
        crossing_spacing_error=spacing_err,
        n_spacing_pairs=n_pairs,
    )


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

"""Command-line experiment runner emitting CSV/JSON artifacts with a manifest.

Each scenario subcommand configures one scenario, validates every
parameter before touching the filesystem, computes, writes plain data
tables plus a report.json (flat metrics, stage timings and a nested
reproducibility manifest), and gates CI via exit codes: 0 success, 2
configuration failure, 3 numerical check failure, 4 I/O failure.
`verify RUN_DIR` re-hashes a run directory against its manifest: 0 when
it matches, 3 when it does not, 2 when RUN_DIR is not a run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

try:
    import resource
except ImportError:  # not available on Windows
    resource = None

import numpy as np

from . import __version__
from .clock_signal import Pattern, SlitGeometry, double_slit_phi, plane_pattern
from .kinematics import UnitsConfig, proper_time
from .lattice_walk import (
    SQRT2,
    DecomposedField,
    LatticeParams,
    decompose,
    compose,
    deposit_standard_errors,
    evolve,
    field_variance,
    monte_carlo_estimate,
    phi_step,
    point_source_phi,
    point_source_z,
    unit_state_field,
    z_step,
)
from .reference_solutions import (
    SampledSignal,
    compare,
    diffusion_green,
    feynman_free,
    fit_convergence_order,
    local_minima,
    two_source_superposition,
)
from .spectral_limit import (
    PSI_DENSITY_CALIBRATION,
    assemble_psi,
    continuum_propagator,
    eigenphase,
    eigenvalue_leading_order,
    eigenvalue_plus,
    evolve_spectral,
    fresnel_kernel,
    momentum_grid,
    transfer_matrices,
    transfer_power,
)

__all__ = [
    "main",
    "run_scenario",
    "ConfigError",
    "schrodinger_levels",
    "diffusion_levels",
    "validate_level_sequence",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_CHECK",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Raised for any invalid configuration before any file is written."""


# ---------------------------------------------------------------------------
# config plumbing


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_alpha(s: str) -> float:
    v = s.strip().lower()
    if v == "sqrt2":
        return SQRT2
    try:
        a = float(s)
    except ValueError as exc:
        raise ConfigError(f"alpha must be a number or 'sqrt2', got {s!r}") from exc
    return a


def _parse_float_list(s: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in s.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {s!r}") from exc
    if not vals:
        raise ConfigError(f"expected a non-empty list, got {s!r}")
    return vals


def _parse_choice(*choices: str):
    def parse(s: str) -> str:
        if s not in choices:
            raise ConfigError(f"expected one of {choices}, got {s!r}")
        return s

    return parse


# Per-scenario configuration schema: key -> (parser, default as string).
# All defaults are illustrative desk-scale choices, echoed into the
# manifest; none of them is ground truth.
SCHEMAS: dict[str, dict[str, tuple]] = {
    "clock-pattern": {
        "t": (float, "20.0"),
        "compton_period": (float, "4.0"),
        "x_min": (float, "-25.0"),
        "x_max": (float, "25.0"),
        "x_step": (float, "0.05"),
        "raster_t_min": (float, "0.5"),
        "raster_t_max": (float, "25.0"),
        "raster_t_step": (float, "0.5"),
    },
    "propagator-compare": {
        "t": (float, "20.0"),
        "compton_period": (float, "4.0"),
        "x_window": (float, "4.0"),
        "x_step": (float, "0.01"),
        "min_sign_agreement": (float, "0.95"),
        "max_spacing_rel": (float, "0.10"),
        "alignment": (_parse_choice("aligned", "raw"), "aligned"),
    },
    "double-slit": {
        "half_separation": (float, "4.0"),
        "source_to_slit_time": (float, "8.0"),
        "slit_to_screen_time": (float, "40.0"),
        "compton_period": (float, "4.0"),
        "x_min": (float, "-30.0"),
        "x_max": (float, "30.0"),
        "x_step": (float, "0.05"),
        "node_tolerance": (float, "0.01"),
    },
    "lattice-evolve": {
        "delta": (float, "0.1"),
        "diffusion": (float, "0.5"),
        "alpha": (_parse_alpha, "1.0"),
        "n_steps": (int, "64"),
        "snapshot_every": (int, "8"),
        "site_count": (int, "0"),
        "init": (_parse_choice("unit_state", "phi_point", "z_point"), "unit_state"),
        "initial_state": (int, "1"),
        "initial_site": (int, "-1"),
        "stroboscopic": (_parse_bool, "false"),
        "mc_paths": (int, "0"),
    },
    "continuum-check": {
        "deltas": (_parse_float_list, "0.2,0.1,0.05,0.025"),
        "diffusion": (float, "0.5"),
        "t": (float, "2.56"),
        "p_window": (float, "2.0"),
        "x_window": (float, "5.0"),
        "diffusion_deltas": (_parse_float_list, "0.05,0.025,0.0125"),
        "diffusion_t": (float, "1.0"),
        "order_threshold": (float, "1.8"),
        "l1_threshold": (float, "0.02"),
        "pad": (int, "64"),
    },
    "spectral-check": {
        "delta": (float, "0.1"),
        "site_count": (int, "1024"),
        "alpha": (_parse_alpha, "sqrt2"),
        "expansion_p": (float, "1.0"),
        "expansion_deltas": (_parse_float_list, "0.2,0.1,0.05"),
        "unitarity_tol": (float, "1e-14"),
    },
}


def _read_config_file(path: str) -> dict[str, str]:
    """Plain key = value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(scenario: str, file_entries: dict[str, str], set_entries: list[str]) -> dict:
    """Merge defaults, config-file entries, and --set overrides (that order)."""
    schema = SCHEMAS[scenario]
    raw = {key: default for key, (_, default) in schema.items()}
    for key, value in file_entries.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for scenario {scenario}")
        raw[key] = value
    for entry in set_entries:
        if "=" not in entry:
            raise ConfigError(f"--set expects KEY=VALUE, got {entry!r}")
        key, value = entry.split("=", 1)
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for scenario {scenario}")
        raw[key] = value.strip()
    cfg = {}
    for key, (parser, _) in schema.items():
        try:
            cfg[key] = parser(raw[key])
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid value for {key!r}: {raw[key]!r} ({exc})") from exc
    return cfg


def _grid(x_min: float, x_max: float, step: float) -> np.ndarray:
    if not (step > 0):
        raise ConfigError(f"grid step must be positive, got {step}")
    if not (x_max > x_min):
        raise ConfigError(f"grid needs x_max > x_min, got [{x_min}, {x_max}]")
    n = int(round((x_max - x_min) / step))
    if n < 1:
        raise ConfigError("grid needs at least two points")
    return x_min + step * np.arange(n + 1)


# ---------------------------------------------------------------------------
# level studies (shared between the CLI and the acceptance tests)


def validate_level_sequence(deltas, D: float, t: float) -> list[int]:
    """Check a halving delta sequence against the mod-8 stroboscopic rule.

    Returns the per-level step counts s = t/epsilon with epsilon fixed by
    delta^2 = 2 D epsilon.  Raises ConfigError on non-halving sequences,
    non-integer step counts, or step counts not divisible by 8.
    """
    deltas = list(deltas)
    if len(deltas) < 2:
        raise ConfigError("need at least two levels")
    for d in deltas:
        if not (d > 0):
            raise ConfigError(f"deltas must be positive, got {d}")
    for a, b in zip(deltas, deltas[1:]):
        if abs(b / a - 0.5) > 1e-9:
            raise ConfigError(f"levels must halve: {a} -> {b}")
    steps = []
    for d in deltas:
        eps = d * d / (2.0 * D)
        s_float = t / eps
        s = int(round(s_float))
        if abs(s_float - s) > 1e-6 or s <= 0:
            raise ConfigError(f"t/epsilon = {s_float} is not a positive integer at delta={d}")
        if s % 8 != 0:
            raise ConfigError(f"level delta={d} gives s={s}, violating the mod-8 rule")
        steps.append(s)
    return steps


def _level_params(delta: float, D: float, s: int, pad: int, alpha: float) -> LatticeParams:
    n = 2 * s + pad
    if n % 2:
        n += 1
    return LatticeParams(delta=delta, epsilon=delta * delta / (2.0 * D), site_count=n, alpha=alpha)


def schrodinger_level(delta: float, D: float, t: float, p_window: float, x_window: float, pad: int = 64) -> dict:
    """One level of the norm-preserving continuum study.

    Evolves the phi point source s steps with the spectral engine,
    assembles psi+, and measures: the rotation-angle error (exact
    eigenvalue phase to the s-th power against the continuum rotation
    phase, rms over the momentum grid inside the window), the full-matrix
    error (T^s against the rotation matrix, same window, reported), the
    kernel errors (sampled psi+ density against the Fresnel kernel: raw,
    even part, odd fraction), and the p = 0 eight-step identity residual.

    The raw kernel error carries an O(delta) odd-in-x component from the
    eigenvector (branch) admixture of the transfer matrix, which is odd in
    p; the even part isolates the kernel comparison the continuum limit
    actually controls at second order.  Both are returned.
    """
    s = validate_level_sequence([delta, delta / 2], D, t)[0]
    params = _level_params(delta, D, s, pad, SQRT2)
    n = params.site_count
    m0 = n // 2

    # rotation-angle (eigenphase) error over the in-window momentum grid;
    # the eigenvalue modulus is 1 at alpha = sqrt(2)
    p = momentum_grid(params)
    pw = p[np.abs(p) <= p_window]
    lam_s = np.exp(1j * s * eigenphase(pw * delta))
    rot_err = float(np.sqrt(np.mean(np.abs(lam_s - np.exp(1j * pw * pw * D * t)) ** 2)))

    # full-matrix error against the rotation, reported alongside
    frob = np.linalg.norm(transfer_power(pw, delta, SQRT2, s) - continuum_propagator(pw, D, t), axis=(-2, -1))
    matrix_err = float(np.sqrt(np.mean(np.square(frob))))

    # evolution of the phi point source
    phi = evolve_spectral(point_source_phi(params, m0).phi, params, "phi", s)
    psi_plus, _ = assemble_psi(phi[0], phi[1])

    # sample the populated sublattice and convert to a density
    kmax = int(math.floor(x_window / (2.0 * delta)))
    kk = np.arange(-kmax, kmax + 1)
    x = 2.0 * kk * delta
    est = psi_plus[m0 + 2 * kk] * PSI_DENSITY_CALIBRATION / (2.0 * delta)
    ker = fresnel_kernel(x, t, D)
    ker_norm = float(np.linalg.norm(ker))
    raw = float(np.linalg.norm(est - ker)) / ker_norm
    est_even = 0.5 * (est + est[::-1])
    est_odd = 0.5 * (est - est[::-1])
    even = float(np.linalg.norm(est_even - ker)) / ker_norm
    odd_fraction = float(np.linalg.norm(est_odd)) / ker_norm

    p0 = np.linalg.matrix_power(transfer_matrices(0.0, delta, SQRT2), 8)
    p0_residual = float(np.max(np.abs(p0 - np.eye(2))))

    return {
        "delta": delta,
        "s": s,
        "rotation_angle_error": rot_err,
        "matrix_error": matrix_err,
        "kernel_raw_rel": raw,
        "kernel_even_rel": even,
        "odd_fraction": odd_fraction,
        "p0_residual": p0_residual,
    }


def schrodinger_levels(deltas, D: float, t: float, p_window: float, x_window: float, pad: int = 64) -> dict:
    """Halving-delta convergence study of the norm-preserving branch."""
    validate_level_sequence(deltas, D, t)
    levels = [schrodinger_level(d, D, t, p_window, x_window, pad) for d in deltas]
    ds = [lv["delta"] for lv in levels]
    return {
        "levels": levels,
        "rotation_order": fit_convergence_order(ds, [lv["rotation_angle_error"] for lv in levels]),
        "matrix_order": fit_convergence_order(ds, [lv["matrix_error"] for lv in levels]),
        "kernel_raw_order": fit_convergence_order(ds, [lv["kernel_raw_rel"] for lv in levels]),
        "kernel_even_order": fit_convergence_order(ds, [lv["kernel_even_rel"] for lv in levels]),
    }


def diffusion_levels(deltas, D: float, t: float, pad: int = 64) -> dict:
    """Bare-walk (alpha = 1) z-field against the heat kernel, per level.

    The point source's direction-summed density on the populated
    sublattice is compared in L1, relative to the kernel's unit mass.
    """
    steps = validate_level_sequence(deltas, D, t)
    errors = []
    for delta, s in zip(deltas, steps):
        params = _level_params(delta, D, s, pad, 1.0)
        m0 = params.site_count // 2
        z = evolve_spectral(point_source_z(params, m0).z, params, "z", s)
        kmax = s // 2
        kk = np.arange(-kmax, kmax + 1)
        x = 2.0 * kk * delta
        dens = (z[0] + z[1])[m0 + 2 * kk] / (2.0 * delta)
        g = diffusion_green(x, t, D)
        errors.append(float(np.sum(np.abs(dens - g)) * 2.0 * delta))
    return {"deltas": list(deltas), "steps": steps, "l1_rel": errors}


def engine_step_loop_deviation(delta: float, D: float, s: int, pad: int, block: str) -> float:
    """max |spectral engine - step loop| / max |step loop| for one level's point source.

    The per-step maps phi_step (alpha = sqrt(2)) and z_step are the oracle
    that the spectral engine of the level studies is checked against.
    """
    alpha, source, step = (SQRT2, point_source_phi, phi_step) if block == "phi" else (1.0, point_source_z, z_step)
    params = _level_params(delta, D, s, pad, alpha)
    start = getattr(source(params, params.site_count // 2), block)
    loop = start
    for _ in range(s):
        loop = step(loop, params)
    return float(np.max(np.abs(evolve_spectral(start, params, block, s) - loop)) / np.max(np.abs(loop)))


# ---------------------------------------------------------------------------
# scenario runners


@dataclass
class ScenarioResult:
    tables: dict[str, tuple[list[str], np.ndarray]]
    metrics: dict
    checks: dict[str, bool]


def _table(**columns) -> tuple[list[str], np.ndarray]:
    """A table as (header, rows): the keywords in order, and a 1-D structured
    array with one field per column, so len(rows) is the row count.  A
    scalar column repeats down the table.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    rows = np.empty(shape, dtype=[(name, a.dtype) for name, a in zip(columns, arrays)])
    for name, a in zip(columns, arrays):
        rows[name] = a
    return list(columns), rows


def _pattern_crossing_check(t: float, units: UnitsConfig, pattern: Pattern) -> tuple[bool, dict]:
    """Two-way bracketing of analytic against sampled parity crossings.

    Analytic crossings sit where the straight-line proper time hits a
    half-period boundary, sqrt(t^2 - x^2) = k T/2, that is at
    x = sqrt(t^2 - (k T/2)^2): the same hyperbola with x and tau swapped.
    Every analytic crossing inside the sampled window must have a sampled
    sign change within one grid cell and vice versa.
    """
    xs, vals, ok = pattern.x, pattern.value, pattern.in_cone
    h = float(xs[1] - xs[0])
    taus = units.half_period * np.arange(1.0, t / units.half_period + 1.0)
    xk = proper_time(t, taus[taus <= t, None])
    xk = xk[xk < t]
    lo, hi = float(xs[0]) + h, float(xs[-1]) - h
    predicted = np.sort(np.concatenate([xk, -xk[xk > 0.0]]))
    predicted = predicted[(lo <= predicted) & (predicted <= hi)]

    flips = ok[:-1] & ok[1:] & (vals[:-1] * vals[1:] < 0)
    mids = (0.5 * (xs[:-1] + xs[1:]))[flips]
    near = np.abs(mids[:, None] - predicted[None, :]) <= h
    info = {
        "n_predicted_crossings": int(predicted.size),
        "n_sampled_crossings": int(mids.size),
        "predicted_crossings": predicted.tolist(),
        "sampled_crossings": mids.tolist(),
    }
    return bool(near.any(axis=0).all() and near.any(axis=1).all()), info


def run_clock_pattern(cfg: dict, seed: int) -> ScenarioResult:
    units = UnitsConfig(cfg["compton_period"])
    if not (cfg["t"] > 0):
        raise ConfigError(f"t must be positive, got {cfg['t']}")
    xs = _grid(cfg["x_min"], cfg["x_max"], cfg["x_step"])
    ts = _grid(cfg["raster_t_min"], cfg["raster_t_max"], cfg["raster_t_step"])
    if cfg["raster_t_min"] <= 0:
        raise ConfigError("raster_t_min must be positive")

    slice_pattern = plane_pattern(cfg["t"], xs, units)
    raster = [plane_pattern(tv, xs, units) for tv in ts.tolist()]
    cone_ok = not any(pat.value[~pat.in_cone].any() for pat in [slice_pattern, *raster])

    bracketed, info = _pattern_crossing_check(cfg["t"], units, slice_pattern)
    return ScenarioResult(
        tables={
            "slice": _table(x=xs, t=cfg["t"], parity=slice_pattern.value, in_cone=slice_pattern.in_cone),
            "raster": _table(
                x=np.tile(xs, ts.size),
                t=np.repeat(ts, xs.size),
                parity=np.concatenate([pat.value for pat in raster]),
                in_cone=np.concatenate([pat.in_cone for pat in raster]),
            ),
        },
        metrics={"t": cfg["t"], **info},
        checks={"out_of_cone_zero": bool(cone_ok), "crossings_bracketed": bracketed},
    )


def run_propagator_compare(cfg: dict, seed: int) -> ScenarioResult:
    units = UnitsConfig(cfg["compton_period"])
    if not (cfg["t"] > 0):
        raise ConfigError(f"t must be positive, got {cfg['t']}")
    if not (0.0 <= cfg["min_sign_agreement"] <= 1.0):
        raise ConfigError("min_sign_agreement must lie in [0, 1]")
    if not (cfg["max_spacing_rel"] > 0):
        raise ConfigError("max_spacing_rel must be positive")
    w = cfg["x_window"]
    xs = _grid(-w, w, cfg["x_step"])

    pattern = plane_pattern(cfg["t"], xs, units).value.astype(float)
    re_k = np.real(feynman_free(xs, cfg["t"], units))
    rep = compare(
        SampledSignal(xs, pattern, label="clock_pattern"),
        SampledSignal(xs, re_k, label="re_feynman"),
        mode=cfg["alignment"],
    )

    spacing_ok = rep.insufficient_crossings or rep.crossing_spacing_error <= cfg["max_spacing_rel"]
    return ScenarioResult(
        tables={"compare": _table(x=xs, clock_parity=pattern, re_feynman=re_k, sign_re_feynman=np.sign(re_k))},
        metrics={
            "t": cfg["t"],
            "x_window": w,
            "l1": rep.l1,
            "l2": rep.l2,
            "linf": rep.linf,
            "sign_agreement_fraction": rep.sign_agreement_fraction,
            "crossing_spacing_error": rep.crossing_spacing_error,
            "n_spacing_pairs": rep.n_spacing_pairs,
            "insufficient_crossings": rep.insufficient_crossings,
            "n_crossings_pattern": int(rep.zero_crossings_a.size),
            "n_crossings_re_feynman": int(rep.zero_crossings_b.size),
        },
        checks={
            "sign_agreement": rep.sign_agreement_fraction >= cfg["min_sign_agreement"],
            "crossing_spacing": bool(spacing_ok),
        },
    )


def run_double_slit(cfg: dict, seed: int) -> ScenarioResult:
    units = UnitsConfig(cfg["compton_period"])
    if not (cfg["half_separation"] > 0):
        raise ConfigError(f"node spacing pi t/(m a) needs half_separation > 0, got {cfg['half_separation']}")
    xs = _grid(cfg["x_min"], cfg["x_max"], cfg["x_step"])
    geom = SlitGeometry(
        half_separation=cfg["half_separation"],
        source_to_slit_time=cfg["source_to_slit_time"],
        slit_to_screen_time=cfg["slit_to_screen_time"],
    )
    phi = double_slit_phi(geom, xs, units)
    phi_sq = phi.value * phi.value
    # Classical control: average the squared signals instead of squaring
    # the averaged signal; each squared parity is 1, so the control is 1
    # on the doubly-reachable mask and produces no gaps.
    control = phi.in_cone.astype(int)
    _, fey = two_source_superposition(xs, cfg["slit_to_screen_time"], cfg["half_separation"], units)

    binary_ok = bool(np.all((phi_sq == 0) | (phi_sq == 1)))
    control_ok = bool(np.all(control[phi.in_cone] == 1))

    # Gaps are the maximal runs of in-cone zeros: +1/-1 edges of the mask.
    edges = np.diff(np.concatenate(([0], (phi.in_cone & (phi.value == 0)).astype(int), [0])))
    gaps = list(zip(xs[edges[:-1] == 1].tolist(), xs[edges[1:] == -1].tolist()))

    nodes = local_minima(xs, fey)
    expected_spacing = math.pi * cfg["slit_to_screen_time"] / (units.mass * cfg["half_separation"])
    if nodes.size >= 2:
        spacings = np.diff(nodes)
        node_dev = float(np.max(np.abs(spacings - expected_spacing)) / expected_spacing)
    else:
        node_dev = math.inf
    node_ok = node_dev <= cfg["node_tolerance"]

    return ScenarioResult(
        tables={
            "slit": _table(
                x=xs,
                phi=phi.value,
                phi_sq=phi_sq,
                classical_control=control,
                feynman_intensity=fey,
                in_cone=phi.in_cone,
            )
        },
        metrics={
            "gap_intervals": [[a, b] for a, b in gaps],
            "n_gaps": len(gaps),
            "node_positions": nodes.tolist(),
            "expected_node_spacing": expected_spacing,
            "node_spacing_max_rel_dev": node_dev,
        },
        checks={
            "phi_squared_binary": binary_ok,
            "classical_control_gap_free": control_ok,
            "node_spacing": node_ok,
        },
    )


def run_lattice_evolve(cfg: dict, seed: int) -> ScenarioResult:
    delta, D = cfg["delta"], cfg["diffusion"]
    if not (delta > 0 and D > 0):
        raise ConfigError("delta and diffusion must be positive")
    n_steps = cfg["n_steps"]
    every = cfg["snapshot_every"]
    if n_steps < 1 or every < 1:
        raise ConfigError("n_steps and snapshot_every must be >= 1")
    if cfg["stroboscopic"] and (n_steps % 8 != 0 or every % 8 != 0):
        raise ConfigError(
            f"stroboscopic run requires n_steps and snapshot_every % 8 == 0, got {n_steps}, {every}"
        )
    n = cfg["site_count"] if cfg["site_count"] > 0 else 2 * n_steps + 64
    if n <= 2 * n_steps:
        raise ConfigError(f"site_count {n} cannot hold {n_steps} steps without wraparound")
    params = LatticeParams(delta=delta, epsilon=delta * delta / (2.0 * D), site_count=n, alpha=cfg["alpha"])
    site = n // 2 if cfg["initial_site"] == -1 else cfg["initial_site"]
    if not 0 <= site < n:
        raise ConfigError(f"initial_site {site} outside the {n}-site chain (-1 means the centre)")
    if cfg["mc_paths"] > 0 and cfg["init"] != "unit_state":
        raise ConfigError("the Monte Carlo overlay requires init=unit_state")

    if cfg["init"] == "unit_state":
        if cfg["initial_state"] not in (1, 2, 3, 4):
            raise ConfigError(f"initial_state must be 1..4, got {cfg['initial_state']}")
        state: object = unit_state_field(params, cfg["initial_state"], site)
    elif cfg["init"] == "phi_point":
        state = point_source_phi(params, site)
    else:
        state = point_source_z(params, site)

    snap_steps = sorted(set(range(0, n_steps + 1, every)) | {n_steps})
    snapshots = []
    masses = []
    variances = []

    current = state
    done = 0
    for s_target in snap_steps:
        current = evolve(current, params, s_target - done, stroboscopic=cfg["stroboscopic"])
        done = s_target
        if isinstance(current, DecomposedField):
            dec, four = current, compose(current)
        else:
            four, dec = current, decompose(current)
        snapshots.append(np.concatenate([four.p, dec.z, dec.phi]))
        masses.append(four.total_mass())
        u = dec.z[0] + dec.z[1]
        if u.sum() > 0:
            variances.append((s_target * params.epsilon, field_variance(u, params)))

    drift = abs(masses[-1] - masses[0])
    conservation_tol = 1e-12 * max(1.0, n_steps / 1e4) * max(abs(masses[0]), 1.0)
    checks = {}
    metrics: dict = {
        "n_steps": n_steps,
        "site_count": n,
        "alpha": params.alpha,
        "epsilon": params.epsilon,
        "mass_initial": masses[0],
        "mass_final": masses[-1],
        "mass_drift": drift,
    }
    # Mass conservation is a property of the probabilistic walk; with
    # alpha != 1 the phi block is deliberately rescaled each step, so the
    # four-state mass is only conserved for alpha = 1.
    if params.alpha == 1.0:
        checks["conservation"] = drift <= conservation_tol

    # The diffusive rate is the slope of var(t) for t > 0; a unit-state
    # start carries a one-cell offset from its ballistic first step, so
    # the t = 0 snapshot is excluded from the fit.
    if params.alpha == 1.0 and cfg["init"] in ("unit_state", "z_point") and len(variances) >= 3:
        tv = np.array([v[0] for v in variances[1:]])
        var = np.array([v[1] for v in variances[1:]])
        slope = float(np.polyfit(tv, var, 1)[0])
        rel = abs(slope - 2.0 * D) / (2.0 * D)
        metrics["variance_slope"] = slope
        metrics["variance_slope_rel_dev"] = rel
        checks["variance_slope"] = rel <= 0.02

    # One row per (snapshot, site), snapshots in step order.
    sites = np.arange(n)
    xs = sites * delta
    key = {"step": np.repeat(snap_steps, n), "m": np.tile(sites, len(snap_steps)), "x": np.tile(xs, len(snap_steps))}
    p1, p2, p3, p4, z1, z2, phi1, phi2 = np.concatenate(snapshots, axis=1)
    tables = {
        "snapshots_p": _table(**key, p1=p1, p2=p2, p3=p3, p4=p4),
        "snapshots_zphi": _table(**key, z1=z1, z2=z2, phi1=phi1, phi2=phi2),
    }

    if cfg["mc_paths"] > 0:
        est = monte_carlo_estimate(params, n_steps, cfg["mc_paths"], seed, cfg["initial_state"], site)
        det = decompose(current) if not isinstance(current, DecomposedField) else current
        scale = params.alpha**n_steps
        det_phi = det.phi * scale
        z_true_se, phi_true_se = deposit_standard_errors(det, params, n_steps, est.n_paths)
        z_floor = 0.5 / est.n_paths
        # Floor the estimated SE with the exact one from the deterministic
        # field: the estimated SE collapses at low-count tail sites.
        z_band = 4.0 * np.maximum.reduce([est.z_stderr, z_true_se, np.full_like(z_true_se, z_floor)])
        phi_band = 4.0 * np.maximum.reduce(
            [est.phi_stderr, phi_true_se, np.full_like(phi_true_se, est.deposit_quantum)]
        )
        z_dev = np.abs(est.z_hat - det.z) / z_band
        phi_dev = np.abs(est.phi_hat - det_phi) / phi_band
        checks["mc_within_4se"] = bool(z_dev.max() <= 1.0 and phi_dev.max() <= 1.0)
        metrics["mc_paths"] = est.n_paths
        metrics["mc_max_z_dev_4se"] = float(z_dev.max())
        metrics["mc_max_phi_dev_4se"] = float(phi_dev.max())
        tables["mc_overlay"] = _table(
            m=sites,
            x=xs,
            z1_hat=est.z_hat[0],
            z2_hat=est.z_hat[1],
            phi1_hat=est.phi_hat[0],
            phi2_hat=est.phi_hat[1],
            z1_stderr=est.z_stderr[0],
            z2_stderr=est.z_stderr[1],
            phi1_stderr=est.phi_stderr[0],
            phi2_stderr=est.phi_stderr[1],
        )

    return ScenarioResult(tables=tables, metrics=metrics, checks=checks)


def run_continuum_check(cfg: dict, seed: int) -> ScenarioResult:
    D, t = cfg["diffusion"], cfg["t"]
    if not (D > 0 and t > 0 and cfg["diffusion_t"] > 0):
        raise ConfigError("diffusion, t, and diffusion_t must be positive")
    if len(cfg["deltas"]) < 3 or len(cfg["diffusion_deltas"]) < 3:
        raise ConfigError("order fits need at least three levels")
    phi_steps = validate_level_sequence(cfg["deltas"], D, t)
    z_steps = validate_level_sequence(cfg["diffusion_deltas"], D, cfg["diffusion_t"])
    if cfg["pad"] < 2:
        raise ConfigError("pad must be >= 2")

    study = schrodinger_levels(cfg["deltas"], D, t, cfg["p_window"], cfg["x_window"], cfg["pad"])
    diff = diffusion_levels(cfg["diffusion_deltas"], D, cfg["diffusion_t"], cfg["pad"])
    # The step loop reruns the coarsest level of each study as the oracle.
    engine_dev = max(
        engine_step_loop_deviation(cfg["deltas"][0], D, phi_steps[0], cfg["pad"], "phi"),
        engine_step_loop_deviation(cfg["diffusion_deltas"][0], D, z_steps[0], cfg["pad"], "z"),
    )

    levels = study["levels"]
    raw = [lv["kernel_raw_rel"] for lv in levels]

    thr = cfg["order_threshold"]
    checks = {
        "rotation_order": study["rotation_order"] >= thr,
        "kernel_order": study["kernel_even_order"] >= thr,
        "kernel_raw_monotone": all(a > b for a, b in zip(raw, raw[1:])),
        "diffusion_l1": diff["l1_rel"][0] <= cfg["l1_threshold"],
        "diffusion_monotone": all(a > b for a, b in zip(diff["l1_rel"], diff["l1_rel"][1:])),
        "p0_identity": all(lv["p0_residual"] <= 1e-14 for lv in levels),
        "engine_matches_step_loop": engine_dev <= 1e-12,
    }
    metrics = {
        "rotation_order": study["rotation_order"],
        "matrix_order": study["matrix_order"],
        "kernel_even_order": study["kernel_even_order"],
        "kernel_raw_order": study["kernel_raw_order"],
        "diffusion_l1_rel": diff["l1_rel"],
        "order_threshold": thr,
        "l1_threshold": cfg["l1_threshold"],
        "engine_step_loop_rel_dev": engine_dev,
    }
    return ScenarioResult(
        tables={
            # One row per level; the columns are the keys of schrodinger_level's dict.
            "levels": _table(**{key: [lv[key] for lv in levels] for key in levels[0]}),
            "diffusion": _table(delta=diff["deltas"], s=diff["steps"], l1_rel=diff["l1_rel"]),
        },
        metrics=metrics,
        checks=checks,
    )


def run_spectral_check(cfg: dict, seed: int) -> ScenarioResult:
    delta, alpha = cfg["delta"], cfg["alpha"]
    if not (delta > 0):
        raise ConfigError("delta must be positive")
    n = cfg["site_count"]
    if n < 2 or n % 2:
        raise ConfigError(f"site_count must be even and >= 2, got {n}")
    exp_deltas = cfg["expansion_deltas"]
    if len(exp_deltas) < 2:
        raise ConfigError("expansion fit needs at least two deltas")
    params = LatticeParams(delta=delta, epsilon=delta * delta, site_count=n, alpha=alpha)
    ps = momentum_grid(params)

    # Per momentum: unitarity residual, |lambda+/-|, Re det, Im det.
    target_mod = alpha / SQRT2
    target_det = 0.5 * alpha * alpha
    m = transfer_matrices(ps, delta, alpha)
    resid = np.abs(np.conj(np.swapaxes(m, -2, -1)) @ m - target_det * np.eye(2)).max(axis=(-2, -1))
    det = np.linalg.det(m)
    re_det, im_det = det.real, det.imag
    # The eigenvalues are conjugate, so one modulus serves both columns.
    lam = eigenvalue_plus(ps * delta, alpha)
    lam_mod = np.hypot(lam.real, lam.imag)
    unit_max = float(resid.max())
    lam_dev = float(np.abs(lam_mod - target_mod).max())
    det_dev = float(np.hypot(re_det - target_det, im_det).max())

    exp_errors = []
    for d in exp_deltas:
        lam_p = complex(eigenvalue_plus(cfg["expansion_p"] * d, alpha))
        exp_errors.append(abs(lam_p - eigenvalue_leading_order(cfg["expansion_p"], d, alpha)))
    exp_order = fit_convergence_order(exp_deltas, exp_errors)

    checks = {
        "eigen_modulus_constant": lam_dev <= 1e-14,
        "determinant_constant": det_dev <= 1e-14,
        "expansion_order": exp_order >= 3.8,
    }
    # T dagger T = alpha^2/2 I; only alpha = sqrt(2) makes it the identity,
    # so the unitarity gate applies to that branch alone.
    if abs(alpha - SQRT2) < 1e-15:
        checks["unitarity"] = unit_max <= cfg["unitarity_tol"]
    return ScenarioResult(
        tables={
            "spectrum": _table(
                p=ps,
                unitarity_residual=resid,
                abs_lambda_plus=lam_mod,
                abs_lambda_minus=lam_mod,
                re_det=re_det,
                im_det=im_det,
            ),
            "expansion": _table(delta=exp_deltas, residual=exp_errors),
        },
        metrics={
            "unitarity_max_residual": unit_max,
            "eigen_modulus_max_dev": lam_dev,
            "determinant_max_dev": det_dev,
            "expansion_order": exp_order,
        },
        checks=checks,
    )


RUNNERS = {
    "clock-pattern": run_clock_pattern,
    "propagator-compare": run_propagator_compare,
    "double-slit": run_double_slit,
    "lattice-evolve": run_lattice_evolve,
    "continuum-check": run_continuum_check,
    "spectral-check": run_spectral_check,
}


# ---------------------------------------------------------------------------
# output


# Rows per write: bounds the text of one table held in memory at a time.
CHUNK_ROWS = 8192
# Rows per dedupe: each distinct value of a column is formatted once per
# block.  The raster's x comes back only every t-count rows (5001 at the
# benchmark size), so a block of one chunk still formats most cells; one
# block per table raises the peak memory of the largest table by 13 MB.
BLOCK_ROWS = 65536

def _column_text(col: np.ndarray, fmt: str) -> list[str]:
    """The cells of one column as text, chosen once by dtype kind.

    Bools are 1/0 in CSV and true/false in JSON; numbers are their repr,
    which round-trips a float.  JSON has no literal for a non-finite float,
    so there it is its repr in quotes.
    """
    if col.dtype.kind == "b":
        true, false = ("1", "0") if fmt == "csv" else ("true", "false")
        return [true if v else false for v in col.tolist()]
    text = list(map(repr, col.tolist()))
    if fmt == "json" and not np.isfinite(col).all():
        text = [f'"{s}"' if s in ("nan", "inf", "-inf") else s for s in text]
    return text


def _distinct_text(col: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """(text of each distinct value, index of each cell into that text).

    Values are keyed on their bit pattern, not compared as numbers: -0.0
    equals 0.0 but is written differently.
    """
    keys, index = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    return np.array(_column_text(keys.view(col.dtype), fmt), dtype=object), index


def _write_table(path: Path, header: list[str], rows: np.ndarray, fmt: str) -> str:
    """Write one table in chunks of CHUNK_ROWS rows; returns the SHA-256 of its bytes.

    CSV is a header line and one line per row.  JSON is the object
    {"header": [...], "rows": [[...], ...]} with sorted keys and no spaces.
    Each column's distinct values are formatted once per BLOCK_ROWS rows.
    """
    if fmt == "csv":
        start, open_row, close_row, between, end = ",".join(header) + "\n", "", "\n", "", ""
    else:
        start = '{"header":' + json.dumps(header, separators=(",", ":")) + ',"rows":['
        open_row, close_row, between, end = "[", "]", ",", "]}\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(text: str) -> None:
            blob = text.encode("utf-8")
            digest.update(blob)
            fh.write(blob)

        put(start)
        for block_lo in range(0, len(rows), BLOCK_ROWS):
            block = rows[block_lo : block_lo + BLOCK_ROWS]
            columns = [_distinct_text(block[name], fmt) for name in header]
            for lo in range(0, len(block), CHUNK_ROWS):
                cells = zip(*(text[index[lo : lo + CHUNK_ROWS]].tolist() for text, index in columns))
                lines = (close_row + between + open_row).join(map(",".join, cells))
                put((between if block_lo + lo else "") + open_row + lines + close_row)
        put(end)
    return digest.hexdigest()


def _json_safe(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    if isinstance(v, np.ndarray):
        return [_json_safe(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_safe(x) for k, x in v.items()}
    if v is None or isinstance(v, str):
        return v
    return str(v)


def _manifest_digest(files: dict[str, str]) -> str:
    """SHA-256 over the sorted "name:sha256" lines of a run's data files."""
    lines = "\n".join(f"{name}:{digest}" for name, digest in sorted(files.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _read_manifest(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["manifest"]


def _check_replaceable(out: Path) -> None:
    """Refuse an existing directory that is neither empty nor a previous run.

    A previous run is a report.json with a manifest plus only files that
    manifest lists; anything else may be data that a run must not delete.
    """
    names = {entry.name for entry in out.iterdir()} if out.is_dir() else set()
    try:
        previous_run = not names or names <= {"report.json", *_read_manifest(out)["files"]}
    except (OSError, ValueError, KeyError, TypeError):
        previous_run = False
    if not previous_run:
        raise ConfigError(f"{out} is neither empty nor a previous run; not replacing it")


def run_scenario(scenario: str, cfg: dict, out_dir: str, fmt: str, seed: int):
    """Compute a scenario and write its run directory; returns (exit_code, report).

    Validation happens before any filesystem work: a ValueError from the
    runner, which includes those the library dataclasses raise for values
    only they check, becomes a ConfigError, as does an out_dir that may not
    be replaced.  The run is written into a temporary sibling of out_dir
    and renamed into place when complete, so out_dir holds a whole run or
    none; an OSError propagates.  Data files are a pure function of
    (config, seed), while the report carries the wall-clock duration and
    the stage timings and therefore is not expected to be byte-stable.
    """
    start = time.perf_counter()
    out = Path(os.path.abspath(out_dir))
    _check_replaceable(out)
    checked = time.perf_counter()
    try:
        result = RUNNERS[scenario](cfg, seed)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    computed = time.perf_counter()

    ext = "csv" if fmt == "csv" else "json"
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.urandom(4).hex()}.tmp")
    old = tmp.with_name(tmp.name + ".old")
    tmp.mkdir()
    try:
        files = {}
        for name in sorted(result.tables):
            header, rows = result.tables[name]
            files[f"{name}.{ext}"] = _write_table(tmp / f"{name}.{ext}", header, rows, fmt)
        written = time.perf_counter()
        timings = {
            "check_replaceable_s": checked - start,
            "runner_s": computed - checked,
            "write_s": written - computed,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 if resource else None,
        }
        manifest = {
            "tool_version": __version__,
            "scenario": scenario,
            "config": _json_safe(cfg),
            "seed": seed,
            "format": fmt,
            "duration_seconds": written - start,
            "checks": result.checks,
            "files": files,
            "digest": _manifest_digest(files),
        }
        report = {**_json_safe(result.metrics), "checks": result.checks, "timings": timings, "manifest": manifest}
        (tmp / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        if out.is_dir():
            os.rename(out, old)
        try:
            os.rename(tmp, out)  # a file at out fails here (ENOTDIR): an I/O failure
        except OSError:
            if old.exists():
                os.rename(old, out)
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)

    if not all(result.checks.values()):
        failed = [k for k, ok in result.checks.items() if not ok]
        print(f"numerical checks failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK, report
    return EXIT_OK, report


def verify_manifest(out_dir: str) -> bool:
    """Re-hash a run directory against the manifest in its report.json.

    False when a data file differs from its digest, a listed file is
    missing, or the directory holds a file the manifest does not list.
    Raises ConfigError when out_dir is not a run: no directory, or no
    readable report.json with a manifest of files and a digest.
    """
    out = Path(out_dir)
    try:
        manifest = _read_manifest(out)
        files, digest = dict(manifest["files"]), manifest["digest"]
        names = {entry.name for entry in out.iterdir()}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{out} is not a run directory: {exc!r}") from exc
    if names != {"report.json", *files}:
        return False
    for name, sha256 in files.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != sha256:
            return False
    return _manifest_digest(files) == digest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clockwalk",
        description="Clock-particle lattice experiments: pattern, filter, walk, and continuum checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="check a run directory against its manifest; writes nothing")
    verify.add_argument("run_dir")
    for name in SCHEMAS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--out", default=None, help="output directory (default runs/<scenario>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            if verify_manifest(args.run_dir):
                print(f"{args.run_dir} matches its manifest")
                return EXIT_OK
            print(f"{args.run_dir} does not match its manifest", file=sys.stderr)
            return EXIT_CHECK
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        file_entries = _read_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.command, file_entries, args.set)
        out_dir = args.out if args.out else str(Path("runs") / args.command)
        code, _ = run_scenario(args.command, cfg, out_dir, args.format, args.seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())

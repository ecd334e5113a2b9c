"""Benchmark-side checks of one clockwalk run directory.

Every check recomputes what the run claims from first principles, with its
own numpy code, or tests a property the method must have.  Nothing here
imports clockwalk.  The checks read the resolved configuration from the
run's manifest, so they apply to any size of the same scenario; the caller
compares that configuration with what it asked for.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

SQRT2 = math.sqrt(2.0)


def check_run(out_dir: Path, scenario: str, requested: dict[str, str], fmt: str):
    """Check one run directory.

    Returns (errors, manifest digest or None, bytes of the data files the
    manifest lists).  `requested` holds the `--set` values the benchmark
    passed.
    """
    out_dir = Path(out_dir)
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        manifest = report["manifest"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"no readable report.json: {exc}"], None, 0
    nbytes = sum((out_dir / name).stat().st_size for name in manifest.get("files", {}) if (out_dir / name).is_file())
    errors = _check_manifest(out_dir, manifest, scenario, requested, fmt)
    if errors:
        return errors, manifest.get("digest"), nbytes
    tables = {}
    for name in manifest["files"]:
        try:
            tables[name.rsplit(".", 1)[0]] = read_table(out_dir / name, fmt)
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"{name}: unreadable table ({exc})")
    if not errors:
        try:
            CHECKS[scenario](manifest["config"], tables, errors)
        except (KeyError, IndexError, ValueError) as exc:
            errors.append(f"{scenario}: malformed output ({exc!r})")
    return errors, manifest["digest"], nbytes


def _check_manifest(out_dir: Path, manifest: dict, scenario: str, requested: dict[str, str], fmt: str) -> list[str]:
    errors = []
    files = manifest.get("files", {})
    for name, digest in sorted(files.items()):
        try:
            actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        except OSError as exc:
            errors.append(f"{name}: listed in the manifest but unreadable ({exc})")
            continue
        if actual != digest:
            errors.append(f"{name}: SHA-256 {actual} differs from manifest {digest}")
    joined = "\n".join(f"{k}:{v}" for k, v in sorted(files.items())).encode("utf-8")
    if hashlib.sha256(joined).hexdigest() != manifest.get("digest"):
        errors.append("manifest digest does not match its file digests")
    present = {p.name for p in out_dir.iterdir()}
    if present != set(files) | {"report.json"}:
        errors.append(f"directory holds {sorted(present)}, manifest lists {sorted(files)}")
    if manifest.get("scenario") != scenario or manifest.get("format") != fmt:
        errors.append(f"manifest records {manifest.get('scenario')}/{manifest.get('format')}, asked {scenario}/{fmt}")
    config = manifest.get("config", {})
    for key, value in requested.items():
        want = [float(v) for v in value.split(",")]
        got = config.get(key)
        got = [float(v) for v in got] if isinstance(got, list) else [float(got)] if got is not None else None
        if got != want:
            errors.append(f"manifest config {key}={config.get(key)!r}, asked {value}")
    return errors


def read_table(path: Path, fmt: str) -> tuple[list[str], np.ndarray]:
    """Header and an (rows, columns) float array; booleans read as 0/1."""
    if fmt == "csv":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    else:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        header = payload["header"]
        data = np.array(payload["rows"], dtype=float).reshape(len(payload["rows"]), len(header))
    if data.size == 0:
        data = data.reshape(0, len(header))
    return header, data


def _expect(errors: list[str], ok, message: str) -> bool:
    if not bool(ok):
        errors.append(message)
    return bool(ok)


def _table(tables, name, header, rows, errors):
    got_header, data = tables[name]
    if not _expect(errors, got_header == header, f"{name}: header {got_header}, expected {header}"):
        return None
    if not _expect(errors, data.shape[0] == rows, f"{name}: {data.shape[0]} rows, expected {rows}"):
        return None
    return data


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _on_grid(values: np.ndarray, grid: np.ndarray) -> bool:
    """Equal to the grid up to rounding in how the grid is computed."""
    return values.shape == grid.shape and np.allclose(values, grid, rtol=0, atol=1e-9)


def _parity(tau: np.ndarray, half_period: float) -> np.ndarray:
    """(-1)**floor(tau / (T/2)), half-open at the toggle instants."""
    return np.where(np.floor(tau / half_period) % 2 == 1, -1.0, 1.0)


def plane_parity(x: np.ndarray, t: np.ndarray, half_period: float) -> tuple[np.ndarray, np.ndarray]:
    """Straight-line clock parity from the origin to (x, t); 0 on and outside the cone."""
    in_cone = np.abs(x) < t
    tau = np.sqrt(np.where(in_cone, t * t - x * x, 0.0))
    return np.where(in_cone, _parity(tau, half_period), 0.0), in_cone


def double_slit_phi(x: np.ndarray, a: float, t1: float, t2: float, half_period: float):
    """Parity average over the two single-hinge paths via slits at -a and +a.

    Same operations as the standard-library oracle that generates the
    committed double-slit table, applied to a whole grid at once.
    """
    tau_source = math.sqrt(t1 * t1 - a * a)
    parities, reach = [], np.ones(x.shape, dtype=bool)
    for x_slit in (-a, a):
        dx = x - x_slit
        reach &= np.abs(dx) <= t2
        tau_leg = np.sqrt(np.where(np.abs(dx) <= t2, t2 * t2 - dx * dx, 0.0))
        parities.append(_parity(tau_source + tau_leg, half_period))
    phi = np.floor_divide(parities[0] + parities[1], 2)
    return np.where(reach, phi, 0.0), reach


def free_propagator(x: np.ndarray, t: float, mass: float) -> np.ndarray:
    """exp(i m x^2 / 2t) / sqrt(2 pi i t / m), principal branch."""
    return np.exp(1j * (mass * x * x / (2.0 * t) - 0.25 * math.pi)) / math.sqrt(2.0 * math.pi * t / mass)


def four_state_snapshots(n_sites: int, state: int, site: int, steps: list[int]) -> np.ndarray:
    """Unit mass in one state, evolved by the four-state rule; (len(steps), 4, n).

    Per step each state's density moves one site (states 1 and 3 right,
    2 and 4 left), then half of it advances to the next state of the cycle
    1 -> 2 -> 3 -> 4 -> 1.
    """
    p = np.zeros((4, n_sites))
    p[state - 1, site] = 1.0
    shifts = (1, -1, 1, -1)
    wanted, out = set(steps), []
    for step in range(max(steps) + 1):
        if step in wanted:
            out.append(p.copy())
        moved = np.stack([np.roll(p[k], shifts[k]) for k in range(4)])
        p = 0.5 * moved + 0.5 * np.roll(moved, 1, axis=0)
    return np.stack(out)


def binomial_heat_l1(delta: float, s: int, t: float, diffusion: float) -> float:
    """L1 distance between the s-step symmetric walk and the heat kernel.

    The walk's density on the sites it reaches, C(s, s/2 + k) / 2**s per
    cell of width 2 delta at x = 2 k delta, against the kernel sampled there.
    """
    k = np.arange(-(s // 2), s // 2 + 1)
    log_norm = math.lgamma(s + 1) - s * math.log(2.0)
    log_p = np.array([log_norm - math.lgamma(s // 2 + j + 1) - math.lgamma(s - s // 2 - j + 1) for j in k.tolist()])
    density = np.exp(log_p) / (2.0 * delta)
    x = 2.0 * k * delta
    kernel = np.exp(-x * x / (4.0 * diffusion * t)) / math.sqrt(4.0 * math.pi * diffusion * t)
    return float(np.sum(np.abs(density - kernel)) * 2.0 * delta)


def _level_steps(deltas, diffusion: float, t: float, errors: list[str], name: str) -> list[int]:
    steps = []
    for d in deltas:
        s_float = t * 2.0 * diffusion / (d * d)
        s = int(round(s_float))
        _expect(errors, abs(s_float - s) <= 1e-6, f"{name}: t/epsilon = {s_float} not an integer at delta={d}")
        steps.append(s)
    return steps


def _ratios_within(errors, name, values, lo, hi):
    ratios = [a / b for a, b in zip(values, values[1:])]
    _expect(errors, all(lo <= r <= hi for r in ratios), f"{name}: successive ratios {ratios} outside [{lo}, {hi}]")


def check_lattice_evolve(cfg: dict, tables: dict, errors: list[str]) -> None:
    _expect(errors, cfg["init"] == "unit_state" and cfg["alpha"] == 1.0, "checks cover the unit-state bare walk only")
    n_steps, every, delta, diffusion = cfg["n_steps"], cfg["snapshot_every"], cfg["delta"], cfg["diffusion"]
    n = cfg["site_count"] if cfg["site_count"] > 0 else 2 * n_steps + 64
    site = cfg["initial_site"] if cfg["initial_site"] >= 0 else n // 2
    steps = sorted(set(range(0, n_steps + 1, every)) | {n_steps})
    rows = len(steps) * n
    p = _table(tables, "snapshots_p", ["step", "m", "x", "p1", "p2", "p3", "p4"], rows, errors)
    zp = _table(tables, "snapshots_zphi", ["step", "m", "x", "z1", "z2", "phi1", "phi2"], rows, errors)
    if p is None or zp is None:
        return
    step_col = np.repeat(np.array(steps, dtype=float), n)
    site_col = np.tile(np.arange(n, dtype=float), len(steps))
    for name, data in (("snapshots_p", p), ("snapshots_zphi", zp)):
        _expect(errors, np.array_equal(data[:, 0], step_col) and np.array_equal(data[:, 1], site_col),
                f"{name}: step/site columns are not the snapshot grid")
        _expect(errors, np.allclose(data[:, 2], site_col * delta, rtol=0, atol=1e-12), f"{name}: x != m * delta")
    P = p[:, 3:7].reshape(len(steps), n, 4).transpose(0, 2, 1)
    Z = zp[:, 3:7].reshape(len(steps), n, 4).transpose(0, 2, 1)
    mass_dev = np.abs(P.sum(axis=(1, 2)) - 1.0).max()
    _expect(errors, mass_dev <= 1e-12, f"snapshots_p: p1..p4 sum deviates from 1 by {mass_dev:.3e}")
    half_sum = 0.5 * (P[:, [0, 1]] + P[:, [2, 3]])
    half_diff = 0.5 * (P[:, [0, 1]] - P[:, [2, 3]])
    zdev = max(np.abs(Z[:, :2] - half_sum).max(), np.abs(Z[:, 2:] - half_diff).max())
    _expect(errors, zdev <= 1e-12, f"snapshots_zphi: z/phi differ from half-sums/differences of p by {zdev:.3e}")
    ref = four_state_snapshots(n, cfg["initial_state"], site, steps)
    ref_dev = np.abs(P - ref).max()
    _expect(errors, ref_dev <= 1e-12, f"snapshots_p: differs from the four-state rule by {ref_dev:.3e}")

    x = np.arange(n) * delta
    t, var = [], []
    for k, step in enumerate(steps):
        if step == 0:
            continue
        u = P[k].sum(axis=0)
        mean = (u * x).sum() / u.sum()
        t.append(step * delta * delta / (2.0 * diffusion))
        var.append((u * (x - mean) ** 2).sum() / u.sum())
    if len(t) >= 2:
        slope = float(np.polyfit(t, var, 1)[0])
        rel = abs(slope - 2.0 * diffusion) / (2.0 * diffusion)
        _expect(errors, rel <= 0.02, f"variance slope {slope} is {rel:.2%} from 2D = {2 * diffusion}")

    if cfg["mc_paths"] > 0:
        header = ["m", "x", "z1_hat", "z2_hat", "phi1_hat", "phi2_hat", "z1_stderr", "z2_stderr", "phi1_stderr", "phi2_stderr"]
        mc = _table(tables, "mc_overlay", header, n, errors)
        if mc is None:
            return
        # Every path deposits 1/2 in z and +/-1/2 in phi of one bucket.
        z_total = mc[:, 2:4].sum()
        _expect(errors, abs(z_total - 0.5) <= 1e-12, f"mc_overlay: z_hat sums to {z_total}, not 1/2")
        _expect(errors, np.all(np.abs(mc[:, 4:6]) <= mc[:, 2:4] + 1e-15), "mc_overlay: |phi_hat| exceeds z_hat")
        _expect(errors, np.all(mc[:, 6:] >= 0), "mc_overlay: negative standard error")


def check_continuum(cfg: dict, tables: dict, errors: list[str]) -> None:
    diffusion = cfg["diffusion"]
    header = ["delta", "s", "rotation_angle_error", "matrix_error", "kernel_raw_rel", "kernel_even_rel", "odd_fraction", "p0_residual"]
    levels = _table(tables, "levels", header, len(cfg["deltas"]), errors)
    diff = _table(tables, "diffusion", ["delta", "s", "l1_rel"], len(cfg["diffusion_deltas"]), errors)
    if levels is None or diff is None:
        return
    for name, data, deltas, t in (("levels", levels, cfg["deltas"], cfg["t"]),
                                  ("diffusion", diff, cfg["diffusion_deltas"], cfg["diffusion_t"])):
        steps = _level_steps(deltas, diffusion, t, errors, name)
        _expect(errors, data[:, 0].tolist() == list(deltas) and data[:, 1].tolist() == steps,
                f"{name}: (delta, s) rows {data[:, :2].tolist()}, expected s = t/epsilon {steps}")
    _ratios_within(errors, "rotation_angle_error", levels[:, 2].tolist(), 3.5, 4.5)
    _ratios_within(errors, "kernel_even_rel", levels[:, 5].tolist(), 3.5, 4.5)
    _ratios_within(errors, "kernel_raw_rel", levels[:, 4].tolist(), 1.8, 2.2)
    _expect(errors, np.all(levels[:, 7] <= 1e-14), f"p0_residual {levels[:, 7].tolist()} above 1e-14")
    for delta, s, l1 in diff.tolist():
        exact = binomial_heat_l1(delta, int(s), cfg["diffusion_t"], diffusion)
        _expect(errors, abs(l1 - exact) <= 1e-6 * exact,
                f"diffusion: l1_rel {l1} at delta={delta}, exact binomial gives {exact}")


def check_clock_pattern(cfg: dict, tables: dict, errors: list[str]) -> None:
    half = 0.5 * cfg["compton_period"]
    xs = _grid(cfg["x_min"], cfg["x_max"], cfg["x_step"])
    ts = _grid(cfg["raster_t_min"], cfg["raster_t_max"], cfg["raster_t_step"])
    header = ["x", "t", "parity", "in_cone"]
    for name, t_col in (("slice", np.full(xs.size, cfg["t"])), ("raster", np.repeat(ts, xs.size))):
        data = _table(tables, name, header, t_col.size, errors)
        if data is None:
            continue
        x_col = np.tile(xs, t_col.size // xs.size)
        _expect(errors, _on_grid(data[:, 0], x_col) and _on_grid(data[:, 1], t_col),
                f"{name}: (x, t) columns are not the configured grid")
        parity, in_cone = plane_parity(data[:, 0], data[:, 1], half)
        bad = np.count_nonzero((data[:, 2] != parity) | (data[:, 3] != in_cone))
        _expect(errors, bad == 0, f"{name}: {bad} samples differ from (-1)^floor(sqrt(t^2 - x^2) / (T/2))")


def check_double_slit(cfg: dict, tables: dict, errors: list[str]) -> None:
    xs = _grid(cfg["x_min"], cfg["x_max"], cfg["x_step"])
    header = ["x", "phi", "phi_sq", "classical_control", "feynman_intensity", "in_cone"]
    data = _table(tables, "slit", header, xs.size, errors)
    if data is None:
        return
    _expect(errors, _on_grid(data[:, 0], xs), "slit: x column is not the configured grid")
    x = data[:, 0]
    a, t2 = cfg["half_separation"], cfg["slit_to_screen_time"]
    phi, reach = double_slit_phi(x, a, cfg["source_to_slit_time"], t2, 0.5 * cfg["compton_period"])
    bad = np.count_nonzero((data[:, 1] != phi) | (data[:, 5] != reach))
    _expect(errors, bad == 0, f"slit: {bad} phi samples differ from the two-hinged-leg parities")
    _expect(errors, np.array_equal(data[:, 2], data[:, 1] ** 2), "slit: phi_sq != phi^2")
    _expect(errors, np.array_equal(data[:, 3], reach.astype(float)), "slit: classical control is not 1 on the reachable mask")
    mass = 2.0 * math.pi / cfg["compton_period"]
    intensity = np.abs(free_propagator(x - a, t2, mass) + free_propagator(x + a, t2, mass)) ** 2
    _expect(errors, np.allclose(data[:, 4], intensity, rtol=1e-9, atol=1e-15), "slit: feynman_intensity differs from |K(x-a) + K(x+a)|^2")
    v = data[:, 4]
    nodes = x[1:-1][(v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])]
    expected = math.pi * t2 / (mass * a)
    if _expect(errors, nodes.size >= 2, f"slit: {nodes.size} intensity nodes"):
        dev = float(np.abs(np.diff(nodes) - expected).max() / expected)
        _expect(errors, dev <= cfg["node_tolerance"], f"slit: node spacing deviates {dev:.3e} from pi t2 / (m a) = {expected}")


def check_propagator_compare(cfg: dict, tables: dict, errors: list[str]) -> None:
    xs = _grid(-cfg["x_window"], cfg["x_window"], cfg["x_step"])
    data = _table(tables, "compare", ["x", "clock_parity", "re_feynman", "sign_re_feynman"], xs.size, errors)
    if data is None:
        return
    _expect(errors, _on_grid(data[:, 0], xs), "compare: x column is not the configured grid")
    x = data[:, 0]
    t, mass = cfg["t"], 2.0 * math.pi / cfg["compton_period"]
    parity, _ = plane_parity(x, np.full(x.size, t), 0.5 * cfg["compton_period"])
    _expect(errors, np.array_equal(data[:, 1], parity), "compare: clock_parity differs from the straight-line parity")
    re_k = np.cos(mass * x * x / (2.0 * t) - 0.25 * math.pi) / math.sqrt(2.0 * math.pi * t / mass)
    dev = float(np.abs(data[:, 2] - re_k).max())
    _expect(errors, dev <= 1e-12, f"compare: re_feynman deviates {dev:.3e} from cos(m x^2/2t - pi/4)/sqrt(2 pi t/m)")
    _expect(errors, np.array_equal(data[:, 3], np.sign(data[:, 2])), "compare: sign column != sign(re_feynman)")
    sa, sb = np.sign(data[:, 1]), np.sign(data[:, 2])
    agree = max(np.mean(sa == sb), np.mean(sa == -sb))
    _expect(errors, agree >= 0.95, f"compare: sign agreement {agree:.4f} below 0.95")


def check_spectral(cfg: dict, tables: dict, errors: list[str]) -> None:
    n, delta = cfg["site_count"], cfg["delta"]
    alpha = float(cfg["alpha"])
    header = ["p", "unitarity_residual", "abs_lambda_plus", "abs_lambda_minus", "re_det", "im_det"]
    data = _table(tables, "spectrum", header, n, errors)
    expansion = _table(tables, "expansion", ["delta", "residual"], len(cfg["expansion_deltas"]), errors)
    if data is None or expansion is None:
        return
    p = 2.0 * math.pi * np.arange(-(n // 2), n // 2) / (n * delta)
    _expect(errors, _on_grid(data[:, 0], p), "spectrum: p column is not the momentum grid")
    lam_dev = float(np.abs(data[:, 2:4] - alpha / SQRT2).max())
    _expect(errors, lam_dev <= 1e-14, f"spectrum: |lambda| deviates {lam_dev:.3e} from alpha/sqrt(2)")
    det_dev = float(np.abs(data[:, 4] + 1j * data[:, 5] - 0.5 * alpha * alpha).max())
    _expect(errors, det_dev <= 1e-14, f"spectrum: det T deviates {det_dev:.3e} from alpha^2/2")
    unitarity = float(data[:, 1].max())
    _expect(errors, unitarity <= 1e-14, f"spectrum: unitarity residual {unitarity:.3e} above 1e-14")


CHECKS = {
    "lattice-evolve": check_lattice_evolve,
    "continuum-check": check_continuum,
    "clock-pattern": check_clock_pattern,
    "double-slit": check_double_slit,
    "propagator-compare": check_propagator_compare,
    "spectral-check": check_spectral,
}

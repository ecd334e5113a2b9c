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
import atexit
import gc
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .rundir import ConfigError, ScenarioResult, check, check_replaceable, table, verify_manifest, write_run

# At interpreter exit, move every tracked object to the permanent
# generation, so the final collections skip the import heap of numpy and
# the package (about 22 000 objects) and the OS reclaims it instead.  atexit
# handlers run before those collections; in-process callers keep normal GC
# until then.  Shutdown of the six benchmark invocations went 11.3-13.1 ms
# -> 3.9-4.9 ms (median of 11, 2-CPU AMD EPYC, Python 3.11.7).
atexit.register(gc.freeze)

__all__ = [
    "main",
    "run_scenario",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_CHECK",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# config plumbing


def _constrained(parse, rule: str, ok):
    """A parser that also requires ok(value); rule names the constraint."""

    def parse_constrained(s: str):
        value = parse(s)
        if not ok(value):
            raise ValueError(f"must be {rule}")
        return value

    return parse_constrained


_finite = _constrained(float, "finite", math.isfinite)
_positive = _constrained(float, "positive and finite", lambda v: 0.0 < v < math.inf)
_non_negative = _constrained(float, "non-negative and finite", lambda v: 0.0 <= v < math.inf)
_even_count = _constrained(int, "even and >= 2", lambda v: v >= 2 and v % 2 == 0)


def _int_at_least(k: int):
    return _constrained(int, f">= {k}", lambda v: v >= k)


def _parse_choice(*choices: str):
    return _constrained(str, f"one of {', '.join(choices)}", choices.__contains__)


def _parse_alpha(s: str) -> float:
    from .lattice_walk import SQRT2

    return SQRT2 if s.strip().lower() == "sqrt2" else _positive(s)


def _positive_list(min_len: int):
    """Comma-separated distinct positive numbers, at least min_len."""

    def parse(s: str) -> tuple[float, ...]:
        vals = tuple(_positive(tok) for tok in s.split(",") if tok.strip())
        if len(vals) < min_len:
            raise ValueError(f"must list at least {min_len} values")
        if len(set(vals)) < len(vals):
            raise ValueError("values must be distinct")
        return vals

    return parse


# Per-scenario configuration schema, key -> (parser, default as string),
# and runner, both declared once per scenario by @scenario at its runner.
# Each parser also enforces its key's own constraint, so an invalid value
# exits 2 before any compute; rules that tie keys together, and the halving
# of a level study's deltas, are left to the runner or the library, which
# raise before anything is written.  All defaults are illustrative desk-scale
# choices, echoed into the manifest; none of them is ground truth.
SCHEMAS: dict[str, dict[str, tuple]] = {}
RUNNERS: dict = {}


def scenario(name: str, **schema: tuple):
    """Register the decorated runner and its config schema under name."""

    def register(runner):
        SCHEMAS[name], RUNNERS[name] = schema, runner
        return runner

    return register


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
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid value for {key!r}: {raw[key]!r} ({exc})") from exc
    return cfg


def _decimal(x: float) -> tuple[int, int]:
    """(c, e) with c * 10**e the shortest decimal of x, the one its repr writes."""
    mantissa, _, exponent = repr(x).partition("e")
    whole, _, fraction = mantissa.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


def _decimal_grid(start: float, step: float, n: int) -> np.ndarray:
    """The n samples start + k * step, each the double nearest its decimal value.

    start and step are read as their shortest decimals, so sample k is the
    rational (a + k h) / d with integers a, h and d = 10**j.  Numerators under
    2**53 and a d of at most 10**22 are exact doubles, and one IEEE division
    rounds their quotient correctly; past that, Python's int true division
    does, with the same bits.
    """
    (a, ea), (h, eh) = _decimal(start), _decimal(step)
    e = min(ea, eh, 0)
    a, h, d = a * 10 ** (ea - e), h * 10 ** (eh - e), 10**-e
    if max(abs(a), h, abs(a + (n - 1) * h)) < 2**53 and d <= 10**22:
        return (a + h * np.arange(n, dtype=np.int64)).astype(float) / float(d)
    out = np.empty(n)
    try:
        for k in range(n):
            out[k] = (a + k * h) / d
    except OverflowError as exc:
        raise ConfigError(f"grid sample {k} of start {start} and step {step} is not a finite float") from exc
    return out


def _grid(x_min: float, x_max: float, step: float) -> np.ndarray:
    """x_min, x_min + step, ... to x_max rounded to whole steps (the schema makes step > 0)."""
    span = (x_max - x_min) / step
    if not (x_max > x_min and 0.5 < span < math.inf):
        raise ConfigError(f"grid [{x_min}, {x_max}] in steps of {step} needs x_max > x_min and finitely many points")
    return _decimal_grid(x_min, step, int(round(span)) + 1)


# ---------------------------------------------------------------------------
# scenario runners; each imports the library names it uses in its own body,
# so that an invocation loads (and compiles) only its scenario's modules.


@scenario(
    "clock-pattern",
    t=(_positive, "20.0"),
    compton_period=(_positive, "4.0"),
    x_min=(_finite, "-25.0"),
    x_max=(_finite, "25.0"),
    x_step=(_positive, "0.05"),
    raster_t_min=(_positive, "0.5"),
    raster_t_max=(_finite, "25.0"),
    raster_t_step=(_positive, "0.5"),
)
def run_clock_pattern(cfg: dict, seed: int) -> ScenarioResult:
    from .clock_signal import UnitsConfig, _parity_mismatches, parity_crossings, plane_pattern

    units = UnitsConfig(cfg["compton_period"])
    xs = _grid(cfg["x_min"], cfg["x_max"], cfg["x_step"])
    ts = _grid(cfg["raster_t_min"], cfg["raster_t_max"], cfg["raster_t_step"])

    slice_pattern = plane_pattern(cfg["t"], xs, units)
    raster = plane_pattern(ts[:, None], xs, units)
    out_of_cone = sum(np.count_nonzero(pat.value[~pat.in_cone]) for pat in (slice_pattern, raster))

    return ScenarioResult(
        tables={
            "slice": table(x=xs, t=cfg["t"], parity=slice_pattern.value, in_cone=slice_pattern.in_cone),
            "raster": table(x=xs, t=ts[:, None], parity=raster.value, in_cone=raster.in_cone),
        },
        metrics={"predicted_crossings": parity_crossings(cfg["t"], units).tolist()},
        checks={
            "out_of_cone_zero": check(out_of_cone, "<=", 0),
            "crossings_bracketed": check(_parity_mismatches(cfg["t"], units, slice_pattern), "<=", 0),
        },
    )


@scenario(
    "propagator-compare",
    t=(_positive, "20.0"),
    compton_period=(_positive, "4.0"),
    x_window=(_positive, "4.0"),
    x_step=(_positive, "0.01"),
)
def run_propagator_compare(cfg: dict, seed: int) -> ScenarioResult:
    from .clock_signal import UnitsConfig, plane_pattern
    from .reference_solutions import SampledSignal, compare, feynman_free

    units = UnitsConfig(cfg["compton_period"])
    xs = _grid(-cfg["x_window"], cfg["x_window"], cfg["x_step"])

    pattern = plane_pattern(cfg["t"], xs, units).value.astype(float)
    re_k = np.real(feynman_free(xs, cfg["t"], units.mass))
    rep = compare(SampledSignal(xs, pattern), SampledSignal(xs, re_k))
    return ScenarioResult(
        tables={"compare": table(x=xs, clock_parity=pattern, re_feynman=re_k, sign_re_feynman=np.sign(re_k))},
        metrics={
            "n_spacing_pairs": rep.n_spacing_pairs,
            "n_crossings_pattern": int(rep.zero_crossings_a.size),
            "n_crossings_re_feynman": int(rep.zero_crossings_b.size),
        },
        checks={
            "sign_agreement": check(rep.sign_agreement_fraction, ">=", 0.95),
            # None, and so passed, with fewer than two crossings on either side
            "crossing_spacing": check(rep.crossing_spacing_error, "<=", 0.10),
        },
    )


@scenario(
    "double-slit",
    half_separation=(_positive, "4.0"),
    source_to_slit_time=(_positive, "8.0"),
    slit_to_screen_time=(_positive, "40.0"),
    compton_period=(_positive, "4.0"),
    x_min=(_finite, "-30.0"),
    x_max=(_finite, "30.0"),
    x_step=(_positive, "0.05"),
    node_tolerance=(_non_negative, "0.01"),  # a key because perfbench/checks.py reads it from the manifest
)
def run_double_slit(cfg: dict, seed: int) -> ScenarioResult:
    from .clock_signal import SlitGeometry, UnitsConfig, double_slit_phi, gap_intervals
    from .reference_solutions import node_spacing_deviation, two_source_superposition

    units = UnitsConfig(cfg["compton_period"])
    xs = _grid(cfg["x_min"], cfg["x_max"], cfg["x_step"])
    a, t2 = cfg["half_separation"], cfg["slit_to_screen_time"]
    phi = double_slit_phi(SlitGeometry(a, cfg["source_to_slit_time"], t2), xs, units)
    phi_sq = phi.value * phi.value
    # Classical control: average the squared signals instead of squaring
    # the averaged signal; each squared parity is 1, so the control is 1
    # on the doubly-reachable mask and produces no gaps.
    control = phi.in_cone.astype(int)
    _, fey = two_source_superposition(xs, t2, a, units.mass)
    gaps = gap_intervals(phi)
    expected_spacing = math.pi * t2 / (units.mass * a)
    nodes, node_dev = node_spacing_deviation(xs, fey, expected_spacing)

    return ScenarioResult(
        tables={
            "slit": table(
                x=xs,
                phi=phi.value,
                phi_sq=phi_sq,
                classical_control=control,
                feynman_intensity=fey,
                in_cone=phi.in_cone,
            )
        },
        metrics={
            "gap_intervals": [list(gap) for gap in gaps],
            "node_positions": nodes.tolist(),
            "expected_node_spacing": expected_spacing,
        },
        checks={
            "phi_squared_binary": check(np.count_nonzero((phi_sq != 0) & (phi_sq != 1)), "<=", 0),
            "classical_control_gap_free": check(np.count_nonzero(control[phi.in_cone] != 1), "<=", 0),
            "node_spacing": check(node_dev, "<=", cfg["node_tolerance"]),
        },
    )


@scenario(
    "lattice-evolve",
    delta=(_positive, "0.1"),
    diffusion=(_positive, "0.5"),
    alpha=(_parse_alpha, "1.0"),
    n_steps=(_int_at_least(1), "64"),
    snapshot_every=(_int_at_least(1), "8"),
    site_count=(_int_at_least(0), "0"),  # 0: chain_sites(n_steps)
    init=(_parse_choice("unit_state", "phi_point", "z_point"), "unit_state"),
    initial_state=(_constrained(int, "1, 2, 3 or 4", lambda v: 1 <= v <= 4), "1"),
    initial_site=(int, "-1"),
    mc_paths=(_int_at_least(0), "0"),  # 0: no Monte Carlo overlay
)
def run_lattice_evolve(cfg: dict, seed: int) -> ScenarioResult:
    from .lattice_walk import band_deviations, chain_sites, compose, evolve_snapshots, field_variance
    from .lattice_walk import monte_carlo_estimate, point_source_phi, point_source_z, unit_state_field

    delta, D, alpha = cfg["delta"], cfg["diffusion"], cfg["alpha"]
    n_steps, every = cfg["n_steps"], cfg["snapshot_every"]
    n = cfg["site_count"] or chain_sites(n_steps)
    if n <= 2 * n_steps:
        raise ConfigError(f"site_count {n} cannot hold {n_steps} steps without wraparound")
    epsilon = delta * delta / (2.0 * D)  # the time step, from delta^2 = 2 D epsilon
    if not 0.0 < epsilon < math.inf:
        raise ConfigError(f"epsilon = delta^2 / (2 diffusion) must be positive and finite, got {epsilon}")
    site = n // 2 if cfg["initial_site"] == -1 else cfg["initial_site"]
    if not 0 <= site < n:
        raise ConfigError(f"initial_site {site} outside the {n}-site chain (-1 means the centre)")
    if cfg["mc_paths"] > 0 and cfg["init"] != "unit_state":
        raise ConfigError("the Monte Carlo overlay requires init=unit_state")
    if not -1022 <= n_steps * math.log2(alpha) < 1024:  # phi and the overlay are scaled by alpha**s
        raise ConfigError(f"alpha**n_steps is not a normal float (alpha {alpha}, n_steps {n_steps})")
    # phi * alpha**s is as precise as the bare walk's phi.  From a unit state
    # the walk is exact through 58 steps; later phi, a difference of far
    # larger densities, is mostly rounding, which alpha**s would amplify.
    # From the phi point source the cone-edge cells turn subnormal after
    # 1022 steps.  The z point source has phi = 0 throughout.
    max_steps = {"unit_state": 58, "phi_point": 1022}.get(cfg["init"], n_steps)
    if alpha != 1.0 and n_steps > max_steps:
        raise ConfigError(f"alpha != 1 with init={cfg['init']} allows at most {max_steps} steps, got {n_steps}")

    if cfg["init"] == "unit_state":
        p = unit_state_field(n, cfg["initial_state"], site)
    elif cfg["init"] == "phi_point":
        p = compose(np.zeros((2, n)), point_source_phi(n, site))
    else:
        p = compose(point_source_z(n, site), np.zeros((2, n)))

    snap_steps = sorted(set(range(0, n_steps + 1, every)) | {n_steps})
    snaps = evolve_snapshots(p, alpha, snap_steps)

    mass_initial, mass_final = float(snaps[0, :4].sum()), float(snaps[-1, :4].sum())
    drift = abs(mass_final - mass_initial)
    conservation_tol = 1e-12 * max(1.0, n_steps / 1e4) * max(abs(mass_initial), 1.0)
    checks = {"conservation": check(drift, "<=", conservation_tol)}
    metrics: dict = {
        "site_count": n,
        "epsilon": epsilon,
        "mass_initial": mass_initial,
        "mass_final": mass_final,
    }
    # After its first step the z sum is a simple symmetric walk: its variance
    # in sites is exactly s - 1 from a unit state (whose first step is
    # ballistic) and s from the z point source.  The start is first rolled to
    # the centre of the chain, where the cone cannot cross the periodic seam.
    if cfg["init"] != "phi_point":  # phi_point has no z mass
        u = np.roll(snaps[:, 4] + snaps[:, 5], n // 2 - site, axis=1)
        var = np.array([field_variance(w, 1.0) for w in u])
        s = np.array(snap_steps)
        law = s if cfg["init"] == "z_point" else np.maximum(s - 1, 0)
        checks["variance_law"] = check(np.max(np.abs(var - law) / np.maximum(law, 1)), "<=", 1e-12)

    # One row per (snapshot, site), snapshots in step order.
    sites = np.arange(n)
    xs = _decimal_grid(0.0, delta, n)
    key = {"step": np.array(snap_steps)[:, None], "m": sites, "x": xs}
    p1, p2, p3, p4, z1, z2, phi1, phi2 = snaps.transpose(1, 0, 2)
    tables = {
        "snapshots_p": table(**key, p1=p1, p2=p2, p3=p3, p4=p4),
        "snapshots_zphi": table(**key, z1=z1, z2=z2, phi1=phi1, phi2=phi2),
    }

    if cfg["mc_paths"] > 0:
        est = monte_carlo_estimate(n, alpha, n_steps, cfg["mc_paths"], seed, cfg["initial_state"], site)
        z_dev, phi_dev = band_deviations(est, snaps[-1, :4], alpha)
        checks["mc_within_4se"] = check(np.maximum(z_dev.max(), phi_dev.max()), "<=", 1.0)
        metrics["mc_max_z_dev_4se"] = float(z_dev.max())
        metrics["mc_max_phi_dev_4se"] = float(phi_dev.max())
        tables["mc_overlay"] = table(
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


@scenario(
    "continuum-check",
    deltas=(_positive_list(3), "0.2,0.1,0.05,0.025"),
    diffusion=(_positive, "0.5"),
    t=(_positive, "2.56"),
    diffusion_deltas=(_positive_list(3), "0.05,0.025,0.0125"),
    diffusion_t=(_positive, "1.0"),
)
def run_continuum_check(cfg: dict, seed: int) -> ScenarioResult:
    from .spectral_limit import diffusion_levels, engine_step_loop_deviation, schrodinger_levels

    D = cfg["diffusion"]
    study = schrodinger_levels(cfg["deltas"], D, cfg["t"])
    diff = diffusion_levels(cfg["diffusion_deltas"], D, cfg["diffusion_t"])
    levels = study["levels"]
    # The step loop reruns the coarsest level of each study as the oracle.
    engine_dev = max(
        engine_step_loop_deviation(levels[0]["s"], "phi"),
        engine_step_loop_deviation(diff["steps"][0], "z"),
    )
    raw = [lv["kernel_raw_rel"] for lv in levels]
    checks = {
        "rotation_order": check(study["rotation_order"], ">=", 1.8),
        "kernel_order": check(study["kernel_even_order"], ">=", 1.8),
        # the successive levels whose error does not fall
        "kernel_raw_monotone": check(sum(not a > b for a, b in zip(raw, raw[1:])), "<=", 0),
        "diffusion_l1": check(diff["l1_rel"][0], "<=", 0.02),
        "diffusion_monotone": check(sum(not a > b for a, b in zip(diff["l1_rel"], diff["l1_rel"][1:])), "<=", 0),
        "p0_identity": check(np.max([lv["p0_residual"] for lv in levels]), "<=", 1e-14),
        "engine_matches_step_loop": check(engine_dev, "<=", 1e-12),
    }
    return ScenarioResult(
        tables={
            # One row per level; the columns are the keys of schrodinger_level's dict.
            "levels": table(**{key: [lv[key] for lv in levels] for key in levels[0]}),
            "diffusion": table(delta=diff["deltas"], s=diff["steps"], l1_rel=diff["l1_rel"]),
        },
        metrics={"matrix_order": study["matrix_order"], "kernel_raw_order": study["kernel_raw_order"]},
        checks=checks,
    )


@scenario(
    "spectral-check",
    delta=(_positive, "0.1"),
    site_count=(_even_count, "1024"),
    alpha=(_parse_alpha, "sqrt2"),
    expansion_deltas=(_positive_list(2), "0.2,0.1,0.05"),
)
def run_spectral_check(cfg: dict, seed: int) -> ScenarioResult:
    from .lattice_walk import SQRT2
    from .reference_solutions import fit_convergence_order
    from .spectral_limit import expansion_residuals, momentum_grid, transfer_diagnostics

    delta, alpha = cfg["delta"], cfg["alpha"]
    exp_deltas = cfg["expansion_deltas"]
    ps = momentum_grid(cfg["site_count"], delta)

    resid, lam_mod, det = transfer_diagnostics(ps, delta, alpha)
    unit_max = float(resid.max())
    lam_dev = float(np.abs(lam_mod - alpha / SQRT2).max())
    det_dev = float(np.hypot(det.real - 0.5 * alpha * alpha, det.imag).max())

    exp_errors = expansion_residuals(1.0, exp_deltas, alpha)  # at momentum p = 1
    exp_order = fit_convergence_order(exp_deltas, exp_errors)

    checks = {
        "eigen_modulus_constant": check(lam_dev, "<=", 1e-14),
        "determinant_constant": check(det_dev, "<=", 1e-14),
        "expansion_order": check(exp_order, ">=", 3.8),
    }
    # T dagger T = alpha^2/2 I; only alpha = sqrt(2) makes it the identity,
    # so the unitarity gate applies to that branch alone.
    if abs(alpha - SQRT2) < 1e-15:
        checks["unitarity"] = check(unit_max, "<=", 1e-14)
    return ScenarioResult(
        tables={
            "spectrum": table(
                p=ps,
                unitarity_residual=resid,
                abs_lambda_plus=lam_mod,
                abs_lambda_minus=lam_mod,
                re_det=det.real,
                im_det=det.imag,
            ),
            "expansion": table(delta=exp_deltas, residual=exp_errors),
        },
        metrics={"unitarity_max_residual": unit_max},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# run directory and command line


def run_scenario(scenario: str, cfg: dict, out_dir: str, fmt: str, seed: int):
    """Compute a scenario and write its run directory; returns the exit code.

    Validation happens before any filesystem work: a ValueError from the
    runner (including those the library dataclasses raise for values only
    they check) or a floating-point overflow, invalid operation or division
    by zero in it becomes a ConfigError, as does an out_dir that may not be
    replaced.  write_run lands the run whole or not at all; an OSError propagates.
    """
    start = time.perf_counter()
    out = Path(os.path.abspath(out_dir))
    check_replaceable(out)
    checked = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            result = RUNNERS[scenario](cfg, seed)
    except (ValueError, FloatingPointError) as exc:
        raise ConfigError(str(exc)) from exc
    computed = time.perf_counter()

    write_run(
        out,
        result,
        fmt,
        timings={"check_replaceable_s": checked - start, "runner_s": computed - checked},
        manifest={"tool_version": __version__, "scenario": scenario, "config": cfg, "seed": seed, "format": fmt},
    )

    failed = [name for name, record in result.checks.items() if not record["passed"]]
    if failed:
        print(f"numerical checks failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


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
        if not 0 <= args.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {args.seed}")
        file_entries = _read_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.command, file_entries, args.set)
        out_dir = args.out if args.out else str(Path("runs") / args.command)
        return run_scenario(args.command, cfg, out_dir, args.format, args.seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clockwalk import experiments_cli, lattice_walk, rundir, spectral_limit
from clockwalk.clock_signal import Pattern, plane_pattern
from clockwalk.experiments_cli import EXIT_CHECK, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from clockwalk.kinematics import UnitsConfig
from clockwalk.rundir import verify_manifest

# Trimmed level sequences keep the full pipeline honest but quick: the
# same halving structure as the defaults, one level shorter, and a
# diffusion horizon whose step counts stay stroboscopic.
FAST_CONTINUUM = [
    "--set", "deltas=0.2,0.1,0.05",
    "--set", "diffusion_deltas=0.1,0.05,0.025",
    "--set", "diffusion_t=0.64",
]


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def console_script_entry(name):
    """The ``module:attr`` target of ``name`` in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def write_launcher(path, entry):
    """Write the executable launcher pip generates for a console-script entry."""
    module, attr = entry.split(":")
    path.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    path.chmod(0o755)
    return path


def source_env():
    """The environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run(scenario, out, *extra):
    return main([scenario, "--out", str(out), *extra])


def report(out):
    return json.loads((Path(out) / "report.json").read_text())


class TestScenarioRuns:
    def test_clock_pattern(self, tmp_path):
        out = tmp_path / "clock"
        assert run("clock-pattern", out) == EXIT_OK
        assert (out / "slice.csv").exists() and (out / "raster.csv").exists()
        rep = report(out)
        assert rep["checks"]["out_of_cone_zero"]["passed"] and rep["checks"]["crossings_bracketed"]["passed"]
        assert verify_manifest(out)

    def test_propagator_compare(self, tmp_path):
        out = tmp_path / "prop"
        assert run("propagator-compare", out) == EXIT_OK
        checks = report(out)["checks"]
        assert checks["sign_agreement"]["passed"] and checks["sign_agreement"]["value"] >= 0.95
        # the window holds no smooth-side crossings; the spacing record says
        # so with a null value rather than a made-up number
        assert checks["crossing_spacing"] == {"passed": True, "value": None, "threshold": 0.10, "rule": "<="}
        assert verify_manifest(out)

    def test_double_slit(self, tmp_path):
        out = tmp_path / "slit"
        assert run("double-slit", out) == EXIT_OK
        rep = report(out)
        assert rep["checks"]["phi_squared_binary"]["passed"]
        assert rep["checks"]["classical_control_gap_free"]["passed"]
        assert rep["checks"]["node_spacing"]["passed"]
        assert len(rep["gap_intervals"]) > 0
        assert verify_manifest(out)

    def test_lattice_evolve_with_mc(self, tmp_path):
        out = tmp_path / "lat"
        assert run(
            "lattice-evolve", out, "--set", "n_steps=16", "--set", "mc_paths=2000", "--seed", "5"
        ) == EXIT_OK
        rep = report(out)
        assert rep["checks"]["conservation"]["passed"]
        assert rep["checks"]["variance_law"]["passed"]
        assert rep["checks"]["mc_within_4se"]["passed"]
        assert (out / "mc_overlay.csv").exists()
        assert verify_manifest(out)

    @pytest.mark.parametrize(
        "args",
        [
            ["--set", "initial_site=0"],
            ["--set", "initial_site=10"],
            ["--set", "initial_site=191"],
            ["--set", "n_steps=512", "--set", "initial_site=0"],
            ["--set", "n_steps=512", "--set", "initial_site=1087"],
        ],
    )
    def test_variance_fit_near_the_seam(self, tmp_path, args):
        # A cone that crosses the periodic seam is measured as if it were
        # centred on the chain, and meets the exact law s - 1.
        out = tmp_path / "lat"
        assert run("lattice-evolve", out, *args) == EXIT_OK
        law = report(out)["checks"]["variance_law"]
        assert law["passed"] and law["value"] <= 1e-12

    def test_alpha_scales_only_the_phi_columns(self, tmp_path):
        # p and z are the bare walk at every alpha; phi carries alpha**s,
        # the normalisation the Monte Carlo overlay applies.
        args = ["--set", "n_steps=16", "--set", "mc_paths=2000", "--seed", "11"]
        bare, scaled = tmp_path / "bare", tmp_path / "scaled"
        assert run("lattice-evolve", bare, *args, "--set", "alpha=1.0") == EXIT_OK
        assert run("lattice-evolve", scaled, *args, "--set", "alpha=sqrt2") == EXIT_OK
        assert (bare / "snapshots_p.csv").read_bytes() == (scaled / "snapshots_p.csv").read_bytes()
        rows = {}
        for out in (bare, scaled):
            lines = (out / "snapshots_zphi.csv").read_text().splitlines()
            assert lines[0] == "step,m,x,z1,z2,phi1,phi2"
            rows[out] = [line.split(",") for line in lines[1:]]
        assert [r[:5] for r in rows[bare]] == [r[:5] for r in rows[scaled]]
        step = np.array([int(r[0]) for r in rows[bare]])
        for col in (5, 6):
            phi_bare = np.array([float(r[col]) for r in rows[bare]])
            phi_scaled = np.array([float(r[col]) for r in rows[scaled]])
            expect = phi_bare * np.array([lattice_walk.SQRT2**int(s) for s in step])
            assert np.array_equal(phi_scaled.view(np.uint64), expect.view(np.uint64))
        checks = report(scaled)["checks"]
        assert all(checks[name]["passed"] for name in ("conservation", "variance_law", "mc_within_4se"))

    def test_continuum_check(self, tmp_path):
        out = tmp_path / "cont"
        assert run("continuum-check", out, *FAST_CONTINUUM) == EXIT_OK
        rep = report(out)
        checks = rep["checks"]
        assert checks["rotation_order"]["passed"] and checks["kernel_order"]["passed"]
        assert checks["diffusion_l1"]["passed"] and checks["p0_identity"]["passed"]
        assert checks["engine_matches_step_loop"]["passed"]
        assert 0.0 <= checks["engine_matches_step_loop"]["value"] <= 1e-12
        assert verify_manifest(out)

    def test_spectral_check(self, tmp_path):
        out = tmp_path / "spec"
        assert run("spectral-check", out) == EXIT_OK
        rep = report(out)
        assert rep["checks"]["unitarity"]["passed"] and rep["checks"]["expansion_order"]["passed"]
        assert verify_manifest(out)

    def test_console_script(self, tmp_path):
        # The suite runs from a source checkout, where no launcher is on
        # PATH; build the one pip would generate from the declared entry
        # point and run it against the checkout's sources.
        launcher = write_launcher(tmp_path / "clockwalk", console_script_entry("clockwalk"))
        launchers = [(launcher, source_env())]
        installed = shutil.which("clockwalk")
        if installed:
            launchers.append((installed, None))
        for i, (exe, exe_env) in enumerate(launchers):
            out = tmp_path / f"cli{i}"
            proc = subprocess.run(
                [exe, "spectral-check", "--out", str(out), "--set", "site_count=64"],
                capture_output=True,
                text=True,
                env=exe_env,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            assert (out / "report.json").exists()

    @pytest.mark.parametrize("module", ["clockwalk", "clockwalk.experiments_cli"])
    def test_python_dash_m(self, tmp_path, module):
        out = tmp_path / "cli"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
             "spectral-check", "--out", str(out), "--set", "site_count=64"],
            capture_output=True,
            text=True,
            env=source_env(),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert verify_manifest(out)

    def test_package_imports_submodules_lazily(self):
        code = (
            "import sys, clockwalk\n"
            "assert 'clockwalk.experiments_cli' not in sys.modules\n"
            "assert clockwalk.spectral_limit.__name__ == 'clockwalk.spectral_limit'\n"
            "assert clockwalk.experiments_cli.main is sys.modules['clockwalk.experiments_cli'].main\n"
            "try:\n"
            "    clockwalk.missing\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no AttributeError')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=source_env())
        assert proc.returncode == 0, proc.stderr


class TestConfigErrors:
    def test_unknown_key(self, tmp_path):
        out = tmp_path / "x"
        assert run("spectral-check", out, "--set", "bogus=1") == EXIT_CONFIG
        assert not out.exists()  # validation precedes any file write

    @pytest.mark.parametrize(
        "scenario,entry",
        [
            ("propagator-compare", "min_sign_agreement=0"),
            ("propagator-compare", "max_spacing_rel=1"),
            ("propagator-compare", "alignment=raw"),
            ("continuum-check", "order_threshold=1.8"),
            ("continuum-check", "l1_threshold=1"),
            ("spectral-check", "unitarity_tol=1"),
            ("continuum-check", "p_window=0.05"),
            ("continuum-check", "x_window=0.01"),
            ("continuum-check", "pad=65"),
            ("spectral-check", "expansion_p=2"),
            ("lattice-evolve", "stroboscopic=true"),
        ],
    )
    def test_thresholds_are_not_config_keys(self, tmp_path, capsys, scenario, entry):
        # What a check measures is fixed at the check, like its threshold:
        # no key loosens a gate or moves the window or momentum it reads.
        out = tmp_path / "x"
        assert run(scenario, out, "--set", entry) == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_value(self, tmp_path):
        out = tmp_path / "x"
        assert run("clock-pattern", out, "--set", "x_step=abc") == EXIT_CONFIG
        assert not out.exists()

    def test_non_halving_levels(self, tmp_path):
        out = tmp_path / "x"
        assert run("continuum-check", out, "--set", "deltas=0.2,0.07,0.035") == EXIT_CONFIG
        assert not out.exists()

    def test_non_stroboscopic_step_count(self, tmp_path):
        # t = 0.6 at delta = 0.2, D = 0.5 gives s = 15, not divisible by 8
        out = tmp_path / "x"
        assert run("continuum-check", out, "--set", "t=0.6") == EXIT_CONFIG
        assert not out.exists()

    def test_spectral_check_runs_at_tiny_delta(self, tmp_path):
        # spectral-check has no time step, so no epsilon rule applies to it.
        out = tmp_path / "x"
        assert run("spectral-check", out, "--set", "delta=1e-200", "--set", "site_count=64") == EXIT_OK

    @pytest.mark.parametrize(
        "scenario,entry",
        [
            ("lattice-evolve", "delta=0"),
            ("lattice-evolve", "delta=-0.1"),
            ("lattice-evolve", "alpha=0"),
            ("lattice-evolve", "site_count=-4"),
            ("lattice-evolve", "site_count=128"),  # 2 n_steps sites: the walk would wrap
            ("spectral-check", "delta=0"),
            ("spectral-check", "alpha=-1"),
            ("spectral-check", "site_count=0"),
            ("spectral-check", "site_count=7"),
        ],
    )
    def test_lattice_values_rejected_before_the_walk(self, tmp_path, capsys, scenario, entry):
        # The walk and spectral functions read N from their arrays and do not
        # check delta, alpha or the site count: the runners' parsers and rules do.
        out = tmp_path / "x"
        assert run(scenario, out, "--set", entry) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
    def test_seed_outside_uint64(self, tmp_path, capsys, seed):
        out = tmp_path / "x"
        code = run("lattice-evolve", out, "--set", "n_steps=8", "--set", "mc_paths=10", "--seed", seed)
        assert code == EXIT_CONFIG
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "x"
        code = run("lattice-evolve", out, "--set", "n_steps=8", "--set", "mc_paths=10", "--seed", str(2**64 - 1))
        assert code == EXIT_OK
        assert report(out)["manifest"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("init,n_steps", [("unit_state", 59), ("phi_point", 1023)])
    def test_alpha_precision_limits(self, tmp_path, capsys, init, n_steps):
        # Past these step counts phi * alpha**s would lose the precision
        # of the bare walk's phi; one step fewer runs.
        args = ["--set", f"init={init}", "--set", "alpha=sqrt2", "--set", f"snapshot_every={n_steps}"]
        out = tmp_path / "x"
        assert run("lattice-evolve", out, *args, "--set", f"n_steps={n_steps}") == EXIT_CONFIG
        assert f"at most {n_steps - 1} steps" in capsys.readouterr().err
        assert not out.exists()
        assert run("lattice-evolve", tmp_path / "ok", *args, "--set", f"n_steps={n_steps - 1}") == EXIT_OK

    def test_z_point_alpha_has_no_step_limit(self, tmp_path):
        out = tmp_path / "x"
        args = ["--set", "init=z_point", "--set", "alpha=sqrt2", "--set", "n_steps=2000", "--set", "snapshot_every=1000"]
        assert run("lattice-evolve", out, *args) == EXIT_OK
        assert report(out)["checks"]["conservation"]["passed"]

    def test_initial_state_outside_one_to_four(self, tmp_path, capsys):
        # The 1..4 rule holds for every init, not only the unit state that reads it.
        out = tmp_path / "x"
        assert run("lattice-evolve", out, "--set", "init=phi_point", "--set", "initial_state=7") == EXIT_CONFIG
        assert "initial_state" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--set", "alpha=1e-6", "--set", "n_steps=58", "--set", "mc_paths=100"],  # alpha**58 underflows to 0
            ["--set", "init=phi_point", "--set", "alpha=0.25", "--set", "n_steps=512"],  # 2**-1024 is subnormal
        ],
    )
    def test_alpha_power_must_be_a_normal_float(self, tmp_path, capsys, args):
        # phi and the overlay are scaled by alpha**n_steps; a power that
        # underflowed to 0 made the phi band 0/0 and wrote "nan" as a check value.
        out = tmp_path / "x"
        assert run("lattice-evolve", out, *args, "--set", "snapshot_every=64") == EXIT_CONFIG
        assert "is not a normal float" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_normal_alpha_power_runs(self, tmp_path):
        # 0.25**511 = 2**-1022, the smallest normal float
        args = ["--set", "init=phi_point", "--set", "alpha=0.25", "--set", "n_steps=511", "--set", "snapshot_every=511"]
        assert run("lattice-evolve", tmp_path / "x", *args) == EXIT_OK

    def test_mc_requires_unit_state(self, tmp_path):
        out = tmp_path / "x"
        code = run("lattice-evolve", out, "--set", "init=phi_point", "--set", "mc_paths=100")
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_double_slit_window_without_two_nodes(self, tmp_path, capsys):
        # No node spacing to measure: a configuration error, not a check
        # record whose value is not a number.
        out = tmp_path / "x"
        assert run("double-slit", out, "--set", "x_min=-1", "--set", "x_max=1") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[-1.0, 1.0]" in err and "pi t / (m a) = 20" in err
        assert not out.exists()

    def test_malformed_set_entry(self, tmp_path):
        assert run("clock-pattern", tmp_path / "x", "--set", "no_equals_sign") == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = run("clock-pattern", tmp_path / "x", "--config", str(tmp_path / "none.cfg"))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "scenario,entry",
        [
            ("clock-pattern", "compton_period=0"),  # its schema parser
            ("double-slit", "source_to_slit_time=1"),  # SlitGeometry
            ("double-slit", "half_separation=0"),  # node spacing divides by it
            ("lattice-evolve", "alpha=-1"),  # its schema parser
            ("lattice-evolve", "delta=1e-200"),  # epsilon = delta^2 / (2 diffusion) underflows to 0
            ("lattice-evolve", "initial_site=-5"),  # only -1 means the centre
            ("spectral-check", "expansion_deltas=0.1"),  # a fit needs two deltas
            ("spectral-check", "expansion_deltas=0.1,0.1"),  # ... two distinct ones
            # Values no check caught: a traceback (exit 1), a silently
            # dropped overlay (exit 0) or a run written with exit 3.
            ("clock-pattern", "raster_t_max=inf"),
            ("clock-pattern", "x_max=inf"),
            ("propagator-compare", "x_window=inf"),
            ("continuum-check", "diffusion=inf"),
            ("continuum-check", "deltas=1e-200,5e-201,2.5e-201"),  # epsilon underflows to 0
            ("continuum-check", "diffusion_deltas=1e-200,5e-201,2.5e-201"),
            ("continuum-check", "deltas=1e-160,5e-161,2.5e-161"),  # t/epsilon overflows
            ("lattice-evolve", "mc_paths=-3"),
            ("lattice-evolve", "alpha=1e5"),  # alpha**64 overflows a float
            ("spectral-check", "delta=1e-308"),  # the momentum grid's pi / delta overflows
            ("double-slit", "half_separation=1e-300"),  # a window shorter than one node spacing
            ("continuum-check", "deltas=0.1,0.05,0.025 t=0.08"),  # a chain narrower than the kernel window
        ],
    )
    def test_library_rejections_are_config_errors(self, tmp_path, capsys, scenario, entry):
        out = tmp_path / "x"
        assert run(scenario, out, *(arg for e in entry.split() for arg in ("--set", e))) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario,key",
        [
            (scenario, key)
            for scenario, schema in experiments_cli.SCHEMAS.items()
            for key, (parser, default) in schema.items()
            if isinstance(parser(default), (float, tuple))
        ],
    )
    def test_non_finite_float_is_config_error(self, tmp_path, scenario, key):
        # Every float and float-list key is rejected by its schema parser,
        # before any compute.
        for value in ("nan", "inf", "-inf"):
            out = tmp_path / value
            assert run(scenario, out, "--set", f"{key}={value}") == EXIT_CONFIG
            assert not out.exists()


class TestExactChecks:
    """crossings_bracketed and variance_law compare runs with exact lattice laws."""

    @pytest.mark.parametrize(
        "scenario,args,name",
        [
            # two or more crossings in one grid cell near the cone
            pytest.param(
                "clock-pattern", ["--set", "compton_period=0.7", "--set", "t=7.35"], "crossings_bracketed",
                id="crowded-crossings",
            ),
            # t = 20 is ten half periods: a parity spike at x = 0, which this grid skips
            pytest.param(
                "clock-pattern", ["--set", "x_min=-25.025", "--set", "x_max=25.025"], "crossings_bracketed",
                id="grid-skips-spike",
            ),
            # variances of order 1e300 in position units
            pytest.param("lattice-evolve", ["--set", "delta=1e150"], "variance_law", id="delta=1e150"),
            pytest.param("lattice-evolve", ["--set", "diffusion=1e-300"], "variance_law", id="diffusion=1e-300"),
        ],
    )
    def test_correct_runs_pass(self, tmp_path, scenario, args, name):
        out = tmp_path / "run"
        assert run(scenario, out, *args) == EXIT_OK
        assert report(out)["checks"][name]["passed"]

    def test_random_slices_have_no_mismatched_cells(self):
        xs = experiments_cli._grid(-25.0, 25.0, 0.05)
        configs = np.round(np.random.default_rng(0).uniform([0.3, 1.0], [5.0, 24.0], size=(300, 2)), 3)
        for period, t in configs.tolist():
            units = UnitsConfig(period)
            record, _ = experiments_cli._pattern_crossing_check(t, units, plane_pattern(t, xs, units))
            assert record["value"] == 0, (period, t)

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_flipped_in_cone_sample_fails(self, tmp_path, monkeypatch, end):
        def flipped(t, x, units):
            pattern = plane_pattern(t, x, units)
            inside = np.nonzero(pattern.in_cone)[0]
            value = pattern.value.copy()
            k = inside[0] if end == "first" else inside[-1]
            value[k] = -value[k]
            return Pattern(pattern.x, value, pattern.in_cone)

        monkeypatch.setattr(experiments_cli, "plane_pattern", flipped)
        out = tmp_path / "run"
        assert run("clock-pattern", out) == EXIT_CHECK
        # the sample's one cell with both ends in the cone disagrees
        assert report(out)["checks"]["crossings_bracketed"] == {"passed": False, "value": 1, "threshold": 0, "rule": "<="}

    @pytest.mark.parametrize("q", [0.4999, 0.5001])
    def test_biased_walk_fails_variance_law(self, tmp_path, monkeypatch, q):
        # States advance with probability q instead of 1/2.
        def biased(p):
            h = lattice_walk._move(p)
            return (1 - q) * h + q * h[[3, 0, 1, 2]]

        monkeypatch.setattr(lattice_walk, "step_four_state", biased)
        out = tmp_path / "lat"
        assert run("lattice-evolve", out) == EXIT_CHECK
        record = report(out)["checks"]["variance_law"]
        assert record["passed"] is False and record["value"] > 1e-4

    @pytest.mark.parametrize("init", ["unit_state", "z_point", "phi_point"])
    def test_variance_law_on_two_snapshots(self, tmp_path, init):
        # Every run with z mass is checked, however few its snapshots.
        out = tmp_path / "lat"
        args = ["--set", f"init={init}", "--set", "n_steps=16", "--set", "snapshot_every=16"]
        assert run("lattice-evolve", out, *args) == EXIT_OK
        checks = report(out)["checks"]
        assert ("variance_law" in checks) == (init != "phi_point")


class TestCheckFailure:
    def test_impossible_tolerance_exits_three(self, tmp_path, monkeypatch):
        # A transfer matrix ten times further from unitary than the fixed 1e-14.
        diagnostics = experiments_cli.transfer_diagnostics

        def leaky(ps, delta, alpha):
            resid, lam_mod, det = diagnostics(ps, delta, alpha)
            return np.full_like(resid, 1e-13), lam_mod, det

        monkeypatch.setattr(experiments_cli, "transfer_diagnostics", leaky)
        out = tmp_path / "spec"
        assert run("spectral-check", out) == EXIT_CHECK
        # artifacts and report are still written for post-mortem use
        rep = report(out)
        assert rep["checks"]["unitarity"] == {"passed": False, "value": 1e-13, "threshold": 1e-14, "rule": "<="}
        assert verify_manifest(out)

    @pytest.mark.parametrize(
        "scenario,args",
        [
            *(pytest.param(name, [], id=name) for name in experiments_cli.SCHEMAS),
            # crossings crowded near the cone, two or more to a cell: exit 0
            pytest.param("clock-pattern", ["--set", "compton_period=0.7", "--set", "t=7.35"], id="crowded-crossings"),
        ],
    )
    def test_every_check_is_a_record(self, tmp_path, scenario, args):
        out = tmp_path / "run"
        code = run(scenario, out, *args)
        checks = report(out)["checks"]
        assert checks
        for name, record in checks.items():
            assert set(record) == {"passed", "value", "threshold", "rule"}, name
            assert type(record["passed"]) is bool and record["rule"] in ("<=", ">=")
            assert type(record["threshold"]) in (int, float)
            assert record["value"] is None or type(record["value"]) in (int, float), name
        failed = any(not record["passed"] for record in checks.values())
        assert code == (EXIT_CHECK if failed else EXIT_OK)

    @pytest.mark.parametrize(
        "name, mutant",
        [
            # phi_step with alpha scaled by 1 + 1e-9: every other check passes.
            ("phi_step", lambda phi, alpha: lattice_walk.phi_step(phi, alpha * (1 + 1e-9))),
            # z_step that loses 1e-6 of the field per step.
            ("z_step", lambda z: lattice_walk.z_step(z) * (1 - 1e-6)),
        ],
    )
    def test_wrong_step_map_fails_engine_check(self, tmp_path, monkeypatch, name, mutant):
        # The step loop is the oracle of the spectral engine: a step map
        # that disagrees with the engine's closed form must fail the run.
        monkeypatch.setattr(spectral_limit, name, mutant)
        out = tmp_path / "cont"
        assert run("continuum-check", out) == EXIT_CHECK
        rep = report(out)
        record = rep["checks"]["engine_matches_step_loop"]
        assert record["passed"] is False and record["value"] > 1e-12


def traced_child(tmp_path, *argv):
    """Spans (name, start, end, parent, work) of one perfbench/child.py REC 1 run."""
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(record), "1", "--",
         *argv, "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
        env=source_env(),
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return json.loads(record.read_text())


class TestBenchmarkHooks:
    def test_traced_child_sees_runner_config_and_oracle_steps(self, tmp_path):
        # perfbench/child.py wraps RUNNERS, resolve_config and the step maps
        # from outside the package, where each module looks them up.
        rec = traced_child(tmp_path, "continuum-check")
        names = [span[0] for span in rec["spans"]]
        assert "runner_entry" in rec
        assert {"experiments_cli.runner", "experiments_cli.resolve_config"} <= set(names)
        # The oracle's step loop at the coarsest level of each study:
        # 64 phi steps (delta 0.2, t 2.56) and 400 z steps (delta 0.05, t 1).
        assert sum(name.rpartition(".")[0] == "lattice_walk.step" for name in names) == 64 + 400

    def test_traced_child_sees_snapshot_steps_and_sampler(self, tmp_path):
        # The snapshot loop and the Monte Carlo band live in lattice_walk;
        # the per-step map and the sampler stay visible to the benchmark.
        rec = traced_child(tmp_path, "lattice-evolve", "--set", "n_steps=16", "--set", "mc_paths=200")
        names = [span[0] for span in rec["spans"]]
        # Each step's work is the site count, 2 * 16 + 64.
        steps = [span for span in rec["spans"] if span[0] == "lattice_walk.step.step_four_state"]
        assert len(steps) == 16 and all(span[4] == 96 for span in steps)
        mc = [span for span in rec["spans"] if span[0] == "lattice_walk.mc.monte_carlo_estimate"]
        assert len(mc) == 1 and mc[0][4] == 16 * 200
        assert "lattice_walk.mc.deposit_standard_errors" in names

    def test_traced_child_sees_the_write_inside_run_scenario(self, tmp_path):
        # The benchmark derives experiments_cli.write_s as the run_scenario
        # span minus the runner span; a writer outside run_scenario would
        # read as zero.  At 256 steps the write (about 270 000 cells) takes
        # far longer than the rest of that difference.
        rec = traced_child(tmp_path, "lattice-evolve", "--set", "n_steps=256")
        spans = rec["spans"]
        (k,) = [k for k, span in enumerate(spans) if span[0] == "experiments_cli.run_scenario"]
        (runner,) = [span for span in spans if span[0] == "experiments_cli.runner"]
        assert runner[3] == k  # the runner span's parent
        outside_runner = (spans[k][2] - spans[k][1]) - (runner[2] - runner[1])
        assert outside_runner >= report(tmp_path / "run")["timings"]["write_s"] > 0


class TestIoFailure:
    def test_output_path_is_a_file(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        assert run("spectral-check", blocker, "--set", "site_count=64") == EXIT_IO

    @pytest.mark.parametrize("failing", ["second table", "final rename"])
    def test_failure_mid_write_keeps_previous_run(self, tmp_path, monkeypatch, failing):
        out = tmp_path / "d"
        assert run("spectral-check", out, "--set", "site_count=64") == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        if failing == "second table":
            write_table = rundir._write_table
            calls = []

            def fail_after_first_table(*args):
                calls.append(args)
                if len(calls) > 1:
                    raise OSError("disk full")
                return write_table(*args)

            monkeypatch.setattr(rundir, "_write_table", fail_after_first_table)
        else:
            # The previous run has been moved aside when the new one fails to land.
            rename = os.rename

            def fail_landing(src, dst):
                if str(src).endswith(".tmp"):
                    raise OSError("device busy")
                rename(src, dst)

            monkeypatch.setattr(rundir.os, "rename", fail_landing)
        assert run("spectral-check", out, "--set", "site_count=128") == EXIT_IO
        assert [p.name for p in tmp_path.iterdir()] == ["d"]  # no partial or temporary directory
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert verify_manifest(out)


class TestOutputDirectory:
    def test_rerun_leaves_no_stale_table(self, tmp_path):
        out = tmp_path / "d"
        assert run("lattice-evolve", out, "--set", "mc_paths=2000") == EXIT_OK
        assert (out / "mc_overlay.csv").exists()
        assert run("lattice-evolve", out) == EXIT_OK
        assert not (out / "mc_overlay.csv").exists()
        assert "mc_paths" not in report(out)
        assert verify_manifest(out)
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_empty_directory_is_replaced(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        assert run("spectral-check", out, "--set", "site_count=64") == EXIT_OK
        assert verify_manifest(out)

    @pytest.mark.parametrize("stray", ["notes.txt", "report.json"])
    def test_other_directory_is_refused(self, tmp_path, capsys, stray):
        # Neither empty nor a previous run: a stray file, or a report.json
        # without a manifest.
        out = tmp_path / "d"
        out.mkdir()
        (out / stray).write_text("{}")
        assert run("spectral-check", out, "--set", "site_count=64") == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [stray]
        assert [p.name for p in tmp_path.iterdir()] == ["d"]


class TestVerifyManifest:
    @pytest.fixture
    def out(self, tmp_path):
        out = tmp_path / "d"
        assert run("spectral-check", out, "--set", "site_count=64") == EXIT_OK
        assert verify_manifest(out)
        return out

    def test_missing_listed_file(self, out):
        (out / "expansion.csv").unlink()
        assert verify_manifest(out) is False

    def test_unlisted_data_file(self, out):
        (out / "mc_overlay.csv").write_text("m,x\n")
        assert verify_manifest(out) is False


def snapshot(path):
    """Every file under path, by relative name, with its bytes."""
    return {p.relative_to(path): p.read_bytes() for p in sorted(Path(path).rglob("*")) if p.is_file()}


class TestVerifyCommand:
    @pytest.fixture
    def out(self, tmp_path):
        out = tmp_path / "d"
        assert run("spectral-check", out, "--set", "site_count=64") == EXIT_OK
        return out

    def test_matching_run_exits_zero(self, out, capsys):
        before = snapshot(out.parent)
        assert main(["verify", str(out)]) == EXIT_OK
        assert "matches its manifest" in capsys.readouterr().out
        assert snapshot(out.parent) == before

    @pytest.mark.parametrize("damage", ["changed", "missing", "unlisted"])
    def test_damaged_run_exits_three(self, out, capsys, damage):
        if damage == "changed":
            (out / "expansion.csv").write_bytes((out / "expansion.csv").read_bytes() + b"\n")
        elif damage == "missing":
            (out / "spectrum.csv").unlink()
        else:
            (out / "notes.txt").write_text("x")
        before = snapshot(out.parent)
        assert main(["verify", str(out)]) == EXIT_CHECK
        assert "does not match its manifest" in capsys.readouterr().err
        assert snapshot(out.parent) == before

    @pytest.mark.parametrize("target", ["absent", "empty", "report-without-manifest", "file"])
    def test_path_that_is_not_a_run_exits_two(self, tmp_path, capsys, target):
        path = tmp_path / "p"
        if target == "empty":
            path.mkdir()
        elif target == "report-without-manifest":
            path.mkdir()
            (path / "report.json").write_text('{"checks": {}}')
        elif target == "file":
            path.write_text("{}")
        before = snapshot(tmp_path)
        assert main(["verify", str(path)]) == EXIT_CONFIG
        assert "not a run directory" in capsys.readouterr().err
        assert snapshot(tmp_path) == before


class TestConfigResolution:
    def test_schema_keys_pinned(self):
        # Every key is a way to change a run; a new one shows up here.
        assert {name: list(schema) for name, schema in experiments_cli.SCHEMAS.items()} == {
            "clock-pattern": [
                "t", "compton_period", "x_min", "x_max", "x_step", "raster_t_min", "raster_t_max", "raster_t_step",
            ],
            "propagator-compare": ["t", "compton_period", "x_window", "x_step"],
            "double-slit": [
                "half_separation", "source_to_slit_time", "slit_to_screen_time", "compton_period",
                "x_min", "x_max", "x_step", "node_tolerance",
            ],
            "lattice-evolve": [
                "delta", "diffusion", "alpha", "n_steps", "snapshot_every", "site_count",
                "init", "initial_state", "initial_site", "mc_paths",
            ],
            "continuum-check": ["deltas", "diffusion", "t", "diffusion_deltas", "diffusion_t"],
            "spectral-check": ["delta", "site_count", "alpha", "expansion_deltas"],
        }

    def test_report_keys_pinned(self, tmp_path):
        # Each top-level key states a number that the config, the tables and
        # the other keys do not; a key that restates one shows up here.
        extra = {"lattice-evolve": ["--set", "mc_paths=200"], "continuum-check": FAST_CONTINUUM}
        keys = {}
        for name in experiments_cli.SCHEMAS:
            assert run(name, tmp_path / name, *extra.get(name, [])) == EXIT_OK
            keys[name] = sorted(report(tmp_path / name))
        assert keys == {
            "clock-pattern": ["checks", "manifest", "predicted_crossings", "timings"],
            "propagator-compare": [
                "checks", "manifest", "n_crossings_pattern", "n_crossings_re_feynman", "n_spacing_pairs", "timings",
            ],
            "double-slit": ["checks", "expected_node_spacing", "gap_intervals", "manifest", "node_positions", "timings"],
            "lattice-evolve": [
                "checks", "epsilon", "manifest", "mass_final", "mass_initial", "mc_max_phi_dev_4se",
                "mc_max_z_dev_4se", "site_count", "timings",
            ],
            "continuum-check": ["checks", "kernel_raw_order", "manifest", "matrix_order", "timings"],
            "spectral-check": ["checks", "manifest", "timings", "unitarity_max_residual"],
        }

    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 10.0\nx_window = 3.0  # comment\n\n")
        out = tmp_path / "a"
        assert run("propagator-compare", out, "--config", str(cfg)) == EXIT_OK
        manifest = report(out)["manifest"]
        assert manifest["config"]["t"] == 10.0
        assert manifest["config"]["x_window"] == 3.0

        out2 = tmp_path / "b"
        assert run("propagator-compare", out2, "--config", str(cfg), "--set", "t=12.0") == EXIT_OK
        assert report(out2)["manifest"]["config"]["t"] == 12.0

    def test_alpha_accepts_sqrt2_literal(self, tmp_path):
        out = tmp_path / "a"
        assert run(
            "lattice-evolve", out, "--set", "alpha=sqrt2", "--set", "n_steps=8"
        ) == EXIT_OK
        assert abs(report(out)["manifest"]["config"]["alpha"] - 2.0**0.5) < 1e-15

    def test_seed_and_threads_recorded(self, tmp_path):
        # results never depended on a thread count, so none is recorded
        out = tmp_path / "a"
        assert run("clock-pattern", out, "--seed", "9") == EXIT_OK
        manifest = report(out)["manifest"]
        assert manifest["seed"] == 9 and "threads" not in manifest


class TestOutputFormat:
    def test_csv_is_utf8_lf_roundtrip(self, tmp_path):
        out = tmp_path / "a"
        assert run("clock-pattern", out) == EXIT_OK
        blob = (out / "slice.csv").read_bytes()
        assert b"\r" not in blob and blob.endswith(b"\n")
        lines = blob.decode("utf-8").splitlines()
        assert lines[0] == "x,t,parity,in_cone"
        first = lines[1].split(",")
        assert float(first[0]) == -25.0  # repr round-trips exactly
        assert first[2] in ("-1", "0", "1")

    def test_json_format(self, tmp_path):
        out = tmp_path / "a"
        assert run("clock-pattern", out, "--format", "json") == EXIT_OK
        data = json.loads((out / "slice.json").read_text())
        assert data["header"] == ["x", "t", "parity", "in_cone"]
        assert data["rows"][0][0] == -25.0

    def test_report_has_flat_metrics_and_manifest(self, tmp_path):
        out = tmp_path / "a"
        assert run("spectral-check", out, "--set", "site_count=64") == EXIT_OK
        rep = report(out)
        assert isinstance(rep["unitarity_max_residual"], float)  # flat, top level
        man = rep["manifest"]
        assert "checks" not in man  # the records are held once, at the top level
        for key in ("tool_version", "scenario", "config", "seed", "files", "digest"):
            assert key in man
        assert man["scenario"] == "spectral-check"
        assert set(man["files"]) == {"spectrum.csv", "expansion.csv"}

    def test_report_has_stage_timings_outside_manifest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("lattice-evolve", out, "--set", "n_steps=8") == EXIT_OK
        timings = report(a)["timings"]
        assert set(timings) == {"check_replaceable_s", "runner_s", "write_s", "peak_rss_mb"}
        assert all(v > 0 for v in timings.values())
        assert "timings" not in report(a)["manifest"]
        assert report(a)["manifest"]["digest"] == report(b)["manifest"]["digest"]


class TestDeterminism:
    def test_data_files_byte_identical_across_threads(self, tmp_path):
        """Same config and seed: identical bytes on every run.  The runs are
        single-threaded; there is no thread count to vary."""
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--set", "n_steps=8", "--set", "mc_paths=500", "--seed", "3"]
        assert run("lattice-evolve", a, *args) == EXIT_OK
        assert run("lattice-evolve", b, *args) == EXIT_OK
        names = [p.name for p in sorted(a.glob("*.csv"))]
        assert names  # sanity: data files exist
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert report(a)["manifest"]["digest"] == report(b)["manifest"]["digest"]

    def test_seed_changes_mc_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--set", "n_steps=8", "--set", "mc_paths=500"]
        assert run("lattice-evolve", a, *args, "--seed", "1") == EXIT_OK
        assert run("lattice-evolve", b, *args, "--seed", "2") == EXIT_OK
        assert (a / "mc_overlay.csv").read_bytes() != (b / "mc_overlay.csv").read_bytes()
        # the deterministic snapshots are seed-independent
        assert (a / "snapshots_p.csv").read_bytes() == (b / "snapshots_p.csv").read_bytes()

    # The data of these runs use only exactly rounded float operations and
    # the seeded generator, so their digests hold on any IEEE 754 machine;
    # the one exception is the alpha = sqrt2 run, whose phi columns are
    # scaled by the C library's pow(alpha, s).  A rewrite of the pattern,
    # table or writer code must reproduce them.
    @pytest.mark.parametrize(
        "scenario,args,digest",
        [
            ("clock-pattern", [], "2ceb34ae98d52ba45918eb2bb6d86bfd84724a651fdfca89838b752b6fcada71"),
            (
                "clock-pattern",
                ["--format", "json"],
                "b2a564ac23890af1cfe961b7257ac4a19d8ad1ea8eb742391dd255552da609a7",
            ),
            (
                "lattice-evolve",
                ["--set", "n_steps=16", "--set", "mc_paths=2000", "--seed", "11"],
                "4f87ac35388fc41be6206b3bdf53b287d8bb54e33c037a2ffe2ada262deec0b2",
            ),
            (
                "lattice-evolve",
                ["--set", "n_steps=16", "--set", "mc_paths=2000", "--seed", "11", "--format", "json"],
                "849590bd197ff669cc28f15820dac535c54b4949cbaa43618b70b1c4e6771262",
            ),
            # A point source at alpha = sqrt2: p is the bare walk, phi is
            # scaled by alpha**s.
            (
                "lattice-evolve",
                ["--set", "init=phi_point", "--set", "alpha=sqrt2"],
                "da25f0cbe90c60d7cba95b3651f6cce586170ad0d6ec97689ff767e2932e16b3",
            ),
            (
                "lattice-evolve",
                ["--set", "init=z_point"],
                "aa2b4be3eead01f5db40eea3401b598e31f5ea81dbbafe2aa447a0a743901ce3",
            ),
        ],
    )
    def test_manifest_digest_pinned(self, tmp_path, scenario, args, digest):
        out = tmp_path / "a"
        assert run(scenario, out, *args) == EXIT_OK
        assert report(out)["manifest"]["digest"] == digest


# The per-cell writer the columnar one replaced, kept as its oracle.
def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    return str(v)


def oracle_table_bytes(columns, fmt):
    """The bytes of a table, built cell by cell: its rows are the cells of
    the columns broadcast to one shape, in C order."""
    header = list(columns)
    flat = [a.ravel() for a in np.broadcast_arrays(*map(np.asarray, columns.values()))]
    rows = [[a[i] for a in flat] for i in range(flat[0].size)]
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
        return ("\n".join(lines) + "\n").encode("utf-8")
    payload = {"header": header, "rows": [[_json_cell(v) for v in row] for row in rows]}
    return (json.dumps(payload, sort_keys=True, indent=None, separators=(",", ":")) + "\n").encode("utf-8")


# Every column repeats values, so a table deduplicates, and 0.0 sits beside
# -0.0: equal as numbers, different as text.  Columns of one dtype share
# values, as mirror columns do, and are deduplicated together: y has 0.0
# where x has -0.0, and bits has the bit patterns of the bools but is
# written as numbers, so dtype groups must stay apart.
EDGE_COLUMNS = {
    "flag": np.array([True, False, False, True, True, False, True, False, True, True, False, False, True, False]),
    "small": np.array([-128, 127, 0, -1, -128, 5, 0, 1, -7, 5, 127, -1, 0, -7], dtype=np.int8),
    "big": np.array(
        [-(2**63), 2**63 - 1, 0, 1, -(2**63), 10**15, 0, -1, 3, 10**15, 2**63 - 1, 1, 3, -1], dtype=np.int64
    ),
    "x": np.array([-0.0, 0.0, 5e-324, math.nan, -0.0, 0.1, 0.0, math.inf, -math.inf, 0.1, 1e16, math.nan, -0.0, 1e16]),
    "y": np.array([0.0, 1e16, math.nan, 5e-324, 0.0, math.inf, 2.5, 5e-324, 0.0, -2.5, math.nan, math.inf, 0.0, 0.1]),
    "big2": np.array([1, -(2**63), 3, 10**15, 7, 0, -1, 7, 2**63 - 1, 0, 42, 3, 1, 10**15], dtype=np.int64),
    "flag2": np.array([False, False, True, True, False, True, False, True, True, False, False, True, True, False]),
    "bits": np.array([1, 0, 1, 1, 0, 0, 1, 2, 0, 1, 1, 0, 0, 1], dtype=np.int8),
}


def broadcast_edge_columns(k):
    """EDGE_COLUMNS as a (k, 14) table: a scalar and a (k, 1) column of each
    dtype beside the (14,) edge columns and (k, 14) rolls of them."""
    e = EDGE_COLUMNS

    def rolls(col):
        return np.array([np.roll(col, j) for j in range(k)], dtype=col.dtype).reshape(k, col.size)

    return {
        "zero": -0.0,
        "t": np.array([math.nan, -0.0, math.inf, 0.0, -math.inf][:k])[:, None],
        "x": e["x"],
        "grid": rolls(e["y"]),
        "on": True,
        "row_flag": np.array([False, True, True, False, True][:k])[:, None],
        "flag": e["flag"],
        "small": np.int8(-128),
        "row_small": np.array([127, -128, 0, 127, -1][:k], dtype=np.int8)[:, None],
        "bits": rolls(e["bits"]),
        "step": np.array([2**63 - 1, 0, -(2**63), 0, 5][:k])[:, None],
        "big": e["big"],
        "big_grid": rolls(e["big2"]),
    }


def runner_tables(scenario, *sets):
    """The tables the scenario's runner returns for its defaults overridden by sets."""
    cfg = experiments_cli.resolve_config(scenario, {}, list(sets))
    return experiments_cli.RUNNERS[scenario](cfg, 0).tables


def broadcast_table(columns):
    """{name: the column broadcast to the table's shape and flattened to one cell per row}."""
    header, cols = columns
    return dict(zip(header, (np.broadcast_to(a, cols.shape).ravel() for a in cols.arrays)))


def assert_same_columns(table, old):
    assert list(table) == list(old)
    for name, column in table.items():
        assert column.dtype == old[name].dtype and column.shape == old[name].shape, name
        assert column.tobytes() == old[name].tobytes(), name


class TestBroadcastTables:
    """The raster and the snapshots are written from their grids; the
    per-row constructions they replaced are kept here as their oracles."""

    @pytest.mark.parametrize(
        "sets",
        [
            pytest.param([], id="desk"),
            pytest.param(["x_step=0.01", "raster_t_step=0.25"], id="benchmark"),
            pytest.param(["compton_period=0.7", "t=7.35"], id="crowded-crossings"),
        ],
    )
    def test_raster_matches_one_slice_per_time(self, sets):
        cfg = experiments_cli.resolve_config("clock-pattern", {}, sets)
        units = UnitsConfig(cfg["compton_period"])
        xs = experiments_cli._grid(cfg["x_min"], cfg["x_max"], cfg["x_step"])
        ts = experiments_cli._grid(cfg["raster_t_min"], cfg["raster_t_max"], cfg["raster_t_step"])
        raster = [plane_pattern(tv, xs, units) for tv in ts.tolist()]
        old = {
            "x": np.tile(xs, ts.size),
            "t": np.repeat(ts, xs.size),
            "parity": np.concatenate([pat.value for pat in raster]),
            "in_cone": np.concatenate([pat.in_cone for pat in raster]),
        }
        assert_same_columns(broadcast_table(runner_tables("clock-pattern", *sets)["raster"]), old)

    @pytest.mark.parametrize(
        "sets",
        [
            pytest.param([], id="desk"),
            pytest.param(["n_steps=64", "snapshot_every=100"], id="two-snapshots"),
            pytest.param(["site_count=200", "init=z_point"], id="wide-chain"),
        ],
    )
    def test_snapshots_match_one_row_per_site(self, monkeypatch, sets):
        kept = []

        def keep_snapshots(p, alpha, steps):
            kept.append((list(steps), lattice_walk.evolve_snapshots(p, alpha, steps)))
            return kept[-1][1]

        monkeypatch.setattr(experiments_cli, "evolve_snapshots", keep_snapshots)
        tables = runner_tables("lattice-evolve", *sets)
        ((snap_steps, snaps),) = kept
        n, delta = snaps.shape[-1], experiments_cli.resolve_config("lattice-evolve", {}, sets)["delta"]
        key = {
            "step": np.repeat(snap_steps, n),
            "m": np.tile(np.arange(n), len(snap_steps)),
            "x": np.tile(np.arange(n) * delta, len(snap_steps)),
        }
        p1, p2, p3, p4, z1, z2, phi1, phi2 = snaps.transpose(1, 0, 2).reshape(8, -1)
        assert_same_columns(broadcast_table(tables["snapshots_p"]), dict(key, p1=p1, p2=p2, p3=p3, p4=p4))
        assert_same_columns(broadcast_table(tables["snapshots_zphi"]), dict(key, z1=z1, z2=z2, phi1=phi1, phi2=phi2))


class TestWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_rows", [14, 7, 0])
    @pytest.mark.parametrize("chunk_rows", [1, 3, rundir.CHUNK_ROWS])
    def test_matches_per_cell_oracle(self, tmp_path, monkeypatch, fmt, n_rows, chunk_rows):
        monkeypatch.setattr(rundir, "CHUNK_ROWS", chunk_rows)
        columns = {k: col[:n_rows] for k, col in EDGE_COLUMNS.items()}
        header, cols = rundir.table(**columns)
        assert len(cols) == n_rows
        expected = oracle_table_bytes(columns, fmt)
        path = tmp_path / f"t.{fmt}"
        assert rundir._write_table(path, header, cols, fmt) == hashlib.sha256(expected).hexdigest()
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("k", [5, 1, 0])
    @pytest.mark.parametrize("chunk_rows", [1, 3, rundir.CHUNK_ROWS])
    def test_broadcast_columns_match_oracle(self, tmp_path, monkeypatch, fmt, k, chunk_rows):
        # Scalars, (k, 1) and (14,) columns are written as the (k, 14)
        # table they broadcast to, without being copied; k = 0 is empty.
        monkeypatch.setattr(rundir, "CHUNK_ROWS", chunk_rows)
        columns = broadcast_edge_columns(k)
        header, cols = rundir.table(**columns)
        assert header == list(columns) and cols.shape == (k, 14) and len(cols) == k * 14
        assert cols.arrays[2] is columns["x"]
        expected = oracle_table_bytes(columns, fmt)
        path = tmp_path / f"t.{fmt}"
        assert rundir._write_table(path, header, cols, fmt) == hashlib.sha256(expected).hexdigest()
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scalar_columns_are_one_row(self, tmp_path, fmt):
        columns = {"x": -0.0, "y": math.nan, "n": -(2**63), "b": False}
        header, cols = rundir.table(**columns)
        assert cols.shape == (1,) and len(cols) == 1
        expected = oracle_table_bytes(columns, fmt)
        path = tmp_path / f"t.{fmt}"
        assert rundir._write_table(path, header, cols, fmt) == hashlib.sha256(expected).hexdigest()
        assert path.read_bytes() == expected

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_shared_dtype_columns_match_oracle(self, tmp_path, monkeypatch, data):
        # The columns of one dtype draw their cells from one small pool, so
        # values recur within a column and across the columns of its dtype.
        # Each column is a scalar, a (k, 1), an (n,) or a (k, n) array.
        k, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 12))
        columns = {}
        strategies = {np.float64: st.floats(), np.int64: st.integers(-(2**63), 2**63 - 1), bool: st.booleans()}
        for dtype, values in strategies.items():
            pool = data.draw(st.lists(values, min_size=1, max_size=6))
            for j in range(data.draw(st.integers(1, 3))):
                shape = data.draw(st.sampled_from([(), (k, 1), (n,), (k, n)]))
                cells = data.draw(st.lists(st.sampled_from(pool), min_size=math.prod(shape), max_size=math.prod(shape)))
                columns[f"{np.dtype(dtype).kind}{j}"] = np.array(cells, dtype=dtype).reshape(shape)
        header, cols = rundir.table(**columns)
        monkeypatch.setattr(rundir, "CHUNK_ROWS", data.draw(st.integers(1, 7)))
        for fmt in ("csv", "json"):
            expected = oracle_table_bytes(columns, fmt)
            path = tmp_path / f"t.{fmt}"
            assert rundir._write_table(path, header, cols, fmt) == hashlib.sha256(expected).hexdigest()
            assert path.read_bytes() == expected

    @pytest.mark.parametrize(
        "scenario,args",
        [
            ("clock-pattern", ["--set", "raster_t_step=5.0"]),
            ("propagator-compare", []),
            ("double-slit", []),
            ("lattice-evolve", ["--set", "n_steps=8", "--set", "mc_paths=500"]),
            ("continuum-check", FAST_CONTINUUM),
            ("spectral-check", ["--set", "site_count=64"]),
        ],
    )
    def test_tables_unpack_as_header_and_rows(self, tmp_path, monkeypatch, scenario, args):
        # The benchmark's trace hook counts sum(len(header) * len(rows))
        # over result.tables, so len() of the columns must be the row count.
        results = []
        runner = experiments_cli.RUNNERS[scenario]

        def keep_result(cfg, seed):
            results.append(runner(cfg, seed))
            return results[-1]

        monkeypatch.setitem(experiments_cli.RUNNERS, scenario, keep_result)
        out = tmp_path / "a"
        assert run(scenario, out, *args) == EXIT_OK
        assert sorted(f"{name}.csv" for name in results[0].tables) == sorted(report(out)["manifest"]["files"])
        for name, (header, columns) in results[0].tables.items():
            lines = (out / f"{name}.csv").read_text().splitlines()
            assert lines[0].split(",") == header
            assert len(columns) == len(lines) - 1 > 0

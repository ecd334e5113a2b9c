"""Tests of the benchmark's own checks and tracing, on real run directories.

    python3 perfbench/selftest.py

Each scenario is run once through the benchmark's launcher at a small size.
The checks must pass the untouched run directories and must fail copies
with one value changed, also when the manifest is rehashed to match the
change, so that the numerical checks alone have to catch it.  A traced run
of each must record spans in the layer it exercises.  Takes about 10 s.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_run  # noqa: E402
from run import Op, child_env, layer_metrics, run_op  # noqa: E402

ROOT = HERE.parent
WALK = Op("lattice-evolve", (("n_steps", "64"), ("mc_paths", "2000")))
CONTINUUM = Op("continuum-check", (("deltas", "0.1,0.05,0.025"),))
PATTERNS = [
    Op("clock-pattern", (), "json"),
    Op("double-slit", (), "json"),
    Op("propagator-compare", (), "json"),
    Op("spectral-check", (), "json"),
]


def rehash(run_dir: Path) -> None:
    """Make the manifest match the files as they now are."""
    path = run_dir / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    files = report["manifest"]["files"]
    for name in files:
        files[name] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    joined = "\n".join(f"{k}:{v}" for k, v in sorted(files.items())).encode("utf-8")
    report["manifest"]["digest"] = hashlib.sha256(joined).hexdigest()
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")


class BenchmarkChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
        env = child_env(ROOT)
        cls.runs, cls.traced = {}, {}
        for op in [WALK, CONTINUUM, *PATTERNS]:
            for trace, store in ((False, cls.runs), (True, cls.traced)):
                base = cls.tmp / f"{op.scenario}-{int(trace)}"
                base.mkdir()
                store[op] = run_op(op, base / "run", base / "record.json", trace, env), base / "run"

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def mutated_copy(self, op: Op) -> Path:
        copy = self.tmp / f"copy-{op.scenario}-{self.id().rsplit('.', 1)[-1]}"
        shutil.copytree(self.runs[op][1], copy)
        return copy

    def assert_fails_with_and_without_rehash(self, op: Op, copy: Path) -> None:
        errors, _, _ = check_run(copy, op.scenario, dict(op.sets), op.fmt)
        self.assertTrue(any("SHA-256" in e for e in errors), errors)
        rehash(copy)
        errors, _, _ = check_run(copy, op.scenario, dict(op.sets), op.fmt)
        self.assertTrue(errors, "a changed value passed the numerical checks")
        self.assertFalse(any("SHA-256" in e for e in errors), errors)

    def test_untouched_runs_pass(self) -> None:
        for op, (outcome, _) in {**self.runs, **self.traced}.items():
            with self.subTest(scenario=op.scenario):
                self.assertEqual(outcome.exit_code, 0)
                self.assertEqual(outcome.errors, [])

    def test_flipped_raster_parity_fails(self) -> None:
        op = PATTERNS[0]
        copy = self.mutated_copy(op)
        path = copy / "raster.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        row = next(r for r in payload["rows"] if r[3])
        row[2] = -row[2]
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
        self.assert_fails_with_and_without_rehash(op, copy)

    def test_changed_p1_cell_fails(self) -> None:
        copy = self.mutated_copy(WALK)
        path = copy / "snapshots_p.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        i = next(k for k in range(len(lines) - 1, 0, -1) if float(lines[k].split(",")[3]) > 0)
        cells = lines[i].split(",")
        cells[3] = repr(float(cells[3]) + 1e-9)
        lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assert_fails_with_and_without_rehash(WALK, copy)

    def test_changed_l1_rel_fails(self) -> None:
        copy = self.mutated_copy(CONTINUUM)
        path = copy / "diffusion.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-5))
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assert_fails_with_and_without_rehash(CONTINUUM, copy)

    def test_stale_file_fails(self) -> None:
        copy = self.mutated_copy(WALK)
        (copy / "extra.csv").write_text("x\n1\n", encoding="utf-8")
        errors, _, _ = check_run(copy, WALK.scenario, dict(WALK.sets), WALK.fmt)
        self.assertTrue(any("manifest lists" in e for e in errors), errors)

    def test_traced_runs_record_each_layer(self) -> None:
        def metrics(*ops):
            return layer_metrics([self.traced[op][0].record for op in ops])

        walk = metrics(WALK)
        self.assertEqual(walk["lattice_walk.step_calls"], 64)
        self.assertEqual(walk["lattice_walk.mc_path_steps"], 64 * 2000)
        self.assertGreater(walk["experiments_cli.write_s"], 0)
        self.assertEqual(walk["experiments_cli.cells"], 2 * 9 * 192 * 7 + 192 * 10)
        continuum = metrics(CONTINUUM)
        # s = t / delta^2 steps per level: 2.56 over 0.1..0.025, 1.0 over 0.05..0.0125.
        self.assertEqual(continuum["lattice_walk.step_calls"], 256 + 1024 + 4096 + 400 + 1600 + 6400)
        self.assertGreater(continuum["spectral_limit.calls"], 0)
        self.assertGreater(continuum["reference_solutions.calls"], 0)
        patterns = metrics(*PATTERNS)
        self.assertGreater(patterns["clock_signal.samples"], 0)
        self.assertGreater(patterns["reference_solutions.calls"], 0)
        self.assertGreater(patterns["spectral_limit.calls"], 0)


if __name__ == "__main__":
    unittest.main()

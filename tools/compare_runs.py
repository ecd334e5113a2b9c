"""Run a fixed list of clockwalk invocations on two checkouts and compare their data.

    python3 tools/compare_runs.py --parent DIR --change DIR

DIR is the root of a checkout; each invocation runs `python -m clockwalk`
with DIR/src on PYTHONPATH, into a fresh run directory per side.  For each
invocation the script prints both exit codes and every data file whose
SHA-256 differs between the sides or that only one side wrote.  report.json
is compared too, without its wall-clock fields (`timings`, and the
`manifest.duration_seconds` that older checkouts write), and each key that
differs is printed as a dotted path such as `checks.unitarity`.  The exit
code is 1 if any invocation differs in exit code, data or report, 0
otherwise.

The list covers the six scenarios at their desk defaults in CSV and JSON,
every invocation of the benchmark's workloads, taken from
perfbench/run.py's WORKLOADS (walk-snapshots at seeds 0 and 63, the two
ends of its site range), the off-default lattice-evolve configs,
continuum-check at diffusion 0.25 (a second D, so mass m = 1/(2D) = 2, for
the continuum kernel), spectral-check at alpha = 1 (the non-unitary
branch), the clock-pattern configs that once failed crossings_bracketed
on correct code (crossings crowded two to a cell near the cone, and a grid
that skips the parity spike at x = 0), three edge shapes of the broadcast
tables (a raster of two times, two snapshots, and a chain wider than the
walk's own), the lattice-evolve configs whose variances in position units
reach 1e300 (delta = 1e150, diffusion = 1e-300), and four configs the
runner or library refuses: an alpha whose alpha**n_steps underflows, a
spectral-check delta whose momentum grid overflows, a double-slit window
shorter than one node spacing and a continuum-check level whose chain is
narrower than the kernel window.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import WORKLOADS, Op  # noqa: E402

SCENARIOS = ["clock-pattern", "propagator-compare", "double-slit", "lattice-evolve", "continuum-check", "spectral-check"]


def lattice(*entries: str) -> Op:
    return Op("lattice-evolve", tuple(tuple(e.split("=", 1)) for e in entries))


INVOCATIONS: list[tuple[str, Op]] = [
    *((f"{s} default {fmt}", Op(s, (), fmt)) for s in SCENARIOS for fmt in ("csv", "json")),
    *(
        (f"{name} seed {seed}: {op.scenario}", op)
        for name, seeds in (("walk-snapshots", (0, 63)), ("continuum-levels", (0,)), ("patterns-json", (0,)))
        for seed in seeds
        for op in WORKLOADS[name](seed)
    ),
    ("lattice-evolve phi_point", lattice("init=phi_point")),
    ("lattice-evolve z_point", lattice("init=z_point")),
    ("lattice-evolve monte carlo", lattice("n_steps=16", "mc_paths=2000")),
    ("lattice-evolve alpha=sqrt2", lattice("alpha=sqrt2")),
    ("lattice-evolve alpha=sqrt2 58 steps", lattice("alpha=sqrt2", "n_steps=58")),
    ("lattice-evolve phi_point alpha=sqrt2", lattice("init=phi_point", "alpha=sqrt2")),
    ("lattice-evolve z_point alpha=sqrt2", lattice("init=z_point", "alpha=sqrt2")),
    ("lattice-evolve monte carlo alpha=sqrt2", lattice("n_steps=16", "mc_paths=2000", "alpha=sqrt2")),
    ("lattice-evolve odd chain monte carlo", lattice("site_count=301", "n_steps=100", "mc_paths=500")),
    ("continuum-check diffusion=0.25", Op("continuum-check", (("diffusion", "0.25"),))),
    ("spectral-check alpha=1", Op("spectral-check", (("alpha", "1.0"),))),
    ("clock-pattern crowded crossings", Op("clock-pattern", (("compton_period", "0.7"), ("t", "7.35")))),
    ("clock-pattern grid skipping x = 0", Op("clock-pattern", (("x_min", "-25.025"), ("x_max", "25.025")))),
    ("clock-pattern raster of two times", Op("clock-pattern", (("raster_t_min", "0.5"), ("raster_t_max", "1.0")))),
    ("lattice-evolve two snapshots", lattice("n_steps=64", "snapshot_every=100")),
    ("lattice-evolve site_count=200", lattice("site_count=200")),
    ("lattice-evolve delta=1e150", lattice("delta=1e150")),
    ("lattice-evolve diffusion=1e-300", lattice("diffusion=1e-300")),
    ("lattice-evolve alpha**n_steps underflow", lattice("alpha=1e-6", "n_steps=58", "mc_paths=100")),
    ("spectral-check momentum grid overflow", Op("spectral-check", (("delta", "1e-308"), ("site_count", "64")))),
    ("double-slit window under one node spacing", Op("double-slit", (("half_separation", "1e-300"),))),
    ("continuum-check chain under kernel window", Op("continuum-check", (("deltas", "0.1,0.05,0.025"), ("t", "0.08")))),
]


def run(root: Path, op: Op, out: Path) -> tuple[int, dict[str, str], dict | None]:
    """Exit code, {data file name: SHA-256} and report.json without its wall-clock fields, of one invocation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "clockwalk", *op.argv(out)],
        cwd=root, env=env, capture_output=True,
    )
    files, report = {}, None
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name != "report.json":
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            else:
                report = json.loads(path.read_text(encoding="utf-8"))
                del report["timings"]
                report["manifest"].pop("duration_seconds", None)
    return proc.returncode, files, report


MISSING = object()


def differing_keys(a, b, prefix: str = "") -> list[str]:
    """Dotted paths of the keys whose values differ between two JSON objects, or that one side lacks.

    A list counts as one value; a key one side lacks is named once, not each key below it.
    """
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [prefix or "."]
    paths = []
    for key in sorted(a.keys() | b.keys()):
        paths += differing_keys(a.get(key, MISSING), b.get(key, MISSING), f"{prefix}.{key}" if prefix else key)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    differs = 0
    with tempfile.TemporaryDirectory(prefix="compare_runs.") as tmp:
        for k, (name, op) in enumerate(INVOCATIONS):
            code_a, files_a, report_a = run(args.parent.resolve(), op, Path(tmp) / f"{k}.parent")
            code_b, files_b, report_b = run(args.change.resolve(), op, Path(tmp) / f"{k}.change")
            changed = sorted(f for f in files_a.keys() | files_b.keys() if files_a.get(f) != files_b.get(f))
            same = code_a == code_b and not changed and report_a == report_b
            differs += not same
            print(f"{'same' if same else 'DIFF'}  exit {code_a}/{code_b}  {name}")
            for f in changed:
                print(f"        {f}: {files_a.get(f, 'missing')[:12]} -> {files_b.get(f, 'missing')[:12]}")
            if report_a != report_b:
                print("        report.json differs: " + ", ".join(differing_keys(report_a, report_b)))
    print(f"{len(INVOCATIONS) - differs} of {len(INVOCATIONS)} invocations identical")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

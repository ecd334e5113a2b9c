"""Run a fixed list of clockwalk invocations on two checkouts and compare their data.

    python3 tools/compare_runs.py --parent DIR --change DIR

DIR is the root of a checkout; each invocation runs `python -m clockwalk`
with DIR/src on PYTHONPATH, into a fresh run directory per side.  For each
invocation the script prints both exit codes and every data file whose
SHA-256 differs between the sides or that only one side wrote.  Under each
data file that both sides wrote it prints the columns whose cells differ,
each with the count of changed cells and the largest distance between a
changed cell's two values: their absolute difference in a column whose
changed cells are all integers as written, their distance in ulps
otherwise (see column_changes).  report.json
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
reach 1e300 (delta = 1e150, diffusion = 1e-300), four configs the runner
or library refuses (an alpha whose alpha**n_steps underflows, a
spectral-check delta whose momentum grid overflows, a double-slit window
shorter than one node spacing and a continuum-check level whose chain is
narrower than the kernel window), and three configs whose proper times
the parity cannot use: two that overflow (double-slit at
source_to_slit_time = 1e300, propagator-compare at t = 1e300) and one past
the parity's bound on half periods (propagator-compare at t = 1e17).
Three clock-pattern configs follow: x_step = 0.005 in CSV and in
JSON, whose 10 001-row slice is written run by run across a CHUNK_ROWS
boundary, and a slice whose sample at x = 1e-9 lies within rounding of a
half-period boundary (t = compton_period = 0.7), where the float rule
reads the wrong side and plane_pattern takes the exact cell.  Two configs
that exercise the spectral engine's one step function follow:
continuum-check at diffusion_deltas = 0.025, 0.0125, 0.00625, whose finest
diffusion level runs the z block for s = 25 600 steps, and spectral-check
at alpha = 0.7, a third alpha for the transfer matrices that step
builds.  Two grids of the decimal grid rule follow.  lattice-evolve at
delta = 0.3333333333333333 has x numerators k * 3333333333333333 (in units
of 1e-16) past 2**53, so its positions take the rule's Python-int division
path.  propagator-compare at x_window = 3.7
and x_step = 0.003 starts its grid at a one-decimal -3.7 and steps it by a
three-decimal 0.003.  Two clock-pattern configs with samples within
rounding of a half-period boundary follow: the desk grid at
compton_period = 0.7, and a slice at t = 15.46, compton_period = 0.3 whose
sample at x = -14.96 lies 5 ulps from one.  A clock-pattern slice at
t = 1e-160 ends the list: there t*t is subnormal, and the float rule reads
the samples at x = +-8e-161 in the wrong cell.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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
    ("double-slit proper time overflow", Op("double-slit", (("source_to_slit_time", "1e300"),))),
    ("propagator-compare proper time overflow", Op("propagator-compare", (("t", "1e300"),))),
    ("propagator-compare past the parity bound", Op("propagator-compare", (("t", "1e17"),))),
    *(
        (f"clock-pattern 10 001-row slice {fmt}", Op("clock-pattern", (("x_step", "0.005"),), fmt))
        for fmt in ("csv", "json")
    ),
    ("clock-pattern sample at rounding distance of a crossing", Op("clock-pattern", (
        ("t", "0.7"), ("compton_period", "0.7"), ("x_min", "1e-9"), ("raster_t_step", "7.35"),
    ))),
    ("continuum-check z at s = 25 600", Op("continuum-check", (("diffusion_deltas", "0.025,0.0125,0.00625"),))),
    ("spectral-check alpha=0.7", Op("spectral-check", (("alpha", "0.7"),))),
    ("lattice-evolve delta=0.3333333333333333", lattice("delta=0.3333333333333333")),
    ("propagator-compare x_window=3.7 x_step=0.003",
     Op("propagator-compare", (("x_window", "3.7"), ("x_step", "0.003")))),
    ("clock-pattern compton_period=0.7", Op("clock-pattern", (("compton_period", "0.7"),))),
    ("clock-pattern sample 5 ulps from a boundary", Op("clock-pattern", (
        ("compton_period", "0.3"), ("t", "15.46"), ("x_min", "-15.46"), ("x_max", "15.46"),
    ))),
    ("clock-pattern at t = 1e-160, where t*t is subnormal", Op("clock-pattern", (
        ("t", "1e-160"), ("compton_period", "3e-161"), ("x_min", "-1e-160"), ("x_max", "1e-160"),
        ("x_step", "1e-163"), ("raster_t_min", "1e-160"), ("raster_t_max", "2e-160"), ("raster_t_step", "1e-160"),
    ))),
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


def columns(path: Path) -> tuple[list[str], list[list]]:
    """Header and rows of a CSV or JSON data file, each cell as written (CSV text, JSON value)."""
    if path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
        return data["header"], data["rows"]
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return header.split(","), [line.split(",") for line in lines]


def ordered_bits(values: np.ndarray) -> np.ndarray:
    """uint64 keys that order doubles as the reals do, one ulp apart per adjacent double (-0.0 and 0.0 apart by one)."""
    bits = values.view(np.uint64)
    return np.where(bits >> np.uint64(63), ~bits, bits | np.uint64(1 << 63))


def is_integer(cell) -> bool:
    """Whether a cell is an integer as written: CSV integer text, or a JSON int or bool."""
    return isinstance(cell, int) or (isinstance(cell, str) and re.fullmatch(r"[-+]?[0-9]+", cell) is not None)


def column_changes(path_a: Path, path_b: Path) -> list[str]:
    """One line per column whose cells differ: the count of changed cells and the largest distance between them.

    The distance is the absolute difference when every changed cell on both
    sides is an integer as written (a parity moving from -1 to 1 is 2 apart),
    and the distance in ulps between the cells read as doubles otherwise.
    """
    (header_a, rows_a), (header_b, rows_b) = columns(path_a), columns(path_b)
    if header_a != header_b or len(rows_a) != len(rows_b):
        return [f"header {header_a} -> {header_b}, {len(rows_a)} -> {len(rows_b)} rows"]
    lines = []
    for j, name in enumerate(header_a):
        cells_a, cells_b = [row[j] for row in rows_a], [row[j] for row in rows_b]
        pairs = [(a, b) for a, b in zip(cells_a, cells_b) if a != b]
        if not pairs:
            continue
        if all(is_integer(a) and is_integer(b) for a, b in pairs):
            distance = f"largest absolute difference {max(abs(int(a) - int(b)) for a, b in pairs)}"
        else:
            a, b = (ordered_bits(np.array(side, dtype=float)) for side in zip(*pairs))
            distance = f"largest {int(np.where(a > b, a - b, b - a).max())} ulps"
        lines.append(f"{name}: {len(pairs)} of {len(cells_a)} cells changed, {distance}")
    return lines


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
                if f in files_a and f in files_b:
                    for line in column_changes(Path(tmp) / f"{k}.parent" / f, Path(tmp) / f"{k}.change" / f):
                        print(f"            {line}")
            if report_a != report_b:
                keys = differing_keys(report_a, report_b) if report_a and report_b else ["missing on one side"]
                print("        report.json differs: " + ", ".join(keys))
    print(f"{len(INVOCATIONS) - differs} of {len(INVOCATIONS)} invocations identical")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

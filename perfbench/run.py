"""End-to-end benchmark of the clockwalk command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A run repeats whole rounds of the
workload for S seconds, starting no round that would likely end later.  A
round starts the workload's ``clockwalk <scenario>`` invocations one at a
time (closed loop, one client), each into a fresh run directory, and checks
every output against computations of the benchmark's own (checks.py).  An
operation is one invocation; it fails on a non-zero exit code, a file whose
SHA-256 differs from its manifest entry, a failed check, or a manifest
digest that differs from the same invocation's digest in an earlier round.

The run and every process it starts are pinned to one CPU.  A thread of
the benchmark (SpeedProbe) times a small fixed numpy task on that CPU every
50 ms, while the invocations run.  wall_ref is each invocation's wall time
divided by the median task time sampled during it: the machine's speed
drifts by tens of percent over seconds to minutes, and the ratio cancels
most of that drift where raw seconds cannot.

With --trace 0 the last line of standard output is a JSON object with the
medians over rounds of the end-to-end metrics.  With --trace 1 rounds
alternate untraced and traced; the per-layer metrics are medians over the
traced rounds, run.wall_s and run.ref_s are the raw untraced wall time and
probe task time, and trace.overhead_s is the traced minus the untraced median
wall time.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from checks import check_run  # noqa: E402

WORK_DIR = ".perfbench"
MIB = float(1 << 20)
# Whatever --seconds asks, no round is started that would likely end after
# this many seconds, which keeps every run inside its 180 s limit.
RUN_LIMIT_S = 150.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation: scenario, `--set` overrides, output format."""

    scenario: str
    sets: tuple[tuple[str, str], ...]
    fmt: str = "csv"

    def argv(self, out_dir: Path) -> list[str]:
        args = [self.scenario]
        for key, value in self.sets:
            args += ["--set", f"{key}={value}"]
        return args + ["--format", self.fmt, "--out", str(out_dir)]


def walk_snapshots(seed: int) -> list[Op]:
    # The seed places the walker within 32 sites of the centre of the
    # 1088-site chain, where its 512-step cone never wraps.  The Monte
    # Carlo overlay keeps the CLI's default sampler seed: the CLI's own
    # 4-standard-error check fails on some sampler seeds (about 1 in 400),
    # and an operation that fails on some seeds only cannot be measured.
    site = 512 + seed % 64
    return [Op("lattice-evolve", (("n_steps", "512"), ("mc_paths", "20000"), ("initial_site", str(site))))]


def continuum_levels(seed: int) -> list[Op]:
    return [Op("continuum-check", (("deltas", "0.1,0.05,0.025,0.0125"),))]


def patterns_json(seed: int) -> list[Op]:
    return [
        Op("clock-pattern", (("x_step", "0.01"), ("raster_t_step", "0.25")), "json"),
        Op("double-slit", (("x_step", "0.002"),), "json"),
        Op("propagator-compare", (("x_step", "0.0005"),), "json"),
        Op("spectral-check", (("site_count", "16384"),), "json"),
    ]


WORKLOADS = {
    "walk-snapshots": walk_snapshots,
    "continuum-levels": continuum_levels,
    "patterns-json": patterns_json,
}

END_TO_END = {"wall_ref": "ref-task", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}
PER_LAYER = {
    "experiments_cli.import_s": "s",
    "experiments_cli.config_s": "s",
    "experiments_cli.runner_self_s": "s",
    "experiments_cli.write_s": "s",
    "experiments_cli.cells": "count",
    "lattice_walk.step_s": "s",
    "lattice_walk.step_calls": "count",
    "lattice_walk.site_steps": "count",
    "lattice_walk.mc_s": "s",
    "lattice_walk.mc_path_steps": "count",
    "spectral_limit.self_s": "s",
    "spectral_limit.calls": "count",
    "clock_signal.self_s": "s",
    "clock_signal.samples": "count",
    "reference_solutions.self_s": "s",
    "reference_solutions.calls": "count",
    "run.wall_s": "s",
    "run.ref_s": "s",
    "trace.overhead_s": "s",
}
# Per-layer metrics that come from the untraced rounds, not from spans.
UNTRACED = ("run.wall_s", "run.ref_s", "trace.overhead_s")


class SpeedProbe:
    """A thread that times a small fixed task every INTERVAL_S seconds.

    The task is 40 steps of a three-point average on a 4096-site array, the
    kind of small numpy call the CLI's step loops and writers are made of.
    Its input is fixed, so only the speed of the CPU moves its time.  Each
    sample is the thread's own CPU time for one task, so time spent waiting
    while the CLI holds the CPU is not counted.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.sites = np.random.default_rng(0).random(4096)
        self.samples: list[tuple[float, float]] = []  # (monotonic end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def task(self) -> float:
        start = time.thread_time()
        x = self.sites
        for _ in range(40):
            x = 0.5 * (np.roll(x, 1) + np.roll(x, -1))
        return time.thread_time() - start

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            cpu_s = self.task()
            self.samples.append((time.monotonic(), cpu_s))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def median_between(self, start: float, end: float) -> float:
        """The median task time of the samples that ended in [start, end]."""
        inside = [cpu_s for t, cpu_s in self.samples if start <= t <= end]
        while not inside:
            # Shorter than the interval: wait for the next sample.
            time.sleep(self.INTERVAL_S)
            inside = [cpu_s for t, cpu_s in self.samples if t >= start][:1]
        return statistics.median(inside)


@dataclass
class Outcome:
    """What one invocation cost, what it wrote, and what was wrong with it."""

    wall_s: float
    setup_s: float
    rss_mb: float
    exit_code: int
    record: dict
    errors: list[str]
    digest: str | None
    nbytes: int
    # The median probe-task time while the invocation ran.
    ref_s: float = 0.0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_op(op: Op, out_dir: Path, record_path: Path, trace: bool, env: dict[str, str]) -> Outcome:
    """Start one invocation, wait for it, and check what it wrote."""
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), "1" if trace else "0", "--", *op.argv(out_dir)]
    log_path = record_path.with_suffix(".log")
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    if proc.returncode == 0:
        errors, digest, nbytes = check_run(out_dir, op.scenario, dict(op.sets), op.fmt)
    else:
        log_tail = log_path.read_text(encoding="utf-8", errors="replace").strip()[-2000:]
        errors, digest, nbytes = [f"exit code {proc.returncode}: {log_tail}"], None, 0
    return Outcome(
        wall_s=end - start,
        setup_s=record.get("runner_entry", end) - start,
        rss_mb=usage.ru_maxrss * 1024 / MIB,
        exit_code=proc.returncode,
        record=record,
        errors=errors,
        digest=digest,
        nbytes=nbytes,
    )


def end_to_end(outcomes: list[Outcome]) -> dict[str, float]:
    return {
        "wall_ref": sum(o.wall_s / o.ref_s for o in outcomes),
        "wall_s": sum(o.wall_s for o in outcomes),
        "ref_s": statistics.median(o.ref_s for o in outcomes),
        "setup_s": sum(o.setup_s for o in outcomes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "output_mb": sum(o.nbytes for o in outcomes) / MIB,
    }


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer sums over the invocations of one traced round.

    A span's self time is its duration minus the durations of the spans
    it directly caused.  The writer is what run_scenario spends outside
    the scenario runner.
    """
    m = {name: 0 for name in PER_LAYER if name not in UNTRACED}
    for rec in records:
        m["experiments_cli.import_s"] += rec["import_end"] - rec["import_start"]
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, count), child_time in zip(spans, covered):
            duration = end - start
            own = duration - child_time
            layer, _, function = name.rpartition(".")
            if layer == "experiments_cli":
                if function == "run_scenario":
                    m["experiments_cli.write_s"] += duration
                elif function == "runner":
                    m["experiments_cli.write_s"] -= duration
                    m["experiments_cli.runner_self_s"] += own
                    m["experiments_cli.cells"] += count
                else:
                    m["experiments_cli.config_s"] += duration
            elif layer == "lattice_walk.step":
                m["lattice_walk.step_s"] += own
                if function != "evolve":
                    m["lattice_walk.step_calls"] += 1
                    m["lattice_walk.site_steps"] += count
            elif layer == "lattice_walk.mc":
                m["lattice_walk.mc_s"] += own
                m["lattice_walk.mc_path_steps"] += count
            elif layer == "clock_signal":
                m["clock_signal.self_s"] += own
                m["clock_signal.samples"] += count
            else:
                m[f"{layer}.self_s"] += own
                m[f"{layer}.calls"] += 1
    return m


class Run:
    """The rounds of one benchmark run and the counts of its operations."""

    def __init__(self, root: Path, workload: str, seed: int, probe: SpeedProbe) -> None:
        self.ops = WORKLOADS[workload](seed)
        self.env = child_env(root)
        self.work = root / WORK_DIR / f"{workload}-{os.getpid()}"
        self.attempted = self.failed = 0
        self.correct = True
        self.digests: dict[int, str] = {}
        self.rounds = 0
        self.probe = probe

    def round(self, trace: bool) -> list[Outcome]:
        self.rounds += 1
        outcomes = []
        for i, op in enumerate(self.ops):
            base = self.work / f"r{self.rounds}-{i}-{op.scenario}"
            base.mkdir(parents=True)
            start = time.monotonic()
            out = run_op(op, base / "run", base / "record.json", trace, self.env)
            out.ref_s = self.probe.median_between(start, start + out.wall_s)
            # Byte stability: every round of a run writes the same files.
            if not out.errors:
                first = self.digests.setdefault(i, out.digest)
                if out.digest != first:
                    out.errors.append(f"manifest digest {out.digest} differs from the first passing round's {first}")
            self.attempted += 1
            if out.errors:
                self.failed += 1
                # A run that exits 0 with wrong outputs is incorrect; a run
                # that reports its own failure is only a failed operation.
                self.correct = self.correct and out.exit_code != 0
                print(f"FAILED {op.scenario}: " + "; ".join(out.errors), file=sys.stderr)
            shutil.rmtree(base)
            outcomes.append(out)
        return outcomes


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # One CPU for the benchmark and the processes it starts (they inherit
    # the mask), so that the speed probe runs where the CLI runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedProbe() as probe:
        run = Run(root, workload, seed, probe)
        # Untimed: fill the bytecode and file caches, as any earlier use would.
        subprocess.run([sys.executable, "-c", "import clockwalk.experiments_cli"], env=run.env, check=False)
        plain, traced = [], []
        start = time.monotonic()
        try:
            while True:
                t0 = time.monotonic()
                plain.append(end_to_end(run.round(False)))
                if trace:
                    outcomes = run.round(True)
                    traced.append({**layer_metrics([o.record for o in outcomes]), "wall_s": end_to_end(outcomes)["wall_s"]})
                now = time.monotonic()
                print(f"round {len(plain)}: " + " ".join(f"{k}={v:.4f}" for k, v in plain[-1].items()), file=sys.stderr)
                # Whole rounds only: stop before a round that would overrun.
                if now + (now - t0) - start > min(seconds, RUN_LIMIT_S):
                    break
        finally:
            shutil.rmtree(run.work, ignore_errors=True)

    def median(rows, name):
        return statistics.median(row[name] for row in rows)

    if trace:
        values = {name: median(traced, name) for name in PER_LAYER if name not in UNTRACED}
        values["run.wall_s"] = median(plain, "wall_s")
        values["run.ref_s"] = median(plain, "ref_s")
        values["trace.overhead_s"] = median(traced, "wall_s") - values["run.wall_s"]
        units = PER_LAYER
    else:
        values = {name: median(plain, name) for name in END_TO_END}
        units = END_TO_END
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "clockwalk" / "__init__.py").is_file():
        print(f"no clockwalk source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Interleaved before/after runs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json

DIR is the root of a checkout (a copy of `src/`, `perfbench/` and
`BENCHMARK.json` will do).  Pair i (i = 0 .. 9) runs every workload of
BENCHMARK.json once on both checkouts with seed i, for its `run_seconds`,
with the side that goes first alternating from pair to pair.  One
`--trace 1` run per side and workload follows the pairs, for the
per-layer metrics.  Every run's JSON result goes into the file as soon as it ends,
with a summary per workload and end-to-end metric: each side's median and
quartiles, and how many pairs the change won.  Under "trees" it names
the code each side ran: a SHA-256 over its `src/` files (see tree_digest).

It refuses to start (exit 2) while either checkout's `src/` holds a
`__pycache__`: a side that imports cached bytecode skips compiling the
package on every invocation and reads faster on unchanged code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def machine() -> dict:
    """What the runs ran on: processor model, CPU count, OS and Python."""
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    return {
        "cpu": models[0] if models else platform.processor(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def tree_digest(root: Path) -> str:
    """SHA-256 over the sorted "path:sha256" lines of the files under root/src,
    paths relative to src/, skipping __pycache__."""
    src = root / "src"
    files = sorted(p.relative_to(src).as_posix() for p in src.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    lines = "".join(f"{name}:{hashlib.sha256((src / name).read_bytes()).hexdigest()}\n" for name in files)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    out: dict = {}
    for w in sorted({r["workload"] for r in runs}):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == w and r["trace"] == 0:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for p in pairs.values() if len(p) == 2]
        out[w] = {"pairs": len(complete), "failed": {
            side: sum(p[side]["failed"] for p in complete) for side in ("parent", "change")}}
        if len(complete) < 2:
            continue
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in complete] for side in ("parent", "change")}
            wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            row = {"change_wins": wins, "bound": metric["bound"]}
            for side, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
                row[side] = {"median": med, "q1": q1, "q3": q3}
            row["median_ratio"] = row["change"]["median"] / row["parent"]["median"]
            out[w][name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    caches = sorted(path for root in (args.parent, args.change)
                    for path in (root / "src").rglob("__pycache__") if path.is_dir())
    if caches:
        for path in caches:
            print(f"bench_pairs: {path} holds cached bytecode; remove it", file=sys.stderr)
        return 2
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"machine": machine(), "trees": {side: tree_digest(root) for side, root in sides.items()},
           "run_seconds": bench["run_seconds"], "workloads": workloads, "runs": [], "summary": {}}

    def record(workload: str, pair: int, side: str, trace: int) -> None:
        start = time.time()
        result = run_once(sides[side], workload, pair, bench["run_seconds"], trace)
        doc["runs"].append({"workload": workload, "pair": pair, "side": side, "trace": trace,
                            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(start)), "result": result})
        doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"{workload} pair {pair} {side} trace={trace}: {json.dumps(result['metrics'])}", file=sys.stderr)

    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                record(workload, pair, side, 0)
    for workload in workloads:
        for side in ("parent", "change"):
            record(workload, PAIRS, side, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
